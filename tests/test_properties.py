"""Property tests: the batched jet and contents paths equal the per-point
ones on randomly drawn admissible surfaces, points and materials."""

import warnings

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from plate_reduce import (CiarletGeymonat, Gent, MooneyRivlin, NeoHookean,
                          SaintVenantKirchhoff, catalog_surface, evaluate_jet,
                          point_contents)
from plate_reduce.surface_geometry import evaluate_jets

JET_FIELDS = ("grad_y", "hess_y", "grad_nu", "a1", "a2", "normal", "C", "B",
              "r1", "r2", "l1", "l2", "shape_op", "lambda1", "lambda2", "H",
              "K", "b1", "trC", "detC")

unit = st.floats(0.0, 1.0)
positive = st.floats(0.5, 2.0)


@st.composite
def surfaces(draw):
    name = draw(st.sampled_from(["gaussian_bump", "sphere_cap", "cylinder"]))
    if name == "gaussian_bump":
        params = {"A": draw(st.floats(0.0, 0.6)), "s": draw(st.floats(0.7, 1.5))}
    else:
        params = {"R": draw(st.floats(0.5, 5.0))}
    mode = draw(st.sampled_from(["analytic", "finite-difference"]))
    try:
        return catalog_surface(name, derivative_mode=mode, **params)
    except ValueError:
        # a bump too steep to stay an immersion is rejected by the catalog
        assume(False)


@st.composite
def surface_points(draw):
    surface = draw(surfaces())
    margin = 3.0 * surface.step
    (u0, u1), (v0, v1) = surface.domain
    fractions = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
    points = np.array([[u0 + margin + a * (u1 - u0 - 2 * margin),
                        v0 + margin + b * (v1 - v0 - 2 * margin)]
                       for a, b in fractions])
    return surface, points


materials = st.one_of(
    st.builds(Gent, mu=positive, jm=st.floats(5.0, 50.0)),
    st.builds(NeoHookean, mu=positive),
    st.builds(MooneyRivlin, mu=positive, chi=st.floats(0.1, 0.9)),
    st.builds(CiarletGeymonat.from_lame, positive, positive),
    st.builds(SaintVenantKirchhoff, lam=positive, mu=positive),
)


def assert_close(batched, per_point, what):
    # the rule of tests/test_batch.py: 1e-14 of the largest value
    per_point = np.asarray(per_point, dtype=float)
    scale = max(np.max(np.abs(per_point)), 1e-300)
    gap = np.max(np.abs(np.asarray(batched) - per_point))
    assert gap <= 1e-14 * scale, f"{what}: gap {gap:.3g} of {scale:.3g}"


@given(surface_points())
def test_batched_jets_equal_per_point_jets(case):
    surface, points = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = evaluate_jets(surface, points)
        jets = [evaluate_jet(surface, x) for x in points]
    assert len(batch) == len(points)
    for field in JET_FIELDS:
        per_point = np.stack([np.asarray(getattr(j, field)) for j in jets], -1)
        assert getattr(batch, field).shape == per_point.shape, field
        assert_close(getattr(batch, field), per_point, field)


def first_error(jets, material):
    for i, jet in enumerate(jets):
        try:
            point_contents(jet, material)
        except ValueError as err:
            return i, type(err), str(err)
    return None


@given(surface_points(), materials)
def test_batched_contents_equal_per_point_contents(case, material):
    surface, points = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = evaluate_jets(surface, points)
        jets = [evaluate_jet(surface, x) for x in points]
        expected_error = first_error(jets, material)
        try:
            contents = point_contents(batch, material)
        except ValueError as err:
            assert (err.index, type(err), str(err)) == expected_error
            return
    assert expected_error is None
    singles = [point_contents(jet, material) for jet in jets]
    for field in ("stretching", "bending"):
        assert_close(getattr(contents, field),
                     [getattr(c, field) for c in singles], field)
    assert list(contents.formula_id) == [c.formula_id for c in singles]
