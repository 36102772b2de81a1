"""Shared pytest setup: a deterministic hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and have no per-example deadline, so the suite stays
reproducible and its time bounded by ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("deterministic")
