"""Shared test settings: hypothesis runs a fixed, bounded set of examples."""

from hypothesis import settings

# derandomize: the same examples on every run, so the suite stays reproducible.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("deterministic")
