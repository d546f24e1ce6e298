"""Shared pytest configuration for the test suite."""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current code instead of "
        "comparing against it (review the diff before committing!)",
    )


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # a deeper, reproducible pass over the cross-backend properties, for
    # the CI equivalence step (`--hypothesis-profile=equivalence`); tier-1
    # keeps each property's own small example count
    settings.register_profile(
        "equivalence", max_examples=200, derandomize=True, deadline=None
    )
