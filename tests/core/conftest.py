"""Fixtures shared by the core test modules."""

import pytest


@pytest.fixture(scope="session")
def report_cache_dir(tmp_path_factory):
    """One sweep cache for every test that builds a full report: the
    sections they share (Fig. 2, Fig. 5, FTL, tenants) are simulated
    once per session and served from the cache after that."""
    return str(tmp_path_factory.mktemp("report-cache"))
