"""Every test starts with an empty cache of form analyses.

`orbit_report` keeps one analysis per diagram across calls, so without this
a test that watches a cold report (no `Fraction`, no sorted view, no verify
table) could pass on an analysis an earlier test left behind, building
nothing.  The layer caches under it stay each test's own business.
"""

import pytest

from lieorbits import orbits


@pytest.fixture(autouse=True)
def _empty_analysis_cache():
    orbits._shared_analysis.cache_clear()
