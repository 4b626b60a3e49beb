"""Every test starts with empty caches of names and diagrams.

`build_satake` keeps one diagram per descriptor, and each diagram keeps the
analysis `orbit_report` reads, so without this a test that watches a cold
report (no `Fraction`, no sorted view, no verify table) could pass on a
diagram an earlier test left analysed, building nothing.  The layer caches
under it stay each test's own business.
"""

import pytest

from lieorbits import satake


@pytest.fixture(autouse=True)
def _empty_diagram_caches():
    satake.parse_form_name.cache_clear()
    satake._cached_satake.cache_clear()
