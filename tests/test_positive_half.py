"""Root sets stored by their positive half, against the code that stored both.

`RootSystem` keeps the positive roots and builds `roots`, the negatives
included, as a view on first read; `RestrictedRootSystem.keys` keeps the
multiplicities of the positive half, packed, the view `counts` decodes them,
and the view `doubled` adds the negatives on each read.  The references
below are copies, kept here, of the code that built and stored both halves:
the closure's negation of its decoded positive roots, and the restriction's
count of alpha + tau* alpha with its negated keys, read through the sorted
views as they were.  The views must give the same values on every simple
type up to rank 30, on every catalog entry up to rank 16 and on six rank-64
forms; and a `describe` must build no negative half at all, and decode no
root but the images w0 a_k that become theta*'s columns.
"""

from collections import Counter
from itertools import chain, compress, repeat
from operator import add, neg

import pytest
from test_diagram_kernels import candidate_types

from lieorbits import rootsys, satake
from lieorbits.orbits import orbit_report, restricted_root_system, satake_involution
from lieorbits.rootsys import RootSystem, build_root_system
from lieorbits.satake import build_satake, catalog, parse_form_name

RANK_64 = ["so(1,128)", "so*(128)", "su(32,32)", "sl(64,R)", "sp(64,R)", "so(64,64)"]
TYPES = [t for rank in range(1, 31) for t in candidate_types(rank)]


def form(name):
    return build_satake(parse_form_name(name))


# --- the references that stored both halves ---------------------------------


def ref_roots(rs):
    """`roots` as the closure stored it: the decoded positive keys, then their negatives."""
    roots = [tuple(gamma.to_bytes(rs.rank, "big")) for gamma in rs.positive_keys]
    return tuple(roots) + tuple(map(tuple, map(map, repeat(neg), roots)))


def ref_views(sd):
    """(`doubled`, `doubled_positives`) as the restriction stored `counts`, both halves."""
    n = sd.rs.rank
    keys, images = satake.tau_keys(sd.rs, satake_involution(sd))
    doubled = Counter(map(add, keys, images))
    doubled.pop(0, None)
    positives = [tuple(k.to_bytes(n, "big")) for k in doubled]
    negatives = map(tuple, map(map, repeat(neg), positives))
    counts = dict(zip(chain(positives, negatives), chain(doubled.values(), doubled.values())))
    return dict(sorted(counts.items())), tuple(sorted(compress(counts, map((0).__lt__, map(sum, counts)))))


# --- the comparisons ------------------------------------------------------


@pytest.mark.parametrize("t", TYPES, ids=lambda t: t.name)
def test_the_roots_view_is_the_stored_roots(t):
    rs = build_root_system(t)
    assert rs.roots == ref_roots(rs)
    assert rs.roots[: len(rs.positive_roots)] == rs.positive_roots


@pytest.mark.parametrize("sd", catalog(16) + [form(name) for name in RANK_64], ids=lambda sd: sd.name)
def test_the_restricted_views_are_the_stored_views(sd):
    rrs = restricted_root_system(sd)
    doubled, positives = ref_views(sd)
    assert rrs.doubled == doubled and list(rrs.doubled) == list(doubled)
    assert rrs.doubled_positives == positives


def test_describe_builds_no_negative_half():
    rootsys._build_cached.cache_clear()
    satake_involution.cache_clear()
    restricted_root_system.cache_clear()
    satake._cached_satake.cache_clear()
    for name in ("e8(-24)", "sl(25,R)", "sp(64,R)"):
        sd = form(name)
        orbit_report(sd)
        assert "roots" not in vars(sd.rs), name
        assert all(min(key) >= 0 for key in restricted_root_system(sd).counts), name


def count_decodes(monkeypatch):
    """Clear the layer caches and count `RootSystem.unpack`: the list of the
    roots it decodes from now on."""
    rootsys._build_cached.cache_clear()
    satake_involution.cache_clear()
    restricted_root_system.cache_clear()
    satake._cached_satake.cache_clear()
    decoded = []
    unpack = RootSystem.unpack

    def counting(rs, key):
        decoded.append(unpack(rs, key))
        return decoded[-1]

    monkeypatch.setattr(RootSystem, "unpack", counting)
    return decoded


def test_describe_decodes_no_root(monkeypatch):
    # with no black node, theta* = -p~ is read off no root
    forms = [form(name) for name in ("sl(25,R)", "sp(64,R)", "su(32,32)")]
    decoded = count_decodes(monkeypatch)
    for sd in forms:
        assert not sd.black, sd.name
        orbit_report(sd)
        assert decoded == [], sd.name
        assert vars(sd.rs).keys().isdisjoint({"positive_roots", "roots"}), sd.name
        assert "counts" not in vars(restricted_root_system(sd)), sd.name
    # the counter sees a decode
    assert restricted_root_system(sd).counts and decoded


def test_describe_decodes_only_theta_columns(monkeypatch):
    forms = [form(name) for name in ("e8(-24)", "su(1,24)", "so(1,128)", "e7(-5)")]
    decoded = count_decodes(monkeypatch)
    for sd in forms:
        assert sd.black, sd.name
        decoded.clear()
        orbit_report(sd)
        # at most one decode per white node, each the negative of a white column of theta*
        columns = satake_involution(sd).columns
        assert len(decoded) <= len(sd.white), sd.name
        assert {tuple(map(neg, v)) for v in decoded} <= set(map(columns.__getitem__, sd.white)), sd.name
        assert vars(sd.rs).keys().isdisjoint({"positive_roots", "roots"}), sd.name
        assert "counts" not in vars(restricted_root_system(sd)), sd.name
    # the counter sees a decode
    decoded.clear()
    assert restricted_root_system(sd).counts and decoded
