"""The packed-integer root-string closure against the tuple code it replaced.

The reference below is a copy, kept here, of the breadth-first closure as it
was written on coordinate tuples: each root carried its coroot pairings and
string lengths as lists, stepped up by tuple slicing, and the positive roots
were sorted by height, then by coordinates.  `RootSystem.positive_roots` was
the height filter over every root.  The packed closure must give the same
roots in the same order and the same highest root on every simple type up to
rank 24 and on A64, B64, C64 and D64; its two guards must still raise; and
`verify`'s `roots.positive-first` check, which guards the height order of
the positive keys the `roots` view is read off, must fire on a root system
out of that order.
"""

from itertools import compress, repeat
from operator import add, gt, neg

import pytest
from test_diagram_kernels import candidate_types

from lieorbits import rootsys, verify
from lieorbits.errors import InvalidType
from lieorbits.rootsys import SimpleType, build_root_system, simple_coord

TYPES = [t for rank in range(1, 25) for t in candidate_types(rank)]
RANK_CAP_TYPES = [SimpleType(letter, 64) for letter in "ABCD"]


# --- the tuple-based reference ------------------------------------------------


def ref_closure(letter, rank):
    """(roots, highest) by the tuple closure; reads the module's Cartan
    matrices and root counts, so a test can patch both."""
    t = SimpleType(letter, rank)
    n = t.rank
    cartan = rootsys.cartan_matrix(t)
    nodes = range(n)
    layer = {simple_coord(n, i): (cartan[i], [0] * n) for i in nodes}
    positives = set(layer)
    tops = []
    while layer:
        nxt = {}
        for gamma, (pairs, strings) in layer.items():
            ups = list(compress(nodes, map(gt, strings, pairs)))
            if not ups:
                tops.append(gamma)
            for i in ups:
                up = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1 :]
                data = nxt.get(up)
                if data is None:
                    data = nxt[up] = (list(map(add, pairs, cartan[i])), [0] * n)
                data[1][i] = strings[i] + 1
        positives.update(nxt)
        layer = nxt
    count = rootsys.ROOT_COUNT_FORMULAS[letter](rank)
    if 2 * len(positives) != count:
        raise InvalidType(f"closure produced {2 * len(positives)} roots for {t.name}, expected {count}")
    if len(tops) != 1:
        raise InvalidType(f"{t.name} has {len(tops)} maximal roots; system is not irreducible")
    roots = sorted(sorted(positives), key=sum)
    return tuple(roots) + tuple(map(tuple, map(map, repeat(neg), roots))), tops[0]


def ref_positive_roots(rs):
    """The height filter `positive_roots` was."""
    return tuple(compress(rs.roots, map((0).__lt__, map(sum, rs.roots))))


def closure_errors(t):
    """The InvalidType messages of the packed closure and of the reference."""
    messages = []
    for build in (lambda: build_root_system(t), lambda: ref_closure(t.letter, t.rank)):
        rootsys._build_cached.cache_clear()
        with pytest.raises(InvalidType) as info:
            build()
        messages.append(str(info.value))
    return messages


# --- the comparisons ------------------------------------------------------


@pytest.mark.parametrize("t", TYPES + RANK_CAP_TYPES, ids=lambda t: t.name)
def test_packed_closure_matches_the_tuple_closure(t):
    rs = build_root_system(t)
    roots, highest = ref_closure(t.letter, t.rank)
    assert rs.roots == roots
    assert rs.highest == highest
    assert rs.positive_roots == ref_positive_roots(rs)


def test_a_wrong_root_count_still_raises(monkeypatch):
    monkeypatch.setitem(rootsys.ROOT_COUNT_FORMULAS, "E", lambda n: 100)
    try:
        expected = "closure produced 240 roots for E8, expected 100"
        assert closure_errors(SimpleType("E", 8)) == [expected, expected]
    finally:
        monkeypatch.undo()
        rootsys._build_cached.cache_clear()


def test_several_maximal_roots_still_raise(monkeypatch):
    # A2 + A1 closes to 8 roots; with the count patched to 8 only the top guard can fire
    reducible = ((2, -1, 0), (-1, 2, 0), (0, 0, 2))
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda _t: reducible)
    monkeypatch.setitem(rootsys.ROOT_COUNT_FORMULAS, "A", lambda n: 8)
    try:
        expected = "A3 has 2 maximal roots; system is not irreducible"
        assert closure_errors(SimpleType("A", 3)) == [expected, expected]
    finally:
        monkeypatch.undo()
        rootsys._build_cached.cache_clear()


def out_of_order(rs):
    """Positive key lists that break the height order one way each: the zero
    key, of height 0, in place of the first, and two keys of different
    heights swapped, the last simple root with the first root of height 2
    and the first root with the highest."""
    keys = list(rs.positive_keys)
    yield tuple([0] + keys[1:])
    n = rs.rank
    for i, j in ((n - 1, n), (0, len(keys) - 1)) if n > 1 else ():
        swapped = keys[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield tuple(swapped)


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "C4", "D5", "G2", "F4", "E6", "E8"])
def test_positive_first_fires_on_a_root_list_out_of_order(name):
    rs = build_root_system(SimpleType(name[0], int(name[1:])))
    assert verify.check_root_system(rs) == []
    mutants = list(out_of_order(rs))
    assert len(mutants) == (1 if rs.rank == 1 else 3)
    for keys in mutants:
        copy = rs._replace(positive_keys=keys)
        checks = {f.check for f in verify.check_root_system(copy)}
        assert "roots.positive-first" in checks, keys


def test_a_key_that_does_not_decode_fails_by_name():
    # a negative key and one with more digits than the rank: unpack reads neither,
    # and the highest-root scan lists only the keys it reads
    rs = build_root_system(SimpleType("A", 3))
    keys = rs.positive_keys
    for bad, non_extendable in ((-1, [(1, 1, 0)]), (1 << 30, [(1, 1, 0), (1, 1, 1)])):
        assert verify.check_root_system(rs._replace(positive_keys=(bad,) + keys[1:])) == [
            ("A3", "roots.positive-first", "the roots are not the positive ones by height followed by their negatives"),
            ("A3", "roots.spanning-tree", "positive root 0 is not its parent -1 plus a_2"),
            ("A3", "roots.highest-unique", f"non-extendable positives: {non_extendable}"),
        ], bad
