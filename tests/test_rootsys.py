from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import mul

import pytest
from test_diagram_kernels import candidate_types

from lieorbits import restricted, rootsys, satake
from lieorbits.errors import InvalidType, NonIntegralWeights, RankTooSmall
from lieorbits.rootsys import (
    MAX_RANK,
    ROOT_COUNT_FORMULAS,
    SimpleType,
    WeightedDynkinDiagram,
    build_root_system,
    cartan_matrix,
    dual_coxeter_number,
    duality_permutation,
    extended_neighbors,
    min_orbit_wdd,
    orbit_dim_from_wdd,
    read_cartan_type,
    simple_coord,
)
from lieorbits.orbits import restricted_root_system
from lieorbits.restricted import positive_norms
from lieorbits.satake import RealFormDescriptor, SatakeDiagram, build_satake, catalog, parse_form_name
from lieorbits.verify import run_verification

ALL_TYPES = (
    [SimpleType("A", n) for n in range(1, 9)]
    + [SimpleType("B", n) for n in range(2, 9)]
    + [SimpleType("C", n) for n in range(2, 9)]
    + [SimpleType("D", n) for n in range(4, 9)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)

CLOSURE_TYPES = (
    [SimpleType("A", n) for n in range(1, 31)]
    + [SimpleType("B", n) for n in range(2, 31)]
    + [SimpleType("C", n) for n in range(2, 31)]
    + [SimpleType("D", n) for n in range(4, 31)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)

# the six forms at the rank cap
RANK_CAP = ("sl(64,R)", "so(1,128)", "sp(64,R)", "so(64,64)", "su(32,32)", "so*(128)")

# standard highest-root coefficient tables, frozen as an oracle against the
# closure construction
HIGHEST_ROOTS = {
    "A": lambda n: (1,) * n,
    "B": lambda n: (1,) + (2,) * (n - 1),
    "C": lambda n: (2,) * (n - 1) + (1,),
    "D": lambda n: (1,) + (2,) * (n - 3) + (1, 1),
    "E": lambda n: {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1), 8: (2, 3, 4, 6, 5, 4, 3, 2)}[n],
    "F": lambda n: (2, 3, 4, 2),
    "G": lambda n: (3, 2),
}

# d_i = <a_i, a_i>/2 per node, long roots normalized to d = 1
LENGTH_HALVES = {
    "B": lambda n: (1,) * (n - 1) + (Fraction(1, 2),),
    "C": lambda n: (Fraction(1, 2),) * (n - 1) + (1,),
    "F": lambda n: (1, 1, Fraction(1, 2), Fraction(1, 2)),
    # a1 short: the highest root is 3a1 + 2a2
    "G": lambda n: (Fraction(1, 3), 1),
}


def simple_root_length_halves(t):
    return tuple(map(Fraction, LENGTH_HALVES.get(t.letter, lambda n: (1,) * n)(t.rank)))


DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}


def test_invalid_types():
    for letter, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("X", 2)]:
        with pytest.raises(InvalidType):
            SimpleType(letter, rank)
    # a rank that is no int, a bool, a rank above the cap and an unhashable letter are refused by name
    for letter, rank in [("A", "3"), ("A", 3.0), ("A", True), ("A", MAX_RANK + 1), ("D", 10**5), (["A"], 3)]:
        with pytest.raises(InvalidType):
            SimpleType(letter, rank)
    with pytest.raises(InvalidType, match="must be an int, got bool True"):
        SimpleType("A", True)


def test_every_classical_letter_stops_at_the_cap():
    for letter in "ABCD":
        assert build_root_system(SimpleType(letter, MAX_RANK)).rank == MAX_RANK
        with pytest.raises(InvalidType):
            build_root_system(SimpleType(letter, MAX_RANK + 1))
    # the diagram reader builds no type above the cap: an A65 chain reads as None
    chain_rows = [[2 if i == j else -(abs(i - j) == 1) for j in range(MAX_RANK + 1)] for i in range(MAX_RANK + 1)]
    assert read_cartan_type(chain_rows) is None
    assert read_cartan_type([row[:MAX_RANK] for row in chain_rows[:MAX_RANK]])[0] == SimpleType("A", MAX_RANK)


def test_a1_roots():
    rs = build_root_system(SimpleType("A", 1))
    assert set(rs.roots) == {(1,), (-1,)}
    assert rs.highest == (1,)


def test_a2_roots_hand_enumeration():
    rs = build_root_system(SimpleType("A", 2))
    expected = {(1, 0), (0, 1), (1, 1)}
    assert set(rs.positive_roots) == expected
    assert len(rs.roots) == 6
    assert rs.highest == (1, 1)


def test_g2_roots_hand_enumeration():
    rs = build_root_system(SimpleType("G", 2))
    expected = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert set(rs.positive_roots) == expected
    assert len(rs.roots) == 12
    assert rs.highest == (3, 2)


def reflection_closure(cartan: list[list[int]]) -> set[tuple[int, ...]]:
    """Every root, as the orbit of the simple roots under the simple
    reflections s_i(v) = v - <v, a_i^v> a_i, with <a_j, a_i^v> = C[j][i]."""
    n = len(cartan)
    # column i of the Cartan matrix as its nonzero (j, C[j][i]) pairs
    columns = [[(j, cartan[j][i]) for j in range(n) if cartan[j][i]] for i in range(n)]
    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        v = frontier.pop()
        for i in range(n):
            k = sum(v[j] * c for j, c in columns[i])
            if k:
                w = v[:i] + (v[i] - k,) + v[i + 1 :]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen


@pytest.mark.parametrize("t", CLOSURE_TYPES, ids=lambda t: t.name)
def test_root_counts_and_highest(t):
    # the closure must reproduce the reflection orbit, root for root and in
    # its (height, coordinates) order: positives first, then their negatives
    rs = build_root_system(t)
    roots = reflection_closure(cartan_matrix(t))
    positives = sorted((v for v in roots if sum(v) > 0), key=lambda v: (sum(v), v))
    assert len(roots) == 2 * len(positives) == ROOT_COUNT_FORMULAS[t.letter](t.rank)
    assert rs.roots == tuple(positives) + tuple(tuple(-x for x in v) for v in positives)
    assert rs.highest == HIGHEST_ROOTS[t.letter](t.rank)


def gram_form(t):
    """The Gram form <a_i, a_j> = C[i][j] d_j, long roots of squared length 2."""
    d = simple_root_length_halves(t)
    return [[c * dj for c, dj in zip(row, d)] for row in cartan_matrix(t)]


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
def test_gram_cartan_consistency(t):
    rs = build_root_system(t)
    gram = gram_form(t)
    n = t.rank
    for i in range(n):
        for j in range(n):
            assert 2 * gram[i][j] / gram[j][j] == rs.cartan[i][j]
            assert gram[i][j] == gram[j][i]
            assert rs.scaled_gram[i][j] == rs.gram_scale * gram[i][j]
    # long roots have squared length 2, and the scale is the least one that makes the form integral
    assert max(gram[i][i] for i in range(n)) == 2
    assert rs.gram_scale == lcm(*(d.denominator for d in simple_root_length_halves(t)))


def inner(rs, v, w) -> Fraction:
    """<v, w> from the integer multiple of the Gram form that the package keeps."""
    return Fraction(rs.scaled_inner(v, w)) / rs.gram_scale


def pairing(rs, v, w) -> Fraction:
    """2<v,w>/<w,w>: the value of v on the coroot of w, from the exact Gram form."""
    return 2 * inner(rs, v, w) / inner(rs, w, w)


def test_pairing_examples():
    a2 = build_root_system(SimpleType("A", 2))
    assert pairing(a2, (1, 0), (1, 0)) == 2
    assert pairing(a2, (1, 0), (0, 1)) == -1
    g2 = build_root_system(SimpleType("G", 2))
    # phi = 3a1 + 2a2 with a1 short is orthogonal to a1 and pairs to 1 on a2
    assert pairing(g2, g2.highest, (1, 0)) == 0
    assert pairing(g2, g2.highest, (0, 1)) == 1


def test_pairing_zero_vector():
    a2 = build_root_system(SimpleType("A", 2))
    with pytest.raises(ZeroDivisionError):
        pairing(a2, (1, 0), (0, 0))


def test_min_orbit_wdd_examples():
    assert min_orbit_wdd(build_root_system(SimpleType("A", 1))).weights == (Fraction(2),)
    assert min_orbit_wdd(build_root_system(SimpleType("A", 3))).as_ints() == (1, 0, 1)
    # E6: weight sits on the branch node (Bourbaki a2)
    assert min_orbit_wdd(build_root_system(SimpleType("E", 6))).as_ints() == (0, 1, 0, 0, 0, 0)


def test_extended_neighbors_examples():
    for n in range(2, 8):
        assert extended_neighbors(build_root_system(SimpleType("A", n))) == {0, n - 1}
    for n in range(2, 8):
        assert extended_neighbors(build_root_system(SimpleType("C", n))) == {0}
        assert extended_neighbors(build_root_system(SimpleType("B", n))) == {1}
    with pytest.raises(RankTooSmall):
        extended_neighbors(build_root_system(SimpleType("A", 1)))


@pytest.mark.parametrize("t", [t for t in ALL_TYPES if t.rank >= 2], ids=lambda t: t.name)
def test_min_wdd_support_is_extended_neighbors(t):
    rs = build_root_system(t)
    wdd = min_orbit_wdd(rs)
    assert all(w in (0, 1) for w in wdd.weights)
    assert {i for i, w in enumerate(wdd.weights) if w} == extended_neighbors(rs)


def test_orbit_dim_examples():
    a2 = build_root_system(SimpleType("A", 2))
    assert orbit_dim_from_wdd(a2, WeightedDynkinDiagram(a2.simple_type, (1, 1))) == 4
    e6 = build_root_system(SimpleType("E", 6))
    row = WeightedDynkinDiagram(e6.simple_type, (1, 0, 0, 0, 0, 1))
    assert orbit_dim_from_wdd(e6, row) == 32
    f4 = build_root_system(SimpleType("F", 4))
    row = WeightedDynkinDiagram(f4.simple_type, (0, 0, 0, 1))
    assert orbit_dim_from_wdd(f4, row) == 22


def test_orbit_dim_rejects_nonintegral():
    a2 = build_root_system(SimpleType("A", 2))
    with pytest.raises(NonIntegralWeights):
        orbit_dim_from_wdd(a2, WeightedDynkinDiagram(a2.simple_type, (Fraction(1, 2), Fraction(1))))


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
def test_min_orbit_dimension_is_dual_coxeter_formula(t):
    rs = build_root_system(t)
    dim = orbit_dim_from_wdd(rs, min_orbit_wdd(rs))
    assert dim == 2 * DUAL_COXETER[t.letter](t.rank) - 2
    # independent route: h^v = 1 + sum of coroot coefficients of phi
    d = simple_root_length_halves(t)
    hv = 1 + sum(c * di for c, di in zip(rs.highest, d))
    assert dim == 2 * hv - 2


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
def test_dual_coxeter_number_matches_the_table(t):
    assert dual_coxeter_number(build_root_system(t)) == DUAL_COXETER[t.letter](t.rank)


PAIRING_TYPES = [t for t in CLOSURE_TYPES if t.rank <= 12]


@pytest.mark.parametrize("t", PAIRING_TYPES, ids=lambda t: t.name)
def test_simple_pairings_match_scaled_inner(t):
    rs = build_root_system(t)
    n = rs.rank
    half_integer = tuple(Fraction(2 * k + 1, 2) * (-1) ** k for k in range(n))
    for v in rs.roots + (half_integer,):
        assert rs.simple_pairings(v) == tuple(rs.scaled_inner(simple_coord(n, i), v) for i in range(n)), v


@pytest.mark.parametrize("t", PAIRING_TYPES, ids=lambda t: t.name)
def test_scaled_norms_match_scaled_inner(t):
    # the norm table of the split form, whose doubled restricted roots are 2a
    # for the positive roots a, in key order, against the exact Gram form
    rs = build_root_system(t)
    gram = gram_form(t)
    n = rs.rank
    sd = SatakeDiagram(RealFormDescriptor("sl_R", (2,)), rs, frozenset(), (), False)
    norms = positive_norms(restricted_root_system(sd))
    expected = [
        (tuple(2 * x for x in a), 4 * rs.gram_scale * sum(a[i] * gram[i][j] * a[j] for i in range(n) for j in range(n)))
        for a in sorted(rs.positive_roots)
    ]
    assert list(norms.items()) == expected
    assert all(rs.scaled_inner(xi, xi) == norm for xi, norm in expected)


def test_norm_table_matches_scaled_inner_on_the_catalog():
    # the quadratic-form kernel, chain and branch edges, on the restricted
    # systems of catalog(16) and of six forms at the rank cap, in one test
    for sd in catalog(16) + [build_satake(parse_form_name(name)) for name in RANK_CAP]:
        rrs = restricted_root_system(sd)
        norms = positive_norms(rrs)
        assert tuple(norms) == tuple(sorted(map(sd.rs.unpack, rrs.keys))), sd.name
        assert [sd.rs.scaled_inner(xi, xi) for xi in norms] == list(norms.values()), sd.name


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
def test_digit_mask_keeps_the_digits_of_its_nodes(t):
    rs = build_root_system(t)
    n = rs.rank
    for nodes in chain.from_iterable(combinations(range(n), size) for size in range(n + 1)):
        mask = rs.digit_mask(nodes)
        for key, root in zip(rs.positive_keys, rs.positive_roots):
            kept = tuple(c if i in nodes else 0 for i, c in enumerate(root))
            assert rs.unpack(key & mask) == kept, (nodes, root)


def reversed_nodes(rows):
    """The Cartan rows relabelled by reversing the nodes."""
    return tuple(tuple(row[::-1]) for row in rows[::-1])


def test_the_diagram_reader_confirms_against_one_type():
    # a relabelled B5: the nodes in reverse order
    src = reversed_nodes(cartan_matrix(SimpleType("B", 5)))
    read_cartan_type.cache_clear()
    for _ in range(3):
        assert read_cartan_type(src) == (SimpleType("B", 5), (4, 3, 2, 1, 0))
    # one matrix, read once and then found
    info = read_cartan_type.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_a_cold_sweep_reads_each_distinct_matrix_once(monkeypatch):
    # the two readers, the black-component duality and the restricted type,
    # call through spies that note each matrix they read
    read = []

    def spy(rows):
        read.append(rows)
        return read_cartan_type(rows)

    monkeypatch.setattr(satake, "read_cartan_type", spy)
    monkeypatch.setattr(restricted, "read_cartan_type", spy)
    read_cartan_type.cache_clear()
    assert run_verification(max_rank=16).ok
    info = read_cartan_type.cache_info()
    assert info.misses == len(set(read)) == 67
    assert info.hits == len(read) - info.misses > info.misses


def test_the_diagram_reader_keeps_the_256_latest_matrices():
    # 257 distinct Cartan matrices: the types up to rank 60, then B3, B4, ...
    # with their nodes reversed, the double bond first
    matrices = [cartan_matrix(t) for t in CLOSURE_TYPES + [SimpleType(x, n) for x in "ABCD" for n in range(31, 61)]]
    matrices += [reversed_nodes(cartan_matrix(SimpleType("B", n))) for n in range(3, 260 - len(matrices))]
    assert len(set(matrices)) == len(matrices) == 257
    read_cartan_type.cache_clear()
    for rows in matrices:
        t, order = read_cartan_type(rows)
        assert tuple(tuple(rows[a][b] for b in order) for a in order) == cartan_matrix(t)
    info = read_cartan_type.cache_info()
    assert (info.misses, info.hits, info.currsize) == (257, 0, 256)
    # the first matrix, the least recently read, made room for the last
    read_cartan_type(matrices[1])
    read_cartan_type(matrices[0])
    info = read_cartan_type.cache_info()
    assert (info.misses, info.hits, info.currsize) == (258, 1, 256)


def test_list_rows_read_as_tuple_rows():
    # the LRU keys on the rows: rows that do not hash are keyed as tuples,
    # so a list of lists gets the tuple rows' answer and no TypeError
    b5 = cartan_matrix(SimpleType("B", 5))
    sources = [cartan_matrix(t) for t in ALL_TYPES] + [
        reversed_nodes(b5),
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
        ((2, 0), (0, 2)),
        ((2, -2, 0), (-2, 2, -1), (0, -1, 2)),
    ]
    for rows in sources:
        expected = read_cartan_type(rows)
        assert read_cartan_type([list(row) for row in rows]) == expected, rows
        assert read_cartan_type(tuple(map(list, rows))) == expected, rows
        assert read_cartan_type(list(rows)) == expected, rows
    assert read_cartan_type([list(row) for row in reversed_nodes(b5)])[0] == SimpleType("B", 5)
    assert read_cartan_type([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) is None


def test_simple_pairings_match_the_dense_gram_product():
    # the support walk against every row of the scaled Gram form, on the
    # doubled simple roots, r(phi), phi, zero and a vector with negative entries
    for sd in catalog(16) + [build_satake(parse_form_name(name)) for name in RANK_CAP]:
        rs, rrs = sd.rs, restricted_root_system(sd)
        n = rs.rank
        vectors = [*rrs.doubled_simple, *rrs.reduced_simple, rrs.doubled_highest, rs.highest, (0,) * n]
        vectors.append(tuple(i % 5 - 2 for i in range(n)))
        for v in vectors:
            assert rs.simple_pairings(v) == tuple(sum(map(mul, row, v)) for row in rs.scaled_gram), (sd.name, v)


def test_highest_root_never_extendable():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        roots = set(rs.roots)
        for eta in rs.positive_roots:
            assert tuple(a + b for a, b in zip(rs.highest, eta)) not in roots


def test_diagram_types_and_duality():
    a3 = cartan_matrix(SimpleType("A", 3))
    assert read_cartan_type(a3) == (SimpleType("A", 3), (0, 1, 2))
    assert read_cartan_type(cartan_matrix(SimpleType("B", 3)))[0] == SimpleType("B", 3)
    assert read_cartan_type(cartan_matrix(SimpleType("C", 3)))[0] == SimpleType("C", 3)
    # B2 with its nodes swapped is C2
    b2 = cartan_matrix(SimpleType("B", 2))
    assert read_cartan_type(b2) == (SimpleType("B", 2), (0, 1))
    assert read_cartan_type((b2[1][::-1], b2[0][::-1])) == (SimpleType("C", 2), (0, 1))
    assert duality_permutation(SimpleType("A", 4)) == (3, 2, 1, 0)
    assert duality_permutation(SimpleType("D", 5)) == (0, 1, 2, 4, 3)
    assert duality_permutation(SimpleType("D", 4)) == (0, 1, 2, 3)
    assert duality_permutation(SimpleType("E", 6)) == (5, 1, 4, 3, 2, 0)
    assert duality_permutation(SimpleType("E", 7)) == tuple(range(7))


def transcribed_duality(t):
    """-w0 on the simple roots as it was written out type by type before it
    was read off the table of diagram automorphisms."""
    n = t.rank
    ident = tuple(range(n))
    if t.letter == "A":
        return tuple(range(n - 1, -1, -1))
    if t.letter == "D" and n % 2 == 1:
        return ident[:-2] + (n - 1, n - 2)
    if t.letter == "E" and n == 6:
        return (5, 1, 4, 3, 2, 0)
    return ident


def test_duality_read_off_the_automorphism_table_is_the_transcription():
    types = [t for rank in range(1, 65) for t in candidate_types(rank)]
    assert len(types) == 256
    for t in types:
        assert duality_permutation(t) == transcribed_duality(t), t


def test_root_system_hash_is_the_type_hash():
    e8 = build_root_system(SimpleType("E", 8))
    copy = e8._replace()
    assert copy == e8 and copy is not e8
    assert hash(copy) == hash(e8) == hash(SimpleType("E", 8))
    assert build_root_system(SimpleType("A", 8)) != e8


@pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
def test_scaled_inner_matches_gram_form(t):
    # one fixed positive scale relates scaled_inner to the Gram form
    rs = build_root_system(t)
    gram = gram_form(t)
    phi = rs.highest
    # a half-integer Fraction vector too, (phi + a_n)/2, shaped like a halved
    # doubled restricted root
    half = tuple(Fraction(x, 2) for x in phi[:-1]) + (Fraction(phi[-1] + 1, 2),)
    for v in rs.positive_roots[:: max(1, len(rs.positive_roots) // 6)] + (half,):
        for w in (phi, rs.roots[-1], v, half):
            exact = sum(v[i] * gram[i][j] * w[j] for i in range(rs.rank) for j in range(rs.rank))
            assert inner(rs, v, w) == exact
            assert rs.scaled_inner(v, w) * inner(rs, phi, phi) == rs.scaled_inner(phi, phi) * exact


@pytest.mark.parametrize(
    "t, wrong, message",
    [
        # C3 + A1 has as many roots as A4 but two maximal ones
        (SimpleType("A", 4), [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, 0], [0, 0, 0, 2]], "2 maximal roots"),
        # a C3 matrix closes to 18 roots, not the 12 of A3
        (SimpleType("A", 3), [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "closure produced 18 roots"),
    ],
    ids=["maximal-root-guard", "root-count-guard"],
)
def test_closure_guards_reject_a_wrong_cartan_matrix(monkeypatch, t, wrong, message):
    rootsys._build_cached.cache_clear()
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda _t: tuple(map(tuple, wrong)))
    try:
        with pytest.raises(InvalidType, match=message):
            build_root_system(t)
    finally:
        monkeypatch.undo()
        rootsys._build_cached.cache_clear()
