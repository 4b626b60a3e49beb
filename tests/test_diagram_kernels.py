"""The diagram reads of the cold describe path against the searches they replaced.

The references below are copies, kept here, of the code as it was: the
candidate-type search, which tried a backtracking Cartan isomorphism against
every simple type of the rank, as `restricted._classify` labelled the
restricted system and `satake._component_duality` mapped a black component;
the orbit dimension graded over the coordinate columns of the positive roots;
and the -1 eigenspace of tau* measured by `matrix_rank`.  The diagram reader
must give the same type labels, B2/C2 labels and duality maps on every simple
type up to rank 30 under seeded node relabellings, and the same errors on
matrices of no Dynkin diagram; the grading along the spanning tree the same
degrees and dimensions on every catalog entry up to rank 16 and on six
rank-64 forms; and the trace count the same failure lists on those entries,
on the doctored involutions and mutant diagrams of
tests/test_column_kernels.py and on involutions put on a diagram of another
form.  A describe must decode no positive root.
"""

import random
from collections import Counter
from itertools import repeat
from operator import itemgetter, mul, sub
from types import SimpleNamespace

import pytest
from test_column_kernels import doctored_involutions, mutations, ref_involution_failures

from lieorbits import restricted, rootsys, satake
from lieorbits.errors import InconsistentDiagram, LieOrbitsError, UnrecognizedSystem
from lieorbits.orbits import FormAnalysis, orbit_report, restricted_root_system, satake_involution
from lieorbits.ratmat import matrix_rank
from lieorbits.rootsys import (
    RANK_BOUNDS,
    SimpleType,
    build_root_system,
    cartan_matrix,
    duality_permutation,
    min_orbit_wdd,
    orbit_dim_from_wdd,
    read_cartan_type,
    simple_coord,
)
from lieorbits.satake import build_satake, catalog, parse_form_name

RANK_64 = ["so(1,128)", "so*(128)", "su(32,32)", "sl(64,R)", "sp(64,R)", "so(64,64)"]


def form(name):
    return build_satake(parse_form_name(name))


ENTRIES = catalog(16) + [form(name) for name in RANK_64]


# --- the candidate-type search ----------------------------------------------


def candidate_types(rank):
    """All classified simple types of the given rank."""
    out = [SimpleType("A", rank)]
    for letter in ("B", "C", "D", "F", "G"):
        lo, hi = RANK_BOUNDS[letter]
        if rank >= lo and (hi is None or rank <= hi):
            out.append(SimpleType(letter, rank))
    if 6 <= rank <= 8:
        out.append(SimpleType("E", rank))
    return out


TYPES = [t for rank in range(1, 31) for t in candidate_types(rank)]


def row_signatures(rows):
    signatures = tuple((row[i], tuple(sorted(row[:i] + row[i + 1 :]))) for i, row in enumerate(rows))
    return signatures, tuple(sorted(signatures))


def find_cartan_isomorphism(src, tgt):
    n = len(src)
    if len(tgt) != n:
        return None
    src_sig, src_multiset = row_signatures(src)
    tgt_sig, tgt_multiset = row_signatures(tgt)
    if src_multiset != tgt_multiset:
        return None
    assigned = [None] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or tgt_sig[cand] != src_sig[i]:
                continue
            ok = True
            for j in range(i):
                sj = assigned[j]
                if src[i][j] != tgt[cand][sj] or src[j][i] != tgt[sj][cand]:
                    ok = False
                    break
            if ok:
                assigned[i] = cand
                used[cand] = True
                if backtrack(i + 1):
                    return True
                assigned[i] = None
                used[cand] = False
        return False

    if backtrack(0):
        return tuple(assigned)
    return None


def ref_label(cbar, name):
    """The letter `_classify` gave a restricted Cartan matrix of reduced type."""
    rank = len(cbar)
    matches = [t for t in candidate_types(rank) if find_cartan_isomorphism(cbar, cartan_matrix(t)) is not None]
    if not matches:
        raise UnrecognizedSystem(f"{name}: restricted Cartan matrix matches no classified type")
    if len(matches) == 1:
        return matches[0].letter
    if set(m.letter for m in matches) != {"B", "C"}:
        raise UnrecognizedSystem(f"{name}: ambiguous restricted type {[m.name for m in matches]}")
    return "B" if cbar == cartan_matrix(SimpleType("B", rank)) else "C"


def ref_component_duality(cartan, comp, name):
    """`_component_duality` on the Cartan rows `cartan` and the component `comp`."""
    sub_rows = tuple(tuple(cartan[a][b] for b in comp) for a in comp)
    for t in candidate_types(len(comp)):
        sigma = find_cartan_isomorphism(sub_rows, cartan_matrix(t))
        if sigma is None:
            continue
        inverse = {s: i for i, s in enumerate(sigma)}
        delta = duality_permutation(t)
        return {comp[i]: comp[inverse[delta[sigma[i]]]] for i in range(len(comp))}
    raise InconsistentDiagram(f"{name}: black component {comp} is not of classified type")


def breadth_first(rows):
    """The nodes from node 0 in breadth-first order, the order `_black_components`
    gives a component: on it the search backtracks little, while on a random
    order of a long chain it takes seconds from rank 16 on.  The search's
    answers do not depend on the order, so the references run on this one."""
    order = [0]
    for v in order:
        order += [w for w, x in enumerate(rows[v]) if x and w not in order]
    return tuple(order)


# --- the column grading and the eigenspace by elimination ------------------


def column_degrees(rs, weights):
    """The degree of every positive root, summed over the columns of the nonzero weights."""
    positives = rs.positive_roots
    terms = [map(mul, map(itemgetter(i), positives), repeat(x)) for i, x in enumerate(weights) if x]
    return list(map(sum, zip(*terms))) if terms else [0] * len(positives)


def column_orbit_dim(rs, w):
    degrees = column_degrees(rs, w.weights)
    zero = degrees.count(0)
    ones = degrees.count(1) + degrees.count(-1)
    return 2 * len(degrees) - 2 * zero - ones


def ref_basis_count(sd, inv):
    """The basis-count failure as the eigenspace was measured by elimination."""
    n = sd.rs.rank
    omega = len(sd.black) + len(sd.arrows)
    cols = inv.columns
    eigen_dim = n - matrix_rank([tuple(map(sub, simple_coord(n, j), cols[j])) for j in range(n)])
    if eigen_dim != omega:
        return [("involution.basis-count", f"-1 eigenspace of tau* has dim {eigen_dim}, basis has {omega} vectors")]
    return []


def basis_count(failures):
    return [f for f in failures if f[0] == "involution.basis-count"]


# --- inputs ----------------------------------------------------------------


def relabelled(rows, perm):
    """The rows with node perm[k] put at position k."""
    return tuple(tuple(rows[a][b] for b in perm) for a in perm)


def relabellings(t, count=3):
    """The identity, the reversal and `count` seeded random orders of t's nodes."""
    rng = random.Random(f"{t.name}")
    orders = [list(range(t.rank)), list(range(t.rank))[::-1]]
    for _ in range(count):
        perm = list(range(t.rank))
        rng.shuffle(perm)
        orders.append(perm)
    return orders


def label_of(monkeypatch, cbar):
    """What `restricted._classify` labels a reduced system whose Cartan matrix is `cbar`."""
    monkeypatch.setattr(restricted, "restricted_cartan", lambda rs, simple, name: cbar)
    simple = [simple_coord(len(cbar), i) for i in range(len(cbar))]
    return restricted._classify(build_root_system(SimpleType("A", len(cbar))), simple, simple, "x").letter


def message(call, *args):
    try:
        return call(*args)
    except LieOrbitsError as exc:
        return type(exc), str(exc)


def bond(rows, i, j, a, b):
    rows[i][j], rows[j][i] = a, b


def non_cartan():
    """Rows of no Dynkin diagram: a cycle, a node of degree 4, two double bonds,
    two components, a triple bond at rank 3, the star with three arms of two
    nodes (affine E6), a bond of product 4, and a wrong diagonal."""
    cycle = [list(row) for row in cartan_matrix(SimpleType("A", 4))]
    bond(cycle, 0, 3, -1, -1)
    star = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
    for leaf in range(1, 5):
        bond(star, 0, leaf, -1, -1)
    doubles = [list(row) for row in cartan_matrix(SimpleType("A", 3))]
    bond(doubles, 0, 1, -2, -1)
    bond(doubles, 1, 2, -1, -2)
    split = [[2, 0, 0], [0, 2, -1], [0, -1, 2]]
    triple = [list(row) for row in cartan_matrix(SimpleType("A", 3))]
    bond(triple, 0, 1, -3, -1)
    affine = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    for a, b in ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)):
        bond(affine, a, b, -1, -1)
    four = [[2, -4], [-1, 2]]
    diagonal = [list(row) for row in cartan_matrix(SimpleType("B", 3))]
    diagonal[1][1] = 1
    for rows in (cycle, star, doubles, split, triple, affine, four, diagonal):
        yield tuple(map(tuple, rows))


def foreign_involutions():
    """(diagram, involution) pairs: each entry up to rank 7 with the involution
    of every other entry of its type, which squares to the identity but
    matches neither its black nodes nor its arrows."""
    by_type = {}
    for sd in catalog(7):
        by_type.setdefault(sd.rs.simple_type, []).append(sd)
    for entries in by_type.values():
        for sd in entries:
            for other in entries:
                if other.black != sd.black or other.arrows != sd.arrows:
                    yield sd, satake_involution(other)


# --- the comparisons ------------------------------------------------------


@pytest.mark.parametrize("t", TYPES, ids=lambda t: t.name)
def test_the_diagram_gives_the_searched_type_and_duality(monkeypatch, t):
    rows = cartan_matrix(t)
    for perm in relabellings(t):
        src = relabelled(rows, perm)
        found, order = read_cartan_type(src)
        assert relabelled(src, order) == cartan_matrix(found) and found.rank == t.rank
        # the search runs on src itself where it is quick, else on a breadth-first
        # relabelling, which gives the same letter but for a rank-2 double bond
        bfs = breadth_first(src)
        searched = ref_label(src if t.rank <= 10 else relabelled(src, bfs), t.name)
        assert found.letter == label_of(monkeypatch, src) == searched
        sd = SimpleNamespace(name=t.name, rs=SimpleNamespace(cartan=src))
        duality = ref_component_duality(src, bfs, t.name)
        assert satake._component_duality(sd, bfs) == duality
        assert satake._component_duality(sd, tuple(perm)) == duality
        if t.rank <= 10:
            assert ref_component_duality(src, tuple(range(t.rank)), t.name) == duality


def test_a_rank_2_double_bond_is_labelled_by_its_order(monkeypatch):
    b2, c2 = cartan_matrix(SimpleType("B", 2)), cartan_matrix(SimpleType("C", 2))
    for cbar, letter in ((b2, "B"), (c2, "C"), (relabelled(b2, (1, 0)), "C"), (relabelled(c2, (1, 0)), "B")):
        assert label_of(monkeypatch, cbar) == ref_label(cbar, "x") == letter


def test_no_dynkin_diagram_raises_as_the_search_did(monkeypatch):
    for rows in non_cartan():
        assert read_cartan_type(rows) is None
        assert message(label_of, monkeypatch, rows) == message(ref_label, rows, "x")
        assert message(label_of, monkeypatch, rows)[0] is UnrecognizedSystem
        comp = tuple(range(len(rows)))
        sd = SimpleNamespace(name="x", rs=SimpleNamespace(cartan=rows))
        got = message(satake._component_duality, sd, comp)
        assert got == message(ref_component_duality, rows, comp, "x")
        assert got[0] is InconsistentDiagram


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_entries_read_the_searched_labels_and_dualities(sd):
    rrs = restricted_root_system(sd)
    simple = restricted.reduced_simple(sd.rs, rrs.keys, list(rrs.doubled_simple))
    if rrs.type_label.reduced:
        assert rrs.type_label.letter == ref_label(restricted.restricted_cartan(sd.rs, simple, sd.name), sd.name)
    for comp in satake._black_components(sd):
        assert satake._component_duality(sd, comp) == ref_component_duality(sd.rs.cartan, comp, sd.name)


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_the_tree_grading_matches_the_column_grading(sd):
    rs = sd.rs
    analysis = FormAnalysis(sd)
    for w in (min_orbit_wdd(rs), analysis.min_wdd, analysis.min_g_wdd):
        assert rs.carried(w.weights) == column_degrees(rs, w.weights)
        assert orbit_dim_from_wdd(rs, w) == column_orbit_dim(rs, w)


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_the_trace_counts_the_eigenspace(sd):
    inv = satake_involution(sd)
    n = sd.rs.rank
    assert (n + sum(inv.columns[j][j] for j in range(n))) // 2 == len(sd.black) + len(sd.arrows)
    assert ref_basis_count(sd, inv) == basis_count(satake._involution_failures(sd, inv)) == []


def test_doctored_and_mutant_involutions_give_the_same_failures():
    fired = Counter()
    cases = list(foreign_involutions())
    for sd in catalog(7):
        cases += [(sd, inv) for inv in doctored_involutions(satake_involution(sd))]
        for mutant in mutations(sd):
            try:
                cases.append((mutant, satake._build_involution(mutant)))
            except LieOrbitsError:
                continue
    for sd, inv in cases:
        failures = satake._involution_failures(sd, inv)
        assert basis_count(failures) == ref_basis_count(sd, inv), sd.name
        assert failures == ref_involution_failures(sd, inv), sd.name
        squared = "involution.theta-squared" not in {check for check, _ in failures}
        fired[squared, bool(basis_count(failures))] += 1
    # the count fires both where theta* is an involution, read off the trace,
    # and where it is not, measured by elimination
    assert fired[True, True] > 50 and fired[False, True] > 50


def test_a_swap_with_no_arrow_fails_the_count_by_the_trace():
    # sl(3,R) given tau* = the swap of a1 and a2, the involution of su(2,1)
    sd = form("sl(3,R)")
    inv = satake.SatakeInvolution(((0, -1), (-1, 0)), (1, 0))
    failures = satake._involution_failures(sd, inv)
    assert failures == ref_involution_failures(sd, inv)
    assert basis_count(failures) == [("involution.basis-count", "-1 eigenspace of tau* has dim 1, basis has 0 vectors")]


def test_describe_decodes_no_positive_root():
    rootsys._build_cached.cache_clear()
    satake_involution.cache_clear()
    restricted_root_system.cache_clear()
    satake._cached_satake.cache_clear()
    for name in ("e8(-24)", "sl(25,R)", "sp(64,R)"):
        sd = form(name)
        orbit_report(sd)
        assert "positive_roots" not in vars(sd.rs), name
        assert "roots" not in vars(sd.rs), name
    rs = build_root_system(SimpleType("E", 8))
    assert rs.positive_roots[-1] == rs.highest and "positive_roots" in vars(rs)
