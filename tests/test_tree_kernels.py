"""The spanning-tree passes of the Satake layer against the column code they replaced.

The references below are copies, kept here, of the code as it was written on
coordinate columns: the positive roots as columns, tau* applied to all of
them one C-level pass per entry of tau*, the involution checks that looked
the image rows up among the root tuples, the restriction count of
alpha + tau* alpha over those columns, and theta* from the black Gram split
solved by `int_solve` for every node, one component at a time in sorted
order.  The tree code must give the same failure lists, with the same first
root reported, the same positive doubled roots and multiplicities in the
same order, and the same theta* on every catalog entry up to rank 16, on
six rank-64 forms, on the doctored involutions of
tests/test_column_kernels.py and on the mutant diagrams that
tests/test_column_kernels.py and tests/test_verify_kernels.py both build.
theta*, read off the closure, must match the dense split on every black
subset of every simple type up to rank 8, too.
"""

import sys
from collections import Counter
from itertools import combinations, compress, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, not_, sub

import pytest
from test_column_kernels import decoded_positives, doctored_involutions, mutations
from test_diagram_kernels import candidate_types

from lieorbits import rootsys, satake, verify
from lieorbits.errors import InconsistentDiagram, LieOrbitsError
from lieorbits.orbits import orbit_report, restricted_root_system, satake_involution
from lieorbits.ratmat import int_solve, matrix_rank
from lieorbits.restricted import RestrictedRootSystem, build_restricted
from lieorbits.rootsys import RootSystem, SimpleType, build_root_system, simple_coord
from lieorbits.satake import (
    RealFormDescriptor,
    SatakeDiagram,
    SatakeInvolution,
    build_satake,
    catalog,
    parse_form_name,
)
from lieorbits.verify import Failure

RANK_64 = ["so(1,128)", "so*(128)", "su(32,32)", "sl(64,R)", "sp(64,R)", "so(64,64)"]


def form(name):
    return build_satake(parse_form_name(name))


ENTRIES = catalog(16) + [form(name) for name in RANK_64]


# --- the column references ---------------------------------------------------


def positive_columns(rs):
    return tuple(zip(*rs.positive_roots))


def tau_image_columns(inv, columns):
    out = [None] * len(columns)
    for j, entries in enumerate(inv.tau_columns):
        for i, x in entries:
            term = iter(columns[j]) if x == 1 else map(mul, columns[j], repeat(x))
            out[i] = term if out[i] is None else map(add, out[i], term)
    return [repeat(0, len(columns[0])) if c is None else c for c in out]


def column_involution_failures(sd, inv):
    rs = sd.rs
    n = rs.rank
    cols, p = inv.columns, inv.p_tilde
    failures = []
    entries = [list(zip(compress(range(n), col), filter(None, col))) for col in cols]

    def squares_to_identity(j):
        out = {j: -1}
        for k, c in entries[j]:
            for i, x in entries[k]:
                out[i] = out.get(i, 0) + c * x
        return not any(out.values())

    if not all(map(squares_to_identity, range(n))):
        failures.append(("involution.theta-squared", "theta* squared is not the identity"))

    root_set = frozenset(rs.roots)
    positives = rs.positive_roots
    columns = positive_columns(rs)
    images = list(map(tuple, tau_image_columns(inv, columns)))
    found = map(root_set.__contains__, zip(*images))
    bad = next(compress(positives, map(not_, found)), None)
    if bad is not None:
        failures.append(("involution.preserves-roots", f"theta* does not preserve the root set (e.g. {bad})"))
    for b in sorted(sd.black):
        if entries[b] != [(b, 1)]:
            failures.append(("involution.fixes-black", f"theta* moves black simple root {b}"))
    for w in sd.white:
        shifted = {i: -x for i, x in entries[w]}
        shifted[p[w]] = shifted.get(p[w], 0) - 1
        if any(x < 0 or x and i not in sd.black for i, x in shifted.items()):
            failures.append(
                ("involution.white-translate", f"-theta*(a_{w}) - p~(a_{w}) is not a nonnegative black combination")
            )
    differences = zip(*map(map, repeat(sub), columns, images))
    normal = next(compress(positives, map(root_set.__contains__, differences)), None)
    if normal is not None:
        failures.append(("involution.tau-normal", f"alpha - tau*(alpha) is a root for alpha={normal}"))
    permuted_phi = [0] * n
    for i, c in enumerate(rs.highest):
        permuted_phi[p[i]] = c
    if tuple(permuted_phi) != rs.highest:
        failures.append(("involution.ptilde-fixes-phi", "p~ does not fix the highest root"))
    permute = itemgetter(*p)
    if n > 1 and any(permute(rs.cartan[k]) != row for k, row in zip(p, rs.cartan)):
        failures.append(("involution.ptilde-automorphism", "p~ is not a Dynkin diagram automorphism"))
    omega = [simple_coord(n, b) for b in sorted(sd.black)]
    gram = rs.scaled_gram
    for i, j in sd.arrows:
        v = [0] * n
        v[i] = gram[j][j]
        v[j] = -gram[i][i]
        omega.append(tuple(v))
    if omega:
        if matrix_rank(omega) != len(omega):
            failures.append(("involution.basis-independent", "black/arrow coroot vectors are dependent"))
        for v in omega:
            if inv.tau_image(v) != tuple(-x for x in v):
                failures.append(("involution.basis-eigenspace", "a basis vector is not in the -1 eigenspace of tau*"))
                break
    eigen_dim = n - matrix_rank([tuple(map(sub, simple_coord(n, j), cols[j])) for j in range(n)])
    if eigen_dim != len(omega):
        failures.append(
            ("involution.basis-count", f"-1 eigenspace of tau* has dim {eigen_dim}, basis has {len(omega)} vectors")
        )
    return failures


def column_counts(sd):
    """The positive doubled roots and their multiplicities as the column code
    built them, but for the negative half, which the restriction no longer
    holds, and the order: its keys are compared sorted."""
    inv = satake_involution(sd)

    def doubled(columns):
        return zip(*map(map, repeat(add), columns, tau_image_columns(inv, columns)))

    return dict(Counter(filter(any, doubled(positive_columns(sd.rs)))))


def sorted_components(sd):
    cartan = sd.rs.cartan
    remaining = set(sd.black)
    components = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for other in list(remaining - comp):
                if cartan[node][other] != 0:
                    comp.add(other)
                    frontier.append(other)
        components.append(tuple(sorted(comp)))
        remaining -= comp
    return components


def dense_involution(sd):
    """theta* with every node's Gram split solved densely by `int_solve`."""
    rs = sd.rs
    n = rs.rank
    problems = satake._structural_failures(sd)
    if problems:
        raise InconsistentDiagram(f"{sd.name}: " + "; ".join(problems))
    p_tilde = list(range(n))
    for i, j in sd.arrows:
        p_tilde[i], p_tilde[j] = j, i
    components = sorted_components(sd)
    for comp in components:
        for node, image in satake._component_duality(sd, comp).items():
            p_tilde[node] = image
    gram = rs.scaled_gram
    moved = {}
    for comp in components:
        sub_gram = [[gram[a][c] for c in comp] for a in comp]
        for j in range(n):
            if j in comp:
                nums, det = [int(b == j) for b in comp], 1
            else:
                rhs = tuple(gram[b][j] for b in comp)
                if not any(rhs):
                    continue
                nums, det = int_solve(sub_gram, rhs)
            column, den = moved.get(j, (list(simple_coord(n, j)), 1))
            common = lcm(den, det)
            column = [x * (common // den) for x in column]
            for c, b in zip(nums, comp):
                c *= common // det
                column[b] -= c
                column[p_tilde[b]] -= c
            moved[j] = (column, common)
    for j, (column, den) in moved.items():
        g = gcd(den, *column)
        moved[j] = ([x // g for x in column], den // g)
    den = lcm(1, *(d for _, d in moved.values()))

    def theta_column(j):
        k = p_tilde[j]
        if k in moved:
            column, d = moved[k]
            return tuple(-x * (den // d) for x in column)
        return (0,) * k + (-den,) + (0,) * (n - k - 1)

    return SatakeInvolution(tuple(theta_column(j) for j in range(n)), tuple(p_tilde))


def counts(rrs):
    """Each positive doubled root of `rrs` and its multiplicity, in key order."""
    return list(zip(decoded_positives(rrs), map(rrs.keys.__getitem__, rrs.sorted_keys)))


def restriction(sd):
    """The restriction of `sd` as its build functions make it, through an involution
    built and checked anew."""
    return build_restricted(sd, satake.checked_involution(sd))


def outcome(build, sd):
    try:
        return build(sd)
    except LieOrbitsError as exc:
        return type(exc), str(exc)


# --- the comparisons ------------------------------------------------------


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_tree_code_matches_the_column_code(sd):
    inv = satake_involution(sd)
    assert satake._involution_failures(sd, inv) == column_involution_failures(sd, inv) == []
    assert counts(restricted_root_system(sd)) == sorted(column_counts(sd).items())
    assert satake._build_involution(sd) == dense_involution(sd)


def test_theta_matches_the_dense_split_on_every_black_subset():
    # the descriptor only names the diagram in messages
    descriptor = RealFormDescriptor("sl_R", (2,))
    compared = 0
    for rank in range(1, 9):
        for t in candidate_types(rank):
            rs = build_root_system(t)
            for size in range(rank + 1):
                for black in combinations(range(rank), size):
                    sd = SatakeDiagram(descriptor, rs, frozenset(black), (), False)
                    assert satake._build_involution(sd) == dense_involution(sd), (t.name, black)
                    compared += 1
    assert compared == 2490


def hand_doctored():
    """The involutions tests/test_column_kernels.py doctors by hand."""
    yield form("sl(3,R)"), SatakeInvolution(((-2, 0), (0, -1)), (0, 1))
    yield form("sl(3,R)"), SatakeInvolution(((-1, -1), (0, -1)), (0, 1))
    su13 = form("su(1,3)")
    yield su13, SatakeInvolution(((0, 1, -1),) + satake_involution(su13).columns[1:], satake_involution(su13).p_tilde)
    sl4 = form("sl(4,R)")
    yield sl4, SatakeInvolution(satake_involution(sl4).columns, (1, 0, 2))


def test_doctored_involutions_give_the_column_failures():
    cases = [(sd, inv) for sd in catalog(7) for inv in doctored_involutions(satake_involution(sd))]
    cases += hand_doctored()
    fired = Counter()
    for sd, inv in cases:
        failures = satake._involution_failures(sd, inv)
        assert failures == column_involution_failures(sd, inv), sd.name
        fired.update(check for check, _ in failures)
    assert {"involution.preserves-roots", "involution.tau-normal", "involution.ptilde-automorphism"} <= set(fired)


def test_mutant_diagrams_give_the_column_results():
    compared = counted = 0
    for sd in catalog(7):
        for mutant in mutations(sd):
            built = outcome(satake._build_involution, mutant)
            assert built == outcome(dense_involution, mutant), mutant.name
            if not isinstance(built, SatakeInvolution):
                continue
            assert satake._involution_failures(mutant, built) == column_involution_failures(mutant, built), mutant.name
            compared += 1
            restricted = outcome(restriction, mutant)
            if isinstance(restricted, RestrictedRootSystem):
                assert counts(restricted) == sorted(column_counts(mutant).items()), mutant.name
                counted += 1
    assert compared > 500 and counted >= 100


# --- the packing bound -------------------------------------------------------


def pack(v, base):
    return sum(x * base ** (len(v) - 1 - i) for i, x in enumerate(v))


@pytest.mark.parametrize("c, base", [(126, 256), (127, 512)])
def test_the_base_widens_once_twice_the_bound_reaches_256(c, base):
    # A2 with tau* a1 = c a1 and tau* a2 = a2: M = phi_1 + c phi_1 = c + 1
    sd = form("sl(3,R)")
    inv = SatakeInvolution(((-c, 0), (0, -1)), (0, 1))
    keys, images = satake.tau_keys(sd.rs, inv)
    assert list(keys) == [pack(r, base) for r in sd.rs.positive_roots]
    assert images == [pack(inv.tau_image(r), base) for r in sd.rs.positive_roots]
    assert satake._involution_failures(sd, inv) == column_involution_failures(sd, inv)


def test_a_tau_past_the_signed_byte_range_takes_the_wide_base():
    # A2 with tau* a1 = 256 a2 and tau* a2 = a2: at base 256, tau* a1 and
    # tau*(a1 + a2) = 257 a2 would pack to the keys of the roots a1 and a1 + a2
    sd = form("sl(3,R)")
    inv = SatakeInvolution(((0, -256), (0, -1)), (0, 1))
    assert pack((0, 256), 256) == pack((1, 0), 256) and pack((0, 257), 256) == pack((1, 1), 256)
    keys, images = satake.tau_keys(sd.rs, inv)
    # M = phi_2 + 256 phi_1 + phi_2 = 258, and 1024 is the least power of two above 516
    assert keys == [pack(r, 1024) for r in sd.rs.positive_roots]
    assert images == [pack(inv.tau_image(r), 1024) for r in sd.rs.positive_roots]
    failures = satake._involution_failures(sd, inv)
    assert failures == column_involution_failures(sd, inv)
    assert ("involution.preserves-roots", "theta* does not preserve the root set (e.g. (1, 0))") in failures


def test_every_catalog_involution_packs_at_base_256():
    for sd in ENTRIES:
        keys, _ = satake.tau_keys(sd.rs, satake_involution(sd))
        assert keys is sd.rs.positive_keys, sd.name


def test_a_sound_involution_keeps_the_image_of_every_positive_root():
    for sd in ENTRIES:
        inv = satake_involution(sd)
        assert inv.root_images == [sd.rs.pack(inv.tau_image(r)) for r in sd.rs.positive_roots], sd.name
    # a failing involution keeps nothing
    failing = 0
    for sd in catalog(5):
        for inv in doctored_involutions(satake_involution(sd)):
            if satake._involution_failures(sd, inv):
                assert "root_images" not in vars(inv), sd.name
                failing += 1
    assert failing > 50


def test_tau_is_carried_over_the_roots_once_per_entry(monkeypatch):
    # `RootSystem.carried` calls, by the module that made them
    calls = Counter()
    original = RootSystem.carried

    def counting(rs, images):
        calls[sys._getframe(1).f_globals["__name__"]] += 1
        return original(rs, images)

    monkeypatch.setattr(RootSystem, "carried", counting)
    # a report carries tau* once, in the involution's checks, and its meeting
    # orbit's grading once; the restriction adds the kept images
    satake_involution.cache_clear()
    restricted_root_system.cache_clear()
    orbit_report(form("e7(-5)"))
    assert calls == {"lieorbits.satake": 1, "lieorbits.rootsys": 1}

    # a cold sweep of rank 8: once per entry for tau*, and once per entry and
    # once per type (32 types) for the orbit dimensions
    calls.clear()
    rootsys._build_cached.cache_clear()
    satake._cached_satake.cache_clear()
    satake_involution.cache_clear()
    restricted_root_system.cache_clear()
    assert verify.run_verification(max_rank=8).ok
    assert calls == {"lieorbits.satake": 141, "lieorbits.rootsys": 141 + 32}


# --- the spanning tree -------------------------------------------------------


def doctored_trees(rs):
    """(tree, message) pairs that break one condition each."""
    tree, last = list(rs.spanning_tree), len(rs.positive_keys) - 1
    (parents, nodes), n = tree[1], rs.rank
    # the first root of height 2 is root n, and its parent comes after it
    late = f"positive root {n} has parent {last} and node {nodes[0]}"
    yield tree[:1] + [((last,) + parents[1:], nodes)] + tree[2:], late
    other = (nodes[0] + 1) % n
    wrong = f"positive root {n} is not its parent {parents[0]} plus a_{other}"
    yield tree[:1] + [(parents, (other,) + nodes[1:])] + tree[2:], wrong
    yield tree[:-1], f"the tree has {last} entries for {last + 1} positive roots"


@pytest.mark.parametrize("name", ["A2", "B3", "C4", "D5", "G2", "F4", "E6", "E8"])
def test_a_doctored_tree_fires_the_spanning_tree_check_alone(name):
    rs = build_root_system(SimpleType(name[0], int(name[1:])))
    assert verify.check_root_system(rs) == []
    for tree, message in doctored_trees(rs):
        copy = rs._replace()
        copy.spanning_tree = tuple(tree)
        assert verify.check_root_system(copy) == [Failure(name, "roots.spanning-tree", message)]


def non_extendable(roots):
    """The distinct roots of `roots` that no one of them extends to one of them, sorted."""
    found = set(roots)
    return sorted(xi for xi in found if all(tuple(map(add, xi, eta)) not in found for eta in found))


@pytest.mark.parametrize("name", ["A2", "B3", "C4", "D5", "G2", "F4", "E6", "E8"])
def test_a_doctored_key_fires_the_tree_and_the_highest_root_scan(name):
    # the second simple key, a_{n-2}, plus a_{n-1}: the height order breaks
    # wherever a root of height 1 follows it, the tree still reaches that key
    # from 0 by a_{n-2}, and the highest-root scan fires wherever the keys no
    # longer leave phi alone non-extendable
    rs = build_root_system(SimpleType(name[0], int(name[1:])))
    keys = rs.positive_keys
    copy = rs._replace(positive_keys=keys[:1] + (keys[1] + 1,) + keys[2:])
    roots = [tuple(key.to_bytes(rs.rank, "big")) for key in copy.positive_keys]
    heights = list(map(sum, roots))
    expected = []
    if heights != sorted(heights):
        message = "the roots are not the positive ones by height followed by their negatives"
        expected.append(Failure(name, "roots.positive-first", message))
    expected.append(Failure(name, "roots.spanning-tree", f"positive root 1 is not its parent -1 plus a_{rs.rank - 2}"))
    found = non_extendable(roots)
    if found != [rs.highest]:
        expected.append(Failure(name, "roots.highest-unique", f"non-extendable positives: {found}"))
    assert verify.check_root_system(copy) == expected


def test_the_tree_reaches_each_root_from_an_earlier_one():
    for sd in ENTRIES:
        rs = sd.rs
        roots = rs.positive_roots
        k = 0
        for parents, nodes in rs.spanning_tree:
            for parent, node in zip(parents, nodes):
                base = roots[parent] if parent >= 0 else (0,) * rs.rank
                assert parent < k and tuple(map(add, base, simple_coord(rs.rank, node))) == roots[k]
                k += 1
        assert k == len(roots)
