"""The column passes of the cold describe path against the row code they replaced.

The references below are copies, kept here, of the per-root code as it was
written on row tuples: tau* applied one root at a time through
`SatakeInvolution.tau_image`, the involution checks that scanned those
images, the restriction alpha + tau* alpha with its sorted multiplicity dict
and sorted positive roots, the orbit dimension graded one root at a time,
the restricted Cartan matrix paired densely over every coordinate, and
`verify`'s black-span count over every root and node.  The column code must
give the same values on every catalog entry up to rank 16, the same failure
lists on doctored involutions and on every single black-node toggle, arrow
drop and arrow addition over the catalog up to rank 7, and `describe` must
never build the sorted views.  The restriction keeps packed keys only, so the
tuple dicts the references give are compared with its keys decoded here
(`decoded_doubled`, `decoded_positives`), through the codec `RootSystem` owns.
"""

import contextlib
import functools
import io
from collections import Counter
from fractions import Fraction
from operator import add, mul, sub

import pytest

from lieorbits import cli, orbits, satake, verify
from lieorbits.errors import LieOrbitsError, UnrecognizedSystem
from lieorbits.orbits import FormAnalysis, restricted_root_system, satake_involution
from lieorbits.ratmat import matrix_rank
from lieorbits.restricted import RestrictedRootSystem, reduced_simple, restricted_cartan
from lieorbits.rootsys import RootSystem, cached, min_orbit_wdd, orbit_dim_from_wdd, simple_coord
from lieorbits.satake import SatakeInvolution, build_satake, catalog, parse_form_name

ENTRIES = catalog(16)


# --- the row-based references ------------------------------------------------


def decoded_doubled(rrs):
    """Every doubled root and its multiplicity, sorted: the signed view, decoded."""
    signed = rrs.signed
    return dict(zip(map(rrs.source.rs.unpack_signed, signed), signed.values()))


def decoded_positives(rrs):
    """The positive doubled roots, sorted: the sorted keys, decoded."""
    return tuple(map(rrs.source.rs.unpack, rrs.sorted_keys))


def positive_norms(rrs):
    """gram_scale * <xi, xi> for every positive doubled root xi, in key
    order, the reference the root strings and the ascent are held to: each
    root decoded from the sorted keys and put through the type's quadratic
    form, the scaled Gram diagonal, twice its entries (i, i+1) and twice
    those of the branch edges of D and E."""
    rs = rrs.source.rs
    g, n = rs.scaled_gram, rs.rank
    diagonal = [g[i][i] for i in range(n)]
    chain = [2 * g[i][i + 1] for i in range(n - 1)]
    branches = [(i, j, 2 * g[i][j]) for i in range(n) for j in range(i + 2, n) if g[i][j]]
    norms = {}
    for xi in decoded_positives(rrs):
        norm = sum(map(mul, map(mul, xi, xi), diagonal)) + sum(map(mul, map(mul, xi, xi[1:]), chain))
        norms[xi] = norm + sum(c * xi[i] * xi[j] for i, j, c in branches)
    return norms


def ref_images(inv, rs):
    return [inv.tau_image(r) for r in rs.positive_roots]


def ref_restriction(sd):
    """The sorted multiplicity dict and sorted positive roots, as they were stored."""
    rs = sd.rs
    images = [tuple(map(add, r, image)) for r, image in zip(rs.positive_roots, ref_images(satake_involution(sd), rs))]
    nonzero = [image for image in images if any(image)]
    counts = Counter(nonzero)
    counts.update(tuple(-x for x in image) for image in nonzero)
    positives = set(images) - {(0,) * rs.rank}
    return dict(sorted(counts.items())), tuple(sorted(positives))


def ref_orbit_dim(rs, w):
    weights = w.as_ints()
    zero = ones = 0
    for root in rs.positive_roots:
        value = sum(a * b for a, b in zip(root, weights))
        if value == 0:
            zero += 1
        elif value in (1, -1):
            ones += 1
    return len(rs.roots) - 2 * zero - ones


def ref_cartan(rs, simple, name):
    """The restricted Cartan matrix as `_classify` paired it: one
    `simple_pairings` row per column and r^2 products over every coordinate."""
    rank = len(simple)
    rows = [rs.simple_pairings(s) for s in simple]
    norms = [sum(map(mul, s, row)) for s, row in zip(simple, rows)]

    def cartan_entry(i, j):
        num = 2 * sum(map(mul, simple[i], rows[j]))
        den = norms[j]
        if num % den or (i != j and num > 0) or (i == j and num != 2 * den):
            raise UnrecognizedSystem(f"{name}: restricted Cartan entry {Fraction(num, den)} at ({i},{j})")
        return num // den

    return tuple(tuple(cartan_entry(i, j) for j in range(rank)) for i in range(rank))


def ref_mult_sum(sd, rrs):
    """`verify`'s restricted.mult-sum check with the black span counted over every root."""
    rs = sd.rs
    total = sum(decoded_doubled(rrs).values())
    span_black = sum(1 for r in rs.roots if not any(map(r.__getitem__, sd.white)))
    if total + span_black != len(rs.roots):
        message = f"mult sum {total} + black-span {span_black} != {len(rs.roots)} roots"
        return [verify.Failure(sd.name, "restricted.mult-sum", message)]
    return []


def ref_involution_failures(sd, inv):
    rs = sd.rs
    n = rs.rank
    cols, p = inv.columns, inv.p_tilde
    failures = []

    def combine(v):
        out = [0] * n
        for j, c in enumerate(v):
            for i, x in enumerate(cols[j]):
                out[i] += c * x
        return tuple(out)

    if any(combine(cols[j]) != simple_coord(n, j) for j in range(n)):
        failures.append(("involution.theta-squared", "theta* squared is not the identity"))
    root_set = set(rs.roots)
    positives = rs.positive_roots
    images = ref_images(inv, rs)
    bad = next((r for r, image in zip(positives, images) if image not in root_set), None)
    if bad is not None:
        failures.append(("involution.preserves-roots", f"theta* does not preserve the root set (e.g. {bad})"))
    for b in sorted(sd.black):
        if cols[b] != simple_coord(n, b):
            failures.append(("involution.fixes-black", f"theta* moves black simple root {b}"))
    for w in sd.white:
        shifted = [-cols[w][k] - int(k == p[w]) for k in range(n)]
        if not (all(x >= 0 for x in shifted) and all(shifted[k] == 0 for k in range(n) if k not in sd.black)):
            failures.append(
                ("involution.white-translate", f"-theta*(a_{w}) - p~(a_{w}) is not a nonnegative black combination")
            )
    normal = next((r for r, image in zip(positives, images) if tuple(map(sub, r, image)) in root_set), None)
    if normal is not None:
        failures.append(("involution.tau-normal", f"alpha - tau*(alpha) is a root for alpha={normal}"))
    permuted_phi = [0] * n
    for i, c in enumerate(rs.highest):
        permuted_phi[p[i]] = c
    if tuple(permuted_phi) != rs.highest:
        failures.append(("involution.ptilde-fixes-phi", "p~ does not fix the highest root"))
    if any(rs.cartan[p[i]][p[j]] != rs.cartan[i][j] for i in range(n) for j in range(n)):
        failures.append(("involution.ptilde-automorphism", "p~ is not a Dynkin diagram automorphism"))
    omega = [simple_coord(n, b) for b in sorted(sd.black)]
    for i, j in sd.arrows:
        ei, ej = simple_coord(n, i), simple_coord(n, j)
        omega.append(tuple(rs.scaled_inner(ej, ej) * x - rs.scaled_inner(ei, ei) * y for x, y in zip(ei, ej)))
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


# --- inputs ----------------------------------------------------------------


def form(name):
    return build_satake(parse_form_name(name))


def mutations(sd):
    """Every single black-node toggle, arrow drop and arrow addition of `sd`."""
    for node in range(sd.rs.rank):
        yield sd._replace(black=frozenset(set(sd.black) ^ {node}))
    for k in range(len(sd.arrows)):
        yield sd._replace(arrows=sd.arrows[:k] + sd.arrows[k + 1 :])
    arrowed = {i for pair in sd.arrows for i in pair}
    free = [w for w in sd.white if w not in arrowed]
    if len(free) >= 2:
        yield sd._replace(arrows=tuple(sorted(sd.arrows + ((free[0], free[1]),))))


def cartan_or_message(cartan, rs, simple, name):
    try:
        return cartan(rs, simple, name)
    except UnrecognizedSystem as exc:
        return str(exc)


def doctored_simple_roots(simple, highest):
    """Simple roots with one scaled, negated, repeated, summed or swapped for
    the highest root, in reverse order, and with the first and third scaled,
    so that two entries of the second row fail and the first is reported."""
    yield [tuple(3 * x for x in simple[0])] + simple[1:]
    if len(simple) > 2:
        yield [tuple(3 * x for x in simple[0]), simple[1], tuple(3 * x for x in simple[2])] + simple[3:]
    yield [tuple(map(sub, (0,) * len(simple[0]), simple[0]))] + simple[1:]
    yield simple + simple[:1]
    yield simple[:-1] + [highest]
    yield simple[::-1]
    if len(simple) > 1:
        yield [tuple(map(add, simple[0], simple[1]))] + simple[1:]


def doctored_involutions(inv):
    """theta* with one column scaled by 2, or with a neighbouring simple root added."""
    n = len(inv.columns)
    for j in range(n):
        for column in (
            tuple(2 * x for x in inv.columns[j]),
            tuple(x - int(i == (j + 1) % n) for i, x in enumerate(inv.columns[j])),
        ):
            yield SatakeInvolution(inv.columns[:j] + (column,) + inv.columns[j + 1 :], inv.p_tilde)


# --- the comparisons ------------------------------------------------------


def pack(v):
    """v as sum_i v_i 256^(n-1-i), the packing of `satake.tau_keys` at base 256."""
    return sum(x * 256 ** (len(v) - 1 - i) for i, x in enumerate(v))


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_column_passes_match_the_row_code(sd):
    rs = sd.rs
    inv = satake_involution(sd)
    keys, images = satake.tau_keys(rs, inv)
    assert list(keys) == list(map(pack, rs.positive_roots))

    rows = ref_images(inv, rs)
    assert images == list(map(pack, rows))
    for op in (add, sub):
        assert list(map(op, keys, images)) == [pack(tuple(map(op, r, image))) for r, image in zip(rs.positive_roots, rows)]

    analysis = FormAnalysis(sd)
    for w in (min_orbit_wdd(rs), analysis.min_g_wdd):
        assert orbit_dim_from_wdd(rs, w) == ref_orbit_dim(rs, w)

    rrs = restricted_root_system(sd)
    doubled, positives = ref_restriction(sd)
    assert decoded_doubled(rrs) == doubled and list(decoded_doubled(rrs)) == list(doubled)
    assert decoded_positives(rrs) == positives
    assert satake._involution_failures(sd, inv) == ref_involution_failures(sd, inv) == []


@pytest.mark.parametrize("name", ["sl(3,R)", "so(4,9)", "e8(8)", "sp(7,R)"])
def test_weights_of_any_sign_grade_as_the_row_code(name):
    rs = form(name).rs
    wdd = min_orbit_wdd(rs)
    n = rs.rank
    for weights in ((0,) * n, (1, -1) * (n // 2) + (1,) * (n % 2), tuple(range(-1, n - 1)), (2,) + (0,) * (n - 1)):
        w = wdd._replace(weights=weights)
        assert orbit_dim_from_wdd(rs, w) == ref_orbit_dim(rs, w), weights
    assert orbit_dim_from_wdd(rs, wdd._replace(weights=(0,) * n)) == 0


def test_a_negative_weight_grades_by_its_sign():
    # A2 with weights (1, -1): a1 and a2 have degree +-1, a1 + a2 degree 0
    rs = form("sl(3,R)").rs
    assert orbit_dim_from_wdd(rs, min_orbit_wdd(rs)._replace(weights=(1, -1))) == 2


def test_a_column_sending_a_root_outside_the_roots_is_reported_at_the_same_root():
    sd = form("sl(3,R)")
    # A2 positives in rs.roots order: (0, 1), (1, 0), (1, 1); tau* a1 = 2 a1 is no root
    inv = SatakeInvolution(((-2, 0), (0, -1)), (0, 1))
    failures = satake._involution_failures(sd, inv)
    assert failures == ref_involution_failures(sd, inv)
    assert ("involution.preserves-roots", "theta* does not preserve the root set (e.g. (1, 0))") in failures


def test_a_tau_with_a_root_difference_is_reported_at_the_same_root():
    sd = form("sl(3,R)")
    # tau* a1 = a1 + a2, so a1 - tau* a1 = -a2 is a root
    inv = SatakeInvolution(((-1, -1), (0, -1)), (0, 1))
    failures = satake._involution_failures(sd, inv)
    assert failures == ref_involution_failures(sd, inv)
    assert ("involution.tau-normal", "alpha - tau*(alpha) is a root for alpha=(1, 0)") in failures


def test_doctored_involutions_give_the_same_failures():
    fired = Counter()
    for sd in catalog(7):
        for inv in doctored_involutions(satake_involution(sd)):
            failures = satake._involution_failures(sd, inv)
            assert failures == ref_involution_failures(sd, inv), sd.name
            fired.update(check for check, _ in failures)
    # theta-squared, fixes-black and white-translate read the nonzero entries only
    assert {
        "involution.preserves-roots",
        "involution.tau-normal",
        "involution.theta-squared",
        "involution.fixes-black",
        "involution.white-translate",
    } <= set(fired)


def test_a_negative_black_coefficient_fails_the_white_translate():
    sd = form("su(1,3)")
    inv = satake_involution(sd)
    # theta* a1 = a2 - a3, so -theta*(a1) - p~(a1) = -a2: black, but negative
    doctored = SatakeInvolution(((0, 1, -1),) + inv.columns[1:], inv.p_tilde)
    failures = satake._involution_failures(sd, doctored)
    assert failures == ref_involution_failures(sd, doctored)
    assert {"involution.theta-squared", "involution.white-translate"} <= {check for check, _ in failures}


def test_mutant_involutions_give_the_same_failures():
    compared = 0
    fired = set()
    for sd in catalog(7):
        for mutant in mutations(sd):
            try:
                inv = satake._build_involution(mutant)
            except LieOrbitsError:
                continue
            failures = satake._involution_failures(mutant, inv)
            assert failures == ref_involution_failures(mutant, inv), mutant.name
            compared += 1
            fired.update(check for check, _ in failures)
    assert compared > 400
    assert {"involution.preserves-roots", "involution.tau-normal", "involution.ptilde-automorphism"} <= fired


def test_a_permutation_that_is_no_automorphism_is_reported():
    sd = form("sl(4,R)")
    inv = satake_involution(sd)
    # swapping the end node with the middle one breaks the A3 chain
    swapped = SatakeInvolution(inv.columns, (1, 0, 2))
    assert ("involution.ptilde-automorphism", "p~ is not a Dynkin diagram automorphism") in satake._involution_failures(
        sd, swapped
    )
    assert satake._involution_failures(sd, swapped) == ref_involution_failures(sd, swapped)


def test_involution_checks_apply_tau_to_no_root_one_at_a_time(monkeypatch):
    calls = Counter()
    tau_image = SatakeInvolution.tau_image

    def counting(self, v):
        calls[v] += 1
        return tau_image(self, v)

    monkeypatch.setattr(SatakeInvolution, "tau_image", counting)
    for name in ("su(12,13)", "so(4,9)", "e7(-5)", "sp(3,5)"):
        sd = form(name)
        inv = satake_involution(sd)
        calls.clear()
        assert satake._involution_failures(sd, inv) == []
        # only the black and arrow coroot vectors go through tau_image, once each
        assert sum(calls.values()) == len(sd.black) + len(sd.arrows) < len(sd.rs.positive_roots), name


RESTRICTED_VIEWS = ("sorted_keys", "signed", "highest_pairings", "elements")


def count_view_builds(monkeypatch):
    """A Counter of the builds of each of `RESTRICTED_VIEWS` on every restricted
    system: a property counts each read, a kept view its first."""
    built = Counter()
    for view in RESTRICTED_VIEWS:
        original = vars(RestrictedRootSystem)[view]
        getter = original.fget if isinstance(original, property) else original.func

        @functools.wraps(getter)
        def counting(self, getter=getter, view=view):
            built[view] += 1
            return getter(self)

        monkeypatch.setattr(RestrictedRootSystem, view, property(counting) if isinstance(original, property) else cached(counting))
    return built


def test_describe_never_builds_the_sorted_views(monkeypatch):
    built = count_view_builds(monkeypatch)
    restricted_root_system.cache_clear()
    satake_involution.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("e8(8)", "e8(-24)", "sl(25,R)", "su(12,13)", "sp(3,5)", "so(4,9)", "f4(-20)"):
            for fmt in ("json", "text", "dot"):
                assert cli.main(["describe", name, "--format", fmt]) == 0
        assert cli.main(["table1"]) == 0
    # a report builds the one pairing row of r(phi), and none of the sorted views
    assert set(built) <= {"highest_pairings"}
    built.clear()

    # verify sorts the keys once per entry and reads the signed view once; it
    # builds no `Fraction` view `elements`, and the row of r(phi) once
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--max-rank", "3"]) == 0
    entries = len(catalog(3))
    assert built == Counter(dict.fromkeys(("sorted_keys", "signed", "highest_pairings"), entries))


def test_a_sweep_pairs_the_doubled_highest_root_once_per_entry(monkeypatch):
    # each restriction built is kept alive, so its r(phi) is told by identity
    systems = {}
    build = orbits.build_restricted

    def keeping(sd, inv):
        rrs = build(sd, inv)
        systems[id(rrs.doubled_highest)] = rrs
        return rrs

    paired = Counter()
    simple_pairings = RootSystem.simple_pairings

    def counting(rs, v):
        rrs = systems.get(id(v))
        if rrs is not None and rrs.doubled_highest is v:
            paired[rrs.source.name] += 1
        return simple_pairings(rs, v)

    monkeypatch.setattr(orbits, "build_restricted", keeping)
    monkeypatch.setattr(RootSystem, "simple_pairings", counting)
    assert verify.run_verification(max_rank=8).ok
    names = [sd.name for sd in catalog(8)]
    assert len(systems) == len(names)
    assert paired == Counter(names)


def test_the_signed_view_is_the_doubled_view_packed():
    for sd in ENTRIES:
        rrs = restricted_root_system(sd)
        rs = sd.rs
        signed = rrs.signed
        doubled, _ = ref_restriction(sd)
        assert list(signed.items()) == [(rs.pack(d), m) for d, m in doubled.items()], sd.name
        assert list(map(rs.unpack_signed, signed)) == list(doubled), sd.name
        assert rrs.sorted_keys == tuple(sorted(rrs.keys)) and rrs.signed is not signed
        assert "signed" not in vars(rrs)


def test_sorted_views_are_not_kept():
    rrs = restricted_root_system(form("so(4,9)"))
    assert rrs.signed is not rrs.signed and rrs.signed == rrs.signed
    assert "signed" not in vars(rrs)
    for view in ("counts", "doubled", "doubled_positives"):
        assert not hasattr(rrs, view), view
    assert all(sum(xi) > 0 for xi in decoded_positives(rrs))
    assert list(positive_norms(rrs)) == list(decoded_positives(rrs))


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_sparse_cartan_matches_the_dense_pairing(sd):
    rrs = restricted_root_system(sd)
    simple = reduced_simple(sd.rs, rrs.keys, list(rrs.doubled_simple))
    assert restricted_cartan(sd.rs, simple, sd.name) == ref_cartan(sd.rs, simple, sd.name)


def test_doctored_simple_roots_give_the_same_cartan_matrix_or_message():
    messages = 0
    for sd in catalog(7) + [form(name) for name in ("e8(8)", "e7(-25)", "so(4,9)", "su(3,5)")]:
        rrs = restricted_root_system(sd)
        simple = reduced_simple(sd.rs, rrs.keys, list(rrs.doubled_simple))
        for doctored in doctored_simple_roots(simple, rrs.doubled_highest):
            got = cartan_or_message(restricted_cartan, sd.rs, doctored, sd.name)
            assert got == cartan_or_message(ref_cartan, sd.rs, doctored, sd.name), (sd.name, doctored)
            messages += isinstance(got, str)
    assert messages > 100


def test_black_span_count_matches_the_root_scan():
    fired = 0
    for sd in catalog(7):
        true = FormAnalysis(sd)
        # the black set of a mutant, or of the compact form, against the true analysis
        everything_black = sd._replace(black=frozenset(range(sd.rs.rank)), arrows=())
        for entry in [sd, everything_black, *mutations(sd)]:
            analysis = FormAnalysis(entry)
            for value in ("involution", "restricted", "parity", "hermitian"):
                setattr(analysis, value, getattr(true, value))
            got = [f for f in verify.check_restricted_entry(analysis) if f.check == "restricted.mult-sum"]
            assert got == ref_mult_sum(entry, true.restricted), entry.name
            fired += bool(got)
    assert fired > 200
