"""verify's packed-key and pairing-row scans against the tuple code they replaced.

The references below are copies, kept here, of the scans as they were written
on tuples and `scaled_inner`: the non-extendable positive roots of
`roots.highest-unique`, the reduced simple roots of `reduced_simple`, the
reduced-root search of
`restricted.simple-two-routes`, the negation, black-span, nonextendable
and full-parity scans of `check_restricted_entry`, its reflection ascent
to the dominant longest root (`ref_ascent`, held on `catalog(16)` to the
filter over every longest root it replaced, `ref_dominant_longest`), the Cartan
entries of `restricted._classify`, and `check_orbit_entry` with its
`orbit.weights-range` branch.  The rewritten code must give the same values on
every catalog entry up to rank 10 and every simple type up to rank 16, and
the same failure lists on doctored systems that make each scan fire and on
every single black-node toggle, arrow drop and arrow addition over the
catalog up to rank 7.  The keys those scans read must keep the digit bound
that lets them add and subtract without a carry.  A diagram relabelled by a
Dynkin diagram automorphism, found here by a search of its own, must give
the report with its weights moved and pass `verify`, `orbit.golden-row`
included; the package's table of those automorphisms must list what the
search finds, in the same order.  The references read the restriction's
tuple views as they were (`ref_doubled`, `ref_positives`), decoded here from
its signed view and its sorted keys.
"""

from fractions import Fraction
from operator import add, sub
from re import escape as re_escape

import pytest
from test_diagram_kernels import candidate_types

from lieorbits import restricted, verify
from lieorbits.errors import InconsistentDiagram, LieOrbitsError, UnrecognizedSystem
from lieorbits.orbits import FormAnalysis, in_five_families, ratio_text, restricted_root_system, wdd_matches_satake
from lieorbits.restricted import build_restricted, is_C_or_BC, reduced_simple
from lieorbits.rootsys import (
    SimpleType,
    build_root_system,
    cartan_matrix,
    diagram_automorphisms,
    dual_coxeter_number,
    extended_neighbors,
    min_orbit_wdd,
    orbit_dim_from_wdd,
)
from lieorbits.satake import build_satake, catalog, checked_involution, parse_form_name
from lieorbits.verify import Failure, expected_real_rank, golden_row

TYPES = [t for rank in range(1, 17) for t in candidate_types(rank)]
ENTRIES = catalog(10)
RANK_64 = ["so(1,128)", "so*(128)", "su(32,32)", "sl(64,R)", "sp(64,R)", "so(64,64)"]


# --- the tuple-based references ----------------------------------------------


def inner(rs, v, w) -> Fraction:
    """<v, w> from the integer multiple of the Gram form that the package keeps."""
    return Fraction(rs.scaled_inner(v, w)) / rs.gram_scale


def ref_non_extendable(rs):
    roots = set(rs.roots)
    return {
        xi
        for xi in rs.positive_roots
        if all(tuple(a + b for a, b in zip(xi, eta)) not in roots for eta in rs.positive_roots)
    }


def decode(n, key):
    """The vector of a signed key of a rank-n system: a negative key is minus a positive one."""
    sign = -1 if key < 0 else 1
    return tuple(sign * x for x in abs(key).to_bytes(n, "big"))


def ref_doubled(rrs):
    """The tuple view `doubled`: every doubled root and its multiplicity, sorted."""
    n = rrs.source.rs.rank
    return {decode(n, k): m for k, m in rrs.signed.items()}


def ref_positives(rrs):
    """The tuple view `doubled_positives`: the positive doubled roots, sorted."""
    n = rrs.source.rs.rank
    return tuple(decode(n, k) for k in rrs.sorted_keys)


def ref_reduced_simple(roots, simple):
    doubles = [tuple(2 * x for x in s) for s in simple]
    return [d if d in roots else s for s, d in zip(simple, doubles)]


def ref_indecomposables(rrs, witnesses):
    doubled = ref_doubled(rrs)
    reduced_pos = [d for d in ref_positives(rrs) if tuple(2 * x for x in d) not in doubled]
    reduced_set = set(reduced_pos)
    witnesses = [w for w in witnesses if w in reduced_set]

    def splits(xi, candidates):
        return any(eta != xi and tuple(map(sub, xi, eta)) in reduced_set for eta in candidates)

    return [xi for xi in reduced_pos if not splits(xi, witnesses) and not splits(xi, reduced_pos)]


def ref_dominant_longest(rrs):
    rs = rrs.source.rs
    norms = {xi: rs.scaled_inner(xi, xi) for xi in ref_positives(rrs)}
    max_len = max(norms.values())
    longest = [xi for xi, norm in norms.items() if norm == max_len]
    dominant = [xi for xi in longest if all(rs.scaled_inner(s, xi) >= 0 for s in rrs.doubled_simple)]
    if len(dominant) != 1:
        raise InconsistentDiagram(f"{rrs.source.name}: {len(dominant)} dominant longest restricted roots")
    return dominant[0]


def ref_ascent(rrs, start=None):
    """The reflection ascent of `dominant_longest` on tuples: from `start`,
    or the longest positive root that sorts last, reflect in the first
    doubled simple root that pairs negatively until none does."""
    rs = rrs.source.rs
    name = rrs.source.name
    positives = ref_positives(rrs)
    if start is None:
        max_len = max(rs.scaled_inner(xi, xi) for xi in positives)
        start = [xi for xi in positives if rs.scaled_inner(xi, xi) == max_len][-1]
    roots, xi = set(positives), start
    while True:
        eta = next((s for s in rrs.doubled_simple if rs.scaled_inner(xi, s) < 0), None)
        if eta is None:
            return xi
        num, den = 2 * rs.scaled_inner(xi, eta), rs.scaled_inner(eta, eta)
        if num % den:
            raise InconsistentDiagram(f"{name}: reflecting {xi} in {eta} is not integral")
        reflected = tuple(x - num // den * y for x, y in zip(xi, eta))
        if reflected <= xi or reflected not in roots:
            raise InconsistentDiagram(f"{name}: reflecting {xi} in {eta} gives no higher restricted root")
        xi = reflected


def ref_odd_pairing(rrs, roots):
    rs = rrs.source.rs
    lam = rrs.doubled_highest
    for xi in roots:
        num, den = 2 * rs.scaled_inner(xi, lam), rs.scaled_inner(xi, xi)
        if num % den:
            raise UnrecognizedSystem(f"non-integral pairing {Fraction(num, den)} in {rrs.source.name}")
        if (num // den) % 2:
            return True
    return False


def ref_cartan(rs, simple_images, roots, name):
    simple_reduced = ref_reduced_simple(roots, simple_images)
    rank = len(simple_reduced)

    def cartan_entry(i, j):
        num = 2 * rs.scaled_inner(simple_reduced[i], simple_reduced[j])
        den = rs.scaled_inner(simple_reduced[j], simple_reduced[j])
        if num % den or (i != j and num > 0) or (i == j and num != 2 * den):
            raise UnrecognizedSystem(f"{name}: restricted Cartan entry {Fraction(num, den)} at ({i},{j})")
        return num // den

    return tuple(tuple(cartan_entry(i, j) for j in range(rank)) for i in range(rank))


def ref_check_root_system(rs):
    name = rs.simple_type.name
    failures = []
    expected = verify.ROOT_COUNT_FORMULAS[rs.simple_type.letter](rs.rank)
    if len(rs.roots) != expected:
        failures.append(Failure(name, "roots.count", f"{len(rs.roots)} roots, closed form gives {expected}"))
    non_extendable = ref_non_extendable(rs)
    if non_extendable != {rs.highest}:
        failures.append(Failure(name, "roots.highest-unique", f"non-extendable positives: {sorted(non_extendable)}"))
    wdd = min_orbit_wdd(rs)
    if rs.rank == 1:
        if wdd.weights != (Fraction(2),):
            failures.append(Failure(name, "minwdd.a1", f"A1 weight is {wdd.weights}, expected (2,)"))
    else:
        if any(w not in (0, 1) for w in wdd.weights):
            failures.append(Failure(name, "minwdd.zero-one", f"weights {wdd.weights} not in {{0,1}}"))
        support = frozenset(i for i, w in enumerate(wdd.weights) if w != 0)
        if support != extended_neighbors(rs):
            failures.append(
                Failure(name, "minwdd.support", f"support {sorted(support)} vs neighbors {sorted(extended_neighbors(rs))}")
            )
    dim = orbit_dim_from_wdd(rs, wdd)
    if dim != 2 * dual_coxeter_number(rs) - 2:
        failures.append(Failure(name, "minwdd.dimension", f"dim {dim} != 2h^v-2 = {2 * dual_coxeter_number(rs) - 2}"))
    return failures


def ref_check_restricted_entry(analysis):
    sd = analysis.sd
    name = sd.name
    rs = sd.rs
    failures = []
    try:
        rrs = analysis.restricted
    except LieOrbitsError as exc:
        return [Failure(name, "restricted.construction", str(exc))]
    doubled = ref_doubled(rrs)

    total = sum(doubled.values())
    span_black = sum(1 for r in rs.roots if all(r[i] == 0 for i in range(rs.rank) if i not in sd.black))
    if total + span_black != len(rs.roots):
        failures.append(
            Failure(name, "restricted.mult-sum", f"mult sum {total} + black-span {span_black} != {len(rs.roots)} roots")
        )

    for d, m in doubled.items():
        if doubled.get(tuple(-x for x in d)) != m:
            xi = tuple(Fraction(x, 2) for x in d)
            failures.append(Failure(name, "restricted.negation", f"mult({xi}) != mult(-{xi})"))
            break

    try:
        if ref_ascent(rrs) != rrs.doubled_highest:
            failures.append(Failure(name, "restricted.highest-two-routes", "r(phi) is not the dominant longest root"))
    except LieOrbitsError as exc:
        failures.append(Failure(name, "restricted.highest-two-routes", str(exc)))

    araki = sorted(ref_reduced_simple(doubled, rrs.doubled_simple))
    searched = ref_indecomposables(rrs, araki)
    if searched != araki:
        message = f"indecomposable reduced positives {searched} vs white-node roots {araki}, doubled"
        failures.append(Failure(name, "restricted.simple-two-routes", message))

    if any(tuple(map(add, rrs.doubled_highest, eta)) in doubled for eta in ref_positives(rrs)):
        failures.append(Failure(name, "restricted.highest-nonextendable", "lambda + eta is a restricted root"))

    scale = rs.gram_scale
    phi_sq = rs.scaled_inner(rs.highest, rs.highest)
    lam_sq4 = rs.scaled_inner(rrs.doubled_highest, rrs.doubled_highest)
    ratio = 2 if rrs.highest_mult >= 2 else 1
    if 4 * phi_sq != ratio * lam_sq4:
        label = "2<lam,lam>" if ratio == 2 else "<lam,lam>"
        message = f"<phi,phi>={Fraction(phi_sq, scale)} but {label}={Fraction(ratio * lam_sq4, 4 * scale)}"
        failures.append(Failure(name, "restricted.norm-ratio", message))

    tau_phi = analysis.involution.tau_image(rs.highest)
    moved = tau_phi != rs.highest
    if moved != (rrs.highest_mult >= 2):
        failures.append(Failure(name, "restricted.mult-vs-phi-moved", f"mult {rrs.highest_mult} vs tau*phi moved {moved}"))
    if moved and rs.scaled_inner(rs.highest, tau_phi) != 0:
        failures.append(Failure(name, "restricted.phi-tau-orthogonal", f"<phi, tau*phi> = {inner(rs, rs.highest, tau_phi)}"))

    try:
        scanned = ref_odd_pairing(rrs, doubled)
    except LieOrbitsError as exc:
        failures.append(Failure(name, "restricted.parity-two-routes", str(exc)))
    else:
        if scanned != analysis.parity:
            failures.append(Failure(name, "restricted.parity-two-routes", f"full scan {scanned}, simple roots {not scanned}"))

    if analysis.parity == is_C_or_BC(rrs):
        failures.append(
            Failure(name, "restricted.parity-criterion", f"odd pairing {analysis.parity} but type {rrs.type_label.name}")
        )
    if analysis.hermitian != sd.hermitian_expected:
        failures.append(
            Failure(name, "restricted.hermitian", f"derived {analysis.hermitian}, reference list says {sd.hermitian_expected}")
        )
    if len(rrs.doubled_simple) != expected_real_rank(sd.descriptor):
        message = f"{len(rrs.doubled_simple)} restricted simple roots, family tables give {expected_real_rank(sd.descriptor)}"
        failures.append(Failure(name, "restricted.real-rank", message))
    return failures


def ref_check_orbit_entry(analysis):
    sd = analysis.sd
    name = sd.name
    failures = []
    try:
        direct = analysis.min_g_wdd
        system = analysis.coroot_solution
    except LieOrbitsError as exc:
        return [Failure(name, "orbit.construction", str(exc))]
    if direct != system.wdd:
        solved = ratio_text(system.numerators, system.denominator)
        failures.append(Failure(name, "orbit.two-methods", f"direct {direct.weights} != linear system {solved}"))
    if any(x not in (0, 1, 2) for x in direct.weights):
        failures.append(Failure(name, "orbit.weights-range", f"weights {direct.weights} outside {{0,1,2}}"))
    if not wdd_matches_satake(direct, sd):
        failures.append(Failure(name, "orbit.matches-satake", "diagram of the meeting orbit does not match the entry"))
    conditions = analysis.conditions
    if not conditions.all_agree:
        failures.append(Failure(name, "orbit.condition-battery", f"conditions disagree: {conditions.values()}"))
    if conditions.c_ii != in_five_families(sd.descriptor):
        failures.append(
            Failure(name, "orbit.five-families", f"c_ii={conditions.c_ii} vs family membership {in_five_families(sd.descriptor)}")
        )
    count = analysis.orbit_count
    if count not in (1, 2):
        failures.append(Failure(name, "orbit.count-range", f"count {count}"))
    if (count == 2) != sd.hermitian_expected:
        failures.append(Failure(name, "orbit.count-hermitian", f"count {count} vs hermitian {sd.hermitian_expected}"))
    min_dim = orbit_dim_from_wdd(sd.rs, analysis.min_wdd)
    g_dim = analysis.min_g_dim
    meets = analysis.min_meets
    if g_dim < min_dim or (g_dim == min_dim) != meets:
        failures.append(Failure(name, "orbit.dim-monotone", f"dim {g_dim} vs minimal dim {min_dim}, meets={meets}"))
    row = golden_row(sd.descriptor)
    if row is not None:
        weights, dim = row
        if direct.as_ints() != weights or g_dim != dim:
            failures.append(
                Failure(name, "orbit.golden-row", f"got {direct.as_ints()} dim {g_dim}, table says {weights} dim {dim}")
            )
    return failures


def ref_verification_failures(sd):
    """The failure list `run_verification(entries=[sd])` gave before the rewrite."""
    failures = ref_check_root_system(build_root_system(sd.rs.simple_type))
    analysis = FormAnalysis(sd)
    for check in (verify.check_satake_entry, ref_check_restricted_entry, ref_check_orbit_entry):
        try:
            failures += check(analysis)
        except LieOrbitsError as exc:
            failures.append(Failure(sd.name, "error", str(exc)))
    return failures


# --- inputs ----------------------------------------------------------------


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


class GivenViews(restricted.RestrictedRootSystem):
    """A doctored system whose signed view and sorted keys are given, not
    read off its keys."""

    @property
    def signed(self):
        return self.given_signed

    @property
    def sorted_keys(self):
        return self.given_sorted


def with_views(rrs, positives, signed, **changes):
    doctored = GivenViews(*rrs._replace(**changes))
    doctored.given_sorted = tuple(map(rrs.source.rs.pack, positives))
    doctored.given_signed = dict(sorted(signed.items()))
    return doctored


def doctored(rrs):
    """Restricted systems that make the rewritten scans fire, one at a time.
    A doctored multiplicity, or a key dropped from the negative half, is
    doctored in the signed view alone, as in a copy of the sorted dict.  An
    extra root goes into the positive half, `keys` and the sorted keys, and
    into the signed view without its negative; the least positive root
    leaves `keys` and the sorted keys, but not the signed view."""
    lam, positives, keys, signed = rrs.doubled_highest, ref_positives(rrs), rrs.keys, rrs.signed
    pack = rrs.source.rs.pack
    eta = positives[0]
    third = tuple(3 * x for x in rrs.doubled_simple[0])
    yield with_views(rrs, positives, {k: m for k, m in signed.items() if k != -pack(eta)})
    yield with_views(rrs, positives, {**signed, pack(lam): signed[pack(lam)] + 1})
    for extra in (tuple(map(add, lam, eta)), third):
        yield with_views(rrs, sorted(positives + (extra,)), {**signed, pack(extra): 1}, keys={**keys, pack(extra): 1})
    yield rrs._replace(doubled_simple=(lam,) + rrs.doubled_simple[1:])
    if len(positives) > 1:
        rest = {k: m for k, m in keys.items() if k != pack(eta)}
        yield with_views(rrs, positives[1:], signed, keys=rest)


def with_restricted(sd, rrs):
    analysis = FormAnalysis(sd)
    analysis.restricted = rrs
    return analysis


# --- the comparisons ------------------------------------------------------


def test_restricted_keys_have_digits_that_never_carry():
    # verify adds and subtracts these keys: with every digit in 0..12, a sum has
    # digits up to 24 and a difference in -12..12, far inside a byte, and the
    # keys sort as the doubled positive roots do
    top = 0
    for sd in catalog(16) + [build_satake(parse_form_name(name)) for name in RANK_64]:
        rs, rrs = sd.rs, restricted_root_system(sd)
        digits = [(key >> shift) & 255 for key in rrs.keys for shift in range(0, 8 * rs.rank, 8)]
        assert all(0 <= key < 256**rs.rank for key in rrs.keys) and max(digits) <= 12, sd.name
        assert list(map(rs.unpack, sorted(rrs.keys))) == sorted(decode(rs.rank, key) for key in rrs.keys), sd.name
        top = max(top, *digits)
    assert top == 12


@pytest.mark.parametrize("t", TYPES, ids=lambda t: t.name)
def test_highest_unique_matches_the_tuple_scan(t):
    rs = build_root_system(t)
    assert verify.check_root_system(rs) == ref_check_root_system(rs) == []
    # without the highest root the roots just below it cannot be extended
    phi = rs.highest
    if 2 <= rs.rank <= 10:
        cut = rs._replace(positive_keys=tuple(k for k, r in zip(rs.positive_keys, rs.positive_roots) if r != phi))
        failures = verify.check_root_system(cut)
        # the cut system keeps its type's spanning tree, which still reaches phi
        tree = [f for f in failures if f.check == "roots.spanning-tree"]
        assert len(tree) == 1 and [f for f in failures if f not in tree] == ref_check_root_system(cut)
        assert "roots.highest-unique" in {f.check for f in failures}


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_restricted_scans_match_the_tuple_scans(sd):
    rrs = restricted_root_system(sd)
    rs = sd.rs
    norms = restricted.positive_norms(rrs)
    assert norms == {xi: rs.scaled_inner(xi, xi) for xi in ref_positives(rrs)}
    assert restricted.dominant_longest(rrs, norms) == ref_ascent(rrs)
    simple = reduced_simple(rs, rrs.keys, rrs.doubled_simple)
    assert simple == ref_reduced_simple(ref_doubled(rrs), rrs.doubled_simple)
    assert restricted.parity_criterion(rrs) == ref_odd_pairing(rrs, simple)

    araki = sorted(simple)
    keys = sorted(rrs.keys)
    for witnesses in ([], araki):
        searched = verify._indecomposables(keys, rrs.keys, map(rs.pack, witnesses))
        assert list(map(rs.unpack, searched)) == ref_indecomposables(rrs, witnesses) == araki

    analysis = FormAnalysis(sd)
    assert verify.check_restricted_entry(analysis) == ref_check_restricted_entry(analysis) == []
    # with the simple-root parity negated, the failure prints the full scan's answer
    analysis.parity = not analysis.parity
    flipped = verify.check_restricted_entry(analysis)
    assert flipped == ref_check_restricted_entry(analysis)
    assert "restricted.parity-two-routes" in {f.check for f in flipped}


@pytest.mark.parametrize("sd", ENTRIES, ids=lambda sd: sd.name)
def test_classify_cartan_entries_match_scaled_inner(monkeypatch, sd):
    seen = []
    classify, read = restricted._classify, restricted.read_cartan_type
    roots = set(map(sd.rs.unpack, restricted_root_system(sd).keys))

    def spy_classify(rs, simple_reduced, simple_images, name):
        seen.append(("reference", ref_cartan(rs, simple_images, roots, name)))
        return classify(rs, simple_reduced, simple_images, name)

    def spy_read(rows):
        seen.append(("rewritten", rows))
        return read(rows)

    monkeypatch.setattr(restricted, "_classify", spy_classify)
    monkeypatch.setattr(restricted, "read_cartan_type", spy_read)
    build_restricted(sd, checked_involution(sd))
    (_, reference), (_, rewritten) = seen
    assert rewritten == reference


def test_doctored_restricted_systems_give_the_same_failures():
    fired = set()
    for sd in catalog(7):
        for rrs in doctored(restricted_root_system(sd)):
            rewritten = verify.check_restricted_entry(with_restricted(sd, rrs))
            assert rewritten == ref_check_restricted_entry(with_restricted(sd, rrs)), sd.name
            fired.update(f.check for f in rewritten)
    assert {
        "restricted.mult-sum",
        "restricted.negation",
        "restricted.highest-two-routes",
        "restricted.simple-two-routes",
        "restricted.highest-nonextendable",
        "restricted.parity-two-routes",
    } <= fired


@pytest.mark.parametrize("sd", catalog(16) + [build_satake(parse_form_name(name)) for name in RANK_64], ids=lambda sd: sd.name)
def test_the_ascent_from_either_end_of_the_norm_table_reaches_r_phi(sd):
    rrs = restricted_root_system(sd)
    norms = restricted.positive_norms(rrs)
    lam = rrs.doubled_highest
    assert restricted.dominant_longest(rrs, norms) == lam
    # reversed, the table puts the least longest root last, and the ascent starts there
    least = next(xi for xi, norm in norms.items() if norm == max(norms.values()))
    assert restricted.dominant_longest(rrs, dict(reversed(norms.items()))) == ref_ascent(rrs, least) == lam
    if sd.rs.rank <= 16:
        assert ref_dominant_longest(rrs) == lam


def test_every_doctored_system_gives_the_ascent_a_root_or_a_named_error():
    # from either end of the norm table, a doctored system's ascent ends at a root
    # or raises InconsistentDiagram: one that lacks a doubled simple root in its
    # table pairs it through its own row, and never looks its norm up
    raised = 0
    for sd in catalog(7):
        for rrs in doctored(restricted_root_system(sd)):
            norms = restricted.positive_norms(rrs)
            for table in (norms, dict(reversed(norms.items()))):
                try:
                    restricted.dominant_longest(rrs, table)
                except InconsistentDiagram:
                    raised += 1
    assert raised > 0


def sl3_doctored(rrs, pack):
    """sl(3,R)'s system with its first doubled simple root replaced by one
    that r(phi) reflects in by a non-integral multiple, or by a negative
    one, and with (4, 0), twice the doubled a_1, added as a longest root."""
    lam, positives, keys, signed = rrs.doubled_highest, ref_positives(rrs), rrs.keys, rrs.signed
    yield rrs._replace(doubled_simple=((1, -3),) + rrs.doubled_simple[1:])
    yield rrs._replace(doubled_simple=((-2, 0),) + rrs.doubled_simple[1:])
    extra = (4, 0)
    yield with_views(rrs, sorted(positives + (extra,)), {**signed, pack(extra): 1}, keys={**keys, pack(extra): 1})


def test_a_failed_ascent_is_a_named_failure_of_the_two_routes():
    sd = build_satake(parse_form_name("sl(3,R)"))
    true = FormAnalysis(sd)
    messages = [
        "sl(3,R): reflecting (2, 2) in (1, -3) is not integral",
        "sl(3,R): reflecting (2, 2) in (-2, 0) gives no higher restricted root",
        "sl(3,R): reflecting (4, 0) in (0, 2) gives no higher restricted root",
    ]
    for rrs, message in zip(sl3_doctored(true.restricted, sd.rs.pack), messages, strict=True):
        with pytest.raises(InconsistentDiagram, match=re_escape(message)):
            restricted.dominant_longest(rrs, restricted.positive_norms(rrs))
        analysis = with_restricted(sd, rrs)
        # the simple-root parity reads the doctored simple roots, so it is the true one
        analysis.parity = true.parity
        failures = verify.check_restricted_entry(analysis)
        assert failures == ref_check_restricted_entry(analysis)
        assert Failure("sl(3,R)", "restricted.highest-two-routes", message) in failures


@pytest.mark.parametrize("highest, value", [((0, 1, 0), "-1/2"), ((1, 0, 0), "-1")], ids=["half", "whole"])
def test_phi_tau_message_prints_the_reduced_fraction(highest, value):
    # sp(1,2) with a short root standing in for phi, which tau* moves to a
    # root it is not orthogonal to
    sd = build_satake(parse_form_name("sp(1,2)"))
    true = FormAnalysis(sd)
    analysis = FormAnalysis(sd._replace(rs=sd.rs._replace(highest=highest)))
    for value_name in ("involution", "restricted", "parity", "hermitian"):
        setattr(analysis, value_name, getattr(true, value_name))
    failures = verify.check_restricted_entry(analysis)
    assert failures == ref_check_restricted_entry(analysis)
    assert Failure("sp(1,2)", "restricted.phi-tau-orthogonal", f"<phi, tau*phi> = {value}") in failures


def test_mutants_give_the_same_verify_failures():
    mutants = [mutant for sd in catalog(7) for mutant in mutations(sd)]
    assert len(mutants) == 673
    for mutant in mutants:
        assert verify.run_verification(entries=[mutant]).failures == ref_verification_failures(mutant), mutant.name


# --- a diagram relabelled by a Dynkin diagram automorphism -----------------


def searched_automorphisms(cartan):
    """Every permutation sigma with C[sigma i][sigma j] = C[i][j], by
    backtracking: node i may go to a node j only if the rows of the nodes
    already placed agree.  The free nodes are tried in increasing order, so
    the permutations come in increasing order, the identity first."""
    n = len(cartan)
    found = []

    def place(sigma):
        i = len(sigma)
        if i == n:
            found.append(tuple(sigma))
            return
        for j in range(n):
            if j not in sigma and cartan[j][j] == cartan[i][i] and all(
                cartan[sigma[k]][j] == cartan[k][i] and cartan[j][sigma[k]] == cartan[i][k] for k in range(i)
            ):
                place(sigma + [j])

    place([])
    return found


def relabelled(sd, sigma):
    """`sd` with node i renamed sigma[i]: the same real form."""
    arrows = tuple(sorted(tuple(sorted((sigma[i], sigma[j]))) for i, j in sd.arrows))
    return sd._replace(black=frozenset(sigma[b] for b in sd.black), arrows=arrows)


def moved(weights, sigma):
    out = [0] * len(weights)
    for i, w in enumerate(weights):
        out[sigma[i]] = w
    return tuple(out)


def test_the_automorphism_table_is_the_search():
    # every type up to rank 16, and D64, on which the search takes most of a second
    types = [t for rank in range(1, 17) for t in candidate_types(rank)] + [SimpleType("D", 64)]
    for t in types:
        assert diagram_automorphisms(t) == tuple(searched_automorphisms(cartan_matrix(t))), t


def test_the_trialities_of_so_1_7_pass_the_golden_row():
    # the golden table gives so(1,7)'s weights on the catalog's diagram, white node 0;
    # four of D4's six automorphisms move that node to 2 or 3
    sd = build_satake(parse_form_name("so(1,7)"))
    sigmas = searched_automorphisms(sd.rs.cartan)
    assert len(sigmas) == 6 and sum(sigma[0] != 0 for sigma in sigmas) == 4
    for sigma in sigmas:
        image = relabelled(sd, sigma)
        assert verify.run_verification(entries=[image]).failures == [], sigma
        assert verify.check_orbit_entry(FormAnalysis(image)) == [], sigma


def test_a_wrong_golden_row_fires_on_the_catalog_labelling(monkeypatch):
    # (0, 0, 2, 0) is a triality's image of so(1,7)'s true row, so only a
    # node-by-node comparison on the catalog's own diagram refuses it
    sd = build_satake(parse_form_name("so(1,7)"))
    monkeypatch.setattr(verify, "golden_row", lambda d: ((0, 0, 2, 0), 12))
    failures = verify.check_orbit_entry(FormAnalysis(sd))
    assert failures == [Failure("so(1,7)", "orbit.golden-row", "got (2, 0, 0, 0) dim 12, table says (0, 0, 2, 0) dim 12")]
    # on a relabelled diagram the wrong row moves along and still fires
    image = relabelled(sd, (2, 1, 0, 3))
    assert [f.check for f in verify.check_orbit_entry(FormAnalysis(image))] == ["orbit.golden-row"]


def test_reports_and_verify_commute_with_diagram_automorphisms():
    relabellings = 0
    for sd in catalog(12):
        report = FormAnalysis(sd).report
        for sigma in searched_automorphisms(sd.rs.cartan)[1:]:
            image = relabelled(sd, sigma)
            relabellings += 1
            assert verify.run_verification(entries=[image]).failures == [], (sd.name, sigma)
            got = FormAnalysis(image).report
            assert got.min_wdd.weights == moved(report.min_wdd.weights, sigma), (sd.name, sigma)
            assert got.min_g_wdd.weights == moved(report.min_g_wdd.weights, sigma), (sd.name, sigma)
            fields = ("min_wdd", "min_g_wdd")
            assert got._replace(**dict.fromkeys(fields)) == report._replace(**dict.fromkeys(fields)), (sd.name, sigma)
    assert relabellings > 100
