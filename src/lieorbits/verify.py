"""Catalog-wide verification sweep.

Every module-level invariant is run over every catalog entry, each failure
tagged with the entry name and a stable check name so a corrupted entry is
reported, not silently absorbed.  Cross-checks against family-derived
reference data (expected Hermitian flag, expected real rank, golden table
rows) catch corruptions that still yield a structurally valid diagram.

A root system stores its positive roots as packed keys, and the other
layers carry tau* and a weighted diagram's grading along the closure's
spanning tree.  The `roots.*` checks read the keys too, and a sweep builds
no coefficient tuple view of a root system (`RootSystem.positive_roots`,
`.roots`): `roots.count` counts the keys twice, one per sign, and
`roots.positive-first` holds them to the height order, each height the digit
sum of one key decoded and kept nowhere.  `roots.spanning-tree` holds the
tree to the keys, and `minwdd.dimension` reads the grading only along a tree
that passed it.  The minimal diagram, its orbit's dimension, the dual Coxeter
number and the extended-diagram neighbours are read off the root system,
which keeps each once computed (`RootSystem.min_wdd`, `.min_orbit_dim`,
`.dual_coxeter` and `.extended_nodes`), so the `minwdd.*` checks, every
entry's `orbit.dim-monotone` and every entry's analysis share one value per
type; an analysis whose minimal diagram was assigned is graded on that
diagram.  The entry's own smallest meeting orbit is graded once, by the
analysis its three checks share (`_analysis`).

The searches over pairs of roots, `roots.highest-unique`,
`restricted.simple-two-routes` and `restricted.highest-nonextendable`, and
the black-span count of `restricted.mult-sum`, run on the stored keys
(`RootSystem.pack`): a sum or difference of roots is one int addition, a set
lookup hashes one int, and a root off the black span has a digit under the
white-node mask.  The digits are at most 6 for a root and 12 for a doubled
restricted one, so nothing compared carries; the simple-root search compares
keys too, and a key is decoded only for a message.

Each entry's restricted keys are sorted once, into the view
`RestrictedRootSystem.sorted_keys`, which the signed view `signed`, the norm
table `restricted.positive_norms` and the searches of
`restricted.simple-two-routes` and `restricted.highest-nonextendable` share;
the norm table decodes each key once, keeping the roots only as its own
keys, and is built once per entry.  The signed view, the sorted keys
with each negative root as -key, serves `restricted.mult-sum` and
`.negation`, which looks up the multiplicity of each -xi, one int negation
and one dict lookup, against that of xi; a failure decodes its key for the
message (`RootSystem.unpack_signed`).  Where one side of an inner product
is fixed, the other is paired with one `RootSystem.simple_pairings` row of
it: the simple roots in the reflection ascent to the dominant longest
root (`restricted.dominant_longest`), phi in the norm ratio, and r(phi) in
the norm ratio and the parity scan, whose row the restriction keeps once
built (`RestrictedRootSystem.highest_pairings`) for the direct diagram and
the parity criterion too.  The ascent starts at a longest root of the norm
table, which the parity scan reads whole: every scan that is symmetric
under negation reads the positive half.  `roots.highest-unique` tests sums
against the type's kept key set (`RootSystem.key_set`), which the
involution's root scans read as well.  `restricted.simple-two-routes`
compares its search with the reduced simple roots the construction found,
the view `RestrictedRootSystem.reduced_simple`.

`orbit.golden-row` reads the table's weights on the catalog's diagram for
the entry's descriptor; an entry that is another diagram, relabelled from
it by a Dynkin diagram automorphism, is held to the weights moved by it.
The automorphisms are read off the type's table
(`rootsys.diagram_automorphisms`), the identity first, so the catalog's own
diagram keeps the weights as given.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Container, Iterable, Sequence
from itertools import compress, repeat
from math import gcd
from operator import mul, ne, neg

from .errors import LieOrbitsError
from .orbits import FormAnalysis, in_five_families, kept_analysis, ratio_text, wdd_matches_satake
from .restricted import dominant_longest, is_C_or_BC, odd_pairing, positive_norms
from .rootsys import ROOT_COUNT_FORMULAS, RootSystem, build_root_system, diagram_automorphisms, orbit_dim_from_wdd
from .satake import RealFormDescriptor, SatakeDiagram, build_satake, catalog

EXCEPTIONAL_REAL_RANK = {
    "g2_2": 2,
    "f4_4": 4,
    "f4_m20": 1,
    "e6_6": 6,
    "e6_2": 4,
    "e6_m14": 2,
    "e6_m26": 2,
    "e7_7": 7,
    "e7_m5": 4,
    "e7_m25": 3,
    "e8_8": 8,
    "e8_m24": 4,
}


def expected_real_rank(d: RealFormDescriptor) -> int:
    """Real rank per family, from the standard classification tables."""
    f, p = d.family, d.params
    if f in ("sl_R", "su_star"):
        return p[0] - 1
    if f in ("su_pq", "so_pq", "sp_pq", "sp_R"):
        return p[0]
    if f == "so_star":
        return p[0] // 2
    return EXCEPTIONAL_REAL_RANK[f]


def golden_row(d: RealFormDescriptor) -> tuple[tuple[int, ...], int] | None:
    """Expected (weights, dimension) for the five families, None elsewhere."""
    f, p = d.family, d.params
    if f == "su_star":
        k = p[0]
        if k == 2:
            return (0, 2, 0), 8
        weights = [0] * (2 * k - 1)
        weights[1] = weights[2 * k - 3] = 1
        return tuple(weights), 8 * k - 8
    if f == "so_pq" and p[0] == 1:
        n = p[1] + 1
        if n == 6:
            return (0, 2, 0), 8
        rank = (n - 1) // 2 if n % 2 == 1 else n // 2
        weights = [0] * rank
        weights[0] = 2
        return tuple(weights), 2 * n - 4
    if f == "sp_pq":
        total = p[0] + p[1]
        if total == 2:
            return (0, 2), 6
        weights = [0] * total
        weights[1] = 1
        return tuple(weights), 4 * total - 2
    if f == "e6_m26":
        return (1, 0, 0, 0, 0, 1), 32
    if f == "f4_m20":
        return (0, 0, 0, 1), 22
    return None


def _table_weights(sd: SatakeDiagram, weights: tuple[int, ...]) -> tuple[int, ...]:
    """A golden row's weights, given on the catalog's diagram for the
    descriptor, on the nodes of `sd`: moved by the first automorphism in the
    type's table (`diagram_automorphisms`) that carries the catalog's
    diagram onto `sd`, the identity when `sd` is that diagram, and as given
    when none does."""
    try:
        ref = build_satake(sd.descriptor)
    except LieOrbitsError:
        return weights
    # an automorphism of another rank would index out of range
    if ref.rs.simple_type != sd.rs.simple_type:
        return weights
    arrows = set(map(frozenset, sd.arrows))
    for sigma in diagram_automorphisms(sd.rs.simple_type):
        if frozenset(map(sigma.__getitem__, ref.black)) == sd.black and {
            frozenset(map(sigma.__getitem__, pair)) for pair in ref.arrows
        } == arrows:
            moved = [0] * len(weights)
            for i, w in zip(sigma, weights):
                moved[i] = w
            return tuple(moved)
    return weights


class Failure(namedtuple("Failure", "entry check message")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"FAIL {self.entry} [{self.check}] {self.message}"


class VerificationResult(namedtuple("VerificationResult", "entries checks_run failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _analysis(entry: SatakeDiagram | FormAnalysis) -> FormAnalysis:
    """The analysis an entry check reads: the one given, or the one the
    diagram keeps, so the three checks of a bare diagram share it."""
    return entry if isinstance(entry, FormAnalysis) else kept_analysis(entry)


def check_root_system(rs: RootSystem) -> list[Failure]:
    name = rs.simple_type.name
    failures = []

    # the negatives are the view `roots` adds, so the positive keys are counted twice
    keys = rs.positive_keys
    expected = ROOT_COUNT_FORMULAS[rs.simple_type.letter](rs.rank)
    if 2 * len(keys) != expected:
        failures.append(Failure(name, "roots.count", f"{2 * len(keys)} roots, closed form gives {expected}"))

    # the positive keys must be in height order, each height at least 1; a height is
    # the digit sum of one decoded key, kept nowhere.  The keys that decode are an
    # interval, so all do when the least and the greatest do; if not, they are out of order
    decodable = rs.decodable(min(keys, default=0)) and rs.decodable(max(keys, default=0))
    heights = list(map(sum, map(rs.unpack, keys))) if decodable else [0]
    if min(heights, default=1) < 1 or heights != sorted(heights):
        message = "the roots are not the positive ones by height followed by their negatives"
        failures.append(Failure(name, "roots.positive-first", message))

    problem = _spanning_tree_problem(rs)
    if problem:
        failures.append(Failure(name, "roots.spanning-tree", problem))

    # a sum of two positive roots is a root exactly when it is a positive one
    root_keys = rs.key_set
    non_extendable = {x for x in keys if root_keys.isdisjoint(map(x.__add__, keys))}
    if non_extendable != {rs.pack(rs.highest)}:
        message = f"non-extendable positives: {sorted(map(rs.unpack, filter(rs.decodable, non_extendable)))}"
        failures.append(Failure(name, "roots.highest-unique", message))

    wdd = rs.min_wdd
    if rs.rank == 1:
        if wdd.weights != (2,):
            failures.append(Failure(name, "minwdd.a1", f"A1 weight is {wdd.weights}, expected (2,)"))
    else:
        if any(w not in (0, 1) for w in wdd.weights):
            failures.append(Failure(name, "minwdd.zero-one", f"weights {wdd.weights} not in {{0,1}}"))
        support = frozenset(i for i, w in enumerate(wdd.weights) if w != 0)
        if support != rs.extended_nodes:
            failures.append(
                Failure(name, "minwdd.support", f"support {sorted(support)} vs neighbors {sorted(rs.extended_nodes)}")
            )

    # the dual Coxeter number is read off the highest root, independently of the
    # grading; the grading is carried along the spanning tree, so only a tree
    # that passed roots.spanning-tree grades
    if problem is None:
        dim = rs.min_orbit_dim
        if dim != 2 * rs.dual_coxeter - 2:
            message = f"dim {dim} != 2h^v-2 = {2 * rs.dual_coxeter - 2}"
            failures.append(Failure(name, "minwdd.dimension", message))
    return failures


def _spanning_tree_problem(rs: RootSystem) -> str | None:
    """What is wrong with the spanning tree the closure kept, if anything:
    it must give each positive key a parent that comes before it, or -1 for
    0, and each must be its parent plus a_node, which on the keys is one
    addition."""
    n = rs.rank
    units = rs.simple_keys
    keys = rs.positive_keys
    tree = [edge for parents, nodes in rs.spanning_tree for edge in zip(parents, nodes)]
    if len(tree) != len(keys):
        return f"the tree has {len(tree)} entries for {len(keys)} positive roots"
    for child, (parent, node) in enumerate(tree):
        if not -1 <= parent < child or not 0 <= node < n:
            return f"positive root {child} has parent {parent} and node {node}"
        if keys[child] != (keys[parent] if parent >= 0 else 0) + units[node]:
            return f"positive root {child} is not its parent {parent} plus a_{node}"
    return None


def check_satake_entry(entry: SatakeDiagram | FormAnalysis) -> list[Failure]:
    analysis = _analysis(entry)
    sd = analysis.sd
    report = analysis.validate()
    failures = [Failure(sd.name, check, msg) for check, msg in report.failures]
    if failures:
        return failures

    rrs = analysis.restricted
    omega = len(sd.black) + len(sd.arrows)
    if omega != sd.rs.rank - len(rrs.doubled_simple):
        failures.append(
            Failure(sd.name, "involution.omega-count", f"#black+#arrows = {omega} != rank - #restricted simples")
        )
    return failures


def _indecomposables(keys: Sequence[int], roots: Container[int], witness_keys: Iterable[int]) -> list[int]:
    """The reduced positive roots that are no sum of two others, by search,
    as keys: those of `keys`, the keys of every positive doubled root, in
    increasing order, and so in order; `roots` holds the same keys, and
    tells a reduced one, whose double is not among them.

    A decomposable root splits off a white-node root, so the witnesses are
    tried first and every positive root only for the few roots they leave.
    A positive key that is a sum of two is the sum of one at most its half
    and one at least its half, so only the keys up to half of it are tried.
    """
    reduced = [k for k in keys if 2 * k not in roots]
    reduced_set = set(reduced)
    witness_keys = [k for k in witness_keys if k in reduced_set]
    # whether no key minus a candidate is a reduced key; xi - eta packs to 0
    # only when eta is xi, which is no split
    no_split = (reduced_set - {0}).isdisjoint
    return [
        k
        for k in reduced
        if no_split(map(k.__sub__, witness_keys)) and no_split(map(k.__sub__, reduced[: bisect_right(reduced, k // 2)]))
    ]


def check_restricted_entry(entry: SatakeDiagram | FormAnalysis) -> list[Failure]:
    analysis = _analysis(entry)
    sd = analysis.sd
    name = sd.name
    rs = sd.rs
    failures = []
    try:
        rrs = analysis.restricted
    except LieOrbitsError as exc:
        return [Failure(name, "restricted.construction", str(exc))]

    # the keys are sorted once, for the decode behind the norm table, the signed view
    # and the searches; only the next two checks read the signed view
    keys = rrs.sorted_keys
    signed = rrs.signed
    norms = positive_norms(rrs)

    # an independent count of the roots restricting to zero, those supported on black
    # nodes: twice the positive keys with no digit on a white node, which `white` masks
    total = sum(signed.values())
    white = rs.digit_mask(sd.white)
    span_black = 2 * list(map(white.__and__, rs.positive_keys)).count(0)
    roots = 2 * len(rs.positive_keys)
    if total + span_black != roots:
        failures.append(
            Failure(name, "restricted.mult-sum", f"mult sum {total} + black-span {span_black} != {roots} roots")
        )

    # on the keys of the doubled vectors 2 xi: -xi has key -key
    d = next(compress(signed, map(ne, map(signed.get, map(neg, signed)), signed.values())), None)
    if d is not None:
        from fractions import Fraction

        xi = tuple(Fraction(x, 2) for x in rs.unpack_signed(d))
        failures.append(Failure(name, "restricted.negation", f"mult({xi}) != mult(-{xi})"))

    try:
        if dominant_longest(rrs, norms) != rrs.doubled_highest:
            failures.append(Failure(name, "restricted.highest-two-routes", "r(phi) is not the dominant longest root"))
    except LieOrbitsError as exc:
        failures.append(Failure(name, "restricted.highest-two-routes", str(exc)))

    # compared as keys, which pack the white-node roots injectively and in order
    araki = sorted(rrs.reduced_simple)
    araki_keys = list(map(rs.pack, araki))
    searched = _indecomposables(keys, rrs.keys, araki_keys)
    if searched != araki_keys:
        message = f"indecomposable reduced positives {list(map(rs.unpack, searched))} vs white-node roots {araki}, doubled"
        failures.append(Failure(name, "restricted.simple-two-routes", message))

    lam = rs.pack(rrs.doubled_highest)
    if any(map(rrs.keys.__contains__, map(lam.__add__, keys))):
        failures.append(Failure(name, "restricted.highest-nonextendable", "lambda + eta is a restricted root"))

    # gram_scale times <phi,phi>, and 4 gram_scale times <lam,lam> from the doubled 2 lam,
    # each paired through its own row; <phi,phi> = ratio <lam,lam>
    scale = rs.gram_scale
    lam_row = rrs.highest_pairings
    phi_sq = sum(map(mul, rs.highest, rs.highest_pairings))
    lam_sq4 = sum(map(mul, rrs.doubled_highest, lam_row))
    ratio = 2 if rrs.highest_mult >= 2 else 1
    if 4 * phi_sq != ratio * lam_sq4:
        from fractions import Fraction

        label = "2<lam,lam>" if ratio == 2 else "<lam,lam>"
        message = f"<phi,phi>={Fraction(phi_sq, scale)} but {label}={Fraction(ratio * lam_sq4, 4 * scale)}"
        failures.append(Failure(name, "restricted.norm-ratio", message))

    tau_phi = analysis.involution.tau_image(rs.highest)
    moved = tau_phi != rs.highest
    if moved != (rrs.highest_mult >= 2):
        failures.append(
            Failure(name, "restricted.mult-vs-phi-moved", f"mult {rrs.highest_mult} vs tau*phi moved {moved}")
        )
    if moved and (product := sum(map(mul, tau_phi, rs.highest_pairings))):
        # <phi, tau*phi> = product / scale, printed reduced and without "/1"
        g = gcd(product, scale)
        value = f"{product // g}" if g == scale else f"{product // g}/{scale // g}"
        failures.append(Failure(name, "restricted.phi-tau-orthogonal", f"<phi, tau*phi> = {value}"))

    # every positive root paired through the row of lambda; -xi pairs as xi does
    pairings = zip(map((2).__mul__, map(sum, map(map, repeat(mul), norms, repeat(lam_row)))), norms.values())
    try:
        scanned = odd_pairing(rrs, pairings)
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
        failures.append(
            Failure(
                name,
                "restricted.real-rank",
                f"{len(rrs.doubled_simple)} restricted simple roots, family tables give {expected_real_rank(sd.descriptor)}",
            )
        )
    return failures


def check_orbit_entry(entry: SatakeDiagram | FormAnalysis) -> list[Failure]:
    analysis = _analysis(entry)
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

    # graded once per type, unless the analysis was given a minimal diagram of its own
    min_wdd = analysis.min_wdd
    min_dim = sd.rs.min_orbit_dim if min_wdd is sd.rs.min_wdd else orbit_dim_from_wdd(sd.rs, min_wdd)
    g_dim = analysis.min_g_dim
    meets = analysis.min_meets
    if g_dim < min_dim or (g_dim == min_dim) != meets:
        failures.append(Failure(name, "orbit.dim-monotone", f"dim {g_dim} vs minimal dim {min_dim}, meets={meets}"))

    # the table gives the catalog's labelling, so an entry relabelled by a diagram automorphism is
    # held to the table's weights moved along with it
    row = golden_row(sd.descriptor)
    if row is not None:
        weights, dim = row
        weights = _table_weights(sd, weights)
        if direct.weights != weights or g_dim != dim:
            failures.append(
                Failure(name, "orbit.golden-row", f"got {direct.weights} dim {g_dim}, table says {weights} dim {dim}")
            )
    return failures


ENTRY_CHECKS = (check_satake_entry, check_restricted_entry, check_orbit_entry)


def run_verification(max_rank: int = 8, entries: Iterable[SatakeDiagram] | None = None) -> VerificationResult:
    """Run every invariant suite; used by the CLI `verify` command.  The
    entry checks of one entry share one analysis, dropped once they ran.
    Without `entries`, the sweep is `catalog(max_rank)`, which refuses a
    max_rank that is no int, a bool, or outside 2..MAX_RANK with
    OutOfRangeParams."""
    diagrams: Sequence[SatakeDiagram] = list(entries) if entries is not None else catalog(max_rank)
    failures: list[Failure] = []
    checks = 0

    seen_types = []
    for sd in diagrams:
        # an entry whose rs is no root system is refused by its entry checks
        if isinstance(sd.rs, RootSystem) and sd.rs.simple_type not in seen_types:
            seen_types.append(sd.rs.simple_type)
    for t in seen_types:
        checks += 1
        failures += check_root_system(build_root_system(t))

    for sd in diagrams:
        analysis = FormAnalysis(sd)
        for check in ENTRY_CHECKS:
            checks += 1
            try:
                failures += check(analysis)
            except LieOrbitsError as exc:
                failures.append(Failure(sd.name, "error", str(exc)))
    return VerificationResult(entries=len(diagrams), checks_run=checks, failures=failures)
