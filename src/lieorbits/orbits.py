"""Smallest complex nilpotent orbits meeting a real form.

Two independent routes produce the weighted diagram of the smallest orbit
meeting the real form: coroot pairings against the highest restricted root,
and a square integer system in the matching-diagram unknowns plus the
black/arrow coroot basis coefficients, solved by blocks: the black/arrow
block first, then each match value off one row.  The verification sweep
insists they agree on every catalog entry.

`FormAnalysis(sd)` holds every value derived for one diagram, one cached
attribute each, built from one another, so each is computed once per
analysis.  It builds its own involution and restriction through
`satake.checked_involution` and `restricted.build_restricted`, which keep
nothing, so this module owns every kept analysis and every reader of one.
Each diagram keeps one, built on first read by `kept_analysis` into the
slot `SatakeDiagram._analysis`; `orbit_report`, `validate_satake`,
`satake_involution`, `restricted_root_system` and a `verify` entry check
given a bare diagram all read it.  `min_g_wdd_direct`,
`min_g_wdd_linear_system` and `equivalence_conditions` each build a fresh
analysis given the kept one's involution and restriction, so only the
orbit-layer values are recomputed apart from it.  `run_verification`
builds one analysis per entry and drops it after the entry's three checks,
keeping it on no diagram and in no cache: a sweep holds one entry's
involution and restriction at a time.  Each diagram weight is an integer
numerator divided by its denominator once a divisibility test passes, so
the report path builds no `Fraction`.

Every cache is an LRU of 256, and an error is never kept: those of
`satake.parse_form_name`, keyed on the name text, `satake._cached_satake`
(behind `build_satake`) on the descriptor, `rootsys._build_cached` on the
type and `rootsys.read_cartan_type` on the Cartan rows.  `satake_involution`
and `restricted_root_system` are keyed on the diagram, which hashes as its
descriptor; they add no sharing and remain for the benchmark's `cache.*`
metrics.  `catalog(12)` has 281 entries and larger catalogs more, past the
256 slots of `_cached_satake`, and builds them in one fixed order, so a
repeated catalog or sweep of rank 12 or more in one process rebuilds every
diagram.

A report keeps the dict `report_to_dict` prints (`OrbitReport._printed`),
built on first read, and each `report_to_dict` call returns a copy whose
containers are all new, so a repeated report from a name is two cache hits,
an attribute read and one shallow copy per container.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import mul, sub

from .errors import InconsistentDiagram, InvalidReport, NonIntegralWeights, TypeMismatch
from .ratmat import int_solve
from .restricted import RestrictedRootSystem, build_restricted, is_C_or_BC, parity_criterion
from .rootsys import SimpleType, WeightedDynkinDiagram, cached, orbit_dim_from_wdd
from .satake import RealFormDescriptor, SatakeDiagram, SatakeInvolution, build_satake, checked_involution, parse_form_name

CONDITION_FIELDS = ("c_i", "c_ii", "c_iv", "c_v", "c_vi", "c_vii", "c_xii")


class EquivalenceConditions(namedtuple("EquivalenceConditions", CONDITION_FIELDS)):
    """Seven equivalent tests for "the minimal complex orbit misses the real form".

    Each boolean is computed by its own route; they must all agree.
    """

    __slots__ = ()

    def values(self) -> tuple[bool, ...]:
        return tuple(self)

    @property
    def all_agree(self) -> bool:
        return len(set(self.values())) == 1


class OrbitReport(
    namedtuple(
        "OrbitReport",
        "descriptor min_wdd min_meets min_g_wdd min_g_dim g_lambda_dim minimal_real_orbit_count hermitian conditions",
    )
):
    """Everything this package computes about one real form.

    The dict `report_to_dict` prints is a view, built on first read and
    kept; a report is immutable, so it cannot go stale, and a `_replace`
    copy builds its own."""

    @cached
    def _printed(self) -> dict:
        """The printed dict, shared by every `report_to_dict` call, which
        copies it; private, since a change to it would reach every later
        copy."""
        data = {
            "descriptor": self.descriptor.canonical_name,
            "min_wdd": list(self.min_wdd.weights),
            "min_meets": self.min_meets,
            "min_g_wdd": list(self.min_g_wdd.weights),
            "min_g_dim": self.min_g_dim,
            "g_lambda_dim": self.g_lambda_dim,
            "minimal_real_orbit_count": self.minimal_real_orbit_count,
            "hermitian": self.hermitian,
            "conditions": dict(zip(CONDITION_FIELDS, self.conditions)),
        }
        labels = _drawn_labels(self.min_g_wdd)
        if labels is not None:
            data["paper_labels"] = {
                "min_wdd": _drawn_labels(self.min_wdd),
                "min_g_wdd": labels,
            }
        return data


class CorootSystemSolution(namedtuple("CorootSystemSolution", "wdd numerators denominator")):
    """Solution of the square system splitting twice the minimal-orbit coroot
    into a split-part diagram (match unknowns, one per white arrow class) and
    coefficients over the black/arrow coroot basis.  Each node's weight is an
    integer numerator over the determinant, doubled when dim g_lambda = 1
    (a weight is then half its match value); `wdd` is None unless all are
    integers."""

    __slots__ = ()


def ratio_text(numerators, denominator: int) -> str:
    """numerators/denominator as messages print it: reduced, and "/1" left out."""
    g = gcd(denominator, *numerators)
    nums = tuple(x // g for x in numerators)
    return f"{nums}" if denominator == g else f"{nums}/{denominator // g}"


def wdd_matches_satake(w: WeightedDynkinDiagram, sd: SatakeDiagram) -> bool:
    """Black nodes carry weight zero and arrow-paired nodes carry equal weights."""
    if w.simple_type != sd.rs.simple_type:
        raise TypeMismatch(f"diagram of type {w.simple_type.name} against Satake diagram of {sd.rs.simple_type.name}")
    if any(w.weights[b] != 0 for b in sd.black):
        return False
    return all(w.weights[i] == w.weights[j] for i, j in sd.arrows)


def black_extended_criterion(sd: SatakeDiagram) -> bool:
    """Some black node is adjacent to the added node of the extended diagram."""
    if sd.rs.rank < 2:
        return False
    return bool(sd.black & sd.rs.extended_nodes)


FIVE_FAMILIES = ("su_star", "sp_pq", "f4_m20", "e6_m26")


def in_five_families(descriptor: RealFormDescriptor) -> bool:
    """Membership in the classified list: su*(2k), so(n,1), sp(p,q), e6(-26), f4(-20)."""
    if descriptor.family in FIVE_FAMILIES:
        return True
    return descriptor.family == "so_pq" and descriptor.params[0] == 1


class ValidationReport(namedtuple("ValidationReport", "entry failures")):
    """Outcome of validate_satake: empty failures means the entry is sound."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


class FormAnalysis:
    """Every value derived for one Satake diagram, each computed once.

    Each attribute reads the ones it depends on, so an `orbit_report` and the
    three `verify` entry checks sharing one analysis compute every layer
    once.  A value may be assigned to stand in for the computed one, on an
    analysis built for that purpose, never on a kept one.
    """

    def __init__(self, sd: SatakeDiagram):
        if not isinstance(sd, SatakeDiagram):
            raise InconsistentDiagram(f"a real form is given by a SatakeDiagram, got {type(sd).__name__} {sd!r}")
        self.sd = sd

    @cached
    def involution(self) -> SatakeInvolution:
        return checked_involution(self.sd)

    def validate(self) -> ValidationReport:
        """Every structural and involution check, run by reading the
        involution: a sound one is kept, and a failed one runs again."""
        try:
            self.involution
        except InconsistentDiagram as exc:
            return ValidationReport(self.sd.name, exc.failures or (("structure.construction", str(exc)),))
        return ValidationReport(self.sd.name, ())

    @cached
    def restricted(self) -> RestrictedRootSystem:
        return build_restricted(self.sd, self.involution)

    @cached
    def min_wdd(self) -> WeightedDynkinDiagram:
        return self.sd.rs.min_wdd

    @cached
    def min_meets(self) -> bool:
        return wdd_matches_satake(self.min_wdd, self.sd)

    @cached
    def min_g_wdd(self) -> WeightedDynkinDiagram:
        """Weighted diagram of the smallest orbit meeting the real form.

        weight_i = 2<a_i, lambda>/<lambda,lambda> for the highest restricted root
        lambda = (phi + tau* phi)/2.
        """
        sd = self.sd
        # on the doubled root 2 lambda: weight_i = 4<a_i, 2 lambda>/<2 lambda, 2 lambda>
        rrs = self.restricted
        lam, pairs = rrs.doubled_highest, rrs.highest_pairings
        norm = sum(map(mul, lam, pairs))
        nums = [4 * p for p in pairs]
        weights = tuple(x // norm for x in nums)
        if any(x % norm for x in nums) or not {0, 1, 2}.issuperset(weights):
            raise InconsistentDiagram(f"{sd.name}: weights {ratio_text(nums, norm)} outside {{0,1,2}}")
        return WeightedDynkinDiagram(sd.rs.simple_type, weights)

    @cached
    def coroot_solution(self) -> CorootSystemSolution:
        """Solve the coroot system by blocks; one equation per node.

        Row i reads x_i + sum_b C[i][b] y_b + sum_(a, c) (C[i][a] - C[i][c]) z_ac
        = 2 t_i, with x_i the match value of i's class: a white node alone, or
        an arrow pair.  A class column is 1 on its own class's rows only, so
        the black rows and each arrow's row difference hold no x: they are a
        square system in the y and z alone, solved first.  Each x is then read
        off its class's first row.  Ordering the full matrix's rows as the
        classes' first rows, then the block's, makes it block triangular with
        the identity on the classes, so its determinant is the block's up to
        sign, and the numerators over it are the full system's.  A split form
        has an empty block and no solve.  Once the involution passed its
        checks, arrows join white nodes of one length and no node twice, so
        the block is the Gram matrix of the independent black roots and arrow
        differences times a positive diagonal: it is never singular.
        """
        sd = self.sd
        rs = sd.rs
        cartan = rs.cartan
        self.involution  # validates the entry before we trust its data

        black = sorted(sd.black)
        arrows = sd.arrows
        rhs = [2 * t for t in self.min_wdd.weights]

        def coroots(i: int) -> list[int]:
            """Row i of the black and arrow columns: <a_i, a_b^v> and <a_i, a_a^v - a_c^v>."""
            row = cartan[i]
            return [row[b] for b in black] + [row[a] - row[c] for a, c in arrows]

        block = [coroots(b) for b in black] + [list(map(sub, coroots(a), coroots(c))) for a, c in arrows]
        if block:
            nums, det = int_solve(block, [rhs[b] for b in black] + [rhs[a] - rhs[c] for a, c in arrows])
        else:
            nums, det = (), 1

        # det times the coroot part of the solution, on the nodes: sum_b y_b a_b^v +
        # sum_(a, c) z_ac (a_a^v - a_c^v); row i pairs it through C[i]
        coroot_part = [0] * rs.rank
        for b, y in zip(black, nums):
            coroot_part[b] = y
        for (a, c), z in zip(arrows, nums[len(black) :]):
            coroot_part[a] += z
            coroot_part[c] -= z
        # det * x_i for each white node; an arrow's second node shares its first's value
        partner = {c: a for a, c in arrows}
        values = {i: det * rhs[i] - sum(map(mul, cartan[i], coroot_part)) for i in sd.white if i not in partner}
        for c, a in partner.items():
            values[c] = values[a]
        den = 2 * det if self.restricted.highest_mult == 1 else det
        numerators = tuple(map(values.get, range(rs.rank), repeat(0)))
        if any(map(den.__rmod__, numerators)):
            return CorootSystemSolution(None, numerators, den)
        return CorootSystemSolution(WeightedDynkinDiagram(rs.simple_type, tuple(x // den for x in numerators)), numerators, den)

    @cached
    def min_g_dim(self) -> int:
        return orbit_dim_from_wdd(self.sd.rs, self.min_g_wdd)

    @cached
    def parity(self) -> bool:
        return parity_criterion(self.restricted)

    @cached
    def orbit_count(self) -> int:
        """Number of minimal real nilpotent orbits (equivalently, minimal
        nilpotent K_C-orbits in p_C): one when dim g_lambda >= 2 or some
        restricted root pairs oddly against lambda, two otherwise."""
        return 1 if self.restricted.highest_mult >= 2 or self.parity else 2

    @cached
    def hermitian(self) -> bool:
        """Hermitian symmetric real form: dim g_lambda = 1 and restricted type C/BC."""
        rrs = self.restricted
        return rrs.highest_mult == 1 and is_C_or_BC(rrs)

    @cached
    def conditions(self) -> EquivalenceConditions:
        sd = self.sd
        rs = sd.rs
        return EquivalenceConditions(
            c_i=self.min_g_wdd != self.min_wdd,
            # the minimal orbit is the one nonzero orbit of dimension 2h^v - 2
            c_ii=self.min_g_dim != 2 * rs.dual_coxeter - 2,
            c_iv=self.restricted.highest_mult >= 2,
            # tau* phi is the last of the images the involution's checks kept
            c_v=self.involution.root_images[-1] != rs.positive_keys[-1],
            c_vi=not self.min_meets,
            c_vii=black_extended_criterion(sd),
            c_xii=in_five_families(sd.descriptor),
        )

    @cached
    def report(self) -> OrbitReport:
        sd = self.sd
        self.involution  # validates the entry before we trust its data
        report = OrbitReport(
            descriptor=sd.descriptor,
            min_wdd=self.min_wdd,
            min_meets=self.min_meets,
            min_g_wdd=self.min_g_wdd,
            min_g_dim=self.min_g_dim,
            g_lambda_dim=self.restricted.highest_mult,
            minimal_real_orbit_count=self.orbit_count,
            hermitian=self.hermitian,
            conditions=self.conditions,
        )
        if report.min_meets and report.min_g_wdd != report.min_wdd:
            raise InconsistentDiagram(f"{sd.name}: orbit meets the real form but diagrams differ")
        if (report.minimal_real_orbit_count == 2) != report.hermitian:
            count = report.minimal_real_orbit_count
            raise InconsistentDiagram(f"{sd.name}: orbit count {count} vs hermitian {report.hermitian}")
        return report


def kept_analysis(sd: SatakeDiagram) -> FormAnalysis:
    """The one analysis of `sd` its readers share, built on the first call
    and kept in the private slot `SatakeDiagram._analysis`, since an
    assignment onto it would reach every later report of the diagram."""
    # FormAnalysis refuses a value that is no diagram by name
    if not isinstance(sd, SatakeDiagram) or sd._analysis is None:
        sd._analysis = FormAnalysis(sd)
    return sd._analysis


@lru_cache(maxsize=256)
def satake_involution(sd: SatakeDiagram) -> SatakeInvolution:
    """theta* for a diagram, read from its kept analysis.  If any invariant
    fails, raises InconsistentDiagram carrying the failures."""
    return kept_analysis(sd).involution


@lru_cache(maxsize=256)
def restricted_root_system(sd: SatakeDiagram) -> RestrictedRootSystem:
    """Restricted roots {r(alpha)} \\ {0} with mult(xi) = #{alpha : r(alpha) = xi},
    read from the diagram's kept analysis."""
    return kept_analysis(sd).restricted


def validate_satake(sd: SatakeDiagram) -> ValidationReport:
    """Every structural and involution check, with all failures, run once
    through the diagram's kept analysis."""
    return kept_analysis(sd).validate()


def _fresh_analysis(sd: SatakeDiagram) -> FormAnalysis:
    """A new analysis of `sd` given the involution and restriction of the one
    the diagram keeps, so it recomputes the orbit-layer values only."""
    kept = kept_analysis(sd)
    analysis = FormAnalysis(sd)
    analysis.involution = kept.involution
    analysis.restricted = kept.restricted
    return analysis


def min_g_wdd_direct(sd: SatakeDiagram) -> WeightedDynkinDiagram:
    """Weighted diagram of the smallest orbit meeting the real form."""
    return _fresh_analysis(sd).min_g_wdd


def min_g_wdd_linear_system(sd: SatakeDiagram) -> WeightedDynkinDiagram:
    """Same diagram as min_g_wdd_direct, through the linear-system route;
    NonIntegralWeights when that route's weights are not integers."""
    solution = _fresh_analysis(sd).coroot_solution
    if solution.wdd is None:
        raise NonIntegralWeights(f"{sd.name}: linear system gives {ratio_text(solution.numerators, solution.denominator)}")
    return solution.wdd


def equivalence_conditions(sd: SatakeDiagram) -> EquivalenceConditions:
    """The seven booleans, each computed by its own route."""
    return _fresh_analysis(sd).conditions


def orbit_report(sd: SatakeDiagram) -> OrbitReport:
    """Aggregate every computed quantity for one diagram, computed once per
    diagram and read from the analysis it keeps on later calls."""
    # a kept analysis is one attribute read away; an empty slot's None has no
    # `report`, and an AttributeError raised building a report is raised again
    try:
        return sd._analysis.report
    except AttributeError:
        return kept_analysis(sd).report


# ---------------------------------------------------------------------------
# serialization (consumed by the CLI; field names match OrbitReport verbatim)

# the commonly drawn E6 labeling runs along the chain and puts the branch
# node last; drawn_order[k] = Bourbaki index of drawn node alpha_{k+1}
DRAWN_NODE_ORDERS = {
    "E6": (0, 2, 3, 4, 5, 1),
    "F4": (0, 1, 2, 3),
}


def _drawn_labels(wdd: WeightedDynkinDiagram) -> dict[str, int] | None:
    order = DRAWN_NODE_ORDERS.get(wdd.simple_type.name)
    if order is None:
        return None
    return {f"alpha{k + 1}": wdd.weights[idx] for k, idx in enumerate(order)}


def report_to_dict(report: OrbitReport) -> dict:
    """The report as the dict `describe --format json` prints.

    The report keeps that dict (`OrbitReport._printed`), built on its first
    call; each call returns a copy in which every container is new, the
    weight lists, `conditions` and `paper_labels` with its two inner dicts
    included, so a caller may change the result freely."""
    data = report._printed.copy()
    data["min_wdd"] = data["min_wdd"][:]
    data["min_g_wdd"] = data["min_g_wdd"][:]
    data["conditions"] = data["conditions"].copy()
    labels = data.get("paper_labels")
    if labels is not None:
        data["paper_labels"] = {"min_wdd": labels["min_wdd"].copy(), "min_g_wdd": labels["min_g_wdd"].copy()}
    return data


def _field(data: dict, key: str, kind: type, where: str = ""):
    """data[key], which must exist and be of type kind; never coerced."""
    name = where + key
    if key not in data:
        raise InvalidReport(f"report field {name!r} is missing")
    value = data[key]
    # bool is a subclass of int, so an int field must reject True and False
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InvalidReport(f"report field {name!r} must be {kind.__name__}, got {type(value).__name__} {value!r}")
    return value


def _int_field(data: dict, key: str, low: int, high: float = float("inf")) -> int:
    value = _field(data, key, int)
    if not low <= value <= high:
        raise InvalidReport(f"report field {key!r} must be from {low} to {high}, got {value}")
    return value


def _weights_field(data: dict, key: str, simple_type: SimpleType) -> WeightedDynkinDiagram:
    values = _field(data, key, list)
    if len(values) != simple_type.rank:
        raise InvalidReport(f"report field {key!r} has {len(values)} weights, {simple_type.name} has {simple_type.rank} nodes")
    for value in values:
        if type(value) is not int or value not in (0, 1, 2):
            raise InvalidReport(f"report field {key!r} must hold int weights 0, 1 or 2, got {type(value).__name__} {value!r}")
    return WeightedDynkinDiagram(simple_type, tuple(values))


def _known_keys(data: dict, known, where: str = "") -> None:
    """Refuse a key of `data` that no report holds."""
    for key in data:
        if key not in known:
            raise InvalidReport(f"report field {where + str(key)!r} is held by no report")


def _labels_field(data: dict, min_wdd: WeightedDynkinDiagram, min_g_wdd: WeightedDynkinDiagram) -> None:
    """The derived `paper_labels`, when present, must be the drawn labels of
    the two weight lists, label for label."""
    if "paper_labels" not in data:
        return
    labels = _field(data, "paper_labels", dict)
    if _drawn_labels(min_wdd) is None:
        drawn_types = " and ".join(DRAWN_NODE_ORDERS)
        raise InvalidReport(f"report field 'paper_labels' is held by {drawn_types} reports only, not {min_wdd.simple_type.name}")
    _known_keys(labels, ("min_wdd", "min_g_wdd"), "paper_labels.")
    for key, wdd in (("min_wdd", min_wdd), ("min_g_wdd", min_g_wdd)):
        where = f"paper_labels.{key}."
        given = _field(labels, key, dict, "paper_labels.")
        drawn = _drawn_labels(wdd)
        _known_keys(given, drawn, where)
        for label, weight in drawn.items():
            if _field(given, label, int, where) != weight:
                raise InvalidReport(f"report field {where + label!r} must be {weight}, the drawn label of {key!r}, got {given[label]}")


def report_from_dict(data: dict) -> OrbitReport:
    """Inverse of report_to_dict.  Every field is checked, not coerced: a
    missing field, a key no report holds, a value of the wrong type or a
    value no report can hold (a weight outside {0,1,2}, an orbit count other
    than 1 or 2, a dimension below 1) raises InvalidReport naming it.  So do
    a `paper_labels` that is not the drawn labels of the two weight lists,
    and a report that breaks an invariant every report keeps: `min_meets`
    exactly when the two diagrams agree (a report raises on `min_meets` with
    differing diagrams, and `verify`'s battery holds conditions (i) and (vi)
    to each other), and an orbit count of 2 exactly for a Hermitian form."""
    if not isinstance(data, dict):
        raise InvalidReport(f"report must be an object, got {type(data).__name__}")
    _known_keys(data, (*OrbitReport._fields, "paper_labels"))
    descriptor = parse_form_name(_field(data, "descriptor", str))
    simple_type = build_satake(descriptor).rs.simple_type
    conditions = _field(data, "conditions", dict)
    _known_keys(conditions, CONDITION_FIELDS, "conditions.")
    report = OrbitReport(
        descriptor=descriptor,
        min_wdd=_weights_field(data, "min_wdd", simple_type),
        min_meets=_field(data, "min_meets", bool),
        min_g_wdd=_weights_field(data, "min_g_wdd", simple_type),
        min_g_dim=_int_field(data, "min_g_dim", 1),
        g_lambda_dim=_int_field(data, "g_lambda_dim", 1),
        minimal_real_orbit_count=_int_field(data, "minimal_real_orbit_count", 1, 2),
        hermitian=_field(data, "hermitian", bool),
        conditions=EquivalenceConditions(**{f: _field(conditions, f, bool, "conditions.") for f in CONDITION_FIELDS}),
    )
    _labels_field(data, report.min_wdd, report.min_g_wdd)
    if report.min_meets != (report.min_g_wdd == report.min_wdd):
        agree = "agree" if report.min_g_wdd == report.min_wdd else "differ"
        raise InvalidReport(f"report field 'min_meets' is {report.min_meets}, but 'min_wdd' and 'min_g_wdd' {agree}")
    count, hermitian = report.minimal_real_orbit_count, report.hermitian
    if (count == 2) != hermitian:
        message = f"is {count}, but 'hermitian' is {hermitian}: the count is 2 exactly for a Hermitian form"
        raise InvalidReport(f"report field 'minimal_real_orbit_count' {message}")
    return report
