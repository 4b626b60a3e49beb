"""Integer weighted diagrams against the `Fraction` code they replaced.

The references below are copies, kept here, of the diagram code as it was
written on `fractions.Fraction` weights: the minimal orbit's diagram
2<a_i, phi>/<phi, phi>, the direct diagram 4<a_i, 2 lambda>/<2 lambda,
2 lambda> with its {0,1,2} test, the coroot system's weights (the match
values over the determinant, halved when dim g_lambda = 1) and the dual
Coxeter number.  The integer code must give equal exact values on every
catalog entry up to rank 16 and on doctored analyses, refuse the same
diagrams, and build no `Fraction` on the report path.

The coroot system is solved by its black and arrow block; a copy of the
dense n x n solve it replaced must give the same (wdd, numerators,
denominator) wherever the references are compared, six rank-64 forms
included, and a split form, whose block is empty, solves nothing.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from lieorbits import cli, orbits, restricted, rootsys, satake, verify
from lieorbits.errors import InconsistentDiagram, InvalidType, NonIntegralWeights
from lieorbits.orbits import FormAnalysis, orbit_report, report_from_dict, report_to_dict
from lieorbits.ratmat import int_solve
from lieorbits.rootsys import SimpleType, WeightedDynkinDiagram, build_root_system, dual_coxeter_number, min_orbit_wdd
from lieorbits.satake import build_satake, catalog, parse_form_name

ENTRIES = catalog(16)
NORTH_STAR = ["e8(8)", "e8(-24)", "sl(25,R)", "su(12,13)"]
RANK_64 = ["so(1,128)", "so*(128)", "su(32,32)", "sl(64,R)", "sp(64,R)", "so(64,64)"]


def form(name):
    return build_satake(parse_form_name(name))


# --- the Fraction references -------------------------------------------------


def ref_min_orbit_wdd(rs):
    phi = rs.highest
    pairs = rs.simple_pairings(phi)
    norm = sum(map(mul, phi, pairs))
    return tuple(Fraction(2 * p, norm) for p in pairs)


def ref_min_g_wdd(analysis):
    """The direct weights, or the InconsistentDiagram the old code raised."""
    sd = analysis.sd
    lam = analysis.restricted.doubled_highest
    pairs = sd.rs.simple_pairings(lam)
    norm = sum(map(mul, lam, pairs))
    weights = tuple(Fraction(4 * p, norm) for p in pairs)
    if any(w.denominator != 1 or w not in (0, 1, 2) for w in weights):
        raise InconsistentDiagram(f"{sd.name}: weights {shown(weights)} outside {{0,1,2}}")
    return weights


def dense_rows(analysis):
    """The coroot system whole, as it was solved before the blocks: n x n
    integer rows over the class, black and arrow unknowns, the class
    representatives and each white node's representative."""
    sd = analysis.sd
    rs = sd.rs
    n = rs.rank
    cartan = rs.cartan
    class_rep = {w: w for w in sd.white}
    for i, j in sd.arrows:
        class_rep[i] = class_rep[j] = min(i, j)
    reps = sorted(set(class_rep.values()))
    columns = [("class", r) for r in reps] + [("black", b) for b in sorted(sd.black)]
    columns += [("arrow", i, j) for i, j in sd.arrows]

    def entry(i, col):
        if col[0] == "class":
            return int(class_rep.get(i) == col[1])
        if col[0] == "black":
            return cartan[i][col[1]]
        return cartan[i][col[1]] - cartan[i][col[2]]

    return [[entry(i, col) for col in columns] for i in range(n)], reps, class_rep


def ref_coroot_weights(analysis):
    sd = analysis.sd
    rows, reps, class_rep = dense_rows(analysis)
    nums, det = int_solve(rows, [2 * t for t in analysis.min_wdd.weights])
    white_values = {reps[k]: Fraction(nums[k], det) for k in range(len(reps))}
    halve = analysis.restricted.highest_mult == 1
    weights = []
    for i in range(sd.rs.rank):
        if i in sd.black:
            weights.append(Fraction(0))
        else:
            value = white_values[class_rep[i]]
            weights.append(value / 2 if halve else value)
    return tuple(weights)


def dense_coroot_solution(analysis):
    """(wdd, numerators, denominator) from one dense Bareiss solve of all n
    unknowns, as `FormAnalysis.coroot_solution` computed them before it
    solved the black and arrow block alone."""
    sd = analysis.sd
    rows, reps, class_rep = dense_rows(analysis)
    nums, det = int_solve(rows, [2 * t for t in analysis.min_wdd.weights])
    values = dict(zip(reps, nums))
    den = 2 * det if analysis.restricted.highest_mult == 1 else det
    numerators = tuple(0 if i in sd.black else values[class_rep[i]] for i in range(sd.rs.rank))
    if any(x % den for x in numerators):
        return None, numerators, den
    return WeightedDynkinDiagram(sd.rs.simple_type, tuple(x // den for x in numerators)), numerators, den


def ref_dual_coxeter_number(rs):
    g = rs.scaled_gram
    return 1 + Fraction(sum(c * g[i][i] for i, c in enumerate(rs.highest)), 2 * rs.gram_scale)


def shown(weights):
    """Fraction weights as the messages print them: the numerators over
    their least common denominator, which is left out when it is 1."""
    den = lcm(*(w.denominator for w in weights))
    nums = tuple(int(w * den) for w in weights)
    return f"{nums}" if den == 1 else f"{nums}/{den}"


# --- the comparison ----------------------------------------------------------


def compare(analysis):
    """Assert the integer values equal the references; return whether the
    direct diagram was refused and whether the coroot weights are integral."""
    rs = analysis.sd.rs
    wdd = min_orbit_wdd(rs)
    assert wdd.weights == ref_min_orbit_wdd(rs)
    assert all(type(w) is int for w in wdd.weights)
    h = dual_coxeter_number(rs)
    assert type(h) is int and h == ref_dual_coxeter_number(rs)

    try:
        expected = ref_min_g_wdd(analysis)
    except InconsistentDiagram as exc:
        with pytest.raises(InconsistentDiagram) as raised:
            analysis.min_g_wdd
        assert str(raised.value) == str(exc)
        refused = True
    else:
        assert analysis.min_g_wdd.weights == expected
        assert all(type(w) is int for w in analysis.min_g_wdd.weights)
        refused = False

    weights = ref_coroot_weights(analysis)
    solution = analysis.coroot_solution
    assert tuple(solution) == dense_coroot_solution(analysis)
    assert tuple(Fraction(x, solution.denominator) for x in solution.numerators) == weights
    integral = all(w.denominator == 1 for w in weights)
    if integral:
        assert solution.wdd.weights == weights
        assert all(type(w) is int for w in solution.wdd.weights)
    else:
        assert solution.wdd is None
    return refused, integral


@pytest.mark.parametrize("sd", ENTRIES + [form(name) for name in RANK_64], ids=lambda sd: sd.name)
def test_integer_diagrams_match_the_fraction_code(sd):
    assert compare(FormAnalysis(sd)) == (False, True)


def with_mult_toggled(sd):
    """An analysis of `sd` claiming dim g_lambda = 1 where it is more, and 2
    where it is 1."""
    analysis = FormAnalysis(sd)
    rrs = analysis.restricted
    analysis.restricted = rrs._replace(highest_mult=1 if rrs.highest_mult > 1 else 2)
    return analysis


def doctored(sd):
    """Analyses of `sd` whose restricted system or minimal diagram is
    doctored, so that the direct diagram is refused or the coroot weights
    leave the integers."""
    rrs = FormAnalysis(sd).restricted
    n = sd.rs.rank
    toggled = 1 if rrs.highest_mult > 1 else 2
    yield with_mult_toggled(sd)
    # the doubled highest root replaced by a simple root, by twice it, by
    # 2a1 + 3a2, whose weights are fractions between 0 and 2 in A2, and by the
    # first restricted simple root, with dim g_lambda kept or toggled
    lams = [(1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1), rrs.doubled_simple[0]]
    for lam in lams + ([(2, 3) + (0,) * (n - 2)] if n > 1 else []):
        for mult in (rrs.highest_mult, toggled):
            analysis = FormAnalysis(sd)
            analysis.restricted = rrs._replace(doubled_highest=lam, highest_mult=mult)
            yield analysis
    # a minimal diagram with weight 1 on every node, and one with weight 1 on
    # the first node only, which no arrow fixes, so the arrow unknowns of the
    # coroot system are not 0
    for weights in ((1,) * n, (1,) + (0,) * (n - 1)):
        analysis = FormAnalysis(sd)
        analysis.min_wdd = WeightedDynkinDiagram(sd.rs.simple_type, weights)
        yield analysis


def test_doctored_analyses_match_the_fraction_code():
    outcomes = set()
    for sd in catalog(7):
        for analysis in doctored(sd):
            outcomes.add(compare(analysis))
    # every combination of refused and non-integral is reached
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}


@pytest.mark.parametrize("name", ["sl(9,R)", "e8(8)", "sp(8,R)", "so(8,9)", "g2(2)"])
def test_a_split_form_needs_no_solve(monkeypatch, name):
    sd = form(name)
    assert not sd.black and not sd.arrows
    solves = []
    monkeypatch.setattr(orbits, "int_solve", lambda *args: solves.append(args))
    analysis = FormAnalysis(sd)
    assert tuple(analysis.coroot_solution) == dense_coroot_solution(analysis)
    assert analysis.coroot_solution.denominator in (1, 2) and solves == []


def test_twice_a_simple_root_as_lambda_is_refused_with_int_weights():
    analysis = FormAnalysis(form("sl(3,R)"))
    analysis.restricted = analysis.restricted._replace(doubled_highest=(2, 0))
    assert compare(analysis) == (True, True)
    with pytest.raises(InconsistentDiagram, match=r"sl\(3,R\): weights \(2, -1\) outside \{0,1,2\}"):
        analysis.min_g_wdd


def test_fractional_weights_between_zero_and_two_are_refused():
    # 4<a_i, lam>/<lam, lam> = (2/7, 8/7) on lam = 2a1 + 3a2, whose floors lie in {0,1,2}
    analysis = FormAnalysis(form("sl(3,R)"))
    analysis.restricted = analysis.restricted._replace(doubled_highest=(2, 3))
    assert compare(analysis)[0]
    with pytest.raises(InconsistentDiagram, match=r"sl\(3,R\): weights \(2, 8\)/7 outside \{0,1,2\}"):
        analysis.min_g_wdd


def test_non_integral_coroot_weights_are_reported_as_two_methods():
    fired = 0
    for sd in catalog(7):
        analysis = with_mult_toggled(sd)
        if analysis.coroot_solution.wdd is not None:
            continue
        fired += 1
        failures = verify.check_orbit_entry(analysis)
        checks = [f.check for f in failures]
        assert "orbit.two-methods" in checks and "orbit.construction" not in checks, sd.name
        message = next(f.message for f in failures if f.check == "orbit.two-methods")
        assert message == f"direct {analysis.min_g_wdd.weights} != linear system {shown(ref_coroot_weights(analysis))}"
    assert fired >= 15


def test_the_linear_system_route_refuses_non_integral_weights():
    # a copy of the diagram keeps an analysis of its own, which stands the
    # doctored restriction in for the one it would build
    sd = form("e6(-26)")._replace()
    sd._analysis.restricted = with_mult_toggled(sd).restricted
    with pytest.raises(NonIntegralWeights, match=r"e6\(-26\): linear system gives \(1, 0, 0, 0, 0, 1\)/2"):
        orbits.min_g_wdd_linear_system(sd)


def test_a_non_integral_minimal_diagram_or_dual_coxeter_number_is_refused():
    # a doctored highest root that is no root: 2a1 in A2, the short a1 in G2
    a2 = build_root_system(SimpleType("A", 2))._replace(highest=(2, 0))
    assert ref_min_orbit_wdd(a2) == (1, Fraction(-1, 2))
    with pytest.raises(NonIntegralWeights, match="A2"):
        min_orbit_wdd(a2)
    g2 = build_root_system(SimpleType("G", 2))._replace(highest=(1, 0))
    assert ref_dual_coxeter_number(g2) == Fraction(4, 3)
    with pytest.raises(InvalidType, match="G2"):
        dual_coxeter_number(g2)


# --- the diagram type --------------------------------------------------------


@pytest.mark.parametrize("weight", [Fraction(1), Fraction(1, 2), 1.0, True, False], ids=repr)
def test_a_diagram_refuses_weights_that_are_not_ints(weight):
    with pytest.raises(NonIntegralWeights):
        WeightedDynkinDiagram(SimpleType("A", 2), (1, weight))
    with pytest.raises(NonIntegralWeights):
        WeightedDynkinDiagram(SimpleType("A", 1), (weight,))


def test_a_diagram_keeps_int_weights():
    wdd = WeightedDynkinDiagram(SimpleType("A", 3), (1, 0, 1))
    assert wdd.weights == wdd.as_ints() == (1, 0, 1)
    assert wdd == WeightedDynkinDiagram(SimpleType("A", 3), (1, 0, 1))


# --- serialization -----------------------------------------------------------


def test_every_report_round_trips_through_json():
    for sd in catalog(12):
        report = orbit_report(sd)
        assert report_from_dict(json.loads(json.dumps(report_to_dict(report)))) == report, sd.name


# --- no Fraction on the report path -----------------------------------------


@pytest.fixture
def fraction_count(monkeypatch):
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return count


def test_the_fraction_counter_counts(fraction_count):
    Fraction(1, 2) + Fraction(1, 3)
    assert fraction_count[0] >= 3


def test_a_warm_report_builds_no_fraction(fraction_count):
    entries = catalog(8)
    for sd in entries:
        report_to_dict(orbit_report(sd))
    fraction_count[0] = 0
    for sd in entries:
        report_to_dict(orbit_report(sd))
    assert fraction_count[0] == 0


@pytest.mark.parametrize("name", NORTH_STAR)
def test_a_cold_describe_json_builds_no_fraction(fraction_count, name):
    for cached in (rootsys.read_cartan_type, rootsys._build_cached):
        cached.cache_clear()
    satake.satake_involution.cache_clear()
    restricted.restricted_root_system.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["describe", name, "--format", "json"]) == 0
    assert json.loads(out.getvalue())["descriptor"] == name
    assert fraction_count[0] == 0
