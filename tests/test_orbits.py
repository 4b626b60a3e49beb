import json
from fractions import Fraction

import pytest

from lieorbits.errors import InvalidReport, LieOrbitsError, OutOfRangeParams, TypeMismatch
from lieorbits.orbits import (
    CONDITION_FIELDS,
    FormAnalysis,
    black_extended_criterion,
    equivalence_conditions,
    min_g_wdd_direct,
    min_g_wdd_linear_system,
    orbit_report,
    report_from_dict,
    report_to_dict,
    wdd_matches_satake,
)
from lieorbits.rootsys import SimpleType, WeightedDynkinDiagram, min_orbit_wdd
from lieorbits.satake import build_satake, catalog, parse_form_name


def form(name):
    return build_satake(parse_form_name(name))


def analysis(name):
    return FormAnalysis(form(name))


def wdd(letter, rank, weights):
    return WeightedDynkinDiagram(SimpleType(letter, rank), tuple(weights))


def white_values(fa):
    """The coroot system's match unknowns, one per white arrow class: the
    class's weight, doubled when dim g_lambda = 1."""
    sd, solution = fa.sd, fa.coroot_solution
    scale = 2 if fa.restricted.highest_mult == 1 else 1
    arrowed = {k for pair in sd.arrows for k in pair}
    reps = {min(pair) for pair in sd.arrows} | (set(sd.white) - arrowed)
    return {r: Fraction(scale * solution.numerators[r], solution.denominator) for r in sorted(reps)}


def test_match_split_always():
    sd = form("sl(4,R)")
    assert wdd_matches_satake(wdd("A", 3, (2, 0, 2)), sd)
    assert wdd_matches_satake(wdd("A", 3, (1, 1, 1)), sd)


def test_match_black_weight_fails():
    assert not wdd_matches_satake(wdd("A", 3, (1, 0, 1)), form("su*(4)"))


def test_match_arrow_pair():
    sd = form("su(1,2)")
    assert wdd_matches_satake(wdd("A", 2, (1, 1)), sd)
    assert not wdd_matches_satake(wdd("A", 2, (1, 0)), sd)


def test_match_type_mismatch():
    with pytest.raises(TypeMismatch):
        wdd_matches_satake(wdd("A", 2, (1, 1)), form("su*(4)"))


def test_min_meets_examples():
    assert analysis("sl(5,R)").min_meets
    assert not analysis("su*(4)").min_meets
    assert not analysis("su*(8)").min_meets
    assert analysis("su(2,3)").min_meets


def test_black_extended_criterion_examples():
    assert black_extended_criterion(form("su*(4)"))
    assert not black_extended_criterion(form("sl(5,R)"))
    assert black_extended_criterion(form("f4(-20)"))
    assert not black_extended_criterion(form("sl(2,R)"))
    assert not black_extended_criterion(form("e6(-14)"))
    assert black_extended_criterion(form("so(1,8)"))


def test_min_g_wdd_direct_examples():
    assert min_g_wdd_direct(form("e6(-26)")).as_ints() == (1, 0, 0, 0, 0, 1)
    assert min_g_wdd_direct(form("sp(1,2)")).as_ints() == (0, 1, 0)
    assert min_g_wdd_direct(form("sp(2,3)")).as_ints() == (0, 1, 0, 0, 0)
    assert min_g_wdd_direct(form("sl(4,R)")).as_ints() == (1, 0, 1)
    assert min_g_wdd_direct(form("sl(4,R)")) == min_orbit_wdd(form("sl(4,R)").rs)


def test_min_g_wdd_linear_system_examples():
    assert min_g_wdd_linear_system(form("e6(-26)")).as_ints() == (1, 0, 0, 0, 0, 1)
    assert min_g_wdd_linear_system(form("f4(-20)")).as_ints() == (0, 0, 0, 1)
    assert min_g_wdd_linear_system(form("su*(6)")).as_ints() == (0, 1, 0, 1, 0)


def test_e6_m26_white_unknowns_solve_to_one():
    assert white_values(analysis("e6(-26)")) == {0: Fraction(1), 5: Fraction(1)}


def test_min_g_dimension_families():
    for k in range(2, 5):
        assert analysis(f"su*({2 * k})").min_g_dim == 8 * k - 8
    for n in range(5, 10):
        assert analysis(f"so(1,{n - 1})").min_g_dim == 2 * n - 4
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        assert analysis(f"sp({p},{q})").min_g_dim == 4 * (p + q) - 2


def test_count_examples():
    assert analysis("sp(1,2)").orbit_count == 1
    assert analysis("su(1,2)").orbit_count == 2
    assert analysis("sl(3,R)").orbit_count == 1
    assert analysis("sl(2,R)").orbit_count == 2
    assert analysis("so(2,7)").orbit_count == 2
    assert analysis("e7(-25)").orbit_count == 2
    assert analysis("e7(-5)").orbit_count == 1


def test_conditions_examples():
    assert equivalence_conditions(form("su*(4)")).values() == (True,) * 7
    assert equivalence_conditions(form("sl(5,R)")).values() == (False,) * 7
    assert equivalence_conditions(form("e6(-26)")).values() == (True,) * 7


def test_conditions_agree_over_catalog():
    for sd in catalog(6):
        assert equivalence_conditions(sd).all_agree, sd.name


def test_orbit_report_f4():
    report = orbit_report(form("f4(-20)"))
    assert report.min_g_wdd.as_ints() == (0, 0, 0, 1)
    assert report.min_g_dim == 22
    assert report.g_lambda_dim == 7
    assert report.minimal_real_orbit_count == 1
    assert not report.hermitian
    assert report.conditions.values() == (True,) * 7
    assert not report.min_meets


def test_orbit_report_su12():
    report = orbit_report(form("su(1,2)"))
    assert report.min_meets
    assert report.min_g_wdd == report.min_wdd
    assert report.minimal_real_orbit_count == 2
    assert report.hermitian
    assert report.conditions.values() == (False,) * 7


def test_orbit_report_sl2r():
    report = orbit_report(form("sl(2,R)"))
    assert report.min_wdd.as_ints() == (2,)
    assert report.min_meets
    assert report.minimal_real_orbit_count == 2
    assert report.hermitian


def test_report_json_roundtrip():
    for name in ["f4(-20)", "su(1,2)", "e6(-26)", "so(3,5)", "sl(2,R)"]:
        report = orbit_report(form(name))
        data = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(data) == report
        assert data["descriptor"] == name
        assert all(isinstance(x, int) for x in data["min_g_wdd"])
        assert set(data["conditions"]) == set(CONDITION_FIELDS)


def test_report_paper_labels_e6():
    data = report_to_dict(orbit_report(form("e6(-26)")))
    labels = data["paper_labels"]
    # the drawn labeling puts the branch node last: weight 1 on alpha6 for the
    # minimal orbit, and 1 on both chain ends for the meeting orbit
    assert labels["min_wdd"] == {"alpha1": 0, "alpha2": 0, "alpha3": 0, "alpha4": 0, "alpha5": 0, "alpha6": 1}
    assert labels["min_g_wdd"] == {"alpha1": 1, "alpha2": 0, "alpha3": 0, "alpha4": 0, "alpha5": 1, "alpha6": 0}
    assert "paper_labels" not in report_to_dict(orbit_report(form("sl(3,R)")))


def containers(data):
    """Every mutable container of a `report_to_dict` result, by path."""
    found = {
        "": data,
        "min_wdd": data["min_wdd"],
        "min_g_wdd": data["min_g_wdd"],
        "conditions": data["conditions"],
    }
    if "paper_labels" in data:
        labels = found["paper_labels"] = data["paper_labels"]
        found["paper_labels.min_wdd"] = labels["min_wdd"]
        found["paper_labels.min_g_wdd"] = labels["min_g_wdd"]
    return found


def copy_contract_reports():
    """The 141 reports of rank <= 8, and one rebuilt from its dict."""
    reports = [orbit_report(sd) for sd in catalog(8)]
    original = orbit_report(form("e6(-14)"))
    rebuilt = report_from_dict(report_to_dict(original))
    # a rebuilt report is equal, but keeps a printed dict of its own
    assert rebuilt == original and rebuilt is not original and "_printed" not in vars(rebuilt)
    assert report_to_dict(rebuilt) == report_to_dict(original)
    assert vars(rebuilt)["_printed"] is not vars(original)["_printed"]
    return reports + [rebuilt]


def test_each_report_to_dict_call_returns_new_containers():
    reports = copy_contract_reports()
    assert len(reports) == 142
    labelled = 0
    for report in reports:
        first, second = report_to_dict(report), report_to_dict(report)
        assert first == second, report.descriptor
        mine, theirs = containers(first), containers(second)
        assert mine.keys() == theirs.keys()
        assert {id(c) for c in mine.values()}.isdisjoint(map(id, theirs.values())), report.descriptor
        labelled += "paper_labels" in first
    # e6(6), e6(2), e6(-14), e6(-26), f4(4), f4(-20) and the rebuilt e6(-14)
    assert labelled == 7


def test_changing_a_result_leaves_the_next_call_unchanged():
    for report in copy_contract_reports():
        text = json.dumps(report_to_dict(report), indent=2)
        for container in containers(report_to_dict(report)).values():
            if isinstance(container, list):
                container[0] = 5
                container.append(3)
            else:
                container.clear()
                container["changed"] = True
        assert json.dumps(report_to_dict(report), indent=2) == text, report.descriptor


def test_a_replaced_report_prints_its_own_fields():
    report = orbit_report(form("su(2,3)"))
    printed = report_to_dict(report)
    flipped = report._replace(hermitian=not report.hermitian)
    assert report_to_dict(flipped) == {**printed, "hermitian": not report.hermitian}
    assert report_to_dict(report) == printed


ISOMORPHIC_PAIRS = [
    ("sp(1,1)", "so(1,4)"),
    ("sp(2,R)", "so(2,3)"),
    ("so*(8)", "so(2,6)"),
    ("su*(4)", "so(1,5)"),
    ("su(2,2)", "so(2,4)"),
    ("sl(4,R)", "so(3,3)"),
    ("so*(6)", "su(1,3)"),
    ("sl(2,R)", "su(1,1)"),
]


def node_order_free(name):
    report = orbit_report(form(name))
    return {
        "meets": report.min_meets,
        "dimension": report.min_g_dim,
        "g_lambda_dim": report.g_lambda_dim,
        "orbit_count": report.minimal_real_orbit_count,
        "hermitian": report.hermitian,
        "conditions": report.conditions.values(),
        "min_weights": sorted(report.min_wdd.as_ints()),
        "meeting_weights": sorted(report.min_g_wdd.as_ints()),
    }


@pytest.mark.parametrize("left,right", ISOMORPHIC_PAIRS)
def test_isomorphic_real_forms_give_the_same_report(left, right):
    assert node_order_free(left) == node_order_free(right)


def report_data(name="su(1,2)"):
    return json.loads(json.dumps(report_to_dict(orbit_report(form(name)))))


@pytest.mark.parametrize(
    "field,value",
    [
        ("min_meets", "false"),
        ("min_meets", 0),
        ("hermitian", None),
        ("min_g_dim", 6.0),
        ("min_g_dim", "6"),
        ("g_lambda_dim", True),
        ("minimal_real_orbit_count", [2]),
        ("descriptor", 7),
        ("conditions", []),
        ("min_wdd", "1 1"),
    ],
)
def test_report_from_dict_rejects_wrong_types(field, value):
    data = report_data()
    data[field] = value
    with pytest.raises(InvalidReport, match=field):
        report_from_dict(data)


@pytest.mark.parametrize(
    "field,value",
    [
        ("min_wdd", [0, 3]),
        ("min_g_wdd", [5, -1]),
        ("minimal_real_orbit_count", 7),
        ("minimal_real_orbit_count", 0),
        ("min_g_dim", -4),
        ("g_lambda_dim", 0),
    ],
)
def test_report_from_dict_rejects_values_no_report_holds(field, value):
    data = report_data()
    data[field] = value
    with pytest.raises(InvalidReport, match=field):
        report_from_dict(data)


def test_report_from_dict_rejects_bad_nested_values():
    data = report_data()
    data["conditions"]["c_iv"] = 1
    with pytest.raises(InvalidReport, match=r"conditions\.c_iv"):
        report_from_dict(data)
    data = report_data()
    data["min_g_wdd"] = [1, 1.0]
    with pytest.raises(InvalidReport, match="min_g_wdd"):
        report_from_dict(data)
    data = report_data()
    data["min_wdd"] = [1, 1, 0]
    with pytest.raises(InvalidReport, match="min_wdd"):
        report_from_dict(data)


def test_report_from_dict_rejects_missing_fields():
    for field in ["descriptor", "hermitian", "conditions"]:
        data = report_data()
        del data[field]
        with pytest.raises(InvalidReport, match=field):
            report_from_dict(data)
    data = report_data()
    del data["conditions"]["c_xii"]
    with pytest.raises(InvalidReport, match=r"conditions\.c_xii"):
        report_from_dict(data)
    with pytest.raises(InvalidReport):
        report_from_dict([report_data()])
    assert issubclass(InvalidReport, LieOrbitsError)


def test_report_from_dict_rejects_keys_no_report_holds():
    data = report_data()
    data["bogus"] = 1
    with pytest.raises(InvalidReport, match="'bogus' is held by no report"):
        report_from_dict(data)
    data = report_data()
    data["conditions"]["c_iii"] = False
    with pytest.raises(InvalidReport, match=r"'conditions\.c_iii' is held by no report"):
        report_from_dict(data)
    data = report_data("e6(-14)")
    data["paper_labels"]["min_wdd"]["alpha7"] = 0
    with pytest.raises(InvalidReport, match=r"'paper_labels\.min_wdd\.alpha7' is held by no report"):
        report_from_dict(data)


def test_report_from_dict_rejects_labels_that_are_not_the_drawn_ones():
    data = report_data("e6(-14)")
    data["paper_labels"]["min_wdd"]["alpha1"] = 2
    with pytest.raises(InvalidReport, match=r"'paper_labels\.min_wdd\.alpha1' must be 0"):
        report_from_dict(data)
    data = report_data("f4(-20)")
    data["paper_labels"]["min_g_wdd"]["alpha4"] = True
    with pytest.raises(InvalidReport, match=r"'paper_labels\.min_g_wdd\.alpha4' must be int"):
        report_from_dict(data)
    data = report_data("f4(-20)")
    del data["paper_labels"]["min_g_wdd"]
    with pytest.raises(InvalidReport, match=r"'paper_labels\.min_g_wdd' is missing"):
        report_from_dict(data)
    # a type with no drawn labelling has no labels
    data = report_data("sl(3,R)")
    data["paper_labels"] = {"min_wdd": {}, "min_g_wdd": {}}
    with pytest.raises(InvalidReport, match="'paper_labels' is held by E6 and F4 reports only, not A2"):
        report_from_dict(data)
    # the labels are derived, so a report without them still loads
    data = report_data("e6(-14)")
    del data["paper_labels"]
    assert report_from_dict(data) == orbit_report(form("e6(-14)"))


@pytest.mark.parametrize("name", ["e6(-14)", "e6(-26)", "sl(3,R)", "su(1,2)"])
def test_report_from_dict_rejects_a_flipped_min_meets(name):
    data = report_data(name)
    meets = data["min_meets"]
    assert meets == (data["min_wdd"] == data["min_g_wdd"])
    data["min_meets"] = not meets
    agree = "agree" if meets else "differ"
    with pytest.raises(InvalidReport, match=f"'min_meets' is {not meets}, but 'min_wdd' and 'min_g_wdd' {agree}"):
        report_from_dict(data)


@pytest.mark.parametrize("name", ["e6(-14)", "sl(2,R)", "so(3,5)", "f4(-20)"])
def test_report_from_dict_rejects_a_count_that_breaks_the_hermitian_rule(name):
    for field, flip in (("hermitian", lambda v: not v), ("minimal_real_orbit_count", lambda v: 3 - v)):
        data = report_data(name)
        assert (data["minimal_real_orbit_count"] == 2) == data["hermitian"]
        data[field] = flip(data[field])
        with pytest.raises(InvalidReport, match="'minimal_real_orbit_count' is [12], but 'hermitian' is"):
            report_from_dict(data)


def test_every_catalog_report_loads():
    for sd in catalog(8):
        report = orbit_report(sd)
        assert report_from_dict(report_data(sd.name)) == report, sd.name


def test_report_from_dict_refuses_an_over_long_descriptor():
    data = report_data()
    data["descriptor"] = f"sl({'9' * 5000},R)"
    with pytest.raises(OutOfRangeParams, match="MAX_RANK"):
        report_from_dict(data)
