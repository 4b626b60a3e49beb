import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from lieorbits import satake
from lieorbits.errors import FormNameError, InconsistentDiagram, InvalidType, LieOrbitsError, OutOfRangeParams
from lieorbits.orbits import orbit_report, restricted_root_system, satake_involution, validate_satake
from lieorbits.rootsys import SimpleType, build_root_system
from lieorbits.satake import (
    MAX_RANK,
    RealFormDescriptor,
    SatakeInvolution,
    build_satake,
    catalog,
    parse_form_name,
)
from lieorbits.verify import ENTRY_CHECKS, check_satake_entry, run_verification


def form(name):
    return build_satake(parse_form_name(name))


def test_parse_grammar_roundtrip():
    names = [
        "sl(5,R)", "su*(6)", "su(2,3)", "so(3,8)", "so*(10)", "sp(4,R)", "sp(2,3)",
        "g2(2)", "f4(4)", "f4(-20)", "e6(6)", "e6(2)", "e6(-14)", "e6(-26)",
        "e7(7)", "e7(-5)", "e7(-25)", "e8(8)", "e8(-24)",
    ]
    for name in names:
        assert parse_form_name(name).canonical_name == name
    # case-insensitive, and (p,q) normalizes to p <= q
    assert parse_form_name("SU*(4)").canonical_name == "su*(4)"
    assert parse_form_name("so(5,1)").canonical_name == "so(1,5)"
    assert parse_form_name("SP(3,R)").canonical_name == "sp(3,R)"
    # every catalog name parses back, in capitals, to its descriptor, and the
    # complex rank read off the parameters is the rank of the built diagram
    entries = catalog(16)
    assert len(entries) == 469
    for sd in entries:
        assert parse_form_name(sd.name.upper()) == sd.descriptor, sd.name
        assert satake.complex_rank(sd.descriptor) == sd.rs.rank, sd.name


def test_parse_rejects_garbage():
    for bad in ["sl(3)", "so(2;3)", "su**(4)", "e9(9)", "sp()", "sl(3, R)", "frobnicate", "su(1,2,3)", "su(3,R)"]:
        with pytest.raises((FormNameError, OutOfRangeParams)):
            parse_form_name(bad)
    messages = {
        "su*(5)": (OutOfRangeParams, "su*(m) needs even m, got 5"),
        "so*(5)": (OutOfRangeParams, "so*(m) needs even m, got 5"),
        "su(1,2,3)": (FormNameError, "cannot parse real-form name 'su(1,2,3)'"),
        "su(3,R)": (FormNameError, "cannot parse real-form name 'su(3,R)'"),
        "sl({},R)": (FormNameError, "cannot parse real-form name 'sl({},R)'"),
    }
    for bad, (error, message) in messages.items():
        with pytest.raises(error) as exc:
            parse_form_name(bad)
        assert str(exc.value) == message, bad


def test_bounds_rejected():
    for bad in ["sl(1,R)", "su*(2)", "su*(5)", "su(0,3)", "so(1,3)", "so(2,2)", "so(1,1)", "so*(4)", "sp(0,R)"]:
        with pytest.raises(OutOfRangeParams):
            build_satake(parse_form_name(bad))


def test_split_forms_all_white():
    for name in ["sl(4,R)", "sp(3,R)", "g2(2)", "f4(4)", "e6(6)", "e7(7)", "e8(8)"]:
        sd = form(name)
        assert not sd.black and not sd.arrows


def test_catalog_entry_patterns():
    sd = form("su*(4)")
    assert sd.rs.simple_type.name == "A3" and sd.black == {0, 2} and not sd.arrows

    sd = form("su(1,2)")
    assert sd.rs.simple_type.name == "A2" and not sd.black and sd.arrows == ((0, 1),)

    sd = form("sp(1,1)")
    assert sd.rs.simple_type.name == "C2" and sd.black == {0} and not sd.arrows

    sd = form("f4(-20)")
    assert sd.rs.simple_type.name == "F4" and sd.black == {0, 1, 2}

    # chain a1-a3-a4-a5-a6 with a2 on the branch: black everywhere except the ends
    sd = form("e6(-26)")
    assert sd.rs.simple_type.name == "E6" and sd.black == {1, 2, 3, 4} and not sd.arrows

    sd = form("su(2,5)")
    assert sd.black == {2, 3} and sd.arrows == ((0, 5), (1, 4))

    sd = form("so(3,5)")
    assert sd.rs.simple_type.name == "D4" and not sd.black and sd.arrows == ((2, 3),)

    sd = form("so(2,8)")
    assert sd.rs.simple_type.name == "D5" and sd.black == {2, 3, 4} and not sd.arrows

    sd = form("so(1,6)")
    assert sd.rs.simple_type.name == "B3" and sd.black == {1, 2}

    sd = form("so*(8)")
    assert sd.rs.simple_type.name == "D4" and sd.black == {0, 2} and not sd.arrows

    sd = form("so*(10)")
    assert sd.black == {0, 2} and sd.arrows == ((3, 4),)

    sd = form("e6(2)")
    assert not sd.black and sd.arrows == ((0, 5), (2, 4))

    sd = form("e6(-14)")
    assert sd.black == {2, 3, 4} and sd.arrows == ((0, 5),)

    sd = form("e7(-5)")
    assert sd.black == {1, 4, 6}

    sd = form("e7(-25)")
    assert sd.black == {1, 2, 3, 4}

    sd = form("e8(-24)")
    assert sd.black == {1, 2, 3, 4}


def test_low_rank_isomorphic_images():
    # D3 entries are cataloged through A3
    assert form("so(1,5)").black == {0, 2}
    assert form("so(2,4)").arrows == ((0, 2),)
    sd = form("so(3,3)")
    assert not sd.black and not sd.arrows
    assert form("so*(6)").black == {1} and form("so*(6)").arrows == ((0, 2),)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))) for i in range(len(a)))


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def theta_matrix(inv):
    """theta* as rows of Fractions, read off the integer columns."""
    n = len(inv.columns)
    return tuple(tuple(Fraction(inv.columns[j][i]) for j in range(n)) for i in range(n))


def test_involution_split_is_minus_identity():
    inv = satake_involution(form("sl(5,R)"))
    assert theta_matrix(inv) == tuple(tuple(-x for x in row) for row in identity(4))
    assert all(inv.tau_image(e) == e for e in identity(4))


def test_involution_su_star4():
    inv = satake_involution(form("su*(4)"))
    # theta* fixes the black ends and sends a2 to -(a1+a2+a3)
    assert inv.columns[0] == (1, 0, 0)
    assert inv.columns[2] == (0, 0, 1)
    assert inv.columns[1] == (-1, -1, -1)


def test_involution_su12_arrow_swap():
    inv = satake_involution(form("su(1,2)"))
    assert inv.columns[0] == (0, -1)
    assert inv.columns[1] == (-1, 0)
    assert inv.p_tilde == (1, 0)


def test_catalog_rank_bound_and_order():
    entries = catalog(8)
    assert all(sd.rs.rank <= 8 for sd in entries)
    names = [sd.name for sd in entries]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for expected in ["sl(2,R)", "su(1,1)", "sp(1,R)", "so(1,5)", "e8(-24)", "su(4,5)", "so(8,9)", "sp(4,4)"]:
        assert expected in names
    assert "so(1,2)" not in names
    assert "so(1,3)" not in names


def test_catalog_entries_all_validate():
    for sd in catalog(6):
        assert validate_satake(sd).ok, validate_satake(sd).failures


def test_catalog_names_reparse_to_same_entry():
    for sd in catalog(8):
        descriptor = parse_form_name(sd.name)
        assert descriptor == sd.descriptor
        assert build_satake(descriptor) == sd


def test_corrupted_black_set_fails_validation():
    sd = form("su*(4)")
    corrupted = sd._replace(black=frozenset({0, 1}))
    report = validate_satake(corrupted)
    assert not report.ok
    assert any(check == "involution.preserves-roots" for check, _ in report.failures)
    with pytest.raises(InconsistentDiagram):
        satake_involution(corrupted)


def test_self_arrow_fails_validation():
    sd = form("sl(3,R)")
    corrupted = sd._replace(arrows=((1, 1),))
    report = validate_satake(corrupted)
    assert not report.ok
    assert any("itself" in msg for _, msg in report.failures)


def test_arrow_touching_black_fails_validation():
    sd = form("su*(4)")
    corrupted = sd._replace(arrows=((0, 1),))
    report = validate_satake(corrupted)
    assert not report.ok


def test_black_longest_element_matches_weyl_word_route():
    # independent oracle: enumerate the Weyl group of the black subsystem by
    # closure over simple reflections, pick the element sending every black
    # positive root to a negative, and compare with the eigenspace-formula
    # w0 recovered from theta* (theta* = -w0 o p~)
    for name in ["su*(6)", "f4(-20)", "e6(-26)", "so(2,8)", "so(1,6)", "e7(-25)", "sp(1,2)"]:
        sd = form(name)
        rs = sd.rs
        n = rs.rank
        blacks = sorted(sd.black)
        if not blacks:
            continue

        def reflection(b):
            return tuple(tuple(int(i == j) - (rs.cartan[j][b] if i == b else 0) for j in range(n)) for i in range(n))

        generators = [reflection(b) for b in blacks]
        group = {identity(n)}
        frontier = list(group)
        while frontier:
            new = []
            for w in frontier:
                for g in generators:
                    wg = mat_mul(w, g)
                    if wg not in group:
                        group.add(wg)
                        new.append(wg)
            frontier = new

        black_positive = [r for r in rs.positive_roots if all(r[i] == 0 for i in range(n) if i not in sd.black)]

        def sends_all_negative(w):
            return all(sum(mat_vec(w, r)) < 0 for r in black_positive)

        longest = [w for w in group if sends_all_negative(w)]
        assert len(longest) == 1, name

        inv = satake_involution(sd)
        p = inv.p_tilde
        theta = theta_matrix(inv)
        recovered = tuple(tuple(-theta[i][p[j]] for j in range(n)) for i in range(n))
        assert recovered == longest[0], name


def test_hermitian_metadata():
    expected_true = ["su(1,1)", "su(2,3)", "so(2,5)", "so(2,4)", "sp(3,R)", "sp(1,R)", "so*(8)", "e6(-14)", "e7(-25)", "sl(2,R)"]
    expected_false = ["sl(3,R)", "su*(4)", "so(1,4)", "sp(1,2)", "f4(-20)", "e6(-26)", "g2(2)", "e8(8)"]
    for name in expected_true:
        assert form(name).hermitian_expected, name
    for name in expected_false:
        assert not form(name).hermitian_expected, name


def test_involution_checked_once_per_entry(monkeypatch):
    checked = Counter()
    original = satake._involution_failures

    def counting(sd, inv):
        checked[sd.name] += 1
        return original(sd, inv)

    monkeypatch.setattr(satake, "_involution_failures", counting)
    satake_involution.cache_clear()
    result = run_verification(max_rank=5)
    assert result.ok
    assert sorted(checked) == sorted(sd.name for sd in catalog(5))
    assert set(checked.values()) == {1}


def test_hand_made_bad_involutions_fail_by_name():
    sd = form("sl(3,R)")
    # A2 positives in rs.roots order: (0, 1), (1, 0), (1, 1)
    not_involutive = SatakeInvolution(((-1, 0), (1, -1)), (0, 1))
    assert satake._involution_failures(sd, not_involutive)[:2] == [
        ("involution.theta-squared", "theta* squared is not the identity"),
        ("involution.preserves-roots", "theta* does not preserve the root set (e.g. (0, 1))"),
    ]


def test_involution_integer_columns_match_views():
    for sd in catalog(6):
        inv = satake_involution(sd)
        n = sd.rs.rank
        theta = tuple(tuple(inv.columns[j][i] for j in range(n)) for i in range(n))
        assert theta_matrix(inv) == theta, sd.name
        tau = tuple(tuple(-x for x in row) for row in theta)
        for root in sd.rs.roots:
            assert inv.tau_image(root) == mat_vec(tau, root), sd.name


def test_rank_cap_fails_fast():
    huge = "9" * 5000  # past the 4300 digits int() reads
    big = ["sl(100000,R)", "so(3,100000)", "su(100000,100000)", "su*(200000)", "sp(100000,R)"]
    for name in big + [f"sl({huge},R)", f"su*({huge})"]:
        start = time.perf_counter()
        with pytest.raises(OutOfRangeParams, match="MAX_RANK"):
            build_satake(parse_form_name(name))
        assert time.perf_counter() - start < 1, name
    with pytest.raises(OutOfRangeParams, match="MAX_RANK"):
        catalog(MAX_RANK + 1)
    # leading zeros are not significant digits
    assert parse_form_name(f"su({'0' * 5000}2,03)") == parse_form_name("su(2,3)")
    # per classical family, the largest complex rank up to the cap builds,
    # to a diagram of that rank, and the next one is refused (su*(2k) has
    # odd ranks only)
    edges = [
        (("sl_R", (65,)), ("sl_R", (66,))),
        (("su_star", (32,)), ("su_star", (33,))),
        (("su_pq", (32, 33)), ("su_pq", (33, 33))),
        (("so_pq", (64, 65)), ("so_pq", (65, 65))),
        (("sp_R", (64,)), ("sp_R", (65,))),
        (("sp_pq", (32, 32)), ("sp_pq", (32, 33))),
        (("so_star", (64,)), ("so_star", (65,))),
    ]
    for last, first_over in edges:
        last, first_over = RealFormDescriptor(*last), RealFormDescriptor(*first_over)
        assert satake.complex_rank(last) == build_satake(last).rs.rank == MAX_RANK - (last.family == "su_star"), last
        assert satake.complex_rank(first_over) == MAX_RANK + 1, first_over
        with pytest.raises(OutOfRangeParams, match="MAX_RANK"):
            build_satake(first_over)
        for d in (last, first_over):
            assert parse_form_name(d.canonical_name.upper()) == d


# --- names and diagrams are cached; an error never is -----------------------


def test_equal_descriptors_give_the_same_diagram():
    sd = form("E8(-24)")
    assert form(" e8(-24) ") is sd
    assert build_satake(RealFormDescriptor("e8_m24", ())) is sd
    # (p,q) normalizes to p <= q before the diagram cache is read
    assert form("SU(5,2)") is form("su(2,5)") is build_satake(RealFormDescriptor("su_pq", (2, 5)))
    # each spelling is parsed once
    assert parse_form_name("E8(-24)") is parse_form_name("E8(-24)")
    info = parse_form_name.cache_info()
    assert (info.hits, info.misses) == (2, 4)


@pytest.mark.parametrize("params", [(True, 2), (1.0, 2), (1, 2.0)], ids=["bool", "float", "second-float"])
def test_a_parameter_that_is_not_an_int_is_refused(params):
    # True and 1.0 hash as 1 does: without the check su(True,2) would be
    # served su(1,2)'s diagram
    sound = form("su(1,2)")
    for _ in range(2):
        with pytest.raises(OutOfRangeParams, match="must be ints"):
            build_satake(RealFormDescriptor("su_pq", params))
    assert build_satake(RealFormDescriptor("su_pq", (1, 2))) is sound
    assert satake._cached_satake.cache_info().currsize == 1


MALFORMED = [
    (("sl_R", (3, 4)), "needs 1 parameter"),
    (("su_pq", (3,)), "needs 2 parameter"),
    (("g2_2", (1,)), "needs 0 parameter"),
    (("sl_R", 3), "must be a tuple"),
    (("sl_R", [3]), "must be a tuple"),
]


@pytest.mark.parametrize("fields, message", MALFORMED, ids=repr)
def test_a_malformed_descriptor_is_refused_by_name(fields, message):
    # the count is checked before any parameter is unpacked, so no bare
    # ValueError or IndexError escapes and g2(2) keeps its one diagram
    for _ in range(2):
        with pytest.raises(OutOfRangeParams, match=message):
            build_satake(RealFormDescriptor(*fields))
    assert satake._cached_satake.cache_info().currsize == 0
    g2 = build_satake(RealFormDescriptor("g2_2", ()))
    assert g2 is form("g2(2)") and g2.name == "g2(2)"
    assert satake._cached_satake.cache_info().currsize == 1


def test_a_refused_input_is_refused_again_and_never_kept():
    cases = [
        (parse_form_name, "sl(3)", FormNameError),
        (parse_form_name, "su*(5)", OutOfRangeParams),
        (build_satake, RealFormDescriptor("su_pq", (3, 2)), OutOfRangeParams),
        (build_satake, RealFormDescriptor("sl_R", (66,)), OutOfRangeParams),
    ]
    for call, arg, error in cases:
        messages = []
        for _ in range(2):
            with pytest.raises(error) as exc:
                call(arg)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], arg
    assert parse_form_name.cache_info().currsize == satake._cached_satake.cache_info().currsize == 0


@pytest.mark.parametrize("text", [None, 123, b"sl(2,R)", []], ids=["None", "int", "bytes", "list"])
def test_a_form_name_that_is_not_a_str_is_refused_by_name(text):
    # no bare AttributeError from str methods, and no TypeError from the LRU hashing a list
    with pytest.raises(FormNameError, match=f"is a str, got {type(text).__name__}$"):
        parse_form_name(text)
    assert parse_form_name.cache_info().currsize == 0


@pytest.mark.parametrize(
    "call, max_rank",
    [(catalog, "8"), (catalog, 8.0), (catalog, True), (run_verification, "8"), (run_verification, 2.5)],
    ids=["catalog-str", "catalog-float", "catalog-bool", "verify-str", "verify-float"],
)
def test_a_max_rank_that_is_not_an_int_is_refused_by_name(call, max_rank):
    with pytest.raises(OutOfRangeParams, match=f"needs an int max_rank, got {type(max_rank).__name__}"):
        call(max_rank=max_rank)


def test_an_evicted_name_is_parsed_again_to_an_equal_descriptor():
    first = parse_form_name("sl(3,R)")
    # 256 other names push it out; the parser reads no rank cap
    for n in range(4, 260):
        parse_form_name(f"sl({n},R)")
    info = parse_form_name.cache_info()
    assert (info.maxsize, info.currsize) == (256, 256)
    again = parse_form_name("sl(3,R)")
    assert again is not first and again == first
    assert form("sl(3,R)") is build_satake(first)


# --- the structural checks run once, inside the involution's build ---------


def test_a_structural_failure_is_raised_with_its_named_failures():
    bad = form("su(2,3)")._replace(black=frozenset({0}))
    with pytest.raises(InconsistentDiagram) as exc:
        satake_involution(bad)
    assert str(exc.value) == "su(2,3): arrow (0,3) touches a black node"
    assert exc.value.failures == (("structure.arrows", "arrow (0,3) touches a black node"),)
    assert validate_satake(bad).failures == exc.value.failures


def test_structural_checks_run_once_per_entry(monkeypatch):
    checked = Counter()
    original = satake._structural_failures

    def counting(sd):
        checked[sd.name] += 1
        return original(sd)

    monkeypatch.setattr(satake, "_structural_failures", counting)
    satake_involution.cache_clear()
    assert run_verification(max_rank=5).ok
    assert sorted(checked) == sorted(sd.name for sd in catalog(5))
    assert set(checked.values()) == {1}


# --- malformed diagram fields are refused by name at every entry point -----


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"black": frozenset({7})}, "black nodes [7] out of range for rank 4"),
        ({"arrows": ((0, 9),)}, "arrow (0,9) out of range for rank 4"),
    ],
    ids=["black-7", "arrow-0-9"],
)
def test_a_report_refuses_an_out_of_range_node_by_name(changes, message):
    # the report reads the involution first, so the structural failure comes
    # out before any weight is indexed by the bad node
    bad = form("so(4,4)")._replace(**changes)
    assert validate_satake(bad).failures == (("structure.arrows", message),)
    with pytest.raises(InconsistentDiagram) as exc:
        orbit_report(bad)
    assert exc.value.failures == (("structure.arrows", message),)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"black": (1, 2, 3)}, "black nodes (1, 2, 3) are not a frozenset of ints"),
        ({"black": "12"}, "black nodes '12' are not a frozenset of ints"),
        ({"black": frozenset({True})}, "black nodes frozenset({True}) are not a frozenset of ints"),
        ({"black": [1]}, "black nodes [1] are not a frozenset of ints"),
        ({"arrows": [[2, 3]]}, "arrows [[2, 3]] are not a tuple of int pairs"),
        ({"arrows": ((2, 3, 1),)}, "arrows ((2, 3, 1),) are not a tuple of int pairs"),
        ({"rs": None}, "root system None is not a RootSystem"),
        ({"rs": "rs"}, "root system 'rs' is not a RootSystem"),
    ],
    ids=["black-tuple", "black-str", "black-bool", "black-list", "arrows-list", "arrows-triple", "rs-none", "rs-str"],
)
def test_a_malformed_field_is_refused_by_name_at_every_entry_point(changes, message):
    bad = form("so(4,4)")._replace(**changes)
    structural = (("structure.arrows", message),)
    assert validate_satake(bad).failures == structural
    # the layer LRUs hash the diagram as its descriptor, so none of them
    # hashes the malformed field
    for entry_point in (orbit_report, satake_involution, restricted_root_system):
        with pytest.raises(InconsistentDiagram) as exc:
            entry_point(bad)
        assert exc.value.failures == structural, entry_point.__name__
    checks = [(f.entry, f.check) for check in ENTRY_CHECKS for f in check(bad)]
    result = run_verification(entries=[bad])
    assert checks == [(f.entry, f.check) for f in result.failures] == [
        ("so(4,4)", "structure.arrows"),
        ("so(4,4)", "restricted.construction"),
        ("so(4,4)", "orbit.construction"),
    ]
    assert check_satake_entry(bad)[0].message == result.failures[0].message == message


@pytest.mark.parametrize(
    "descriptor, name, message",
    [
        (
            RealFormDescriptor("so_pq", [4, 4]),
            "so(4,4)",
            "real-form parameters must be a tuple, got list [4, 4]",
        ),
        (None, "None", "a real form is named by a RealFormDescriptor, got NoneType None"),
        (RealFormDescriptor("xx", ()), "RealFormDescriptor(family='xx', params=())", "unknown real-form family 'xx'"),
        (RealFormDescriptor("so_pq", (4, 4, 4)), "so(4,4)", "real-form family 'so_pq' needs 2 parameter(s), got (4, 4, 4)"),
    ],
    ids=["params-list", "none", "family-xx", "arity"],
)
def test_a_malformed_descriptor_is_refused_by_name_at_every_entry_point(descriptor, name, message):
    bad = form("so(4,4)")._replace(descriptor=descriptor)
    structural = (("structure.descriptor", message),)
    assert validate_satake(bad) == (name, structural)
    for entry_point in (orbit_report, satake_involution, restricted_root_system):
        with pytest.raises(InconsistentDiagram) as exc:
            entry_point(bad)
        assert exc.value.failures == structural, entry_point.__name__
    assert [tuple(f) for f in run_verification(entries=[bad]).failures] == [
        (name, "structure.descriptor", message),
        (name, "restricted.construction", f"{name}: {message}"),
        (name, "orbit.construction", f"{name}: {message}"),
    ]
    with pytest.raises(LieOrbitsError, match=re.escape(message)):
        build_satake(descriptor)


def malformed_diagrams(seed: int, count: int):
    """`count` catalog diagrams, each with one to four of descriptor, black,
    arrows and rs replaced by a malformed value: no descriptor, a plain
    tuple, an unknown or unhashable family, parameters of the wrong
    container, type or count, a wrong container, bools, an out-of-range
    node, a self-arrow, two arrows sharing a node, no root system, or
    another type's root system; then, for each base diagram, six values
    that are no diagram: None, its name, an int, its fields as a plain
    tuple, its descriptor and its root system."""
    rng = random.Random(seed)
    bases = [form(name) for name in ("so(4,4)", "su(2,3)", "e6(-14)", "sp(1,2)", "g2(2)", "so*(10)", "f4(-20)")]
    others = [build_root_system(SimpleType(letter, rank)) for letter, rank in (("A", 4), ("B", 3), ("C", 4), ("D", 5))]

    def black(sd):
        n = sd.rs.rank
        wrong = [list(sd.black), tuple(sd.black), "01", frozenset({True}), frozenset({n}), frozenset({-1})]
        return rng.choice(wrong + [sd.black | {rng.randrange(n)}])

    def arrows(sd):
        n = sd.rs.rank
        i = rng.randrange(n)
        listed = [list(a) for a in sd.arrows]
        return rng.choice([listed, ((True, 1),), ((i, n),), ((i, i),), ((0, 1), (1, 2)), ((0, 1, 2),), "01"])

    def rs(sd):
        return rng.choice([None, "rs", sd.rs.simple_type, tuple(sd.rs), rng.choice(others)])

    def descriptor(sd):
        family, params = sd.descriptor
        wrong = [
            None,
            tuple(sd.descriptor),
            sd.name,
            RealFormDescriptor("xx", params),
            RealFormDescriptor([family], params),
            RealFormDescriptor(family, list(params)),
            RealFormDescriptor(family, params + (1,)),
            RealFormDescriptor(family, tuple(map(float, params))),
        ]
        return rng.choice(wrong)

    makers = {"descriptor": descriptor, "black": black, "arrows": arrows, "rs": rs}
    for _ in range(count):
        sd = rng.choice(bases)
        fields = rng.sample(sorted(makers), rng.randint(1, 4))
        yield sd._replace(**{field: makers[field](sd) for field in fields})
    for sd in bases:
        yield from (None, sd.name, len(sd.black), tuple(sd), sd.descriptor, sd.rs)


MALFORMED_ENTRY_POINTS = (
    # a value that is no diagram is given to build_satake itself
    lambda sd: build_satake(getattr(sd, "descriptor", sd)),
    validate_satake,
    satake_involution,
    restricted_root_system,
    orbit_report,
    lambda sd: run_verification(entries=[sd]),
    *ENTRY_CHECKS,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_entry_point_refuses_a_malformed_diagram_by_name(seed):
    # each call returns a value or raises the package's own error, never a bare one
    escaped = []
    calls = 0
    start = time.perf_counter()
    for sd in malformed_diagrams(seed, 150):
        for entry_point in MALFORMED_ENTRY_POINTS:
            calls += 1
            try:
                entry_point(sd)
            except LieOrbitsError:
                pass
            except Exception as exc:
                escaped.append((sd, type(exc).__name__, str(exc)))
    elapsed = time.perf_counter() - start
    assert escaped == []
    assert calls >= 1000 and elapsed < 1, (calls, elapsed)


NO_DIAGRAM = [
    (orbit_report, None, InconsistentDiagram, "a real form is given by a SatakeDiagram, got NoneType None"),
    (orbit_report, "sl(2,R)", InconsistentDiagram, "a real form is given by a SatakeDiagram, got str 'sl(2,R)'"),
    (validate_satake, None, InconsistentDiagram, "a real form is given by a SatakeDiagram, got NoneType None"),
    (lambda e: run_verification(entries=[e]), None, InconsistentDiagram, "verify takes SatakeDiagram entries, got NoneType None"),
    (lambda e: run_verification(entries=[e]), 1, InconsistentDiagram, "verify takes SatakeDiagram entries, got int 1"),
    (build_root_system, "A", InvalidType, "a root system is built from a SimpleType, got str 'A'"),
    (build_root_system, None, InvalidType, "a root system is built from a SimpleType, got NoneType None"),
]


@pytest.mark.parametrize(
    "call, value, error, message",
    NO_DIAGRAM,
    ids=["report-none", "report-name", "validate-none", "verify-none", "verify-int", "roots-letter", "roots-none"],
)
def test_a_value_that_is_no_diagram_is_refused_by_name(call, value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(value)
