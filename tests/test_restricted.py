from collections import Counter
from fractions import Fraction

import pytest
from test_column_kernels import decoded_doubled, decoded_positives

from lieorbits import verify
from lieorbits.errors import InconsistentDiagram
from lieorbits.orbits import FormAnalysis, orbit_report, restricted_root_system, satake_involution
from lieorbits.restricted import (
    RestrictedRootSystem,
    dominant_longest,
    is_C_or_BC,
    parity_criterion,
    positive_norms,
)
from lieorbits.satake import build_satake, catalog, parse_form_name


def form(name):
    return build_satake(parse_form_name(name))


def rrs(name):
    return restricted_root_system(form(name))


def F(a, b=1):
    return Fraction(a, b)


def doubled(sd, v):
    """2 r(v) = v + tau* v, the form every restricted root is stored in."""
    return tuple(a + b for a, b in zip(v, satake_involution(sd).tau_image(v)))


def as_vector(values):
    return tuple(map(Fraction, values))


def inner(rs, v, w) -> Fraction:
    """<v, w> from the integer multiple of the Gram form that the package keeps."""
    return Fraction(rs.scaled_inner(v, w)) / rs.gram_scale


def halved(v):
    return tuple(F(x, 2) for x in v)


def test_restrict_kills_black_and_fixes_split():
    sd = form("su*(4)")
    assert doubled(sd, (1, 0, 0)) == (0, 0, 0)
    assert (0, 0, 0) not in decoded_doubled(rrs("su*(4)"))
    split = form("sl(4,R)")
    assert doubled(split, (1, 2, 3)) == (2, 4, 6)
    assert rrs("sl(4,R)").doubled_simple == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_restrict_su12():
    sd = form("su(1,2)")
    assert halved(doubled(sd, (1, 0))) == (F(1, 2), F(1, 2))
    assert halved(doubled(sd, (0, 1))) == (F(1, 2), F(1, 2))
    assert rrs("su(1,2)").doubled_simple == ((1, 1),)


def test_restrict_linear_and_idempotent():
    import random

    rng = random.Random(7)
    for name in ["su*(6)", "so(2,6)", "e6(-14)", "f4(-20)"]:
        sd = form(name)
        n = sd.rs.rank
        for _ in range(5):
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            w = tuple(rng.randint(-4, 4) for _ in range(n))
            dv, dw = doubled(sd, v), doubled(sd, w)
            assert doubled(sd, dv) == tuple(2 * x for x in dv)
            assert doubled(sd, tuple(a + b for a, b in zip(v, w))) == tuple(a + b for a, b in zip(dv, dw))


def test_split_restriction_is_whole_system():
    r = rrs("sl(3,R)")
    assert r.type_label.name == "A2" and r.type_label.reduced
    assert all(m == 1 for m in r.signed.values())
    assert r.highest_mult == 1
    assert len(r.elements) == 6


A3_POSITIVE_ROOTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]


def test_su_star4_against_hand_built_involution():
    # independent oracle: theta* = -s1 s3 written out by hand, applied to the
    # twelve hand-listed roots of A3
    theta = [[1, -1, 0], [0, -1, 0], [0, -1, 1]]
    roots = [v for p in A3_POSITIVE_ROOTS for v in (p, tuple(-x for x in p))]
    counts = Counter()
    for root in roots:
        tau_image = tuple(-sum(x * y for x, y in zip(row, root)) for row in theta)
        image = tuple(a + b for a, b in zip(root, tau_image))
        if any(image):
            counts[image] += 1

    r = rrs("su*(4)")
    assert decoded_doubled(r) == dict(counts)
    assert r.type_label.name == "A1"
    assert r.highest_mult == 4
    lam = as_vector((F(1, 2), 1, F(1, 2)))
    assert halved(r.doubled_highest) == lam


def test_su12_brute_force():
    r = rrs("su(1,2)")
    xi = (F(1, 2), F(1, 2))
    two_xi = (F(1), F(1))
    by_root = {halved(d): m for d, m in decoded_doubled(r).items()}
    assert by_root == {xi: 2, tuple(-x for x in xi): 2, two_xi: 1, tuple(-x for x in two_xi): 1}
    assert r.type_label.name == "BC1" and not r.type_label.reduced
    assert halved(r.doubled_highest) == two_xi and r.highest_mult == 1


def test_f4_m20_structure():
    r = rrs("f4(-20)")
    assert r.type_label.name == "BC1"
    # BC1 shape: exactly {±xi, ±2xi} with multiplicities 8 and 7
    by_mult = sorted(r.signed.values())
    assert by_mult == [7, 7, 8, 8]
    xi = next(halved(d) for d, m in decoded_doubled(r).items() if m == 8 and sum(x > 0 for x in d))
    assert tuple(2 * x for x in xi) == halved(r.doubled_highest)
    assert r.highest_mult == 7


def test_classification_examples():
    assert rrs("sl(3,R)").type_label.name == "A2"
    assert rrs("sp(2,R)").type_label.name == "C2"
    assert rrs("so(2,3)").type_label.name == "B2"
    assert rrs("su(2,2)").type_label.name == "C2"
    assert rrs("so(2,5)").type_label.name == "B2"
    assert rrs("su*(6)").type_label.name == "A2"
    assert rrs("e6(2)").type_label.name == "F4"
    assert rrs("e6(-14)").type_label.name == "BC2"
    assert rrs("e6(-26)").type_label.name == "A2"
    assert rrs("e7(-5)").type_label.name == "F4"
    assert rrs("e7(-25)").type_label.name == "C3"
    assert rrs("e8(-24)").type_label.name == "F4"
    assert rrs("so(4,4)").type_label.name == "D4"
    assert rrs("so*(8)").type_label.name == "C2"
    assert rrs("so*(12)").type_label.name == "C3"
    assert rrs("so*(10)").type_label.name == "BC2"
    assert rrs("su(1,3)").type_label.name == "BC1"
    assert rrs("sp(1,1)").type_label.name == "A1"
    assert rrs("g2(2)").type_label.name == "G2"


def test_expected_multiplicity_tables():
    # spot checks against the standard restricted-root multiplicity tables
    def mult_multiset(name):
        return sorted(Counter(rrs(name).signed.values()).items())

    assert rrs("su*(6)").highest_mult == 4
    assert rrs("so(1,7)").highest_mult == 6
    assert rrs("sp(1,2)").highest_mult == 3
    assert rrs("e6(-14)").highest_mult == 1
    assert mult_multiset("e6(-26)") == [(8, 6)]
    assert mult_multiset("e6(2)") == [(1, 24), (2, 24)]
    assert mult_multiset("e7(-5)") == [(1, 24), (4, 24)]
    assert mult_multiset("e8(-24)") == [(1, 24), (8, 24)]
    assert mult_multiset("so(3,5)") == [(1, 12), (2, 6)]


def test_is_c_or_bc_convention():
    assert is_C_or_BC(rrs("su(1,2)"))
    assert not is_C_or_BC(rrs("sl(3,R)"))
    assert is_C_or_BC(rrs("sl(2,R)"))  # A1 counted as C1
    assert is_C_or_BC(rrs("so(2,3)"))  # B2 counted as C2
    assert is_C_or_BC(rrs("sp(3,R)"))
    assert not is_C_or_BC(rrs("so(3,4)"))


def test_parity_examples():
    assert parity_criterion(rrs("sl(3,R)"))
    assert not parity_criterion(rrs("sp(2,R)"))
    assert not parity_criterion(rrs("sl(2,R)"))


def test_parity_iff_not_c_bc_over_catalog():
    for sd in catalog(6):
        r = restricted_root_system(sd)
        assert parity_criterion(r) == (not is_C_or_BC(r)), sd.name


def test_hermitian_examples_and_catalog():
    assert orbit_report(form("su(1,2)")).hermitian
    assert not orbit_report(form("f4(-20)")).hermitian
    assert not orbit_report(form("sl(3,R)")).hermitian
    assert orbit_report(form("sl(2,R)")).hermitian
    for sd in catalog(6):
        assert orbit_report(sd).hermitian == sd.hermitian_expected, sd.name


def test_highest_root_two_routes_and_norms():
    for name in ["sl(5,R)", "su*(8)", "su(2,3)", "so(3,5)", "sp(2,2)", "so*(10)", "e6(-26)", "f4(-20)", "e7(-5)"]:
        sd = form(name)
        r = restricted_root_system(sd)
        assert dominant_longest(r, positive_norms(r)) == r.doubled_highest, name
        phi = as_vector(sd.rs.highest)
        lam = halved(r.doubled_highest)
        ratio = inner(sd.rs, phi, phi) / inner(sd.rs, lam, lam)
        assert ratio == (2 if r.highest_mult >= 2 else 1), name


def test_compact_style_diagram_rejected():
    sd = form("sl(2,R)")
    all_black = sd._replace(black=frozenset({0}))
    with pytest.raises(InconsistentDiagram):
        restricted_root_system(all_black)


def _restricted_failures(sd, doctored):
    """check_restricted_entry run on `doctored` in place of the real system."""
    analysis = FormAnalysis(sd)
    analysis.restricted = doctored
    return {f.check: f.message for f in verify.check_restricted_entry(analysis)}


def test_simple_two_routes_fires_on_a_non_simple_root():
    sd = form("sl(3,R)")
    r = restricted_root_system(sd)
    # a1 + a2 is a positive root but not a simple one
    doctored = r._replace(doubled_simple=((2, 0), (2, 2)))
    failures = _restricted_failures(sd, doctored)
    assert "restricted.simple-two-routes" in failures
    assert "(0, 2)" in failures["restricted.simple-two-routes"]


def test_parity_two_routes_fires_on_a_negated_parity():
    sd = form("so(3,5)")
    analysis = FormAnalysis(sd)
    analysis.parity = not parity_criterion(restricted_root_system(sd))
    failures = {f.check for f in verify.check_restricted_entry(analysis)}
    assert "restricted.parity-two-routes" in failures


class GivenPositives(RestrictedRootSystem):
    """A doctored system whose sorted keys are given, not read off its keys."""

    @property
    def sorted_keys(self):
        return self.given


def test_parity_two_routes_reports_a_non_integral_pairing():
    sd = form("sl(3,R)")
    r = restricted_root_system(sd)
    # 3 a1 / 2 pairs with the highest root a1 + a2 to 2/3; given ahead of
    # every true positive root, the scan over them meets it before any odd pairing
    doctored = GivenPositives(*r)
    doctored.given = (sd.rs.pack((3, 0)),) + r.sorted_keys
    assert next(iter(positive_norms(doctored))) == (3, 0)
    assert decoded_positives(doctored)[1:] == decoded_positives(r)
    failures = _restricted_failures(sd, doctored)
    assert failures["restricted.parity-two-routes"] == "non-integral pairing 2/3 in sl(3,R)"


@pytest.mark.parametrize("name", ["su(32,32)", "so(3,125)", "su*(64)", "sp(20,44)", "e8(-24)"])
def test_restricted_checks_pass_beyond_the_catalog(name):
    assert verify.check_restricted_entry(form(name)) == []
