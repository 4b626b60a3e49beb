"""The package's value records are named tuples.

Each record prints as the dataclass it replaced did, so every message keeps
its text; its fields cannot be assigned and have no defaults; no field
shadows a tuple method; the two validated records refuse bad values through the constructor and
through `_replace` alike; `RestrictedRootSystem` compares by identity; the
layer caches hit for an equal diagram that is a different object; and the
views a record keeps once read are no fields, so a `_replace` copy reads its own.
"""

from fractions import Fraction

import pytest

from lieorbits import restricted
from lieorbits.errors import InvalidType, NonIntegralWeights
from lieorbits.orbits import FormAnalysis
from lieorbits.restricted import restricted_root_system
from lieorbits.rootsys import SimpleType, build_root_system, min_orbit_wdd
from lieorbits.satake import build_satake, parse_form_name, satake_involution, validate_satake
from lieorbits.verify import Failure, run_verification


def form(name):
    return build_satake(parse_form_name(name))


def sample(name):
    """One small instance of each record."""
    sd = form("sl(2,R)")
    analysis = FormAnalysis(sd)
    make = {
        "SimpleType": lambda: SimpleType("A", 3),
        "RootSystem": lambda: build_root_system(SimpleType("A", 1)),
        "WeightedDynkinDiagram": lambda: min_orbit_wdd(build_root_system(SimpleType("A", 2))),
        "RealFormDescriptor": lambda: parse_form_name("su(1,2)"),
        "SatakeDiagram": lambda: sd,
        "SatakeInvolution": lambda: satake_involution(form("su(1,2)")),
        "ValidationReport": lambda: validate_satake(sd),
        "TypeLabel": lambda: restricted_root_system(form("su(2,3)")).type_label,
        "RestrictedRootSystem": lambda: restricted_root_system(sd),
        "EquivalenceConditions": lambda: analysis.conditions,
        "OrbitReport": lambda: analysis.report,
        "CorootSystemSolution": lambda: analysis.coroot_solution,
        "Failure": lambda: Failure("e6(2)", "orbit.two-methods", "x"),
        "VerificationResult": lambda: run_verification(entries=[sd]),
    }
    return make[name]()


A1 = "RootSystem(simple_type=SimpleType(letter='A', rank=1), cartan=((2,),), positive_keys=(1,), highest=(1,))"
SL2R = (
    "SatakeDiagram(descriptor=RealFormDescriptor(family='sl_R', params=(2,)), "
    f"rs={A1}, black=frozenset(), arrows=(), hermitian_expected=True)"
)
WDD_A1 = "WeightedDynkinDiagram(simple_type=SimpleType(letter='A', rank=1), weights=(2,))"
NO_CONDITION = "EquivalenceConditions(c_i=False, c_ii=False, c_iv=False, c_v=False, c_vi=False, c_vii=False, c_xii=False)"

# the text each record printed as a dataclass, in the fields it has now: a
# root system and a restricted one keep the positive half of their roots
DATACLASS_REPR = {
    "SimpleType": "SimpleType(letter='A', rank=3)",
    "RootSystem": A1,
    "WeightedDynkinDiagram": "WeightedDynkinDiagram(simple_type=SimpleType(letter='A', rank=2), weights=(1, 1))",
    "RealFormDescriptor": "RealFormDescriptor(family='su_pq', params=(1, 2))",
    "SatakeDiagram": SL2R,
    "SatakeInvolution": "SatakeInvolution(columns=((0, -1), (-1, 0)), p_tilde=(1, 0))",
    "ValidationReport": "ValidationReport(entry='sl(2,R)', failures=())",
    "TypeLabel": "TypeLabel(letter='BC', rank=2, reduced=False)",
    "RestrictedRootSystem": (
        f"RestrictedRootSystem(source={SL2R}, keys=Counter({{2: 1}}), doubled_simple=((2,),), "
        "doubled_highest=(2,), highest_mult=1, type_label=TypeLabel(letter='A', rank=1, reduced=True))"
    ),
    "EquivalenceConditions": NO_CONDITION,
    "OrbitReport": (
        "OrbitReport(descriptor=RealFormDescriptor(family='sl_R', params=(2,)), "
        f"min_wdd={WDD_A1}, min_meets=True, min_g_wdd={WDD_A1}, min_g_dim=2, g_lambda_dim=1, "
        f"minimal_real_orbit_count=2, hermitian=True, conditions={NO_CONDITION})"
    ),
    "CorootSystemSolution": f"CorootSystemSolution(wdd={WDD_A1}, numerators=(4,), denominator=2)",
    "Failure": "Failure(entry='e6(2)', check='orbit.two-methods', message='x')",
    "VerificationResult": "VerificationResult(entries=1, checks_run=4, failures=[])",
}
RECORDS = sorted(DATACLASS_REPR)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_text(name):
    record = sample(name)
    assert type(record).__name__ == name
    assert repr(record) == DATACLASS_REPR[name]


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = sample(name)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_the_tuple_of_its_fields(name):
    record = sample(name)
    # a field named like a tuple method (count, index) would hide it
    assert set(record._fields).isdisjoint(dir(tuple))
    assert tuple(record) == tuple(getattr(record, field) for field in record._fields)
    assert len(record) == len(record._fields)
    if name != "RestrictedRootSystem":
        assert record == tuple(record) and record._replace() == record


def test_restricted_root_system_equality_is_identity():
    rrs = restricted_root_system(form("su(2,3)"))
    copy = rrs._replace()
    assert rrs == rrs and not rrs != rrs
    assert copy != rrs and not copy == rrs
    assert rrs != tuple(rrs) and tuple(rrs) != rrs and not tuple(rrs) == rrs
    assert hash(rrs) == object.__hash__(rrs)
    assert len({rrs, copy}) == 2


def test_record_defaults():
    # no record has a default, so each refuses to be built without its last field
    for name in RECORDS:
        record = sample(name)
        assert type(record)._field_defaults == {}, name
        with pytest.raises(TypeError):
            type(record)(*record[:-1])


REFUSED = [
    ("SimpleType", {"letter": "Q"}, InvalidType),
    ("SimpleType", {"rank": 0}, InvalidType),
    ("SimpleType", {"letter": "E", "rank": 9}, InvalidType),
    ("WeightedDynkinDiagram", {"weights": (1,)}, ValueError),
    ("WeightedDynkinDiagram", {"weights": (Fraction(1), 1)}, NonIntegralWeights),
    ("WeightedDynkinDiagram", {"weights": (1.0, 1)}, NonIntegralWeights),
    ("WeightedDynkinDiagram", {"weights": (True, 1)}, NonIntegralWeights),
]


@pytest.mark.parametrize("name, changes, error", REFUSED)
def test_validated_records_refuse_bad_values(name, changes, error):
    good = sample(name)
    fields = {**good._asdict(), **changes}
    with pytest.raises(error):
        type(good)(**fields)
    with pytest.raises(error):
        good._replace(**changes)
    with pytest.raises(error):
        type(good)._make(fields.values())


@pytest.mark.parametrize("cached", [satake_involution, restricted_root_system])
def test_caches_hit_for_an_equal_diagram_object(cached):
    sd = form("su(3,4)")
    value = cached(sd)
    copy = sd._replace()
    assert copy == sd and copy is not sd and hash(copy) == hash(sd)
    before = cached.cache_info()
    assert cached(copy) is value
    after = cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_kept_views_are_read_off_the_fields_of_each_record():
    # SatakeDiagram.white and RestrictedRootSystem.reduced_simple are kept once
    # read, but are no fields: a `_replace` copy reads its own, and a read
    # changes no repr, hash or equality
    sd = form("su(2,5)")
    # equal descriptors give the same diagram, so the unread copy is a `_replace`
    unread = sd._replace()
    white = sd.white
    assert sd.white is white == (0, 1, 4, 5)
    assert "white" not in sd._fields and "white" not in vars(unread)
    assert repr(sd) == repr(unread) and hash(sd) == hash(unread) and sd == unread
    assert sd._replace(black=sd.black | {0}).white == (1, 4, 5)

    rrs = restricted_root_system(form("su(2,3)"))
    rs = rrs.source.rs
    assert "reduced_simple" not in rrs._fields
    assert rrs.reduced_simple == restricted.reduced_simple(rs, rrs.keys, rrs.doubled_simple)
    assert len(rrs.reduced_simple) == 2 and rrs.reduced_simple != list(rrs.doubled_simple)
    doctored = rrs._replace(doubled_simple=rrs.doubled_simple[::-1])
    assert doctored.reduced_simple == rrs.reduced_simple[::-1]
