"""One FormAnalysis per real form: each orbit-layer value computed once."""

import gc
import weakref
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import is_, mul

import pytest
from test_column_kernels import mutations

from lieorbits import orbits, restricted, rootsys, satake, verify
from lieorbits.errors import InconsistentDiagram
from lieorbits.orbits import (
    FormAnalysis,
    equivalence_conditions,
    in_five_families,
    kept_analysis,
    min_g_wdd_direct,
    min_g_wdd_linear_system,
    orbit_report,
)
from lieorbits.ratmat import int_solve
from lieorbits.satake import build_satake, catalog, parse_form_name
from lieorbits.verify import run_verification


def form(name):
    return build_satake(parse_form_name(name))


def _count_layers(monkeypatch) -> Counter:
    """Count every computation of the orbit layer, keyed on (layer, entry or type).

    The direct diagram and the coroot solve exist only as FormAnalysis
    properties, so those are wrapped; `min_orbit_wdd` and `parity_criterion`
    are wrapped in every module that calls them.  The root systems are built
    afresh, since each keeps its minimal diagram once computed.
    """
    rootsys._build_cached.cache_clear()
    counts: Counter = Counter()
    for prop in ("min_g_wdd", "coroot_solution"):
        original = getattr(FormAnalysis, prop).func

        def counting(self, original=original, prop=prop):
            counts[prop, self.sd.name] += 1
            return original(self)

        wrapped = cached_property(counting)
        wrapped.__set_name__(FormAnalysis, prop)
        monkeypatch.setattr(FormAnalysis, prop, wrapped)

    min_orbit_wdd = rootsys.min_orbit_wdd
    parity_criterion = restricted.parity_criterion

    def counting_min_orbit_wdd(rs):
        counts["min_orbit_wdd", rs.simple_type.name] += 1
        return min_orbit_wdd(rs)

    def counting_parity(rrs):
        counts["parity_criterion", rrs.source.name] += 1
        return parity_criterion(rrs)

    for module in (rootsys, restricted, orbits, verify):
        if hasattr(module, "min_orbit_wdd"):
            monkeypatch.setattr(module, "min_orbit_wdd", counting_min_orbit_wdd)
        if hasattr(module, "parity_criterion"):
            monkeypatch.setattr(module, "parity_criterion", counting_parity)
    return counts


def _count_builds(monkeypatch) -> Counter:
    """Count every build of an involution and of a restriction, keyed on
    (function, entry); an analysis calls both build functions by their names
    in `orbits`."""
    counts: Counter = Counter()
    for name in ("checked_involution", "build_restricted"):

        def counting(sd, *args, original=getattr(orbits, name), name=name):
            counts[name, sd.name] += 1
            return original(sd, *args)

        monkeypatch.setattr(orbits, name, counting)
    return counts


def test_orbit_layer_computed_once_per_entry_under_verify(monkeypatch):
    counts = _count_layers(monkeypatch)
    result = run_verification(max_rank=8)
    assert result.ok
    entries = catalog(8)
    for layer in ("min_g_wdd", "coroot_solution", "parity_criterion"):
        assert {name: n for (lay, name), n in counts.items() if lay == layer} == {sd.name: 1 for sd in entries}, layer
    # once per type, kept on the root system that the entries and check_root_system share
    assert {name: n for (lay, name), n in counts.items() if lay == "min_orbit_wdd"} == {
        sd.rs.simple_type.name: 1 for sd in entries
    }


def test_run_verification_keeps_no_analysis_on_any_catalog_diagram():
    # a sweep visits each entry once, so it keeps none of its analyses
    assert run_verification(max_rank=8).ok
    entries = catalog(8)
    assert all(map(is_, entries, catalog(8)))
    assert [sd.name for sd in entries if "_analysis" in vars(sd)] == []


class _Tag:
    """A weakly referenced stand-in for a built value, since a record, a
    tuple, takes no weak reference: tagged onto the value alone, it dies
    with it."""


def test_a_sweep_keeps_no_entry_s_involution_or_restriction(monkeypatch):
    # run_verification drops each entry's analysis after its three checks, so
    # once a sweep returns, nothing holds an involution or restriction it built
    tags = []
    for name in ("checked_involution", "build_restricted"):

        def tagging(sd, *args, original=getattr(orbits, name)):
            value = original(sd, *args)
            value._tag = tag = _Tag()
            tags.append(weakref.ref(tag))
            return value

        monkeypatch.setattr(orbits, name, tagging)
    for cached in (orbits.satake_involution, orbits.restricted_root_system):
        cached.cache_clear()
    sound = run_verification(max_rank=8)
    mutants = [mutant for sd in catalog(7)[::8] for mutant in mutations(sd)]
    doctored = run_verification(entries=mutants)
    assert sound.ok and not doctored.ok
    assert len(tags) > 2 * sound.entries
    gc.collect()
    assert [ref for ref in tags if ref() is not None] == []
    assert orbits.satake_involution.cache_info().currsize == 0
    assert orbits.restricted_root_system.cache_info().currsize == 0
    assert [sd.name for sd in catalog(8) + mutants if "_analysis" in vars(sd)] == []


def test_entry_checks_on_bare_diagrams_share_one_analysis_per_entry(monkeypatch):
    # the three checks given the same diagram in turn, as a caller outside
    # run_verification makes them, read the diagram's shared analysis
    counts = _count_layers(monkeypatch)
    entries = catalog(8)
    for sd in entries:
        assert verify.check_satake_entry(sd) == [], sd.name
        assert verify.check_restricted_entry(sd) == [], sd.name
        assert verify.check_orbit_entry(sd) == [], sd.name
    for layer in ("min_g_wdd", "coroot_solution", "parity_criterion"):
        assert {name: n for (lay, name), n in counts.items() if lay == layer} == {sd.name: 1 for sd in entries}, layer


def test_orbit_layer_computed_once_per_report(monkeypatch):
    counts = _count_layers(monkeypatch)
    graded: Counter = Counter()
    for sd in catalog(8):
        counts.clear()
        orbit_report(sd)
        # the minimal diagram once per type, by the type's first report
        graded[sd.rs.simple_type.name] += counts["min_orbit_wdd", sd.rs.simple_type.name]
        assert counts["min_g_wdd", sd.name] == 1, sd.name
        # the report needs no linear system, and the parity only when dim g_lambda = 1
        assert counts["coroot_solution", sd.name] == 0, sd.name
        assert counts["parity_criterion", sd.name] <= 1, sd.name
        assert set(counts.values()) <= {0, 1}, sd.name
    assert graded == {sd.rs.simple_type.name: 1 for sd in catalog(8)}


def test_each_layer_built_once_per_diagram_across_repeated_reports(monkeypatch):
    counts = _count_layers(monkeypatch)
    built = _count_builds(monkeypatch)
    entries = catalog(8)
    passes = [[orbit_report(sd) for sd in entries] for _ in range(3)]
    for reports in passes[1:]:
        assert all(map(is_, reports, passes[0]))
    # each diagram keeps the one analysis its three reports read
    assert all(kept_analysis(sd).report is report for sd, report in zip(entries, passes[0]))
    assert built == {(build, sd.name): 1 for build in ("checked_involution", "build_restricted") for sd in entries}
    per_type = {sd.rs.simple_type.name: 1 for sd in entries}
    assert {name: k for (lay, name), k in counts.items() if lay == "min_orbit_wdd"} == per_type
    assert {name: k for (lay, name), k in counts.items() if lay == "min_g_wdd"} == {sd.name: 1 for sd in entries}
    # the parity is read only when dim g_lambda = 1, and the linear system never
    assert {k for (lay, _), k in counts.items() if lay == "parity_criterion"} == {1}
    assert not [key for key in counts if key[0] == "coroot_solution"]


def test_the_route_wrappers_recompute_while_reports_hit_the_cache(monkeypatch):
    # perfbench's route gate reads these three as recomputations independent
    # of the analysis the report came from
    counts = _count_layers(monkeypatch)
    sd = form("e6(-26)")
    assert orbit_report(sd) is orbit_report(sd)
    assert (counts["min_g_wdd", sd.name], counts["coroot_solution", sd.name]) == (1, 0)
    for _ in range(2):
        min_g_wdd_direct(sd)
        min_g_wdd_linear_system(sd)
        equivalence_conditions(sd)
    # the direct diagram and the battery's c_i each read min_g_wdd of their own analysis
    assert (counts["min_g_wdd", sd.name], counts["coroot_solution", sd.name]) == (5, 2)
    orbit_report(sd)
    assert (counts["min_g_wdd", sd.name], counts["coroot_solution", sd.name]) == (5, 2)


def _count_verify_tables(monkeypatch) -> Counter:
    """Count every build of a table that only verify's checks read: the norm
    table of the restricted positive roots, which decodes them, and the
    `sorted_keys` view."""
    counts: Counter = Counter()
    positive_norms = restricted.positive_norms
    sort = restricted.RestrictedRootSystem.sorted_keys.func

    def counting_norms(rrs):
        counts["positive_norms"] += 1
        return positive_norms(rrs)

    def counting_sort(rrs):
        counts["sorted_keys"] += 1
        return sort(rrs)

    for module in (restricted, verify):
        monkeypatch.setattr(module, "positive_norms", counting_norms)
    view = cached_property(counting_sort)
    view.__set_name__(restricted.RestrictedRootSystem, "sorted_keys")
    monkeypatch.setattr(restricted.RestrictedRootSystem, "sorted_keys", view)
    return counts


def test_describe_path_builds_no_verify_table(monkeypatch):
    counts = _count_verify_tables(monkeypatch)
    orbits.restricted_root_system.cache_clear()
    for sd in catalog(8):
        orbit_report(sd)
    assert counts == Counter()
    # the counters do see verify: one norm table and one sort per entry
    entries = catalog(8)
    assert run_verification(max_rank=8).ok
    assert counts["positive_norms"] == len(entries)
    assert counts["sorted_keys"] == len(entries)


def test_verify_grades_each_type_once_and_decodes_each_key_once(monkeypatch):
    # the minimal orbit's dimension is graded once per type and each entry's
    # smallest meeting orbit once; each restricted key is decoded once per
    # entry, and each positive key of a root system once per type; each
    # entry's involution, built by the sweep, decodes w0 a_(p~ j) once per
    # white node j where there are black nodes, which is minus column j
    rootsys._build_cached.cache_clear()
    orbits.restricted_root_system.cache_clear()
    # the closure reads each highest root off its key, before the sweep
    entries = catalog(8)
    # the expected counts build analyses of their own, which decode and
    # grade, so they are built before the counters are in place
    types = {sd.rs.simple_type.name: sd.rs for sd in entries}
    analyses = [FormAnalysis(sd) for sd in entries]
    expected_graded = Counter((name, rootsys.min_orbit_wdd(rs).weights) for name, rs in types.items())
    expected_graded.update((a.sd.rs.simple_type.name, a.min_g_wdd.weights) for a in analyses)
    expected_decoded = Counter((name, key) for name, rs in types.items() for key in rs.positive_keys)
    expected_decoded.update((a.sd.rs.simple_type.name, key) for a in analyses for key in a.restricted.keys)
    expected_decoded.update(
        (a.sd.rs.simple_type.name, a.sd.rs.pack(tuple(-x for x in a.involution.columns[j])))
        for a in analyses
        if a.sd.black
        for j in a.sd.white
    )
    graded: Counter = Counter()
    decoded: Counter = Counter()
    orbit_dim, unpack = rootsys.orbit_dim_from_wdd, rootsys.RootSystem.unpack

    def counting_dim(rs, w):
        graded[rs.simple_type.name, w.weights] += 1
        return orbit_dim(rs, w)

    def counting_unpack(rs, key):
        decoded[rs.simple_type.name, key] += 1
        return unpack(rs, key)

    for module in (rootsys, orbits, verify):
        monkeypatch.setattr(module, "orbit_dim_from_wdd", counting_dim)
    monkeypatch.setattr(rootsys.RootSystem, "unpack", counting_unpack)
    assert run_verification(max_rank=8).ok
    assert sum(graded.values()) == len(types) + len(entries) == 32 + 141
    assert graded == expected_graded
    assert decoded == expected_decoded


def test_verify_computes_each_type_s_values_once_and_each_entry_s_reduced_roots_once(monkeypatch):
    # the reduced simple roots are found once per entry, by the construction,
    # and read again by the parity criterion and restricted.simple-two-routes;
    # the minimal diagram, the dual Coxeter number and the extended-diagram
    # neighbours once per type, kept on its root system (an A1 asks for no
    # neighbours)
    rootsys._build_cached.cache_clear()
    orbits.restricted_root_system.cache_clear()
    counts: Counter = Counter()
    for owner, name in (
        (restricted, "reduced_simple"),
        (rootsys, "min_orbit_wdd"),
        (rootsys, "dual_coxeter_number"),
        (rootsys, "extended_neighbors"),
    ):

        def counting(rs, *args, original=getattr(owner, name), name=name):
            counts[name, rs.simple_type.name] += 1
            return original(rs, *args)

        for module in (rootsys, restricted, orbits, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    assert run_verification(max_rank=8).ok
    entries = catalog(8)
    types = {sd.rs.simple_type for sd in entries}

    def per(name):
        return {t: k for (key, t), k in counts.items() if key == name}

    assert sum(per("reduced_simple").values()) == len(entries) == 141
    assert per("reduced_simple") == Counter(sd.rs.simple_type.name for sd in entries)
    for name in ("min_orbit_wdd", "dual_coxeter_number"):
        assert per(name) == {t.name: 1 for t in types}, name
    assert len(types) == 32
    assert per("extended_neighbors") == {t.name: 1 for t in types if t.rank > 1}


def test_the_kept_dimension_is_the_given_diagram_s():
    # the minimal orbit's dimension is kept on the root system, once per type:
    # a doctored minimal diagram is graded on its own, after the sound one was kept
    rootsys._build_cached.cache_clear()
    sd = form("sl(4,R)")
    assert "min_orbit_dim" not in vars(sd.rs)
    assert verify.check_orbit_entry(FormAnalysis(sd)) == []
    assert sd.rs.min_orbit_dim == rootsys.orbit_dim_from_wdd(sd.rs, sd.rs.min_wdd) == 6
    doctored = FormAnalysis(sd)
    doctored.min_wdd = rootsys.WeightedDynkinDiagram(sd.rs.simple_type, (1, 1, 1))
    dim = rootsys.orbit_dim_from_wdd(sd.rs, doctored.min_wdd)
    assert dim > doctored.min_g_dim == 6
    message = f"dim 6 vs minimal dim {dim}, meets=True"
    assert verify.Failure(sd.name, "orbit.dim-monotone", message) in verify.check_orbit_entry(doctored)
    # the doctored grading is not kept in place of the type's
    assert sd.rs.min_orbit_dim == 6


def test_weights_outside_zero_one_two_fail_the_construction():
    # the direct diagram refuses such weights itself, so verify has no separate range check
    analysis = FormAnalysis(form("sl(3,R)"))
    analysis.restricted = analysis.restricted._replace(doubled_highest=(2, 0))
    failures = verify.check_orbit_entry(analysis)
    assert [f.check for f in failures] == ["orbit.construction"]
    assert "outside {0,1,2}" in failures[0].message


def test_the_diagram_cache_keeps_the_256_most_recently_used_descriptors():
    descriptors = [sd.descriptor for sd in catalog(12)[:257]]
    satake._cached_satake.cache_clear()
    diagrams = [build_satake(d) for d in descriptors[:256]]
    reports = [orbit_report(sd) for sd in diagrams]
    # a hit makes the first descriptor the most recently used, so the 257th
    # descriptor pushes out the second
    assert build_satake(descriptors[0]) is diagrams[0]
    build_satake(descriptors[256])
    info = satake._cached_satake.cache_info()
    assert (info.maxsize, info.currsize) == (256, 256)
    assert build_satake(descriptors[0]) is diagrams[0]
    assert build_satake(descriptors[2]) is diagrams[2]
    assert kept_analysis(build_satake(descriptors[0])).report is reports[0]
    # the evicted descriptor is built again, a new diagram with a fresh analysis
    rebuilt = build_satake(descriptors[1])
    assert rebuilt is not diagrams[1] and rebuilt == diagrams[1]
    assert "_analysis" not in vars(rebuilt)
    assert kept_analysis(rebuilt) is not kept_analysis(diagrams[1])
    assert orbit_report(rebuilt) is not reports[1] and orbit_report(rebuilt) == reports[1]


def test_a_doctored_diagram_raises_the_same_error_on_every_call(monkeypatch):
    sd = form("su*(4)")._replace(black=frozenset({0, 1}))
    built = _count_builds(monkeypatch)
    messages = []
    for _ in range(3):
        with pytest.raises(InconsistentDiagram) as exc:
            orbit_report(sd)
        messages.append(str(exc.value))
    assert messages == [messages[0]] * 3
    assert "involution.preserves-roots" in messages[0]
    # no half-built answer is kept: each call builds the involution again
    assert built == {("checked_involution", sd.name): 3}


def test_c_ii_reads_the_dimension_not_the_diagram_match(monkeypatch):
    sd = form("so(1,4)")
    # a doctored diagram match claims the minimal orbit meets every form
    monkeypatch.setattr(orbits, "wdd_matches_satake", lambda w, d: True)
    conditions = equivalence_conditions(sd)
    assert not conditions.c_vi
    assert conditions.c_ii == in_five_families(sd.descriptor)


def _full_scan_dim(rs, w):
    """Orbit dimension from a scan of every root."""
    weights = w.as_ints()
    values = [sum(map(mul, root, weights)) for root in rs.roots]
    return sum(1 for v in values if v not in (0, 1))


def test_positive_root_dimension_matches_a_full_scan():
    for sd in catalog(8):
        analysis = FormAnalysis(sd)
        for w in (analysis.min_wdd, analysis.min_g_wdd):
            assert rootsys.orbit_dim_from_wdd(sd.rs, w) == _full_scan_dim(sd.rs, w), sd.name


def test_positive_root_dimension_on_negative_weights():
    rs = rootsys.build_root_system(rootsys.SimpleType("A", 3))
    for weights in [(-1, 0, 1), (1, -2, 1), (0, -1, 0), (-2, -2, -2)]:
        w = rootsys.WeightedDynkinDiagram(rs.simple_type, weights)
        assert rootsys.orbit_dim_from_wdd(rs, w) == _full_scan_dim(rs, w), weights


def _fraction_theta(sd):
    """theta* as (columns, denominator) through `Fraction` projections onto
    each black component, solved for every node."""
    rs = sd.rs
    n = rs.rank
    gram = rs.scaled_gram
    p = list(range(n))
    for i, j in sd.arrows:
        p[i], p[j] = j, i
    components = satake._black_components(sd)
    for comp in components:
        for node, image in satake._component_duality(sd, comp).items():
            p[node] = image
    w0 = {}
    for k in range(n):
        v = [Fraction(int(i == k)) for i in range(n)]
        for comp in components:
            nums, det = int_solve([[gram[a][c] for c in comp] for a in comp], [gram[b][k] for b in comp])
            for x, b in zip(nums, comp):
                v[b] -= Fraction(x, det)
                v[p[b]] -= Fraction(x, det)
        w0[k] = v
    den = lcm(*(x.denominator for column in w0.values() for x in column))
    return tuple(tuple(-int(x * den) for x in w0[p[j]]) for j in range(n)), den


@pytest.mark.parametrize("wrong", [False, True], ids=["catalog", "identity-duality"])
def test_integer_black_split_matches_fraction_projections(monkeypatch, wrong):
    # the projections are rational, and their theta* comes out integral; with
    # the identity in place of each black component's duality it no longer
    # does, so the reference is exercised, while the closure read, which takes
    # w0 off the roots and the duality only into p~ on black nodes, keeps its columns
    entries = catalog(8)
    columns = [satake._build_involution(sd).columns for sd in entries]
    if wrong:
        monkeypatch.setattr(satake, "_component_duality", lambda sd, comp: {c: c for c in comp})
    denominators = set()
    for sd, cols in zip(entries, columns):
        assert satake._build_involution(sd).columns == cols, sd.name
        reference, den = _fraction_theta(sd)
        assert (reference, den) == (cols, 1) or wrong, sd.name
        denominators.add(den)
    assert (denominators != {1}) == wrong
