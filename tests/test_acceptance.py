"""Acceptance suite: one test per criterion, one pass/fail line each.

Every check here is exact (tolerance zero).  Expected values are frozen in
this file, independent of the package's own golden-row helpers.
"""

import functools
from fractions import Fraction

from lieorbits import cli, satake
from lieorbits.errors import InconsistentDiagram
from lieorbits.orbits import (
    FormAnalysis,
    equivalence_conditions,
    in_five_families,
    min_g_wdd_direct,
    restricted_root_system,
    satake_involution,
    validate_satake,
)
from lieorbits.restricted import is_C_or_BC, parity_criterion
from lieorbits.rootsys import (
    ROOT_COUNT_FORMULAS,
    build_root_system,
    extended_neighbors,
    min_orbit_wdd,
    orbit_dim_from_wdd,
)
from lieorbits.satake import build_satake, catalog, parse_form_name
from lieorbits.verify import run_verification


# d_i = <a_i, a_i>/2 per node, long roots normalized to d = 1
LENGTH_HALVES = {
    "B": lambda n: (1,) * (n - 1) + (Fraction(1, 2),),
    "C": lambda n: (Fraction(1, 2),) * (n - 1) + (1,),
    "F": lambda n: (1, 1, Fraction(1, 2), Fraction(1, 2)),
    "G": lambda n: (Fraction(1, 3), 1),
}


def simple_root_length_halves(t):
    return tuple(map(Fraction, LENGTH_HALVES.get(t.letter, lambda n: (1,) * n)(t.rank)))


def as_vector(values):
    return tuple(map(Fraction, values))


def inner(rs, v, w) -> Fraction:
    """<v, w> from the integer multiple of the Gram form that the package keeps."""
    return Fraction(rs.scaled_inner(v, w)) / rs.gram_scale


def white_values(fa):
    """The coroot system's match unknowns, one per white arrow class: the
    class's weight, doubled when dim g_lambda = 1."""
    sd, solution = fa.sd, fa.coroot_solution
    scale = 2 if fa.restricted.highest_mult == 1 else 1
    arrowed = {k for pair in sd.arrows for k in pair}
    reps = {min(pair) for pair in sd.arrows} | (set(sd.white) - arrowed)
    return {r: Fraction(scale * solution.numerators[r], solution.denominator) for r in sorted(reps)}


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")

        return wrapper

    return decorate


def form(name):
    return build_satake(parse_form_name(name))


@functools.lru_cache(maxsize=None)
def rank8_catalog():
    return tuple(catalog(8))


# --- criterion 1: golden table reproduction -------------------------------


def _expected_row(name):
    if name.startswith("su*"):
        k = int(name[4:-1]) // 2
        if k == 2:
            return (0, 2, 0), 8
        weights = [0] * (2 * k - 1)
        weights[1] = weights[2 * k - 3] = 1
        return tuple(weights), 8 * k - 8
    if name.startswith("so"):
        n = int(name[5:-1]) + 1
        if n == 6:
            return (0, 2, 0), 8
        rank = (n - 1) // 2 if n % 2 else n // 2
        return (2,) + (0,) * (rank - 1), 2 * n - 4
    if name.startswith("sp"):
        p, q = map(int, name[3:-1].split(","))
        if p + q == 2:
            return (0, 2), 6
        weights = [0] * (p + q)
        weights[1] = 1
        return tuple(weights), 4 * (p + q) - 2
    if name == "e6(-26)":
        return (1, 0, 0, 0, 0, 1), 32
    return (0, 0, 0, 1), 22


@criterion("criterion 1: golden table rows (weights and dimensions, exact)")
def test_criterion_1_table_rows():
    names = (
        [f"su*({2 * k})" for k in range(2, 7)]
        + [f"so(1,{n - 1})" for n in range(5, 13)]
        + [f"sp({p},{q})" for p in range(1, 6) for q in range(p, 6)]
        + ["e6(-26)", "f4(-20)"]
    )
    for name in names:
        sd = form(name)
        weights, dim = _expected_row(name)
        assert min_g_wdd_direct(sd).as_ints() == weights, name
        assert FormAnalysis(sd).min_g_dim == dim, name


# --- criterion 2: two-method agreement ------------------------------------


@criterion("criterion 2: direct and linear-system diagrams agree; e6(-26) unknowns a=b=1")
def test_criterion_2_two_methods():
    for sd in rank8_catalog():
        solution = FormAnalysis(sd).coroot_solution
        assert min_g_wdd_direct(sd) == solution.wdd, sd.name
    e6 = white_values(FormAnalysis(form("e6(-26)")))
    assert sorted(e6.values()) == [1, 1]
    assert e6 == {0: 1, 5: 1}


# --- criterion 3: the condition battery -----------------------------------


@criterion("criterion 3: seven-way condition battery agrees; true-set is the five families")
def test_criterion_3_condition_battery():
    for sd in rank8_catalog():
        conditions = equivalence_conditions(sd)
        assert conditions.all_agree, sd.name
        expected = sd.descriptor.family in ("su_star", "sp_pq", "f4_m20", "e6_m26") or (
            sd.descriptor.family == "so_pq" and sd.descriptor.params[0] == 1
        )
        assert conditions.c_ii == expected, sd.name
        assert in_five_families(sd.descriptor) == expected, sd.name


# --- criterion 4: orbit counts --------------------------------------------


def _expected_hermitian(descriptor):
    f, p = descriptor.family, descriptor.params
    if f in ("su_pq", "sp_R", "so_star", "e6_m14", "e7_m25"):
        return True
    if f == "so_pq" and p[0] == 2:
        return True
    # sl(2,R) is isomorphic to su(1,1) and sp(1,R), both in the list above
    return f == "sl_R" and p[0] == 2


@criterion("criterion 4: count = 2 exactly on Hermitian entries; parity <=> not C/BC")
def test_criterion_4_counts():
    for sd in rank8_catalog():
        expected = _expected_hermitian(sd.descriptor)
        assert (FormAnalysis(sd).orbit_count == 2) == expected, sd.name
        rrs = restricted_root_system(sd)
        assert parity_criterion(rrs) == (not is_C_or_BC(rrs)), sd.name


# --- criterion 5: involution validation -----------------------------------


@criterion("criterion 5: every entry passes all involution invariants over every root")
def test_criterion_5_involutions():
    for sd in rank8_catalog():
        report = validate_satake(sd)
        assert report.ok, (sd.name, report.failures)
        # the five named invariants, re-asserted directly
        inv = satake_involution(sd)
        n = sd.rs.rank
        # theta* as Fraction rows, read off the integer columns
        theta = [[Fraction(inv.columns[j][i]) for j in range(n)] for i in range(n)]

        def apply(v):
            return tuple(sum(x * y for x, y in zip(row, v)) for row in theta)

        identity = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        assert all(apply(apply(e)) == e for e in identity), sd.name
        permuted = [0] * n
        for i, c in enumerate(sd.rs.highest):
            permuted[inv.p_tilde[i]] = c
        assert tuple(permuted) == sd.rs.highest, sd.name
        for b in sd.black:
            assert apply(identity[b]) == tuple(as_vector(identity[b])), sd.name
        roots = set(sd.rs.roots)
        for root in sd.rs.roots:
            image = apply(as_vector(root))
            assert all(x.denominator == 1 for x in image), sd.name
            assert tuple(int(x) for x in image) in roots, sd.name
            tau_image = tuple(-int(x) for x in image)
            moved = tuple(a - b for a, b in zip(root, tau_image))
            assert moved not in roots, sd.name


# --- criterion 6: structural invariants -----------------------------------


@criterion("criterion 6: root counts, norm ratios, diagram supports, minimal dimensions")
def test_criterion_6_structure():
    seen = set()
    for sd in rank8_catalog():
        t = sd.rs.simple_type
        if t not in seen:
            seen.add(t)
            rs = build_root_system(t)
            assert len(rs.roots) == ROOT_COUNT_FORMULAS[t.letter](t.rank), t.name
            wdd = min_orbit_wdd(rs)
            if t.rank >= 2:
                assert {i for i, w in enumerate(wdd.weights) if w} == extended_neighbors(rs), t.name
            hv = 1 + sum(c * d for c, d in zip(rs.highest, simple_root_length_halves(t)))
            assert orbit_dim_from_wdd(rs, wdd) == 2 * hv - 2, t.name
        rrs = restricted_root_system(sd)
        phi = as_vector(sd.rs.highest)
        phi_sq = inner(sd.rs, phi, phi)
        # <2 lam, 2 lam> = 4 <lam, lam> on the doubled highest restricted root
        lam_sq = inner(sd.rs, rrs.doubled_highest, rrs.doubled_highest) / 4
        if rrs.highest_mult >= 2:
            assert phi_sq == 2 * lam_sq, sd.name
        else:
            assert phi_sq == lam_sq, sd.name


# --- criterion 7: CLI contract and mutation detection ----------------------


@criterion("criterion 7a: `lieorbits verify --max-rank 8` exits 0")
def test_criterion_7_cli_verify(capsys):
    assert cli.main(["verify", "--max-rank", "8"]) == 0
    capsys.readouterr()


def _mutations(sd):
    n = sd.rs.rank
    for node in range(n):
        black = set(sd.black)
        black.symmetric_difference_update({node})
        yield f"toggle black {node}", sd._replace(black=frozenset(black))
    for k in range(len(sd.arrows)):
        arrows = sd.arrows[:k] + sd.arrows[k + 1 :]
        yield f"drop arrow {sd.arrows[k]}", sd._replace(arrows=arrows)
    arrowed = {i for pair in sd.arrows for i in pair}
    free = [w for w in sd.white if w not in arrowed]
    if len(free) >= 2:
        new = tuple(sorted(sd.arrows + ((free[0], free[1]),)))
        yield f"add arrow {(free[0], free[1])}", sd._replace(arrows=new)


@criterion("criterion 7b: every single black/arrow mutation is flagged with a named diagnostic")
def test_criterion_7_mutations():
    targets = list(catalog(5)) + [
        form(name)
        for name in ["e6(-26)", "e6(2)", "e6(-14)", "e7(-5)", "e7(-25)", "e8(-24)", "so*(10)", "su(3,4)", "so(3,9)"]
    ]
    for sd in targets:
        for label, mutated in _mutations(sd):
            result = run_verification(entries=[mutated])
            assert result.failures, f"{sd.name}: undetected mutation ({label})"
            assert all(f.check for f in result.failures)


@criterion("criterion 7c: a corrupted catalog makes the CLI verify exit 1")
def test_criterion_7_cli_corrupted(capsys, monkeypatch):
    import lieorbits.verify as verify_mod

    corrupted = [
        sd._replace(black=frozenset({0, 1})) if sd.name == "su*(4)" else sd
        for sd in verify_mod.catalog(3)
    ]
    monkeypatch.setattr(verify_mod, "catalog", lambda max_rank: corrupted)
    assert cli.main(["verify", "--max-rank", "3"]) == 1
    out = capsys.readouterr().out
    assert "su*(4)" in out and "FAIL" in out


# --- regression: validation and construction share one involution cache ---


def test_mutants_validate_the_same_cold_and_warm():
    for sd in catalog(5):
        for label, mutated in _mutations(sd):
            satake_involution.cache_clear()
            cold = validate_satake(mutated)
            try:
                satake_involution(mutated)
                raised = False
            except InconsistentDiagram:
                raised = True
            warm = validate_satake(mutated)
            assert cold.failures == warm.failures, f"{sd.name}: {label}"
            assert raised == (not cold.ok), f"{sd.name}: {label}"
            try:
                battery = tuple(satake._involution_failures(mutated, satake._build_involution(mutated)))
            except InconsistentDiagram:
                continue  # a structural or construction failure, reported before the battery runs
            assert cold.failures == battery, f"{sd.name}: {label}"


# --- regression: every module-level cache in the package is bounded --------


def test_every_package_cache_is_bounded():
    import importlib
    import pkgutil

    import lieorbits

    caches = {}
    for info in pkgutil.iter_modules(lieorbits.__path__):
        module = importlib.import_module(f"lieorbits.{info.name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{module.__name__}.{attr}"] = value.cache_parameters()["maxsize"]
    assert {"lieorbits.orbits.restricted_root_system", "lieorbits.orbits.satake_involution"} <= set(caches)
    assert {name for name, maxsize in caches.items() if maxsize is None} == set()
