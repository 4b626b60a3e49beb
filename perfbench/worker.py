"""One benchmark worker: a fresh interpreter that imports the package, runs
the ops of one job and reports their timings.

    python3 perfbench/worker.py '<job as JSON>'

The worker writes two lines to stdout: `{"ready": true}` once the package
is imported, then the result object.  Everything between the spawn and the
ready line is set-up time.  Op timings are taken here with perf_counter
around each op only, and each comes with the machine's speed scale measured
around it (see `calibrate`), as `[ms, scale]`.  Output checks run after each
op, outside its timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from tracer import Tracer

CACHED_FUNCTIONS = ("satake_involution", "restricted_root_system")
CALIBRATION_NOMINAL_MS = 10.0


def calibration_loop() -> float:
    """Milliseconds for a fixed loop of the kinds of work the package does:
    small tuples, dict lookups and exact fractions."""
    t0 = perf_counter()
    counts: dict[tuple, int] = {}
    total = Fraction(0)
    for i in range(1, 6000):
        v = (i % 13, i % 7, i % 5, i % 3)
        w = tuple(a * b for a, b in zip(v, (1, 2, 3, 4)))
        counts[w] = counts.get(w, 0) + 1
        if i % 4 == 0:
            total += Fraction(sum(w), i % 11 + 1)
    return (perf_counter() - t0) * 1000


def calibrate() -> float:
    """Median of three calibration loops.  It runs next to every timed op,
    because the speed of a shared virtual CPU drifts by up to 1.8x over
    seconds to minutes; CALIBRATION_NOMINAL_MS over this time is the speed
    scale.  The median also drops the slower first loop of a fresh process."""
    return statistics.median(calibration_loop() for _ in range(3))


def scale(before: float, after: float) -> float:
    return 2 * CALIBRATION_NOMINAL_MS / (before + after)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cache_snapshot(lib) -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) of each cached layer function that still
    exposes cache_info(); a function without one is left out."""
    snap = {}
    for fn in CACHED_FUNCTIONS:
        info = getattr(getattr(lib, fn), "cache_info", None)
        if info is not None:
            i = info()
            snap[fn] = (i.hits, i.misses, i.currsize)
    return snap


def cache_delta(before, after) -> dict[str, dict[str, int]]:
    return {
        fn: {"hits": after[fn][0] - before[fn][0], "misses": after[fn][1] - before[fn][1], "currsize": after[fn][2]}
        for fn in after
        if fn in before
    }


def route_failures(lib, sd, data: dict) -> list[str]:
    """Compare one report against routes independent of the one that made it:
    the linear-system diagram, the condition battery, the orbit count against
    the Hermitian reference flag, and the golden table row where one exists."""
    from lieorbits.orbits import CONDITION_FIELDS
    from lieorbits.verify import golden_row

    name = sd.name
    failures = []
    try:
        direct = lib.min_g_wdd_direct(sd).as_ints()
        system = lib.min_g_wdd_linear_system(sd).as_ints()
        conditions = lib.equivalence_conditions(sd)
    except lib.LieOrbitsError as exc:
        return [f"{name}: independent route failed: {exc}"]
    if direct != system or list(system) != data["min_g_wdd"]:
        failures.append(f"{name}: min_g_wdd {data['min_g_wdd']} vs linear system {list(system)}")
    if not conditions.all_agree or [data["conditions"][f] for f in CONDITION_FIELDS] != list(conditions.values()):
        failures.append(f"{name}: condition battery {conditions.values()} vs output {data['conditions']}")
    count, hermitian = data["minimal_real_orbit_count"], data["hermitian"]
    if (count == 2) != hermitian or hermitian != sd.hermitian_expected:
        failures.append(f"{name}: orbit count {count}, hermitian {hermitian}, reference {sd.hermitian_expected}")
    row = golden_row(sd.descriptor)
    if row is not None and (tuple(data["min_g_wdd"]), data["min_g_dim"]) != row:
        failures.append(f"{name}: golden row {row} vs output {data['min_g_wdd']} dim {data['min_g_dim']}")
    return failures


def traced_report(lib, tr: Tracer, form: list) -> str:
    """The describe path as public calls in dependency order, one span each."""
    name, letter, rank = form
    with tr.span("op", name):
        with tr.span("rootsys", name):
            rs = lib.build_root_system(lib.SimpleType(letter, rank))
        tr.count("rootsys.roots", len(rs.roots))
        with tr.span("satake", name):
            sd = lib.build_satake(lib.parse_form_name(name))
            lib.satake_involution(sd)
        with tr.span("restricted", name):
            rrs = lib.restricted_root_system(sd)
        tr.count("restricted.elements", len(rrs.elements))
        with tr.span("orbits", name):
            report = lib.orbit_report(sd)
        with tr.span("cli", name):
            text = json.dumps(lib.report_to_dict(report), indent=2) + "\n"
    if sd.rs.simple_type != rs.simple_type:
        raise RuntimeError(f"{name}: benchmark expects type {letter}{rank}, package built {sd.rs.simple_type.name}")
    return text


def run_describe(lib, job: dict, tr: Tracer | None, cal: float) -> dict:
    """One cold describe; the route checks only when the job asks, since
    they repeat exactly for repeats of a form."""
    from lieorbits import cli

    name = job["form"][0]
    before = cache_snapshot(lib)
    if tr is None:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["describe", name, "--format", "json"])
        op_ms = (perf_counter() - t0) * 1000
        text = buf.getvalue()
        failures = [] if rc == 0 else [f"{name}: describe exited {rc}"]
    else:
        t0 = perf_counter()
        text = traced_report(lib, tr, job["form"])
        op_ms = (perf_counter() - t0) * 1000
        failures = []
    sample = [[op_ms, scale(cal, calibrate())]]
    cache = cache_delta(before, cache_snapshot(lib))
    if not failures and job.get("routes"):
        failures = route_failures(lib, lib.build_satake(lib.parse_form_name(name)), json.loads(text))
    return {
        "op_ms": [] if tr else sample,
        "traced_ms": sample if tr else [],
        "digests": {name: sha256(text)},
        "failures": failures,
        "cache": cache,
    }


def traced_sweep(lib, tr: Tracer, forms: list) -> tuple[int, int, list[str]]:
    """run_verification's work as public calls per entry, one span each."""
    from lieorbits import verify
    from lieorbits.errors import LieOrbitsError

    failures: list = []
    types = []
    for _, letter, rank in forms:
        if (letter, rank) not in types:
            types.append((letter, rank))

    def check(span: str, op: str, fn, arg):
        tr.count("verify.checks")
        with tr.span(span, op):
            try:
                failures.extend(fn(arg))
            except LieOrbitsError as exc:
                failures.append(f"{op} [error] {exc}")

    with tr.span("op", "sweep"):
        for letter, rank in types:
            op = f"{letter}{rank}"
            with tr.span("rootsys", op):
                rs = lib.build_root_system(lib.SimpleType(letter, rank))
            tr.count("rootsys.roots", len(rs.roots))
            check("verify.roots", op, verify.check_root_system, rs)
        for name, _, _ in forms:
            with tr.span("satake", name):
                sd = lib.build_satake(lib.parse_form_name(name))
                lib.satake_involution(sd)
            with tr.span("satake.validate", name):
                lib.validate_satake(sd)
            with tr.span("restricted", name):
                rrs = lib.restricted_root_system(sd)
            tr.count("restricted.elements", len(rrs.elements))
            check("verify.satake", name, verify.check_satake_entry, sd)
            check("verify.restricted", name, verify.check_restricted_entry, sd)
            check("verify.orbit", name, verify.check_orbit_entry, sd)
    tr.count("verify.failures", len(failures))
    return len(forms), tr.counts["verify.checks"], [str(f) for f in failures]


def run_verify(lib, job: dict, tr: Tracer | None, cal: float) -> dict:
    before = cache_snapshot(lib)
    t0 = perf_counter()
    if tr is None:
        result = lib.run_verification(max_rank=job["max_rank"])
        op_ms = (perf_counter() - t0) * 1000
        entries, checks, failures = result.entries, result.checks_run, [str(f) for f in result.failures]
    else:
        entries, checks, failures = traced_sweep(lib, tr, job["forms"])
        op_ms = (perf_counter() - t0) * 1000
    sample = [[op_ms, scale(cal, calibrate())]]
    return {
        "op_ms": [] if tr else sample,
        "traced_ms": sample if tr else [],
        "entries": entries,
        "checks": checks,
        "failures": failures,
        "cache": cache_delta(before, cache_snapshot(lib)),
    }


def report_text(lib, name: str) -> str:
    report = lib.orbit_report(lib.build_satake(lib.parse_form_name(name)))
    return json.dumps(lib.report_to_dict(report), indent=2) + "\n"


def run_report(lib, job: dict, tr: Tracer | None) -> dict:
    """An untimed warm-up round, then timed rounds in a seeded order until
    the time budget is spent and at least `min_rounds` have run, each round
    between two calibrations.  With tracing on, untraced and traced rounds
    alternate so the overhead ratio compares the same queries."""
    forms = job["forms"]
    names = [f[0] for f in forms]
    warm = {name: report_text(lib, name) for name in names}
    rng = random.Random(job["seed"])
    op_ms: list[list[float]] = []
    traced_ms: list[list[float]] = []
    failures: list[str] = []
    cal = calibrate()
    before = cache_snapshot(lib)
    deadline = perf_counter() + job["seconds"]
    rounds = 0
    # whole rounds; with tracing, whole untraced/traced pairs
    min_rounds = job["min_rounds"] * (2 if tr else 1)
    while rounds < min_rounds or (tr is not None and rounds % 2) or perf_counter() < deadline:
        order = rng.sample(forms, len(forms))
        traced = tr is not None and rounds % 2 == 1
        round_ms = []
        for form in order:
            name = form[0]
            t0 = perf_counter()
            if traced:
                text = traced_report(lib, tr, form)
            else:
                report = lib.orbit_report(lib.build_satake(lib.parse_form_name(name)))
                text = json.dumps(lib.report_to_dict(report), indent=2) + "\n"
            round_ms.append((perf_counter() - t0) * 1000)
            if text != warm[name]:
                failures.append(f"{name}: report differs from the warm-up round")
        after = calibrate()
        (traced_ms if traced else op_ms).extend([ms, scale(cal, after)] for ms in round_ms)
        cal = after
        rounds += 1
    cache = cache_delta(before, cache_snapshot(lib))
    for name in names if job.get("routes") else ():
        failures += route_failures(lib, lib.build_satake(lib.parse_form_name(name)), json.loads(warm[name]))
    digests = {name: sha256(text) for name, text in warm.items()}
    return {"op_ms": op_ms, "traced_ms": traced_ms, "digests": digests, "failures": failures, "cache": cache}


def main() -> None:
    job = json.loads(sys.argv[1])
    out = sys.stdout
    import lieorbits as lib
    import lieorbits.cli  # noqa: F401  (set-up includes what the command line imports)

    out.write('{"ready": true}\n')
    out.flush()
    cal = calibrate()
    tr = Tracer() if job.get("trace") else None
    workload = job["workload"]
    if workload == "describe-cold":
        result = run_describe(lib, job, tr, cal)
    elif workload == "verify-sweep":
        result = run_verify(lib, job, tr, cal)
    elif workload == "report-repeat":
        result = run_report(lib, job, tr)
    elif workload == "catalog":  # for make_reference.py: name -> [letter, rank, roots]
        entries = {
            sd.name: [sd.rs.simple_type.letter, sd.rs.rank, len(sd.rs.roots)] for sd in lib.catalog(job["max_rank"])
        }
        result = {"catalog": entries, "op_ms": [], "traced_ms": [], "failures": [], "cache": {}}
    else:  # "import": set-up only
        result = {"op_ms": [], "traced_ms": [], "failures": [], "cache": {}}
    result["setup_scale"] = CALIBRATION_NOMINAL_MS / cal
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr is not None:
        result["spans"] = tr.spans
        result["counts"] = tr.counts
    out.write(json.dumps(result) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
