"""lieorbits benchmark: three single-client, closed-loop workloads.

    python3 perfbench/run.py --workload describe-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (the package is imported from
`src/`).  Every op runs in a worker interpreter, one worker at a time.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  A readable summary goes to stderr; with
`--trace 1` the spans are written to `perfbench/out/`.
See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from forms import NAMED_FORMS, catalog_forms, job_form, pool_names, stratified_draw
from tracer import self_times_ms

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("describe-cold", "verify-sweep", "report-repeat")
DRAWN_FORMS = 20  # describe-cold: seeded draws added to the four named forms
DESCRIBE_MIN_PASSES = 2  # 48 samples or more, enough for a p75 tail
VERIFY_MAX_RANK = 8
REPORT_MAX_RANK = 8
REPORT_WORKERS = 3
REPORT_MIN_ROUNDS = 3  # per worker: 1269 samples or more, enough for a p99 tail
# op_tail_ms is this fixed percentile of a workload's op times, so it means
# the same whatever the sample count.  At the baseline's minimum counts (48
# describes, 1269 reports) at least 10 samples lie beyond it.  A verify run
# holds only a handful of sweeps, so its tail is their upper quartile.
TAIL_PERCENTILE = {"describe-cold": 75, "verify-sweep": 75, "report-repeat": 99}
RUN_LIMIT_S = 170  # a run still going by then is stopped and fails

LAYER_SPANS = {
    "rootsys": "rootsys.self_ms",
    "satake": "satake.self_ms",
    "satake.validate": "satake.validate_ms",
    "restricted": "restricted.self_ms",
    "orbits": "orbits.self_ms",
    "cli": "cli.self_ms",
    "verify.roots": "verify.roots_ms",
    "verify.satake": "verify.satake_ms",
    "verify.restricted": "verify.restricted_ms",
    "verify.orbit": "verify.orbit_ms",
}


class BenchError(Exception):
    pass


@dataclass
class Measurement:
    """Everything one run collects: op times per input, untraced and traced,
    set-up times, the output gate's verdicts, spans and counters."""

    unit: int = 1  # forms, entries or reports one op does
    op_ms: list[float] = field(default_factory=list)  # scaled to nominal machine speed
    raw_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    traced_raw_ms: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    self_ms: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    cache: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def absorb(self, setup: float, result: dict, failures: list[str], worker: int) -> None:
        self.setups.append(setup * result["setup_scale"])
        self.rss_mb.append(result["rss_mb"])
        for scaled, raw, key in ((self.op_ms, self.raw_ms, "op_ms"), (self.traced_ms, self.traced_raw_ms, "traced_ms")):
            scaled += [ms * speed for ms, speed in result[key]]
            raw += [ms for ms, _ in result[key]]
        ops = len(result["op_ms"]) + len(result["traced_ms"])
        self.attempted += ops
        if failures:
            self.failed += min(ops, len(failures))
            self.failures += failures
        for fn, stats in result["cache"].items():
            total = self.cache.setdefault(fn, {"hits": 0, "misses": 0, "currsize": 0})
            total["hits"] += stats["hits"]
            total["misses"] += stats["misses"]
            total["currsize"] = max(total["currsize"], stats["currsize"])
        if "spans" in result:
            for name, ms in self_times_ms(result["spans"]).items():
                self.self_ms[name] += ms
            self.counts.update(result["counts"])
            self.spans += [[worker, *span] for span in result["spans"]]


class Workers:
    """Starts one worker interpreter at a time on the checkout's sources."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "lieorbits" / "__init__.py").is_file():
            raise BenchError(f"no package sources at {src / 'lieorbits'}; run from the root of a lieorbits checkout")
        self.root = root
        # bytecode caches are written, as for an installed package
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.count = 0

    def run(self, job: dict) -> tuple[float, dict]:
        """Spawn a worker for `job`; return (set-up seconds, result)."""
        self.count += 1
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(job)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            cwd=self.root,
            env=self.env,
            text=True,
        ) as proc:
            try:
                ready = proc.stdout.readline()
                setup = perf_counter() - t0
                body = proc.stdout.read()
                code = proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not ready.startswith('{"ready"'):
            raise BenchError(f"worker for {job['workload']} exited with code {code}")
        return setup, json.loads(body)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def describe_inputs(seed: int, reference: dict) -> list[list]:
    """The four named forms plus one seeded draw from each of DRAWN_FORMS
    equal strata of the pool, ordered by reference describe time.  The pool
    holds no entry slower than the slowest named form at the reference."""
    catalog, cost = reference["catalog"], reference["describe_ms"]
    ceiling = max(cost[n] for n in NAMED_FORMS)
    pool = [n for n in pool_names(catalog) if n not in NAMED_FORMS and cost[n] <= ceiling]
    drawn = stratified_draw(pool, cost, DRAWN_FORMS, seed)
    return [job_form(catalog, n) for n in (*NAMED_FORMS, *drawn)]


def digest_failures(result: dict, reference: dict) -> list[str]:
    expected = reference["describe_sha256"]
    return [
        f"{name}: output digest {digest[:12]} differs from the reference {expected.get(name, 'none')[:12]}"
        for name, digest in result.get("digests", {}).items()
        if expected.get(name) != digest
    ]


def run_describe(workers: Workers, m: Measurement, seed: int, seconds: float, trace: bool, reference: dict):
    """Whole passes over the inputs in a seeded order, each op in a fresh
    interpreter: at least DESCRIBE_MIN_PASSES (one when tracing), then more
    while the next pass is expected to end within the time budget."""
    inputs = describe_inputs(seed, reference)
    rng = random.Random(seed)
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for f in rng.sample(inputs, len(inputs)):
            for traced in (False, True) if trace else (False,):
                job = {"workload": "describe-cold", "form": f, "trace": traced, "routes": passes == 0}
                setup, result = workers.run(job)
                m.absorb(setup, result, result["failures"] + digest_failures(result, reference), workers.count)
        passes += 1
        elapsed = perf_counter() - start
        if passes >= (1 if trace else DESCRIBE_MIN_PASSES) and elapsed + (perf_counter() - pass_start) > seconds:
            return {"inputs": [f[0] for f in inputs], "passes": passes}


def run_verify(workers: Workers, m: Measurement, seed: int, seconds: float, trace: bool, reference: dict):
    """Whole sweeps, each in a fresh interpreter, while the next is expected
    to end within the time budget; with tracing, untraced and traced sweeps
    alternate."""
    forms = catalog_forms(reference["catalog"], VERIFY_MAX_RANK)
    expected = reference["verify"][str(VERIFY_MAX_RANK)]
    m.unit = expected["entries"]
    start = perf_counter()
    while True:
        sweep_start = perf_counter()
        for traced in (False, True) if trace else (False,):
            job = {"workload": "verify-sweep", "max_rank": VERIFY_MAX_RANK, "forms": forms, "trace": traced}
            setup, result = workers.run(job)
            failures = list(result["failures"])
            if (result["entries"], result["checks"]) != (expected["entries"], expected["checks_run"]):
                failures.append(
                    f"swept {result['entries']} entries / {result['checks']} checks, "
                    f"reference {expected['entries']} / {expected['checks_run']}"
                )
            m.absorb(setup, result, failures, workers.count)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - sweep_start) > seconds:
            return {"max_rank": VERIFY_MAX_RANK, "entries": expected["entries"]}


def run_report(workers: Workers, m: Measurement, seed: int, seconds: float, trace: bool, reference: dict):
    """REPORT_WORKERS interpreters in turn, each with an untimed warm-up
    round and then timed rounds over every catalog entry, in a seeded order,
    for its share of the time budget and at least REPORT_MIN_ROUNDS."""
    forms = catalog_forms(reference["catalog"], REPORT_MAX_RANK)
    for i in range(REPORT_WORKERS):
        job = {
            "workload": "report-repeat",
            "forms": forms,
            "seed": seed * REPORT_WORKERS + i,
            "seconds": seconds / REPORT_WORKERS,
            "min_rounds": REPORT_MIN_ROUNDS,
            "trace": trace,
            "routes": i == 0,
        }
        setup, result = workers.run(job)
        m.absorb(setup, result, result["failures"] + digest_failures(result, reference), workers.count)
    return {"entries": len(forms), "workers": REPORT_WORKERS}


RUNNERS = {"describe-cold": run_describe, "verify-sweep": run_verify, "report-repeat": run_report}


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, interpolated linearly between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def throughput(m: Measurement, op_ms: list[float]) -> float:
    return m.unit * len(op_ms) / (sum(op_ms) / 1000)


def end_to_end(m: Measurement, workload: str) -> tuple[dict, dict]:
    p = TAIL_PERCENTILE[workload]
    tail_ms = percentile(m.op_ms, p)
    metrics = {
        "setup_s": metric(statistics.median(m.setups), "s"),
        "throughput_per_s": metric(throughput(m, m.op_ms), "1/s"),
        "op_p50_ms": metric(statistics.median(m.op_ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(max(m.rss_mb), "MB"),
    }
    notes = {
        "tail_percentile": p,
        "tail_samples_beyond": sum(ms > tail_ms for ms in m.op_ms),
        "op_samples": len(m.op_ms),
        "setups": len(m.setups),
        "unscaled_op_p50_ms": statistics.median(m.raw_ms),
        "unscaled_throughput_per_s": throughput(m, m.raw_ms),
        "speed_scale": sum(m.op_ms) / sum(m.raw_ms),
    }
    return metrics, notes


def per_layer(m: Measurement) -> dict:
    """Per traced op of the workload: per form, per sweep or per report.
    Span times are scaled by the traced ops' overall speed scale."""
    ops = len(m.traced_ms)
    speed = sum(m.traced_ms) / sum(m.traced_raw_ms)
    metrics = {name: metric(speed * m.self_ms[span] / ops, "ms") for span, name in LAYER_SPANS.items()}
    roots, elements = m.counts["rootsys.roots"], m.counts["restricted.elements"]
    metrics["rootsys.roots"] = metric(roots / ops, "count")
    metrics["rootsys.us_per_root"] = metric(1000 * speed * m.self_ms["rootsys"] / roots, "us")
    metrics["restricted.elements"] = metric(elements / ops, "count")
    metrics["restricted.us_per_element"] = metric(1000 * speed * m.self_ms["restricted"] / elements, "us")
    metrics["verify.checks"] = metric(m.counts["verify.checks"] / ops, "count")
    metrics["verify.failures"] = metric(m.counts["verify.failures"] / ops, "count")
    # the caches count calls from untraced and traced ops alike
    all_ops = ops + len(m.op_ms)
    for fn, stats in m.cache.items():
        calls = stats["hits"] + stats["misses"]
        metrics[f"cache.{fn}.hits"] = metric(stats["hits"] / all_ops, "count")
        metrics[f"cache.{fn}.misses"] = metric(stats["misses"] / all_ops, "count")
        metrics[f"cache.{fn}.hit_ratio"] = metric(stats["hits"] / calls if calls else 0.0, "ratio")
        metrics[f"cache.{fn}.currsize"] = metric(stats["currsize"], "count")
    metrics["unattributed_ms"] = metric(speed * m.self_ms["op"] / ops, "ms")
    metrics["trace.overhead_ratio"] = metric(sum(m.traced_ms) / sum(m.op_ms), "ratio")
    return metrics


def write_trace(workload: str, seed: int, m: Measurement, metrics: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "span_fields": ["worker", "name", "start", "end", "parent", "op"],
                "spans": m.spans,
                "metrics": metrics,
            },
            fh,
        )
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        workers = Workers(Path.cwd())
        reference = load_reference()
        workers.run({"workload": "import"})  # writes bytecode caches before anything is timed
        m = Measurement()
        info = RUNNERS[args.workload](workers, m, args.seed, args.seconds, bool(args.trace), reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    if args.trace:
        metrics = per_layer(m)
        notes = {"trace_file": str(write_trace(args.workload, args.seed, m, metrics).relative_to(Path.cwd()))}
    else:
        metrics, notes = end_to_end(m, args.workload)
    summary = {"workload": args.workload, "seed": args.seed, **info, **notes, "failed_ratio": m.failed / m.attempted}
    print(json.dumps(summary), file=sys.stderr)
    for failure in m.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
