"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py      # from the root of a checkout

Runs every workload untraced and traced on shrunken inputs and checks that
the result line has exactly the contract's keys, that the run is correct,
and that every metric of BENCHMARK.json prints by name with its unit and a
finite value.  Also checks that a run outside a checkout fails without a
result, and that each workload's tail stays at the same percentile
whatever the sample count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import run

ROOT = Path.cwd()


def result_line(argv: list[str]) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def tail_problems() -> list[str]:
    """On n evenly spaced values from 0 to 1 the p-th percentile is p/100
    for every n, so op_tail_ms must read the workload's fixed percentile
    whether a run holds a few ops or thousands."""
    problems = []
    for workload, p in run.TAIL_PERCENTILE.items():
        for n in (8, 48, 1269, 6000):
            values = [i / (n - 1) for i in range(n)]
            m = run.Measurement(op_ms=values, raw_ms=values, setups=[1.0], rss_mb=[1.0])
            metrics, notes = run.end_to_end(m, workload)
            tail = metrics["op_tail_ms"]["value"]
            if notes["tail_percentile"] != p or abs(tail - p / 100) > 1e-12:
                problems.append(f"{workload}: tail of {n} samples is p{notes['tail_percentile']} = {tail}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # shrink the inputs: two cheap named forms and one draw, one report worker
    run.NAMED_FORMS = ("e8(-24)", "sl(12,R)")
    run.DRAWN_FORMS = 1
    run.REPORT_WORKERS = 1
    run.REPORT_MIN_ROUNDS = 1
    problems = tail_problems()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
            code, result = result_line(argv)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{label}: bad result {result}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                problems.append(f"{label}: metrics {sorted(set(printed) ^ set(expected))} missing or unexpected")
            for name, unit in expected.items():
                value = printed.get(name, {})
                if value.get("unit") != unit or not math.isfinite(value.get("value", math.nan)):
                    problems.append(f"{label}: {name} printed as {value}, expected unit {unit}")
            print(f"ok {label}: {len(printed)} metrics", file=sys.stderr)

    empty = run.OUT_DIR / "selftest-empty"
    empty.mkdir(parents=True, exist_ok=True)
    os.chdir(empty)
    try:
        code, result = result_line(["--workload", "describe-cold", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(ROOT)
    if code == 0 or result is not None:
        problems.append(f"run outside a checkout: exit {code}, result {result}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
