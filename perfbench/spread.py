"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--write FILE]

Run from the root of a checkout.  Spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.
Every workload gets one run per seed and then one traced run on the first
seed.  Next to the scaled metrics, the unscaled op_p50_ms and throughput and
the mean speed scale of each run are summarized the same way.  `--write`
saves every value, with the commit that `git rev-parse HEAD` names, as a
trajectory point.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

UNSCALED = ("unscaled_op_p50_ms", "unscaled_throughput_per_s", "speed_scale")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The result line, the stderr summary as `notes` and the wall time."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    notes = next(json.loads(line) for line in proc.stderr.splitlines() if line.startswith('{"workload"'))
    return {**result, "notes": notes, "wall_s": wall}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--write")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {
        "commit": commit(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "end_to_end": {},
        "unscaled": {},
        "wall_s": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {name: [] for name in UNSCALED}
        point["wall_s"][workload] = walls = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed, 0)
            walls.append(result["wall_s"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in UNSCALED:
                raw[name].append(result["notes"][name])
            line = " ".join(f"{n}={v[-1]:.4g}" for n, v in (*values.items(), *raw.items()))
            print(f"{workload} seed {seed}: {line} wall={result['wall_s']:.1f}s", file=sys.stderr)
        point["end_to_end"][workload] = {name: summarize(v) for name, v in values.items()}
        point["unscaled"][workload] = {name: summarize(v) for name, v in raw.items()}
        for name, s in point["end_to_end"][workload].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else ("WIDE" if s["spread"] <= bounds[name] else "OVER")
            print(
                f"{workload:14s} {name:26s} median {s['median']:10.4f} q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                f"spread {s['spread']:.3f} bound {bounds[name]} {flag}"
            )
        for name, s in point["unscaled"][workload].items():
            print(f"{workload:14s} {name:26s} median {s['median']:10.4f} spread {s['spread']:.3f}")
        metrics = run_once(spec, workload, args.seeds[0], 1)["metrics"]
        point["per_layer"][workload] = {name: m["value"] for name, m in metrics.items()}
    if args.write:
        Path(args.write).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
