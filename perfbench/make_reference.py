"""Regenerate perfbench/reference.json from the package in `src/`.

    python3 perfbench/make_reference.py      # from the root of a checkout

The reference holds the package catalog up to complex rank 25 (name ->
[type letter, rank, number of roots]), from which the workloads take their
inputs; for every name a workload can run, the SHA-256 of
`lieorbits describe <name> --format json` (the byte-identity guard); the cold
describe time of every named form and describe-cold pool entry, scaled to
nominal machine speed as in a benchmark run and the median of three passes,
which orders the strata of the seeded draw; and the entry and check counts
of the verify sweep.  Every op passes the same output checks as in a benchmark run.
Regenerate it only at a commit whose output is known to be right: the gate
compares later commits against it.  It takes about fifteen minutes on two cores.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

from forms import NAMED_FORMS, POOL_RANKS, catalog_forms, job_form, pool_names
from run import REFERENCE, REPORT_MAX_RANK, VERIFY_MAX_RANK, Workers

COST_PASSES = 3


def main() -> None:
    workers = Workers(Path.cwd())
    workers.run({"workload": "import"})
    _, result = workers.run({"workload": "catalog", "max_rank": POOL_RANKS[1]})
    catalog = result["catalog"]
    costed = sorted(set(NAMED_FORMS) | set(pool_names(catalog)))
    names = sorted(set(costed) | {f[0] for f in catalog_forms(catalog, REPORT_MAX_RANK)})
    digests: dict[str, str] = {}
    cost_ms: dict[str, list[float]] = {}
    # whole passes, minutes apart, so each time is the median of runs made
    # under different load on the machine
    for cost_pass in range(COST_PASSES):
        for i, name in enumerate(names if cost_pass == 0 else costed):
            job = {"workload": "describe-cold", "form": job_form(catalog, name), "routes": cost_pass == 0}
            _, result = workers.run(job)
            digest = result["digests"][name]
            if result["failures"] or digests.setdefault(name, digest) != digest:
                raise SystemExit(f"{name}: {result['failures'] or 'output differs between runs'}")
            if name in costed:
                ((ms, speed),) = result["op_ms"]
                cost_ms.setdefault(name, []).append(ms * speed)
            print(f"pass {cost_pass + 1}/{COST_PASSES} [{i + 1}] {name}", file=sys.stderr)

    forms = catalog_forms(catalog, VERIFY_MAX_RANK)
    _, result = workers.run({"workload": "verify-sweep", "max_rank": VERIFY_MAX_RANK, "forms": forms})
    if result["failures"]:
        raise SystemExit(f"verify --max-rank {VERIFY_MAX_RANK} fails; refusing to record a reference")
    reference = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores",
        "catalog": catalog,
        "describe_sha256": digests,
        "describe_ms": {name: round(statistics.median(ms), 1) for name, ms in cost_ms.items()},
        "verify": {str(VERIFY_MAX_RANK): {"entries": result["entries"], "checks_run": result["checks"]}},
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
