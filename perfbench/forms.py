"""Real-form names for the benchmark inputs.

The names come from the package catalog as `make_reference.py` recorded it
in reference.json: name -> [type letter, complex rank, number of roots].
Each input carries its complex simple type, so the traced run can build the
root system before the Satake layer asks for it.
"""

from __future__ import annotations

import random

# ROADMAP's four named forms: every describe-cold pass runs them
NAMED_FORMS = ("e8(8)", "e8(-24)", "sl(25,R)", "su(12,13)")

# describe-cold draws from catalog entries of complex rank 10..25 that have at
# most as many roots as sl(25,R), the largest named form
POOL_RANKS = (10, 25)
POOL_MAX_ROOTS = 600


def job_form(catalog: dict, name: str) -> list:
    """[name, type letter, complex rank]: one input as a worker receives it."""
    letter, rank, _ = catalog[name]
    return [name, letter, rank]


def catalog_forms(catalog: dict, max_rank: int) -> list[list]:
    """The catalog entries up to complex rank max_rank, sorted by name."""
    return [job_form(catalog, name) for name in sorted(catalog) if catalog[name][1] <= max_rank]


def pool_names(catalog: dict) -> list[str]:
    lo, hi = POOL_RANKS
    return sorted(
        name for name, (_, rank, roots) in catalog.items() if lo <= rank <= hi and roots <= POOL_MAX_ROOTS
    )


def stratified_draw(pool: list[str], cost: dict[str, float], count: int, seed: int) -> list[str]:
    """One name from each of `count` strata of the pool ordered by `cost`,
    each stratum holding an equal share of the pool's total cost.  Every
    seed draws the same spread of input sizes, and the costly entries, which
    set the tail and the throughput, come from narrow strata."""
    ordered = sorted(pool, key=lambda n: (cost[n], n))
    total = sum(cost[n] for n in ordered)
    bounds, acc = [0], 0.0
    for i, name in enumerate(ordered):
        acc += cost[name]
        if len(bounds) < count and acc >= len(bounds) * total / count:
            bounds.append(i + 1)
    bounds.append(len(ordered))
    rng = random.Random(seed)
    return [rng.choice(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
