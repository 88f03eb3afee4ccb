"""Regenerate ``strata.json``: per-fault cost and lifetime of every pool.

A fault's cost is the time the concurrent simulator spends on that
faulty circuit's own settle rounds while grading the whole pool.  A few
severe faults (decoder, control and word-line nodes) cost a hundred
times more than a typical one, so a plain random sample's grading time
swings with how many of them it happens to draw; stratifying on this
cost fixes that share.  A fault whose faulty circuit oscillates also
runs the kernel's force-to-X fallback, which this timing does not see,
so those faults form a kind of their own.  A fault's
lifetime is how many patterns it stays live under the serial
reference.  The table is committed, not
derived at run time, so the inputs a seed produces do not depend on the
simulator under test.  Rerun only when a pool's circuit, universe or
sequence changes (the benchmark refuses a stale table)::

    python3 perfbench/make_strata.py

This is input design, not measurement: it times the faulty circuits by
wrapping the settle kernel's round entry points, which only a
development tool may rely on.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import reference
from repro.core import get_backend
from repro.netlist import sim_format
from repro.switchlevel.kernel import SettleKernel
from workloads import POOLS, STRATA_PATH, Pool


def fault_costs(pool: Pool) -> tuple[list[float], list[int]]:
    """Seconds spent in each faulty circuit's rounds, by pool index,
    and the pool indices whose circuits oscillated."""
    spent: Counter[int] = Counter()
    oscillated: set[int] = set()
    step = SettleKernel.step
    force_x = SettleKernel.force_x

    def timed_step(self, circuit, stats=None, *, batch=False):
        circuit_id = getattr(circuit, "cid", None)
        if circuit_id is None:
            return step(self, circuit, stats, batch=batch)
        start = time.perf_counter()
        try:
            return step(self, circuit, stats, batch=batch)
        finally:
            spent[circuit_id] += time.perf_counter() - start

    def noted_force_x(self, circuit, *args, **kwargs):
        circuit_id = getattr(circuit, "cid", None)
        if circuit_id is not None:
            oscillated.add(circuit_id - 1)
        return force_x(self, circuit, *args, **kwargs)

    SettleKernel.step = timed_step
    SettleKernel.force_x = noted_force_x
    try:
        backend = get_backend(
            "concurrent", collapse=False, static_prune=False
        )
        backend.run(
            sim_format.loads(pool.netlist),
            list(pool.faults),
            pool.observed,
            pool.patterns,
        )
    finally:
        SettleKernel.step = step
        SettleKernel.force_x = force_x
    costs = [spent[index + 1] for index in range(len(pool.faults))]
    return costs, sorted(oscillated)


def main() -> None:
    reference.ensure_all(workers=max(1, min(2, os.cpu_count() or 1)))
    table = {}
    for spec in POOLS.values():
        pool = Pool(spec)
        costs, oscillates = fault_costs(pool)
        order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
        n_patterns = len(pool.patterns)
        table[spec.name] = {
            "digest": pool.digest,
            "order": order,
            "oscillates": oscillates,
            "lifetime": [
                reference.lifetime(hits, n_patterns)
                for hits in reference.load(pool)
            ],
        }
        print(f"{spec.name}: {len(costs)} faults, {sum(costs):.1f} s in "
              f"faulty-circuit rounds, {len(oscillates)} oscillate",
              flush=True)
    STRATA_PATH.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    print(f"wrote {STRATA_PATH}")


if __name__ == "__main__":
    main()
