"""Full paper-scale calibration run.

Runs the Section 4 simulation comparison (50 nodes, 400 s, 10 topologies)
and the Section 5 testbed comparison (400 s, 5 seeds), printing the
Figure 2 columns and Table 1 next to the paper's numbers.

The simulation sweep fans out across worker processes (``--jobs``,
default one per CPU) and reuses the on-disk result cache, so a re-run
after a config tweak only recomputes the runs the tweak touched; pass
``--no-cache`` after *code* changes (the cache key covers config fields,
not source).  Serially this sweep takes tens of minutes; see
``results_full_scale.log`` for a pre-parallel trace.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.tables import render_comparison
from repro.experiments import figures
from repro.experiments.executors import create_executor
from repro.experiments.parallel import sweep_specs
from repro.experiments.results import aggregate_runs, normalized_metric_table
from repro.experiments.scenarios import (
    PROTOCOL_NAMES,
    SimulationScenarioConfig,
)


def log(message: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {message}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and bypass the on-disk result cache")
    parser.add_argument("--topologies", type=int, default=10,
                        help="random topologies (paper: 10)")
    args = parser.parse_args(argv)

    seeds = tuple(range(1, args.topologies + 1))
    log(f"simulation sweep: seeds {seeds}, jobs={args.jobs or 'auto'}")
    specs = sweep_specs(SimulationScenarioConfig(), PROTOCOL_NAMES, seeds)
    wall_start = time.time()
    outcomes = create_executor(
        jobs=args.jobs, use_cache=not args.no_cache
    ).execute(specs)
    runs = []
    for outcome in outcomes:
        result = outcome.result
        if outcome.failed:
            log(
                f"seed {outcome.spec.seed} {result.protocol:6s} FAILED:\n"
                f"{result.error}"
            )
            continue
        source = "cache" if outcome.from_cache else f"{outcome.elapsed_s:.0f}s"
        log(
            f"seed {outcome.spec.seed} {result.protocol:6s} "
            f"pdr={result.packet_delivery_ratio:.3f} "
            f"delay={result.mean_delay_s or -1:.4f} "
            f"ovh={result.probe_overhead_pct:.2f}% ({source})"
        )
        runs.append(result)
    log(f"sweep wall-clock: {time.time() - wall_start:.0f}s "
        f"({len(runs)}/{len(specs)} runs ok)")
    if not runs:
        log("every run failed; nothing to aggregate")
        return 1

    aggregates = aggregate_runs(runs)
    throughput = normalized_metric_table(aggregates, "throughput")
    delay = normalized_metric_table(aggregates, "delay")
    print(render_comparison(
        throughput, figures.PAPER_THROUGHPUT_SIMULATIONS,
        title="== Figure 2: Throughput-simulations =="))
    print(render_comparison(
        delay, figures.PAPER_DELAY, title="== Figure 2: Delay =="))
    overhead = {
        name: agg.mean_probe_overhead_pct
        for name, agg in aggregates.items() if name != "odmrp"
    }
    print(render_comparison(
        overhead, figures.PAPER_TABLE1_OVERHEAD_PCT,
        value_label="overhead %",
        title="== Table 1: probing overhead =="))

    log("testbed sweep")
    testbed = figures.figure2_throughput_testbed()
    print(render_comparison(
        testbed.measured, testbed.paper,
        title="== Figure 2: Throughput-testbed =="))
    log("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
