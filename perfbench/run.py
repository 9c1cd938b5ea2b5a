"""Repository benchmark: four workloads of the multicast mesh simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics (``sim_s_per_host_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` adds one traced pass and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name the workload's ``sim_digest``, the
host and every check that failed.  ``--workload all`` runs each workload
in its own process and prints one table.  See README.md next to this file
for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: cache directories and trace files.
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("paper_run", "testbed", "paper_grid", "city_flood")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from workloads import workloads

    workload = workloads(WORK_DIR)[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    measured = workload.measure(args.seed, args.seconds, bool(args.trace))
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "phy_backend": measured.phy_backends,
    }
    print(f"workload {workload.name} seed {args.seed}")
    print(f"sim_digest {measured.digest}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"runs_attempted {measured.attempted} runs_failed {measured.failed}")
    for problem in measured.problems:
        print(f"check failed: {problem}")
    if args.trace:
        metrics = dict(measured.trace or {})
        trace_file = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {"workload": workload.name, "seed": args.seed, "host": host,
                 "sim_digest": measured.digest, "spans": measured.spans,
                 "metrics": {name: value for name, (value, _unit) in metrics.items()}},
                indent=1, sort_keys=True,
            )
        )
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "sim_s_per_host_s": (statistics.median(measured.pass_rates), "sim_s/s"),
            "setup_s": (statistics.median(measured.setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not measured.problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (peak memory stays per workload)."""
    rows: Dict[str, Dict[str, Any]] = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not completed.stdout.strip():
            rows[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            continue
        rows[name] = json.loads(completed.stdout.strip().splitlines()[-1])
    print()
    for name, row in rows.items():
        cells = " ".join(
            f"{metric}={entry['value']:.6g} {entry['unit']}"
            for metric, entry in row["metrics"].items()
        )
        print(
            f"{name:<11} correct={row['correct']} runs_attempted={row['attempted']} "
            f"runs_failed={row['failed']} {cells}"
        )
    print(json.dumps({
        "correct": all(row["correct"] for row in rows.values()),
        "attempted": sum(row["attempted"] for row in rows.values()),
        "failed": sum(row["failed"] for row in rows.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, row in rows.items()
            for metric, entry in row["metrics"].items()
        },
    }))
    return 0 if all(row["correct"] for row in rows.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator source under {ROOT / 'src' / 'repro'}; "
            "run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
