"""Record bench/baseline.json and print the stage table it gives.

    python3 bench/baseline.py --seed 1 --seconds 30   # run and record
    python3 bench/baseline.py --table                 # table of the committed file

Recording makes one untraced and one traced run of every workload with
``bench/run.py`` and keeps each run's report (per-op records dropped).  The
table lists the stages of the reference-instance pipeline with the mean
time per call from the traced runs, which include the tracing overhead
that ``trace.overhead_frac`` reports.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "baseline.json"

# (label, workload, function-table key)
STAGES = (
    ("compare, end to end (`run_command`)", "compare_ref", "runner.run_command"),
    ("dense `eigvals`, 800x800 (twice per compare)", "compare_ref", "scipy.linalg.eigvals[800]"),
    ("dense `eigvals`, 1600x1600 (FD4 n = 800, refine)", "refine_fd4", "scipy.linalg.eigvals[1600]"),
    ("`build_hamiltonian`, Chebyshev n = 400", "compare_ref", "solver.build_hamiltonian"),
    ("`resonance_estimates` (2 levels)", "compare_ref", "spectrum.resonance_estimates"),
    ("`find_well_endpoints`", "compare_ref", "turning_points.find_well_endpoints"),
    ("`action`", "compare_ref", "actions.action"),
    ("`agmon_distance`", "compare_ref", "actions.agmon_distance"),
    ("scan, end to end (7 h values)", "scan_shallow", "runner.run_command"),
    ("widths, one op (mean over the h grid)", "widths_sweep", "runner.run_command"),
    ("refine, end to end", "refine_fd4", "runner.run_command"),
)


def record(seed: int, seconds: float) -> dict:
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            subprocess.run(cmd, check=True, capture_output=True, timeout=200)
            tag = f"{workload}-full-seed{seed}-trace{trace}"
            report = json.loads((BENCH_DIR / "out" / f"report-{tag}.json").read_text())
            report.pop("ops")
            runs[f"{workload}/trace{trace}"] = report
    return runs


def table(runs: dict) -> str:
    lines = ["| stage | calls per op | mean per call, traced | op p50, untraced ops of the same run |",
             "|---|---|---|---|"]
    for label, workload, key in STAGES:
        traced = runs[f"{workload}/trace1"]
        fn = traced["functions"][key]
        p50 = f"{traced['op_s_p50_untraced']:.3f} s" if key == "runner.run_command" else ""
        lines.append(f"| {label} | {fn['calls'] / traced['traced_ops']:g} "
                     f"| {fn['mean_s'] * 1e3:.1f} ms | {p50} |")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", action="store_true", help="only print the committed table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if not args.table:
        BASELINE.write_text(json.dumps(record(args.seed, args.seconds), indent=1) + "\n")
    print(table(json.loads(BASELINE.read_text())))


if __name__ == "__main__":
    main()
