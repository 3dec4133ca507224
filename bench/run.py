"""predissoc benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload compare_ref --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see bench/README.md).  The line before it summarises the run (machine,
library versions, sample counts, accuracy figures), and the full report,
with the per-function table of a traced run, is written to ``bench/out/``.

Set-up is measured in ``SETUP_SAMPLES`` fresh processes besides the one that
runs the ops, and reported as the median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
#: fresh processes that only set up, on top of the workload process
SETUP_SAMPLES = 4
#: wall-clock budget of the whole run is RUN_LIMIT_BASE_S + RUN_LIMIT_PER_S
#: x --seconds (170 s at --seconds 30); every process is killed past it
RUN_LIMIT_BASE_S = 50.0
RUN_LIMIT_PER_S = 4.0
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "levels_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "runner.parse_s": "s",
    "runner.self_s": "s/op",
    "potentials.system_build_s": "s",
    "potentials.self_s": "s/op",
    "expressions.eval_calls": "count/op",
    "expressions.eval_points": "count/op",
    "expressions.eval_s": "s/op",
    "expressions.self_s": "s/op",
    "turning_points.well_calls": "count/op",
    "turning_points.exit_calls": "count/op",
    "turning_points.well_calls_per_level": "ratio",
    "turning_points.self_s": "s/op",
    "actions.action_calls": "count/op",
    "actions.action_derivative_calls": "count/op",
    "actions.agmon_calls": "count/op",
    "actions.self_s": "s/op",
    "spectrum.levels_s": "s/op",
    "spectrum.estimates_s": "s/op",
    "spectrum.levels_found": "count/op",
    "spectrum.skipped": "count/op",
    "spectrum.self_s": "s/op",
    "solver.assembly_s": "s/op",
    "solver.assembly_calls": "count/op",
    "solver.eig_s": "s/op",
    "solver.eig_calls": "count/op",
    "solver.eig_dim_max": "count",
    "solver.eig_bytes_computed": "bytes/op",
    "solver.eigs_computed": "count/op",
    "solver.eigs_in_box": "count/op",
    "solver.box_yield": "ratio",
    "solver.match_s": "s/op",
    "solver.self_s": "s/op",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run bench/child.py to completion; returns (spawn time, its JSON)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *argv],
                              env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:2]} exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return spawned, json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples above it; the maximum when that percentile would lie
    below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "predissoc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _worst_accuracy(ops: list[dict]) -> dict:
    out: dict[str, float] = {}
    for op in ops:
        for key, value in op["accuracy"].items():
            if math.isnan(value):
                continue
            worse = min if key == "accepted_frac" else max
            out[key] = worse(out[key], value) if key in out else value
    return out


def run(args) -> tuple[dict, dict]:
    """Carry out one run; returns (result line, full report)."""
    root = Path.cwd()
    if not (root / "src" / "predissoc" / "__init__.py").is_file():
        raise BenchError(f"no predissoc sources under {root / 'src'}; run from the repo root")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    env = _child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_BASE_S + RUN_LIMIT_PER_S * args.seconds
    base = ["--workload", args.workload, "--size", args.size]

    setups = []
    for _ in range(SETUP_SAMPLES):
        spawned, res = _spawn(base + ["--setup-only"], env, deadline)
        setups.append(dict(res["setup"], setup_s=res["setup"]["ready"] - spawned))
    spans_path = out_dir / f"spans-{tag}.jsonl"
    spawned, res = _spawn(base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace),
                                  "--out-dir", str(out_dir), "--spans", str(spans_path)],
                          env, deadline)
    setups.append(dict(res["setup"], setup_s=res["setup"]["ready"] - spawned))

    ops = res["ops"]
    failed = [op for op in ops if op["problems"]]
    secs = [op["s"] for op in ops]
    tail_s, tail_pct, tail_beyond = tail(secs)
    if args.trace:
        traced = [op["s"] for op in ops if op["traced"]]
        untraced = [op["s"] for op in ops if not op["traced"]]
        metrics = dict(res["per_layer"])
        metrics["runner.parse_s"] = statistics.median(s["parse_s"] for s in setups)
        metrics["potentials.system_build_s"] = statistics.median(s["build_s"] for s in setups)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        units = PER_LAYER_UNITS
        samples = {name: len(traced) for name in units}
        samples.update({"runner.parse_s": len(setups), "potentials.system_build_s": len(setups),
                        "trace.overhead_frac": len(ops)})
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_s_p50": statistics.median(secs),
            "op_s_tail": tail_s,
            "levels_per_s": sum(op["delivered"] for op in ops) / sum(secs),
            "peak_rss_mb": res["rss_mb"],
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": len(setups), "op_s_p50": len(ops), "op_s_tail": len(ops),
                   "levels_per_s": len(ops), "peak_rss_mb": 1}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")

    line = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    report = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), **res["env"],
            "git_sha": _git_sha(root), "source_sha256": _source_sha256(root),
            "machine": platform.machine(),
        },
        "samples": samples,
        "op_s_tail": {"percentile": tail_pct, "beyond": tail_beyond, "samples": len(ops)},
        "failed_frac": len(failed) / len(ops),
        "accuracy": _worst_accuracy(ops),
        "setup": {key: statistics.median(s[key] for s in setups)
                  for key in ("setup_s", "import_s", "parse_s", "build_s")},
        "problems": [p for op in failed for p in op["problems"]][:20],
        "metrics": line["metrics"],
    }
    if args.trace:
        report["traced_ops"] = len(traced)
        report["op_s_p50_untraced"] = statistics.median(untraced)
        report["op_s_p50_traced"] = statistics.median(traced)
        report["spans_file"] = str(spans_path.relative_to(root))
    full = dict(report, functions=res.get("functions", {}), ops=ops)
    (out_dir / f"report-{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    try:
        line, report = run(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
