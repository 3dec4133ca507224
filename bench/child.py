"""One benchmark process: set up, run ops until the deadline, print JSON.

``bench/run.py`` starts this script in a fresh interpreter, so the setup
time (imports included) and the peak RSS it reports belong to one workload
alone.  The last line of standard output is one JSON object.

Setup is: import the package, ``parse_config`` the workload's config and
build its ``PotentialSystem``.  With ``--setup-only`` the process stops
there.  Otherwise it runs work units (see ``workloads.units``) one at a
time, closed loop, and does not start a unit it expects to finish after
the deadline.  With ``--trace 1`` units alternate untraced and traced, at
least one of each, so the run measures its own tracing overhead.  Ops of a
single-threaded workload rotate over the allowed CPUs, each op pinned to
one CPU (see ``workloads.SINGLE_THREADED``); the result records the CPUs
an op may use as ``op_affinity_cpus``.  The golden values are read from
``golden.json`` beside this script.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer


def _blas_info() -> dict:
    """BLAS build name/version and the thread count of each loaded OpenBLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads[Path(lib).name] = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _run_op(runner, cfg, params, tmp: Path, workload: str, golden: dict) -> dict:
    for stale in tmp.iterdir():
        stale.unlink()
    op_cfg = dataclasses.replace(cfg, out_dir=str(tmp), **params)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = runner.run_command(op_cfg)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            code = f"{type(exc).__name__}: {exc}"
        secs = time.perf_counter() - start
    record = {"s": secs, "params": params, "delivered": 0, "accuracy": {}}
    if code != 0:
        record["problems"] = [f"run_command -> {code}: {err.getvalue().strip()[:300]}"]
        return record
    try:
        outputs = workloads.read_outputs(workload, tmp)
        record["problems"] = workloads.check(workload, outputs, golden, params)
        record["delivered"] = workloads.delivered(workload, outputs)
        record["accuracy"] = workloads.accuracy(workload, outputs, golden)
    except (OSError, KeyError, ValueError, TypeError, StopIteration) as exc:
        record["problems"] = [f"unreadable outputs: {type(exc).__name__}: {exc}"]
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out-dir")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import predissoc.runner as runner
    t1 = time.perf_counter()
    cfg = runner.parse_config(workloads.config_text(args.workload, args.size))
    t2 = time.perf_counter()
    cfg.system()
    t3 = time.perf_counter()
    setup = {"ready": time.monotonic(), "import_s": t1 - t0,
             "parse_s": t2 - t1, "build_s": t3 - t2}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    golden_path = Path(__file__).resolve().parent / "golden.json"
    golden = json.loads(golden_path.read_text())[f"{args.workload}/{args.size}"]
    out_root = Path(args.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="op-", dir=out_root))
    tracer = Tracer() if args.trace else None
    ops: list[dict] = []
    unit_s: list[float] = []
    units_done = {False: 0, True: 0}
    cpus = sorted(os.sched_getaffinity(0))
    rotate = args.workload in workloads.SINGLE_THREADED
    deadline = time.perf_counter() + args.seconds
    try:
        for index, unit in enumerate(workloads.units(args.workload, args.size, args.seed)):
            traced = tracer is not None and index % 2 == 1
            if unit_s and time.perf_counter() + statistics.median(unit_s) > deadline:
                if tracer is None or (units_done[False] and units_done[True]):
                    break
            start = time.perf_counter()
            if traced:
                tracer.install()
            try:
                for params in unit:
                    if rotate:
                        os.sched_setaffinity(0, {cpus[len(ops) % len(cpus)]})
                    if traced:
                        tracer.op = len(ops)
                    record = _run_op(runner, cfg, params, tmp, args.workload, golden)
                    record["traced"] = traced
                    ops.append(record)
            finally:
                if traced:
                    tracer.uninstall()
            unit_s.append(time.perf_counter() - start)
            units_done[traced] += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import numpy
    import scipy

    result = {
        "setup": setup,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": _blas_info(), "op_affinity_cpus": 1 if rotate else len(cpus)},
    }
    if tracer is not None:
        n_traced = sum(1 for op in ops if op["traced"])
        result["per_layer"] = tracer.per_layer(n_traced)
        result["functions"] = tracer.functions()
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "parent", "op", "name", "start", "end", "self_s"), span))))
                    fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
