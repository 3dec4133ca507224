"""Record bench/golden.json from the program as it stands.

    PYTHONPATH=src python3 bench/record_golden.py

Run it only at a commit whose outputs are the accepted reference (the file
in the repository was recorded at the commit that introduced the
benchmark): every benchmark op is checked against what it writes.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import workloads
from predissoc.runner import parse_config, run_command

BENCH_DIR = Path(__file__).resolve().parent


def record(workload: str, size: str) -> dict:
    cfg = parse_config(workloads.config_text(workload, size))
    entry: dict = {}
    for params in next(workloads.units(workload, size, seed=0)):
        with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
            code = run_command(dataclasses.replace(cfg, out_dir=tmp, **params))
            if code != 0:
                raise SystemExit(f"{workload}/{size} {params}: run_command exited {code}")
            outputs = workloads.read_outputs(workload, Path(tmp))
        entry.update(workloads.golden_entry(workload, outputs, params))
    return entry


def main() -> None:
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    golden = {f"{w}/{s}": record(w, s) for w in workloads.WORKLOADS for s in workloads.SIZES}
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
