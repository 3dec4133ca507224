"""Smoke tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest bench/tests -q

Each test starts ``bench/run.py`` from the repository root and reads
the JSON line it prints last.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "bench"))
from run import tail  # noqa: E402


def _bench(*args, cwd=ROOT, script="bench/run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _copy_bench(dest: Path) -> Path:
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    return dest / "bench"


def _tiny(*args, script="bench/run.py"):
    proc = _bench("--size", "tiny", *args, script=script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(workload, trace, section):
    report, line = _tiny("--workload", workload, "--trace", str(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert report["failed_frac"] == 0.0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == want
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if section == "end_to_end":
            assert metric["value"] > 0, name
    assert set(report["samples"]) == set(want)
    for key in ("nproc", "blas", "blas_threads_env", "python", "numpy", "scipy",
                "source_sha256"):
        assert report["env"][key] is not None, key


def _corrupt(workload: str, entry: dict) -> None:
    if workload == "compare_ref":
        entry["records"][-1]["e_k"] += 1e-3
    elif workload == "scan_shallow":
        entry["rows"][0]["width_formula"] *= 1.01
    elif workload == "widths_sweep":
        for rows in entry.values():
            rows[0][2] *= 1.01
    else:
        row = next(r for r in entry["rows"] if r != entry["resonance"])
        row[0] += 1e-3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_golden_value_fails_ops(workload, tmp_path):
    bench = _copy_bench(tmp_path)
    golden = json.loads((bench / "golden.json").read_text())
    _corrupt(workload, golden[f"{workload}/tiny"])
    (bench / "golden.json").write_text(json.dumps(golden))
    report, line = _tiny("--workload", workload, "--trace", "0", script=bench / "run.py")
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
    assert report["failed_frac"] == 1.0
    assert report["problems"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    _copy_bench(tmp_path)
    proc = _bench("--workload", "compare_ref", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert tail(values) == (89.0, 90.0, 10)
    assert tail(values[:15]) == (14.0, 100.0, 0)
