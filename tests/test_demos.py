"""Smoke test of the demo scripts (each runs to completion, warning-free)
and of the README's examples."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from predissoc import ResonanceRecord, parse_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    """Run in a fresh interpreter from an empty working directory, so a demo
    that leans on the repository layout or leaves files behind shows up;
    anything on stderr (a warning, a traceback) fails it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def _readme_block(heading, lang):
    """The first ``lang`` code block under the README's ``## heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_readme_examples_run():
    """The README's Quickstart code runs and its Batch-runs config parses,
    so a change to a public signature cannot leave either stale."""
    namespace = {}
    exec(compile(_readme_block("Quickstart", "python"), "README.md", "exec"), namespace)
    assert len(namespace["records"]) == 2
    cfg = parse_config(_readme_block("Batch runs", "ini"))
    assert cfg.command == "compare" and cfg.h == 0.14


def test_readme_outputs_list_the_record_columns():
    """The README's Outputs list gives compare.csv and scan.csv the fields of
    ResonanceRecord as columns, so a column added to one table but not the
    other, or to the record but not the docs, fails here."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    record = [f.name for f in dataclasses.fields(ResonanceRecord)]
    for name in ("compare.csv", "scan.csv"):
        [columns] = re.findall(rf"^- `{re.escape(name)}` \(`\w+`\): `([^`]+)`", section, re.M)
        assert columns.split(",") == record


def test_package_root_names_resolve():
    """Every name in the package root's ``__all__`` is one of its
    attributes, so ``from predissoc import *`` gives each public name."""
    import predissoc

    assert [name for name in predissoc.__all__ if not hasattr(predissoc, name)] == []
