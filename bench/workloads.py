"""The four benchmark workloads: runner configs, op schedules, output checks.

Every op is one ``run_command`` call; what differs between workloads is the
command and so the layer that does the work (see bench/README.md for why
each was chosen).  Inputs are fixed configs; the seed only orders the ops
(``widths_sweep`` draws each pass of its h grid in a seeded order).

Golden values were recorded at the seed commit with ``bench/record_golden.py``
and live in ``bench/golden.json``, keyed ``<workload>/<size>``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("compare_ref", "scan_shallow", "widths_sweep", "refine_fd4")
SIZES = ("full", "tiny")

_REF = """
[potential]
v1 = "2 - 2*exp(-(x+2)^2)" ; v2 = "1.9633687222225316 - 1.2*tanh(x)"
r0 = "1" ; r1 = "0"
"""

_SHALLOW = """
[potential]
v1 = "2 - 2*exp(-((x+4)/3)^2)" ; v2 = "1.6619733691878678 - 3*tanh(x)"
r0 = "1" ; r1 = "0"
"""

# (config text, n for full size, n for tiny size); NVAL is substituted.
_CONFIGS = {
    # README reference instance; the two dense 800x800 eigensolves dominate.
    "compare_ref": ("command = compare" + _REF + """
[window]
e_ref = 1.0 ; half_width = 0.2 ; c0_im = 5.0
[numerics]
scheme = chebyshev ; n = NVAL ; theta = 0.15 ; domain = [-8.0, 12.0] ; h = 0.14
""", 400, 200),
    # acceptance-battery width-law scan: 7 pinned h values (k = 6..12)
    "scan_shallow": ("command = scan" + _SHALLOW + """
[window]
e_ref = 1.3 ; half_width = 0.2
[numerics]
scheme = chebyshev ; n = NVAL ; theta = 0.25 ; domain = [-11.0, 14.0]
[scan]
e_star = 1.3 ; k_min = 6 ; k_max = KMAX
""", 400, 200),
    # formula table only: no eigensolve; h comes from the op schedule
    "widths_sweep": ("command = widths" + _REF + """
[window]
e_ref = 1.2 ; half_width = 0.4
[numerics]
n = NVAL
""", 400, 400),
    # FD4 grid doubling, one large solve per grid
    "refine_fd4": ("command = refine" + _REF + """
[window]
e_ref = 1.0 ; half_width = 0.2 ; c0_im = 5.0
[numerics]
scheme = fd4 ; n = NVAL ; theta = 0.15 ; domain = [-8.0, 12.0] ; h = 0.14
""", 400, 128),
}

_SCAN_KMAX = {"full": 12, "tiny": 8}

#: Workloads whose ops run on one thread.  Their ops rotate over the CPUs the
#: process may use, one op per CPU in turn.  On a VM whose vCPUs differ in
#: effective speed, an unpinned single-threaded process measures whichever
#: vCPU the scheduler keeps it on: on the 2-vCPU VM the benchmark was built
#: on, the spread of 20 s windows of widths ops was 20 % unpinned and 9 %
#: rotated, at the same mean.  Multi-threaded (BLAS) workloads use all CPUs.
#: Threads and processes the program starts inherit the one-CPU mask, so a
#: change that parallelises a workload's path must take it out of this list,
#: or the benchmark caps it at one CPU and hides the gain.
SINGLE_THREADED = ("widths_sweep",)

WIDTHS_H_GRID = {
    "full": (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14),
    "tiny": (0.10, 0.14),
}

# Tolerances of the output checks.  Levels and formula widths are pure
# quadrature + Newton and reproduce to ~1e-12; direct eigenvalues depend on
# the LAPACK path and thread count, and an exponentially small imaginary
# part is only good to a few digits (the FD4 matrix is far from normal).
LEVEL_ABS_TOL = 1e-9
FORMULA_REL_TOL = 1e-6
DIRECT_RE_ABS_TOL = 1e-8
DIRECT_IM_REL_TOL = {"compare_ref": 1e-3, "scan_shallow": 1e-3, "refine_fd4": 1e-2}
CONTINUUM_ABS_TOL = 1e-6
#: the k = 3 resonance of the reference instance at h = 0.14, whose golden
#: value compare_ref and refine_fd4 must reproduce
BOX_RESONANCE = 1.182 - 9.1e-10j
#: paper criterion 4: fitted slope within 10 % of -2 S(E*)
SLOPE_REL_TOL = 0.10


def config_text(workload: str, size: str) -> str:
    text, n_full, n_tiny = _CONFIGS[workload]
    text = text.replace("NVAL", str(n_full if size == "full" else n_tiny))
    return text.replace("KMAX", str(_SCAN_KMAX[size]))


def units(workload: str, size: str, seed: int):
    """Endless schedule of work units, each a list of per-op config overrides.

    A unit is the smallest batch whose per-op averages do not depend on
    where a run stops: one op, or one full pass over the widths h grid.
    """
    rng = random.Random(seed)
    while True:
        if workload == "widths_sweep":
            grid = list(WIDTHS_H_GRID[size])
            rng.shuffle(grid)
            yield [{"h": h} for h in grid]
        else:
            yield [{}]


# -- reading outputs -----------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _f(row: dict, key: str) -> float:
    return float(row[key])


def read_outputs(workload: str, out_dir: Path) -> dict:
    """Parse the files one op wrote into plain Python values."""
    if workload == "compare_ref":
        return {"records": [
            {"k": int(r["k"]), "e_k": _f(r, "e_k"),
             "width_formula": _f(r, "width_formula"),
             "re_direct": _f(r, "re_direct"), "width_direct": _f(r, "width_direct"),
             "rel_dev_im": _f(r, "rel_dev_im"), "accepted": r["accepted"] == "true"}
            for r in _read_csv(out_dir / "compare.csv")]}
    if workload == "scan_shallow":
        fit = json.loads((out_dir / "scan_fit.json").read_text())
        return {"rows": [
            {"h": _f(r, "h"), "k": int(r["k"]), "e_k": _f(r, "e_k"),
             "width_formula": _f(r, "width_formula"),
             "width_direct": _f(r, "width_direct"), "re_direct": _f(r, "re_direct"),
             "accepted": r["accepted"] == "true"}
            for r in _read_csv(out_dir / "scan.csv")],
            "slope": fit["slope"], "s_target": fit["s_target"]}
    if workload == "widths_sweep":
        return {"rows": [[int(r["k"]), _f(r, "e_k"), _f(r, "width_formula")]
                         for r in _read_csv(out_dir / "widths.csv")]}
    return {"rows": [[_f(r, "re_n"), _f(r, "im_n"), _f(r, "re_2n"), _f(r, "im_2n"),
                      _f(r, "delta")]
                     for r in _read_csv(out_dir / "refine.csv")]}


def delivered(workload: str, outputs: dict) -> int:
    """Resonances one op delivered: window records, width rows or box pairs."""
    return len(outputs["records" if workload == "compare_ref" else "rows"])


def golden_entry(workload: str, outputs: dict, params: dict) -> dict:
    """The golden record of one op's outputs (used to record golden.json)."""
    if workload == "compare_ref":
        recs = outputs["records"]
        res = min(recs, key=lambda r: abs(complex(r["re_direct"], r["width_direct"])
                                          - BOX_RESONANCE))
        return {"window_levels": len(recs),
                "records": [{k: r[k] for k in ("k", "e_k", "width_formula", "accepted",
                                               "re_direct", "width_direct")}
                            for r in recs],
                "resonance": [res["re_direct"], res["width_direct"]]}
    if workload == "scan_shallow":
        return {"window_levels": len(outputs["rows"]),
                "rows": [{k: r[k] for k in ("h", "k", "e_k", "width_formula",
                                            "width_direct", "accepted")}
                         for r in outputs["rows"]],
                "s_target": outputs["s_target"]}
    if workload == "widths_sweep":
        return {repr(params["h"]): outputs["rows"]}
    rows = outputs["rows"]
    res = min(rows, key=lambda r: abs(complex(r[0], r[1]) - BOX_RESONANCE))
    return {"rows": [r[:4] for r in rows], "resonance": res[:4]}


# -- checks --------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def _direct_matches(re, im, golden_re, golden_im, im_tol) -> bool:
    return abs(re - golden_re) <= DIRECT_RE_ABS_TOL and _rel(im, golden_im) <= im_tol


def check(workload: str, outputs: dict, golden: dict, params: dict) -> list[str]:
    """Problems found in one op's outputs against the golden values and the
    paper criteria the op exercises; an empty list means the op passed."""
    problems: list[str] = []
    if workload == "compare_ref":
        recs, gold = outputs["records"], golden["records"]
        if [r["k"] for r in recs] != [g["k"] for g in gold]:
            return [f"levels k={[r['k'] for r in recs]} != golden {[g['k'] for g in gold]}"]
        for r, g in zip(recs, gold):
            if abs(r["e_k"] - g["e_k"]) > LEVEL_ABS_TOL:
                problems.append(f"k={r['k']} e_k {r['e_k']!r} != golden {g['e_k']!r}")
            if _rel(r["width_formula"], g["width_formula"]) > FORMULA_REL_TOL:
                problems.append(f"k={r['k']} formula width {r['width_formula']!r} "
                                f"!= golden {g['width_formula']!r}")
            if r["accepted"] != g["accepted"]:
                problems.append(f"k={r['k']} accepted={r['accepted']} != golden")
            elif r["accepted"] and not _direct_matches(
                    r["re_direct"], r["width_direct"], g["re_direct"], g["width_direct"],
                    DIRECT_IM_REL_TOL[workload]):
                problems.append(f"k={r['k']} direct {r['re_direct']!r}{r['width_direct']:+.6e}i "
                                f"!= golden {g['re_direct']!r}{g['width_direct']:+.6e}i")
        re, im = golden["resonance"]
        if not any(_direct_matches(r["re_direct"], r["width_direct"], re, im,
                                   DIRECT_IM_REL_TOL[workload]) for r in recs):
            problems.append(f"box resonance {re!r}{im:+.6e}i missing")
        return problems

    if workload == "scan_shallow":
        rows, gold = outputs["rows"], golden["rows"]
        if [(r["k"], round(r["h"], 12)) for r in rows] != [(g["k"], round(g["h"], 12)) for g in gold]:
            return [f"scan rows (k, h) differ from golden: {[r['k'] for r in rows]}"]
        for r, g in zip(rows, gold):
            if abs(r["e_k"] - g["e_k"]) > LEVEL_ABS_TOL:
                problems.append(f"k={r['k']} e_k {r['e_k']!r} != golden {g['e_k']!r}")
            if _rel(r["width_formula"], g["width_formula"]) > FORMULA_REL_TOL:
                problems.append(f"k={r['k']} formula width != golden")
            if not r["accepted"]:
                problems.append(f"k={r['k']} row not accepted (criterion 4 needs all)")
            elif _rel(r["width_direct"], g["width_direct"]) > DIRECT_IM_REL_TOL[workload]:
                problems.append(f"k={r['k']} direct width {r['width_direct']!r} "
                                f"!= golden {g['width_direct']!r}")
        if _rel(outputs["s_target"], golden["s_target"]) > FORMULA_REL_TOL:
            problems.append(f"S(E*) {outputs['s_target']!r} != golden {golden['s_target']!r}")
        if outputs["slope"] is None:
            problems.append("no width-law fit")
        else:
            err = slope_rel_err(outputs)
            if err > SLOPE_REL_TOL:
                problems.append(f"slope {outputs['slope']!r} off -2S(E*) by {err:.2%}")
        return problems

    if workload == "widths_sweep":
        rows, gold = outputs["rows"], golden[repr(params["h"])]
        if [r[0] for r in rows] != [g[0] for g in gold]:
            return [f"h={params['h']}: levels k={[r[0] for r in rows]} != golden"]
        for (k, e_k, width), (_, g_e, g_w) in zip(rows, gold):
            if abs(e_k - g_e) > LEVEL_ABS_TOL:
                problems.append(f"h={params['h']} k={k} e_k {e_k!r} != golden {g_e!r}")
            if _rel(width, g_w) > FORMULA_REL_TOL:
                problems.append(f"h={params['h']} k={k} width {width!r} != golden {g_w!r}")
        return problems

    rows, gold = outputs["rows"], golden["rows"]
    if len(rows) != len(gold):
        return [f"{len(rows)} refine rows != golden {len(gold)}"]
    res = golden["resonance"]
    for row, g in zip(rows, gold):
        if g == res:
            if not (_direct_matches(row[0], row[1], g[0], g[1], DIRECT_IM_REL_TOL[workload])
                    and _direct_matches(row[2], row[3], g[2], g[3],
                                        DIRECT_IM_REL_TOL[workload])):
                problems.append(f"box resonance {row[:4]!r} != golden {g!r}")
        elif max(abs(a - b) for a, b in zip(row[:4], g)) > CONTINUUM_ABS_TOL:
            problems.append(f"refine row {row[:4]!r} != golden {g!r}")
    return problems


# -- accuracy metrics ----------------------------------------------------------


def slope_rel_err(outputs: dict) -> float:
    return abs(outputs["slope"] / (-2.0 * outputs["s_target"]) - 1.0)


def accuracy(workload: str, outputs: dict, golden: dict) -> dict:
    """The paper-facing accuracy figures of one op (deterministic per input)."""
    if workload == "compare_ref":
        acc = [r for r in outputs["records"] if r["accepted"]]
        return {"accepted_frac": len(acc) / golden["window_levels"],
                "max_rel_dev_im": max((r["rel_dev_im"] for r in acc), default=math.nan)}
    if workload == "scan_shallow":
        acc = [r for r in outputs["rows"] if r["accepted"]]
        out = {"accepted_frac": len(acc) / golden["window_levels"],
               "max_rel_dev_im": max((_rel(r["width_direct"], r["width_formula"])
                                      for r in acc), default=math.nan)}
        if outputs["slope"] is not None:
            out["slope_rel_err"] = slope_rel_err(outputs)
        return out
    if workload == "refine_fd4":
        return {"refine_drift_max": max((r[4] for r in outputs["rows"]), default=0.0)}
    return {}
