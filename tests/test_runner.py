"""Config parsing, the h-scan helpers, and the file-producing commands."""

import csv
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predissoc
from predissoc import (
    DiscretizationConfig,
    EnergyWindow,
    ResonanceRecord,
    RunConfig,
    ScanResult,
    bohr_sommerfeld_levels,
    fit_width_slope,
    parse_config,
    pin_level_h,
    run_command,
    run_scan,
)
from predissoc import spectrum
from predissoc.errors import BarrierViolation, ConfigError, InsufficientData
from predissoc.runner import _KEYS, main

BASE = '''
[potential]
v1 = "2 - 2*exp(-(x+2)^2)" ; v2 = "1.9633687222225316 - 1.2*tanh(x)"
r0 = "1" ; r1 = "0"

[window]
e_ref = 1.0 ; half_width = 0.2 ; c0_im = 5.0

[numerics]
scheme = chebyshev ; n = 200 ; theta = 0.15 ; domain = [-8.0, 12.0] ; h = 0.14
'''


def test_parse_reference_config():
    cfg = parse_config(BASE)
    assert cfg.v1 == "2 - 2*exp(-(x+2)^2)"
    assert cfg.v2 == "1.9633687222225316 - 1.2*tanh(x)"
    assert cfg.r0 == "1" and cfg.r1 == "0"
    assert cfg.e_ref == 1.0 and cfg.half_width == 0.2 and cfg.c0_im == 5.0
    assert cfg.scheme == "chebyshev_collocation"
    assert cfg.n == 200 and cfg.theta == 0.15
    assert cfg.domain == (-8.0, 12.0)
    assert cfg.h == 0.14
    # the parsed strings build a working system and window
    sys_ = cfg.system()
    assert sys_.v1(0.0) == pytest.approx(sys_.v2(0.0), abs=1e-9)
    w = cfg.window()
    assert (w.lo, w.hi) == (0.8, 1.2)
    disc = cfg.discretization()
    assert disc.scheme == "chebyshev_collocation" and disc.n == 200


def test_parse_is_quote_aware():
    # ';' and '#' inside a quoted expression are literal characters,
    # not separators or comment starts
    text = BASE.replace('r0 = "1"', 'r0 = "1 # 2; x"')
    cfg = parse_config(text)
    assert cfg.r0 == "1 # 2; x"
    # outside quotes a '#' still starts a comment
    cfg2 = parse_config("command = levels # run the level table\n" + BASE)
    assert cfg2.command == "levels"


def test_parse_errors_carry_line_numbers():
    text = "command = levels\n[window]\ne_ref = oops\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: malformed number")


@pytest.mark.parametrize("mutate, pattern", [
    (("n = 200", "n = 4.5"), "malformed integer"),
    (("e_ref = 1.0", "e_ref = 1.0 ; e_max = 2"), "unknown key 'e_max'"),
    (("[window]", "[grid]"), re.escape("unknown section [grid]")),
    (("scheme = chebyshev", "scheme = spectral"), "unknown scheme 'spectral'"),
    (("half_width = 0.2", "half_width = 0.2 ; e_ref = 1.1"), "duplicate key"),
    (('v1 = "2 - 2*exp(-(x+2)^2)"', "v1 = 2 - 2*exp(-(x+2)^2)"),
     "quoted expression"),
    (("domain = [-8.0, 12.0]", "domain = [12.0, -8.0]"), "domain must be"),
    (("domain = [-8.0, 12.0]", "domain = -8.0"), r"expected a \[..\] list"),
    (("[numerics]", "[numerics"), "malformed section header"),
    (("r0 = \"1\" ; r1 = \"0\"", "just some words"), "expected key = value"),
    (("[potential]", "frobnicate = 1\n[potential]"),
     "unknown top-level key 'frobnicate'"),
])
def test_parse_rejections(mutate, pattern):
    old, new = mutate
    with pytest.raises(ConfigError, match=pattern):
        parse_config(BASE.replace(old, new))


#: (section, key) -> (config token, parsed RunConfig value), one per key
#: of the parser's key table, each unlike the field's default.
KEY_SAMPLES = {
    ("potential", "v1"): ('"x^2 + 1"', "x^2 + 1"),
    ("potential", "v2"): ('"2 - x"', "2 - x"),
    ("potential", "r0"): ('"0.5"', "0.5"),
    ("potential", "r1"): ('"x"', "x"),
    ("window", "e_ref"): ("1.3", 1.3),
    ("window", "half_width"): ("0.3", 0.3),
    ("window", "c0_im"): ("2.5", 2.5),
    ("numerics", "scheme"): ("fd4", "finite_difference_4"),
    ("numerics", "n"): ("128", 128),
    ("numerics", "theta"): ("0.2", 0.2),
    ("numerics", "domain"): ("[-9.0, 11.0]", (-9.0, 11.0)),
    ("numerics", "h"): ("0.1", 0.1),
    ("scan", "e_star"): ("1.3", 1.3),
    ("scan", "k_min"): ("6", 6),
    ("scan", "k_max"): ("12", 12),
    ("output", "out_dir"): ('"runs/a b"', "runs/a b"),
    (None, "command"): ("levels", "levels"),
}


@pytest.mark.parametrize("place", list(KEY_SAMPLES), ids=lambda p: f"{p[0]}.{p[1]}")
def test_every_key_sets_its_field(place):
    assert set(KEY_SAMPLES) == set(_KEYS)
    section, key = place
    token, expected = KEY_SAMPLES[place]
    body = {"potential": {"v1": '"x^2"', "v2": '"-x"'},
            "window": {"e_ref": "1.0", "half_width": "0.2"}}
    if section is not None:
        body.setdefault(section, {})[key] = token
    text = (f"{key} = {token}\n" if section is None else "") + "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
        for name, pairs in body.items())
    assert getattr(parse_config(text), key) == expected


def test_readme_key_table_lists_every_key():
    """The config table under "Batch runs" in the README names exactly the
    keys of the parser's table, so adding or removing a key cannot leave
    the documentation stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Batch runs\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("| ") or cells[:2] == ["section", "key"]:
            continue
        place = None if cells[0] == "top level" else cells[0].strip("`[]")
        documented |= {(place, key) for key in re.findall(r"`(\w+)`", cells[1])}
    assert documented == set(_KEYS)


@pytest.mark.parametrize("mutate, pattern", [
    (("n = 200", "n = 10"), "at least 64 interior grid points"),
    (("half_width = 0.2", "half_width = -0.2"), "half_width must be positive"),
    (("c0_im = 5.0", "c0_im = 0"), "im_depth_coeff must be positive"),
    (("domain = [-8.0, 12.0]", "domain = [1.0, 5.0]"), "crossing point"),
    (("theta = 0.15", "theta = 0.15 ; smoothing_width = 3.0"),
     r"line \d+: unknown key 'smoothing_width' in \[numerics\]"),
    (("theta = 0.15", "theta = 0.9"), "scaling angle 0.9 outside"),
    (("h = 0.14", "h = 0"), r"line \d+: h must be positive"),
    (("h = 0.14", "h = -0.1"), r"line \d+: h must be positive"),
    (("h = 0.14", "h = nan"), r"line \d+: non-finite number 'nan'"),
    (("e_ref = 1.0", "e_ref = inf"), r"line \d+: non-finite number 'inf'"),
    (("e_ref = 1.0", "e_ref = nan"), r"line \d+: non-finite number 'nan'"),
    (("h = 0.14", "h = 0.14\n[scan]\nh_grid = [0.14, 0.0, 0.12]"),
     r"line \d+: unknown key 'h_grid' in \[scan\]"),
    (("h = 0.14", "h = 0.14 ; x_start_scaling = 6.0"),
     r"line \d+: unknown key 'x_start_scaling' in \[numerics\]"),
    (("h = 0.14", "h = 0.14 ; stab_tol = 1e-6"),
     r"line \d+: unknown key 'stab_tol' in \[numerics\]"),
])
def test_out_of_range_values_are_config_errors(mutate, pattern, tmp_path, capsys):
    """Out-of-range and non-finite values exit 1 with one JSON record, as
    do the removed keys (h_grid and the complex-scaling ones), now unknown."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE.replace(*mutate) + f"\n[output]\nout_dir = {tmp_path}\n")
    assert main([str(cfg), "levels"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert re.search(pattern, record["message"])


def test_parse_unknown_command():
    with pytest.raises(ConfigError, match="unknown command 'frobnicate'"):
        parse_config("command = frobnicate\n" + BASE)
    # the command key itself is top-level only
    with pytest.raises(ConfigError, match="unknown key 'command'"):
        parse_config(BASE + "\ncommand = levels\n")


def test_parse_missing_mandatory_keys():
    with pytest.raises(ConfigError, match='missing mandatory key "v1"'):
        parse_config("[window]\ne_ref = 1.0 ; half_width = 0.2\n")
    with pytest.raises(ConfigError, match='missing mandatory key "e_ref"'):
        parse_config('[potential]\nv1 = "x^2" ; v2 = "-x"\n')


def test_parse_scan_prerequisites():
    head = "command = scan\n" + BASE + "\n[scan]\n"
    with pytest.raises(ConfigError, match="scan requires e_star"):
        parse_config(head + "k_min = 6 ; k_max = 12\n")
    with pytest.raises(ConfigError, match="3 h values"):
        parse_config(head + "e_star = 1.0 ; k_min = 6 ; k_max = 7\n")
    with pytest.raises(ConfigError, match="scan requires k_min and k_max"):
        parse_config(head + "e_star = 1.0\n")
    # a valid scan block parses
    cfg = parse_config(head + "e_star = 1.0 ; k_min = 6 ; k_max = 12\n")
    assert cfg.e_star == 1.0 and (cfg.k_min, cfg.k_max) == (6, 12)


def test_pin_level_h_harmonic(harmonic):
    """For A(E) = pi E / 2 the pinned h values are E*/(2k+1) exactly."""
    hs = pin_level_h(harmonic, 1.0, [4, 2, 3])
    assert hs == pytest.approx([1.0 / 5.0, 1.0 / 7.0, 1.0 / 9.0], abs=1e-12)
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_pin_level_h_round_trip(coupled, window):
    """At the pinned h the k-th level lands back on e_star."""
    h3 = pin_level_h(coupled, 1.0, [3])[0]
    assert h3 == pytest.approx(0.11359005231606231, rel=1e-12)
    levels = dict(bohr_sommerfeld_levels(coupled, h3, window))
    assert abs(levels[3] - 1.0) <= 1e-9


def _row(h, width_direct, accepted=True):
    return ResonanceRecord(k=0, h=h, e_k=1.3, S=1.0, width_formula=-1e-6,
                           re_direct=1.3, width_direct=width_direct,
                           theta_stability=0.0, accepted=accepted)


def test_fit_width_slope_recovers_exact_law():
    """Rows following |w| = C h^2 e^(-2 s/h) exactly give slope -2 s."""
    s, logc = 1.37, 0.4
    rows = [_row(h, -h ** 2 * math.exp(logc - 2.0 * s / h))
            for h in (0.2, 0.16, 0.12, 0.1)]
    scan = ScanResult(rows=rows, s_target=s, e_star=1.3)
    slope, intercept, r2 = fit_width_slope(scan)
    assert slope == pytest.approx(-2.74, abs=1e-12)
    assert intercept == pytest.approx(0.4, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert scan.n_accepted == 4


def test_fit_width_slope_requires_three_accepted_rows():
    rows = [_row(0.2, -1e-8), _row(0.15, -1e-9), _row(0.12, -1e-10, False)]
    with pytest.raises(InsufficientData, match="3 accepted rows"):
        fit_width_slope(ScanResult(rows=rows, s_target=1.0, e_star=1.3))
    # positive direct widths are unusable for the log fit and don't count
    rows = [_row(0.2, -1e-8), _row(0.15, -1e-9), _row(0.12, 1e-10)]
    with pytest.raises(InsufficientData):
        fit_width_slope(ScanResult(rows=rows, s_target=1.0, e_star=1.3))


def _run(text, tmp_path, command, sub="out"):
    cfg = parse_config(text)
    cfg.out_dir = str(tmp_path / sub)
    code = run_command(cfg, command)
    return code, tmp_path / sub


def test_widths_csv_golden(tmp_path):
    code, out = _run(BASE, tmp_path, "widths")
    assert code == 0
    lines = (out / "widths.csv").read_text().splitlines()
    assert lines[0] == "k,h,e_k,S,width_formula"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3"]
    e_k = [float(r[2]) for r in rows]
    assert e_k[0] == pytest.approx(0.8941045636781098, rel=1e-12)
    assert e_k[1] == pytest.approx(1.1942460899046365, rel=1e-12)
    widths = [float(r[4]) for r in rows]
    assert widths[0] == pytest.approx(-3.9670530412501926e-14, rel=1e-9)
    assert widths[1] == pytest.approx(-6.886730309522242e-10, rel=1e-9)
    assert float(rows[1][3]) == pytest.approx(1.1419069901114831, rel=1e-12)


def test_levels_csv_empty_when_no_levels(tmp_path):
    code, out = _run(BASE.replace("h = 0.14", "h = 0.2"), tmp_path, "levels")
    assert code == 0
    assert (out / "levels.csv").read_text() == "k,h,e_k\n"


def test_validate_json_pass_and_fail(tmp_path):
    code, out = _run(BASE, tmp_path, "validate", "good")
    assert code == 0
    payload = json.loads((out / "validate.json").read_text())
    assert payload["passed"] is True
    assert all(payload["clauses"].values())
    assert payload["c0"] == pytest.approx(1.1064593698639587, abs=1e-9)

    # a window above the well top cannot satisfy the geometry clauses
    bad = BASE.replace("e_ref = 1.0", "e_ref = 2.5")
    code, out = _run(bad, tmp_path, "validate", "bad")
    assert code == 2
    payload = json.loads((out / "validate.json").read_text())
    assert payload["passed"] is False
    assert not payload["clauses"]["limit_left_v1"]


def test_direct_and_compare_smoke(tmp_path):
    code, out = _run(BASE, tmp_path, "direct")
    assert code == 0
    lines = (out / "direct.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) > 1
    vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all((vals[:, 0] >= 0.8) & (vals[:, 0] <= 1.2))

    code, out = _run(BASE, tmp_path, "compare", "cmp")
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == ("k,h,e_k,S,width_formula,re_direct,width_direct,"
                        "abs_dev_re,rel_dev_im,theta_stability,accepted")
    assert len(lines) == 3  # levels k=2 and k=3
    assert {line.split(",")[-1] for line in lines[1:]} <= {"true", "false"}


def test_compare_logs_and_counts_skipped_levels(tmp_path, monkeypatch, caplog, capsys):
    """A level whose width fails is logged with its reason and counted in
    the summary line; compare.csv keeps its one row per estimated level."""
    width_leading = spectrum.width_leading

    def fail_below_09(sys, h, e_k, *args):
        if e_k < 0.9:  # level k=2, e_k ~ 0.894
            raise BarrierViolation("injected failure")
        return width_leading(sys, h, e_k, *args)

    monkeypatch.setattr(spectrum, "width_leading", fail_below_09)
    with caplog.at_level(logging.WARNING, logger="predissoc.solver"):
        code, out = _run(BASE, tmp_path, "compare")
    assert code == 0
    [record] = [r for r in caplog.records if r.name == "predissoc.solver"]
    assert record.levelno == logging.WARNING
    assert re.fullmatch(r"skipped level k=2 e_k=0\.894\d+: BarrierViolation: injected failure",
                        record.getMessage())
    assert "compare: 1/1 level(s) accepted, 1 skipped at h=0.14" in capsys.readouterr().out
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("3,")


def test_refine_smoke(tmp_path):
    code, out = _run(BASE.replace("n = 200", "n = 128"), tmp_path, "refine")
    assert code == 0
    lines = (out / "refine.csv").read_text().splitlines()
    assert lines[0] == "re_n,im_n,re_2n,im_2n,delta"
    assert len(lines) > 1
    assert all(float(line.split(",")[4]) < 1e-2 for line in lines[1:])


def test_scan_reports_insufficient_data(tmp_path, capsys):
    """With the coupling off every width sits at the noise floor: the scan
    must still write its table, null out the fit, and exit with code 2."""
    text = "command = scan\n" + BASE.replace('r0 = "1"', 'r0 = "0"') + (
        "\n[scan]\ne_star = 1.0 ; k_min = 3 ; k_max = 5\n"
    )
    cfg = parse_config(text)
    cfg.out_dir = str(tmp_path)
    code = run_command(cfg)
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InsufficientData"

    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",false") for line in lines[1:])
    fit = json.loads((tmp_path / "scan_fit.json").read_text())
    assert fit["slope"] is None and fit["r_squared"] is None
    assert fit["n_accepted"] == 0
    assert fit["s_target"] == pytest.approx(1.5475994211066793, rel=1e-12)

    # each row is a record: matched, but a zero formula width makes its
    # relative deviation infinite
    with open(tmp_path / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [f.name for f in dataclasses.fields(ResonanceRecord)]
    assert all(r["width_formula"] == "-0" and r["rel_dev_im"] == "inf" for r in rows)
    # with a box that no eigenvalue reaches, every row is unmatched and its
    # direct columns are NaN
    cfg.c0_im = 1e-20
    assert run_command(cfg) == 2
    with open(tmp_path / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["3", "4", "5"]
    for r in rows:
        assert r["accepted"] == "false"
        for name in ("re_direct", "width_direct", "abs_dev_re", "rel_dev_im",
                     "theta_stability"):
            assert math.isnan(float(r[name]))


SHALLOW_SCAN = '''command = scan
[potential]
v1 = "2 - 2*exp(-((x+4)/3)^2)" ; v2 = "1.6619733691878678 - 3*tanh(x)"
r0 = "1" ; r1 = "0"

[window]
e_ref = 1.3 ; half_width = 0.2

[numerics]
scheme = chebyshev ; n = 200 ; theta = 0.25 ; domain = [-11.0, 14.0]

[scan]
e_star = 1.3 ; k_min = 6 ; k_max = 8
'''


def test_scan_pins_levels_from_the_cli(tmp_path, capsys):
    """``scan`` with k_min/k_max pins level k at E* for each k: one row per
    k at the h of pin_level_h, all accepted, and a width-law slope near
    -2 S(E*)."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SHALLOW_SCAN + f"\n[output]\nout_dir = {tmp_path}\n")
    assert main([str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("scan: slope ")
    with open(tmp_path / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    h_pinned = pin_level_h(parse_config(SHALLOW_SCAN).system(), 1.3, [6, 7, 8])
    assert [(int(r["k"]), float(r["h"])) for r in rows] == list(zip([6, 7, 8], h_pinned))
    assert all(r["accepted"] == "true" for r in rows)
    fit = json.loads((tmp_path / "scan_fit.json").read_text())
    assert fit["n_accepted"] == 3
    assert fit["slope"] == pytest.approx(-2.0 * fit["s_target"], rel=0.1)
    # scan.csv and compare.csv share one header, that of ResonanceRecord
    code, out = _run(BASE.replace("half_width = 0.2", "half_width = 0.01"), tmp_path, "compare")
    assert code == 0
    header = (tmp_path / "scan.csv").read_text().splitlines()[0]
    assert header == (out / "compare.csv").read_text().splitlines()[0]


def test_run_scan_pins_each_k_in_ascending_order(shallow):
    """run_scan orders ks itself: each row is level k at the h that pins it
    at E*, whatever order the caller gives, and no level is dropped."""
    disc = DiscretizationConfig(x_min=-11.0, x_max=14.0, n=200, theta=0.25)
    window = EnergyWindow(1.3, 0.2)
    scan = run_scan(shallow, window, disc, [8, 6, 7])
    h_pinned = pin_level_h(shallow, 1.3, [6, 7, 8])
    assert [(r.k, r.h) for r in scan.rows] == list(zip([6, 7, 8], h_pinned))
    assert scan.rows == run_scan(shallow, window, disc, [6, 7, 8]).rows


def test_each_scan_row_solves_one_eigenpair(shallow, caplog):
    """On the acceptance scan (n = 400, k = 6..12) each row factors once and
    takes its one nearest eigenpair: its eigensolve line reads k = 1 with
    scipy's 20 Krylov vectors and at most 40 operator solves (21 measured;
    the box-disc solve of the whole window took 82 to 160), and every row
    is accepted."""
    disc = DiscretizationConfig(x_min=-11.0, x_max=14.0, n=400, theta=0.25)
    with caplog.at_level(logging.DEBUG, logger="predissoc.solver"):
        scan = run_scan(shallow, EnergyWindow(1.3, 0.2), disc, range(6, 13))
    lines = [m for m in caplog.messages if m.startswith("eigensolve:")]
    assert len(lines) == len(scan.rows) == 7
    for line in lines:
        k, ncv, solves = map(int, re.search(
            r" k=(\d+) ncv=(\d+) .* operator solves=(\d+) ", line).groups())
        assert (k, ncv) == (1, 20) and solves <= 40
    assert all(row.accepted for row in scan.rows)


def test_negative_k_min_is_a_config_error(tmp_path, capsys):
    """No level lies below k = 0, and pin_level_h would give it h < 0:
    k_min < 0 exits 1 naming k_min, whether it comes from the file or from
    a config edited in code, and pin_level_h refuses it."""
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SHALLOW_SCAN.replace("k_min = 6 ; k_max = 8", "k_min = -2 ; k_max = 2")
                   + f"\n[output]\nout_dir = {tmp_path}\n")
    assert main([str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert re.fullmatch(r"line \d+: k_min must be >= 0, got -2", record["message"])
    edited = dataclasses.replace(parse_config(SHALLOW_SCAN), k_min=-2, k_max=2,
                                 out_dir=str(tmp_path))
    assert run_command(edited) == 1
    assert "k_min must be >= 0, got -2" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    with pytest.raises(ValueError, match="k = -1 is negative"):
        pin_level_h(edited.system(), 1.3, [1, 0, -1])


def test_widths_reports_a_skipped_level(tmp_path, capsys):
    """k = 1 at h = 0.14 lies below the floor of the exit channel: ``widths``
    names it on stderr with its reason and writes the rows of k = 2 and 3."""
    code, out = _run(BASE.replace("e_ref = 1.0 ; half_width = 0.2",
                                  "e_ref = 0.85 ; half_width = 0.4"), tmp_path, "widths")
    assert code == 0
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("widths: skipped k=1 at e_k=0.560085: NoExit: ")
    rows = (out / "widths.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "3"]


def test_runs_are_deterministic(tmp_path):
    _, out_a = _run(BASE, tmp_path, "widths", "a")
    _, out_b = _run(BASE, tmp_path, "widths", "b")
    assert (out_a / "widths.csv").read_bytes() == (out_b / "widths.csv").read_bytes()


def test_missing_h_is_a_config_error(tmp_path, capsys):
    cfg = parse_config(BASE.replace(" ; h = 0.14", ""))
    cfg.out_dir = str(tmp_path)
    assert run_command(cfg, "levels") == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert "levels requires h" in record["message"]


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_run_command_checks_h_itself(h, tmp_path, capsys):
    """A config edited in code gets the h check a parsed one gets."""
    cfg = dataclasses.replace(parse_config(BASE), h=h, out_dir=str(tmp_path))
    assert run_command(cfg, "levels") == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert "h must be finite and > 0" in record["message"]
    assert not (tmp_path / "levels.csv").exists()


def test_domain_too_short_for_the_ramp_is_a_config_error(tmp_path, capsys):
    """The derived scaling start plus its ramp must fit inside the domain."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE.replace("domain = [-8.0, 12.0]", "domain = [-8.0, 3.0]")
                   + f"\n[output]\nout_dir = {tmp_path}\n")
    assert main([str(cfg), "direct"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert "leaves no room for the ramp before x_max = 3.0" in record["message"]


@pytest.mark.parametrize("command", ["compare", "scan"])
def test_compare_and_scan_at_theta_zero_are_config_errors(command, tmp_path, capsys):
    """The stability screen of compare and scan measures drift under
    rotation, so theta = 0 exits 1 naming theta, before any solve and
    with no output; direct keeps theta = 0 for the Hermitian check."""
    text = SHALLOW_SCAN if command == "scan" else "command = compare\n" + BASE
    cfg = tmp_path / "run.cfg"
    cfg.write_text(re.sub(r"theta = 0\.\d+", "theta = 0.0", text)
                   + f"\n[output]\nout_dir = {tmp_path}\n")
    assert main([str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "ConfigError",
                      "message": f"{command} requires theta > 0, got 0.0"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    if command == "compare":
        assert main([str(cfg), "direct"]) == 0


def test_no_command_given(tmp_path, capsys):
    cfg = parse_config(BASE)
    cfg.out_dir = str(tmp_path)
    assert run_command(cfg) == 1
    assert "no command" in capsys.readouterr().err


def test_package_cli_runs_without_warnings(tmp_path):
    """``python -m predissoc`` runs a command and writes nothing to stderr."""
    (tmp_path / "run.cfg").write_text(BASE)
    src = str(Path(predissoc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "predissoc", "run.cfg", "levels"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("levels: 2 level(s)")
    assert (tmp_path / "levels.csv").exists()


def test_import_footprint():
    """``import predissoc`` loads none of scipy.optimize, scipy.sparse and
    scipy.linalg.

    scipy.optimize alone takes the import from about 0.55 s and 57 MB to
    0.85 s and 77 MB (2 vCPU VM), and scipy.linalg (through scipy's
    array-API layer, numpy.f2py and numpy.testing) costs about 0.25 s and
    26 MB; the eigensolver imports scipy.sparse and scipy.linalg on first
    use, so the commands without one start without them."""
    src = str(Path(predissoc.__file__).resolve().parents[1])
    code = ("import sys, predissoc; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.sparse', 'scipy.linalg'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main([str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("what even is this\n")
    assert main([str(bad)]) == 1
    assert "expected key = value" in capsys.readouterr().err

    good = tmp_path / "good.cfg"
    good.write_text("command = widths\n" + BASE
                    + f"\n[output]\nout_dir = {tmp_path}/run\n")
    monkeypatch.chdir(tmp_path)
    # the positional command overrides the one in the config
    assert main([str(good), "levels"]) == 0
    assert (tmp_path / "run" / "levels.csv").exists()
    assert not (tmp_path / "run" / "widths.csv").exists()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    """A config file with bytes that are not UTF-8 exits 1 with one JSON
    record, like a file that cannot be read, not with a traceback."""
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b'command = levels\n[potential]\nv1 = "x^2" \xff\n')
    assert main([str(bad)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("cannot read config: ")
    assert "utf-8" in record["message"]
