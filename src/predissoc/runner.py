"""Config-driven run driver: parse, dispatch, persist results.

This is a thin orchestration layer over the library modules: it reads a
line-oriented config (sections ``[potential]``, ``[window]``,
``[numerics]``, ``[scan]``, ``[output]``; ``key = value`` pairs, ``;`` to
put several on one line, ``#`` comments), dispatches one of the commands

    validate, levels, widths, refine, direct, compare, scan

and writes CSV/JSON results.  Exit codes: 0 success, 1 input error,
2 numerical failure.  There is deliberately no console entry point; the
package runs as ``python -m predissoc config.cfg [command]`` and
every command is equally reachable as a library call.

The scan command tracks one level across h by pinning: h_k is chosen so
the k-th level sits exactly at the reference energy E*, which is what
makes the exponent of the width law cleanly identifiable from a straight
line in log(|width|/h^2) vs 1/h.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys as _sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .actions import action, action_and_derivative, agmon_distance
from .errors import ConfigError, InsufficientData, InvalidAngle, PredissocError
from .potentials import EnergyWindow, PotentialSystem, crossing_data, validate_assumptions
from .solver import (DiscretizationConfig, ResonanceRecord, _compare_levels,
                     compare_with_direct, compute_resonances)
from .spectrum import (ResonanceEstimate, bohr_sommerfeld_levels, resonance_estimates,
                       width_leading)

__all__ = [
    "RunConfig",
    "ScanResult",
    "parse_config",
    "pin_level_h",
    "fit_width_slope",
    "run_scan",
    "run_command",
    "main",
]

COMMANDS = ("validate", "levels", "widths", "refine", "direct", "compare", "scan")

logger = logging.getLogger("predissoc.runner")

_SCHEME_ALIASES = {
    "chebyshev": "chebyshev_collocation",
    "chebyshev_collocation": "chebyshev_collocation",
    "fd4": "finite_difference_4",
    "finite_difference_4": "finite_difference_4",
}


@dataclass
class RunConfig:
    """Validated run configuration with defaults filled in."""

    v1: str = ""
    v2: str = ""
    r0: str = "0"
    r1: str = "0"
    e_ref: float = math.nan
    half_width: float = math.nan
    c0_im: float = EnergyWindow.im_depth_coeff
    h: float | None = None
    scheme: str = DiscretizationConfig.scheme
    n: int = DiscretizationConfig.n
    theta: float = DiscretizationConfig.theta
    domain: tuple[float, float] = (DiscretizationConfig.x_min, DiscretizationConfig.x_max)
    e_star: float | None = None
    k_min: int | None = None
    k_max: int | None = None
    out_dir: str = "."
    command: str | None = None

    def system(self) -> PotentialSystem:
        return PotentialSystem.from_strings(self.v1, self.v2, self.r0, self.r1)

    def window(self) -> EnergyWindow:
        return EnergyWindow(self.e_ref, self.half_width, self.c0_im)

    def discretization(self) -> DiscretizationConfig:
        return DiscretizationConfig(
            x_min=self.domain[0], x_max=self.domain[1], n=self.n,
            scheme=self.scheme, theta=self.theta,
        )


def _split_outside_quotes(line: str, sep: str) -> list[str]:
    parts = []
    buf = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
            buf.append(ch)
        elif ch == sep and not in_quote:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


# Value converters: (token, key, lineno) -> value; the token is stripped.


def _as_float(token: str, key: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"malformed number {token!r}", lineno) from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token!r}", lineno)
    return value


def _as_int(token: str, key: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"malformed integer {token!r}", lineno) from None


def _as_word(token: str, key: str, lineno: int) -> str:
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return token[1:-1]
    return token


def _as_expr(token: str, key: str, lineno: int) -> str:
    text = _as_word(token, key, lineno)
    if text == token:  # unquoted
        raise ConfigError(f'{key} must be a quoted expression string', lineno)
    return text


def _one_of(choices: dict[str, str], what: str):
    """Converter for a word from ``choices``, mapped to its canonical value."""
    def convert(token: str, key: str, lineno: int) -> str:
        word = _as_word(token, key, lineno)
        if word not in choices:
            raise ConfigError(f"unknown {what} {word!r}", lineno)
        return choices[word]
    return convert


def _as_list(token: str, key: str, lineno: int) -> list[float]:
    if not (token.startswith("[") and token.endswith("]")):
        raise ConfigError(f"expected a [..] list, got {token!r}", lineno)
    inner = token[1:-1].strip()
    if not inner:
        return []
    return [_as_float(part.strip(), key, lineno) for part in inner.split(",")]


def _as_domain(token: str, key: str, lineno: int) -> tuple[float, float]:
    dom = _as_list(token, key, lineno)
    if len(dom) != 2 or not dom[0] < dom[1]:
        raise ConfigError("domain must be [x_min, x_max] with x_min < x_max", lineno)
    return dom[0], dom[1]


def _as_positive(token: str, key: str, lineno: int) -> float:
    value = _as_float(token, key, lineno)
    if value <= 0.0:
        raise ConfigError(f"{key} must be positive", lineno)
    return value


#: (section, key) -> converter; section None is the top level.  Each key
#: sets the RunConfig field of the same name.
_KEYS = {
    ("potential", "v1"): _as_expr,
    ("potential", "v2"): _as_expr,
    ("potential", "r0"): _as_expr,
    ("potential", "r1"): _as_expr,
    ("window", "e_ref"): _as_float,
    ("window", "half_width"): _as_float,
    ("window", "c0_im"): _as_float,
    ("numerics", "scheme"): _one_of(_SCHEME_ALIASES, "scheme"),
    ("numerics", "n"): _as_int,
    ("numerics", "theta"): _as_float,
    ("numerics", "domain"): _as_domain,
    ("numerics", "h"): _as_positive,
    ("scan", "e_star"): _as_float,
    ("scan", "k_min"): _as_int,
    ("scan", "k_max"): _as_int,
    ("output", "out_dir"): _as_word,
    (None, "command"): _one_of({c: c for c in COMMANDS}, "command"),
}

_SECTIONS = {section for section, _ in _KEYS if section is not None}


def parse_config(text: str) -> RunConfig:
    """Parse the line-oriented config format into a RunConfig.

    Unknown sections and keys, missing mandatory keys and malformed or
    non-finite values raise :class:`ConfigError` carrying the offending
    line number; out-of-range window and discretization values (the rules
    of :class:`EnergyWindow` and :class:`DiscretizationConfig`) raise it
    without one.
    """
    cfg = RunConfig()
    lines: dict[tuple[str | None, str], int] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_outside_quotes(raw, "#")[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        for item in _split_outside_quotes(line, ";"):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"expected key = value, got {item!r}", lineno)
            key, _, token = item.partition("=")
            key = key.strip()
            if (section, key) in lines:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            lines[section, key] = lineno
            convert = _KEYS.get((section, key))
            if convert is None:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]" if section
                    else f"unknown top-level key {key!r}", lineno)
            setattr(cfg, key, convert(token.strip(), key, lineno))

    for place in (("potential", "v1"), ("potential", "v2"),
                  ("window", "e_ref"), ("window", "half_width")):
        if place not in lines or getattr(cfg, place[1]) == "":
            raise ConfigError(f'missing mandatory key "{place[1]}"')
    try:
        cfg.window(), cfg.discretization()
    except (ValueError, InvalidAngle) as exc:
        raise ConfigError(str(exc)) from None

    if cfg.command == "scan":
        _check_scan_inputs(cfg, lines)
    return cfg


def _check_scan_inputs(cfg: RunConfig, lines=None) -> None:
    if cfg.e_star is None:
        raise ConfigError("scan requires e_star")
    if cfg.k_min is None or cfg.k_max is None:
        raise ConfigError("scan requires k_min and k_max")
    if cfg.k_min < 0:  # no level below k = 0: its pinned h is negative
        raise ConfigError(f"k_min must be >= 0, got {cfg.k_min}",
                          (lines or {}).get(("scan", "k_min")))
    if cfg.k_max - cfg.k_min + 1 < 3:
        raise ConfigError("scan requires ≥3 h values", (lines or {}).get(("scan", "k_max")))


def pin_level_h(sys: PotentialSystem, e_star: float, k_range) -> list[float]:
    """h values at which level k sits exactly at e_star, for each k in
    k_range; descending in h (ascending in k).

    Inverts the quantization condition in h: h_k = A(E*) / ((k+1/2) pi).
    A level k < 0 does not exist, and raises ValueError.
    """
    return _pinned_h(action(sys, e_star), k_range)


def _pinned_h(a_star: float, k_range) -> list[float]:
    """:func:`pin_level_h` from the action A(E*) = ``a_star``."""
    ks = sorted(k_range)
    if ks and ks[0] < 0:
        raise ValueError(f"level index k = {ks[0]} is negative")
    return [a_star / ((k + 0.5) * math.pi) for k in ks]


@dataclass
class ScanResult:
    """h-scan at one pinned energy plus the width-law regression: one record
    per level pinned there, ascending in k."""

    rows: list[ResonanceRecord]
    s_target: float
    e_star: float
    slope: float = math.nan
    intercept: float = math.nan
    r_squared: float = math.nan

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.rows if r.accepted)


def fit_width_slope(scan: ScanResult) -> tuple[float, float, float]:
    """Least-squares slope of log(|width_direct| / h^2) against 1/h.

    Only accepted rows with a negative direct width participate.  The
    returned slope estimates -2 S(E*); fewer than three usable rows raise
    InsufficientData.
    """
    rows = [r for r in scan.rows if r.accepted and r.width_direct < 0]
    if len(rows) < 3:
        raise InsufficientData(
            f"width-law fit needs at least 3 accepted rows, have {len(rows)}"
        )
    x = np.array([1.0 / r.h for r in rows])
    y = np.array([math.log(abs(r.width_direct) / r.h ** 2) for r in rows])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res < 1e-24 else 0.0
    return float(slope), float(intercept), r_squared


def run_scan(sys: PotentialSystem, window: EnergyWindow,
             disc: DiscretizationConfig, ks) -> ScanResult:
    """Pin each level k of ``ks`` at E* = ``window.e_ref`` and compare it there.

    For each k, in ascending order (so descending in h), h is that of
    :func:`pin_level_h`, and the solver's one-level solve compares level k
    alone, inside ``window``; its record is the row.  Pinned, every level
    sits at e_k = E* exactly, so the estimates share A'(E*) (from the one
    well pass that also gives the h values), S(E*) (the ``s_target`` of
    the fit) and the crossing data, each computed once: only h changes
    from row to row, as in the solves, which share their h-independent
    work too.  A level whose estimate fails logs a WARNING
    with k, E* and the reason, and has no row.  The width-law slope is
    fitted when enough rows were accepted (and left NaN otherwise).
    """
    e_star = window.e_ref
    ks = sorted(ks)
    a_star, a_prime = action_and_derivative(sys, e_star)
    hs = _pinned_h(a_star, ks)
    s_target = agmon_distance(sys, e_star)
    crossing = crossing_data(sys)
    estimates = []
    for k, h in zip(ks, hs):
        try:
            width, parts = width_leading(sys, h, e_star, a_prime, s_target, crossing)
        except PredissocError as exc:
            logger.warning("skipped level k=%d e_k=%.10g: %s: %s", k, e_star,
                           type(exc).__name__, exc)
            continue
        estimates.append(ResonanceEstimate(k=k, e_k=e_star, width=width, s_at_ek=s_target,
                                           prefactor_parts=parts, h=h))
    scan = ScanResult(rows=_compare_levels(sys, window, disc, estimates),
                      s_target=s_target, e_star=e_star)
    try:
        scan.slope, scan.intercept, scan.r_squared = fit_width_slope(scan)
    except InsufficientData:
        pass
    return scan


# ---------------------------------------------------------------------------
# command handlers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_records(path: Path, records) -> None:
    """``compare.csv`` or ``scan.csv``: one row per :class:`ResonanceRecord`."""
    _write_csv(path, [f.name for f in fields(ResonanceRecord)], map(astuple, records))


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_validate(cfg: RunConfig, out: Path) -> int:
    report = validate_assumptions(cfg.system(), cfg.window())
    _write_json(out / "validate.json", report.as_dict())
    print(f"validate: {'passed' if report.passed else 'FAILED'} "
          f"({sum(report.clauses.values())}/{len(report.clauses)} clauses)")
    return 0 if report.passed else 2


def _cmd_levels(cfg: RunConfig, out: Path) -> int:
    levels = bohr_sommerfeld_levels(cfg.system(), cfg.h, cfg.window())
    _write_csv(out / "levels.csv", ["k", "h", "e_k"],
               [(k, cfg.h, e_k) for k, e_k in levels])
    print(f"levels: {len(levels)} level(s) in window at h={cfg.h:g}")
    return 0


def _cmd_widths(cfg: RunConfig, out: Path) -> int:
    estimates, skipped = resonance_estimates(cfg.system(), cfg.h, cfg.window())
    for k, e_k, reason in skipped:
        print(f"widths: skipped k={k} at e_k={e_k:.6g}: {reason}", file=_sys.stderr)
    _write_csv(out / "widths.csv", ["k", "h", "e_k", "S", "width_formula"],
               [(e.k, e.h, e.e_k, e.s_at_ek, e.width) for e in estimates])
    print(f"widths: {len(estimates)} row(s) at h={cfg.h:g}")
    return 0


def _cmd_direct(cfg: RunConfig, out: Path) -> int:
    vals = compute_resonances(cfg.system(), cfg.discretization(), cfg.h, cfg.window())
    _write_csv(out / "direct.csv", ["re", "im"],
               [(v.real, v.imag) for v in vals])
    print(f"direct: {len(vals)} eigenvalue(s) in the resonance box at h={cfg.h:g}")
    return 0


def _cmd_refine(cfg: RunConfig, out: Path) -> int:
    sys_, window, disc = cfg.system(), cfg.window(), cfg.discretization()
    vals_n = compute_resonances(sys_, disc, cfg.h, window)
    vals_2n = compute_resonances(sys_, replace(disc, n=2 * disc.n), cfg.h, window)
    rows = []
    for v in vals_n:
        if len(vals_2n):
            partner = vals_2n[int(np.argmin(np.abs(vals_2n - v)))]
            delta = abs(partner - v)
        else:
            partner, delta = complex(math.nan, math.nan), math.inf
        rows.append((v.real, v.imag, partner.real, partner.imag, delta))
    _write_csv(out / "refine.csv",
               ["re_n", "im_n", "re_2n", "im_2n", "delta"], rows)
    worst = max((r[4] for r in rows), default=0.0)
    print(f"refine: n={disc.n} vs n={2 * disc.n}, worst drift {worst:.3g}")
    return 0


def _cmd_compare(cfg: RunConfig, out: Path) -> int:
    records = compare_with_direct(cfg.system(), cfg.window(),
                                  cfg.discretization(), cfg.h)
    _write_records(out / "compare.csv", records)
    n_acc = sum(1 for r in records if r.accepted)
    print(f"compare: {n_acc}/{len(records)} level(s) accepted, "
          f"{len(records.skipped)} skipped at h={cfg.h:g}")
    return 0


def _cmd_scan(cfg: RunConfig, out: Path) -> int:
    _check_scan_inputs(cfg)
    scan = run_scan(cfg.system(), EnergyWindow(cfg.e_star, cfg.half_width, cfg.c0_im),
                    cfg.discretization(), range(cfg.k_min, cfg.k_max + 1))
    _write_records(out / "scan.csv", scan.rows)
    _write_json(out / "scan_fit.json", {
        "slope": scan.slope, "intercept": scan.intercept,
        "r_squared": scan.r_squared, "s_target": scan.s_target,
        "e_star": scan.e_star, "n_accepted": scan.n_accepted,
    })
    if math.isnan(scan.slope):
        fit_width_slope(scan)  # raises the fit's InsufficientData (exit 2)
    print(f"scan: slope {scan.slope:.6g} vs -2 S(E*) = {-2 * scan.s_target:.6g} "
          f"({scan.n_accepted} accepted row(s))")
    return 0


#: command -> (handler, whether it needs h, whether it needs theta > 0: the
#: stability screen of compare and scan measures drift under rotation)
_HANDLERS = {
    "validate": (_cmd_validate, False, False),
    "levels": (_cmd_levels, True, False),
    "widths": (_cmd_widths, True, False),
    "direct": (_cmd_direct, True, False),
    "refine": (_cmd_refine, True, False),
    "compare": (_cmd_compare, True, True),
    "scan": (_cmd_scan, False, True),
}


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=_sys.stderr)


def run_command(cfg: RunConfig, command: str | None = None) -> int:
    """Execute one command against a parsed config; returns the exit code.

    For a config from :func:`parse_config` errors never propagate: bad
    input maps to exit 1, numerical failures to exit 2, each with a
    one-line JSON record on standard error.
    """
    try:
        cmd = command or cfg.command
        if cmd is None:
            raise ConfigError("no command given (config key or argument)")
        if cmd not in _HANDLERS:
            raise ConfigError(f"unknown command {cmd!r}")
        handler, needs_h, needs_rotation = _HANDLERS[cmd]
        if needs_h:  # checked here too, for configs built or edited in code
            if cfg.h is None:
                raise ConfigError(f"{cmd} requires h under [numerics]")
            if not (math.isfinite(cfg.h) and cfg.h > 0):
                raise ConfigError(f"h must be finite and > 0, got {cfg.h!r}")
        if needs_rotation and not cfg.theta > 0:
            raise ConfigError(f"{cmd} requires theta > 0, got {cfg.theta!r}")
        return handler(cfg, Path(cfg.out_dir))
    except ConfigError as exc:
        _emit_error(exc)
        return 1
    except PredissocError as exc:
        _emit_error(exc)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m predissoc",
        description="Semiclassical vs direct predissociation widths, "
                    "driven by a config file.",
    )
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="override the command set in the config")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        _emit_error(ConfigError(f"cannot read config: {exc}"))
        return 1
    except ConfigError as exc:
        _emit_error(exc)
        return 1
    return run_command(cfg, args.command)


if __name__ == "__main__":
    _sys.exit(main())
