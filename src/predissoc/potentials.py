"""Two crossing potential curves plus a first-order interband coupling.

The model is a 2x2 Schrodinger system on the line: diagonal potentials
``v1`` (closed channel, with a well and a barrier) and ``v2`` (open
channel, decreasing through the crossing), coupled off-diagonally by
``h*(r0(x) + h*r1(x) d/dx)``.  The curves must cross transversally at
x = 0; resonances are studied for energies in a window strictly between
the well bottom and the crossing value.

``validate_assumptions`` checks the geometric hypotheses clause by clause
on a real grid and reports margins instead of raising, so that a broken
configuration can be diagnosed in one pass.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CrossingMismatch, EvalDomainError, PredissocError
from .expressions import AnalyticExpr, differentiate, parse_expression

__all__ = [
    "PotentialSystem",
    "EnergyWindow",
    "CrossingData",
    "ValidationReport",
    "crossing_data",
    "validate_assumptions",
]

CROSSING_RTOL = 1e-9
#: points of each fixed root-scan grid
GRID_POINTS = 2000
#: a root is final once its bracket or its Newton step is this small
ROOT_XTOL = 1e-12
#: real interval of every turning-point scan, and the finite proxy for the
#: x -> +-infinity limit checks
DEFAULT_X_RANGE = (-20.0, 20.0)


@dataclass(frozen=True)
class PotentialSystem:
    """The four expression trees defining one model, with cached derivatives.

    Construction enforces the crossing ``|v1(0) - v2(0)| <= 1e-9 * max(1,
    |v1(0)|)`` unless ``enforce_crossing=False`` (useful to run the
    validator on a deliberately broken configuration).  All other
    hypotheses are checked by :func:`validate_assumptions`.
    """

    v1: AnalyticExpr
    v2: AnalyticExpr
    r0: AnalyticExpr
    r1: AnalyticExpr
    enforce_crossing: bool = True
    dv1: AnalyticExpr = field(init=False)
    dv2: AnalyticExpr = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dv1", differentiate(self.v1))
        object.__setattr__(self, "dv2", differentiate(self.v2))
        if self.enforce_crossing:
            v10 = float(np.real(self.v1(0.0)))
            v20 = float(np.real(self.v2(0.0)))
            tol = CROSSING_RTOL * max(1.0, abs(v10))
            if abs(v10 - v20) > tol:
                raise CrossingMismatch(
                    f"potentials do not cross at x=0: v1(0)={v10!r}, v2(0)={v20!r}"
                )

    @classmethod
    def from_strings(cls, v1: str, v2: str, r0: str = "0", r1: str = "0",
                     enforce_crossing: bool = True) -> "PotentialSystem":
        return cls(
            parse_expression(v1),
            parse_expression(v2),
            parse_expression(r0),
            parse_expression(r1),
            enforce_crossing=enforce_crossing,
        )

    def potential(self, which: int) -> AnalyticExpr:
        if which not in (1, 2):
            raise ValueError(f"channel index must be 1 or 2, got {which}")
        return self.v1 if which == 1 else self.v2


@dataclass(frozen=True)
class EnergyWindow:
    """Real energy interval [e_ref - half_width, e_ref + half_width].

    ``im_depth_coeff`` sets how deep below the real axis resonances are
    searched for: the box extends down to ``-im_depth_coeff * h``.
    """

    e_ref: float
    half_width: float
    im_depth_coeff: float = 5.0

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if not self.im_depth_coeff > 0:
            raise ValueError("im_depth_coeff must be positive")

    @property
    def lo(self) -> float:
        return self.e_ref - self.half_width

    @property
    def hi(self) -> float:
        return self.e_ref + self.half_width

    def contains(self, e: float) -> bool:
        return self.lo <= e <= self.hi


@dataclass(frozen=True)
class CrossingData:
    """Values at the crossing point x = 0 used by every width formula."""

    v1_at_0: float
    dv1_at_0: float
    dv2_at_0: float
    r0_at_0: float
    r1_at_0: float

    @property
    def slope_gap(self) -> float:
        """v1'(0) - v2'(0); positive for a transversal admissible crossing."""
        return self.dv1_at_0 - self.dv2_at_0


def crossing_data(sys: PotentialSystem) -> CrossingData:
    """Evaluate v1, v1', v2', r0, r1 at the crossing point x = 0."""
    return CrossingData(
        v1_at_0=float(np.real(sys.v1(0.0))),
        dv1_at_0=float(np.real(sys.dv1(0.0))),
        dv2_at_0=float(np.real(sys.dv2(0.0))),
        r0_at_0=float(np.real(sys.r0(0.0))),
        r1_at_0=float(np.real(sys.r1(0.0))),
    )


@dataclass
class ValidationReport:
    """Clause-by-clause outcome of the geometric hypothesis checks.

    ``clauses`` maps clause name -> bool; ``margins`` holds, for each
    inequality clause, the smallest clearance observed on the sample grid
    (NaN when the clause could not be evaluated).  ``a0``, ``b0``, ``c0``
    are the level-E' turning points when located.
    """

    energy: float
    clauses: dict
    margins: dict
    a0: float | None = None
    b0: float | None = None
    c0: float | None = None

    @property
    def passed(self) -> bool:
        return all(self.clauses.values())

    def as_dict(self) -> dict:
        return {
            "energy": self.energy,
            "passed": self.passed,
            "a0": self.a0,
            "b0": self.b0,
            "c0": self.c0,
            "clauses": dict(self.clauses),
            "margins": dict(self.margins),
        }


def _scan_brackets(vals, xs):
    """Brackets of the roots of sampled functions, one function per row.

    ``vals`` has shape (K, len(xs)).  Returns arrays (rows, lo, hi), ordered
    by row and left to right within a row.  A sign change between
    neighbours brackets that pair; an exact zero at ``xs[i]`` (the last
    sample excepted) brackets ``(xs[i-1], xs[i+1])``, clamped at the left
    end, and suppresses the pair test at ``i``.
    """
    left, right = vals[:, :-1], vals[:, 1:]
    zero = left == 0.0
    with np.errstate(over="ignore"):  # an overflowed product keeps its sign
        rows, idx = np.nonzero(zero | (left * right < 0))
    lo = np.where(zero[rows, idx], xs[np.maximum(idx - 1, 0)], xs[idx])
    return rows, lo, xs[idx + 1]


def _refine_root(v, dv, level, lo, hi):
    """Roots of v(x) = level[i] in the sign-change brackets [lo[i], hi[i]].

    All rows are solved together, each with the same arithmetic: Newton
    from the bracket midpoint with the exact derivative dv; each iterate
    shrinks the bracket, and a step that would leave it (or a zero slope)
    is replaced by bisection.  A row stops once a step or its bracket is
    within ROOT_XTOL, or at an exact zero; later sweeps evaluate only the
    rows still running.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo_positive = np.real(v(lo)) - level > 0
    x = 0.5 * (lo + hi)
    roots = x.copy()
    rows = np.arange(x.size)
    for _ in range(200):
        fx = np.real(v(x)) - level
        moves_lo = (fx > 0) == lo_positive
        lo = np.where(moves_lo, x, lo)
        hi = np.where(moves_lo, hi, x)
        d = np.real(dv(x))
        # a zero slope gives an infinite or NaN step and an overflowed step
        # is infinite: neither lies in the bracket, so both bisect
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cand = x - fx / d
        cand = np.where((lo <= cand) & (cand <= hi), cand, 0.5 * (lo + hi))
        hit = fx == 0.0
        roots[rows] = np.where(hit, x, cand)
        running = ~(hit | (np.abs(cand - x) <= ROOT_XTOL) | (hi - lo <= ROOT_XTOL))
        if not running.all():
            if not running.any():
                break
            cand, lo, hi, level = cand[running], lo[running], hi[running], level[running]
            lo_positive, rows = lo_positive[running], rows[running]
        x = cand
    return roots


def _rows(E):
    """(E as a 1-D float array of rows, whether E was a scalar)."""
    return np.atleast_1d(np.asarray(E, dtype=float)), np.ndim(E) == 0


def _unrow(values, scalar):
    """Per-row results back in the caller's shape: a scalar call gets a float."""
    return float(values[0]) if scalar else values


def _raise_first(checks):
    """Raise the error of the first row that fails any of ``checks``.

    ``checks`` lists (failed, error) pairs in the order one row is checked:
    ``failed`` is a boolean mask over the rows and ``error(i)`` builds row
    i's exception, so the row raises the error of its first failed check.
    """
    failed = np.array([mask for mask, _ in checks])
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        i = bad[0]
        raise next(error(i) for mask, error in checks if mask[i])


@lru_cache(maxsize=32)
def _scan_grid(expr: AnalyticExpr, part: str = "full"):
    """The fixed scan grid and the real values of ``expr`` on it, read-only.

    ``part`` selects the GRID_POINTS-point grid: "full" spans
    DEFAULT_X_RANGE = [x_min, x_max], "left" is [x_min, 0) and "right"
    (0, x_max].  Scans at different energies subtract E from the same
    cached values.  A value that is not finite raises EvalDomainError.
    """
    x_min, x_max = DEFAULT_X_RANGE
    if part == "full":
        xs = np.linspace(x_min, x_max, GRID_POINTS)
    elif part == "left":
        xs = np.linspace(x_min, 0.0, GRID_POINTS)[:-1]
    else:
        xs = np.linspace(0.0, x_max, GRID_POINTS)[1:]
    xs.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.real(expr(xs))
    if not np.all(np.isfinite(vals)):
        raise EvalDomainError(f"{expr} is not finite on [{x_min!r}, {x_max!r}]")
    return xs, np.broadcast_to(vals, xs.shape)  # a read-only view


def validate_assumptions(sys: PotentialSystem, window: EnergyWindow) -> ValidationReport:
    """Check the geometric hypotheses at the reference energy E' = e_ref.

    Limits at +-infinity are proxied at the endpoints of DEFAULT_X_RANGE.
    The well endpoints come from :func:`find_well_endpoints` and c0 is the
    root of v2 = E' that :func:`find_exit_point` would refine, whichever
    way v2 crosses there, so ``slope_c0`` reports a rising exit channel; a
    search that raises marks the dependent clauses False rather than
    raising.
    """
    from .turning_points import _exit_root, find_well_endpoints  # imports this module

    ep = window.e_ref
    x_lo, x_hi = DEFAULT_X_RANGE
    _, v1g = _scan_grid(sys.v1)
    _, v2g = _scan_grid(sys.v2)

    clauses: dict = {}
    margins: dict = {}

    # crossing + transversality at x = 0
    cd = crossing_data(sys)
    v20 = float(np.real(sys.v2(0.0)))
    clauses["crossing_at_0"] = abs(cd.v1_at_0 - v20) <= CROSSING_RTOL * max(1.0, abs(cd.v1_at_0))
    margins["transversality"] = cd.slope_gap
    clauses["transversality"] = cd.slope_gap > 0

    # limits at the far ends, proxied at the grid endpoints
    clauses["limit_left_v1"] = bool(v1g[0] > ep)
    clauses["limit_left_v2"] = bool(v2g[0] > ep)
    clauses["limit_right_v1"] = bool(v1g[-1] > ep)
    clauses["limit_right_v2"] = bool(v2g[-1] < ep)
    margins["limit_left_v1"] = float(v1g[0] - ep)
    margins["limit_left_v2"] = float(v2g[0] - ep)
    margins["limit_right_v1"] = float(v1g[-1] - ep)
    margins["limit_right_v2"] = float(ep - v2g[-1])

    # locate a0 < b0 < 0 (roots of v1 = E') and 0 < c0 (root of v2 = E')
    a0 = b0 = c0 = None
    with suppress(PredissocError):
        well = find_well_endpoints(sys, ep)
        if well[1] < 0:
            a0, b0 = well
    with suppress(PredissocError):
        c0 = _exit_root(sys, ep)
    clauses["roots_located"] = a0 is not None and b0 is not None and c0 is not None

    def interval_clause(name, lo, hi, conds):
        """conds: list of (label, callable on sample array -> margin array)."""
        if lo is None or hi is None or not hi > lo:
            clauses[name] = False
            margins[name] = float("nan")
            return
        inset = 1e-3 * (hi - lo)
        ts = np.linspace(lo + inset, hi - inset, 200)
        margin = min(float(np.min(c(ts))) for c in conds)
        clauses[name] = margin > 0
        margins[name] = margin

    v1f = lambda t: np.real(sys.v1(t))
    v2f = lambda t: np.real(sys.v2(t))
    interval_clause("order_left_outer", x_lo, a0,
                    [lambda t: v1f(t) - ep, lambda t: v2f(t) - ep])
    interval_clause("order_well", a0, b0,
                    [lambda t: ep - v1f(t), lambda t: v2f(t) - ep])
    interval_clause("order_barrier_left", b0, 0.0,
                    [lambda t: v1f(t) - ep, lambda t: v2f(t) - v1f(t)])
    interval_clause("order_barrier_right", 0.0, c0,
                    [lambda t: v2f(t) - ep, lambda t: v1f(t) - v2f(t)])
    interval_clause("order_right_outer", c0, x_hi,
                    [lambda t: ep - v2f(t), lambda t: v1f(t) - ep])

    # derivative signs at the located points
    def slope_clause(name, expr, point, want_negative):
        if point is None:
            clauses[name] = False
            margins[name] = float("nan")
            return
        s = float(np.real(expr(point)))
        margins[name] = -s if want_negative else s
        clauses[name] = margins[name] > 0

    slope_clause("slope_a0", sys.dv1, a0, want_negative=True)
    slope_clause("slope_b0", sys.dv1, b0, want_negative=False)
    slope_clause("slope_c0", sys.dv2, c0, want_negative=True)

    return ValidationReport(energy=ep, clauses=clauses, margins=margins,
                            a0=a0, b0=b0, c0=c0)
