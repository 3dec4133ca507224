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

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingMismatch, PredissocError
from .expressions import AnalyticExpr, differentiate, parse_expression
from .turning_points import DEFAULT_X_RANGE, _exit_root, _scan_grid, find_well_endpoints

__all__ = [
    "PotentialSystem",
    "EnergyWindow",
    "CrossingData",
    "ValidationReport",
    "crossing_data",
    "validate_assumptions",
]

CROSSING_RTOL = 1e-9


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


def validate_assumptions(sys: PotentialSystem, window: EnergyWindow) -> ValidationReport:
    """Check the geometric hypotheses at the reference energy E' = e_ref.

    Limits at +-infinity are proxied at the endpoints of DEFAULT_X_RANGE.
    The well endpoints come from :func:`find_well_endpoints` and c0 is the
    root of v2 = E' that :func:`find_exit_point` would refine, whichever
    way v2 crosses there, so ``slope_c0`` reports a rising exit channel; a
    search that raises marks the dependent clauses False rather than
    raising.
    """
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
