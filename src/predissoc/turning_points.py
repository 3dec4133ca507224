"""Real turning points at a given energy.

At a real energy E inside the window, channel 1 has a classically allowed
well [a, b] and both channels have barrier endpoints adjacent to the
crossing: b < 0 < c with v1 > E on (b, 0) and v2 > E on (0, c).
"""

from __future__ import annotations

import numpy as np

from .errors import BracketFailure, DegenerateEnergy, NoExit, NoWell
from .potentials import (
    DEFAULT_X_RANGE,
    PotentialSystem,
    _refine_root,
    _scan_brackets,
    _scan_grid,
)

__all__ = [
    "find_well_endpoints",
    "find_exit_point",
    "barrier_points",
]

RESIDUAL_TOL = 1e-11
#: energies closer than this to the well bottom or the crossing value are
#: rejected; the asymptotics degenerate there
ENERGY_MARGIN = 1e-6


def find_well_endpoints(sys: PotentialSystem, E: float) -> tuple[float, float]:
    """Locate the two real solutions a < b of v1(x) = E bounding the well.

    Scans the cached uniform grid of v1 for sign changes and refines each
    bracket by bracketed Newton.  Raises NoWell below the sampled minimum
    of v1, DegenerateEnergy within 1e-6 of the well bottom or of v1(0),
    and BracketFailure when the sign-change count is not 2.
    """
    xs, v1g = _scan_grid(sys.v1)
    vmin = float(np.min(v1g))
    if E < vmin:
        raise NoWell(f"E={E!r} lies below min v1 ~ {vmin!r}")
    v10 = float(np.real(sys.v1(0.0)))
    if abs(E - vmin) <= ENERGY_MARGIN or abs(E - v10) <= ENERGY_MARGIN:
        raise DegenerateEnergy(
            f"E={E!r} within {ENERGY_MARGIN} of the well bottom or the crossing value"
        )
    brackets = _scan_brackets(v1g - E, xs)
    if len(brackets) != 2:
        raise BracketFailure(
            f"expected 2 sign changes of v1 - E on {DEFAULT_X_RANGE}, found {len(brackets)}"
        )
    f = lambda t: float(np.real(sys.v1(t))) - E
    df = lambda t: float(np.real(sys.dv1(t)))
    a, b = (_refine_root(f, df, lo, hi, f(lo)) for lo, hi in brackets)
    for root in (a, b):
        if abs(f(root)) > RESIDUAL_TOL:
            raise BracketFailure(f"root at {root!r} has residual {f(root)!r}")
    return a, b


def _exit_root(sys: PotentialSystem, E: float) -> float:
    """The one solution c > 0 of v2(x) = E, whichever way v2 crosses it."""
    xs, v2g = _scan_grid(sys.v2, "right")
    brackets = _scan_brackets(v2g - E, xs)
    x_max = DEFAULT_X_RANGE[1]
    if len(brackets) == 0:
        raise NoExit(f"v2 - E has no sign change on (0, {x_max}] at E={E!r}")
    if len(brackets) > 1:
        raise BracketFailure(
            f"expected 1 sign change of v2 - E on (0, {x_max}], found {len(brackets)}"
        )
    f = lambda t: float(np.real(sys.v2(t))) - E
    df = lambda t: float(np.real(sys.dv2(t)))
    c = _refine_root(f, df, brackets[0][0], brackets[0][1], f(brackets[0][0]))
    if abs(f(c)) > RESIDUAL_TOL:
        raise BracketFailure(f"exit point at {c!r} has residual {f(c)!r}")
    return c


def find_exit_point(sys: PotentialSystem, E: float) -> float:
    """Locate the solution c > 0 of v2(x) = E with v2 decreasing through it."""
    c = _exit_root(sys, E)
    if float(np.real(sys.dv2(c))) >= 0:
        raise NoExit(f"v2 is not decreasing through its level crossing at {c!r}")
    return c


def barrier_points(sys: PotentialSystem, E: float) -> tuple[float, float]:
    """Barrier endpoints b < 0 < c adjacent to the crossing.

    b is the largest negative root of v1 = E (v1 rises through it), c the
    exit point of channel 2.  Unlike :func:`find_well_endpoints`, this does
    not require the well itself to lie in the scanned interval, so it also
    serves barrier-only model potentials.
    """
    xs, v1g = _scan_grid(sys.v1, "left")
    brackets = _scan_brackets(v1g - E, xs)
    if not brackets:
        raise NoWell(f"v1 - E has no sign change on ({DEFAULT_X_RANGE[0]}, 0) at E={E!r}")
    f = lambda t: float(np.real(sys.v1(t))) - E
    df = lambda t: float(np.real(sys.dv1(t)))
    lo, hi = brackets[-1]
    b = _refine_root(f, df, lo, hi, f(lo))
    if df(b) <= 0:
        raise BracketFailure(f"v1 does not rise through E at b={b!r}")
    c = find_exit_point(sys, E)
    return b, c
