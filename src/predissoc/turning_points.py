"""Real turning points at a given energy.

At a real energy E inside the window, channel 1 has a classically allowed
well [a, b] and both channels have barrier endpoints adjacent to the
crossing: b < 0 < c with v1 > E on (b, 0) and v2 > E on (0, c).

Every search takes one energy or a 1-D array of energies; an array is
searched in one pass (one bracket scan of all rows, one Newton sweep over
all roots) and gives arrays, a scalar gives Python floats.  An array call
checks each row as a scalar call would, in the same order, and raises the
error of the first row that fails.
"""

from __future__ import annotations

import numpy as np

from .errors import BracketFailure, DegenerateEnergy, NoExit, NoWell
from .potentials import (
    DEFAULT_X_RANGE,
    PotentialSystem,
    _raise_first,
    _refine_root,
    _rows,
    _scan_brackets,
    _scan_grid,
    _unrow,
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


def find_well_endpoints(sys: PotentialSystem, E):
    """Locate the two real solutions a < b of v1(x) = E bounding the well.

    Scans the cached uniform grid of v1 for sign changes and refines each
    bracket by bracketed Newton.  Raises NoWell below the sampled minimum
    of v1, DegenerateEnergy within 1e-6 of the well bottom or of v1(0),
    and BracketFailure when the sign-change count is not 2.
    """
    energies, scalar = _rows(E)
    xs, v1g = _scan_grid(sys.v1)
    vmin = float(np.min(v1g))
    v10 = float(np.real(sys.v1(0.0)))
    below = energies < vmin
    degenerate = ((np.abs(energies - vmin) <= ENERGY_MARGIN)
                  | (np.abs(energies - v10) <= ENERGY_MARGIN))
    rows, lo, hi = _scan_brackets(v1g - energies[:, None], xs)
    counts = np.bincount(rows, minlength=energies.size)
    good = (counts == 2) & ~below & ~degenerate
    pairs = good[rows]
    level = np.repeat(energies[good], 2)
    roots = np.full((energies.size, 2), np.nan)
    roots[good] = _refine_root(sys.v1, sys.dv1, level, lo[pairs], hi[pairs]).reshape(-1, 2)
    resid = np.zeros_like(roots)
    resid[good] = (np.real(sys.v1(roots[good].ravel())) - level).reshape(-1, 2)
    bad_root = np.abs(resid) > RESIDUAL_TOL

    def root_error(j):
        return lambda i: BracketFailure(
            f"root at {float(roots[i, j])!r} has residual {float(resid[i, j])!r}")
    _raise_first([
        (below, lambda i: NoWell(f"E={float(energies[i])!r} lies below min v1 ~ {vmin!r}")),
        (degenerate, lambda i: DegenerateEnergy(
            f"E={float(energies[i])!r} within {ENERGY_MARGIN} of the well bottom "
            "or the crossing value")),
        (counts != 2, lambda i: BracketFailure(
            f"expected 2 sign changes of v1 - E on {DEFAULT_X_RANGE}, found {counts[i]}")),
        (bad_root[:, 0], root_error(0)),
        (bad_root[:, 1], root_error(1)),
    ])
    return _unrow(roots[:, 0], scalar), _unrow(roots[:, 1], scalar)


def _exit_root(sys: PotentialSystem, E, falling: bool = False):
    """The one solution c > 0 of v2(x) = E, whichever way v2 crosses it;
    with ``falling``, v2 must decrease through it (else NoExit)."""
    energies, scalar = _rows(E)
    xs, v2g = _scan_grid(sys.v2, "right")
    rows, lo, hi = _scan_brackets(v2g - energies[:, None], xs)
    counts = np.bincount(rows, minlength=energies.size)
    good = counts == 1
    one = good[rows]
    c = np.full(energies.size, np.nan)
    c[good] = _refine_root(sys.v2, sys.dv2, energies[good], lo[one], hi[one])
    resid = np.zeros_like(c)
    resid[good] = np.real(sys.v2(c[good])) - energies[good]
    x_max = DEFAULT_X_RANGE[1]
    checks = [
        (counts == 0, lambda i: NoExit(
            f"v2 - E has no sign change on (0, {x_max}] at E={float(energies[i])!r}")),
        (counts > 1, lambda i: BracketFailure(
            f"expected 1 sign change of v2 - E on (0, {x_max}], found {counts[i]}")),
        (np.abs(resid) > RESIDUAL_TOL, lambda i: BracketFailure(
            f"exit point at {float(c[i])!r} has residual {float(resid[i])!r}")),
    ]
    if falling:
        slope = np.full_like(c, -1.0)
        slope[good] = np.real(sys.dv2(c[good]))
        checks.append((slope >= 0, lambda i: NoExit(
            f"v2 is not decreasing through its level crossing at {float(c[i])!r}")))
    _raise_first(checks)
    return _unrow(c, scalar)


def find_exit_point(sys: PotentialSystem, E):
    """Locate the solution c > 0 of v2(x) = E with v2 decreasing through it."""
    return _exit_root(sys, E, falling=True)


def barrier_points(sys: PotentialSystem, E):
    """Barrier endpoints b < 0 < c adjacent to the crossing.

    b is the largest negative root of v1 = E (v1 rises through it), c the
    exit point of channel 2.  Unlike :func:`find_well_endpoints`, this does
    not require the well itself to lie in the scanned interval, so it also
    serves barrier-only model potentials.
    """
    energies, scalar = _rows(E)
    xs, v1g = _scan_grid(sys.v1, "left")
    rows, lo, hi = _scan_brackets(v1g - energies[:, None], xs)
    counts = np.bincount(rows, minlength=energies.size)
    good = counts > 0
    last = np.zeros(rows.shape, bool)
    last[np.cumsum(counts)[good] - 1] = True  # the rightmost bracket of each row
    b = np.full(energies.size, np.nan)
    b[good] = _refine_root(sys.v1, sys.dv1, energies[good], lo[last], hi[last])
    slope = np.ones_like(b)
    slope[good] = np.real(sys.dv1(b[good]))
    # the rows before the first failed b search their exit points first, as
    # one energy at a time would
    b_bad = ~good | (slope <= 0)
    n_ok = int(np.argmax(b_bad)) if b_bad.any() else b.size
    c = find_exit_point(sys, energies[:n_ok]) if n_ok else None
    _raise_first([
        (~good, lambda i: NoWell(
            f"v1 - E has no sign change on ({DEFAULT_X_RANGE[0]}, 0) at E={float(energies[i])!r}")),
        (slope <= 0, lambda i: BracketFailure(f"v1 does not rise through E at b={float(b[i])!r}")),
    ])
    return _unrow(b, scalar), _unrow(c, scalar)
