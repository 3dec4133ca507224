"""Real roots: the one bracketed-Newton kernel and the turning points.

Every real root in the package is found by :func:`_bracketed_newton`: the
turning points a, b, c here, from brackets found on a fixed scan grid, and
the Bohr-Sommerfeld levels of :mod:`predissoc.spectrum`.

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

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BracketFailure,
    DegenerateEnergy,
    EvalDomainError,
    NewtonDivergence,
    NoExit,
    NoWell,
)

if TYPE_CHECKING:
    from .expressions import AnalyticExpr
    from .potentials import PotentialSystem

__all__ = [
    "find_well_endpoints",
    "find_exit_point",
    "barrier_points",
]

#: points of each fixed root-scan grid
GRID_POINTS = 2000
#: a root is final once its bracket or its Newton step is this small
ROOT_XTOL = 1e-12
#: Newton sweeps after which a row still running raises NewtonDivergence
MAX_SWEEPS = 200
#: real interval of every turning-point scan, and the finite proxy for the
#: x -> +-infinity limit checks
DEFAULT_X_RANGE = (-20.0, 20.0)
RESIDUAL_TOL = 1e-11
#: energies closer than this to the well bottom or the crossing value are
#: rejected; the asymptotics degenerate there
ENERGY_MARGIN = 1e-6


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

    ``part`` selects the grid: "full" is GRID_POINTS points spanning
    DEFAULT_X_RANGE = [x_min, x_max], "left" GRID_POINTS points on
    [x_min, 0] and "right" on [0, x_max].  Scans at different energies
    subtract E from the same cached values.  A value that is not finite
    raises EvalDomainError.
    """
    x_min, x_max = DEFAULT_X_RANGE
    bounds = {"full": (x_min, x_max), "left": (x_min, 0.0), "right": (0.0, x_max)}[part]
    xs = np.linspace(*bounds, GRID_POINTS)
    xs.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.real(expr(xs))
    if not np.all(np.isfinite(vals)):
        raise EvalDomainError(f"{expr} is not finite on [{x_min!r}, {x_max!r}]")
    return xs, np.broadcast_to(vals, xs.shape)  # a read-only view


def _scan_brackets(v_grid, energies):
    """Brackets of the roots of v - E on the scan grid, one row per energy.

    ``v_grid`` holds the values of v on the grid xs.  Returns index arrays
    (rows, cells), ordered by row and left to right within a row: each root
    lies in the grid cell [xs[cell], xs[cell + 1]].  A sign change of v - E
    between neighbours brackets that cell; an exact zero at ``xs[i]`` (the
    last sample excepted) brackets the cell it starts, and its products
    with its neighbours are no sign change.  Only the cells whose range of
    v meets [min E, max E] are scanned: no other cell brackets a root.
    """
    cell_lo = np.minimum(v_grid[:-1], v_grid[1:])
    cell_hi = np.maximum(v_grid[:-1], v_grid[1:])
    cells = np.flatnonzero((cell_lo <= np.fmax.reduce(energies, initial=-np.inf))
                           & (cell_hi >= np.fmin.reduce(energies, initial=np.inf)))
    left, right = (v_grid[i] - energies[:, None] for i in (cells, cells + 1))
    with np.errstate(over="ignore"):  # an overflowed product keeps its sign
        rows, cols = np.nonzero((left == 0.0) | (left * right < 0))
    return rows, cells[cols]


def _bracketed_newton(fdf, x, lo, hi, lo_positive):
    """Roots of many functions, one per row, by one bracketed-Newton loop.

    Row i starts at ``x[i]`` inside its sign-change bracket [lo[i], hi[i]],
    at whose lo end the function is positive where ``lo_positive[i]``.
    ``fdf(x, rows)`` gives the values and slopes of the rows ``rows``
    (indices into the inputs) at their iterates ``x``.  All rows are solved
    with the same arithmetic: each iterate shrinks its bracket, and a Newton
    step that would leave it (or a zero slope) is replaced by bisection.  A
    row stops once a step or its bracket is within ROOT_XTOL, or at an exact
    zero; each sweep evaluates only the rows still running, and a row still
    running after MAX_SWEEPS raises NewtonDivergence.  Returns (roots,
    slopes), each row's slope taken at its last evaluated iterate.
    """
    roots = np.array(x, dtype=float)
    x, slopes = roots.copy(), np.empty_like(roots)
    rows = np.arange(x.size)
    for _ in range(MAX_SWEEPS):
        if not rows.size:
            break
        fx, d = fdf(x, rows)
        slopes[rows] = d
        moves_lo = (fx > 0) == lo_positive
        lo = np.where(moves_lo, x, lo)
        hi = np.where(moves_lo, hi, x)
        # a zero slope gives an infinite or NaN step and an overflowed step
        # is infinite: neither lies in the bracket, so both bisect
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cand = x - fx / d
        cand = np.where((lo <= cand) & (cand <= hi), cand, 0.5 * (lo + hi))
        hit = fx == 0.0
        roots[rows] = np.where(hit, x, cand)
        running = ~(hit | (np.abs(cand - x) <= ROOT_XTOL) | (hi - lo <= ROOT_XTOL))
        x, lo, hi, lo_positive, rows = (q[running] for q in (cand, lo, hi, lo_positive, rows))
    if rows.size:
        raise NewtonDivergence(f"root search still running after {MAX_SWEEPS} sweeps "
                               f"at x={float(x[0])!r}")
    return roots, slopes


def _refine_root(v, dv, level, xs, cells, f_lo, f_hi, start=None):
    """Roots of v(x) = level[j] in the scan-grid cells [xs[cells[j]],
    xs[cells[j] + 1]], at whose ends v - level[j] is f_lo[j] and f_hi[j]: of
    opposite signs, or f_lo[j] = 0.  Each root is found by the kernel with
    the exact derivative dv, from ``start[j]`` clipped into its cell, by
    default the cell's secant point (its left end at a zero there).
    Returns the kernel's (roots, slopes).
    """
    lo, hi = xs[cells], xs[cells + 1]
    if start is None:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            start = np.where(f_lo == 0.0, lo, lo + (hi - lo) * (f_lo / (f_lo - f_hi)))

    def fdf(x, rows):
        return np.real(v(x)) - level[rows], np.real(dv(x))
    return _bracketed_newton(fdf, np.clip(start, lo, hi), lo, hi, f_lo > 0)


def _grid_roots(v, dv, energies, xs, v_grid, rows, cells):
    """The roots of the brackets (rows, cells) that :func:`_scan_brackets`
    found for v = energies on the grid xs, from their secant points."""
    level = energies[rows]
    roots, _ = _refine_root(v, dv, level, xs, cells, v_grid[cells] - level,
                            v_grid[cells + 1] - level)
    return roots


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
    rows, cells = _scan_brackets(v1g, energies)
    counts = np.bincount(rows, minlength=energies.size)
    good = (counts == 2) & ~below & ~degenerate
    pairs = good[rows]
    roots = np.full((energies.size, 2), np.nan)
    roots[good] = _grid_roots(sys.v1, sys.dv1, energies, xs, v1g, rows[pairs],
                              cells[pairs]).reshape(-1, 2)
    resid = np.zeros_like(roots)
    resid[good] = np.real(sys.v1(roots[good])) - energies[good, None]
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


def _warm_well_endpoints(sys: PotentialSystem, energies, a, b, e_prev):
    """The well endpoints at each row of ``energies``, from the row's
    endpoints a and b at a nearby energy ``e_prev``, without a scan.

    Each root starts at root + (E - e_prev)/v1'(root) inside the scan-grid
    cell that holds it.  A row whose two cells no longer bracket v1 = E is
    searched cold by :func:`find_well_endpoints`; the others skip its
    checks, which the search at ``e_prev`` passed.
    """
    xs, v1g = _scan_grid(sys.v1)
    roots = np.stack([a, b], axis=1)
    cells = np.clip(np.searchsorted(xs, roots, side="right") - 1, 0, xs.size - 2)
    f_lo, f_hi = (v1g[i] - energies[:, None] for i in (cells, cells + 1))
    with np.errstate(over="ignore"):  # as in _scan_brackets
        warm = np.all((f_lo == 0.0) | (f_lo * f_hi < 0), axis=1)
    if warm.any():
        with np.errstate(divide="ignore"):  # a zero slope's start is clipped
            start = roots[warm] + (energies - e_prev)[warm, None] / np.real(sys.dv1(roots[warm]))
        roots[warm] = _refine_root(
            sys.v1, sys.dv1, np.repeat(energies[warm], 2), xs, cells[warm].ravel(),
            f_lo[warm].ravel(), f_hi[warm].ravel(), start.ravel())[0].reshape(-1, 2)
    if not warm.all():
        roots[~warm] = np.stack(find_well_endpoints(sys, energies[~warm]), axis=1)
    return roots[:, 0], roots[:, 1]


def _exit_root(sys: PotentialSystem, E, falling: bool = False):
    """The one solution c > 0 of v2(x) = E, whichever way v2 crosses it;
    with ``falling``, v2 must decrease through it (else NoExit)."""
    energies, scalar = _rows(E)
    xs, v2g = _scan_grid(sys.v2, "right")
    rows, cells = _scan_brackets(v2g, energies)
    # an exact zero at the crossing x = 0 brackets (0, xs[1]) but is no c > 0
    keep = (cells > 0) | (v2g[0] != energies[rows])
    rows, cells = rows[keep], cells[keep]
    counts = np.bincount(rows, minlength=energies.size)
    good = counts == 1
    one = good[rows]
    c = np.full(energies.size, np.nan)
    c[good] = _grid_roots(sys.v2, sys.dv2, energies, xs, v2g, rows[one], cells[one])
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
    rows, cells = _scan_brackets(v1g, energies)
    counts = np.bincount(rows, minlength=energies.size)
    good = counts > 0
    last = np.cumsum(counts)[good] - 1  # the rightmost bracket of each row
    b = np.full(energies.size, np.nan)
    b[good] = _grid_roots(sys.v1, sys.dv1, energies, xs, v1g, rows[last], cells[last])
    slope = np.ones_like(b)
    slope[good] = np.real(sys.dv1(b[good]))
    # the rows before the first failed b search their exit points first, as
    # one energy at a time would
    b_bad = ~good | (slope <= 0)
    n_ok = int(np.argmax(b_bad)) if b_bad.any() else b.size
    c = find_exit_point(sys, energies[:n_ok]) if n_ok else None

    def no_rise(i):
        e, top = float(energies[i]), float(np.real(sys.v1(0.0)))
        if e >= top:  # v1 < E up to the crossing: the last root is the well's wall
            return BracketFailure(
                f"no barrier point b < 0 at E={e!r}: E is at or above v1(0) = {top!r}")
        return BracketFailure(f"v1 does not rise through E at b={float(b[i])!r}")

    _raise_first([
        (~good, lambda i: NoWell(
            f"v1 - E has no sign change on ({DEFAULT_X_RANGE[0]}, 0) at E={float(energies[i])!r}")),
        (slope <= 0, no_rise),
    ])
    return _unrow(b, scalar), _unrow(c, scalar)
