"""Action, Agmon distance, and barrier phase integrals.

All integrands here behave like sqrt(distance to an endpoint) — or its
reciprocal — at simple turning points.  Substituting t = endpoint +- s^2
removes the square-root singularity exactly (the mapped integrand is
analytic in s for analytic potentials), after which fixed-order
Gauss-Legendre converges spectrally.  Every integral is evaluated at N and
2N nodes; if the two disagree the interval is bisected once and re-done.
The well integrals A and A' are singular at both ends, so the rule is
already split at the midpoint and the bisected pass re-does exactly the
same two 2N-node halves: the 2N result is the value either way, and
:func:`action_and_derivative` computes it directly, for both integrands
from one turning-point search and one evaluation of v1.

``action_and_derivative``, ``action`` and ``agmon_distance`` take one
energy or a 1-D array of energies.  An array is done in one pass: one
turning-point search of all rows and one (rows, n) array of quadrature
nodes, summed along each row, so each row equals its scalar call bit for
bit; a scalar gives Python floats.

Notation, for energy E in the window and scaled Planck parameter h:

    A(E)   = integral over the well [a, b] of sqrt(E - v1)      (action)
    A'(E)  = d A / d E = 1/2 * integral over [a, b] of 1/sqrt(E - v1)
    S(E)   = integral b..0 of sqrt(v1 - E) + integral 0..c of sqrt(v2 - E)
             (Agmon distance from the well to the exit point)
    a1     = integral b..0 of sqrt(v1 - E) / h
    b1     = integral 0..c of sqrt(v1 - E) / h
    a2     = integral 0..c of sqrt(v2 - E) / h
    b2     = integral b..0 of sqrt(v2 - E) / h

so that h * (a1 + a2) = S(E) identically (same quadrature path).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BarrierViolation, EmptyInterval
from .potentials import PotentialSystem
from .turning_points import _raise_first, _rows, _unrow, barrier_points, find_well_endpoints

__all__ = [
    "PhaseIntegrals",
    "integrate_endpoint_singular",
    "action",
    "action_and_derivative",
    "agmon_distance",
    "phase_integrals",
]

GL_NODES = 80
REFINE_ABS_TOL = 5e-12


@lru_cache(maxsize=32)
def _gl_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _gl_plain(f, lo, hi, n, args):
    nodes, weights = _gl_rule(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ts = mid[:, None] + half[:, None] * nodes
    return half * np.sum(weights * f(ts, *args), axis=1)


def _mapped_rule(lo, hi, n, singular_end):
    """Nodes t = end -+ s^2 of the mapped rule on each row's interval, with
    its weights and s, each of shape (rows, n)."""
    smax = np.sqrt(hi - lo)[:, None]
    nodes, weights = _gl_rule(n)
    ss = 0.5 * smax * (nodes + 1.0)
    ws = 0.5 * smax * weights
    ts = lo[:, None] + ss * ss if singular_end == "lo" else hi[:, None] - ss * ss
    return ts, ws, ss


def _gl_mapped(f, lo, hi, n, singular_end, args):
    """Gauss-Legendre after t = end -+ s^2; integrand f gets mapped t values
    and the extra jacobian 2s is applied here."""
    ts, ws, ss = _mapped_rule(lo, hi, n, singular_end)
    return np.sum(ws * f(ts, *args) * 2.0 * ss, axis=1)


def _integrate_once(f, lo, hi, sing_lo, sing_hi, n, args):
    if sing_lo and sing_hi:
        mid = 0.5 * (lo + hi)
        return (_gl_mapped(f, lo, mid, n, "lo", args) + _gl_mapped(f, mid, hi, n, "hi", args))
    if sing_lo:
        return _gl_mapped(f, lo, hi, n, "lo", args)
    if sing_hi:
        return _gl_mapped(f, lo, hi, n, "hi", args)
    return _gl_plain(f, lo, hi, n, args)


def integrate_endpoint_singular(f, lo, hi, sing_lo=False, sing_hi=False, args=()):
    """Integrate f over [lo, hi]; endpoints flagged singular get the s^2 map.

    ``lo`` and ``hi`` are scalars or 1-D arrays of intervals, integrated
    together: f gets nodes of shape (rows, n), one row per interval, and
    each of ``args`` (one value per interval) as a column over the same
    rows.  The N-node and 2N-node results (N = GL_NODES) are compared per
    interval; on disagreement beyond ~1e-11 that interval is bisected once
    (a single adaptive pass) and each half re-done at the doubled order.
    Scalar bounds give a float.
    """
    lo_r, hi_r = (np.array(b, dtype=float) for b in np.broadcast_arrays(
        np.atleast_1d(lo), np.atleast_1d(hi)))
    _raise_first([(hi_r < lo_r, lambda i: EmptyInterval(
        f"empty integration interval [{float(lo_r[i])!r}, {float(hi_r[i])!r}]"))])
    cols = [np.broadcast_to(np.asarray(a, dtype=float), lo_r.shape)[:, None] for a in args]
    out = np.zeros(lo_r.shape)
    rows = np.flatnonzero(~(hi_r <= lo_r))
    if rows.size:
        lo_a, hi_a, args_a = lo_r[rows], hi_r[rows], [c[rows] for c in cols]
        coarse = _integrate_once(f, lo_a, hi_a, sing_lo, sing_hi, GL_NODES, args_a)
        fine = _integrate_once(f, lo_a, hi_a, sing_lo, sing_hi, 2 * GL_NODES, args_a)
        out[rows] = fine
        redo = np.abs(fine - coarse) > REFINE_ABS_TOL * np.maximum(1.0, np.abs(fine))
        if redo.any():
            lo_b, hi_b, args_b = lo_a[redo], hi_a[redo], [c[redo] for c in args_a]
            mid = 0.5 * (lo_b + hi_b)
            left = _integrate_once(f, lo_b, mid, sing_lo, False, 2 * GL_NODES, args_b)
            right = _integrate_once(f, mid, hi_b, False, sing_hi, 2 * GL_NODES, args_b)
            out[rows[redo]] = left + right
    return float(out[0]) if np.ndim(lo) == np.ndim(hi) == 0 else out


def _sqrt_clip(vals):
    # roundoff can push (E - v) a hair negative right at a turning point
    return np.sqrt(np.maximum(vals, 0.0))


def action_and_derivative(sys: PotentialSystem, E):
    """The well action and its energy derivative, (A(E), A'(E)).

    A = integral a..b of sqrt(E - v1(t)) dt and A' = 1/2 * integral a..b
    of dt / sqrt(E - v1(t)); the boundary terms of differentiating under
    the integral vanish because the integrand of A is zero at the turning
    points.  Both integrands are built from one search for a, b and one
    evaluation of v1 at the 2N-node rule of the two halves of [a, b].  An
    array of energies is done in one pass and gives two arrays.
    """
    energies, scalar = _rows(E)
    a_val, a_prime = _well_integrals(sys, energies, *find_well_endpoints(sys, energies))
    return _unrow(a_val, scalar), _unrow(a_prime, scalar)


def _well_integrals(sys: PotentialSystem, energies, a, b):
    """(A, A') of each row of ``energies`` from its well endpoints a and b:
    one evaluation of v1 at the 2N-node rule of the two halves of [a, b]."""
    mid = 0.5 * (a + b)
    halves = (_mapped_rule(a, mid, 2 * GL_NODES, "lo"),
              _mapped_rule(mid, b, 2 * GL_NODES, "hi"))
    ts = np.concatenate([rule[0] for rule in halves], axis=1)
    gaps = np.split(energies[:, None] - np.real(sys.v1(ts)), 2, axis=1)
    a_val = a_prime = 0.0
    for (_, ws, ss), gap in zip(halves, gaps):
        a_val += np.sum(ws * _sqrt_clip(gap) * 2.0 * ss, axis=1)
        a_prime += np.sum(ws * (0.5 / np.sqrt(np.maximum(gap, 1e-300))) * 2.0 * ss, axis=1)
    return a_val, a_prime


def action(sys: PotentialSystem, E):
    """Well action A(E) = integral a..b of sqrt(E - v1(t)) dt."""
    return action_and_derivative(sys, E)[0]


def _check_above(v, energies, lo, hi, label):
    """v - E > -1e-12 at 200 points inside each row's (lo, hi), else the
    BarrierViolation of the first row that dips below."""
    lo, hi = np.broadcast_arrays(lo, hi)
    inset = 1e-6 * (hi - lo)
    ts = np.linspace(lo + inset, hi - inset, 200, axis=1)
    low = np.min(np.real(v(ts)) - energies[:, None], axis=1)
    _raise_first([(low < -1e-12, lambda i: BarrierViolation(
        f"{label} must stay positive on ({float(lo[i])!r}, {float(hi[i])!r}); "
        f"min sampled value {float(low[i])!r}"))])


def _sqrt_gap(v):
    """The integrand sqrt(v(t) - E), E given as a column of row energies."""
    return lambda ts, e: _sqrt_clip(np.real(v(ts)) - e)


def _barrier_quads(sys: PotentialSystem, energies):
    """The two Agmon pieces per energy: integral b..0 of sqrt(v1-E) and
    0..c of sqrt(v2-E), with b and c."""
    b, c = barrier_points(sys, energies)
    _check_above(sys.v1, energies, b, 0.0, "v1 - E")
    _check_above(sys.v2, energies, 0.0, c, "v2 - E")
    i_a1 = integrate_endpoint_singular(_sqrt_gap(sys.v1), b, 0.0, sing_lo=True,
                                       args=(energies,))
    i_a2 = integrate_endpoint_singular(_sqrt_gap(sys.v2), 0.0, c, sing_hi=True,
                                       args=(energies,))
    return b, c, i_a1, i_a2


def agmon_distance(sys: PotentialSystem, E):
    """Tunneling distance S(E) from the well edge b through the crossing to
    c; an array of energies is done in one pass and gives an array."""
    energies, scalar = _rows(E)
    _, _, i_a1, i_a2 = _barrier_quads(sys, energies)
    return _unrow(i_a1 + i_a2, scalar)


@dataclass(frozen=True)
class PhaseIntegrals:
    """Barrier phase integrals divided by h (see module docstring)."""

    a1: float
    a2: float
    b1: float
    b2: float


def phase_integrals(sys: PotentialSystem, E: float, h: float) -> PhaseIntegrals:
    """The four barrier integrals scaled by 1/h.

    Requires v2 > E on (b, 0) and v1 > E on (0, c) as well (the crossing
    geometry guarantees both); violations raise BarrierViolation.
    """
    energies = np.array([E], dtype=float)
    b, c, i_a1, i_a2 = _barrier_quads(sys, energies)
    _check_above(sys.v2, energies, b, 0.0, "v2 - E")
    _check_above(sys.v1, energies, 0.0, c, "v1 - E")
    # v1 - E is bounded away from 0 on [0, c] and v2 - E on [b, 0]: regular
    i_b1 = integrate_endpoint_singular(_sqrt_gap(sys.v1), 0.0, c, args=(energies,))
    i_b2 = integrate_endpoint_singular(_sqrt_gap(sys.v2), b, 0.0, args=(energies,))
    return PhaseIntegrals(*(float(q[0]) / h for q in (i_a1, i_a2, i_b1, i_b2)))
