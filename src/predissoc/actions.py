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
from .turning_points import barrier_points, find_well_endpoints

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


def _gl_plain(f, lo, hi, n):
    nodes, weights = _gl_rule(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ts = mid + half * nodes
    return half * float(np.sum(weights * f(ts)))


def _mapped_rule(lo, hi, n, singular_end):
    """Nodes t = end -+ s^2 of the mapped rule, with its weights and s."""
    smax = np.sqrt(hi - lo)
    nodes, weights = _gl_rule(n)
    ss = 0.5 * smax * (nodes + 1.0)
    ws = 0.5 * smax * weights
    ts = lo + ss * ss if singular_end == "lo" else hi - ss * ss
    return ts, ws, ss


def _gl_mapped(f, lo, hi, n, singular_end):
    """Gauss-Legendre after t = end -+ s^2; integrand f gets mapped t values
    and the extra jacobian 2s is applied here."""
    ts, ws, ss = _mapped_rule(lo, hi, n, singular_end)
    return float(np.sum(ws * f(ts) * 2.0 * ss))


def _integrate_once(f, lo, hi, sing_lo, sing_hi, n):
    if sing_lo and sing_hi:
        mid = 0.5 * (lo + hi)
        return (_gl_mapped(f, lo, mid, n, "lo") + _gl_mapped(f, mid, hi, n, "hi"))
    if sing_lo:
        return _gl_mapped(f, lo, hi, n, "lo")
    if sing_hi:
        return _gl_mapped(f, lo, hi, n, "hi")
    return _gl_plain(f, lo, hi, n)


def integrate_endpoint_singular(f, lo, hi, sing_lo=False, sing_hi=False) -> float:
    """Integrate f over [lo, hi]; endpoints flagged singular get the s^2 map.

    The N-node and 2N-node results (N = GL_NODES) are compared; on
    disagreement beyond ~1e-11 the interval is bisected once (a single
    adaptive pass) and each half re-done at the doubled order.
    """
    if hi <= lo:
        if hi == lo:
            return 0.0
        raise EmptyInterval(f"empty integration interval [{lo!r}, {hi!r}]")
    coarse = _integrate_once(f, lo, hi, sing_lo, sing_hi, GL_NODES)
    fine = _integrate_once(f, lo, hi, sing_lo, sing_hi, 2 * GL_NODES)
    if abs(fine - coarse) <= REFINE_ABS_TOL * max(1.0, abs(fine)):
        return fine
    mid = 0.5 * (lo + hi)
    left = _integrate_once(f, lo, mid, sing_lo, False, 2 * GL_NODES)
    right = _integrate_once(f, mid, hi, False, sing_hi, 2 * GL_NODES)
    return left + right


def _sqrt_clip(vals):
    # roundoff can push (E - v) a hair negative right at a turning point
    return np.sqrt(np.maximum(vals, 0.0))


def action_and_derivative(sys: PotentialSystem, E: float) -> tuple[float, float]:
    """The well action and its energy derivative, (A(E), A'(E)).

    A = integral a..b of sqrt(E - v1(t)) dt and A' = 1/2 * integral a..b
    of dt / sqrt(E - v1(t)); the boundary terms of differentiating under
    the integral vanish because the integrand of A is zero at the turning
    points.  Both integrands are built from one search for a, b and one
    evaluation of v1 at the 2N-node rule of the two halves of [a, b].
    """
    a, b = find_well_endpoints(sys, E)
    mid = 0.5 * (a + b)
    halves = (_mapped_rule(a, mid, 2 * GL_NODES, "lo"),
              _mapped_rule(mid, b, 2 * GL_NODES, "hi"))
    ts = np.concatenate([rule[0] for rule in halves])
    gaps = np.split(E - np.real(sys.v1(ts)), 2)
    a_val = a_prime = 0.0
    for (_, ws, ss), gap in zip(halves, gaps):
        a_val += float(np.sum(ws * _sqrt_clip(gap) * 2.0 * ss))
        a_prime += float(np.sum(ws * (0.5 / np.sqrt(np.maximum(gap, 1e-300))) * 2.0 * ss))
    return a_val, a_prime


def action(sys: PotentialSystem, E: float) -> float:
    """Well action A(E) = integral a..b of sqrt(E - v1(t)) dt."""
    return action_and_derivative(sys, E)[0]


def _check_positive(g, lo, hi, label):
    inset = 1e-6 * (hi - lo)
    ts = np.linspace(lo + inset, hi - inset, 200)
    vals = g(ts)
    if np.min(vals) < -1e-12:
        raise BarrierViolation(
            f"{label} must stay positive on ({lo!r}, {hi!r}); "
            f"min sampled value {float(np.min(vals))!r}"
        )


def _barrier_quads(sys: PotentialSystem, E: float):
    """The two Agmon pieces: integral b..0 of sqrt(v1-E), 0..c of sqrt(v2-E)."""
    b, c = barrier_points(sys, E)
    v1, v2 = sys.v1, sys.v2
    g1 = lambda ts: np.real(v1(ts)) - E
    g2 = lambda ts: np.real(v2(ts)) - E
    _check_positive(g1, b, 0.0, "v1 - E")
    _check_positive(g2, 0.0, c, "v2 - E")
    i_a1 = integrate_endpoint_singular(lambda ts: _sqrt_clip(g1(ts)), b, 0.0, sing_lo=True)
    i_a2 = integrate_endpoint_singular(lambda ts: _sqrt_clip(g2(ts)), 0.0, c, sing_hi=True)
    return b, c, i_a1, i_a2


def agmon_distance(sys: PotentialSystem, E: float) -> float:
    """Tunneling distance S(E) from the well edge b through the crossing to c."""
    _, _, i_a1, i_a2 = _barrier_quads(sys, E)
    return i_a1 + i_a2


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
    b, c, i_a1, i_a2 = _barrier_quads(sys, E)
    v1, v2 = sys.v1, sys.v2
    g1 = lambda ts: np.real(v1(ts)) - E
    g2 = lambda ts: np.real(v2(ts)) - E
    _check_positive(g2, b, 0.0, "v2 - E")
    _check_positive(g1, 0.0, c, "v1 - E")
    # v1 - E is bounded away from 0 on [0, c] and v2 - E on [b, 0]: regular
    i_b1 = integrate_endpoint_singular(lambda ts: _sqrt_clip(g1(ts)), 0.0, c)
    i_b2 = integrate_endpoint_singular(lambda ts: _sqrt_clip(g2(ts)), b, 0.0)
    return PhaseIntegrals(a1=i_a1 / h, a2=i_a2 / h, b1=i_b1 / h, b2=i_b2 / h)
