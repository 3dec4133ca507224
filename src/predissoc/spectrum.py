"""Bohr-Sommerfeld levels and exponentially small predissociation widths.

The real parts of the resonances are the well levels A(e_k) = (k + 1/2) pi h.
To leading order the imaginary part of the k-th resonance is

    Im E_k = - (h^2 pi / 4) * A'(e_k)^-1 * exp(-2 S(e_k) / h)
             * (v1(0) - e_k)^(-1/2) * (v1'(0) - v2'(0))^(-1)
             * (r0(0) + r1(0) sqrt(v1(0) - e_k))^2,

negative: resonances sit below the real axis.  The same displacement
follows from the quantization condition

    cos(A(E)/h) = h F(E, h),
    F = -(pi / 4i) sin(A(E)/h) e^(-2 A1 - 2 A2) (v1(0)-E)^(-1/2)
        (v1'(0)-v2'(0))^(-1) (r0(0) + r1(0) sqrt(v1(0)-E))^2 + O(h^(1/2)),

with the unknown O(h^(1/2)) correction set to zero and cos(A(E)/h)
linearized around the level: with delta = (A(Re E) - (k+1/2) pi h)/h
+ A' (E - Re E)/h one has cos(A(E)/h) = -(-1)^k sin(delta), which keeps
full relative accuracy when both sides are exponentially small.  With
A' and F frozen at e_k the condition reads tan(delta) = -i hF, so its
root is delta = -i artanh(hF) in closed form, and hF = -w A'/h for the
leading width w: the refined width is w artanh(hF)/hF.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .actions import action, action_and_derivative, agmon_distance, phase_integrals
from .errors import DegenerateEnergy, NewtonDivergence, PredissocError
from .potentials import (
    CrossingData,
    EnergyWindow,
    PotentialSystem,
    _scan_grid,
    crossing_data,
)
from .turning_points import ENERGY_MARGIN

__all__ = [
    "ResonanceEstimate",
    "TransitionElements",
    "QuantizationResidual",
    "RefinedResonance",
    "bohr_sommerfeld_levels",
    "width_from_parts",
    "width_leading",
    "resonance_estimates",
    "transition_elements",
    "quantization_residual",
    "solve_quantization",
]

LEVEL_TOL = 1e-13


def _well_energy_range(sys: PotentialSystem) -> tuple[float, float]:
    """Energies at which the well exists strictly inside the scan interval.

    The upper limit is the lowest of the interval-edge values of v1 and,
    when the crossing value sits above the well bottom, v1(0) (the barrier
    top); a guard of twice the degenerate-energy margin is applied.
    """
    _, v1g = _scan_grid(sys.v1)
    vmin = float(np.min(v1g))
    v10 = float(np.real(sys.v1(0.0)))
    hi_candidates = [float(v1g[0]), float(v1g[-1])]
    if v10 > vmin + 1e-3:
        hi_candidates.append(v10)
    lo = vmin + 2 * ENERGY_MARGIN
    hi = min(hi_candidates) - 2 * ENERGY_MARGIN
    return lo, hi


def _solve_levels(sys, targets, lo, hi, a_lo, a_hi):
    """Invert the (strictly increasing) action: A(e_i) = targets[i] on [lo, hi].

    All rows run one Newton loop, each with its own bracket and the same
    arithmetic: bracketed Newton using A' as the exact derivative, with
    bisection fallback whenever a step leaves the bracket, started at the
    linear interpolation of A over [lo, hi].  Each sweep takes A and A' of
    every row still running from one call.  Returns arrays (e, A'(e)); a
    row's slope is the one of its final step, taken at the returned e.
    """
    targets = np.asarray(targets, dtype=float)
    e = np.minimum(np.maximum(lo + (hi - lo) * (targets - a_lo) / (a_hi - a_lo), lo), hi)
    blo, bhi = np.full_like(e, lo), np.full_like(e, hi)
    levels, slopes = e.copy(), np.empty_like(e)
    rows = np.arange(e.size)
    sweeps = 0
    while rows.size:
        if sweeps == 80:
            raise NewtonDivergence(
                f"level solve stalled at e={float(e[0])!r} (target action {float(targets[0])!r})"
            )
        sweeps += 1
        a_val, slope = action_and_derivative(sys, e)
        levels[rows], slopes[rows] = e, slope
        res = a_val - targets
        converged = np.abs(res) <= LEVEL_TOL * np.maximum(1.0, np.abs(targets))
        above = res > 0
        bhi = np.where(above, np.minimum(bhi, e), bhi)
        blo = np.where(above, blo, np.maximum(blo, e))
        cand = e - res / slope
        cand = np.where((blo <= cand) & (cand <= bhi), cand, 0.5 * (blo + bhi))
        running = ~converged & (cand != e)
        e, blo, bhi = cand[running], blo[running], bhi[running]
        targets, rows = targets[running], rows[running]
    return levels, slopes


def bohr_sommerfeld_levels(sys: PotentialSystem, h: float, window: EnergyWindow,
                           _with_slope: bool = False) -> list[tuple]:
    """All (k, e_k) with A(e_k) = (k + 1/2) pi h and e_k in the window.

    The window is first clamped to energies at which the well exists (and
    stays below the barrier top when there is one); a window entirely
    outside that range yields an empty list.  All levels are solved
    together (see ``_solve_levels``); when that raises, they are solved one
    at a time in k order, so the first level that fails raises its own
    error.  The private ``_with_slope`` makes each entry (k, e_k, A'(e_k)),
    the slope from the level solve.
    """
    range_lo, range_hi = _well_energy_range(sys)
    lo = max(window.lo, range_lo)
    hi = min(window.hi, range_hi)
    if hi <= lo:
        return []
    a_lo, a_hi = action(sys, np.array([lo, hi])).tolist()
    k_min = math.ceil(a_lo / (math.pi * h) - 0.5 - 1e-12)
    k_max = math.floor(a_hi / (math.pi * h) - 0.5 + 1e-12)
    ks = np.arange(max(k_min, 0), k_max + 1)
    targets = (ks + 0.5) * math.pi * h
    try:
        e_k, a_prime = _solve_levels(sys, targets, lo, hi, a_lo, a_hi)
    except PredissocError:
        e_k, a_prime = np.concatenate([_solve_levels(sys, targets[i:i + 1], lo, hi, a_lo, a_hi)
                                       for i in range(ks.size)], axis=1)
    rows = zip(ks.tolist(), e_k.tolist(), a_prime.tolist())
    return [row if _with_slope else row[:2] for row in rows]


def _crossing_prefactor(v1_minus_e, slope_gap, r0_at_0, r1_at_0):
    """(factors, coupling): the three factors whose product, left to right,
    is the crossing prefactor X = (v1(0)-E)^(-1/2) (v1'(0)-v2'(0))^(-1)
    coupling^2, and the coupling r0(0) + r1(0) sqrt(v1(0)-E) itself."""
    coupling = r0_at_0 + r1_at_0 * math.sqrt(v1_minus_e)
    return {"v1_minus_e_pow": v1_minus_e ** -0.5, "dV_inv": 1.0 / slope_gap,
            "coupling_sq": coupling ** 2}, coupling


def width_from_parts(h: float, a_prime: float, s_agmon: float, v1_minus_e: float,
                     slope_gap: float, r0_at_0: float, r1_at_0: float):
    """Leading-order width from its raw ingredients.

    Returns ``(width, parts)`` where ``parts`` holds the six factors whose
    product (with overall sign -1) is the width.  Kept separate from
    :func:`width_leading` so the pure formula can be exercised with
    synthetic factors.
    """
    x_factors, _ = _crossing_prefactor(v1_minus_e, slope_gap, r0_at_0, r1_at_0)
    parts = {
        "h2pi4": h * h * math.pi / 4.0,
        "Aprime_inv": 1.0 / a_prime,
        "exp_factor": math.exp(-2.0 * s_agmon / h),
        **x_factors,
    }
    width = -(parts["h2pi4"] * parts["Aprime_inv"] * parts["exp_factor"]
              * parts["v1_minus_e_pow"] * parts["dV_inv"] * parts["coupling_sq"])
    return width, parts


def _crossing_factors(sys: PotentialSystem, E: float, cd=None):
    cd = crossing_data(sys) if cd is None else cd
    v1me = cd.v1_at_0 - E
    if v1me <= ENERGY_MARGIN:
        raise DegenerateEnergy(
            f"v1(0) - E = {v1me!r} too small; energy too close to the crossing"
        )
    if cd.slope_gap <= 0:
        raise DegenerateEnergy(
            f"slope gap v1'(0) - v2'(0) = {cd.slope_gap!r} not positive"
        )
    return cd, v1me


def width_leading(sys: PotentialSystem, h: float, e_k: float,
                  a_prime: float | None = None, s_agmon: float | None = None,
                  crossing: CrossingData | None = None):
    """Leading-order width (Im E_k) at the level e_k; returns (width, parts).

    ``a_prime`` = A'(e_k), ``s_agmon`` = S(e_k) and ``crossing`` =
    ``crossing_data(sys)`` are computed here unless the caller passes the
    values it already has.
    """
    cd, v1me = _crossing_factors(sys, e_k, crossing)
    if a_prime is None:
        a_prime = action_and_derivative(sys, e_k)[1]
    if s_agmon is None:
        s_agmon = agmon_distance(sys, e_k)
    return width_from_parts(h, a_prime, s_agmon, v1me, cd.slope_gap,
                            cd.r0_at_0, cd.r1_at_0)


@dataclass(frozen=True)
class ResonanceEstimate:
    """Level position plus leading-order width and its factor breakdown."""

    k: int
    e_k: float
    width: float
    s_at_ek: float
    prefactor_parts: dict
    h: float


def _agmon_per_level(sys: PotentialSystem, energies: list) -> list:
    """S(e) for every energy from one Agmon pass; when that pass raises, one
    energy at a time, with a failing energy's error in place of its S."""
    try:
        return agmon_distance(sys, np.array(energies)).tolist()
    except PredissocError:
        pass
    out = []
    for e in energies:
        try:
            out.append(agmon_distance(sys, e))
        except PredissocError as exc:
            out.append(exc)
    return out


def resonance_estimates(sys: PotentialSystem, h: float, window: EnergyWindow):
    """Estimates for every level in the window.

    Returns ``(estimates, skipped)``; levels whose width computation raises
    a :class:`PredissocError` are reported in ``skipped`` as
    (k, e_k, reason) instead of aborting the whole window.  Any other
    exception is a fault and propagates.  A'(e_k) comes from the level
    solve, and S(e_k) of all levels from one Agmon pass, which serves each
    width and ``s_at_ek``.
    """
    estimates = []
    skipped = []
    levels = bohr_sommerfeld_levels(sys, h, window, _with_slope=True)
    if not levels:
        return estimates, skipped
    cd = crossing_data(sys)
    s_all = _agmon_per_level(sys, [e_k for _, e_k, _ in levels])
    for (k, e_k, a_prime), s_agmon in zip(levels, s_all):
        try:
            if isinstance(s_agmon, PredissocError):
                raise s_agmon
            width, parts = width_leading(sys, h, e_k, a_prime, s_agmon, cd)
            estimates.append(ResonanceEstimate(
                k=k, e_k=e_k, width=width, s_at_ek=s_agmon,
                prefactor_parts=parts, h=h,
            ))
        except PredissocError as exc:
            skipped.append((k, e_k, f"{type(exc).__name__}: {exc}"))
    return estimates, skipped


@dataclass(frozen=True)
class TransitionElements:
    """Leading-order interaction-matrix entries at one (E, h).

    ``t12``/``t34`` propagate across the barrier within each channel;
    ``t23``/``t32`` exchange amplitude between the channels at the
    crossing and carry the h^(1/2) smallness.
    """

    t12: complex
    t34: complex
    t23: complex
    t32: complex
    energy: float
    h: float


def transition_elements(sys: PotentialSystem, E: float, h: float) -> TransitionElements:
    cd, v1me = _crossing_factors(sys, E)
    ph = phase_integrals(sys, E, h)
    x_factors, coupling = _crossing_prefactor(v1me, cd.slope_gap,
                                              cd.r0_at_0, cd.r1_at_0)
    pref = math.copysign(math.sqrt(math.pi * h * math.prod(x_factors.values())),
                         coupling)
    return TransitionElements(
        t12=complex(math.exp(ph.a1 + ph.b1)),
        t34=complex(math.exp(ph.a2 + ph.b2)),
        t23=complex(-pref * math.exp(-ph.a1 - ph.a2)),
        t32=complex(pref * math.exp(ph.b1 + ph.b2)),
        energy=E,
        h=h,
    )


@dataclass(frozen=True)
class QuantizationResidual:
    """Value and E-derivative of cos(A(E)/h) - h F(E, h), linearized at Re E."""

    value: complex
    dvalue_dE: complex
    energy: complex
    h: float


def _anchored_residual(s, delta, hf, a_prime, h):
    """Residual of the quantization condition in the shifted phase delta.

    cos(A/h) = cos((k+1/2) pi + delta) = -s sin(delta), and the sine factor
    inside F is s cos(delta); hf is hF with that factor at its level value.
    """
    sin_d = cmath.sin(delta)
    cos_d = cmath.cos(delta)
    f_term = 1j * hf * s * cos_d
    value = -s * sin_d - f_term
    dvalue = -s * cos_d * a_prime / h
    return value, dvalue, f_term


def quantization_residual(sys: PotentialSystem, E: complex, h: float) -> QuantizationResidual:
    """Evaluate cos(A(E)/h) - h F(E, h) with A Taylor-expanded at Re E.

    A and A' are computed at the real part only; the complex offset enters
    through delta = (A(Re E) - (k+1/2) pi h)/h + A' (i Im E)/h where k is
    the nearest level index.  The derivative neglects the E-variation of F,
    which is exponentially smaller than the cosine slope.
    """
    E = complex(E)
    e0 = E.real
    a0, a_prime = action_and_derivative(sys, e0)
    k = int(round(a0 / (math.pi * h) - 0.5))
    s = 1.0 if k % 2 == 0 else -1.0
    delta = (a0 - (k + 0.5) * math.pi * h) / h + 1j * a_prime * E.imag / h
    hf = -width_leading(sys, h, e0, a_prime)[0] * a_prime / h
    value, dvalue, _ = _anchored_residual(s, delta, hf, a_prime, h)
    return QuantizationResidual(value=value, dvalue_dE=dvalue, energy=E, h=h)


@dataclass(frozen=True)
class RefinedResonance:
    """Result of solving the quantization condition for one level.

    ``energy`` = e_k + offset; the offset is kept separately because its
    magnitude (~ h^2 exp(-2S/h)) is far below one ulp of ``energy``, and
    the residual is only meaningful relative to the offset.
    """

    k: int
    level: float
    offset: complex
    residual: complex
    residual_tol: float

    @property
    def energy(self) -> complex:
        return self.level + self.offset

    @property
    def width(self) -> float:
        return self.offset.imag


def solve_quantization(sys: PotentialSystem, h: float, k: int) -> RefinedResonance:
    """Solve the quantization condition for level k in the complex plane.

    With A' and F frozen at the level e_k the root in the shifted phase
    delta = A'(e_k) (E - e_k) / h is delta = -i artanh(hF), hF = -w A'/h
    for the leading width w; the offset is purely imaginary, as the level
    solve's own residual sits far below the neglected O(h^(1/2)) term and
    is dropped from the phase.  hF >= 1 has no root and raises
    NewtonDivergence, as does a k without a Bohr-Sommerfeld level.  With
    vanishing coupling F = 0 and the solution is the level itself, exactly.
    """
    lo, hi = _well_energy_range(sys)
    a_lo, a_hi = action(sys, np.array([lo, hi])).tolist()
    target = (k + 0.5) * math.pi * h
    if not a_lo <= target <= a_hi:
        raise NewtonDivergence(
            f"level k={k} has no Bohr-Sommerfeld solution in ({lo!r}, {hi!r})"
        )
    e_k, a_prime = (float(q[0]) for q in _solve_levels(sys, [target], lo, hi, a_lo, a_hi))
    hf = -width_leading(sys, h, e_k, a_prime)[0] * a_prime / h
    if not hf < 1.0:
        raise NewtonDivergence(f"level k={k}: hF = {hf!r} >= 1, the "
                               "quantization condition has no root")
    delta = complex(0.0, -math.atanh(hf))
    value, _, f_term = _anchored_residual(1.0 if k % 2 == 0 else -1.0, delta,
                                          hf, a_prime, h)
    return RefinedResonance(k=k, level=e_k, offset=complex(0.0, delta.imag * h / a_prime),
                            residual=value, residual_tol=1e-12 * abs(f_term))
