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
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import _well_integrals, action_and_derivative, agmon_distance, phase_integrals
from .errors import DegenerateEnergy, NewtonDivergence, PredissocError
from .potentials import CrossingData, EnergyWindow, PotentialSystem, crossing_data
from .turning_points import (ENERGY_MARGIN, ROOT_XTOL, _bracketed_newton, _scan_grid,
                             _warm_well_endpoints, find_well_endpoints)

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


logger = logging.getLogger("predissoc.spectrum")

#: a level whose Newton step falls to this searches its turning points cold
#: on its next sweep, which should be its last (the step after it is about
#: WARM_STEP^2); a longer step warm-starts them from the previous iterate's
WARM_STEP = 1e-7
#: a level ends on a cold evaluation whose Newton step is within this
LEVEL_XTOL = 1e-14
#: evenly spaced energies of a window's action table, its two ends included
TABLE_POINTS = 33

#: crossing_data, computed once per system
_system_crossing = lru_cache(maxsize=32)(crossing_data)


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


@lru_cache(maxsize=32)
def _action_table(sys: PotentialSystem, lo: float, hi: float):
    """The action table of the clamped window [lo, hi], read-only: arrays
    (E, A, A') at TABLE_POINTS evenly spaced energies from lo to hi, both
    exactly, from one ``action_and_derivative`` call.  Nothing in it
    depends on h.  When that call raises a PredissocError, the table is the
    two ends alone, whose own search raises where an end fails."""
    try:
        energies = np.linspace(lo, hi, TABLE_POINTS)
        table = (energies, *action_and_derivative(sys, energies))
    except PredissocError:
        energies = np.array([lo, hi])
        table = (energies, *action_and_derivative(sys, energies))
    for column in table:
        column.flags.writeable = False
    return table


def _window_table(sys: PotentialSystem, lo: float, hi: float):
    """(table, built): ``_action_table(sys, lo, hi)`` and whether this call
    built it rather than reading the cache."""
    misses = _action_table.cache_info().misses
    table = _action_table(sys, lo, hi)
    return table, _action_table.cache_info().misses > misses


def _solve_levels(sys, targets, table, built=False):
    """Invert the (strictly increasing) action: A(e_i) = targets[i] on the
    window of the action ``table`` (see ``_action_table``).

    All rows run the one root kernel (``turning_points._bracketed_newton``)
    on the whole window with A' as the exact derivative, each started at
    the inverse cubic Hermite interpolant of E(A) through A and
    dE/dA = 1/A' at the ends of the table interval that brackets its
    target; each sweep takes A and A' of every row it evaluates from one
    quadrature pass.

    A row searches its turning points cold (``find_well_endpoints``) on its
    first sweep and on any sweep after one that moved it by at most
    WARM_STEP, which should be its last; every other sweep starts them from
    the row's previous ones (``turning_points._warm_well_endpoints``).  A row
    that the kernel stops on a warm sweep, or whose last Newton step
    exceeds LEVEL_XTOL, is evaluated cold once more at its Newton update,
    within the next sweep's search or after the kernel.  Returns arrays
    (e, A'): each row's last evaluated iterate and A' there, bit for bit
    that of ``action_and_derivative``.  Logs one DEBUG line with the level,
    sweep and search counts and whether the table was ``built`` for this
    solve.
    """
    targets = np.asarray(targets, dtype=float)
    lo, hi = table[0][0], table[0][-1]
    j = np.clip(np.searchsorted(table[1], targets, side="right") - 1, 0, table[0].size - 2)
    (e_lo, e_hi), (a_lo, a_hi), (d_lo, d_hi) = ((q[j], q[j + 1]) for q in table)
    span = a_hi - a_lo
    t = (targets - a_lo) / span
    e = ((1 - t) ** 2 * ((1 + 2 * t) * e_lo + t * span / d_lo)
         + t * t * ((3 - 2 * t) * e_hi - (1 - t) * span / d_hi))
    e = np.minimum(np.maximum(e, lo), hi)
    last, a, b, a_prime, ahead = (np.full(e.shape, np.nan) for _ in range(5))
    warm_last, settled = np.zeros(e.shape, bool), np.zeros(e.shape, bool)
    counts = dict.fromkeys(("sweeps", "cold", "warm"), 0)

    def stopped_to_redo(running):
        """Settle the rows the kernel has stopped, all but ``running``;
        return those that need a cold evaluation at their Newton update,
        which becomes their iterate."""
        done = ~settled
        done[running] = False
        done = np.flatnonzero(done)
        settled[done] = True
        redo = done[warm_last[done] | (np.abs(ahead[done] - last[done]) > LEVEL_XTOL)]
        last[redo] = ahead[redo]
        return redo

    def fdf(x, rows):
        redo = stopped_to_redo(rows)
        step = np.abs(x - last[rows])  # NaN on a row's first sweep
        warm = ~(np.isnan(step) | (step <= WARM_STEP))
        at, energies = np.concatenate([rows, redo]), np.concatenate([x, last[redo]])
        cold = np.concatenate([~warm, np.ones(redo.size, bool)])
        if warm.any():
            w = rows[warm]
            a[w], b[w] = _warm_well_endpoints(sys, x[warm], a[w], b[w], last[w])
        if cold.any():
            a[at[cold]], b[at[cold]] = find_well_endpoints(sys, energies[cold])
        last[rows] = x
        a_val, a_prime[at] = _well_integrals(sys, energies, a[at], b[at])
        warm_last[at] = ~cold
        counts["sweeps"] += 1
        counts["cold"] += int(cold.sum())
        counts["warm"] += int(warm.sum())
        fx = a_val[:x.size] - targets[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = fx / a_prime[rows]
        # the kernel's own update when it is a short Newton step (a row
        # stops on no other), else the iterate itself
        ahead[rows] = np.where(np.abs(newton) <= ROOT_XTOL, x - newton, x)
        return fx, a_prime[rows]
    _bracketed_newton(fdf, e, np.full_like(e, lo), np.full_like(e, hi), np.zeros(e.shape, bool))
    redo = stopped_to_redo(np.arange(0))
    if redo.size:
        a_prime[redo] = action_and_derivative(sys, last[redo])[1]
        counts["sweeps"] += 1
        counts["cold"] += redo.size
    logger.debug("level solve: %d level(s), %d sweep(s), %d cold and %d warm "
                 "turning-point search(es), action table %s", e.size, counts["sweeps"],
                 counts["cold"], counts["warm"], "built" if built else "reused")
    return last, a_prime


def bohr_sommerfeld_levels(sys: PotentialSystem, h: float, window: EnergyWindow,
                           _with_slope: bool = False) -> list[tuple]:
    """All (k, e_k) with A(e_k) = (k + 1/2) pi h and e_k in the window.

    The window is first clamped to energies at which the well exists (and
    stays below the barrier top when there is one).  A window entirely
    outside that range, or one in which no (k + 1/2) pi h lies between the
    actions at its ends, yields an empty list and logs one WARNING that
    says which, with the ranges.  All levels are solved together (see
    ``_solve_levels``); when that raises, they are solved one at a time in
    k order, so the first level that fails raises its own error.  The
    private ``_with_slope`` makes each entry (k, e_k, A'(e_k)).
    """
    range_lo, range_hi = _well_energy_range(sys)
    lo = max(window.lo, range_lo)
    hi = min(window.hi, range_hi)
    if hi <= lo:
        logger.warning("no level: the window [%.10g, %.10g] misses the well's energy "
                       "range [%.10g, %.10g]", window.lo, window.hi, range_lo, range_hi)
        return []
    table, built = _window_table(sys, lo, hi)
    a_lo, a_hi = float(table[1][0]), float(table[1][-1])
    k_min = math.ceil(a_lo / (math.pi * h) - 0.5 - 1e-12)
    k_max = math.floor(a_hi / (math.pi * h) - 0.5 + 1e-12)
    ks = np.arange(max(k_min, 0), k_max + 1)
    if not ks.size:
        logger.warning("no level: no (k + 1/2) pi h at h=%.10g lies between A(%.10g) = %.10g "
                       "and A(%.10g) = %.10g", h, lo, a_lo, hi, a_hi)
        return []
    targets = (ks + 0.5) * math.pi * h
    try:
        e_k, a_prime = _solve_levels(sys, targets, table, built)
    except PredissocError:
        e_k, a_prime = np.concatenate([_solve_levels(sys, targets[i:i + 1], table)
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
    cd = _system_crossing(sys) if cd is None else cd
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
    ``crossing_data(sys)`` are computed here (the crossing data once per
    system) unless the caller passes the values it already has.
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
    solve, S(e_k) of all levels from one Agmon pass, which serves each
    width and ``s_at_ek``, and the crossing data from a per-system cache.
    """
    estimates = []
    skipped = []
    levels = bohr_sommerfeld_levels(sys, h, window, _with_slope=True)
    if not levels:
        return estimates, skipped
    cd = _system_crossing(sys)
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
    table, built = _window_table(sys, lo, hi)
    a_lo, a_hi = float(table[1][0]), float(table[1][-1])
    target = (k + 0.5) * math.pi * h
    if not a_lo <= target <= a_hi:
        raise NewtonDivergence(
            f"level k={k} has no Bohr-Sommerfeld solution in ({lo!r}, {hi!r})"
        )
    e_k, a_prime = (float(q[0]) for q in _solve_levels(sys, [target], table, built))
    hf = -width_leading(sys, h, e_k, a_prime)[0] * a_prime / h
    if not hf < 1.0:
        raise NewtonDivergence(f"level k={k}: hF = {hf!r} >= 1, the "
                               "quantization condition has no root")
    delta = complex(0.0, -math.atanh(hf))
    value, _, f_term = _anchored_residual(1.0 if k % 2 == 0 else -1.0, delta,
                                          hf, a_prime, h)
    return RefinedResonance(k=k, level=e_k, offset=complex(0.0, delta.imag * h / a_prime),
                            residual=value, residual_tol=1e-12 * abs(f_term))
