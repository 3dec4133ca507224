"""
The leading-order width formula
===============================

A level e_k of the well decays by tunneling from the well edge to the
crossing and out through the open channel.  The imaginary part of the
resonance is, to leading order,

    Im E_k = -(h^2 pi / 4) * A'(e_k)^{-1} * e^{-2 S(e_k)/h}
             * (V1(0) - e_k)^{-1/2} * (V1'(0) - V2'(0))^{-1}
             * (r0(0) + r1(0) sqrt(V1(0) - e_k))^2

exponentially small in h through the Agmon distance S, and quadratic in
the interband coupling evaluated at the crossing.  The engine exposes the
assembled number and every factor separately.
"""

import math

from predissoc import (
    EnergyWindow,
    PotentialSystem,
    resonance_estimates,
    solve_quantization,
    transition_elements,
    width_leading,
)

V1 = "2 - 2*exp(-(x+2)^2)"
V2 = "1.9633687222225316 - 1.2*tanh(x)"
sys_ = PotentialSystem.from_strings(V1, V2, r0="1", r1="0")
window = EnergyWindow(1.0, 0.2)
h = 0.14

# ---------------------------------------------------------------------------
# Widths for every level in the window, with the factor breakdown
# ---------------------------------------------------------------------------
estimates, skipped = resonance_estimates(sys_, h, window)
for est in estimates:
    print(f"k={est.k}: e_k = {est.e_k:.12f}   S(e_k) = {est.s_at_ek:.9f}")
    print(f"       width = {est.width:.6e}")
    for name, value in est.prefactor_parts.items():
        print(f"       {name:16} = {value:.6e}")

# the exponential factor dominates everything: at h=0.14 the two levels'
# widths differ by four orders of magnitude purely through e^{-2S/h}
w2, w3 = estimates[0].width, estimates[1].width
print(f"\nwidth ratio k=3 / k=2 = {w3 / w2:.3e}")

# ---------------------------------------------------------------------------
# Quadratic response to the coupling strength
# ---------------------------------------------------------------------------
for kappa in (1.0, 2.0, 3.0):
    scaled = PotentialSystem.from_strings(V1, V2, r0=repr(kappa), r1="0")
    w, _ = width_leading(scaled, h, 1.0)
    print(f"r0 = {kappa}: width(E*=1) = {w:.6e}   /kappa^2 = {w / kappa**2:.6e}")

# ---------------------------------------------------------------------------
# Transition elements across the crossing
# ---------------------------------------------------------------------------
t = transition_elements(sys_, 1.0, h)
print("\n|t23| =", abs(t.t23), " |t32| =", abs(t.t32))
print("|t23 t32| =", abs(t.t23 * t.t32), " (carries e^{-2S/h} x coupling^2)")

# ---------------------------------------------------------------------------
# Refining a level through the quantization relation
# ---------------------------------------------------------------------------
# The root of cos(A(E)/h) = h F(E) near the level is e_k - i artanh(hF) h/A'
# in closed form: it lies in the lower half plane, and its imaginary part is
# the width again, times artanh(hF)/hF = 1 + O((hF)^2).
for k in (3, 4):
    res = solve_quantization(sys_, 0.1, k)
    wl, _ = width_leading(sys_, 0.1, res.level)
    print(f"\nk={k} at h=0.1: level {res.level:.12f}")
    print(f"   refined offset  = {res.offset:.6e}")
    print(f"   width formula   = {wl:.6e}")
    print(f"   relative gap    = {abs(res.offset.imag - wl) / abs(wl):.2e}"
          f"   (tolerance 2 sqrt(h) = {2 * math.sqrt(0.1):.3f})")
