"""
Action integrals and Bohr-Sommerfeld levels
===========================================

The real parts of the resonances are fixed, to leading order, by the
quantization condition A(e_k) = (k + 1/2) pi h, where A(E) is the action
integral of channel 1's well.  The quadratures treat the square-root
turning-point singularities exactly, so closed-form geometries come out
to machine precision — worth seeing once before trusting them on the
reference instance, where no closed form exists.
"""

import math

from predissoc import (
    EnergyWindow,
    PotentialSystem,
    action,
    action_and_derivative,
    agmon_distance,
    bohr_sommerfeld_levels,
    find_well_endpoints,
    pin_level_h,
)

# ---------------------------------------------------------------------------
# Sanity on exactly integrable geometries
# ---------------------------------------------------------------------------
harmonic = PotentialSystem.from_strings("x^2", "-x")
print("harmonic A(1) =", action(harmonic, 1.0), " (pi/2 =", math.pi / 2, ")")

barrier = PotentialSystem.from_strings("2 - x^2", "2 - x")
print("parabola+line S(1) =", agmon_distance(barrier, 1.0),
      " (pi/4 + 2/3 =", math.pi / 4 + 2.0 / 3.0, ")")

# harmonic levels are e_k = (2k+1) h exactly
for k, e_k in bohr_sommerfeld_levels(harmonic, 0.05, EnergyWindow(0.3, 0.25)):
    print(f"  harmonic level k={k}: e_k = {e_k:.12f}  vs  {(2 * k + 1) * 0.05}")

# ---------------------------------------------------------------------------
# The reference instance
# ---------------------------------------------------------------------------
V1 = "2 - 2*exp(-(x+2)^2)"
V2 = "1.9633687222225316 - 1.2*tanh(x)"
sys_ = PotentialSystem.from_strings(V1, V2, r0="1", r1="0")
window = EnergyWindow(1.0, 0.2)

a, b = find_well_endpoints(sys_, 1.0)
print(f"\nwell at E=1: [{a:.6f}, {b:.6f}]")
a_1, a_prime_1 = action_and_derivative(sys_, 1.0)
print("A(1)  =", a_1)
print("A'(1) =", a_prime_1, " (the inverse level density)")
print("S(1)  =", agmon_distance(sys_, 1.0), " (tunneling distance through the barrier)")

for h in (0.14, 0.1):
    levels = bohr_sommerfeld_levels(sys_, h, window)
    print(f"\nlevels in [{window.lo}, {window.hi}] at h={h}:")
    for k, e_k in levels:
        print(f"  k={k}: e_k = {e_k:.12f}   A(e_k)/(pi h) - 1/2 = "
              f"{action(sys_, e_k) / (math.pi * h) - 0.5:.9f}")

# ---------------------------------------------------------------------------
# Pinning a level: choose h so that level k sits exactly at E*
# ---------------------------------------------------------------------------
hs = pin_level_h(sys_, 1.0, range(3, 6))
print("\nh pinning e_k = 1.0 for k=3,4,5:", [round(h, 9) for h in hs])
for k, h in zip(range(3, 6), hs):
    lv = dict(bohr_sommerfeld_levels(sys_, h, window))
    print(f"  k={k}, h={h:.9f}: e_k = {lv[k]:.15f}")
