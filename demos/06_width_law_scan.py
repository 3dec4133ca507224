"""
Recovering the exponential width law from an h-scan
===================================================

The sharpest statement the engine can check is the exponent itself:
|Im E| ~ h^2 e^{-2 S(E*)/h} as h -> 0 at fixed energy.  Pinning one level
at E* for a ladder of k values gives a sequence of h where the resonance
sits at the same energy, so a least-squares fit of log(|Im E|/h^2)
against 1/h should produce a slope of -2 S(E*).

The reference instance's barrier is too opaque for this to be visible
above the eigensolver floor, so the scan runs on a shallow-barrier
variant (S(1.3) ~ 0.44) where the widths stay resolvable down to
h ~ 0.13.
"""

from predissoc import (
    DiscretizationConfig,
    EnergyWindow,
    PotentialSystem,
    agmon_distance,
    run_scan,
)

V1 = "2 - 2*exp(-((x+4)/3)^2)"
V2 = "1.6619733691878678 - 3*tanh(x)"
sys_ = PotentialSystem.from_strings(V1, V2, r0="1", r1="0")
e_star = 1.3

print("S(E*) =", agmon_distance(sys_, e_star))
print("target slope -2 S(E*) =", -2 * agmon_distance(sys_, e_star))

# ---------------------------------------------------------------------------
# Pin level k at E* for k = 6..10 and run the comparison at each h
# ---------------------------------------------------------------------------
disc = DiscretizationConfig(x_min=-11.0, x_max=14.0, n=300, theta=0.25)
scan = run_scan(sys_, EnergyWindow(e_star, 0.2), disc, range(6, 11))
print("\npinned h values:", [round(row.h, 6) for row in scan.rows])

print(f"\n{'h':>10} {'k':>3} {'width formula':>15} {'width direct':>15} "
      f"{'ratio':>8} {'ok':>4}")
for row in scan.rows:
    ratio = abs(row.width_direct) / abs(row.width_formula)
    print(f"{row.h:10.6f} {row.k:3d} {row.width_formula:15.6e} "
          f"{row.width_direct:15.6e} {ratio:8.4f} {str(row.accepted):>5}")

# ---------------------------------------------------------------------------
# The fitted exponent
# ---------------------------------------------------------------------------
print(f"\nfitted slope      = {scan.slope:.6f}")
print(f"target -2 S(E*)   = {-2 * scan.s_target:.6f}")
print(f"relative error    = {abs(scan.slope / (-2 * scan.s_target) - 1):.2%}")
print(f"r^2 of the fit    = {scan.r_squared:.8f}")
print("\nthe prefactor ratio drifts toward 1 as h falls — the formula's")
print("relative error is O(sqrt(h)), and the scan watches it shrink.")
