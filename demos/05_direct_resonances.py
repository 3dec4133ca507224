"""
Direct resonances by exterior complex scaling
=============================================

The independent cross-check never sees the width formula: it discretizes
the full two-channel operator on a contour z = x + i theta f(x) that is
real through the physical region and bends into the upper half plane
beyond the exit point.  Resonances become genuine eigenvalues of the
resulting complex-symmetric matrix; the rotated continuum moves when
theta changes, resonances do not — that contrast is the acceptance test.
"""

import numpy as np

from predissoc import (
    DiscretizationConfig,
    EnergyWindow,
    PotentialSystem,
    build_hamiltonian,
    compare_with_direct,
    compute_resonances,
    theta_stability,
)

V1 = "2 - 2*exp(-(x+2)^2)"
V2 = "1.9633687222225316 - 1.2*tanh(x)"
sys_ = PotentialSystem.from_strings(V1, V2, r0="1", r1="0")
window = EnergyWindow(1.0, 0.2)
h = 0.14

# a reduced grid keeps this demo quick; n=400 is the production default
cfg = DiscretizationConfig(n=200)

# ---------------------------------------------------------------------------
# The discretized contour
# ---------------------------------------------------------------------------
ham = build_hamiltonian(sys_, cfg, h, window)
print("channel blocks:", ham.blocks[0].shape, "each, two channels (Dirichlet ends)")
print("scaling starts at x =", round(ham.x_start_scaling, 6),
      " (exit point + 1)")
imax = ham.z_nodes.imag.max()
print("contour rises to Im z =", round(imax, 4), "at the right edge")

# ---------------------------------------------------------------------------
# Raw eigenvalues in the window box
# ---------------------------------------------------------------------------
vals = compute_resonances(sys_, cfg, h, window)
print(f"\n{len(vals)} eigenvalue(s) in the box "
      f"[{window.lo}, {window.hi}] x [-{5 * h:.1f}, 0]:")
for v in vals:
    print(f"   {v.real:+.12f} {v.imag:+.3e}j")

# ---------------------------------------------------------------------------
# theta-stability separates resonances from rotated continuum
# ---------------------------------------------------------------------------
# drift under a 20% contour rotation, predicted to first order from the
# eigenvector of the one solve: tiny for the true resonance, O(1e-3) and
# larger for continuum points
res_like = vals[np.argmax(vals.imag)]
cont_like = vals[np.argmin(vals.imag)]
for label, v in (("most resonance-like", res_like),
                 ("most continuum-like", cont_like)):
    drift = theta_stability(sys_, cfg, h, v, window)
    print(f"{label}: {v:.6f} -> drift {drift:.3e}")

# ---------------------------------------------------------------------------
# The full comparison pipeline
# ---------------------------------------------------------------------------
# estimates from the width formula, eigenvalues from the matrix, stability
# screening, greedy matching, and a noise floor from the predicted drifts;
# each record is one row of compare.csv, the estimate's k, h, e_k, S and
# width_formula followed by the direct eigenvalue and its verdict
records = compare_with_direct(sys_, window, cfg, h)
print("\nformula vs direct at h =", h)
for rec in records:
    print(f" k={rec.k}: e_k = {rec.e_k:.9f}, width = {rec.width_formula:.3e}")
    if rec.computed is None:
        print("        no stable eigenvalue within the matching radius")
        continue
    print(f"        eigenvalue  = {rec.computed.real:.9f} "
          f"{rec.computed.imag:+.3e}j   (drift {rec.theta_stability:.1e})")
    print(f"        |Re dev| = {rec.abs_dev_re:.2e}, "
          f"rel Im dev = {rec.rel_dev_im:.3f}, accepted = {rec.accepted}")

print("\nthe k=2 width (~4e-14) sits below the eigensolver noise floor, so")
print("the pipeline refuses to certify it; k=3 (~7e-10) is resolved and")
print("agrees with the formula within the expected O(sqrt(h)) relative error.")
