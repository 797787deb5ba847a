"""
Analytic band thresholds from tube geometry
===========================================

When the interval weights trace a smooth manifold, the tail of the
supremum statistic admits a geometric upper bound whose inversion gives
a critical value with no simulation at all.  The constants describe the
manifold (lengths, curvatures, Euler characteristic); here we explore
how the threshold responds to them.
"""

import math

from spimax import TubeConstants, bonferroni_cv, tube_alpha_bound, tube_cv

# a one-dimensional weight manifold with modest curvature corrections
base = dict(kappa0=2.5, zeta0=3.0, kappa2=0.5, zeta1=0.2, m0=0.3,
            euler=0.5, xi0=1.0, eta0=0.3, nu=25.0)
k = TubeConstants(**base)

for alpha in (0.10, 0.05, 0.01):
    cv = tube_cv(p=1, k=k, alpha=alpha)
    print(f"alpha={alpha:.2f}: tube critical value {cv.value:.3f}, "
          f"bound at that point {tube_alpha_bound(1, cv.value, k):.4f}")

# longer manifolds need larger thresholds: double the length kappa0
doubled = TubeConstants(**{**base, "kappa0": 5.0})
print(f"\ndoubling the manifold length: "
      f"{tube_cv(1, k, 0.05).value:.3f} -> {tube_cv(1, doubled, 0.05).value:.3f}")

# with every correction zeroed the p = 1 bound inverts in closed form
plain = TubeConstants(kappa0=2.5, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
                      euler=0.0, xi0=1.0, eta0=0.0, nu=25.0)
alpha = 0.05
x = math.sqrt(plain.nu * ((plain.kappa0 / (math.pi * alpha)) ** (2 / plain.nu) - 1))
print(f"\nclosed form {x / plain.xi0:.6f} vs bisection "
      f"{tube_cv(1, plain, alpha).value:.6f}")

# how does the analytic route compare to Bonferroni over D points?
print(f"\n{'D':>4} {'Bonferroni':>11} {'tube (p=1)':>11}")
for D in (10, 30, 100):
    print(f"{D:>4} {bonferroni_cv(D, 0.05).value:>11.3f} "
          f"{tube_cv(1, k, 0.05).value:>11.3f}")
print("the tube threshold depends on geometry, not the point count")

# large degrees of freedom recover the Gaussian tail
gauss = TubeConstants(kappa0=math.pi, zeta0=0.0, kappa2=0.0, zeta1=0.0,
                      m0=0.0, euler=0.0, xi0=1.0, eta0=0.0, nu=1e4)
c = 2.0
print(f"\nbound at c=2 with nu=1e4: {tube_alpha_bound(1, c, gauss):.6f} "
      f"vs exp(-c^2/2) = {math.exp(-2.0):.6f}")
