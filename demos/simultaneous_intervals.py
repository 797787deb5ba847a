"""
Simultaneous prediction intervals for cluster means
====================================================

Fits a unit-level mixed model on synthetic data and compares four ways
of calibrating one critical value for all clusters at once: parametric
bootstrap, direct simulation from the fitted law, Bonferroni, and the
balanced per-cluster variant.
"""

import numpy as np

from spimax import build_spi, calibrate, covers_all, eblup
from spimax.simulate import ScenarioConfig, generate_scenario

# one synthetic dataset: 25 clusters of 5 units, intercept + one slope
config = ScenarioConfig(D=25, n_d=5, sigma2_e=0.5, sigma2_u=1.0, master_seed=42)
data, mu_true, spec = generate_scenario(config, replicate=0)

fit = eblup(data, spec)
print(f"REML estimates: sigma2_e={fit.theta.sigma2_e:.3f}, "
      f"sigma2_u={fit.theta.sigma2_u:.3f}")

# one calibrate call per method: BS and BE share one set of bootstrap
# draws, and MC comes with the model-implied scales it studentizes by
bands, draws = {}, None
for method in ("BS", "MC", "BO", "BE"):
    cv, scales, draws = calibrate(
        method, data, spec, fit, alpha=0.05, seed=7, B=1000, K=50_000, draws=draws
    )
    bands[method] = build_spi(fit, cv, scales)

c = {name: iv.critical.value for name, iv in bands.items()}
print(f"\ncritical values: BS={c['BS']:.3f}  MC={c['MC']:.3f}  "
      f"BO={c['BO']:.3f}  BE(level)={c['BE']:.3f}")

print(f"\n{'method':>6} {'mean width':>11} {'covers all':>11}")
for name, iv in bands.items():
    width = float(np.mean(iv.upper - iv.lower))
    print(f"{name:>6} {width:>11.3f} {str(covers_all(iv, mu_true)):>11}")

# the first few clusters, side by side
print(f"\n{'d':>3} {'truth':>7} {'center':>7} {'BS interval':>17}")
bs = bands["BS"]
for d in range(5):
    print(f"{d:>3} {mu_true[d]:>7.3f} {bs.center[d]:>7.3f} "
          f"[{bs.lower[d]:>6.3f}, {bs.upper[d]:>6.3f}]")
