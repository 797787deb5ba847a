"""
Simultaneous prediction intervals for cluster means
====================================================

Fits a unit-level mixed model on synthetic data and compares four ways
of calibrating one critical value for all clusters at once: parametric
bootstrap, direct simulation from the fitted law, Bonferroni, and the
balanced per-cluster variant.
"""

import numpy as np

from spimax import (
    beran_critical_values,
    bonferroni_cv,
    build_joint_normal,
    build_spi,
    covers_all,
    critical_value_bs,
    critical_value_mc,
    eblup,
    model_scales,
    parametric_bootstrap,
)
from spimax.simulate import ScenarioConfig, generate_scenario

# one synthetic dataset: 25 clusters of 5 units, intercept + one slope
config = ScenarioConfig(D=25, n_d=5, sigma2_e=0.5, sigma2_u=1.0, master_seed=42)
data, mu_true, spec = generate_scenario(config, replicate=0)

fit = eblup(data, spec)
print(f"REML estimates: sigma2_e={fit.theta.sigma2_e:.3f}, "
      f"sigma2_u={fit.theta.sigma2_u:.3f}")

# bootstrap calibration; the same draws also give the balanced variant
draws = parametric_bootstrap(data, spec, fit, b_reps=1000, master_seed=7)
cv_bs = critical_value_bs(draws, alpha=0.05)
cv_be = beran_critical_values(draws, alpha=0.05)

# direct simulation studentizes by the model-implied scales
joint = build_joint_normal(data, fit.theta)
mc_scales = model_scales(joint, spec)
cv_mc = critical_value_mc(joint, spec, k_draws=50_000, alpha=0.05, master_seed=7)

cv_bo = bonferroni_cv(data.D, alpha=0.05)

print(f"\ncritical values: BS={cv_bs.value:.3f}  MC={cv_mc.value:.3f}  "
      f"BO={cv_bo.value:.3f}  BE(level)={cv_be.value:.3f}")

bands = {
    "BS": build_spi(fit, cv_bs),
    "MC": build_spi(fit, cv_mc, scales=mc_scales),
    "BO": build_spi(fit, cv_bo),
    "BE": build_spi(fit, cv_be),
}

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
