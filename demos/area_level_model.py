"""
Area-level model with known sampling variances
==============================================

The area-level variant observes one summary value per area with a known
error variance.  REML then estimates only the between-area variance;
intervals follow the same max-statistic calibration as the unit-level
model.
"""

import numpy as np

from spimax import (
    build_spi,
    critical_value_bs,
    eblup,
    parametric_bootstrap,
)
from spimax.model import FHM
from spimax.simulate import ScenarioConfig, generate_scenario

# 20 areas, known error variances assigned blockwise from a 5-value pattern
config = ScenarioConfig(
    model_tag=FHM,
    D=20,
    sigma2_u=1.0,
    fhm_sigma_pattern=(2.0, 0.6, 0.5, 0.4, 0.2),
    master_seed=11,
)
data, mu_true, spec = generate_scenario(config, replicate=0)
print("known error variances:", np.unique(data.known_error_vars))

fit = eblup(data, spec)
print(f"REML between-area variance: {fit.theta.sigma2_u:.3f} (truth 1.0)")

# shrinkage: areas with noisier summaries lean harder on the regression
gamma = fit.theta.sigma2_u / (fit.theta.sigma2_u + data.known_error_vars)
print(f"shrinkage weights range from {gamma.min():.2f} (noisiest) "
      f"to {gamma.max():.2f} (cleanest)")

draws = parametric_bootstrap(data, spec, fit, b_reps=1000, master_seed=5)
iv = build_spi(fit, critical_value_bs(draws, alpha=0.05))

print(f"\nsimultaneous 95% intervals, critical value {iv.critical.value:.3f}")
print(f"{'area':>4} {'err var':>8} {'direct y':>9} {'center':>7} {'interval':>18}")
for d in range(0, 20, 4):
    print(f"{d:>4} {data.known_error_vars[d]:>8.2f} {data.y[d]:>9.3f} "
          f"{iv.center[d]:>7.3f} [{iv.lower[d]:>7.3f}, {iv.upper[d]:>7.3f}]")

inside = np.mean((iv.lower <= mu_true) & (mu_true <= iv.upper))
print(f"\nfraction of true area means inside: {inside:.2f}")
