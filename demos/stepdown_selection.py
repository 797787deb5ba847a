"""
Which clusters deviate?  Step-down selection with family-wise control
=====================================================================

Tests one null value per cluster and asks which clusters can be declared
different while controlling the probability of any false declaration.
The step-down rule retests the survivors against smaller subset
quantiles, so it can only reject more than the single-step test.
"""

import numpy as np

from spimax import (
    critical_value_bs,
    eblup,
    parametric_bootstrap,
    single_step_test,
    step_down_test,
    stepdown_quantile_provider,
)
from spimax.simulate import ScenarioConfig, generate_scenario

config = ScenarioConfig(D=20, n_d=6, sigma2_e=0.5, sigma2_u=1.0, master_seed=99)
data, mu_true, spec = generate_scenario(config, replicate=0)

# nulls: true values for most clusters, but clusters 0..3 are reported
# 0.9 too low, so those four nulls are actually false
h = mu_true.copy()
h[:4] -= 0.9

fit = eblup(data, spec)
draws = parametric_bootstrap(data, spec, fit, b_reps=2000, master_seed=3)

single = single_step_test(fit.mu_hat, fit.scale, h, critical_value_bs(draws, 0.05))
single_rej = set(int(i) for i in np.flatnonzero(single.decisions))

# the step-down rule retests the same studentized components single.t
provider = stepdown_quantile_provider(draws, alpha=0.05)
stepdown_rej = set(int(i) for i in step_down_test(single.t, provider, alpha=0.05))

print(f"max statistic {single.statistic:.2f} vs single-step threshold "
      f"{single.critical.value:.2f}")
print(f"single-step rejects : {sorted(single_rej)}")
print(f"step-down rejects   : {sorted(stepdown_rej)}")
print(f"extra from retesting: {sorted(stepdown_rej - single_rej)}")

false_nulls = set(range(4))
print(f"\ntrue positives: {sorted(stepdown_rej & false_nulls)}")
print(f"false positives: {sorted(stepdown_rej - false_nulls)}")

# the subset quantiles shrink as the survivor set shrinks
for k in (20, 10, 4):
    print(f"threshold for a {k:>2}-cluster survivor set: "
          f"{provider(range(k)):.3f}")
