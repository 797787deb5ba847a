"""
Testing contrasts of cluster means
==================================

The max-statistic machinery applies to any linear combinations of the
mixed parameters, not only the parameters themselves.  A classic use is
paired differences: does group A differ from group B inside each of D
strata, simultaneously?
"""

import numpy as np

from spimax import eblup, max_test
from spimax.simulate import ScenarioConfig, generate_scenario

# 2k clusters interpreted as k strata x two groups; pair up neighbors
k_strata = 12
config = ScenarioConfig(D=2 * k_strata, n_d=8, sigma2_e=0.6, sigma2_u=0.5,
                        master_seed=21)
data, mu_true, spec = generate_scenario(config, replicate=0)

# difference within each stratum: +1 on the A member, -1 on the B member
A = np.zeros((k_strata, data.D))
for s in range(k_strata):
    A[s, 2 * s] = 1.0
    A[s, 2 * s + 1] = -1.0

# the test `spimax test --contrasts` runs: bootstrap-calibrated, the
# projected estimates studentized by the projected MSE g1 + g2;
# the nulls default to zero differences, and K drives only the MC method
fit = eblup(data, spec)
test, rejected = max_test("BS", data, spec, fit, alpha=0.05, seed=9, B=2000, K=1, A=A)
diff_hat = A @ fit.mu_hat

true_diff = A @ mu_true
print(f"max |t| = {test.statistic:.2f}, threshold {test.critical.value:.2f}, "
      f"global rejection: {test.decisions.any()}")
print(f"\n{'stratum':>7} {'true diff':>9} {'estimate':>9} {'|t|':>6} {'reject':>7}")
for s in range(k_strata):
    print(f"{s:>7} {true_diff[s]:>9.2f} {diff_hat[s]:>9.2f} {test.t[s]:>6.2f} "
          f"{str(bool(test.decisions[s])):>7}")

print(f"\nstrata rejected at the family level: {[int(i) for i in rejected]}")
