# 01_single_trial_walkthrough.py
# One adaptive trial, step by step: how the allocation probability reacts
# to the running imbalance and to the evolving working-model fit.

import numpy as np

from cbara import (
    Allocation,
    Family,
    Scenario,
    ScenarioId,
    TargetPolicy,
    TrialConfig,
    UpdateMechanism,
    Weighting,
    run_trial,
)

cfg = TrialConfig(
    n_units=120,
    scenario=Scenario(ScenarioId.A),
    policy=TargetPolicy(family=Family.LOGISTIC),
    weighting=Weighting.WEIGHTED,
    mechanism=UpdateMechanism.clipped(1.0, 0.5),
    allocation=Allocation.BALANCE,
    burn_in=20,
    seed=7,
)
result = run_trial(cfg)

print(f"{'step':>4} {'x1':>4} {'ratio':>6} {'alloc':>6} {'arm':>3} "
      f"{'|lambda|':>9} {'psi':>8}")
log = result.log  # one array per column, row i is step i + 1
lam_norm = np.sqrt((log.lam**2).sum(axis=1))
for i in range(len(log)):
    step = i + 1
    if step % 10 != 0 and step > 5:
        continue
    print(f"{step:>4} {log.x1[i]:>4.0f} {log.rho[i]:>6.3f} {log.g[i]:>6.3f} "
          f"{log.t[i]:>3} {lam_norm[i]:>9.3f} {log.psi[i]:>8.3f}")

print()
print("burn-in steps allocate at 0.5; afterwards the ratio column tracks")
print("the fitted parameter and the alloc column is tilted against the")
print("imbalance, so |lambda| stays bounded instead of growing like sqrt(n).")
print()
print(f"final fitted coefficients: {result.theta_final}")
stats = result.stats  # the trial's summary numbers, as the harness aggregates them
print(f"final |lambda| = {stats.lambda_norm:.3f}, "
      f"ipw effect estimate = {stats.ipw:.3f} (truth -3.0)")
