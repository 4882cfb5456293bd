# 04_small_tables.py
# Miniature version of the study tables: a reduced grid (one size, both
# outcome scenarios, one targeting family, both estimator weightings)
# aggregated into the same CSV the command line tool writes. Replication
# counts are kept tiny so the demo finishes in seconds; expect visibly
# noisy cells.

from cbara import (
    Family,
    RunSpec,
    ScenarioId,
    Weighting,
    aggregate_grid,
    emit_tables,
    grid_plans,
)

spec = RunSpec(
    sizes=(150,),
    scenarios=(ScenarioId.A, ScenarioId.B),
    families=(Family.CRD,),
    weightings=(Weighting.WEIGHTED, Weighting.UNWEIGHTED),
    reps=40,
    seed=2024,
    parallelism=1,
)

plans = grid_plans(spec)
print(f"{len(plans)} grid cells, {spec.reps} replications each")
summaries = aggregate_grid(plans, spec.parallelism)  # one summary per plan; workers per call
print()
print(emit_tables(plans, summaries, fmt="csv"))
print("each output row merges the direct and balance runs of one cell;")
print("value columns come in (metric, metric_se) pairs per allocation.")
