"""Metric names and units the benchmark prints; BENCHMARK.json lists the same.

End-to-end metrics come from untraced runs (``--trace 0``), per-layer metrics
from the traced run (``--trace 1``).  Timings are in calibrated seconds (see
``calib.py``).  Per-layer names are ``<module>.<function>.<stat>``; a layer a
workload does not call reads 0 on that workload.
"""

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "low_spin_s": "s",
    "high_spin_s": "s",
    "peak_rss_mb": "MB",
}

# (span name, stats) for every layer call or probe the traced run records
LAYER_SPANS = (
    ("spin.rotation", ("calls", "busy_s")),
    ("orthopoly.s_operator_stack", ("calls", "busy_s")),
    ("orthopoly.coeff_table", ("calls", "busy_s")),
    ("tomography.tomogram_column", ("calls", "busy_s")),
    ("tomography.reconstruct_from_sphere", ("calls", "busy_s")),
    ("portrait.prob_vector", ("calls", "busy_s")),
    ("portrait.normalize_to_eq", ("calls", "busy_s")),
    ("su2.reconstruct", ("calls", "busy_s")),
    ("su2.quantizer_stack.cold", ("calls", "busy_s")),
    ("su2.feasibility", ("calls", "busy_s")),
    ("su2.q_matrix", ("calls", "busy_s")),
    ("linalg.condition_number", ("calls", "busy_s")),
    ("schemes.reconstruct_pinv", ("calls", "busy_s")),
    ("schemes.aw_normalized_forward", ("calls", "busy_s")),
    ("schemes.aw_reconstruct", ("calls", "busy_s")),
    ("schemes.gamma_prime", ("calls", "busy_s")),
    ("optimize.optimize", ("calls", "busy_s", "failed")),
    ("optimize.objective", ("calls", "busy_s")),
    ("kernels.star_apply", ("calls", "busy_s")),
    ("kernels.p_to_w", ("calls", "busy_s")),
    ("kernels.w_to_p", ("calls", "busy_s")),
    ("kernels.symbol", ("calls", "busy_s")),
    ("region.sample_region", ("calls", "busy_s")),
    ("region.classify_points", ("calls", "busy_s")),
)

STAT_UNITS = {"calls": "count", "busy_s": "s", "failed": "count"}

# memoized library functions whose lookups the traced run counts
CACHES = ("su2.quantizer_stack", "kernels.dequantizer_stack")

PER_LAYER = {
    **{f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYER_SPANS for stat in stats},
    **{f"{name}.hit_ratio": "ratio" for name in CACHES},
    "su2.infeasible": "count",
    "region.points": "count",
    "region.slice_assembly_s": "s",
    "ops.excused": "count",
    "trace.overhead_s": "s",
}
