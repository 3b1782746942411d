"""Names, units and directions of the benchmark's metrics.

Kept free of any flamingo import, so that ``run.py`` can name them before
it knows whether the package is there.
"""

from oracle import BATTERY_DETAILS

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_us", "us"),
    ("item_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
]

# The thirteen checks of `flamingo verify-all`, in its order.
CHECKS = list(BATTERY_DETAILS[6])
LAYERS = ["partitions", "tableaux", "polynomials", "invariants", "grassmann", "specht", "relations", "diagrams", "verification", "cli"]

# (metric, unit, better, source).  A source names a span ("span:"), the
# number of such spans ("calls:"), a counter the workload kept ("count:"),
# the growth of one cache statistic over the traced round ("cache:") or
# the self time of a layer ("self:").
PER_LAYER = [
    ("process.cpu_s", "s", "lower", "cpu"),
    ("trace.overhead_frac", "fraction", "lower", "overhead"),
    *[(f"{layer}.self_s", "s", "lower", f"self:{layer}") for layer in LAYERS],
    ("partitions.enumerate_s", "s", "lower", "span:partitions.enumerate"),
    ("partitions.count", "count", "lower", "count:partitions.count"),
    ("tableaux.iter_s", "s", "lower", "span:tableaux.iter"),
    ("tableaux.sign_s", "s", "lower", "span:tableaux.sign"),
    ("tableaux.count", "count", "lower", "count:tableaux.count"),
    ("polynomials.minor_product_s", "s", "lower", "span:polynomials.minor_product"),
    ("polynomials.accumulate_s", "s", "lower", "span:polynomials.accumulate"),
    ("polynomials.terms", "count", "lower", "count:polynomials.terms"),
    ("polynomials.minor_cache_hits", "count", "higher", "cache:minor_terms.hits"),
    ("polynomials.minor_cache_misses", "count", "lower", "cache:minor_terms.misses"),
    ("invariants.build_s", "s", "lower", "span:invariants.build"),
    ("invariants.calls", "count", "lower", "calls:invariants.build"),
    ("invariants.cache_hits", "count", "higher", "cache:invariants.hits"),
    ("invariants.cache_misses", "count", "lower", "cache:invariants.misses"),
    ("invariants.cache_hit_ratio", "ratio", "higher", "hit_ratio"),
    ("grassmann.gc_s", "s", "lower", "span:grassmann.gc"),
    ("grassmann.phi_star_s", "s", "lower", "span:grassmann.phi_star"),
    ("grassmann.compare_s", "s", "lower", "span:grassmann.compare"),
    ("grassmann.pluecker_terms", "count", "lower", "count:grassmann.pluecker_terms"),
    ("specht.span_build_s", "s", "lower", "span:specht.span_build"),
    ("specht.contains_s", "s", "lower", "span:specht.contains"),
    ("specht.span_cache_misses", "count", "lower", "cache:span_checker.misses"),
    ("relations.recurrence_s", "s", "lower", "span:relations.recurrence"),
    ("relations.instances", "count", "lower", "calls:relations.recurrence"),
    ("diagrams.build_s", "s", "lower", "span:diagrams.build"),
    ("diagrams.validate_s", "s", "lower", "span:diagrams.validate"),
    ("diagrams.degrees_s", "s", "lower", "span:diagrams.degrees"),
    ("diagrams.count", "count", "lower", "calls:diagrams.build"),
    ("diagrams.edges", "count", "lower", "count:diagrams.edges"),
    *[(f"verification.{check}_s", "s", "lower", f"span:verification.{check}") for check in CHECKS],
]
