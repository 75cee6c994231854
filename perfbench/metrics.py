"""Names and units of every metric the benchmark reports.

``END_TO_END`` is printed on untraced runs (``--trace 0``) and
``PER_LAYER`` on traced runs (``--trace 1``); ``BENCHMARK.json`` lists
the same names and units. Counts and ``self_s`` values are per workload
iteration (median over the traced iterations); ``self_us`` is per call.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}

_CLI_COMMANDS = ("simulate", "sweep-n0", "sweep-attenuation", "fit", "keyrate")

PER_LAYER = {
    "sampling.simulate_batch.calls": "count",
    "sampling.simulate_batch.self_s": "s",
    "sampling.simulate_batch.trials_per_s": "1/s",
    "sampling.simulate_batch.workers2_speedup": "ratio",
    "sampling.write_sample_csv.self_s": "s",
    "sampling.write_sample_csv.bytes": "B",
    "sampling.write_sample_csv.mb_per_s": "MB/s",
    "sampling.read_sample_csv.self_s": "s",
    "sampling.read_sample_csv.mb_per_s": "MB/s",
    "estimation.blocked_correlation.calls": "count",
    "estimation.blocked_correlation.self_s": "s",
    "estimation.read_points_csv.self_s": "s",
    "estimation.fit_mode_overlap.self_s": "s",
    "estimation.write_fit_report.self_s": "s",
    "model.correlation_coefficient.calls": "count",
    "model.correlation_coefficient.self_s": "s",
    "scenario.load_scenario.calls": "count",
    "scenario.load_scenario.self_s": "s",
    "keyrate.key_rate_point.calls": "count",
    "keyrate.key_rate_point.self_us": "us",
    "keyrate.optimize_attenuation.calls": "count",
    "keyrate.optimize_attenuation.self_s": "s",
    "keyrate.optimize_attenuation.evals_per_call": "count",
    "keyrate.distance_cutoff.calls": "count",
    "keyrate.distance_cutoff.self_s": "s",
    "keyrate.distance_cutoff.optimize_calls_per_call": "count",
    "keyrate.key_rate_from_measurement.calls": "count",
    "keyrate.key_rate_from_measurement.self_s": "s",
    **{f"cli.{cmd}.{kind}": "s" for cmd in _CLI_COMMANDS for kind in ("s", "self_s")},
    "cli.sweep.parallelism": "ratio",
    "trace_overhead_frac": "ratio",
    "import.passiveqkd.cumulative_s": "s",
    "import.passiveqkd.self_s": "s",
    "import.numpy.self_s": "s",
    "import.scipy.self_s": "s",
}

# Measured by run.py from ``python -X importtime``, not by the worker.
IMPORT_METRICS = tuple(name for name in PER_LAYER if name.startswith("import."))
