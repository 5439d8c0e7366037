"""Experiment harness: runners, sweeps, parallel engine, result cache,
and figure-shaped table output."""
from .runner import (ExperimentResult, default_cycles, paper_length,
                     run_spec, run_synthetic)
from .cache import (CACHE_SCHEMA_VERSION, ResultCache, cache_enabled,
                    default_cache_dir, result_from_dict, result_to_dict,
                    spec_digest, stable_digest)
from .parallel import (Executor, ParallelSweep, PoolExecutor,
                       SerialExecutor, SweepTask, default_jobs,
                       default_task_timeout, derive_task_seed)
from .sweep import (FIGURE_FRACTIONS, FIGURE_MECHANISMS, FIGURE_RATES,
                    run_sweep_spec, sweep_fractions, sweep_rates)
from .ascii_plot import bar_chart, heat_grid, line_chart, sparkline
from .benchdiff import (BenchDiff, CellDiff, MetricDelta, check_cells,
                        diff_bench, load_bench, load_bench_source)
from .tables import breakdown_table, normalized_table, series_table, timeline_table

__all__ = [
    "run_synthetic", "run_spec", "ExperimentResult", "default_cycles",
    "paper_length",
    "ParallelSweep", "SweepTask", "default_jobs",
    "default_task_timeout", "derive_task_seed",
    "Executor", "SerialExecutor", "PoolExecutor",
    "ResultCache", "cache_enabled", "default_cache_dir", "stable_digest",
    "spec_digest",
    "result_to_dict", "result_from_dict", "CACHE_SCHEMA_VERSION",
    "sweep_fractions", "sweep_rates", "run_sweep_spec",
    "FIGURE_MECHANISMS", "FIGURE_FRACTIONS", "FIGURE_RATES",
    "series_table", "breakdown_table", "normalized_table", "timeline_table",
    "line_chart", "bar_chart", "sparkline", "heat_grid",
    "BenchDiff", "CellDiff", "MetricDelta", "diff_bench", "load_bench",
    "load_bench_source", "check_cells",
]
