"""Parameter sweeps over mechanisms / gated fractions / injection rates —
the loops behind Figures 6, 7 and 9.

Since the spec-layer rework these helpers build a declarative
:class:`~repro.spec.SweepSpec`, expand it into
:class:`~repro.spec.ExperimentSpec` cells, and hand the cells to a
:class:`~repro.harness.parallel.ParallelSweep` as tasks — so a full
figure grid saturates every core on first run, replays from the
on-disk result cache afterwards, and is described by data that can
also live in a ``*.toml``/``*.json`` spec file (``repro spec run``).
Pass ``engine=ParallelSweep(max_workers=1, use_cache=False)`` to force
the old serial, uncached behavior.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..spec import SweepSpec
from .parallel import ParallelSweep, ProgressFn, SweepTask
from .runner import ExperimentResult

#: the four mechanisms every figure compares
FIGURE_MECHANISMS: tuple[str, ...] = ("baseline", "rp", "rflov", "gflov")

#: gated-core fractions on the x-axis of Figures 6/7/9
FIGURE_FRACTIONS: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                       0.7, 0.8)

#: the two injection rates of Figures 6/7
FIGURE_RATES: tuple[float, ...] = (0.02, 0.08)

#: run_synthetic keyword arguments that are *not* NoCConfig overrides
_RUNNER_KWARGS = ("warmup", "measure", "schedule", "keep_samples", "drain",
                  "pattern_kwargs")


def _split_kwargs(kwargs: dict[str, Any]) -> tuple[dict[str, Any],
                                                   dict[str, Any]]:
    """Split run_synthetic keywords from NoCConfig overrides."""
    runner = {k: kwargs.pop(k) for k in _RUNNER_KWARGS if k in kwargs}
    return runner, kwargs


def run_sweep_spec(spec: SweepSpec,
                   engine: ParallelSweep | None = None,
                   progress: ProgressFn | None = None,
                   schedule=None) -> dict[str, list[ExperimentResult]]:
    """Execute every cell of a :class:`~repro.spec.SweepSpec`.

    Returns ``{mechanism: [result, ...]}`` with results in the spec's
    rate-major-then-fraction cell order (for the single-rate grids the
    figures use, that is simply one result per gated fraction).
    ``schedule`` optionally overrides every cell's gating with a live
    :class:`~repro.gating.schedule.GatingSchedule` object (such runs
    bypass the cache).
    """
    cells = spec.expand()
    tasks = [SweepTask.from_spec(cell) for cell in cells]
    if schedule is not None:
        for task in tasks:
            task.schedule = schedule
    if engine is None:
        engine = ParallelSweep(progress=progress)
    results = engine.run(tasks)
    per_mech = len(cells) // len(spec.mechanisms)
    out: dict[str, list[ExperimentResult]] = {}
    for i, mech in enumerate(spec.mechanisms):
        out[mech] = results[i * per_mech:(i + 1) * per_mech]
    return out


def sweep_fractions(mechanisms: Sequence[str] = FIGURE_MECHANISMS,
                    fractions: Iterable[float] = FIGURE_FRACTIONS, *,
                    pattern: str = "uniform", rate: float = 0.02,
                    seed: int = 1, kernel: str | None = None,
                    engine: ParallelSweep | None = None,
                    progress: ProgressFn | None = None,
                    **kwargs) -> dict[str, list[ExperimentResult]]:
    """Latency/power vs. gated fraction, one series per mechanism.

    Extra keyword arguments are forwarded to ``run_synthetic`` (cycle
    counts, ``pattern_kwargs`` and :class:`~repro.config.NoCConfig`
    overrides).  ``kernel`` selects every cell's simulation kernel
    (``None``: the ``REPRO_KERNEL`` default).  ``engine`` supplies a
    preconfigured executor; by default a fresh :class:`ParallelSweep`
    (auto worker count, cache on) is used.
    """
    runner, overrides = _split_kwargs(dict(kwargs))
    spec = SweepSpec(mechanisms=tuple(mechanisms), pattern=pattern,
                     pattern_kwargs=dict(runner.get("pattern_kwargs") or {}),
                     rates=(rate,), gated_fractions=tuple(fractions),
                     warmup=runner.get("warmup"),
                     measure=runner.get("measure"), seed=seed,
                     drain=runner.get("drain", True),
                     keep_samples=runner.get("keep_samples", False),
                     overrides=overrides, kernel=kernel)
    return run_sweep_spec(spec, engine=engine, progress=progress,
                          schedule=runner.get("schedule"))


def sweep_rates(mechanisms: Sequence[str] = FIGURE_MECHANISMS,
                rates: Iterable[float] = (0.01, 0.02, 0.04, 0.06, 0.08), *,
                pattern: str = "uniform", gated_fraction: float = 0.0,
                seed: int = 1,
                engine: ParallelSweep | None = None,
                progress: ProgressFn | None = None,
                **kwargs) -> dict[str, list[ExperimentResult]]:
    """Latency vs. offered load (load-latency curves)."""
    runner, overrides = _split_kwargs(dict(kwargs))
    spec = SweepSpec(mechanisms=tuple(mechanisms), pattern=pattern,
                     pattern_kwargs=dict(runner.get("pattern_kwargs") or {}),
                     rates=tuple(rates),
                     gated_fractions=(gated_fraction,),
                     warmup=runner.get("warmup"),
                     measure=runner.get("measure"), seed=seed,
                     drain=runner.get("drain", True),
                     keep_samples=runner.get("keep_samples", False),
                     overrides=overrides)
    return run_sweep_spec(spec, engine=engine, progress=progress,
                          schedule=runner.get("schedule"))
