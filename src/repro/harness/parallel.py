"""Parallel experiment engine: pluggable executors behind one cache.

Reproducing any of the paper's figures means running dozens of
independent simulations (mechanisms x gated fractions x rates).  Each
one is a pure function of its parameters, so the engine splits the
problem in two layers:

* **Executors** (:class:`SerialExecutor`, :class:`PoolExecutor`) know
  *how* to compute a batch of resolved :class:`SweepTask`\\ s —
  in-process one by one, or fanned over a
  ``concurrent.futures.ProcessPoolExecutor`` (worker count
  auto-detected, ``REPRO_JOBS`` overrides, per-task timeout + one
  in-process retry, serial fallback when the pool cannot be created).
  Both implement the same small protocol (:class:`Executor`), so
  schedulers — the sweep helpers, the benchmarks, and the experiment
  service (:mod:`repro.service`) — pick a strategy without caring
  about process pools, and a multi-host shard executor has a seam to
  slot into later.
* **Engines** (:class:`ParallelSweep`) wrap an executor with the
  shared policy: consult the content-addressed on-disk cache first
  (:mod:`repro.harness.cache`), hand only the misses to the executor,
  persist fresh results, and report progress through an optional
  callback.

Determinism: every task carries an explicit seed (or derives one
stably from its own identity via :func:`derive_task_seed`), so results
are bit-identical across every executor and cache replay — the
determinism and executor-equivalence regression tests assert exactly
this.
"""

from __future__ import annotations

import concurrent.futures as cf
import hashlib
from concurrent.futures.process import BrokenProcessPool
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..config import NoCConfig
from ..gating.schedule import GatingSchedule
from ..spec import ExperimentSpec
from .cache import ResultCache, cache_enabled
from .runner import ExperimentResult, default_cycles, run_spec

#: signature: progress(done, total, task_or_item, result, from_cache)
ProgressFn = Callable[[int, int, Any, Any, bool], None]

#: signature: emit(index, result) — called exactly once per task, in
#: task-index order, as results become available
EmitFn = Callable[[int, Any], None]


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer REPRO_JOBS={env!r}",
                          RuntimeWarning, stacklevel=2)
    return os.cpu_count() or 1


def default_task_timeout() -> float:
    """Per-task timeout in seconds (``REPRO_TASK_TIMEOUT``, default 600)."""
    env = os.environ.get("REPRO_TASK_TIMEOUT")
    if env:
        try:
            return float(env)
        except ValueError:
            warnings.warn(f"ignoring non-numeric REPRO_TASK_TIMEOUT={env!r}",
                          RuntimeWarning, stacklevel=2)
    return 600.0


def derive_task_seed(base_seed: int, *parts: Any) -> int:
    """Deterministic per-task seed from a base seed and task identity.

    Stable across processes and Python invocations (SHA-256, not
    ``hash()``), so serial, parallel, and resumed runs agree on the seed
    of every task regardless of execution order.
    """
    blob = repr((base_seed, parts)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") % (2**31)


@dataclass
class SweepTask:
    """One experiment invocation, picklable and cache-keyable.

    A task is a thin mutable veneer over an
    :class:`~repro.spec.ExperimentSpec` (see :meth:`spec` /
    :meth:`from_spec`); the spec is the authority for validation, cache
    keys and execution.  ``seed=None`` derives a deterministic per-task
    seed from the task's own identity (mechanism/pattern/rate/fraction).
    A task carrying a live ``schedule`` *object* is executed but never
    cached (arbitrary schedule objects are not content-hashed; use the
    spec's declarative schedule mapping to get cacheable scheduled
    runs).
    """

    mechanism: str
    pattern: str = "uniform"
    rate: float = 0.02
    gated_fraction: float = 0.0
    warmup: int | None = None
    measure: int | None = None
    seed: int | None = 1
    drain: bool = True
    keep_samples: bool = False
    schedule: GatingSchedule | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    pattern_kwargs: dict[str, Any] = field(default_factory=dict)
    #: distributed-trace context stamped by the engine (never user-set);
    #: excluded from equality and from the cache key — tracing a task
    #: must not change what it computes or where it is stored
    span_context: Any | None = field(default=None, compare=False,
                                     repr=False)
    #: checkpoint cadence/location stamped by the engine (or set
    #: directly); excluded from equality and the cache key — a
    #: checkpointed run computes the same result as an uninterrupted one
    checkpoint_every: int | None = field(default=None, compare=False,
                                         repr=False)
    checkpoint_dir: Any | None = field(default=None, compare=False,
                                       repr=False)
    #: zero-arg preemption poll, checked at checkpoint boundaries; only
    #: honored by in-process executors (a callable does not pickle into
    #: pool workers), so the engine stamps it selectively
    interrupt: Any | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "SweepTask":
        """Wrap a spec as an engine task (declarative schedules stay on
        the spec and remain cacheable)."""
        task = cls(mechanism=spec.mechanism, pattern=spec.pattern,
                   rate=spec.rate, gated_fraction=spec.gated_fraction,
                   warmup=spec.warmup, measure=spec.measure,
                   seed=spec.seed, drain=spec.drain,
                   keep_samples=spec.keep_samples,
                   overrides=dict(spec.overrides),
                   pattern_kwargs=dict(spec.pattern_kwargs))
        task._spec = spec
        return task

    def spec(self) -> ExperimentSpec:
        """The validated :class:`ExperimentSpec` this task executes."""
        base = getattr(self, "_spec", None)
        if base is not None:
            return base
        assert self.seed is not None, "resolved() first"
        return ExperimentSpec(
            mechanism=self.mechanism, pattern=self.pattern,
            pattern_kwargs=dict(self.pattern_kwargs), rate=self.rate,
            gated_fraction=self.gated_fraction, warmup=self.warmup,
            measure=self.measure, seed=self.seed, drain=self.drain,
            keep_samples=self.keep_samples,
            overrides=dict(self.overrides))

    def resolved(self) -> "SweepTask":
        """Copy with warmup/measure/seed made explicit.

        Cycle defaults are resolved in the *parent* process so that
        ``REPRO_FULL`` is honored even if workers see a different
        environment; the seed is derived here so cache keys and worker
        executions agree.
        """
        dw, dm = default_cycles()
        warmup = dw if self.warmup is None else self.warmup
        measure = dm if self.measure is None else self.measure
        seed = self.seed
        if seed is None:
            seed = derive_task_seed(0, self.mechanism, self.pattern,
                                    self.rate, self.gated_fraction)
        task = SweepTask(mechanism=self.mechanism, pattern=self.pattern,
                         rate=self.rate, gated_fraction=self.gated_fraction,
                         warmup=warmup, measure=measure, seed=seed,
                         drain=self.drain, keep_samples=self.keep_samples,
                         schedule=self.schedule,
                         overrides=dict(self.overrides),
                         pattern_kwargs=dict(self.pattern_kwargs),
                         span_context=self.span_context,
                         checkpoint_every=self.checkpoint_every,
                         checkpoint_dir=self.checkpoint_dir,
                         interrupt=self.interrupt)
        base = getattr(self, "_spec", None)
        if base is not None:
            task._spec = base.resolved()
        return task

    def config(self) -> NoCConfig:
        """The NoCConfig this task will simulate (validates overrides)."""
        assert self.seed is not None, "resolve() first"
        return NoCConfig(mechanism=self.mechanism, seed=self.seed,
                         **self.overrides)

    def cache_key(self) -> dict[str, Any] | None:
        """Stable key dict, or None when the task is uncacheable.

        Delegates to :meth:`ExperimentSpec.cache_key`, whose layout is
        byte-compatible with pre-spec cache entries.
        """
        if self.schedule is not None:
            return None
        return self.spec().cache_key()

    def run(self) -> ExperimentResult:
        """Execute the task in the current process.

        With a checkpoint cadence set, the run auto-resumes from an
        existing checkpoint for this spec (left behind by an interrupted
        run) and checkpoints periodically; ``run_spec`` removes the file
        on completion.
        """
        return run_spec(self.spec(), schedule=self.schedule,
                        **self._checkpoint_kwargs())

    def _checkpoint_kwargs(self) -> dict[str, Any]:
        """``run_spec`` checkpoint keywords, with auto-resume from an
        existing checkpoint file ({} when checkpointing is off)."""
        if not self.checkpoint_every:
            return {}
        from .checkpoint import checkpoint_path
        path = checkpoint_path(self.checkpoint_dir, self.spec())
        return {"checkpoint_every": self.checkpoint_every,
                "checkpoint_dir": self.checkpoint_dir,
                "resume_from": path if path.exists() else None,
                "interrupt": self.interrupt}


def _execute_task(task: SweepTask) -> Any:
    """Module-level worker entry point (must be picklable).

    The untraced path is one attribute test (the hot-path contract);
    a task carrying a :class:`~repro.obs.spans.SpanContext` runs under
    a ``cell.run`` span opened *here* — in whatever process executes
    the task — with kernel phase timings attached, and returns a
    :class:`~repro.obs.spans.SpanCarrier` the engine unwraps.
    """
    if task.span_context is None:
        return task.run()
    return _run_traced(task)


def _run_traced(task: SweepTask) -> Any:
    from ..obs.profile import KernelProfiler
    from ..obs.spans import SpanCarrier, SpanTracer

    tracer = SpanTracer(capacity=64)
    prof = KernelProfiler()
    with tracer.span("cell.run", context=task.span_context, attributes={
            "pid": os.getpid(),
            "cell.mechanism": task.mechanism,
            "cell.pattern": task.pattern,
            "cell.rate": task.rate,
            "cell.gated_fraction": task.gated_fraction,
            "cell.seed": task.seed}) as sp:
        result = run_spec(task.spec(), schedule=task.schedule, profiler=prof,
                          **task._checkpoint_kwargs())
        for phase, ns in prof.phase_ns().items():
            sp.set_attribute(f"kernel.{phase}_ns", ns)
        sp.set_attribute("kernel.cycles", prof.cycles)
        sp.set_attribute("kernel.step_ns", prof.step_ns)
    return SpanCarrier(result, tracer.export())


def _call(fn_and_item: tuple[Callable[[Any], Any], Any]) -> Any:
    fn, item = fn_and_item
    return fn(item)


# -- executors ----------------------------------------------------------------

@runtime_checkable
class Executor(Protocol):
    """Strategy for computing a batch of resolved :class:`SweepTask`\\ s.

    Executors are pure compute: no cache, no progress policy — that is
    the engine's job.  The contract:

    * :meth:`execute` calls ``emit(i, result)`` exactly once per task,
      in task-index order, as results become available (streaming lets
      the engine persist/report each result immediately, and lets a
      scheduler abort between tasks by raising from ``emit``).
    * :meth:`map` is the generic fan-out for units of work that are not
      sweep tasks (fault soaks, PARSEC benchmark cells).
    * ``mode`` describes how the *last* call actually ran (``serial`` /
      ``parallel``) — a pool that fell back reports ``serial``.
    * :meth:`reset` clears any per-run bookkeeping; engines call it at
      the top of every run.
    """

    mode: str

    def reset(self) -> None: ...

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None: ...

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]: ...


class SerialExecutor:
    """Run every task in-process, one at a time (no pool, no pickling)."""

    def __init__(self) -> None:
        self.mode = "serial"

    def reset(self) -> None:
        pass

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None:
        self.mode = "serial"
        for i, task in enumerate(tasks):
            emit(i, _execute_task(task))

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        self.mode = "serial"
        return [fn(it) for it in items]


class PoolExecutor:
    """Fan tasks over a process pool, falling back to serial execution.

    Parameters
    ----------
    max_workers:
        Process count; ``None`` auto-detects (``REPRO_JOBS`` override).
        ``1`` forces the in-process serial path.
    task_timeout:
        Seconds a pooled task may run before it is abandoned and retried
        serially (``REPRO_TASK_TIMEOUT`` sets the default).

    Failure policy (unchanged from the original engine): a task that
    fails or times out in a worker is retried once in-process before the
    error propagates; a broken pool (OOM-killed worker, ...) finishes
    every remaining task in-process; a pool that cannot be created at
    all degrades to the serial path with a warning.
    """

    def __init__(self, max_workers: int | None = None, *,
                 task_timeout: float | None = None) -> None:
        self.max_workers = (default_jobs() if max_workers is None
                            else max(1, int(max_workers)))
        self.task_timeout = (default_task_timeout() if task_timeout is None
                             else task_timeout)
        self.mode = "serial"

    def reset(self) -> None:
        pass

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None:
        self._fan_out(_execute_task, tasks, emit)

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        results: list[Any] = [None] * len(items)

        def emit(i: int, res: Any) -> None:
            results[i] = res

        self._fan_out(_call, [(fn, it) for it in items], emit)
        return results

    # -- internals -----------------------------------------------------------

    def _fan_out(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
                 emit: EmitFn) -> None:
        if min(self.max_workers, len(payloads)) > 1:
            if self._run_pool(fn, payloads, emit):
                self.mode = "parallel"
                return
        self.mode = "serial"
        for i, payload in enumerate(payloads):
            emit(i, fn(payload))

    def _run_pool(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
                  emit: EmitFn) -> bool:
        """Run ``fn`` over payloads in a process pool.

        Returns False when the pool could not be created or submission
        failed — both happen before any ``emit``, so the caller falls
        back to the serial path cleanly.  Individual task
        failures/timeouts are retried once in-process; a second failure
        propagates.
        """
        workers = min(self.max_workers, len(payloads))
        try:
            executor = cf.ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError,
                NotImplementedError) as exc:  # pragma: no cover - env-dep.
            warnings.warn(f"process pool unavailable ({exc}); "
                          f"running serially", RuntimeWarning, stacklevel=2)
            return False
        try:
            try:
                futures = [executor.submit(fn, p) for p in payloads]
            except Exception as exc:  # unpicklable payload, broken pool, ...
                warnings.warn(f"process pool submission failed ({exc}); "
                              f"running serially", RuntimeWarning,
                              stacklevel=2)
                return False
            broken = False
            for i, fut in enumerate(futures):
                if broken:
                    emit(i, self._retry(fn, payloads[i], None))
                    continue
                try:
                    res = fut.result(timeout=self.task_timeout)
                except BrokenProcessPool as exc:
                    # whole pool died (OOM-killed worker, ...): finish
                    # everything still pending in-process.
                    warnings.warn(f"process pool broke ({exc}); finishing "
                                  f"remaining tasks serially",
                                  RuntimeWarning, stacklevel=2)
                    broken = True
                    res = self._retry(fn, payloads[i], None)
                except (cf.TimeoutError, Exception) as exc:
                    fut.cancel()
                    res = self._retry(fn, payloads[i], exc)
                emit(i, res)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return True

    @staticmethod
    def _retry(fn: Callable[[Any], Any], payload: Any,
               exc: BaseException | None) -> Any:
        if exc is not None:
            warnings.warn(f"task failed in worker ({exc!r}); retrying "
                          f"in-process once", RuntimeWarning, stacklevel=3)
        return fn(payload)  # second failure propagates to the caller


# -- engines ------------------------------------------------------------------

class ParallelSweep:
    """Engine that runs :class:`SweepTask` batches with cache + executor.

    Parameters
    ----------
    max_workers:
        Process count for the default :class:`PoolExecutor`; ``None``
        auto-detects (``REPRO_JOBS`` override).  ``1`` forces the
        in-process serial path (no pool, no pickling).  Ignored when
        ``executor`` is given.
    use_cache:
        Consult/populate the on-disk result cache.  ``REPRO_NO_CACHE=1``
        wins over ``True``.
    cache:
        A :class:`ResultCache`; default uses ``REPRO_CACHE_DIR`` /
        ``.repro_cache``.
    task_timeout:
        Seconds a pooled task may run before it is abandoned and retried
        serially (``REPRO_TASK_TIMEOUT`` sets the default).  The serial
        path cannot preempt a task, so no timeout applies there.
    progress:
        Optional callback ``(done, total, task, result, from_cache)``
        invoked once per finished task.  Raising from the callback
        aborts the run between tasks (the experiment service uses this
        for job cancellation); results already computed stay cached.
    executor:
        An :class:`Executor` instance to schedule onto; default is a
        :class:`PoolExecutor` built from ``max_workers``/``task_timeout``.
    span_tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`.  When set, every
        run opens a ``sweep.run`` span (child of ``span_parent``, or a
        trace root), cache probes/writes and per-cell executions get
        child spans — including spans opened inside pool worker
        processes and shipped back — and all of them land in this
        tracer.  When ``None`` (the default) the only cost is the
        ``is not None`` guards.
    span_parent:
        Parent :class:`~repro.obs.spans.SpanContext` for the run span
        (the service passes its per-job root here).
    checkpoint_every / checkpoint_dir:
        When set, every computed (cache-missed) task checkpoints its
        simulation state every N cycles into ``checkpoint_dir`` and
        auto-resumes from a checkpoint an interrupted earlier run left
        behind; completed cells remove their checkpoint files.  Tasks
        carrying their own cadence keep it.
    interrupt:
        Zero-arg preemption poll, checked at every checkpoint boundary;
        returning true stops the run with
        :class:`~repro.harness.checkpoint.CheckpointInterrupt` after
        persisting the checkpoint.  Only honored by the in-process
        serial executor — a bound callable does not pickle
        into pool workers, where preemption stays at task granularity.
    """

    def __init__(self, max_workers: int | None = None, *,
                 use_cache: bool = True,
                 cache: ResultCache | None = None,
                 task_timeout: float | None = None,
                 progress: ProgressFn | None = None,
                 executor: Executor | None = None,
                 span_tracer: Any | None = None,
                 span_parent: Any | None = None,
                 checkpoint_every: int | None = None,
                 checkpoint_dir: Any | None = None,
                 interrupt: Callable[[], bool] | None = None) -> None:
        self.max_workers = (default_jobs() if max_workers is None
                            else max(1, int(max_workers)))
        self.use_cache = use_cache
        self.cache = cache if cache is not None else ResultCache()
        self.task_timeout = (default_task_timeout() if task_timeout is None
                             else task_timeout)
        self.executor: Executor = (
            executor if executor is not None
            else PoolExecutor(self.max_workers,
                              task_timeout=self.task_timeout))
        self.progress = progress
        self.span_tracer = span_tracer
        self.span_parent = span_parent
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.interrupt = interrupt
        #: how the last run() executed its computed tasks
        self.last_mode: str = "none"
        #: cache hits observed during the last run()
        self.last_cache_hits: int = 0

    # -- internals -----------------------------------------------------------

    def _caching(self) -> bool:
        return self.use_cache and cache_enabled()

    def _notify(self, done: int, total: int, task: Any, result: Any,
                from_cache: bool) -> None:
        if self.progress is not None:
            self.progress(done, total, task, result, from_cache)

    # -- public API ----------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> list[ExperimentResult]:
        """Execute tasks (cache, then executor); order is preserved."""
        resolved = [t.resolved() for t in tasks]
        total = len(resolved)
        results: list[ExperimentResult | None] = [None] * total
        caching = self._caching()
        keys: list[dict[str, Any] | None] = [None] * total
        self.executor.reset()

        tracer = self.span_tracer
        run_span = None
        parent_ctx = None
        carrier_cls: type | None = None
        if tracer is not None:
            from ..obs.spans import SpanCarrier as carrier_cls
            run_span = tracer.start("sweep.run", parent=self.span_parent,
                                    attributes={"cells": total})
            parent_ctx = run_span.context

        try:
            pending: list[int] = []
            done = 0
            for i, task in enumerate(resolved):
                key = task.cache_key() if caching else None
                keys[i] = key
                hit = (self.cache.get(key, tracer=tracer, parent=parent_ctx)
                       if key is not None else None)
                if hit is not None:
                    results[i] = hit
                    done += 1
                    self._notify(done, total, task, hit, True)
                else:
                    if tracer is not None:
                        task.span_context = parent_ctx.child()
                    if self.checkpoint_every and task.checkpoint_every is None:
                        task.checkpoint_every = self.checkpoint_every
                        task.checkpoint_dir = self.checkpoint_dir
                        if self.interrupt is not None and isinstance(
                                self.executor, SerialExecutor):
                            task.interrupt = self.interrupt
                    pending.append(i)
            self.last_cache_hits = total - len(pending)

            if pending:
                payloads = [resolved[i] for i in pending]
                state = {"done": done}

                def emit(j: int, res: Any) -> None:
                    i = pending[j]
                    if carrier_cls is not None and \
                            isinstance(res, carrier_cls):
                        tracer.ingest(res.spans)
                        res = res.result
                    results[i] = res
                    if caching and keys[i] is not None:
                        if tracer is not None:
                            with tracer.span("cache.write",
                                             parent=parent_ctx,
                                             attributes={"cell.index": i}):
                                self.cache.put(keys[i], res)
                        else:
                            self.cache.put(keys[i], res)
                    state["done"] += 1
                    self._notify(state["done"], total, resolved[i], res,
                                 False)

                self.executor.execute(payloads, emit)
                self.last_mode = self.executor.mode
            else:
                self.last_mode = "cached"
        except BaseException:
            if run_span is not None:
                run_span.end(status="error")
            raise
        finally:
            if run_span is not None and not run_span.ended:
                run_span.set_attribute("cache_hits", self.last_cache_hits)
                run_span.set_attribute("mode", self.last_mode)
                run_span.end()
        return results  # type: ignore[return-value]

    def run_one(self, task: SweepTask) -> ExperimentResult:
        """Convenience wrapper: run a single task through the engine."""
        return self.run([task])[0]

    def map_callable(self, fn: Callable[[Any], Any],
                     items: Sequence[Any]) -> list[Any]:
        """Generic fan-out of ``fn`` over ``items`` (no result cache).

        ``fn`` must be picklable (module-level) for the pool path; the
        serial fallback works with any callable.  Used by benchmarks
        whose unit of work is not a synthetic-traffic task (e.g. the
        PARSEC full-system runs).
        """
        total = len(items)
        if total == 0:
            return []
        self.executor.reset()
        results = self.executor.map(fn, items)
        self.last_mode = self.executor.mode
        for i, res in enumerate(results):
            self._notify(i + 1, total, items[i], res, False)
        return results

