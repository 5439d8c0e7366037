"""Simulation workloads: spec → result through ``run_spec``.

``lowload_gated``, ``saturation`` and ``checkpoint_resume`` each run a
fixed list of cells, serially and with no result cache (``run_spec``
never consults it).  The untraced run times ``run_spec`` calls; the
traced run replays the same cells through :func:`drive`, which mirrors
``run_spec``'s set-up and cycle loop with public calls only and wraps
each layer in a :class:`~repro.obs.spans.SpanTracer` span.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.gating.schedule import StaticGating
from repro.harness.checkpoint import (CheckpointInterrupt, checkpoint_path,
                                      load_checkpoint, write_checkpoint)
from repro.harness.runner import ExperimentResult, run_spec
from repro.noc.network import Network
from repro.noc.snapshot import SNAPSHOT_SCHEMA_VERSION
from repro.obs.profile import KernelProfiler
from repro.obs.spans import SpanTracer, finished_span
from repro.power.accounting import EnergyReport
from repro.spec import ExperimentSpec
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import get_pattern

from common import (MIN_JOBS, Outcome, SpanTable, Timings, digest,
                    job_metrics, peak_rss_mb)
from refloop import host_scale

WORKLOADS = ("lowload_gated", "saturation", "checkpoint_resume")
MECHANISMS = ("baseline", "rp", "rflov", "gflov")
#: checkpoint cadence of ``checkpoint_resume``, cycles
CKPT_EVERY = 500
#: drain cap and idle-cycle exit of ``run_spec``'s drain loop
DRAIN_CAP, DRAIN_IDLE = 20_000, 8

Cell = tuple[str, dict[str, Any]]


def cells(workload: str, seed: int) -> list[Cell]:
    """The workload's cells as ``(name, ExperimentSpec kwargs)``.

    Each grid point runs as several replicas with their own simulation
    seeds, drawn from the workload seed: one seed always gives the same
    inputs, and no single gating or traffic draw decides a metric.
    """
    if workload == "lowload_gated":
        grid = [("uniform", m, 0.02, f) for m in MECHANISMS
                for f in (0.0, 0.4, 0.8)]
        replicas, warmup, measure = 2, 200, 600
    elif workload == "saturation":
        grid = [("uniform", m, 0.10, f) for m in ("gflov", "baseline")
                for f in (0.0, 0.4)] + [("tornado", "gflov", 0.10, 0.0)]
        replicas, warmup, measure = 6, 100, 250
    elif workload == "checkpoint_resume":
        grid = [("uniform", m, 0.02, 0.6) for m in ("gflov", "rp")]
        replicas, warmup, measure = 2, 200, 800
    else:
        raise ValueError(f"unknown simulation workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    return [(f"{m}/{p}/r{r}/g{f}/{k}",
             dict(mechanism=m, pattern=p, rate=r, gated_fraction=f,
                  warmup=warmup, measure=measure,
                  seed=rng.randrange(1, 2**31)))
            for k in range(replicas) for p, m, r, f in grid]


def interrupt_at(kw: dict[str, Any]) -> int:
    """Checkpoint after which the interrupted run stops: mid-horizon."""
    return max(1, (kw["warmup"] + kw["measure"]) // (2 * CKPT_EVERY))


def reference(kw: dict[str, Any], tracer: SpanTracer | None = None
              ) -> tuple[str, int, ExperimentResult]:
    """One cell through ``run_spec``, or through :func:`drive` when a
    tracer is given: (digest, simulated cycles, result)."""
    prof = KernelProfiler()
    if tracer is None:
        result = run_spec(ExperimentSpec(**kw), profiler=prof)
    else:
        result = drive(tracer, kw, profiler=prof)[0]
    return digest(result), prof.cycles, result


def references(workload: str, seed: int) -> dict[str, str]:
    return {name: reference(kw)[0] for name, kw in cells(workload, seed)}


def setup(kw: dict[str, Any]):
    """``run_spec``'s set-up, spec → network ready to step."""
    spec = ExperimentSpec(**kw).resolved()
    cfg = spec.config()
    net = Network(cfg, keep_samples=spec.keep_samples, kernel=spec.kernel)
    gen = TrafficGenerator(net, get_pattern(spec.pattern, cfg,
                                            **dict(spec.pattern_kwargs)),
                           spec.rate, seed=spec.seed)
    net.set_gating(schedule_for(spec, cfg))
    return net, gen


def schedule_for(spec: ExperimentSpec, cfg):
    schedule = spec.build_schedule(cfg)
    if schedule is None:
        schedule = StaticGating(cfg.num_routers, spec.gated_fraction,
                                seed=spec.seed)
    return schedule


# -- untraced jobs ------------------------------------------------------------

def jobs(workload: str, kw: dict[str, Any],
         tmp: Path) -> list[Callable[[], ExperimentResult]]:
    """The timed operations of one cell; each returns its result."""
    spec = ExperimentSpec(**kw)
    if workload != "checkpoint_resume":
        return [lambda: run_spec(spec)]

    def checkpointed() -> ExperimentResult:
        with fresh_dir(tmp) as d:
            return run_spec(spec, checkpoint_every=CKPT_EVERY,
                            checkpoint_dir=d)

    def interrupted_then_resumed() -> ExperimentResult:
        with fresh_dir(tmp) as d:
            path = interrupted(spec, d, interrupt_at(kw))
            return run_spec(spec, checkpoint_every=CKPT_EVERY,
                            checkpoint_dir=d, resume_from=path)

    return [checkpointed, interrupted_then_resumed]


def interrupted(spec: ExperimentSpec, directory: Path, stop_after: int) -> str:
    """Run ``spec`` until its ``stop_after``-th checkpoint; the path."""
    saves = 0

    def hook() -> bool:
        nonlocal saves
        saves += 1
        return saves == stop_after

    try:
        run_spec(spec, checkpoint_every=CKPT_EVERY, checkpoint_dir=directory,
                 interrupt=hook)
    except CheckpointInterrupt as exc:
        return exc.path
    raise RuntimeError("the interrupt hook never fired")


@contextmanager
def fresh_dir(tmp: Path) -> Iterator[Path]:
    """A new empty directory under ``tmp``, removed on exit."""
    path = Path(tempfile.mkdtemp(dir=tmp))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_pass(workload: str, cs: list[Cell], refs: dict, tmp: Path,
             out: Outcome, job_t: Timings,
             setup_t: Timings) -> tuple[int, int]:
    """One untraced pass over every cell: (cycles simulated, jobs run).

    Each timed call starts after ``gc.collect()`` and one reference run
    (:func:`~refloop.host_scale`), so its time is set against the
    host's speed at that moment.
    """
    cycles = tried = 0
    for name, kw in cs:
        # every timed call starts from a collected heap: set-up time is
        # set-up work, and no job pays to collect the set-up probe's
        # network (it holds reference cycles) or an earlier job's garbage
        gc.collect()
        scale = host_scale()
        t0 = time.perf_counter()
        setup(kw)
        setup_t.add(time.perf_counter() - t0, scale)
        ref, ref_cycles, _ = refs[name]
        for job in jobs(workload, kw, tmp):
            tried += 1
            gc.collect()
            scale = host_scale()
            t0 = time.perf_counter()
            try:
                result = job()
            except Exception as exc:  # a failed operation, not a crash
                out.check(False, f"{name}: {type(exc).__name__}: {exc}")
                continue
            job_t.add(time.perf_counter() - t0, scale)
            got = digest(result)
            cycles += ref_cycles
            out.check(got == ref, f"{name}: digest {got[:12]} differs from "
                                  f"the first run's {ref[:12]}")
    return cycles, tried


def reference_pass(cs: list[Cell], pinned: dict[str, str] | None,
                   out: Outcome) -> dict:
    """Untimed first pass: digests, cycle counts, pinned-digest checks."""
    refs = {}
    for name, kw in cs:
        refs[name] = reference(kw)
        if pinned is not None:
            out.check(pinned.get(name) == refs[name][0],
                      f"{name}: digest {refs[name][0][:12]} differs from "
                      f"the pinned {str(pinned.get(name))[:12]}")
    return refs


def run(workload: str, seed: int, seconds: float, tmp: Path,
        pinned: dict[str, str] | None) -> Outcome:
    """Untraced run: the end-to-end metrics, in reference seconds."""
    out = Outcome()
    cs = cells(workload, seed)
    refs = reference_pass(cs, pinned, out)
    job_t, setup_t = Timings(), Timings()
    cycles = tried = 0
    deadline = time.perf_counter() + seconds
    while tried < MIN_JOBS or time.perf_counter() < deadline:
        c, k = run_pass(workload, cs, refs, tmp, out, job_t, setup_t)
        cycles, tried = cycles + c, tried + k
    out.samples["setup_s"] = len(setup_t)
    out.metrics["setup_s"] = statistics.median(setup_t.scaled)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    if job_t.scaled:
        out.metrics["cycles_per_s"] = cycles / sum(job_t.scaled)
        out.metrics["jobs_per_s"] = len(job_t) / sum(job_t.scaled)
        job_metrics(out, job_t.scaled)
        out.notes.append(
            f"as measured (host seconds): cycles_per_s "
            f"{cycles / sum(job_t.raw):.6g}, job_p50_s "
            f"{statistics.median(job_t.raw):.6g}, setup_s "
            f"{statistics.median(setup_t.raw):.6g}; reported times are "
            f"reference seconds")
    return out


# -- traced mirror of run_spec ------------------------------------------------

def drive(tracer: SpanTracer, kw: dict[str, Any], *, directory=None,
          stop_after: int = 0, resume=None,
          profiler: KernelProfiler | None = None):
    """Run one cell the way ``run_spec`` does, each layer in a span.

    Mirrors ``run_spec``'s construction order, phase loop, checkpoint
    payload and result assembly through public calls.  Checkpoints are
    written every :data:`CKPT_EVERY` cycles when ``directory`` is set;
    ``stop_after=k`` returns ``(None, path)`` right after the k-th one,
    like an ``interrupt`` hook; ``resume`` continues from a checkpoint
    file.  Otherwise returns ``(result, None)``.

    ``gen.tick`` and ``net.step`` run once per cycle, too often for a
    span each: their times are summed per loop and recorded as one
    aggregate child span of the loop (``calls`` attribute), with the
    attached :class:`KernelProfiler`'s phase split on ``network.step``
    (pass ``profiler`` to read its cycle count afterwards).
    """
    clock = time.perf_counter_ns
    root = tracer.start("run_spec", attributes={
        "cell.mechanism": kw["mechanism"], "cell.pattern": kw["pattern"],
        "cell.gated_fraction": kw["gated_fraction"], "cell.seed": kw["seed"],
        "resume": resume is not None})
    ctx = root.context
    with tracer.span("spec.resolve", parent=ctx):
        spec = ExperimentSpec(**kw).resolved()
        cfg = spec.config()
    with tracer.span("network.build", parent=ctx):
        net = Network(cfg, keep_samples=spec.keep_samples, kernel=spec.kernel)
    prof = KernelProfiler() if profiler is None else profiler
    net.attach_profiler(prof)
    with tracer.span("traffic.build", parent=ctx):
        gen = TrafficGenerator(net, get_pattern(spec.pattern, cfg,
                                                **dict(spec.pattern_kwargs)),
                               spec.rate, seed=spec.seed)
    st = {"phase": "warmup", "done": 0, "drain_steps": 0, "drain_idle": 0,
          "rep": None, "saves": 0}
    if resume is not None:
        with tracer.span("checkpoint.load", parent=ctx):
            payload = load_checkpoint(resume, kind="run_spec")
        if payload is None or payload.get("spec_key") != spec.cache_key():
            raise RuntimeError(f"checkpoint {resume} does not resume this "
                               f"cell")
        with tracer.span("snapshot.restore", parent=ctx):
            net.restore_state(payload["net"])
            gen.restore_state(payload["traffic"])
        for key in ("phase", "done", "drain_steps", "drain_idle"):
            st[key] = payload[key]
        if payload["report"] is not None:
            st["rep"] = EnergyReport(**payload["report"])
    else:
        with tracer.span("network.gating", parent=ctx):
            net.set_gating(schedule_for(spec, cfg))
    path = checkpoint_path(directory, spec) if directory is not None else None

    def save(parent, phase: str, done: int) -> bool:
        """Write a checkpoint; True when the run should stop here."""
        rep = st["rep"]
        with tracer.span("snapshot.capture", parent=parent):
            traffic, state = gen.snapshot_state(), net.snapshot_state()
        payload = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "kind": "run_spec",
            "spec": spec.to_dict(),
            "spec_key": spec.cache_key(),
            "phase": phase,
            "done": done,
            "drain_steps": st["drain_steps"],
            "drain_idle": st["drain_idle"],
            "report": None if rep is None else {
                "cycles": rep.cycles, "static_j": rep.static_j,
                "dynamic_j": rep.dynamic_j, "gating_j": rep.gating_j},
            "traffic": traffic,
            "net": state,
        }
        with tracer.span("checkpoint.write", parent=parent) as sp:
            write_checkpoint(path, payload)
            sp.set_attribute("bytes", os.path.getsize(path))
        st["saves"] += 1
        return st["saves"] == stop_after

    def aggregate(loop, name: str, ns: int, calls: int, **attrs) -> None:
        tracer.ingest([finished_span(
            name, loop.context.child(), start_unix_ns=loop.start_unix_ns,
            duration_ns=ns, attributes=dict(attrs, aggregate=True,
                                            calls=calls))])

    def phases_since(before: dict[str, int]) -> dict[str, int]:
        return {f"kernel.{k}_ns": v - before[k]
                for k, v in prof.phase_ns().items()}

    def cycle_loop(phase: str, length: int) -> bool:
        """Warmup or measure loop; True when stopped at a checkpoint."""
        loop = tracer.start(f"sim.{phase}", parent=ctx)
        before, tick_ns, step_ns, n = prof.phase_ns(), 0, 0, 0
        stopped = False
        for i in range(st["done"] if st["phase"] == phase else 0, length):
            t0 = clock()
            gen.tick()
            t1 = clock()
            net.step()
            step_ns += clock() - t1
            tick_ns += t1 - t0
            n += 1
            if path is not None and net.cycle % CKPT_EVERY == 0 and \
                    save(loop.context, phase, i + 1):
                stopped = True
                break
        aggregate(loop, "traffic.tick", tick_ns, n)
        aggregate(loop, "network.step", step_ns, n, **phases_since(before))
        loop.end()
        return stopped

    def stop():
        root.set_attribute("checkpoints", st["saves"])
        root.end()
        return None, path

    if st["phase"] == "warmup":
        if cycle_loop("warmup", spec.warmup):
            return stop()
        net.begin_measurement()
        st["phase"], st["done"] = "measure", 0
    if st["phase"] == "measure":
        if cycle_loop("measure", spec.measure):
            return stop()
        with tracer.span("accountant.report", parent=ctx):
            st["rep"] = net.accountant.report(spec.warmup + spec.measure)
        st["phase"] = "drain"
    if spec.drain and st["phase"] == "drain":
        loop = tracer.start("sim.drain", parent=ctx)
        before, step_ns, drained, stopped = prof.phase_ns(), 0, 0, False
        while st["drain_steps"] < DRAIN_CAP:
            t1 = clock()
            net.step()
            step_ns += clock() - t1
            drained += 1
            st["drain_steps"] += 1
            st["drain_idle"] = (st["drain_idle"] + 1
                                if net.network_drained() else 0)
            if st["drain_idle"] > DRAIN_IDLE:
                break
            if path is not None and net.cycle % CKPT_EVERY == 0 and \
                    save(loop.context, "drain", 0):
                stopped = True
                break
        aggregate(loop, "network.step", step_ns, drained,
                  **phases_since(before))
        loop.set_attribute("cycles", drained)
        loop.end()
        if stopped:
            return stop()
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass
    with tracer.span("result.assemble", parent=ctx):
        result = assemble(spec, cfg, net, st["rep"])
    root.set_attribute("checkpoints", st["saves"])
    root.set_attribute("packets", result.packets)
    root.set_attribute("gating_events", result.gating_events)
    root.end()
    return result, None


def assemble(spec: ExperimentSpec, cfg, net: Network,
             rep: EnergyReport) -> ExperimentResult:
    """``run_spec``'s result assembly."""
    stats = net.stats
    power = rep.power_w(net.pcfg.cycle_time_s)
    states = net.power_states()
    return ExperimentResult(
        mechanism=spec.mechanism,
        pattern=spec.pattern,
        rate=spec.rate,
        gated_fraction=spec.gated_fraction,
        warmup=spec.warmup,
        measured_cycles=spec.measure,
        avg_latency=stats.avg_latency,
        avg_network_latency=stats.avg_network_latency,
        breakdown=stats.breakdown(cfg.packet_size),
        throughput=stats.throughput(spec.measure, cfg.num_routers),
        packets=stats.measured_packets,
        escaped=stats.escaped_packets,
        static_w=power["static"],
        dynamic_w=power["dynamic"],
        total_w=power["total"],
        static_j=rep.static_j,
        dynamic_j=rep.dynamic_j + rep.gating_j,
        total_j=rep.total_j,
        sleeping_routers=states.get("SLEEP", 0),
        gating_events=net.accountant.gating_events,
        power_states=states,
        samples=list(stats.samples) if spec.keep_samples else [],
    )


# -- traced run ---------------------------------------------------------------

def traced_jobs(workload: str, kw: dict[str, Any], tracer: SpanTracer,
                tmp: Path) -> list[Callable[[], ExperimentResult]]:
    """:func:`jobs`, driven through :func:`drive`."""
    if workload != "checkpoint_resume":
        return [lambda: drive(tracer, kw)[0]]

    def checkpointed() -> ExperimentResult:
        with fresh_dir(tmp) as d:
            return drive(tracer, kw, directory=d)[0]

    def interrupted_then_resumed() -> ExperimentResult:
        with fresh_dir(tmp) as d:
            _, path = drive(tracer, kw, directory=d,
                            stop_after=interrupt_at(kw))
            return drive(tracer, kw, directory=d, resume=path)[0]

    return [checkpointed, interrupted_then_resumed]


def check_mirror(cs: list[Cell], tmp: Path, out: Outcome) -> None:
    """:func:`drive`'s checkpoint equals ``run_spec``'s at the same
    cycle, so the mirrored payload cannot drift from the real one."""
    scratch = SpanTracer()
    for name, kw in cs:
        with fresh_dir(tmp) as d1, fresh_dir(tmp) as d2:
            real = load_checkpoint(interrupted(ExperimentSpec(**kw), d1,
                                               interrupt_at(kw)))
            _, path = drive(scratch, kw, directory=d2,
                            stop_after=interrupt_at(kw))
            out.check(real is not None and real == load_checkpoint(path),
                      f"{name}: the traced mirror's checkpoint differs "
                      f"from run_spec's")


def run_traced(workload: str, seed: int, seconds: float, tmp: Path,
               pinned: dict[str, str] | None) -> Outcome:
    """Traced run: untraced and traced passes alternate; per-layer
    metrics come from the traced passes' spans."""
    out = Outcome()
    cs = cells(workload, seed)
    refs = reference_pass(cs, pinned, out)
    if workload == "checkpoint_resume":
        check_mirror(cs, tmp, out)
    tracer = SpanTracer(capacity=1 << 20)
    plain = Timings()
    traced_s: list[float] = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workload, cs, refs, tmp, out, plain, Timings())
        for name, kw in cs:
            for job in traced_jobs(workload, kw, tracer, tmp):
                gc.collect()
                t0 = time.perf_counter()
                try:
                    result = job()
                except Exception as exc:
                    out.check(False, f"{name} (traced): "
                                     f"{type(exc).__name__}: {exc}")
                    continue
                traced_s.append(time.perf_counter() - t0)
                got = digest(result)
                out.check(got == refs[name][0],
                          f"{name}: the traced mirror's digest {got[:12]} "
                          f"differs from run_spec's {refs[name][0][:12]}")
        passes += 1
        if time.perf_counter() >= deadline:
            break
    out.spans = tracer.export()
    out.metrics.update(sim_layers(SpanTable(out.spans), passes))
    if traced_s and plain.raw:
        out.metrics["trace.overhead_ratio"] = sum(traced_s) / sum(plain.raw)
    out.notes.append(f"{passes} traced passes of {len(cs)} cells; "
                     f"{tracer.dropped} spans dropped")
    return out


def sim_layers(t: SpanTable, passes: int) -> dict[str, float]:
    """Per-layer metrics of :func:`drive` spans over ``passes`` passes."""
    wall = t.total["run_spec"]
    phase = {k: 0 for k in ("handshake", "delivery", "evaluate", "sampler")}
    for s in t.named("network.step"):
        for k in phase:
            phase[k] += s["attributes"][f"kernel.{k}_ns"]
    accounted = sum(phase.values()) or 1
    steps = sum(s["attributes"]["calls"] for s in t.named("network.step"))
    ticks = sum(s["attributes"]["calls"] for s in t.named("traffic.tick"))
    roots = [s for s in t.named("run_spec") if "packets" in s["attributes"]]
    packets = sum(s["attributes"]["packets"] for s in roots)
    writes = t.named("checkpoint.write")
    drains = t.named("sim.drain")
    builds = t.count["network.build"]
    return {
        "spec.resolve_us": t.mean_ms("spec.resolve") * 1e3,
        "network.build_ms": ((t.total["network.build"]
                              + t.total["network.gating"]) / builds / 1e6
                             if builds else 0.0),
        "traffic.tick_ns_per_cycle": t.total["traffic.tick"] / ticks
        if ticks else 0.0,
        "traffic.share": t.total["traffic.tick"] / wall,
        "kernel.step_ns_per_cycle": t.total["network.step"] / steps,
        "kernel.ns_per_packet": t.total["network.step"] / packets
        if packets else 0.0,
        "kernel.evaluate_share": phase["evaluate"] / accounted,
        "kernel.delivery_share": phase["delivery"] / accounted,
        "kernel.handshake_share": phase["handshake"] / accounted,
        "drain.cycles": (sum(s["attributes"]["cycles"] for s in drains)
                         / len(drains) if drains else 0.0),
        "drain.share": t.total["sim.drain"] / wall,
        "snapshot.capture_ms": t.mean_ms("snapshot.capture"),
        "checkpoint.write_ms": t.mean_ms("checkpoint.write"),
        "checkpoint.bytes": (sum(s["attributes"]["bytes"] for s in writes)
                             / len(writes) if writes else 0.0),
        "checkpoint.count": len(writes) / passes,
        "checkpoint.share": (t.total["snapshot.capture"]
                             + t.total["checkpoint.write"]) / wall,
        "checkpoint.load_ms": t.mean_ms("checkpoint.load"),
        "snapshot.restore_ms": t.mean_ms("snapshot.restore"),
        "sim.cycles": steps / passes,
        "sim.packets": packets / passes,
        "sim.gating_events": sum(s["attributes"]["gating_events"]
                                 for s in roots) / passes,
        "trace.coverage": t.coverage("run_spec"),
    }
