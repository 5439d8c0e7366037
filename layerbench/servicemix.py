"""service_mix: submit → result through the experiment service.

An in-process :class:`~repro.service.ExperimentService` (one job
worker, the default pool executor with one process, so jobs run in the
service's worker thread) with a job journal and an empty result cache
serves one :class:`~repro.service.ServiceClient`.  The client is a
closed loop with at most :data:`OUTSTANDING` jobs open.  Jobs are small
4x4-mesh cells: per block of ten, four resubmits of an earlier fresh
cell (served from the cache at submit time), four fresh cells (new
seed) and two fresh two-cell sweeps.  Fresh cells are dealt from the
36 (mechanism, rate, gated fraction) kinds and sweeps from the four
mechanisms, each kind once per round, so that every seed runs the same
mix.

The three kinds take about 10, 60 and 120 ms, so the mix sets where
the percentiles fall: 40 / 40 / 20 puts p50 inside the fresh cells and
p90 inside the sweeps.  At 50% hits, p50 would sit on the boundary
between hits and fresh cells and jump between them from run to run.
"""

from __future__ import annotations

import itertools
import random
import statistics
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.harness.cache import ResultCache, result_to_dict, stable_digest
from repro.obs.spans import SpanTracer
from repro.service import ExperimentService, ServiceClient, ServiceError
from repro.spec import SweepSpec

from common import (MIN_JOBS, Outcome, SpanTable, Timings, job_metrics,
                    peak_rss_mb)
from refloop import host_scale
from simload import MECHANISMS, reference, sim_layers

OUTSTANDING = 2
#: jobs of one untraced pass: enough that p50 and p90 do not hang on
#: the order in which a few jobs overlap (on a 2-vCPU VM, 200 left them
#: spreading 0.09 to 0.13 over ten seeds, 400 brought them to 0.05-0.07)
PASS_JOBS = 400
#: service start-ups timed per run besides those that serve a pass
SETUP_REPEATS = 25
#: jobs per block of :func:`plan` (4 resubmits, 4 fresh, 2 sweeps); with
#: calibration on, the host's speed is measured between blocks
BLOCK = 10
#: reference runs per measurement of the host's speed
CALIBRATION_RUNS = 9
MESH = {"width": 4, "height": 4}
WARMUP, MEASURE = 500, 2500
OK_STATES = ("done", "cache_hit")


#: (mechanism, rate, gated fraction) of the fresh cells
CELL_KINDS = list(itertools.product(MECHANISMS, (0.02, 0.03, 0.04),
                                    (0.0, 0.25, 0.5)))


def _dealt(rng: random.Random, items: list) -> Iterator:
    """``items`` in random order, all of them once per round: every run
    gets the same mix, and only the order and the seeds vary."""
    while True:
        yield from rng.sample(items, len(items))


def _cell(rng: random.Random, kind: tuple[str, float, float]
          ) -> dict[str, Any]:
    mechanism, rate, gated = kind
    return dict(mechanism=mechanism, pattern="uniform", rate=rate,
                gated_fraction=gated, warmup=WARMUP, measure=MEASURE,
                seed=rng.randrange(1, 2**31), overrides=dict(MESH))


def _sweep(rng: random.Random, mechanism: str) -> dict[str, Any]:
    return dict(mechanisms=[mechanism], pattern="uniform",
                rates=[0.02], gated_fractions=[0.0, 0.5],
                warmup=WARMUP, measure=MEASURE,
                seed=rng.randrange(1, 2**31), overrides=dict(MESH))


def plan(seed: int) -> Iterator[tuple[int, str, dict[str, Any], int]]:
    """Endless job sequence ``(index, kind, payload, source index)``.

    ``kind`` is ``fresh``, ``sweep`` or ``resubmit``; a resubmit repeats
    the payload of the earlier fresh job at its source index.
    """
    rng = random.Random(f"service_mix/{seed}")
    cell_kinds = _dealt(rng, CELL_KINDS)
    sweep_kinds = _dealt(rng, list(MECHANISMS))
    fresh: list[tuple[int, dict[str, Any]]] = []
    i = 0
    while True:
        block = ["resubmit"] * 4 + ["fresh"] * 4 + ["sweep"] * 2
        rng.shuffle(block)
        for kind in block:
            if kind == "resubmit" and fresh:
                src, payload = rng.choice(fresh)
                yield i, kind, payload, src
            elif kind == "sweep":
                yield i, kind, _sweep(rng, next(sweep_kinds)), i
            else:
                payload = _cell(rng, next(cell_kinds))
                fresh.append((i, payload))
                yield i, "fresh", payload, i
            i += 1


@dataclass
class Job:
    index: int
    kind: str
    source: int
    job_id: str = ""
    t0: float = 0.0
    latency: float = 0.0
    status: str = ""
    digest: str | None = None
    error: str | None = None
    root: Any = None  # client span of a traced job
    server_spans: list[dict[str, Any]] = field(default_factory=list)


def start_service(tmp: Path) -> tuple[ExperimentService, ServiceClient, float]:
    """A service on fresh cache and state dirs; seconds until the first
    OK ``/healthz``, counted from construction."""
    root = Path(tempfile.mkdtemp(dir=tmp))
    t0 = time.perf_counter()
    svc = ExperimentService(workers=1, pool_workers=1,
                            cache=ResultCache(root / "cache"),
                            state_dir=str(root / "state"), checkpoint_every=0)
    client = ServiceClient(port=svc.start(), timeout=120.0)
    client.health()
    return svc, client, time.perf_counter() - t0


class Loop:
    """The closed-loop client over one service."""

    def __init__(self, client: ServiceClient,
                 tracer: SpanTracer | None = None, *,
                 calibrate: bool = False) -> None:
        self.client = client
        self.tracer = tracer
        self.jobs: list[Job] = []
        self.wall = 0.0
        #: with ``calibrate``, the host's speed (:func:`~refloop.host_scale`)
        #: before each block of :data:`BLOCK` jobs and after the last
        self.scales: list[float] | None = [] if calibrate else None

    def run(self, seed: int, *, deadline: float | None = None,
            count: int | None = None) -> None:
        """Run jobs of :func:`plan` until ``count`` jobs have run, or
        until the first block boundary past the deadline (once
        :data:`MIN_JOBS` have run when there is no ``count``).

        With calibration on, the loop lets every open job finish at
        each block boundary and then measures the host's speed; the
        wall time leaves those pauses out.
        """
        finished: set[int] = set()
        pending: deque[Job] = deque()
        t_start = time.perf_counter()
        paused = 0.0
        for index, kind, payload, source in plan(seed):
            if count is not None and index >= count:
                break
            if (deadline is not None and index % BLOCK == 0
                    and index >= (MIN_JOBS if count is None else BLOCK)
                    and time.perf_counter() >= deadline):
                break
            if self.scales is not None and index % BLOCK == 0:
                while pending:
                    finished.add(self.finish(pending.popleft()).index)
                paused += self.calibrate()
            while kind == "resubmit" and source not in finished:
                finished.add(self.finish(pending.popleft()).index)
            while len(pending) >= OUTSTANDING:
                finished.add(self.finish(pending.popleft()).index)
            job = self.submit(Job(index, kind, source), payload)
            if job.error is None and job.status not in OK_STATES:
                pending.append(job)
            else:
                finished.add(self.finish(job).index)
        while pending:
            self.finish(pending.popleft())
        if self.scales is not None:
            paused += self.calibrate()
        self.wall = time.perf_counter() - t_start - paused

    def calibrate(self) -> float:
        """Measure the host's speed; the seconds that took."""
        t0 = time.perf_counter()
        self.scales.append(host_scale(CALIBRATION_RUNS))
        return time.perf_counter() - t0

    def scale(self, job: Job) -> float:
        """Host speed over ``job``'s block: the mean of the measurements
        on either side of it."""
        block = job.index // BLOCK
        return (self.scales[block] + self.scales[block + 1]) / 2

    def _span(self, job: Job, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, parent=job.root.context)

    def submit(self, job: Job, payload: dict[str, Any]) -> Job:
        self.jobs.append(job)
        job.t0 = time.perf_counter()
        if self.tracer is not None:
            job.root = self.tracer.start("job", attributes={
                "job.kind": job.kind, "job.index": job.index})
        try:
            with self._span(job, "service.submit"):
                snap = self.client.submit(payload)
            job.job_id, job.status = snap["id"], snap["status"]
        except (OSError, ServiceError) as exc:
            job.error, job.status = f"submit: {exc}", "error"
        return job

    def finish(self, job: Job) -> Job:
        """Wait for the job's end event, then fetch its result."""
        if job.error is None:
            try:
                if job.status not in OK_STATES:
                    with self._span(job, "service.wait"):
                        for event in self.client.events(job.job_id):
                            if event["event"] == "end":
                                job.status = event["data"]["status"]
                with self._span(job, "service.result"):
                    res = self.client.result(job.job_id)
                job.status, job.digest = res["status"], res["digest"]
            except (OSError, ServiceError) as exc:
                job.error = f"{job.status}: {exc}"
        job.latency = time.perf_counter() - job.t0
        if job.root is not None:
            job.root.end(status="ok" if job.error is None else "error")
            try:
                if job.job_id:
                    job.server_spans = self.client.trace(job.job_id)["spans"]
            except (OSError, ServiceError) as exc:
                job.error = f"trace: {exc}"
        return job


def verify(jobs: list[Job], payloads: dict[int, dict[str, Any]],
           pinned: dict[str, str] | None, out: Outcome,
           tracer: SpanTracer | None = None) -> dict[int, tuple]:
    """Check every job against a local run of its spec.

    Returns ``{source index: (digest, cycles, packets, gating events)}``
    for the computed (fresh and sweep) jobs.
    """
    refs: dict[int, tuple] = {}
    for job in sorted(jobs, key=lambda j: j.index):
        if job.source not in refs:
            refs[job.source] = local(payloads[job.source], tracer)
            key = str(job.source)
            if pinned is not None and job.source < MIN_JOBS:
                out.check(pinned.get(key) == refs[job.source][0],
                          f"job {key}: local digest differs from the pinned "
                          f"{str(pinned.get(key))[:12]}")
        expected = refs[job.source][0]
        out.check(job.error is None and job.status in OK_STATES
                  and job.digest == expected,
                  f"job {job.index} ({job.kind}): status {job.status}, "
                  f"digest {str(job.digest)[:12]} vs local "
                  f"{expected[:12]}; {job.error}")
    return refs


def local(payload: dict[str, Any], tracer: SpanTracer | None = None) -> tuple:
    """Digest of a job payload computed in this process, the way the
    service digests it, plus its simulated cycles, packets and gating
    events."""
    if "mechanisms" not in payload:
        d, cycles, r = reference(payload, tracer)
        return d, cycles, r.packets, r.gating_events
    series: dict[str, list] = {}
    cycles = packets = events = 0
    for spec in SweepSpec(**payload).expand():
        _, c, r = reference(spec.to_dict(), tracer)
        series.setdefault(spec.mechanism, []).append(result_to_dict(r))
        cycles, packets, events = (cycles + c, packets + r.packets,
                                   events + r.gating_events)
    return stable_digest(series), cycles, packets, events


def payloads_of(seed: int, count: int) -> dict[int, dict[str, Any]]:
    out: dict[int, dict[str, Any]] = {}
    for index, _, payload, _ in plan(seed):
        if index >= count:
            return out
        out[index] = payload
    return out


def references(seed: int) -> dict[str, str]:
    """Pinned digests: every computed job among the first MIN_JOBS."""
    out = {}
    for index, _, payload, source in plan(seed):
        if index >= MIN_JOBS:
            return out
        if index == source:
            out[str(index)] = local(payload)[0]
    return out


def _computed(refs: dict[int, tuple], jobs: list[Job]) -> int:
    """Cycles the service simulated for ``jobs`` (resubmits: none)."""
    return sum(refs[j.source][1] for j in jobs if j.index == j.source)


def run(seed: int, seconds: float, tmp: Path,
        pinned: dict[str, str] | None) -> Outcome:
    """Untraced run: the end-to-end metrics, in reference seconds.

    The first :data:`PASS_JOBS` jobs of the plan run again and again,
    each pass on a fresh service with an empty cache, until the
    deadline; the first pass always runs whole, a later one stops at
    the first block boundary past the deadline.  The reference loop
    cannot run during a job without taking the interpreter from the
    service, so the loop measures the host's speed between blocks of
    :data:`BLOCK` jobs, with no job open, and each job's time is set
    against the measurements on either side of its block.
    """
    out = Outcome()
    setup_t, job_t, wall_t = Timings(), Timings(), Timings()
    for _ in range(SETUP_REPEATS):
        scale = host_scale()
        svc, _, dt = start_service(tmp)
        svc.stop()
        setup_t.add(dt, scale)
    loops: list[Loop] = []
    deadline = time.perf_counter() + seconds
    while not loops or time.perf_counter() < deadline:
        scale = host_scale()
        svc, client, dt = start_service(tmp)
        setup_t.add(dt, scale)
        loop = Loop(client, calibrate=True)
        try:
            loop.run(seed, count=PASS_JOBS,
                     deadline=deadline if loops else None)
        finally:
            svc.stop()
        loops.append(loop)
        wall_t.add(loop.wall, statistics.mean(loop.scales))
        for job in loop.jobs:
            if job.error is None:
                job_t.add(job.latency, loop.scale(job))
    payloads = payloads_of(seed, PASS_JOBS)
    jobs = [j for loop in loops for j in loop.jobs]
    refs = verify(jobs, payloads, pinned, out)
    done = [j for j in jobs if j.error is None]
    out.samples["setup_s"] = len(setup_t)
    out.metrics["setup_s"] = statistics.median(setup_t.scaled)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    if done:
        cycles = _computed(refs, done)
        out.metrics["cycles_per_s"] = cycles / sum(wall_t.scaled)
        out.metrics["jobs_per_s"] = len(done) / sum(wall_t.scaled)
        job_metrics(out, job_t.scaled)
        out.notes.append(
            f"{len(done)} jobs in {len(loops)} passes of up to "
            f"{PASS_JOBS}; as measured (host seconds): jobs_per_s "
            f"{len(done) / sum(wall_t.raw):.6g}, "
            f"job_p50_s {statistics.median(job_t.raw):.6g}, setup_s "
            f"{statistics.median(setup_t.raw):.6g}; reported times are "
            f"reference seconds")
    return out


def run_traced(seed: int, seconds: float, tmp: Path,
               pinned: dict[str, str] | None) -> Outcome:
    """Traced run: an untraced loop for half the time, then the same
    jobs traced on a fresh service; every job is then checked against
    a local :func:`~simload.drive` run of its spec."""
    out = Outcome()
    svc, client, _ = start_service(tmp)
    plain = Loop(client)
    try:
        plain.run(seed, deadline=time.perf_counter() + seconds / 2)
    finally:
        svc.stop()
    svc, client, _ = start_service(tmp)
    tracer = SpanTracer(capacity=1 << 20)
    traced = Loop(client, tracer)
    try:
        traced.run(seed, count=len(plain.jobs))
    finally:
        svc.stop()
    sim_tracer = SpanTracer(capacity=1 << 20)
    payloads = payloads_of(seed, len(plain.jobs))
    refs = verify(plain.jobs + traced.jobs, payloads, pinned, out, sim_tracer)

    client_spans = tracer.export()
    server_spans = [s for j in traced.jobs for s in j.server_spans]
    sim_spans = sim_tracer.export()
    out.spans = client_spans + server_spans + sim_spans
    out.metrics.update(sim_layers(SpanTable(sim_spans), 1))
    head = [r for i, r in refs.items() if i < MIN_JOBS]
    out.metrics["sim.cycles"] = sum(r[1] for r in head)
    out.metrics["sim.packets"] = sum(r[2] for r in head)
    out.metrics["sim.gating_events"] = sum(r[3] for r in head)

    c, s = SpanTable(client_spans), SpanTable(server_spans)
    probes = s.named("cache.probe")
    hits = [p for p in probes if p["attributes"].get("cache.hit")]
    hit_ns = sum(p["duration_ns"] for p in hits)
    miss_ns = s.total["cache.probe"] - hit_ns
    runs = s.named("sweep.run")
    hit_jobs = [j for j in traced.jobs
                if j.status == "cache_hit" and j.error is None]
    out.metrics.update({
        "spec.resolve_us": s.mean_ms("submit.parse") * 1e3,
        "cache.get_hit_ms": hit_ns / len(hits) / 1e6 if hits else 0.0,
        "cache.get_miss_ms": (miss_ns / (len(probes) - len(hits)) / 1e6
                              if len(probes) > len(hits) else 0.0),
        "cache.put_ms": s.mean_ms("cache.write"),
        "cache.hit_ratio": len(hits) / len(probes) if probes else 0.0,
        "service.submit_ms": c.mean_ms("service.submit"),
        "service.result_ms": c.mean_ms("service.result"),
        "service.queue_wait_ms": s.mean_ms("queue.wait"),
        "service.cell_run_ms": s.mean_ms("cell.run"),
        "executor.overhead_ms": (sum(s.self_ns[r["span_id"]] for r in runs)
                                 / len(runs) / 1e6 if runs else 0.0),
        "service.hit_span_coverage": statistics.mean(
            _root_ns(j.server_spans) / 1e9 / j.latency for j in hit_jobs)
        if hit_jobs else 0.0,
        "trace.coverage": (sum(_covered_ns(j, c.spans) for j in traced.jobs)
                           / sum(j.root.duration_ns for j in traced.jobs)),
        "trace.overhead_ratio": traced.wall / plain.wall,
    })
    out.notes.append(f"{len(traced.jobs)} traced jobs, "
                     f"{len(hit_jobs)} cache hits")
    return out


def _root_ns(spans: list[dict[str, Any]]) -> int:
    return sum(s["duration_ns"] for s in spans if s["parent_id"] is None)


def _covered_ns(job: Job, client_spans: list[dict[str, Any]]) -> int:
    """Time of the client's job span covered by its child spans or by
    the service's root span of the job.

    With two jobs open, the client waits on one while the service works
    on the other; the service's span, on the same clock, covers that.
    """
    root = job.root
    lo, hi = root.start_unix_ns, root.start_unix_ns + root.duration_ns
    spans = [s for s in job.server_spans if s["parent_id"] is None]
    spans += [s for s in client_spans
              if s["parent_id"] == root.context.span_id]
    covered, reach = 0, lo
    for start, end in sorted((s["start_unix_ns"],
                              s["start_unix_ns"] + s["duration_ns"])
                             for s in spans):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
