"""Pieces shared by the layerbench workloads: outcomes, digests, spans."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.harness.cache import result_to_dict, stable_digest

#: jobs every untraced run completes, so that at least ten samples lie
#: beyond p90
MIN_JOBS = 100


@dataclass
class Outcome:
    """What one workload run reports.

    Every call to :meth:`check` is one operation; ``attempted`` and
    ``failed`` count them, so ``failed / attempted`` is the run's error
    rate.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: sample counts behind percentile metrics, e.g. {"job_s": 120}
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: finished span records of a traced run (Perfetto export)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {what}")
        return ok


@dataclass
class Timings:
    """Host times of timed calls, as measured and in reference seconds
    (see :mod:`refloop`)."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, seconds: float, scale: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * scale)

    def __len__(self) -> int:
        return len(self.raw)


def digest(result) -> str:
    """The result digest ``repro spec run`` prints for one cell."""
    return stable_digest(result_to_dict(result))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_metrics(out: Outcome, job_s: list[float]) -> None:
    """Median, p90 and sample count of per-job host times."""
    out.samples["job_s"] = len(job_s)
    out.metrics["job_p50_s"] = statistics.median(job_s)
    out.metrics["job_p90_s"] = (statistics.quantiles(job_s, n=10)[-1]
                                if len(job_s) > 1 else job_s[0])


class SpanTable:
    """Totals, counts and self times of finished span records by name.

    A span's self time is its duration minus the durations of its
    direct children.  Children are subtracted by duration rather than
    by interval because the per-cycle ``traffic.tick`` and
    ``network.step`` spans are aggregates laid over their loop span.
    """

    def __init__(self, spans: list[dict[str, Any]]) -> None:
        self.spans = spans
        self.total: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        child_ns: dict[str, int] = defaultdict(int)
        for s in spans:
            self.total[s["name"]] += s["duration_ns"]
            self.count[s["name"]] += 1
            if s["parent_id"] is not None:
                child_ns[s["parent_id"]] += s["duration_ns"]
        self.self_ns = {s["span_id"]: s["duration_ns"] - child_ns[s["span_id"]]
                        for s in spans}

    def mean_ms(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total[name] / n / 1e6 if n else 0.0

    def named(self, name: str) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' time that child layers account
        for: one minus the roots' own self time over their duration."""
        roots = self.named(root)
        total = sum(s["duration_ns"] for s in roots)
        own = sum(self.self_ns[s["span_id"]] for s in roots)
        return 1.0 - own / total if total else 0.0
