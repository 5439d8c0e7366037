"""Cell-by-cell comparison of ``BENCH_kernel.json`` snapshots.

The kernel benchmark (:mod:`benchmarks.bench_kernel`) records per-cell
wall-clock timings and dense/active ratios; its ``--check`` mode *gates*
on them but reports only failures.  This module makes performance
changes **reviewable**: :func:`diff_bench` joins two snapshots on the
``(mechanism, gated_fraction)`` cell key and reports every metric's
relative delta, flags regressions with the same rule as the gate
(``dense_over_active`` dropping more than ``tolerance`` below the old
value), and renders a table fit for a PR comment — the engine behind
``repro bench diff OLD.json NEW.json``.

Absolute seconds are host-dependent; the dense/active ratio is the
hardware-independent signal (both kernels run back to back on the same
host), which is why only ratio drops count as regressions while the
``*_s`` columns are informational.

Snapshots load from a local path, a ``file://`` URL, or an
``http(s)://`` URL through :func:`load_bench_source` — the one loader
shared by ``bench_kernel.py --check``, ``repro bench diff``, and the
experiment service's ``GET /bench`` endpoint.  The gate itself lives
in :func:`check_cells` so the CI script and any other caller enforce
byte-identical rules (and emit identical failure messages).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

#: numeric per-cell metrics compared, in render order
CELL_METRICS = ("dense_over_active", "active_s", "dense_s",
                "active_cycles_per_s", "dense_cycles_per_s",
                "seed_over_active")

#: metrics where a *drop* beyond tolerance is a regression; a metric
#: missing from either snapshot is simply not compared (the hard
#: named-cell failure for that case lives in ``bench_kernel.py
#: --check``)
GATED_METRICS = ("dense_over_active",)

#: default allowed fractional drop (matches the CI gate's --tolerance)
DEFAULT_TOLERANCE = 0.30

CellKey = tuple[str, float]


def _validate_bench(doc: Any, source: str) -> dict[str, Any]:
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ValueError(f"{source}: not a bench snapshot (no 'cells' list)")
    for cell in doc["cells"]:
        if "mechanism" not in cell or "gated_fraction" not in cell:
            raise ValueError(f"{source}: cell missing mechanism/"
                             f"gated_fraction: {cell!r}")
    return doc


def load_bench_source(source: str) -> dict[str, Any]:
    """Load a snapshot from a local path, ``file://`` or ``http(s)://``.

    The one place snapshot bytes come from, regardless of where they
    live: plain paths open the file directly; URLs go through
    ``urllib.request``.  The returned document is shape-validated
    either way.
    """
    if source.startswith(("http://", "https://", "file://")):
        from urllib.request import urlopen
        with urlopen(source, timeout=30.0) as resp:
            doc = json.load(resp)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    return _validate_bench(doc, source)


def load_bench(path: str) -> dict[str, Any]:
    """Load a ``BENCH_kernel.json`` document (path or URL), validated."""
    return load_bench_source(path)


def _cells_by_key(doc: Mapping[str, Any]) -> dict[CellKey, dict]:
    return {(c["mechanism"], float(c["gated_fraction"])): c
            for c in doc["cells"]}


@dataclass
class MetricDelta:
    """One metric compared across the two snapshots."""

    name: str
    old: float
    new: float

    @property
    def rel(self) -> float:
        """Relative change ``(new - old) / old``."""
        return (self.new - self.old) / self.old if self.old else 0.0

    def as_dict(self) -> dict[str, float | str]:
        return {"old": self.old, "new": self.new, "rel": round(self.rel, 4)}


@dataclass
class CellDiff:
    """All compared metrics for one ``(mechanism, gated_fraction)`` cell."""

    mechanism: str
    gated_fraction: float
    deltas: dict[str, MetricDelta] = field(default_factory=dict)
    #: gated metrics that dropped beyond tolerance
    regressed: list[str] = field(default_factory=list)

    @property
    def key(self) -> CellKey:
        return (self.mechanism, self.gated_fraction)

    @property
    def regression(self) -> bool:
        return bool(self.regressed)

    def as_dict(self) -> dict[str, Any]:
        return {
            "mechanism": self.mechanism,
            "gated_fraction": self.gated_fraction,
            "metrics": {n: d.as_dict() for n, d in self.deltas.items()},
            "regressed": list(self.regressed),
        }


@dataclass
class BenchDiff:
    """Result of :func:`diff_bench`."""

    tolerance: float
    cells: list[CellDiff] = field(default_factory=list)
    #: cell keys present only in the old snapshot (e.g. full vs --quick)
    only_old: list[CellKey] = field(default_factory=list)
    #: cell keys present only in the new snapshot
    only_new: list[CellKey] = field(default_factory=list)

    @property
    def regressions(self) -> list[CellDiff]:
        return [c for c in self.cells if c.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "compared_cells": len(self.cells),
            "regressions": len(self.regressions),
            "ok": self.ok,
            "cells": [c.as_dict() for c in self.cells],
            "only_old": [f"{m}@{f}" for m, f in self.only_old],
            "only_new": [f"{m}@{f}" for m, f in self.only_new],
        }

    def render(self, *, markdown: bool = False) -> str:
        """Table of per-cell ratio/time deltas, regressions flagged."""
        headers = ["cell", "ratio old", "ratio new", "delta",
                   "active old", "active new", "flag"]
        rows: list[list[str]] = []
        for c in self.cells:
            ratio = c.deltas.get("dense_over_active")
            act = c.deltas.get("active_s")
            rows.append([
                f"{c.mechanism}@{c.gated_fraction:.1f}",
                f"{ratio.old:.2f}x" if ratio else "-",
                f"{ratio.new:.2f}x" if ratio else "-",
                f"{ratio.rel:+.1%}" if ratio else "-",
                f"{act.old * 1e3:.0f}ms" if act else "-",
                f"{act.new * 1e3:.0f}ms" if act else "-",
                "REGRESSION" if c.regression else "",
            ])
        if markdown:
            lines = ["| " + " | ".join(headers) + " |",
                     "|" + "|".join("---" for _ in headers) + "|"]
            lines += ["| " + " | ".join(r) + " |" for r in rows]
        else:
            widths = [max(len(h), *(len(r[i]) for r in rows)) if rows
                      else len(h) for i, h in enumerate(headers)]
            lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
            lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths))
                      for r in rows]
        for m, f in self.only_old:
            lines.append(f"(only in old snapshot: {m}@{f:.1f})")
        for m, f in self.only_new:
            lines.append(f"(only in new snapshot: {m}@{f:.1f})")
        verdict = ("OK" if self.ok else
                   f"{len(self.regressions)} REGRESSION(S)")
        lines.append(f"{len(self.cells)} cells compared, tolerance "
                     f"{self.tolerance:.0%}: {verdict}")
        return "\n".join(lines)


def diff_bench(old: Mapping[str, Any] | str, new: Mapping[str, Any] | str,
               *, tolerance: float = DEFAULT_TOLERANCE) -> BenchDiff:
    """Compare two bench snapshots (paths or loaded documents).

    Cells missing from either side are listed, not treated as failures
    (``--quick`` grids are strict subsets of the full grid by design).
    A cell regresses when a metric in :data:`GATED_METRICS` falls more
    than ``tolerance`` (fractional) below its old value — the same rule
    ``bench_kernel.py --check`` enforces.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    old_doc = load_bench_source(old) if isinstance(old, str) else old
    new_doc = load_bench_source(new) if isinstance(new, str) else new
    old_cells = _cells_by_key(old_doc)
    new_cells = _cells_by_key(new_doc)

    out = BenchDiff(tolerance=tolerance)
    out.only_old = sorted(set(old_cells) - set(new_cells))
    out.only_new = sorted(set(new_cells) - set(old_cells))
    for key in sorted(set(old_cells) & set(new_cells)):
        oc, nc = old_cells[key], new_cells[key]
        cd = CellDiff(mechanism=key[0], gated_fraction=key[1])
        for metric in CELL_METRICS:
            ov, nv = oc.get(metric), nc.get(metric)
            if isinstance(ov, (int, float)) and isinstance(nv, (int, float)):
                cd.deltas[metric] = MetricDelta(metric, float(ov), float(nv))
        for metric in GATED_METRICS:
            d = cd.deltas.get(metric)
            if d is not None and d.new < d.old * (1.0 - tolerance):
                cd.regressed.append(metric)
        out.cells.append(cd)
    return out


def check_cells(rows: list[Mapping[str, Any]],
                recorded: Mapping[str, Any] | str, *,
                tolerance: float = DEFAULT_TOLERANCE,
                source: str = "recorded snapshot") -> list[str]:
    """Gate freshly measured cells against a recorded snapshot.

    The regression rule behind ``bench_kernel.py --check``: for every
    measured row, each :data:`GATED_METRICS` ratio must stay within
    ``tolerance`` (fractional) of the recorded value.  Returns the
    failure messages (empty list = gate passes):

    * a measured cell absent from the snapshot fails with a **named
      missing-cell** message — a silent skip here would let a renamed
      mechanism sail through the gate ungated;
    * a recorded cell lacking a gated column fails with a
      **predates-the-column** message telling the operator to
      regenerate the snapshot (old snapshots must not die on KeyError
      or silently pass);
    * a gated ratio below ``recorded * (1 - tolerance)`` fails with
      the measured/floor/recorded values.

    ``recorded`` may be a loaded document or a path/URL (resolved via
    :func:`load_bench_source`); ``source`` names the snapshot in the
    messages.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if isinstance(recorded, str):
        source = recorded
        recorded = load_bench_source(recorded)
    recorded_cells = _cells_by_key(recorded)
    failures: list[str] = []
    for r in rows:
        key = (r["mechanism"], float(r["gated_fraction"]))
        base = recorded_cells.get(key)
        if base is None:
            failures.append(
                f"{key}: no recorded cell in {source} — the measured grid "
                f"is not covered by the snapshot; regenerate it with "
                f"benchmarks/bench_kernel.py")
            continue
        for metric in GATED_METRICS:
            if metric not in r:
                continue
            if metric not in base:
                # a stored snapshot from before the column existed must
                # name the cell, not die on a KeyError
                failures.append(
                    f"{key}: recorded snapshot has no '{metric}' for this "
                    f"cell — {source} predates the column; "
                    f"regenerate it with benchmarks/bench_kernel.py")
                continue
            floor = base[metric] * (1.0 - tolerance)
            if r[metric] < floor:
                failures.append(
                    f"{key}: {metric} ratio {r[metric]:.2f} "
                    f"< {floor:.2f} (recorded {base[metric]:.2f} "
                    f"- {tolerance:.0%})")
    return failures
