#!/usr/bin/env python3
"""Layered benchmark of the FLOV simulator.

One workload per call::

    python3 layerbench/run.py --workload lowload_gated --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics
(names, units and directions are read from ``BENCHMARK.json``; what
each should move is in ``layerbench/METRICS.md``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any operation
failed (an exception, a digest mismatch, a non-2xx response, or a job
that did not end ``done``/``cache_hit``).

``--workload all`` (the default) runs every workload, untraced and
traced, each in its own process, and prints one table.  ``--pin``
rewrites ``layerbench/digests.json`` from the current tree.

End-to-end times are reported in reference seconds: each host time is
rescaled by the speed of a fixed reference loop timed right before it
(``layerbench/refloop.py``), and each run pins itself to one CPU.

The benchmark builds nothing: it imports ``repro`` from ``src/`` of
the checkout it sits in, and exits 2 when that tree is missing.  It
writes only under ``.layerbench_work/`` of the checkout: a fresh
temporary directory per run (removed at exit), and with ``--trace 1``
a Perfetto-loadable span trace in ``.layerbench_work/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".layerbench_work"
PINNED = HERE / "digests.json"
SIM_WORKLOADS = ("lowload_gated", "saturation", "checkpoint_resume")
WORKLOADS = SIM_WORKLOADS + ("service_mix",)
#: knobs that would change what is measured (kernel, run length, pool
#: size, cache location, plugins); cleared before ``repro`` is imported
CLEARED_ENV = ("REPRO_KERNEL", "REPRO_FULL", "REPRO_JOBS", "REPRO_CACHE_DIR",
               "REPRO_NO_CACHE", "REPRO_PLUGINS")
#: the workload seed the pinned digests belong to
PINNED_SEED = 1


def import_repro() -> bool:
    """Import ``repro`` from this checkout's ``src/`` (and no other)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"layerbench: cannot import repro from {src}: {exc}",
              file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"layerbench: repro resolves to {repro.__file__}, outside "
              f"{src}", file=sys.stderr)
        return False
    return True


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the threads it starts, on one CPU (the
    lowest it may use), so that the speed reference (``refloop``) and
    the measured threads share a core.  The CPU, or None where the
    platform cannot pin."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def run_one(args, bench: dict) -> int:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    cpu = pin_to_one_cpu()
    if not import_repro():
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "cpu": cpu,
               "load1_start": os.getloadavg()[0], "commit": commit()}
    pinned = None
    if args.seed == PINNED_SEED and PINNED.is_file():
        pinned = json.loads(PINNED.read_text())[args.workload]

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    cwd = os.getcwd()
    os.chdir(tmp)  # a stray relative path lands in the temp dir
    try:
        out = measure(args, tmp, pinned)
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp, ignore_errors=True)
    context["load1_end"] = os.getloadavg()[0]

    if args.trace:
        # a layer the workload never enters reads 0
        out.metrics = {m["name"]: out.metrics.get(m["name"], 0.0)
                       for m in wanted}
        trace_path = export_spans(args, out.spans)
        context["span_trace"] = str(trace_path.relative_to(ROOT))
    else:
        missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
        out.check(not missing, f"metrics not measured: {missing}")
        out.metrics["error_rate"] = out.failed / out.attempted
    print(json.dumps({"context": context}))
    for note in out.notes:
        print(f"# {note}")
    units = {m["name"]: m["unit"] for m in wanted}
    units["error_rate"] = "ratio"
    for name, value in out.metrics.items():
        extra = ""
        if name.startswith("job_p"):
            n = out.samples["job_s"]
            extra = f"  (n={n}, {n // 10} beyond p90)"
        elif name == "setup_s":
            extra = f"  (median of {out.samples['setup_s']})"
        print(f"{name:28s} {value:14.6g} {units.get(name, '')}{extra}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": out.metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 1 if out.failed else 0


def measure(args, tmp: Path, pinned):
    # imported here: these modules need repro on sys.path
    if args.workload == "service_mix":
        import servicemix
        fn = servicemix.run_traced if args.trace else servicemix.run
        return fn(args.seed, args.seconds, tmp, pinned)
    import simload
    fn = simload.run_traced if args.trace else simload.run
    return fn(args.workload, args.seed, args.seconds, tmp, pinned)


def export_spans(args, spans) -> Path:
    """Write the run's spans once, as a Chrome-trace/Perfetto file."""
    from repro.obs.export import write_span_chrome_trace
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    write_span_chrome_trace(spans, str(path))
    return path


def pin() -> int:
    """Recompute the pinned digests for :data:`PINNED_SEED`."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if not import_repro():
        return 2
    import servicemix
    import simload
    doc = {w: simload.references(w, PINNED_SEED) for w in SIM_WORKLOADS}
    doc["service_mix"] = servicemix.references(PINNED_SEED)
    PINNED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, doc.values()))} digests in {PINNED}")
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one process each."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode or result is None or not result["correct"]:
                status = 1
            rows.append((workload, trace, proc.returncode, result,
                         time.perf_counter() - t0))
    print()
    for workload, trace, code, result, wall in rows:
        head = f"{workload:18s} trace={trace} exit={code} {wall:6.1f}s"
        if result is None:
            print(f"{head}  no result")
            continue
        print(f"{head}  failed {result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"    {name:28s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digests and exit")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"layerbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
