"""Tests for the file/URL-agnostic bench-snapshot loader and the
shared ``check_cells`` gate (``bench_kernel.py --check`` / ``repro
bench diff`` / the service's ``/bench`` endpoint all go through them).
"""

from __future__ import annotations

import http.server
import importlib.util
import json
import os
import threading

import pytest

from repro.harness.benchdiff import (check_cells, diff_bench, load_bench,
                                     load_bench_source)

SNAPSHOT = {
    "schema": 1,
    "cells": [
        {"mechanism": "gflov", "gated_fraction": 0.0,
         "dense_over_active": 2.0},
        {"mechanism": "gflov", "gated_fraction": 0.6,
         "dense_over_active": 4.0},
    ],
}


@pytest.fixture
def snapshot_path(tmp_path):
    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps(SNAPSHOT))
    return path


# -- loader -------------------------------------------------------------------

def test_load_from_plain_path_and_file_url(snapshot_path):
    by_path = load_bench_source(str(snapshot_path))
    by_url = load_bench_source(snapshot_path.as_uri())
    assert by_path == by_url == SNAPSHOT
    # the legacy entry point is the same loader
    assert load_bench(str(snapshot_path)) == SNAPSHOT
    assert load_bench(snapshot_path.as_uri()) == SNAPSHOT


def test_load_from_http_url(snapshot_path):
    directory = str(snapshot_path.parent)

    class Handler(http.server.SimpleHTTPRequestHandler):
        def __init__(self, *a, **kw):
            super().__init__(*a, directory=directory, **kw)

        def log_message(self, *a):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = (f"http://127.0.0.1:{server.server_address[1]}/"
               f"{snapshot_path.name}")
        assert load_bench_source(url) == SNAPSHOT
    finally:
        server.shutdown()
        thread.join(timeout=10.0)


def test_loader_rejects_malformed_snapshots(tmp_path):
    no_cells = tmp_path / "bad1.json"
    no_cells.write_text(json.dumps({"schema": 1}))
    with pytest.raises(ValueError, match="no 'cells' list"):
        load_bench_source(str(no_cells))

    bad_cell = tmp_path / "bad2.json"
    bad_cell.write_text(json.dumps({"cells": [{"mechanism": "gflov"}]}))
    with pytest.raises(ValueError, match="missing mechanism/gated_fraction"):
        load_bench_source(str(bad_cell))

    with pytest.raises(OSError):
        load_bench_source(str(tmp_path / "absent.json"))


# -- the shared gate ----------------------------------------------------------

def measured(**overrides) -> dict:
    row = {"mechanism": "gflov", "gated_fraction": 0.0,
           "dense_over_active": 2.0}
    row.update(overrides)
    return row


def test_check_cells_passes_within_tolerance():
    rows = [measured(dense_over_active=1.5)]  # -25% on a 30% budget
    assert check_cells(rows, SNAPSHOT, tolerance=0.30) == []


def test_check_cells_flags_ratio_drops():
    rows = [measured(dense_over_active=1.0)]  # -50%
    failures = check_cells(rows, SNAPSHOT, tolerance=0.30)
    assert len(failures) == 1
    assert "dense_over_active ratio 1.00" in failures[0]
    assert "recorded 2.00" in failures[0]


def test_check_cells_names_missing_cells():
    rows = [measured(mechanism="rflov")]  # not in the snapshot
    failures = check_cells(rows, SNAPSHOT, source="BASE.json")
    assert len(failures) == 1
    assert "('rflov', 0.0)" in failures[0]
    assert "no recorded cell in BASE.json" in failures[0]
    assert "regenerate" in failures[0]


def test_check_cells_names_predates_column_snapshots():
    old = {"cells": [{"mechanism": "gflov", "gated_fraction": 0.0,
                      "active_s": 0.5}]}  # no dense_over_active column
    failures = check_cells([measured()], old, source="OLD.json")
    assert len(failures) == 1
    assert "dense_over_active" in failures[0]
    assert "OLD.json predates the column" in failures[0]


def test_check_cells_accepts_a_source_string(snapshot_path):
    rows = [measured(dense_over_active=0.1)]
    failures = check_cells(rows, str(snapshot_path))
    assert len(failures) == 1
    assert str(snapshot_path) not in failures[0]  # ratio message
    missing = check_cells([measured(mechanism="rp")], str(snapshot_path))
    assert str(snapshot_path) in missing[0]


# -- consumers ----------------------------------------------------------------

def _load_bench_kernel_module():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_kernel_under_test",
        os.path.join(root, "benchmarks", "bench_kernel.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_kernel_check_works_against_a_file_url(snapshot_path, capsys):
    bk = _load_bench_kernel_module()
    rows = [measured(), measured(gated_fraction=0.6,
                                 dense_over_active=3.9)]
    assert bk.check(rows, snapshot_path.as_uri(), 0.30) == 0
    assert "kernel check OK" in capsys.readouterr().out

    rows[0]["dense_over_active"] = 0.5
    assert bk.check(rows, snapshot_path.as_uri(), 0.30) == 1
    assert "KERNEL PERFORMANCE REGRESSION" in capsys.readouterr().err


def test_diff_bench_accepts_urls(snapshot_path):
    diff = diff_bench(snapshot_path.as_uri(), str(snapshot_path))
    assert diff.ok
    assert len(diff.cells) == 2
