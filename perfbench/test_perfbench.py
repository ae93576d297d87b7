"""Tests of the benchmark itself: seeded inputs and output checks.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fit_workload  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve_workload  # noqa: E402
from common import (Accounting, feedback_failure, input_rng,  # noqa: E402
                    labels_match)


def _traffic(workload, seed):
    base = input_rng("test-base").random((64, 16))
    return serve_workload.Traffic(workload, seed, np.round(base, 4),
                                  np.arange(64) % 5)


def test_seed_changes_the_inputs():
    (x_a, y_a, _, _), _ = fit_workload.draw_dataset(input_rng(1, "fit", 0))
    (x_b, y_b, _, _), _ = fit_workload.draw_dataset(input_rng(2, "fit", 0))
    assert not np.array_equal(x_a, x_b)
    for workload in ("serve-single", "serve-bulk-router"):
        rows_a = [_traffic(workload, 1).rows(0, k)[0] for k in range(8)]
        rows_b = [_traffic(workload, 2).rows(0, k)[0] for k in range(8)]
        assert not all(a.shape == b.shape and np.array_equal(a, b)
                       for a, b in zip(rows_a, rows_b))


def test_one_seed_reproduces_the_inputs_exactly():
    first, _ = fit_workload.draw_dataset(input_rng(7, "fit", 3))
    again, _ = fit_workload.draw_dataset(input_rng(7, "fit", 3))
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    for workload in ("serve-single", "serve-bulk-router"):
        for k in range(12):
            a, la = _traffic(workload, 7).rows(1, k)
            b, lb = _traffic(workload, 7).rows(1, k)
            assert np.array_equal(a, b) and np.array_equal(la, lb)


def test_bulk_rows_are_unique_and_fill_a_batch():
    traffic = _traffic("serve-bulk-router", 3)
    rows = np.concatenate([traffic.rows(c, k)[0]
                           for c in range(2) for k in range(20)])
    assert len(rows) == 2 * 20 * serve_workload.MAX_BATCH
    assert len({row.tobytes() for row in rows}) == len(rows)


def test_output_checks_reject_a_wrong_label():
    assert labels_match([0, 1, 2], np.array([0, 1, 2]))
    assert not labels_match([0, 1, 2], np.array([0, 1, 3]))
    assert not labels_match([0, 1], np.array([0, 1, 2]))

    traffic = _traffic("serve-bulk-router", 5)
    rows, _ = traffic.rows(0, 0)
    engine = SimpleNamespace(
        predict_features=lambda batch: np.zeros(len(batch), np.int64))
    good = {"phase": "measure", "k": 0, "kind": "predict", "ok": True,
            "labels": [0] * len(rows)}
    bad = dict(good, k=1, labels=[0] * (len(rows) - 1) + [1])
    acct = Accounting()
    acct.record("measure")
    acct.record("measure")
    client = SimpleNamespace(cid=0, records=[good, bad])
    serve_workload.verify([client], traffic, engine, acct)
    assert good["ok"] and not bad["ok"]
    assert acct.totals() == (2, 1)
    assert acct.report()["measure"]["failures"] == {"wrong_label": 1}


def test_feedback_check_accepts_only_learning_outcomes():
    for status in ("applied", "held_out", "new_class"):
        assert feedback_failure(200, {"status": status}) is None
    assert feedback_failure(200, {"status": "rejected"}) == \
        "feedback_rejected"
    assert feedback_failure(429, {"status": "rate_limited"}) == "http_429"


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == \
        [(name, unit, better)
         for name, (unit, better) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(name, unit, better)
         for name, (unit, better) in layers.PER_LAYER.items()]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
