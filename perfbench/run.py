"""NSHD benchmark: fit on images, single-row serving with feedback
writes, and bulk serving through the router.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

``--workload`` is ``fit``, ``serve-single`` or ``serve-bulk-router``
(see ``perfbench/README.md`` for why each exists).  Inputs are made
from ``--seed``.  Every output is checked; failures are counted per
phase.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (and the tracing
overhead) with ``--trace 1``.  Exits 2 without a result when the
program's sources (``src/repro``) are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC, Accounting, Spans  # noqa: E402

WORKLOADS = ("fit", "serve-single", "serve-bulk-router")

#: name → (unit, better), in output order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "teacher_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "eval_img_per_s": ("img/s", "higher"),
    "test_accuracy": ("ratio", "higher"),
    "predict_p50_ms": ("ms", "lower"),
    "predict_p99_ms": ("ms", "lower"),
    "predict_rps": ("1/s", "higher"),
    "rows_per_s": ("rows/s", "higher"),
    "feedback_p50_ms": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# The workload modules import the program, so they are imported once
# main() has put its sources on the path.
def run_fit(args, spans, acct):
    import fit_workload
    import layers
    from common import median

    res = fit_workload.run(args.seed, args.seconds, spans, acct,
                           traced=bool(args.trace))
    cycles = res["cycles"][1:2] if args.trace else res["cycles"]
    metrics = {name: median([c[name] for c in cycles])
               for name in ("setup_s", "teacher_s", "fit_s",
                            "eval_img_per_s", "test_accuracy",
                            "predict_p50_ms", "predict_p99_ms",
                            "predict_rps", "feedback_p50_ms")}
    metrics["rows_per_s"] = metrics["predict_rps"]
    properties = {"repeated_row_share": 0.0, "rows_per_request": 1.0,
                  "batch_size_mean": 1.0, "body_bytes": None}
    samples = {"cycles": res["cycles"]}
    per_layer = {}
    if args.trace:
        engine, statuses = res["engine"], res["feedback_statuses"]
        x_te, y_te = res["held_out"]
        raw = res["pipeline"].extractor.extract(x_te)
        per_layer.update(layers.fit_layers(
            spans, layers.conv_macs_per_image(engine.extractor.model)))
        per_layer.update(layers.engine_layers(
            engine, [raw[i:i + 1] for i in range(len(raw))], raw, y_te))
        per_layer.update(layers.bypassed())
        per_layer["online.feedback.applied_ratio"] = (
            statuses.get("applied", 0) / sum(statuses.values()))
        walls = res["walls"]
        per_layer["bench.trace_overhead_pct"] = 100.0 * (
            walls[2] / walls[1] - 1.0)
    return metrics, per_layer, properties, samples


def run_serve(args, spans, acct, run_dir):
    import layers
    import numpy as np
    import serve_workload
    from common import median, percentile

    res = serve_workload.run(args.workload, args.seed, args.seconds,
                             run_dir, spans, acct, bool(args.trace))
    stats = res["stats"]
    feedback_ms = stats["measure" if args.workload == "serve-single"
                        else "feedback"]["feedback_ms"]
    predict_ms = stats["measure"]["predict_ms"]
    metrics = {"setup_s": median(res["setups"]), **res["timings"]}
    metrics.update(
        predict_p50_ms=percentile(predict_ms, 50),
        predict_p99_ms=percentile(predict_ms, 99),
        predict_rps=stats["measure"]["predict_rps"],
        rows_per_s=stats["measure"]["rows_per_s"],
        feedback_p50_ms=median(feedback_ms))
    samples = {"predict": len(predict_ms), "feedback": len(feedback_ms),
               "spawns": len(res["setups"]), "health": res["health"]}
    per_layer = {}
    if args.trace:
        # In-process timings on rows this workload sends.
        traffic = res["traffic"]
        sent = [traffic.rows(0, k) for k in range(64)
                if not traffic.is_feedback(k)]
        rows = np.concatenate([batch for batch, _ in sent])
        labels = np.concatenate([label for _, label in sent])
        client_p50 = percentile(spans.durations_ms("client.predict"), 50)
        per_layer.update(layers.fit_layers(
            spans, layers.conv_macs_per_image(
                res["pipeline"].extractor.model)))
        per_layer.update(layers.engine_layers(
            res["engine"], [batch for batch, _ in sent], rows[:300],
            labels[:300]))
        per_layer.update(serve_workload.edge_layers(res, client_p50))
        per_layer["bench.trace_overhead_pct"] = 100.0 * (
            client_p50 / metrics["predict_p50_ms"] - 1.0)
    return metrics, per_layer, res["properties"], samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing "
              f"({os.path.relpath(SRC, os.getcwd())}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spans = Spans(enabled=bool(args.trace))
    acct = Accounting()
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.workload == "fit":
            metrics, per_layer, properties, samples = run_fit(
                args, spans, acct)
        else:
            metrics, per_layer, properties, samples = run_serve(
                args, spans, acct, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it

    attempted, failed = acct.totals()
    metrics["success_rate"] = 1.0 - failed / attempted
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "phases": acct.report(), "properties": properties,
                      "samples": samples}, sort_keys=True))
    if args.trace:
        from layers import PER_LAYER
        out = {name: {"value": float(per_layer[name]), "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    else:
        out = {name: {"value": float(metrics[name]), "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
