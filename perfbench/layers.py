"""Per-layer metrics of the traced run.

Layers are named after the modules in ``src/repro``.  A workload that
bypasses a layer reports 0 for it (``fit`` has no HTTP, batcher or
router; ``serve-single`` has no router).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import numpy as np

from repro import nn
from repro.hardware.macs import layer_cost
from repro.nn import Tensor

from common import LAYER, Accounting, Spans, median, predict_body
from fit_workload import feedback_latencies

#: Conv trunk layers of VGG16 up to the layer-21 cut.
CONV_LAYERS = (0, 2, 5, 7, 10, 12, 14, 17, 19, 21)

#: name → (unit, better), in output order.
PER_LAYER: Dict[str, tuple] = {"data.synthesize_s": ("s", "lower"),
                               "models.extract_s": ("s", "lower")}
PER_LAYER.update({f"models.extract.L{i}_s": ("s", "lower")
                  for i in range(LAYER + 1)})
PER_LAYER.update({f"models.extract.L{i}_gmacs": ("GMAC/s", "higher")
                  for i in CONV_LAYERS})
PER_LAYER.update({
    "models.train_cnn_s": ("s", "lower"),
    "models.teacher_logits_s": ("s", "lower"),
    "learn.manifold_s": ("s", "lower"),
    "hd.encode_s": ("s", "lower"),
    "learn.mass_s": ("s", "lower"),
    "learn.mass.applied_ratio": ("ratio", "higher"),
    "pipeline.eval_s": ("s", "lower"),
    "pipeline.encode_ms": ("ms", "lower"),
    "pipeline.classify_ms": ("ms", "lower"),
    "serve.engine.predict_ms": ("ms", "lower"),
    "serve.json_decode_ms": ("ms", "lower"),
    "serve.wire_ms": ("ms", "lower"),
    "serve.batcher.queue_wait_ms": ("ms", "lower"),
    "serve.batcher.batch_size_mean": ("rows", "higher"),
    "serve.cache.hit_ratio": ("ratio", "higher"),
    "fleet.router.upstream_ms": ("ms", "lower"),
    "fleet.router.retries": ("count", "lower"),
    "fleet.router.upstream_errors": ("count", "lower"),
    "online.feedback_ms": ("ms", "lower"),
    "online.feedback.applied_ratio": ("ratio", "higher"),
    "bench.trace_overhead_pct": ("%", "lower"),
})


def conv_macs_per_image(model) -> Dict[int, int]:
    """Per-image MACs of each conv trunk layer up to the cut
    (``hardware.macs.layer_cost`` on a traced dummy image)."""
    was_training = model.training
    model.eval()
    macs = {}
    with nn.no_grad():
        x = Tensor(np.zeros((1, 3, model.image_size, model.image_size)))
        for index in range(LAYER + 1):
            with nn.trace() as records:
                x = model.features[index](x)
            total = sum(layer_cost(r.module, r.output_shape).macs
                        for r in records)
            if total:
                macs[index] = total
    model.train(was_training)
    return macs


def fit_layers(spans: Spans, macs: Dict[int, int]) -> Dict[str, float]:
    """Layer metrics of the traced model build (data, models, learn,
    hd, pipeline); the per-CNN-layer times count only calls made by
    ``FeatureExtractor.extract``."""
    out = {"data.synthesize_s": spans.total_s("data.synthesize"),
           "models.extract_s": spans.total_s("models.extract")}
    per_layer = spans.totals_under("models.extract")
    images = spans.counts["models.extract.images"]
    for i in range(LAYER + 1):
        seconds = per_layer.get(f"models.extract.L{i}", 0.0)
        out[f"models.extract.L{i}_s"] = seconds
        if i in CONV_LAYERS:
            out[f"models.extract.L{i}_gmacs"] = (
                macs[i] * images / seconds / 1e9 if seconds else 0.0)
    for name in ("models.train_cnn", "models.teacher_logits",
                 "learn.manifold", "hd.encode", "learn.mass"):
        out[name + "_s"] = spans.total_s(name)
    steps = spans.counts["learn.mass.steps"]
    out["learn.mass.applied_ratio"] = (
        spans.counts["learn.mass.applied"] / steps if steps else 0.0)
    out["pipeline.eval_s"] = (
        spans.total_s("pipeline.predict")
        - spans.totals_under("pipeline.predict").get("models.extract", 0.0))
    return out


def engine_layers(engine, batches: List[np.ndarray],
                  feedback_rows: np.ndarray,
                  feedback_labels: np.ndarray) -> Dict[str, float]:
    """Serving-path layers timed in process on the same bundle and rows
    the workload sends: body decode, engine predict, encode, classify
    and the one-sample feedback update."""
    clock = time.perf_counter
    decode, predict, encode, classify = [], [], [], []
    for rows in batches:
        body = predict_body(rows)
        t0 = clock()
        np.asarray(json.loads(body)["features"], dtype=np.float64)
        decode.append(clock() - t0)
        t0 = clock()
        engine.predict_features(rows)
        predict.append(clock() - t0)
        t0 = clock()
        encoded = engine.encode_features(rows)
        encode.append(clock() - t0)
        t0 = clock()
        engine.similarities(encoded)
        classify.append(clock() - t0)
    feedback = feedback_latencies(engine, feedback_rows, feedback_labels,
                                  Accounting(), {})
    return {"serve.json_decode_ms": 1000.0 * median(decode),
            "serve.engine.predict_ms": 1000.0 * median(predict),
            "pipeline.encode_ms": 1000.0 * median(encode),
            "pipeline.classify_ms": 1000.0 * median(classify),
            "online.feedback_ms": median(feedback)}


def bypassed() -> Dict[str, float]:
    """Zeros for the serving-edge layers a workload does not reach."""
    return {"serve.wire_ms": 0.0, "serve.batcher.queue_wait_ms": 0.0,
            "serve.batcher.batch_size_mean": 0.0,
            "serve.cache.hit_ratio": 0.0, "fleet.router.upstream_ms": 0.0,
            "fleet.router.retries": 0.0, "fleet.router.upstream_errors": 0.0}
