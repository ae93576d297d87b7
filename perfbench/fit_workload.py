"""The ``fit`` workload and the model build every workload shares.

A cycle is what a researcher does: synthesize SyntheticCIFAR images,
pretrain the VGG16 w=0.125 teacher (``train_cnn``), run ``NSHD.fit`` at
layer 21, classify the held-out set with ``pipeline.predict``, export
the bundle and use it in process (single-image predictions and
one-sample feedback updates, as ``POST /feedback`` applies them).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.data import SyntheticCIFAR, normalize_images
from repro.learn import NSHD
from repro.models import create_model, train_cnn
from repro.online import ShadowModel
from repro.serve import InferenceEngine, ModelBundle

from common import (CLASSES, CNN_EPOCHS, DIM, HD_EPOCHS, LAYER, MODEL,
                    MODEL_SEED, REDUCED, TEST, TRAIN, WIDTH, WORLD_SEED,
                    Accounting, Spans, draw_images, feedback_failure,
                    input_rng, labels_match, median, percentile)

#: Held-out images per cycle learned from one at a time, in process.
FEEDBACKS = 100


def world() -> SyntheticCIFAR:
    return SyntheticCIFAR(num_classes=CLASSES, seed=WORLD_SEED)


def draw_dataset(rng: np.random.Generator):
    """Normalized train/test split plus the train statistics.

    ``rng`` draws the training images.  The held-out set is the same
    for every seed, like a dataset's fixed test split, so accuracy moves
    only with what the model learned.
    """
    source = world()
    x_tr, y_tr = draw_images(source, rng, TRAIN, "train")
    x_te, y_te = draw_images(source, input_rng("test-split"), TEST, "test")
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)
    return (x_tr, y_tr, x_te, y_te), (mean, std)


def bundle_config() -> Dict[str, Any]:
    return {"model": MODEL, "width": WIDTH, "layer_index": LAYER,
            "dim": DIM, "reduced": REDUCED, "classes": CLASSES,
            "cnn_epochs": CNN_EPOCHS, "hd_epochs": HD_EPOCHS}


def _trace_layers(spans: Spans, pipeline: NSHD) -> None:
    """Spans around the public calls of each layer NSHD.fit and
    pipeline.predict go through (no-op when tracing is off)."""
    model = pipeline.extractor.model
    for index in range(LAYER + 1):
        spans.wrap(model.features[index], "forward",
                   f"models.extract.L{index}")
    spans.wrap(pipeline.extractor, "extract", "models.extract",
               on_result=lambda out: spans.count("models.extract.images",
                                                 len(out)))
    spans.wrap(pipeline.teacher, "logits", "models.teacher_logits")
    for attr in ("init_pca", "train_step"):
        spans.wrap(pipeline.manifold, attr, "learn.manifold")
    spans.wrap(pipeline.encoder, "encode", "hd.encode")
    for attr in ("initialize", "compute_update"):
        spans.wrap(pipeline.trainer, attr, "learn.mass")

    def count_step(applied):
        spans.count("learn.mass.steps")
        spans.count("learn.mass.applied", bool(applied))

    spans.wrap(pipeline.trainer, "step", "learn.mass", on_result=count_step)


def train_teacher(x_tr: np.ndarray, y_tr: np.ndarray, spans: Spans):
    """Construct the CNN and pretrain it (``train_cnn``).

    Returns the model in eval mode, the construction seconds and the
    ``train_cnn`` seconds.
    """
    clock = time.perf_counter
    t0 = clock()
    model = create_model(MODEL, num_classes=CLASSES, width_mult=WIDTH,
                         seed=MODEL_SEED)
    construct_s = clock() - t0
    t0 = clock()
    with spans.span("models.train_cnn"):
        train_cnn(model, x_tr, y_tr, epochs=CNN_EPOCHS, seed=MODEL_SEED)
    teacher_s = clock() - t0
    model.eval()
    return model, construct_s, teacher_s


def build(data, spans: Spans) -> Tuple[Dict[str, float], NSHD, np.ndarray]:
    """Teacher pretraining, NSHD.fit and held-out evaluation.

    Returns the timings, the fitted pipeline and its held-out labels.
    """
    x_tr, y_tr, x_te, y_te = data
    clock = time.perf_counter
    model, construct_s, teacher_s = train_teacher(x_tr, y_tr, spans)
    t0 = clock()
    pipeline = NSHD(model, layer_index=LAYER, dim=DIM,
                    reduced_features=REDUCED, seed=MODEL_SEED)
    construct_s += clock() - t0
    _trace_layers(spans, pipeline)
    t0 = clock()
    pipeline.fit(x_tr, y_tr, epochs=HD_EPOCHS)
    fit_s = clock() - t0
    t0 = clock()
    with spans.span("pipeline.predict"):
        predicted = np.asarray(pipeline.predict(x_te))
    eval_s = clock() - t0
    spans.unwrap()
    timings = {"construct_s": construct_s, "teacher_s": teacher_s,
               "fit_s": fit_s, "eval_img_per_s": len(x_te) / eval_s,
               "test_accuracy": float((predicted == y_te).mean())}
    return timings, pipeline, predicted


def feedback_latencies(engine, rows: np.ndarray, labels: np.ndarray,
                       acct: Accounting, statuses: Dict[str, int],
                       extract=None) -> List[float]:
    """One-sample updates in process, as ``POST /feedback`` applies
    them: encode the row on the live engine, ingest it into a shadow
    copy of the class matrix.  With ``extract``, each row is an image
    whose features are extracted first.  Returns the latency of each
    correct update."""
    shadow = ShadowModel(engine.class_matrix)
    latencies = []
    for row, label in zip(rows, labels):
        t0 = time.perf_counter()
        features = row[None] if extract is None else extract(row[None])
        status = shadow.ingest(engine.encode_features(features), int(label))
        elapsed = 1000.0 * (time.perf_counter() - t0)
        statuses[status] = statuses.get(status, 0) + 1
        reason = feedback_failure(200, {"status": status})
        acct.record("feedback", reason)
        if reason is None:
            latencies.append(elapsed)
    return latencies


def run(seed: int, seconds: float, spans: Spans, acct: Accounting,
        traced: bool) -> Dict[str, Any]:
    """Fit cycles until ``seconds`` have passed (at least one).

    Each cycle's timings include the latency quantiles of its own
    single-image predictions and feedback updates, so every ``fit``
    metric is a median over cycles and one disturbed cycle cannot set
    a run's tail.  ``traced`` runs exactly three cycles on the same
    inputs: one to warm up, one untraced and one traced, for the
    tracing overhead.
    """
    clock = time.perf_counter
    cycles: List[Dict[str, float]] = []
    statuses: Dict[str, int] = {}
    walls: List[float] = []
    deadline = clock() + seconds
    cycle = 0
    while True:
        cycle_spans = spans if (not traced or cycle == 2) else Spans(False)
        rng = input_rng(seed, "fit", 0 if traced else cycle)
        start = clock()
        with cycle_spans.span("data.synthesize"):
            data, _ = draw_dataset(rng)
        data_s = clock() - start
        timings, pipeline, predicted = build(data, cycle_spans)
        timings["setup_s"] = data_s + timings.pop("construct_s")
        acct.record("fit")
        walls.append(clock() - start)
        x_te, y_te = data[2], data[3]

        # The exported bundle, fed one image at a time, must label the
        # held-out set exactly as the fitted pipeline did.
        engine = InferenceEngine(ModelBundle.from_pipeline(
            pipeline, config=bundle_config()), cache_size=0)
        predict_ms: List[float] = []
        for i in range(len(x_te)):
            t0 = clock()
            label = engine.predict(x_te[i:i + 1])
            elapsed = 1000.0 * (clock() - t0)
            ok = labels_match(label, predicted[i:i + 1])
            acct.record("predict", None if ok else "bundle_label_mismatch")
            if ok:
                predict_ms.append(elapsed)

        feedback_ms = feedback_latencies(
            engine, x_te[:FEEDBACKS], y_te[:FEEDBACKS], acct, statuses,
            extract=pipeline.extractor.extract)
        timings.update(
            predict_p50_ms=percentile(predict_ms, 50),
            predict_p99_ms=percentile(predict_ms, 99),
            predict_rps=1000.0 * len(predict_ms) / sum(predict_ms),
            feedback_p50_ms=median(feedback_ms),
            predicts=len(predict_ms), feedbacks=len(feedback_ms))
        cycles.append(timings)
        cycle += 1
        if traced:
            if cycle == 3:
                break
        elif clock() >= deadline:
            break

    return {"cycles": cycles, "feedback_statuses": statuses,
            "walls": walls, "engine": engine, "pipeline": pipeline,
            "held_out": (x_te, y_te)}
