"""Shared pieces of the benchmark: inputs, spans, accounting, checks.

Everything here belongs to the benchmark, not to the program under
test.  The program (``src/repro``) receives only the inputs generated
here from the ``--seed`` argument.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# -- fixed program configuration (the bench_gate.py smoke model) --------
MODEL = "vgg16"
WIDTH = 0.125
LAYER = 21            # VGG16 trunk cut: 64 channels x 4 x 4 = F 1024
DIM = 400
REDUCED = 24
CLASSES = 5
CNN_EPOCHS = 1
HD_EPOCHS = 3
MODEL_SEED = 0        # weight init: program configuration, not input
WORLD_SEED = 0        # class prototypes of the synthetic image world
TRAIN = 150
TEST = 300
MAX_BATCH = 32        # the server's default max_batch_size

#: ``/feedback`` reply statuses that count as a correct answer.
FEEDBACK_OK = frozenset({"applied", "held_out", "new_class"})


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def input_rng(*key: Any) -> np.random.Generator:
    """Deterministic generator for one named input stream.

    ``key`` mixes the ``--seed`` argument with a stream name and any
    counters, so the same seed always yields the same inputs and two
    streams never share draws.
    """
    words = []
    for part in key:
        if isinstance(part, str):
            words.extend(part.encode("utf-8"))
        else:
            words.append(int(part))
    return np.random.default_rng(words)


def draw_images(world, rng: np.random.Generator, count: int,
                split: str) -> Tuple[np.ndarray, np.ndarray]:
    """Render ``count`` balanced, shuffled images of the fixed world.

    The world's class prototypes stay fixed (so task difficulty does
    not change with the seed); the seed picks which samples are drawn.
    Train and test sample indices never overlap.
    """
    labels = np.arange(count) % world.num_classes
    rng.shuffle(labels)
    offset = 0 if split == "train" else 10 ** 6
    index = rng.choice(10 ** 5, size=count, replace=False) + offset
    images = np.stack([world.render(int(label), int(i))
                       for label, i in zip(labels, index)])
    return images, labels.astype(np.int64)


def mixed_rows(base: np.ndarray, base_labels: np.ndarray,
               rng: np.random.Generator, count: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` new feature rows, each a convex mix of two real rows.

    The two rows differ and the mix weight favours the first, whose
    label the new row inherits.  Rows are rounded to 4 decimals, as a
    client would send them; distinct draws give distinct bytes, so they
    never hit a cache.
    """
    first = rng.integers(0, len(base), size=count)
    second = (first + rng.integers(1, len(base), size=count)) % len(base)
    weight = rng.uniform(0.6, 0.95, size=(count, 1))
    rows = weight * base[first] + (1.0 - weight) * base[second]
    return np.round(rows, 4), base_labels[first]


def predict_body(rows: np.ndarray) -> bytes:
    return json.dumps({"features": rows.tolist()}).encode("ascii")


# ----------------------------------------------------------------------
# Spans (traced run only)
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: name, start, end and parent span.

    Disabled (``enabled=False``) it records nothing and :meth:`wrap`
    patches nothing, so the untraced run executes the program's own
    call path unchanged.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.records: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Any] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.records)
            self.records.append((name, time.perf_counter(), 0.0, parent))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            with self._lock:
                name_, start, _, parent_ = self.records[index]
                self.records[index] = (name_, start, time.perf_counter(),
                                       parent_)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += value

    def wrap(self, obj: Any, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``obj.attr`` until
        :meth:`unwrap`; ``on_result(result)`` may count outcomes."""
        if not self.enabled:
            return
        original = getattr(obj, attr)
        had_own = attr in vars(obj)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(obj, attr, traced)
        self._undo.append((obj, attr, had_own, original))

    def unwrap(self) -> None:
        while self._undo:
            obj, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.records
                   if n == name)

    def totals_under(self, parent: str) -> Dict[str, float]:
        """Seconds per span name, over spans whose parent is ``parent``."""
        out: Dict[str, float] = {}
        for name, start, end, up in self.records:
            if up >= 0 and self.records[up][0] == parent:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def durations_ms(self, name: str) -> List[float]:
        return [1000.0 * (end - start) for n, start, end, _ in self.records
                if n == name]


# ----------------------------------------------------------------------
# Accounting and statistics
# ----------------------------------------------------------------------
class Accounting:
    """Operations sent, succeeded and failed per phase, with failures
    broken down by HTTP status or exception name."""

    def __init__(self):
        self.phases: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def record(self, phase: str, reason: Optional[str] = None) -> None:
        with self._lock:
            entry = self.phases.setdefault(
                phase, {"sent": 0, "succeeded": 0, "failed": 0,
                        "failures": Counter()})
            entry["sent"] += 1
            if reason is None:
                entry["succeeded"] += 1
            else:
                entry["failed"] += 1
                entry["failures"][reason] += 1

    def fail(self, phase: str, reason: str) -> None:
        """Turn one earlier success into a failure (a check that ran
        after the reply arrived rejected it)."""
        with self._lock:
            entry = self.phases[phase]
            entry["succeeded"] -= 1
            entry["failed"] += 1
            entry["failures"][reason] += 1

    def totals(self) -> Tuple[int, int]:
        sent = sum(p["sent"] for p in self.phases.values())
        failed = sum(p["failed"] for p in self.phases.values())
        return sent, failed

    def report(self) -> Dict[str, Any]:
        return {name: {**{k: v for k, v in entry.items()
                          if k != "failures"},
                       "failures": dict(entry["failures"])}
                for name, entry in self.phases.items()}


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")


def median(values) -> float:
    return percentile(values, 50)


def labels_match(got, want) -> bool:
    """Output check: served labels equal the reference, element-wise."""
    got = np.asarray(got, dtype=np.int64).ravel()
    want = np.asarray(want, dtype=np.int64).ravel()
    return got.shape == want.shape and bool(np.array_equal(got, want))


def feedback_failure(status: int, body: Dict[str, Any]) -> Optional[str]:
    """Output check for one ``/feedback`` reply; ``None`` when correct."""
    if status != 200:
        return f"http_{status}"
    if body.get("status") not in FEEDBACK_OK:
        return f"feedback_{body.get('status')}"
    return None
