"""Per-row, digest-keyed output caching for :class:`StageGraph` runs.

One cache serves every repeated-input workload: the serving engine's
request path (hot rows skip the projection GEMM) and the re-fit /
A/B-eval sweeps (``bench_gate.py``, ``check_quality.py``) that push the
same batches through the same frozen upstream stages.  A
:class:`StageCache` memoizes the output of a run's stage slice *per
row* under::

    key = sha1(slice digest ‖ row dtype/shape ‖ row bytes)
    slice digest = sha1(stage_digest(s) for s in the slice)

where each stage digest covers the stage's canonical spec JSON *and*
every one of its state arrays.  A changed weight, hyperparameter or
input byte therefore changes the key — there is no way to read a stale
entry.  A run looks every row up once, pushes all misses through the
slice as one sub-batch, and returns a freshly assembled array: entries
are stored as private copies and never handed out by reference, so a
caller may mutate what it gets back.  The cache is a bounded (entries,
plus :data:`MAX_BYTES`) thread-safe LRU.

This module also owns :func:`canonical_json` — the deterministic
(sorted keys, compact separators, normalized scalars) JSON encoder used
for topology digests and stage digests — so cache keys are stable
across processes and platforms.

Metrics: ``stagecache.hits`` / ``stagecache.misses`` /
``stagecache.evictions`` (one count per row; the serving engine's cache
publishes under ``serve.cache.*`` instead).
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from ..telemetry import get_registry

__all__ = ["StageCache", "canonical_json", "array_digest", "stage_digest",
           "slice_digest", "MAX_BYTES"]

#: Byte budget of one cache; least-recently-used rows are evicted past
#: it (a single row larger than the budget is never stored).
MAX_BYTES = 256 << 20


def _canonical(obj: Any) -> Any:
    """Normalize scalars so equal values always serialize identically."""
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value) or math.isinf(value):
            raise ValueError("canonical JSON cannot encode NaN/Inf")
        return value + 0.0  # collapses -0.0 to 0.0
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} values for JSON")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON emit: sorted keys, compact separators,
    numpy scalars coerced, ``-0.0`` normalized, NaN/Inf rejected."""
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def array_digest(array: np.ndarray) -> bytes:
    """sha1 over an array's dtype, shape, and raw bytes."""
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha1()
    digest.update(str(arr.dtype).encode("utf-8"))
    digest.update(repr(arr.shape).encode("utf-8"))
    digest.update(arr.tobytes())
    return digest.digest()


def stage_digest(stage) -> bytes:
    """sha1 over a stage's canonical spec plus all its state arrays."""
    digest = hashlib.sha1(b"stage-digest-v1")
    digest.update(canonical_json(stage.spec()).encode("utf-8"))
    arrays = stage.state_arrays()
    for key in sorted(arrays):
        digest.update(key.encode("utf-8"))
        digest.update(array_digest(arrays[key]))
    return digest.digest()


def slice_digest(stages: Sequence) -> bytes:
    """sha1 over the stage digests of a run's stage slice, in order."""
    digest = hashlib.sha1(b"stage-slice-v1")
    for stage in stages:
        digest.update(stage_digest(stage))
    return digest.digest()


class StageCache:
    """Bounded, thread-safe LRU of per-row stage-slice outputs.

    Pass an instance to :meth:`StageGraph.run` / :meth:`StageGraph.call`
    (or set ``pipeline.set_stage_cache``); the run's cacheable stages
    (everything except the cheap classify stages) are skipped for every
    row that hits.
    """

    hits_metric = "stagecache.hits"
    misses_metric = "stagecache.misses"
    evictions_metric = "stagecache.evictions"

    def __init__(self, max_entries: int = 64):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def run(self, digest: bytes, batch: np.ndarray,
            compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``compute(batch)`` with per-row memoization under ``digest``.

        ``digest`` identifies the computation (see :func:`slice_digest`);
        rows of ``batch`` must be independent under ``compute``.  Misses
        run through ``compute`` as one sub-batch; the result never
        aliases a cache entry, so the caller may mutate it.
        """
        batch = np.ascontiguousarray(batch)
        if not len(batch):
            return compute(batch)
        prefix = hashlib.sha1(digest)
        prefix.update(f"{batch.dtype.str}{batch.shape[1:]}".encode("ascii"))
        keys: List[bytes] = []
        for row in batch:
            key = prefix.copy()
            key.update(row)
            keys.append(key.digest())
        found: List[tuple] = []
        miss_idx: List[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                value = self._data.get(key)
                if value is None:
                    miss_idx.append(i)
                else:
                    self._data.move_to_end(key)
                    found.append((i, value))
            self.hits += len(found)
            self.misses += len(miss_idx)
        registry = get_registry()
        registry.inc(self.hits_metric, len(found))
        registry.inc(self.misses_metric, len(miss_idx))

        if not miss_idx:
            first = found[0][1]
            out = np.empty((len(batch),) + first.shape, dtype=first.dtype)
        else:
            fresh = np.asarray(compute(batch if not found
                                       else batch[miss_idx]))
            self._store([keys[i] for i in miss_idx], fresh)
            if not found:
                return fresh
            out = np.empty((len(batch),) + fresh.shape[1:],
                           dtype=fresh.dtype)
            out[miss_idx] = fresh
        for i, value in found:
            out[i] = value
        return out

    def _store(self, keys: List[bytes], rows: np.ndarray) -> None:
        evicted = 0
        with self._lock:
            for key, row in zip(keys, rows):
                value = np.array(row)  # private copy, never aliased
                if value.nbytes > MAX_BYTES:
                    continue
                old = self._data.pop(key, None)
                if old is not None:
                    self._bytes -= int(old.nbytes)
                self._data[key] = value
                self._bytes += int(value.nbytes)
                while len(self._data) > self.max_entries \
                        or self._bytes > MAX_BYTES:
                    _, dropped = self._data.popitem(last=False)
                    self._bytes -= int(dropped.nbytes)
                    evicted += 1
            self.evictions += evicted
        if evicted:
            get_registry().inc(self.evictions_metric, evicted)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def info(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {"entries": len(self._data),
                    "bytes": int(self._bytes),
                    "hits": int(self.hits),
                    "misses": int(self.misses),
                    "evictions": int(self.evictions),
                    "hit_rate": (self.hits / total) if total else 0.0,
                    "max_entries": self.max_entries}

    def __repr__(self) -> str:
        return (f"StageCache(entries={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")
