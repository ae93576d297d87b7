"""The StageGraph: one executable representation for train *and* serve.

A :class:`StageGraph` is an ordered list of named
:class:`~repro.pipeline.stages.Stage` objects.  It is the single
executable description of an NSHD-family model:

* the ``repro.learn`` pipelines build **live** graphs whose stages share
  weights with the training objects (ManifoldLearner, MASS trainer), so
  ``graph.run`` always reflects the current training state;
* checkpoints and serve bundles persist ``graph.topology()`` (a list of
  JSON stage specs) next to ``graph.state_arrays()`` (the flat weight
  archive with the historical key names), and ``StageGraph.from_topology``
  rebuilds a **frozen** graph from the two;
* the serving engine is a thin executor around a frozen graph — it calls
  ``run`` (with its per-row :class:`StageCache`) and adds batching,
  never math.

Telemetry: the graph runner is the single place that emits ``stage.*``
spans.  Training loops run stages with ``instrument=True`` (preserving
the historical ``stage.extract`` / ``stage.manifold`` / ``stage.encode``
/ ``stage.similarity`` span stream the run ledger and regression gate
key on); inference/eval paths pass ``instrument=False``, matching the
pre-refactor behaviour where predict did not emit per-stage spans.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..telemetry import request_span, span
from ..telemetry.reqtrace import HUB as _HUB
from .cache import StageCache, canonical_json, slice_digest
from .stages import Stage, StageError, stage_from_spec

__all__ = ["StageGraph"]

#: Version of the serialized topology layout (bump on breaking change).
TOPOLOGY_VERSION = 1


class StageGraph:
    """An ordered, named, serializable composition of stages."""

    def __init__(self, stages: Sequence[Stage], name: str = "graph"):
        stages = list(stages)
        if not stages:
            raise StageError("a StageGraph needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise StageError(f"duplicate stage names: {dupes}")
        self.name = str(name)
        self.stages: List[Stage] = stages
        self._index: Dict[str, int] = {s.name: i
                                       for i, s in enumerate(stages)}

    # -- introspection -------------------------------------------------
    @property
    def names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def stage(self, name: str) -> Stage:
        try:
            return self.stages[self._index[name]]
        except KeyError:
            raise StageError(
                f"graph {self.name!r} has no stage {name!r}; "
                f"stages: {self.names}") from None

    def describe(self) -> str:
        """One-line ``a -> b -> c`` summary (used by engine/CLI)."""
        return " -> ".join(self.names)

    def __repr__(self) -> str:
        return f"StageGraph({self.describe()})"

    # -- execution -----------------------------------------------------
    def _slice(self, start: Optional[str], stop: Optional[str]
               ) -> List[Stage]:
        lo = 0 if start is None else self._index_of(start)
        hi = len(self.stages) if stop is None else self._index_of(stop)
        if hi < lo:
            raise StageError(
                f"stage slice start={start!r} comes after stop={stop!r}")
        return self.stages[lo:hi]

    def _index_of(self, name: str) -> int:
        if name not in self._index:
            raise StageError(
                f"graph {self.name!r} has no stage {name!r}; "
                f"stages: {self.names}")
        return self._index[name]

    def slice_digest(self, start: Optional[str] = None,
                     stop: Optional[str] = None) -> bytes:
        """Cache digest of the cacheable stages a ``run(start, stop)``
        memoizes (the slice up to its first non-cacheable stage).

        Callers holding a frozen graph compute this once and pass it to
        :meth:`run` as ``digest``; live graphs must not, since their
        weights change under training.
        """
        return slice_digest(self._cached_prefix(self._slice(start, stop)))

    @staticmethod
    def _cached_prefix(stages: List[Stage]) -> List[Stage]:
        for i, stage in enumerate(stages):
            if not getattr(stage, "cacheable", True):
                return stages[:i]
        return stages

    def call(self, name: str, batch: np.ndarray,
             ctx: Optional[dict] = None,
             cache: Optional[StageCache] = None) -> np.ndarray:
        """Run a single stage *with* its telemetry span.

        This is what training loops use for per-batch stage execution —
        the span stream is identical to the hand-instrumented
        pre-refactor loops.  With a :class:`StageCache` the stage's
        output is memoized per row (see :meth:`run`); the span covers
        the whole call, hits included — that is the truthful accounting
        for skipped work.
        """
        stage = self.stage(name)
        with span(stage.span_name,
                  nbytes=int(np.asarray(batch).nbytes)):
            if cache is not None and getattr(stage, "cacheable", True):
                return cache.run(slice_digest([stage]), batch,
                                 lambda rows: stage(rows, ctx))
            return stage(batch, ctx)

    def run(self, batch: np.ndarray, start: Optional[str] = None,
            stop: Optional[str] = None, ctx: Optional[dict] = None,
            instrument: bool = False,
            cache: Optional[StageCache] = None,
            digest: Optional[bytes] = None) -> np.ndarray:
        """Execute stages ``[start, stop)`` (``stop`` exclusive) in order.

        ``instrument=True`` wraps each stage in its ``stage.*`` telemetry
        span; the default ``False`` matches the historical inference
        paths, which did not emit per-stage spans (keeping ledger stage
        accounting comparable across the refactor).

        Independently of ``instrument``, when a *request trace* is
        active on the calling thread each stage is recorded as a
        hub-only span — per-request stage latency shows up in the flight
        recorder / trace files without touching the aggregate ledger's
        stage accounting.

        With a :class:`StageCache` the slice's cacheable stages are
        looked up once per row under ``sha1(slice digest ‖ row)``; the
        misses run as one sub-batch (spans and all) and hits skip the
        work entirely.  ``digest`` is a precomputed
        :meth:`slice_digest` for frozen graphs; without it the slice is
        re-digested on every call, so an updated weight can never serve
        a stale entry.
        """
        stages = self._slice(start, stop)
        if cache is None:
            return self._execute(stages, batch, ctx, instrument)
        cached = self._cached_prefix(stages)
        if cached:
            if digest is None:
                digest = slice_digest(cached)
            batch = cache.run(digest, batch, lambda rows: self._execute(
                cached, rows, ctx, instrument))
        return self._execute(stages[len(cached):], batch, ctx, instrument)

    @staticmethod
    def _execute(stages: List[Stage], out: np.ndarray,
                 ctx: Optional[dict], instrument: bool) -> np.ndarray:
        traced = _HUB.enabled and _HUB.current() is not None
        for stage in stages:
            if instrument:
                with span(stage.span_name,
                          nbytes=int(np.asarray(out).nbytes)):
                    if traced:
                        with request_span(stage.span_name):
                            out = stage(out, ctx)
                    else:
                        out = stage(out, ctx)
            elif traced:
                with request_span(stage.span_name):
                    out = stage(out, ctx)
            else:
                out = stage(out, ctx)
        return out

    # -- serialization -------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        """JSON-serializable graph description (specs only, no weights)."""
        return {"version": TOPOLOGY_VERSION, "name": self.name,
                "stages": [stage.spec() for stage in self.stages]}

    def topology_json(self) -> str:
        """Canonical topology emit — byte-stable across processes.

        Sorted keys, compact separators, numpy scalars coerced to
        Python, ``-0.0`` normalized, NaN/Inf rejected: two processes
        holding the same graph always emit identical bytes, so
        :meth:`topology_digest` is a stable cross-process cache /
        fingerprint key.
        """
        return canonical_json(self.topology())

    def topology_digest(self) -> str:
        """sha1 hex digest of :meth:`topology_json` (stable identity)."""
        return hashlib.sha1(
            self.topology_json().encode("utf-8")).hexdigest()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Merged per-stage weight arrays (historical flat key names)."""
        merged: Dict[str, np.ndarray] = {}
        for stage in self.stages:
            for key, value in stage.state_arrays().items():
                if key in merged:
                    raise StageError(
                        f"stage {stage.name!r} re-defines array {key!r}")
                merged[key] = value
        return merged

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for stage in self.stages:
            stage.load_arrays(arrays)

    @classmethod
    def from_topology(cls, topology: Dict[str, Any],
                      arrays: Dict[str, np.ndarray]) -> "StageGraph":
        """Rebuild a frozen graph from a persisted topology + archive."""
        if isinstance(topology, str):
            topology = json.loads(topology)
        version = int(topology.get("version", 1))
        if version > TOPOLOGY_VERSION:
            raise StageError(
                f"graph topology version {version} is newer than this "
                f"build supports ({TOPOLOGY_VERSION})")
        specs = topology.get("stages") or []
        if not specs:
            raise StageError("graph topology has no stages")
        stages = [stage_from_spec(spec, arrays) for spec in specs]
        return cls(stages, name=topology.get("name", "graph"))
