"""The serving inference engine: a thin executor over a frozen StageGraph.

:class:`InferenceEngine` serves a :class:`repro.serve.bundle.ModelBundle`
by executing the bundle's :class:`repro.pipeline.StageGraph`
(``bundle.build_graph()``) — the *same* stage implementations the
training pipelines run, so predictions are bit-exact with
``pipeline.predict`` by construction rather than by replication.  The
engine itself contains **no stage math**: no scaling, no manifold
reduction, no encoding, no similarity expressions — it adds exactly the
serving concerns:

* a per-row :class:`~repro.pipeline.StageCache` under the encode slice,
  keyed by the frozen slice's digest and each sample's raw feature
  bytes, so repeated queries skip the projection GEMM entirely
  (``serve.cache.hits`` / ``serve.cache.misses``);
* the executor map the bundle's compile plan (or the caller) asks for —
  ``"auto"`` when the plan has none, which puts classify on the
  **bit-packed XOR-popcount** executor when the class matrix is bipolar
  (``binarize=True`` export) and the encoder quantizes; ``{}`` forces
  the float cosine path;
* a load-time :meth:`selfcheck` proving the packed executor agrees with
  the float reference kernels on random probes;
* request/sample counters and ``serve.*`` spans for the telemetry layer.

Pre-refactor bundles (no ``info["graph"]`` topology) are served through
the same code path: :meth:`ModelBundle.build_graph` synthesizes the
equivalent topology from the legacy provenance fields.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..hd.similarity import classify
from ..pipeline import (ClassifyStage, CompileError, ExtractStage,
                        FlattenStage, StageCache, compile_graph)
from ..telemetry import get_registry, span
from ..telemetry.quality import DriftMonitor, QualityBaseline
from ..utils.rng import fresh_rng
from .bundle import BundleError, ModelBundle

__all__ = ["InferenceEngine", "EngineSelfCheckError"]


class EngineSelfCheckError(RuntimeError):
    """The packed fast path disagreed with the reference kernel."""


class InferenceEngine:
    """Cache-accelerated StageGraph executor over a frozen model bundle.

    Parameters
    ----------
    bundle:
        A validated :class:`ModelBundle` (``validate()`` is called here).
    cache_size:
        Capacity (rows) of the :class:`StageCache` holding encoded
        hypervectors; 0 disables.
    build_extractor:
        Keep the truncated-CNN ``extract`` stage in the graph so
        :meth:`predict` accepts raw NCHW images.  Disable for servers
        that only ever receive precomputed features.
    selfcheck:
        Run :meth:`selfcheck` at construction when the packed path is
        active (cheap: a handful of random probes).
    quality:
        Force (True) or forbid (False) the streaming
        :class:`~repro.telemetry.quality.DriftMonitor`; default ``None``
        auto-enables it when the bundle manifest carries a
        ``quality_baseline`` section (``from_pipeline(...,
        baseline_features=...)`` export).  Forcing it on a bundle
        without a baseline raises :class:`BundleError`.
    quality_window:
        Rolling-window size (rows) for the drift monitor.
    passes:
        Compile passes to apply to the frozen graph: ``"all"``,
        ``"none"``, or a list of registered pass names.  Default
        ``None`` uses the bundle's persisted plan
        (``info["compile"]``); pre-compile bundles default to none.
    executors:
        Executor assignment — the only packed-path selector: ``"auto"``
        (packed classify where it applies), a ``{stage name → executor
        name}`` map (``{}`` forces the float path; ``{"classify":
        "packed"}`` on a bundle that cannot bit-pack raises
        :class:`BundleError`), or ``None`` for the bundle's plan,
        ``"auto"`` when the plan has none.
    """

    def __init__(self, bundle: ModelBundle,
                 cache_size: int = 256,
                 build_extractor: bool = True,
                 selfcheck: bool = True,
                 quality: Optional[bool] = None,
                 quality_window: int = 512,
                 passes=None,
                 executors=None):
        bundle.validate()
        self.bundle = bundle
        info = bundle.info
        self.dim = int(info["dim"])
        self.num_classes = int(info["num_classes"])
        self.pipeline_name = str(info["pipeline"])

        # -- the executable: one frozen stage graph --------------------
        base = bundle.build_graph(build_extractor=build_extractor)
        plan = bundle.compile_plan()
        if passes is None:
            passes = list(plan.passes)
        if executors is None:
            executors = ("auto" if plan.executors is None
                         else plan.executors)
        classify_stage = base.stages[-1]
        if not isinstance(classify_stage, ClassifyStage):
            raise BundleError(
                f"bundle graph must end in a classify stage, got "
                f"{type(classify_stage).__name__}")
        encode_stage = next(
            (stage for stage in base.stages
             if getattr(stage, "encoder_type", None) is not None), None)
        if encode_stage is None:
            raise BundleError("bundle graph has no encode stage")
        self._encoder_type = encode_stage.encoder_type

        try:
            result = compile_graph(base, passes=passes,
                                   executors=executors)
        except CompileError as exc:
            raise BundleError(f"bundle graph failed to compile: "
                              f"{exc}") from exc
        self.graph = result.graph
        self.compile_passes = list(result.passes_applied)
        self.executor_plan = dict(result.executor_plan)

        # The float classify stage (for similarities / drift monitor);
        # the graph's last stage is whatever executor compile() bound.
        classify_exec = self.graph.stages[-1]
        self._classify = getattr(classify_exec, "inner", classify_exec)

        # Feature interface: the first stage after extract/flatten (the
        # fuse passes may have renamed or removed interior stages).
        first = self.graph.stages[0]
        first_inner = getattr(first, "inner", first)
        self._has_front = isinstance(first_inner,
                                     (ExtractStage, FlattenStage))
        names = self.graph.names
        self._feature_entry = names[1] if self._has_front else names[0]
        #: Columns of one raw-feature row, read off the frozen
        #: feature-entry stage; the server rejects other widths with a
        #: 400 before they reach the batcher (``None``: stage can't tell).
        self.feature_width: Optional[int] = getattr(
            self.graph.stages[1 if self._has_front else 0],
            "in_features", None)
        self._classify_name = names[-1]
        self.extractor = (first_inner.extractor
                          if isinstance(first_inner, ExtractStage)
                          else None)

        self._cache: Optional[StageCache] = None
        self._encode_digest: Optional[bytes] = None
        if cache_size > 0:
            self._cache = StageCache(max_entries=cache_size)
            self._cache.hits_metric = "serve.cache.hits"
            self._cache.misses_metric = "serve.cache.misses"
            self._cache.evictions_metric = "serve.cache.evictions"
            # The graph is frozen: digest the encode slice once, not
            # per request.
            self._encode_digest = self.graph.slice_digest(
                self._feature_entry, self._classify_name)

        # -- streaming drift monitor (training baseline in manifest) ---
        baseline_dict = info.get("quality_baseline")
        if quality is None:
            quality = baseline_dict is not None
        if quality and baseline_dict is None:
            raise BundleError(
                "quality=True but the bundle carries no quality_baseline "
                "section — re-export it with "
                "ModelBundle.from_pipeline(..., baseline_features=...)")
        self.quality: Optional[DriftMonitor] = None
        if quality:
            self.quality = DriftMonitor(
                QualityBaseline.from_dict(baseline_dict),
                window=quality_window)

        if selfcheck and self.packed_path:
            self.selfcheck()

    # ------------------------------------------------------------------
    @classmethod
    def from_path(cls, path: str, **kwargs: Any) -> "InferenceEngine":
        """Verify + load a bundle archive and build an engine on it."""
        return cls(ModelBundle.load(path, verify=True), **kwargs)

    @property
    def class_matrix(self) -> np.ndarray:
        """The frozen class-hypervector matrix this engine serves.

        Public read access for the online-learning layer, which seeds
        its shadow copy from (and evaluates the live model against)
        exactly the matrix the classify stage answers with.  Callers
        must treat it as immutable — the frozen stage caches the class
        norms at construction.
        """
        return self._classify.class_matrix

    @property
    def packed_path(self) -> bool:
        """Whether classify runs on the packed XOR-popcount executor."""
        return self.executor_plan.get(self._classify_name) == "packed"

    # ------------------------------------------------------------------
    def encode_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Query hypervectors for ``(n, F)`` raw features (row-cached).

        Executes the graph's ``scale → (reduce) → encode`` slice through
        the engine's :class:`StageCache`; the result is always a fresh
        array the caller may mutate.
        """
        raw_features = np.atleast_2d(
            np.asarray(raw_features, dtype=np.float64))
        with span("serve.encode", nbytes=int(raw_features.nbytes)):
            return self.graph.run(raw_features, start=self._feature_entry,
                                  stop=self._classify_name,
                                  cache=self._cache,
                                  digest=self._encode_digest)

    def similarities(self, encoded: np.ndarray) -> np.ndarray:
        """Cosine similarities from the frozen classify stage.

        Bit-exact with :func:`repro.learn.mass.normalized_similarity`
        (same canonical expression in
        :func:`repro.pipeline.cosine_similarities`); the clamped class
        norms are cached by the frozen stage — they are constant.
        """
        return self._classify.similarities(encoded)

    # ------------------------------------------------------------------
    def predict_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Class predictions for ``(n, F)`` raw extractor features."""
        registry = get_registry()
        raw_features = np.atleast_2d(
            np.asarray(raw_features, dtype=np.float64))
        registry.inc("serve.requests")
        registry.inc("serve.samples", len(raw_features))
        with span("serve.predict", nbytes=int(raw_features.nbytes)):
            encoded = self.encode_features(raw_features)
            labels = np.asarray(self.graph.run(
                encoded, start=self._classify_name))
            if self.quality is not None:
                self._observe_quality(raw_features, labels, encoded)
            return labels

    def _observe_quality(self, raw_features: np.ndarray,
                         labels: np.ndarray,
                         encoded: np.ndarray) -> None:
        """Feed the drift monitor; a monitor bug must never fail serving."""
        try:
            with span("serve.quality",
                      nbytes=int(raw_features.nbytes)):
                sims = self._classify.similarities(encoded)
                self.quality.observe(raw_features, labels=labels,
                                     similarities=sims, encoded=encoded)
        except Exception:
            get_registry().inc("quality.monitor_errors")

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Class predictions for raw NCHW images (end-to-end)."""
        images = np.asarray(images)
        if not self._has_front:
            raise BundleError(
                "engine was built with build_extractor=False; "
                "use predict_features with precomputed features")
        raw = self.graph.run(images, stop=self._feature_entry)
        return self.predict_features(raw)

    def accuracy_features(self, raw_features: np.ndarray,
                          labels: np.ndarray) -> float:
        return float((self.predict_features(raw_features)
                      == np.asarray(labels)).mean())

    # ------------------------------------------------------------------
    def selfcheck(self, probes: int = 32, seed: int = 0) -> bool:
        """Prove the packed path agrees with the reference kernels.

        Draws random bipolar probe hypervectors and checks (1) the
        XOR-popcount classify stage returns the same labels as the float
        dot-product :func:`repro.hd.similarity.classify`, and (2) the
        frozen cosine classify stage agrees as well (for bipolar class
        matrices all three rank identically).  Raises
        :class:`EngineSelfCheckError` on any disagreement.
        """
        if not self.packed_path:
            return True
        rng = fresh_rng((seed, "serve-selfcheck"))
        hvs = np.where(rng.random((probes, self.dim)) < 0.5, -1.0, 1.0)
        got = self.graph.stages[-1](hvs)
        want_dot = classify(self.class_matrix, hvs, metric="dot")
        want_cos = np.asarray(self._classify(hvs))
        if not np.array_equal(got, want_dot):
            raise EngineSelfCheckError(
                f"packed XOR-popcount disagrees with float dot on "
                f"{int((got != want_dot).sum())}/{probes} probes")
        if not np.array_equal(got, want_cos):
            raise EngineSelfCheckError(
                f"packed XOR-popcount disagrees with the cosine path on "
                f"{int((got != want_cos).sum())}/{probes} probes")
        return True

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, Any]:
        if self._cache is None:
            return {"entries": 0, "hits": 0, "misses": 0, "max_entries": 0}
        return self._cache.info()

    def describe(self) -> Dict[str, Any]:
        """Engine facts for /healthz and logs."""
        return {
            "pipeline": self.pipeline_name,
            "dim": self.dim,
            "num_classes": self.num_classes,
            "packed": self.packed_path,
            "encoder": self._encoder_type,
            "graph": self.graph.describe(),
            "has_extractor": self.extractor is not None,
            "has_manifold": "reduce" in self.graph,
            "cache": self.cache_info(),
            "compile": {"passes": list(self.compile_passes),
                        "executors": dict(self.executor_plan)},
            "quality": (None if self.quality is None
                        else self.quality.describe()),
            "config_fingerprint": self.bundle.info.get(
                "config_fingerprint"),
        }

    def __repr__(self) -> str:
        return (f"InferenceEngine({self.pipeline_name}, dim={self.dim}, "
                f"classes={self.num_classes}, packed={self.packed_path})")
