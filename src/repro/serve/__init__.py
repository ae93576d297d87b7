"""Inference-serving subsystem: bundles, engine, micro-batching, HTTP.

The deployment story around the paper's HD pipelines (Sec. VI-B trains
once, serves many):

* :mod:`~repro.serve.bundle` — :class:`ModelBundle`, the frozen,
  versioned inference artifact (extractor weights, manifold FC,
  projection, class hypervectors, scaler stats + git/config provenance)
  on the atomic CRC-manifest checkpoint format.
* :mod:`~repro.serve.engine` — :class:`InferenceEngine`, the fused
  forward path: bit-packed XOR-popcount classification for binarized
  bundles (bit-exact with the float pipeline), cached class norms, and
  a per-row :class:`~repro.pipeline.StageCache` over encoded
  hypervectors.
* :mod:`~repro.serve.batching` — :class:`MicroBatcher`, dynamic
  micro-batching with a worker pool, per-request deadlines, and
  watermark overload shedding (:mod:`repro.reliability.degrade`).
* :mod:`~repro.serve.http` — the one stdlib HTTP stack (route table,
  handler, send/read path, lifecycle) both front ends are built on.
* :mod:`~repro.serve.server` — :class:`ModelServer`, stdlib HTTP
  endpoints ``/predict``, ``/healthz``, ``/metrics`` (Prometheus).
* :mod:`~repro.serve.fleet` — :class:`Supervisor`, N supervised worker
  processes with heartbeat probes, exponential-backoff restart, and
  crash-loop quarantine.
* :mod:`~repro.serve.router` — :class:`Router`, the consistent-hash,
  health-gated, circuit-broken fleet front-end.

Quickstart::

    from repro.serve import InferenceEngine, ModelBundle, ModelServer

    ModelBundle.from_pipeline(nshd, config=cfg, binarize=True).save(path)
    engine = InferenceEngine.from_path(path)       # selfchecks packed path
    with ModelServer(engine, port=0) as server:
        print(server.url)                          # POST /predict
"""

from .batching import MicroBatcher
from .bundle import BUNDLE_SECTION, BUNDLE_VERSION, BundleError, ModelBundle
from .engine import EngineSelfCheckError, InferenceEngine
from .fleet import FleetError, StaticFleet, Supervisor, Worker, free_port
from .router import HashRing, Router
from .server import ModelServer, ReloadError, RequestError

__all__ = [
    "BUNDLE_VERSION", "BUNDLE_SECTION", "BundleError", "ModelBundle",
    "InferenceEngine", "EngineSelfCheckError",
    "MicroBatcher",
    "ModelServer", "ReloadError", "RequestError",
    "Supervisor", "StaticFleet", "Worker", "FleetError", "free_port",
    "Router", "HashRing",
]
