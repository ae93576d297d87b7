"""The serving workloads: ``serve-single`` and ``serve-bulk-router``.

Both serve a bundle built by the shared fit cycle from a fixed training
set (the deployed model does not depend on ``--seed``; the traffic
does).  Load comes from one process: two client threads, each holding
one keep-alive connection, in a closed loop.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data import normalize_images
from repro.serve import InferenceEngine, ModelBundle, free_port
from repro.telemetry.exporters import parse_prometheus

import fit_workload
from common import (MAX_BATCH, SRC, Accounting, Spans, draw_images,
                    feedback_failure, input_rng, labels_match, mixed_rows,
                    predict_body)

CLIENTS = 2
HOT_ROWS = 8          # serve-single: size of the repeated hot set
HOT_SHARE = 0.5       # serve-single: share of rows drawn from it
FEEDBACK_EVERY = 10   # serve-single: every 10th operation is /feedback
FEEDBACK_PHASE_S = 3.0  # serve-bulk-router: /feedback straight to workers
BASE_ROWS = 64        # real feature rows the traffic is mixed from
SPAWNS = 3            # set-up is measured this many times per run
WARM_BEFORE = 1       # warm rebuilds of the served model before the window
WARM_AFTER = 2        # and after it
WARMUP_S = 1.0

ONLINE_CONFIG = "[online]\nauto_promote = false\n"


class Service:
    """One ``python -m repro.serve`` process group: a worker, or the
    router with its supervised workers (``fleet`` > 0)."""

    def __init__(self, bundle: str, run_dir: str, fleet: int, config: str):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        cmd = [sys.executable, "-m", "repro.serve", bundle,
               "--port", str(self.port), "--config", config]
        if fleet:
            cmd += ["--fleet", str(fleet)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self._log = open(os.path.join(run_dir, f"serve-{self.port}.log"),
                         "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True)

    def wait_healthy(self, timeout_s: float = 90.0) -> float:
        """Seconds from spawn to the first healthy ``/healthz``."""
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.process.returncode}")
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=1.0) as response:
                    if response.status == 200:
                        return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server not healthy after {timeout_s:.0f}s")

    def stop(self) -> None:
        """SIGTERM the group (workers drain), SIGKILL stragglers, and
        wait until every process of the group has ended."""
        pgid = self.process.pid
        _signal_group(pgid, signal.SIGTERM)
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        _signal_group(pgid, signal.SIGKILL)
        self.process.wait()
        # Workers are the router's children, not ours: wait for the
        # group to empty instead.
        deadline = time.perf_counter() + 10
        while _signal_group(pgid, 0) and time.perf_counter() < deadline:
            time.sleep(0.05)
        self._log.close()


def _signal_group(pgid: int, signum: int) -> bool:
    """Signal a process group; False when no process of it is left."""
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        return False
    return True


def get_json(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read())


def scrape(urls: List[str]) -> Dict[str, Dict[str, Any]]:
    """``/metrics`` and ``/healthz?deep=1`` of each process."""
    out = {}
    for url in urls:
        with urllib.request.urlopen(url + "/metrics",
                                    timeout=10.0) as response:
            metrics = parse_prometheus(response.read().decode("utf-8"))
        out[url] = {"metrics": metrics,
                    "health": get_json(url + "/healthz?deep=1")}
    return out


def sample(snapshot: Dict[str, Any], metric: str, key: str = "") -> float:
    """Sum of one sample over every scraped process (0 when absent)."""
    total = 0.0
    for proc in snapshot.values():
        entry = proc["metrics"].get("repro_" + metric.replace(".", "_"))
        if entry is not None:
            total += float(entry["samples"].get(key, 0.0))
    return total


def delta(before, after, metric: str, key: str = "") -> float:
    return sample(after, metric, key) - sample(before, metric, key)


def delta_mean(before, after, metric: str) -> float:
    count = delta(before, after, metric, "count")
    return delta(before, after, metric, "sum") / count if count else 0.0


def worker_p50(snapshot, urls: List[str], metric: str) -> float:
    values = [float(snapshot[url]["metrics"]
                    ["repro_" + metric.replace(".", "_")]["samples"]
                    ['quantile="0.5"']) for url in urls]
    return float(np.mean(values))


class Traffic:
    """Deterministic request stream: operation ``k`` of client ``c`` is
    a pure function of ``(seed, workload, c, k)``."""

    def __init__(self, workload: str, seed: int, base: np.ndarray,
                 base_labels: np.ndarray):
        self.workload = workload
        self.seed = seed
        self.base = base
        self.base_labels = base_labels

    @property
    def single(self) -> bool:
        return self.workload == "serve-single"

    def is_feedback(self, k: int) -> bool:
        return self.single and k % FEEDBACK_EVERY == FEEDBACK_EVERY - 1

    def rows(self, c: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = input_rng(self.seed, self.workload, c, k)
        if not self.single:
            return mixed_rows(self.base, self.base_labels, rng, MAX_BATCH)
        if rng.random() < HOT_SHARE:
            i = int(rng.integers(HOT_ROWS))
            return self.base[i:i + 1], self.base_labels[i:i + 1]
        return mixed_rows(self.base, self.base_labels, rng, 1)


class _Client:
    """One closed-loop client thread on one keep-alive connection."""

    def __init__(self, cid: int, port: int, traffic: Traffic,
                 acct: Accounting):
        self.cid = cid
        self.port = port
        self.traffic = traffic
        self.acct = acct
        self.spans = Spans(False)
        self.conn = self._connect()
        self.records: List[Dict[str, Any]] = []
        self.k = 0
        self.last_predict: Optional[Tuple[str, int]] = None

    def reconnect(self, port: int) -> None:
        self.conn.close()
        self.port = port
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)

    def _post(self, path: str, body: bytes) -> Tuple[int, Dict[str, Any]]:
        self.conn.request("POST", path, body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def run_until(self, phase: str, deadline: float) -> None:
        traffic = self.traffic
        while time.perf_counter() < deadline:
            k = self.k
            self.k += 1
            if phase == "feedback":
                batch, labels = traffic.rows(self.cid, k)
                kind, rows, path = "feedback", 1, "/feedback"
                body = json.dumps({"label": int(labels[0]),
                                   "features": batch[0].tolist()}
                                  ).encode("ascii")
            elif traffic.is_feedback(k):
                if self.last_predict is None:
                    continue  # no earlier prediction to give feedback on
                request_id, label = self.last_predict
                kind, rows, path = "feedback", 1, "/feedback"
                body = json.dumps({"request_id": request_id,
                                   "label": label}).encode("ascii")
            else:
                batch, labels = traffic.rows(self.cid, k)
                kind, rows = "predict", len(batch)
                body = predict_body(batch)
                path = "/predict"
            record = {"phase": phase, "k": k, "kind": kind, "rows": rows,
                      "bytes": len(body)}
            t0 = time.perf_counter()
            try:
                with self.spans.span(f"client.{kind}"):
                    status, payload = self._post(path, body)
            except (http.client.HTTPException, OSError, ValueError) as exc:
                self.conn.close()
                self.conn = self._connect()
                self.acct.record(phase, type(exc).__name__)
                continue
            record["end"] = time.perf_counter()
            record["ms"] = 1000.0 * (record["end"] - t0)
            if kind == "feedback":
                reason = feedback_failure(status, payload)
            else:
                reason = None if status == 200 else f"http_{status}"
                if reason is None:
                    record["labels"] = payload.get("labels")
                    self.last_predict = (payload.get("request_id"),
                                         int(labels[0]))
            record["ok"] = reason is None
            self.acct.record(phase, reason)
            self.records.append(record)

    def close(self) -> None:
        self.conn.close()


def drive(port: int, traffic: Traffic, phases: List[Tuple[str, float]],
          acct: Accounting, traced: Spans, on_boundary,
          worker_ports: List[int]) -> Tuple[List[_Client], Dict[str, float]]:
    """Run the closed loop through ``phases`` (name, seconds); client
    calls in the ``traced`` phase record spans in ``traced``.

    In a ``feedback`` phase each client moves its connection to one of
    ``worker_ports`` and sends only ``/feedback`` (the router has no
    such route).

    ``on_boundary(phase_name_or_None)`` runs on the main thread while
    every client is parked between phases (before each phase and after
    the last), which is where the counters are scraped.  Returns the
    clients, holding their records, and each phase's start time.
    """
    clients = [_Client(c, port, traffic, acct) for c in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)
    starts: Dict[str, float] = {}
    errors: List[Exception] = []

    def loop(client: _Client) -> None:
        try:
            for name, _ in phases:
                barrier.wait()
                if name == "feedback":
                    client.reconnect(
                        worker_ports[client.cid % len(worker_ports)])
                client.spans = traced if name == "traced" else Spans(False)
                client.run_until(name, starts[name] + dict(phases)[name])
                barrier.wait()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=loop, args=(client,), daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    try:
        for name, seconds in phases:
            on_boundary(name)
            starts[name] = time.perf_counter()
            barrier.wait()
            barrier.wait()
        on_boundary(None)
    finally:
        for thread in threads:
            thread.join(timeout=60)
        for client in clients:
            client.close()
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    return clients, starts


def verify(clients: List[_Client], traffic: Traffic, engine,
           acct: Accounting) -> Dict[str, Any]:
    """Check every 200 ``/predict`` against the in-process engine on
    the same bundle and rows; returns the traffic's input properties."""
    seen = set()
    rows_total = repeated = 0
    for client in clients:
        for record in client.records:
            if record["kind"] != "predict":
                continue
            batch, _ = traffic.rows(client.cid, record["k"])
            for row in batch:
                digest = row.tobytes()
                repeated += digest in seen
                seen.add(digest)
            rows_total += len(batch)
            if not record["ok"]:
                continue
            want = engine.predict_features(batch)
            if not labels_match(record["labels"], want):
                record["ok"] = False
                acct.fail(record["phase"], "wrong_label")
    return {"repeated_row_share": repeated / max(rows_total, 1)}


def phase_stats(clients: List[_Client], phase: str,
                start: float) -> Dict[str, Any]:
    """Latency, throughput and traffic properties of one phase; rates
    divide by the time from the phase start to its last reply."""
    records = [r for c in clients for r in c.records
               if r["phase"] == phase and r["ok"]]
    seconds = max([r["end"] for r in records], default=start + 1) - start
    predicts = [r for r in records if r["kind"] == "predict"]
    feedbacks = [r for r in records if r["kind"] == "feedback"]
    return {
        "predict_ms": [r["ms"] for r in predicts],
        "feedback_ms": [r["ms"] for r in feedbacks],
        "predict_rps": len(predicts) / seconds,
        "rows_per_s": sum(r["rows"] for r in predicts) / seconds,
        "rows_per_request": (float(np.mean([r["rows"] for r in predicts]))
                             if predicts else 0.0),
        "body_bytes": (float(np.mean([r["bytes"] for r in predicts]))
                       if predicts else 0.0),
    }


def warm_samples(data, samples: Dict[str, List[float]],
                 acct: Accounting) -> None:
    """One untraced rebuild of the served model, one more ``train_cnn``
    run and one more held-out pass; appends their timings to
    ``samples``.  The second pass must label the held-out set as the
    first did."""
    timings, pipeline, predicted = fit_workload.build(data, Spans(False))
    acct.record("build")
    for name, value in timings.items():
        samples.setdefault(name, []).append(value)
    samples["teacher_s"].append(
        fit_workload.train_teacher(data[0], data[1], Spans(False))[2])
    acct.record("teacher")
    x_te = data[2]
    t0 = time.perf_counter()
    again = pipeline.predict(x_te)
    samples["eval_img_per_s"].append(len(x_te) / (time.perf_counter() - t0))
    acct.record("eval", None if labels_match(again, predicted)
                else "eval_label_mismatch")


def run(workload: str, seed: int, seconds: float, run_dir: str,
        spans: Spans, acct: Accounting, traced: bool) -> Dict[str, Any]:
    """Build and deploy the model, then drive the closed loop.

    Phases: ``warmup``, then ``measure`` for ``seconds``; a traced run
    splits the window into an untraced ``measure`` half and a
    ``traced`` half (client spans on) for the tracing overhead.  The
    bulk workload ends with a ``feedback`` phase.  The served model is
    built before the window and rebuilt both before and after it.  The
    first build runs cold, so it only warms up; the build timings are
    medians over the warm rebuilds (see :func:`warm_samples`), spread in
    time so that one slow stretch of the host cannot set them.
    """
    single = workload == "serve-single"
    with spans.span("data.synthesize"):
        data, (mean, std) = fit_workload.draw_dataset(input_rng("deploy"))
    _, pipeline, _ = fit_workload.build(data, spans)
    acct.record("build")
    bundle = os.path.join(run_dir, "bundle.npz")
    ModelBundle.from_pipeline(pipeline, config=fit_workload.bundle_config(),
                              binarize=single).save(bundle)
    config = os.path.join(run_dir, "serve.toml")
    with open(config, "w") as handle:
        handle.write(ONLINE_CONFIG)

    images, labels = draw_images(fit_workload.world(),
                                 input_rng(seed, workload, "rows"),
                                 BASE_ROWS, "test")
    images, _, _ = normalize_images(images, mean, std)
    base = np.round(pipeline.extractor.extract(images), 4)
    traffic = Traffic(workload, seed, base, labels)
    samples: Dict[str, List[float]] = {}
    for _ in range(WARM_BEFORE):
        warm_samples(data, samples, acct)

    setups: List[float] = []
    service = None
    snapshots: Dict[str, Any] = {}
    try:
        for _ in range(SPAWNS):
            if service is not None:
                service.stop()
            service = Service(bundle, run_dir, 0 if single else 2, config)
            try:
                setups.append(service.wait_healthy())
            except RuntimeError as exc:
                acct.record("setup", type(exc).__name__)
                raise
            acct.record("setup")
        if single:
            worker_urls = [service.url]
        else:
            fleet = get_json(service.url + "/healthz")["fleet"]["workers"]
            worker_urls = [w["url"] for w in fleet]
        urls = sorted({service.url, *worker_urls})
        phases = [("warmup", WARMUP_S)]
        phases += ([("measure", seconds / 2), ("traced", seconds / 2)]
                   if traced else [("measure", seconds)])
        if not single:
            phases.append(("feedback", FEEDBACK_PHASE_S))

        def boundary(name: Optional[str]) -> None:
            snapshots[name or "end"] = scrape(urls)

        worker_ports = [int(url.rsplit(":", 1)[1]) for url in worker_urls]
        clients, starts = drive(service.port, traffic, phases, acct, spans,
                                boundary, worker_ports)
    finally:
        if service is not None:
            service.stop()

    for _ in range(WARM_AFTER):
        warm_samples(data, samples, acct)
    timings = {name: float(np.median(samples[name]))
               for name in ("teacher_s", "fit_s", "eval_img_per_s",
                            "test_accuracy")}

    engine = InferenceEngine.from_path(bundle, cache_size=0)
    properties = verify(clients, traffic, engine, acct)
    names = [name for name, _ in phases] + ["end"]
    stats = {name: phase_stats(clients, name, starts[name])
             for name, _ in phases}
    window = "traced" if traced else "measure"
    before = snapshots[window]
    after = snapshots[names[names.index(window) + 1]]
    properties.update(
        rows_per_request=stats[window]["rows_per_request"],
        body_bytes=stats[window]["body_bytes"],
        batch_size_mean=delta_mean(before, after, "serve.batcher.batch_size"))
    health = {url: {"batcher": after[url]["health"].get("batcher"),
                    "cache_hit_rate": after[url]["health"].get(
                        "engine_vitals", {}).get("cache_hit_rate")}
              for url in worker_urls}
    return {"timings": timings, "setups": setups, "stats": stats,
            "properties": properties, "snapshots": (before, after),
            "run_snapshots": (snapshots["warmup"], snapshots["end"]),
            "worker_urls": worker_urls,
            "router_url": None if single else service.url,
            "engine": engine, "pipeline": pipeline, "traffic": traffic,
            "health": health}


def edge_layers(result: Dict[str, Any], client_p50_ms: float
                ) -> Dict[str, float]:
    """Serving-edge layers from the counters scraped around the traced
    phase."""
    before, after = result["snapshots"]
    workers = result["worker_urls"]
    worker_ms = worker_p50(after, workers, "serve.latency_ms")
    hits = delta(before, after, "serve.cache.hits")
    lookups = hits + delta(before, after, "serve.cache.misses")
    out = {
        "serve.wire_ms": client_p50_ms - worker_ms,
        "serve.batcher.queue_wait_ms": delta_mean(
            before, after, "serve.batcher.queue_wait_ms"),
        "serve.batcher.batch_size_mean": delta_mean(
            before, after, "serve.batcher.batch_size"),
        "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "fleet.router.upstream_ms": 0.0,
        "fleet.router.retries": delta(before, after, "fleet.router.retries"),
        "fleet.router.upstream_errors": delta(
            before, after, "fleet.router.upstream_errors"),
    }
    router = result["router_url"]
    if router is not None:
        out["fleet.router.upstream_ms"] = worker_p50(
            after, [router], "fleet.router.latency_ms") - worker_ms
    first, last = result["run_snapshots"]
    out["online.feedback.applied_ratio"] = delta(
        first, last, "online.feedback.applied") / delta(
            first, last, "serve.feedback.requests")
    return out
