"""One stdlib HTTP stack shared by the model server and the fleet router.

:class:`HTTPService` (base of ``ModelServer`` and ``Router``) owns the
listener, the lifecycle and a route table ``{(method, path): route}``;
a route takes the :class:`Handler` of the current request and returns
its response.  ``GET /metrics``, ``/tracez``, ``/requestz`` and
``/alertz`` are in every table; any other path answers **404**.

The edge contract: a client's malformed request is a 4xx, never a 5xx
that a router would retry fleet-wide.  :meth:`Handler.read_body`
answers a junk ``Content-Length`` with **400** and a body over
:data:`MAX_BODY_BYTES` with **413** (the model server likewise answers
more than :data:`MAX_ROWS` feature rows with 413); a
:class:`RequestError` from a route answers its status, and any other
exception **500** instead of a dropped connection.  A body the route
never read is drained before the answer, so a client still sending it
is not reset.  :meth:`Handler.send` echoes the trace context
(``X-Trace-Id`` + ``traceparent``) on every response.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..telemetry import (AlertManager, get_flight_recorder, get_registry,
                         get_request_log, prometheus_text)
from ..telemetry.reqtrace import HUB as _HUB
from ..telemetry.reqtrace import TraceContext, _RequestTrace

__all__ = ["HTTPService", "Handler", "MAX_BODY_BYTES", "MAX_ROWS",
           "RequestError"]

#: Largest request body either front end reads (413 above it).  A
#: 32-row /predict over 1024 features is ~0.7 MB of JSON; this leaves
#: head-room for large batches while bounding what one request can
#: make a process buffer.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Most feature rows one ``/predict`` or ``/feedback`` request may carry
#: (413 above it), so one request cannot monopolize the batcher.
MAX_ROWS = 4096

#: Exceptions raised when the client hangs up mid-request/-response.
DISCONNECTS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class RequestError(ValueError):
    """Client-side error (malformed body / JSON / feature shape): a 4xx."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = int(status)


#: ``(status, body)`` or ``(status, body, headers)``; see Handler.send.
Response = Tuple[Any, ...]
Route = Callable[["Handler"], Response]


class Handler(BaseHTTPRequestHandler):
    """Dispatches every request through the owning service's routes."""

    protocol_version = "HTTP/1.1"
    server: "_HTTPServer"

    #: Trace context echoed on every response of the current request
    #: (adopted from the client's ``traceparent`` or minted; a traced
    #: route swaps in its live root-span context).
    trace_ctx: TraceContext

    def log_message(self, format: str, *args: Any) -> None:
        # Access logs go to the metrics registry, not stderr (tests and
        # benchmarks would otherwise drown in per-request lines).
        get_registry().inc(self.server.app.requests_metric)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        app = self.server.app
        self.trace_ctx = (TraceContext.parse(self.headers.get("traceparent"))
                          or TraceContext.mint(sampled=False))
        self.url = urllib.parse.urlsplit(self.path)
        self.body_read = False
        route = app.routes.get((method, self.url.path))
        try:
            response = (route(self) if route is not None else
                        (404, {"error": f"no route {self.path!r}"}))
        except RequestError as exc:
            get_registry().inc(app.bad_request_metric)
            response = (exc.status, {"error": str(exc)})
        except DISCONNECTS:
            raise  # counted by _HTTPServer.handle_error; nobody to answer
        except Exception as exc:  # answer 500, keep the process serving
            self.server.handle_error(self.request, self.client_address)
            get_registry().inc(app.internal_error_metric)
            response = (500, {"error": f"{type(exc).__name__}: {exc}"})
        status, body, *headers = response
        if not self.body_read:
            # Drain a body the route did not read: left in the socket it
            # would be parsed as the next request line, and closing on
            # it resets the connection under a client still sending.
            # An unframeable one (junk or oversized Content-Length)
            # makes read_body mark the connection for closing instead.
            with contextlib.suppress(RequestError):
                self.read_body()
        self.send(status, body, headers=headers[0] if headers else None)

    @contextlib.contextmanager
    def traced(self, name: str) -> Iterator[_RequestTrace]:
        """Root span of this hop; its context is echoed on the response.

        The client's ``traceparent`` (a router, or an external caller)
        becomes the parent, so the cross-process stitcher hangs this
        hop under the caller's span.  Works with tracing disabled too —
        the context still carries the request id every response echoes.
        Routes return their response *after* this block, so by the time
        the client holds its trace id the flight recorder has already
        retained the trace — an immediate /tracez lookup cannot race the
        request it is looking for.
        """
        parent = TraceContext.parse(self.headers.get("traceparent"))
        with _HUB.trace(name, parent=parent,
                        attrs={"path": self.url.path}) as trace:
            self.trace_ctx = trace.ctx
            yield trace

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Last value of query parameter ``name`` (``default`` if absent)."""
        return urllib.parse.parse_qs(self.url.query).get(name, [default])[-1]

    def flag(self, name: str) -> bool:
        return self.param(name, "0") not in ("0", "", "false")

    def read_body(self) -> bytes:
        """The request body; :class:`RequestError` 400/413 on bad framing."""
        self.body_read = True
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise RequestError(f"invalid Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestError(f"request body of {length} bytes exceeds "
                               f"the {MAX_BODY_BYTES}-byte limit", 413)
        return self.rfile.read(length)

    def send(self, status: int, body: Any,
             headers: Optional[Dict[str, str]] = None) -> None:
        """Write one response: text goes out as ``text/plain``, bytes
        as-is as JSON (a worker's answer the router passes through), any
        other body JSON-encoded."""
        content_type = "application/json"
        if isinstance(body, str):
            body = body.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        elif not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Trace-Id", self.trace_ctx.trace_id)
            self.send_header("traceparent", self.trace_ctx.to_traceparent())
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except DISCONNECTS:
            # The client is gone; nobody is owed this response.
            get_registry().inc("serve.client_disconnect")
            self.close_connection = True


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: "HTTPService"

    def handle_error(self, request, client_address) -> None:
        # A reset while reading the request line or body lands here:
        # count it; real server bugs keep the default stderr traceback.
        if isinstance(sys.exc_info()[1], DISCONNECTS):
            get_registry().inc("serve.client_disconnect")
            return
        super().handle_error(request, client_address)


# -- shared routes -------------------------------------------------------
def _tracez(req: Handler) -> Response:
    """``GET /tracez``: flight-recorder snapshot or one trace.

    ``?trace_id=<id>`` looks up a retained trace (404 with the retained
    id list when it aged out); no query returns the recorder snapshot
    (retained traces sorted slowest-first, active-trace count, stats).
    """
    trace_id = req.param("trace_id")
    recorder = get_flight_recorder()
    if not trace_id:
        return 200, recorder.snapshot()
    found = recorder.lookup(trace_id)
    if found is None:
        return 404, {"error": f"trace {trace_id!r} not retained",
                     "retained": recorder.retained_ids()}
    return 200, found


def _requestz(req: Handler) -> Response:
    """``GET /requestz``: the structured request log (newest first).

    ``?limit=N`` bounds the slice, ``?errors=1`` filters to failures,
    ``?trace_id=<id>`` pulls one request's record.
    """
    try:
        limit = int(req.param("limit", "100"))
    except ValueError:
        limit = 100
    log = get_request_log()
    return 200, {"requests": log.snapshot(
        limit=limit, trace_id=req.param("trace_id"),
        errors_only=req.flag("errors")), "appended": log.appended}


class HTTPService:
    """Listener + route table + lifecycle shared by the front ends.

    Subclasses set the ``*_metric`` names and ``thread_name``, pass
    their own routes to ``__init__`` and free their resources in
    :meth:`_release`.  ``host``/``port`` is the bind address
    (``port=0`` picks an ephemeral port).  ``alert_rules`` are
    evaluated against the process registry on a background thread
    while serving (and on every ``GET /alertz``); ``None``/empty
    disables alerting.
    """

    requests_metric: str
    bad_request_metric: str
    internal_error_metric: str
    drain_metric: str
    thread_name: str
    #: Signal name → method run on it; SIGTERM starts the graceful drain.
    signals: Dict[str, str] = {"SIGTERM": "drain"}

    def __init__(self, host: str, port: int,
                 routes: Dict[Tuple[str, str], Route],
                 alert_rules: Optional[list], alert_interval_s: float):
        self.draining = False
        self.alerts = (AlertManager(list(alert_rules))
                       if alert_rules else None)
        self.alert_interval_s = float(alert_interval_s)
        self.routes: Dict[Tuple[str, str], Route] = {
            ("GET", "/metrics"): lambda req: (200, prometheus_text()),
            ("GET", "/tracez"): _tracez,
            ("GET", "/requestz"): _requestz,
            ("GET", "/alertz"): lambda req: (200, self.alertz()),
            **routes}
        self._httpd = _HTTPServer((host, port), Handler)
        self._httpd.app = self
        self._thread: Optional[threading.Thread] = None
        self._started = False

    def alertz(self) -> Dict[str, Any]:
        """``GET /alertz`` body: evaluate-now + alert states.

        Evaluating on read means the endpoint is accurate even when the
        background evaluator is not running (tests, one-shot probes).
        """
        if self.alerts is None:
            return {"enabled": False, "rules": [], "firing": []}
        self.alerts.evaluate()
        return self.alerts.snapshot()

    @property
    def address(self) -> Tuple[str, int]:
        """Actual ``(host, port)`` after binding (resolves ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Serve in a background thread; returns self (fluent)."""
        if self._thread is not None:
            raise RuntimeError(f"{self.thread_name} already started")
        self._started = True
        self._start_alerts()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self.thread_name,
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (CLI) with signal handlers."""
        self._started = True
        self.install_signal_handlers()
        self._start_alerts()
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def _start_alerts(self) -> None:
        if self.alerts is not None and self.alerts._thread is None:
            self.alerts.start(self.alert_interval_s)

    def install_signal_handlers(self) -> bool:
        """Route each of :attr:`signals` to its method (main thread
        only); returns whether the handlers were installed."""
        if threading.current_thread() is not threading.main_thread():
            return False
        try:
            for name, method in self.signals.items():
                action = getattr(self, method)
                signal.signal(getattr(signal, name),
                              lambda signum, frame, action=action: action())
        except (ValueError, OSError, AttributeError):
            return False
        return True

    def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush in-flight, stop.

        Safe to call from a signal handler: ``shutdown()`` must not run
        on the thread blocked inside ``serve_forever`` (it would
        deadlock waiting for its own loop to exit), so the actual stop
        runs on a helper thread and this returns immediately.
        """
        if self.draining:
            return
        self.draining = True
        get_registry().inc(self.drain_metric)
        threading.Thread(target=self.stop, name=f"{self.thread_name}-drain",
                         daemon=True).start()

    def stop(self) -> None:
        """Stop the listener, release the subclass's resources, join."""
        self.draining = True
        if self.alerts is not None:
            self.alerts.stop()
        if self._started:
            # shutdown() synchronizes with a serve_forever loop; calling
            # it on a never-served listener would block forever.
            self._httpd.shutdown()
        self._httpd.server_close()
        self._release()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _release(self) -> None:
        """Free what the subclass holds once the listener is closed."""

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
