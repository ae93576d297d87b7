"""The serving edge: a client's malformed request is a 4xx, never a 5xx.

Targets an in-process worker (:class:`ModelServer`) and a :class:`Router`
over a :class:`StaticFleet` of two workers.  Deterministic tests pin the
wrong-width and bad-``Content-Length`` answers; a Hypothesis fuzz test
throws random bytes, random JSON, wrong-width / non-numeric features and
junk or oversized ``Content-Length`` values at ``/predict``,
``/feedback`` and ``/reload`` and checks every answer is < 500, carries
``X-Trace-Id``, and leaves every router breaker closed.
"""

import http.client
import json
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import InferenceEngine, ModelServer, Router, StaticFleet
from repro.serve.http import MAX_BODY_BYTES
from repro.telemetry import get_registry

WIDTH = 32  # feature width of the synthetic bundle


def counter(name):
    entry = get_registry().snapshot().get(name) or {}
    return float(entry.get("value", 0.0))


def raw_post(address, path, body=b"", content_length=None):
    """POST with an arbitrary Content-Length header → (status, headers,
    body).  One connection per request, so a framing error cannot leak
    into the next request."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(len(body))
                       if content_length is None else content_length)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def post_json(address, path, payload):
    return raw_post(address, path, json.dumps(payload).encode("utf-8"))


@pytest.fixture(scope="module")
def edge():
    """One worker with online learning, plus a router over two workers."""
    from tests.conftest import _synthetic_bundle
    bundle = _synthetic_bundle(seed=71, features=WIDTH)
    servers = [ModelServer(InferenceEngine(bundle), port=0,
                           max_batch_size=16, max_latency_ms=1.0,
                           workers=1,
                           online_options={"auto_promote": False}).start()
               for _ in range(2)]
    router = Router(StaticFleet([s.address for s in servers]),
                    port=0).start()
    try:
        yield {"worker": servers[0], "router": router}
    finally:
        router.stop()
        for server in servers:
            server.stop()


def assert_closed_breakers(router):
    states = {worker_id: router.breaker(worker_id).describe()["state"]
              for worker_id in ("w0", "w1")}
    assert set(states.values()) == {"closed"}, states


class TestFeatureWidth:
    def test_engine_exposes_feature_width(self, edge):
        assert edge["worker"].engine.feature_width == WIDTH

    @pytest.mark.parametrize("target", ["worker", "router"])
    def test_wrong_width_is_400(self, edge, target):
        errors_before = counter("fleet.router.upstream_errors")
        status, headers, body = post_json(
            edge[target].address, "/predict",
            {"features": [[0.5] * 5]})
        assert status == 400, body
        assert "32 columns" in json.loads(body)["error"]
        assert headers.get("X-Trace-Id")
        assert counter("fleet.router.upstream_errors") == errors_before
        assert_closed_breakers(edge["router"])

    def test_right_width_still_served(self, edge):
        status, _, body = post_json(edge["router"].address, "/predict",
                                    {"features": [[0.5] * WIDTH]})
        assert status == 200, body
        assert len(json.loads(body)["labels"]) == 1

    def test_wrong_width_feedback_is_400(self, edge):
        status, _, body = post_json(edge["worker"].address, "/feedback",
                                    {"label": 0, "features": [0.5] * 5})
        assert status == 400, body


class TestContentLength:
    @pytest.mark.parametrize("target,path,metric", [
        ("worker", "/predict", "serve.http.bad_request"),
        ("worker", "/reload", "serve.http.bad_request"),
        ("worker", "/feedback", "serve.http.bad_request"),
        ("router", "/predict", "fleet.router.http.bad_request"),
        ("router", "/reload", "fleet.router.http.bad_request"),
    ])
    @pytest.mark.parametrize("value,expected", [
        ("abc", 400), ("-5", 400), ("", 400),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_bad_or_oversized_length(self, edge, target, path, metric,
                                     value, expected):
        before = counter(metric)
        status, headers, body = raw_post(edge[target].address, path,
                                         content_length=value)
        assert status == expected, body
        assert "error" in json.loads(body)
        assert headers.get("X-Trace-Id")
        assert counter(metric) == before + 1
        assert_closed_breakers(edge["router"])


# -- fuzz ----------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=16)

rows = st.integers(1, 3).flatmap(lambda n: st.integers(1, 64).filter(
    lambda w: w != WIDTH).map(lambda w: [[0.25] * w] * n))

json_bodies = st.one_of(
    json_values,
    st.fixed_dictionaries({"features": json_values}),
    st.fixed_dictionaries({"features": rows}),
    st.fixed_dictionaries({"features": st.lists(
        st.text(max_size=4), min_size=1, max_size=WIDTH)}),
    st.fixed_dictionaries({"label": json_values, "features": json_values}),
    st.fixed_dictionaries({"label": st.integers(), "features": rows}),
    st.fixed_dictionaries({"label": json_values,
                           "request_id": json_values}),
    st.fixed_dictionaries({"bundle": json_values}),
    st.fixed_dictionaries({"bundle": json_values,
                           "partial": json_values}),
).map(lambda value: json.dumps(value).encode("utf-8"))

junk_lengths = st.one_of(
    st.sampled_from(["", "-1", "1.5", "0x10", "1e3", "+4", " 7 8"]),
    st.text(alphabet=string.ascii_letters + "-+. ", min_size=1,
            max_size=8),
    st.integers(MAX_BODY_BYTES + 1, 10 * MAX_BODY_BYTES).map(str))

requests = st.one_of(
    st.tuples(st.binary(max_size=256), st.none()),
    st.tuples(json_bodies, st.none()),
    st.tuples(st.just(b""), junk_lengths),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["worker", "router"]),
       path=st.sampled_from(["/predict", "/feedback", "/reload"]),
       request=requests)
def test_fuzzed_requests_never_answer_5xx(edge, target, path, request):
    body, content_length = request
    status, headers, reply = raw_post(edge[target].address, path, body,
                                      content_length)
    assert status < 500, (status, reply[:200])
    assert headers.get("X-Trace-Id")
    assert_closed_breakers(edge["router"])
