"""Unit tests of the middleware pipeline: ordering, short-circuits,
validation, and the response cache."""

import pytest

from repro.service import (
    ErrorBoundaryMiddleware,
    Field,
    MetricsMiddleware,
    Middleware,
    MiddlewarePipeline,
    Request,
    RequestIdMiddleware,
    Response,
    ResponseCacheMiddleware,
    ServiceError,
    ValidationMiddleware,
    canonical_body_key,
    validate_body,
)


class Probe(Middleware):
    """Records the enter/exit order of the onion."""

    def __init__(self, label, trace):
        self.name = label
        self.label = label
        self.trace = trace

    def handle(self, request, call_next):
        self.trace.append(f"{self.label}:in")
        response = call_next(request)
        self.trace.append(f"{self.label}:out")
        return response


class ShortCircuit(Middleware):
    name = "short_circuit"

    def handle(self, request, call_next):
        return Response(status=418, body={"short": True})


def ok_handler(request):
    return Response(status=200, body={"ok": True})


class TestPipelineOrdering:
    def test_first_middleware_is_outermost(self):
        trace = []
        pipeline = MiddlewarePipeline(
            [Probe("a", trace), Probe("b", trace), Probe("c", trace)]
        )
        response = pipeline.wrap(
            lambda request: (trace.append("handler"), ok_handler(request))[1]
        )(Request("GET", "/x"))
        assert response.status == 200
        assert trace == [
            "a:in", "b:in", "c:in", "handler", "c:out", "b:out", "a:out",
        ]
        assert pipeline.names == ["a", "b", "c"]

    def test_short_circuit_skips_inner_layers(self):
        trace = []
        pipeline = MiddlewarePipeline(
            [Probe("outer", trace), ShortCircuit(), Probe("inner", trace)]
        )
        called = []
        response = pipeline.wrap(lambda r: called.append(r) or ok_handler(r))(
            Request("GET", "/x")
        )
        assert response.status == 418
        assert called == []
        # The outer layer still sees the short-circuited response.
        assert trace == ["outer:in", "outer:out"]

    def test_duplicate_names_rejected(self):
        trace = []
        with pytest.raises(ValueError, match="duplicate"):
            MiddlewarePipeline([Probe("same", trace), Probe("same", trace)])

    def test_empty_pipeline_is_identity(self):
        response = MiddlewarePipeline()(Request("GET", "/x"), ok_handler)
        assert response.body == {"ok": True}


class TestRequestId:
    def test_assigns_unique_ids_and_header(self):
        middleware = RequestIdMiddleware()
        pipeline = MiddlewarePipeline([middleware])
        seen = []
        handler = lambda r: seen.append(r.context["request_id"]) or ok_handler(r)
        r1 = pipeline(Request("GET", "/x"), handler)
        r2 = pipeline(Request("GET", "/x"), handler)
        assert seen[0] != seen[1]
        assert r1.headers["X-Request-Id"] == seen[0]
        assert r2.headers["X-Request-Id"] == seen[1]


class TestMetrics:
    def test_counts_by_endpoint_and_status(self):
        metrics = MetricsMiddleware()
        pipeline = MiddlewarePipeline([metrics])
        pipeline(Request("GET", "/a"), ok_handler)
        pipeline(Request("GET", "/a"), ok_handler)
        pipeline(Request("POST", "/b"),
                 lambda r: Response(status=404, body={}))
        snap = metrics.counters.read()
        assert snap["requests_total"] == 3
        assert snap["requests_by_endpoint"] == {"GET /a": 2, "POST /b": 1}
        assert snap["responses_by_status"] == {"200": 2, "404": 1}
        assert set(snap["wall_clock_s_by_endpoint"]) == {"GET /a", "POST /b"}

    def test_counts_response_cache_hits(self):
        metrics = MetricsMiddleware()
        cache = ResponseCacheMiddleware(["GET /a"])
        pipeline = MiddlewarePipeline([metrics, cache])
        pipeline(Request("GET", "/a"), ok_handler)
        pipeline(Request("GET", "/a"), ok_handler)
        assert metrics.counters.read()["response_cache_hits"] == 1


class TestErrorBoundary:
    def test_service_error_becomes_typed_response(self):
        pipeline = MiddlewarePipeline([ErrorBoundaryMiddleware()])

        def handler(request):
            raise ServiceError(404, "not-found", "nope", details=[1, 2])

        response = pipeline(Request("GET", "/x"), handler)
        assert response.status == 404
        assert response.body["error"]["code"] == "not-found"
        assert response.body["error"]["details"] == [1, 2]

    def test_unexpected_exception_becomes_opaque_500(self):
        pipeline = MiddlewarePipeline([ErrorBoundaryMiddleware()])

        def handler(request):
            raise RuntimeError("secret internals")

        response = pipeline(Request("GET", "/x"), handler)
        assert response.status == 500
        assert response.body["error"]["code"] == "internal-error"
        assert "secret" not in str(response.body)

    def test_error_carries_request_id(self):
        pipeline = MiddlewarePipeline(
            [RequestIdMiddleware(), ErrorBoundaryMiddleware()]
        )

        def handler(request):
            raise ServiceError(400, "bad", "x")

        response = pipeline(Request("GET", "/x"), handler)
        assert response.body["error"]["request_id"] == \
            response.headers["X-Request-Id"]


class TestValidation:
    SCHEMA = {
        "dataset": Field(type=dict, required=True),
        "points": Field(type=int, default=10, low=2, high=200),
        "mode": Field(type=str, default="fast", choices=("fast", "slow")),
    }

    def test_defaults_filled_in(self):
        body = validate_body({"dataset": {}}, self.SCHEMA, "POST /x")
        assert body == {"dataset": {}, "points": 10, "mode": "fast"}

    def test_all_problems_reported_together(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_body(
                {"points": 1, "mode": "warp", "bogus": 1}, self.SCHEMA,
                "POST /x",
            )
        details = excinfo.value.details
        assert excinfo.value.status == 400
        assert any("unknown fields" in p for p in details)
        assert any("points" in p for p in details)
        assert any("mode" in p for p in details)
        assert any("dataset" in p for p in details)

    def test_int_accepted_for_float_field(self):
        schema = {"param": Field(type=float, required=True)}
        body = validate_body({"param": 1}, schema, "POST /x")
        assert body["param"] == 1.0 and isinstance(body["param"], float)

    def test_bool_is_not_a_number(self):
        for declared in (float, int):
            schema = {"param": Field(type=declared, required=True)}
            with pytest.raises(ServiceError):
                validate_body({"param": True}, schema, "POST /x")

    def test_non_object_body_rejected(self):
        with pytest.raises(ServiceError):
            validate_body([1, 2], self.SCHEMA, "POST /x")  # type: ignore

    def test_middleware_replaces_body_with_normalised(self):
        middleware = ValidationMiddleware({"POST /x": self.SCHEMA})
        pipeline = MiddlewarePipeline([middleware])
        seen = {}
        handler = lambda r: seen.update(r.body) or ok_handler(r)
        pipeline(Request("POST", "/x", body={"dataset": {"a": 1}}), handler)
        assert seen["points"] == 10
        # Endpoints without a schema pass through untouched.
        request = Request("POST", "/other", body={"anything": 1})
        pipeline(request, ok_handler)
        assert request.body == {"anything": 1}


class TestResponseCache:
    def test_only_cacheable_endpoints_cached(self):
        cache = ResponseCacheMiddleware(["POST /a"])
        pipeline = MiddlewarePipeline([cache])
        calls = []
        handler = lambda r: calls.append(1) or ok_handler(r)
        pipeline(Request("POST", "/a", body={"x": 1}), handler)
        pipeline(Request("POST", "/a", body={"x": 1}), handler)
        pipeline(Request("POST", "/b", body={"x": 1}), handler)
        pipeline(Request("POST", "/b", body={"x": 1}), handler)
        assert len(calls) == 3  # /a answered once from cache
        assert cache.counters.read() == {"entries": 1, "hits": 1, "misses": 1}

    def test_key_is_order_insensitive(self):
        assert canonical_body_key("POST /a", {"x": 1, "y": 2}) == \
            canonical_body_key("POST /a", {"y": 2, "x": 1})
        assert canonical_body_key("POST /a", {"x": 1}) != \
            canonical_body_key("POST /b", {"x": 1})

    def test_hit_marks_context_and_header(self):
        cache = ResponseCacheMiddleware(["POST /a"])
        pipeline = MiddlewarePipeline([cache])
        miss = pipeline(Request("POST", "/a", body={}), ok_handler)
        request = Request("POST", "/a", body={})
        hit = pipeline(request, ok_handler)
        assert miss.headers["X-Response-Cache"] == "miss"
        assert hit.headers["X-Response-Cache"] == "hit"
        assert request.context["response_cache_hit"] is True
        assert hit.body == miss.body

    def test_errors_not_cached(self):
        cache = ResponseCacheMiddleware(["POST /a"])
        pipeline = MiddlewarePipeline([cache])
        statuses = iter([500, 200])
        handler = lambda r: Response(status=next(statuses), body={})
        assert pipeline(Request("POST", "/a", body={}), handler).status == 500
        assert pipeline(Request("POST", "/a", body={}), handler).status == 200

    def test_entry_bound_evicts_oldest(self):
        cache = ResponseCacheMiddleware(["POST /a"], max_entries=2)
        pipeline = MiddlewarePipeline([cache])
        for i in range(3):
            pipeline(Request("POST", "/a", body={"i": i}), ok_handler)
        assert cache.counters.read()["entries"] == 2
        # Entry 0 was evicted; entry 2 is still warm.
        calls = []
        handler = lambda r: calls.append(1) or ok_handler(r)
        pipeline(Request("POST", "/a", body={"i": 0}), handler)
        pipeline(Request("POST", "/a", body={"i": 2}), handler)
        assert len(calls) == 1

    def test_entry_bound_keeps_a_hot_entry(self):
        """The bound is an LRU: a key hit on every request outlives
        any number of newer misses."""
        cache = ResponseCacheMiddleware(["POST /a"], max_entries=2)
        pipeline = MiddlewarePipeline([cache])
        calls = []
        handler = lambda r: calls.append(r.body["i"]) or ok_handler(r)
        pipeline(Request("POST", "/a", body={"i": "hot"}), handler)
        for i in range(4):
            pipeline(Request("POST", "/a", body={"i": i}), handler)
            hot = pipeline(Request("POST", "/a", body={"i": "hot"}), handler)
            assert hot.headers["X-Response-Cache"] == "hit"
        assert calls == ["hot", 0, 1, 2, 3]
        assert cache.counters.read()["entries"] == 2

    def test_cached_body_immune_to_caller_mutation(self):
        cache = ResponseCacheMiddleware(["POST /a"])
        pipeline = MiddlewarePipeline([cache])
        handler = lambda r: Response(status=200, body={"items": [1, 2]})
        first = pipeline(Request("POST", "/a", body={}), handler)
        first.body["items"].clear()  # an in-process caller misbehaving
        second = pipeline(Request("POST", "/a", body={}), lambda r: None)
        assert second.headers["X-Response-Cache"] == "hit"
        assert second.body == {"items": [1, 2]}
        # ... and mutating a hit does not corrupt later hits either.
        second.body["items"].append(3)
        third = pipeline(Request("POST", "/a", body={}), lambda r: None)
        assert third.body == {"items": [1, 2]}

    def test_clear(self):
        cache = ResponseCacheMiddleware(["POST /a"])
        pipeline = MiddlewarePipeline([cache])
        pipeline(Request("POST", "/a", body={}), ok_handler)
        cache.clear()
        calls = []
        pipeline(Request("POST", "/a", body={}),
                 lambda r: calls.append(1) or ok_handler(r))
        assert calls == [1]

    def test_key_body_none_bypasses(self):
        cache = ResponseCacheMiddleware(
            ["POST /a"],
            key_body=lambda r: None if r.body.get("skip") else r.body,
        )
        pipeline = MiddlewarePipeline([cache])
        calls = []
        handler = lambda r: calls.append(1) or ok_handler(r)
        for _ in range(2):
            response = pipeline(Request("POST", "/a", body={"skip": 1}),
                                handler)
            assert "X-Response-Cache" not in response.headers
        assert len(calls) == 2
        assert cache.counters.read() == {"entries": 0, "hits": 0, "misses": 0}
