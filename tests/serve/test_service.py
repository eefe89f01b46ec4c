"""Endpoint tests for the HTTP serving layer.

One small segmented build, one :class:`ReproService` on an ephemeral
port, real sockets — these are the contract tests for every endpoint,
error shape and metric the service exposes (docs/serving.md)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import IndexName
from repro.search.searcher import IndexSearcher
from repro.search.similarity import BM25Similarity
from repro.serve import ReproService, ServiceConfig


@pytest.fixture(scope="module")
def service(pipeline, small_corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve_endpoints")
    pipeline.run_segmented(small_corpus.crawled, directory).close()
    config = ServiceConfig(directory, maintenance=False)
    with ReproService(config) as running:
        yield running


def request(service, method, path, payload=None, timeout=10.0):
    """(status, parsed body) for one request; non-2xx included."""
    data = (json.dumps(payload).encode()
            if payload is not None else None)
    req = urllib.request.Request(
        service.url + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, (json.loads(body) if body else {})


class TestSearch:
    def test_full_application_path(self, service):
        status, body = request(service, "POST", "/search",
                               {"query": "messi goal", "limit": 5})
        assert status == 200
        assert body["count"] == 5
        assert len(body["hits"]) == 5
        assert len(body["snippets"]) == 5
        for hit in body["hits"]:
            assert hit["doc_key"]
            assert isinstance(hit["score"], float)

    def test_spell_correction_surfaces(self, service):
        status, body = request(service, "POST", "/search",
                               {"query": "mesi goal", "limit": 3})
        assert status == 200
        assert body["corrected"]
        assert body["query"] == "messi goal"
        assert body["original_query"] == "mesi goal"

    def test_raw_index_path(self, service):
        status, body = request(
            service, "POST", "/search",
            {"query": "goal", "index": IndexName.TRAD, "limit": 3})
        assert status == 200
        assert body["index"] == IndexName.TRAD
        assert "snippets" not in body

    def test_query_exp_engine_served(self, service):
        status, body = request(
            service, "POST", "/search",
            {"query": "goal", "index": IndexName.QUERY_EXP})
        assert status == 200
        assert body["hits"]

    def test_null_limit_is_unlimited(self, service):
        _, capped = request(service, "POST", "/search",
                            {"query": "goal", "index": IndexName.TRAD,
                             "limit": 1})
        _, full = request(service, "POST", "/search",
                          {"query": "goal", "index": IndexName.TRAD,
                           "limit": None})
        assert capped["count"] == 1
        assert full["count"] > capped["count"]

    def test_unknown_index_rejected(self, service):
        status, body = request(service, "POST", "/search",
                               {"query": "goal", "index": "NOPE"})
        assert status == 400
        assert "NOPE" in body["error"]

    def test_empty_query_rejected(self, service):
        status, _ = request(service, "POST", "/search",
                            {"query": "   "})
        assert status == 400

    def test_bad_limit_rejected(self, service):
        status, _ = request(service, "POST", "/search",
                            {"query": "goal", "limit": 0})
        assert status == 400


class TestErrorShapes:
    def test_invalid_json_body(self, service):
        req = urllib.request.Request(
            service.url + "/search", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(req, timeout=10)
        assert caught.value.code == 400

    def test_unknown_path_404(self, service):
        status, _ = request(service, "POST", "/nope",
                            {"query": "x"})
        assert status == 404

    def test_wrong_method_on_get_endpoint(self, service):
        status, _ = request(service, "POST", "/healthz",
                            {"query": "x"})
        assert status == 404

    def test_put_not_allowed(self, service):
        status, _ = request(service, "PUT", "/search",
                            {"query": "x"})
        assert status == 405


class TestFeedback:
    def test_click_recorded(self, service):
        _, found = request(service, "POST", "/search",
                           {"query": "goal", "limit": 1})
        doc_key = found["hits"][0]["doc_key"]
        status, body = request(service, "POST", "/feedback",
                               {"query": "goal", "doc_key": doc_key})
        assert status == 200
        assert body["recorded"]
        assert body["clicks"] >= 1

    def test_malformed_feedback_rejected(self, service):
        status, _ = request(service, "POST", "/feedback",
                            {"query": "goal"})
        assert status == 400


class TestHealthAndMetrics:
    def test_healthz_shape(self, service):
        status, body = request(service, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0
        for name in IndexName.BUILT:
            assert body["indexes"][name]["doc_count"] > 0
            assert body["indexes"][name]["generation"] >= 1
        assert body["ingest"]["failed"] == 0

    def test_metrics_prometheus_text(self, service):
        with urllib.request.urlopen(service.url + "/metrics",
                                    timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain")
            text = resp.read().decode()
        assert "serve_requests_total" in text
        assert "serve_request_seconds" in text


class TestLifecycle:
    def test_start_twice_rejected(self, service):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="already started"):
            service.start()

    def test_missing_full_inf_rejected(self, tmp_path):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="FULL_INF"):
            ReproService(ServiceConfig(tmp_path))

    def test_stop_is_graceful_and_idempotent(self, pipeline,
                                             small_corpus, tmp_path):
        pipeline.run_segmented(small_corpus.crawled, tmp_path).close()
        running = ReproService(ServiceConfig(tmp_path,
                                             maintenance=False))
        running.start()
        url = running.url
        status, _ = request(running, "GET", "/healthz")
        assert status == 200
        running.stop()
        running.stop()               # second stop is a no-op
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/healthz", timeout=2.0)


class TestWorkerPool:
    def test_fixed_pool_sized_by_config(self, service):
        server = service._server
        assert len(server._workers) == service.config.http_workers
        assert all(worker.is_alive() for worker in server._workers)

    def test_queue_full_sheds_with_503(self):
        import socket

        from repro.core.observability import MetricsRegistry
        from repro.serve.service import _REJECT_BODY, _PooledHTTPServer

        registry = MetricsRegistry(enabled=True)
        server = _PooledHTTPServer(
            ("127.0.0.1", 0), object, workers=1, queue_size=1,
            metrics=registry)
        try:
            # retire the only worker, then occupy the single queue
            # slot: the next accepted connection must be shed
            server._pool.put(None)
            server._workers[0].join(5.0)
            assert not server._workers[0].is_alive()
            server._pool.put(object())
            left, right = socket.socketpair()
            try:
                server.process_request(left, ("127.0.0.1", 0))
                shed = right.recv(65536)
            finally:
                right.close()
            assert shed.startswith(b"HTTP/1.1 503")
            assert _REJECT_BODY in shed
            assert "serve_rejected_total" in registry.to_prometheus()
            server._pool.get()       # drain the dummy before close
        finally:
            server.server_close()

    def test_concurrent_searches_through_the_pool(self, service):
        import threading

        statuses = []
        lock = threading.Lock()

        def hammer(seed: int) -> None:
            for i in range(5):
                status, body = request(
                    service, "POST", "/search",
                    {"query": "goal", "index": IndexName.FULL_INF,
                     "limit": 1 + (seed + i) % 4})
                with lock:
                    statuses.append((status, body["count"]))

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(statuses) == 30
        assert all(status == 200 for status, _ in statuses)


class TestEncodeOnceResponses:
    def test_repeat_raw_query_serves_cached_bytes(self, service):
        payload = {"query": "corner kick",
                   "index": IndexName.FULL_INF, "limit": 4}
        before = service.response_cache.cache_info()
        status_a, body_a = request(service, "POST", "/search", payload)
        status_b, body_b = request(service, "POST", "/search", payload)
        assert status_a == status_b == 200
        assert body_a == body_b
        after = service.response_cache.cache_info()
        assert after.misses >= before.misses + 1
        assert after.hits >= before.hits + 1

    def test_limit_is_part_of_the_byte_cache_key(self, service):
        base = {"query": "free kick", "index": IndexName.FULL_INF}
        _, one = request(service, "POST", "/search",
                         dict(base, limit=1))
        _, three = request(service, "POST", "/search",
                           dict(base, limit=3))
        assert one["count"] == 1
        assert three["count"] == 3

    def test_facade_path_is_never_byte_cached(self, service):
        before = service.response_cache.cache_info()
        request(service, "POST", "/search",
                {"query": "messi goal", "limit": 2})
        after = service.response_cache.cache_info()
        assert (after.hits + after.misses) \
            == (before.hits + before.misses)

    def test_cached_bytes_match_fresh_encode(self, service):
        payload = {"query": "penalty",
                   "index": IndexName.FULL_INF, "limit": 5}
        first = service.handle_search_bytes(payload)
        second = service.handle_search_bytes(payload)
        assert first == second
        assert json.loads(second) == service.handle_search(payload)

    def test_response_cache_metrics_exposed(self, service):
        request(service, "POST", "/search",
                {"query": "header", "index": IndexName.FULL_INF,
                 "limit": 2})
        import urllib.request as _url
        with _url.urlopen(service.url + "/metrics",
                          timeout=10) as resp:
            text = resp.read().decode()
        assert "serve_response_cache_misses_total" in text
        assert "serve_queue_depth" in text


class TestPostingsCacheUnderServing:
    def test_postings_cache_warms_across_queries(self, service):
        index = service.indexes[IndexName.FULL_INF]
        engine = service.engines[IndexName.FULL_INF]
        engine.search("yellow card", limit=3)
        readers = index._state.readers
        misses = sum(reader.postings_cache_info().misses
                     for reader in readers)
        assert misses > 0
        # same query again with the result cache out of the way: the
        # segment views' plan memos answer it without fetching postings
        engine.searcher.cache.clear()
        before_hits = sum(reader.postings_cache_info().hits
                          for reader in readers)
        engine.search("yellow card", limit=3)
        assert sum(reader.postings_cache_info().hits
                   for reader in readers) == before_hits
        # the same terms under another similarity miss those memos and
        # refetch postings: every fetch must now be a cache hit
        other = IndexSearcher(index, BM25Similarity(), cache_size=0)
        other.search(engine.build_query("yellow card"), limit=3)
        after_hits = sum(reader.postings_cache_info().hits
                         for reader in readers)
        assert after_hits > before_hits
        assert sum(reader.postings_cache_info().misses
                   for reader in readers) == misses
