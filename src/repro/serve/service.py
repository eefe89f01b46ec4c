"""The online serving layer: an HTTP/JSON face over the facade.

:class:`ReproService` converts a ``repro build`` output directory
into a long-running retrieval service — the paper's online
half finally shaped like one:

* ``POST /search`` — one query through the full
  :class:`~repro.app.SemanticSearchApplication` stack (spell
  correction, phrasal routing, learned feedback expansions,
  snippets), or through a single named raw index when the request
  carries ``"index"`` (the evaluation/benchmark path — golden Tables
  4–6 reproduce bit-identically through it).
* ``POST /feedback`` — record a click; learned expansions refresh.
* ``POST /ingest`` — accept one match's crawl artifact, answer 202,
  and hand it to the :class:`~repro.serve.ingest.IngestWorker`, which
  commits it as delta segments and refreshes the serving handles.
* ``GET /metrics`` — Prometheus text exposition of the metrics
  registry (query latency, cache, segment and ``serve_*`` series).
* ``GET /healthz`` — liveness plus index generations and ingest
  counters; 503 while draining so load balancers stop routing first.

Everything is stdlib: :class:`http.server.ThreadingHTTPServer` with
``block_on_close`` and non-daemon handler threads, so
:meth:`ReproService.stop` drains in-flight requests before index
handles close.  Queries are safe against concurrent refresh because
every multi-call read path pins one snapshot
(:meth:`SegmentedIndex.pinned`) for its whole execution.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from http.server import (BaseHTTPRequestHandler, HTTPServer,
                         ThreadingHTTPServer)
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.app import SemanticSearchApplication
from repro.core import (ExpandedSearchEngine, IndexName,
                        KeywordSearchEngine, PhrasalSearchEngine,
                        SearchHit)
from repro.core.expansion import QueryExpander
from repro.core.observability import MetricsRegistry, get_observability
from repro.errors import CrawlError, ReproError
from repro.search import load_index
from repro.search.index.directory import list_indexes
from repro.search.searcher import QueryResultCache
from repro.search.index.segments import SegmentedIndex
from repro.serve.ingest import (IngestWorker, MaintenanceThread,
                                match_from_json)

__all__ = ["ServiceConfig", "ReproService"]

PathLike = Union[str, Path]

#: latency buckets for the request histogram (seconds).
_REQUEST_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                    0.25, 0.5, 1.0, 2.5)


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` is configured by."""

    index_dir: PathLike
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); read the real one off
    #: :attr:`ReproService.port` after :meth:`ReproService.start`.
    port: int = 0
    merge_factor: int = 8
    #: seconds between background merge/vacuum/refresh cycles.
    maintenance_interval: float = 5.0
    feedback_min_support: int = 3
    #: seconds :meth:`ReproService.stop` waits for the ingest queue
    #: to drain before giving up.
    drain_timeout: float = 30.0
    #: run background maintenance (tests sometimes drive
    #: :meth:`MaintenanceThread.run_once` by hand instead).
    maintenance: bool = True
    #: fixed HTTP worker pool size.  With HTTP/1.1 keep-alive a
    #: worker is held for a connection's lifetime, so this bounds
    #: concurrent *connections*, not just in-flight requests — keep
    #: it above the expected client concurrency.
    http_workers: int = 16
    #: accepted connections waiting for a worker; beyond this the
    #: server answers 503 immediately instead of queueing unboundedly.
    http_queue: int = 64
    #: entries in the serialized-response byte cache (0 disables).
    response_cache_size: int = 512


class _JsonError(Exception):
    """An error with an HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REJECT_BODY = b'{"error": "server overloaded, request queue full"}'
_REJECT_RESPONSE = (b"HTTP/1.1 503 Service Unavailable\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: "
                    + str(len(_REJECT_BODY)).encode("ascii")
                    + b"\r\nConnection: close\r\n\r\n" + _REJECT_BODY)


class _PooledHTTPServer(ThreadingHTTPServer):
    """HTTP server with a **fixed worker pool** and a bounded accept
    queue, replacing ``ThreadingMixIn``'s thread-per-connection.

    Under a thundering herd the mixin spawns one OS thread per
    connection — unbounded memory and scheduler churn exactly when
    the process is busiest.  Here ``serve_forever`` only accepts and
    enqueues; a fixed set of workers drains the queue.  When the
    queue is full the connection is answered with an immediate 503
    (load shedding) instead of queueing without limit, so tail
    latency stays bounded by queue capacity, not arrival rate.
    """

    def __init__(self, address, handler, workers: int,
                 queue_size: int, metrics) -> None:
        super().__init__(address, handler)
        self._pool: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._depth_gauge = (metrics.gauge(
            "serve_queue_depth",
            "accepted connections waiting for an HTTP worker")
            if metrics.enabled else None)
        self._rejected = (metrics.counter(
            "serve_rejected_total",
            "connections shed with an immediate 503 (queue full)")
            if metrics.enabled else None)
        self._workers = [
            threading.Thread(target=self._work,
                             name=f"serve-worker-{number}", daemon=True)
            for number in range(max(1, workers))]
        for worker in self._workers:
            worker.start()

    # accept path (the serve_forever thread) — never blocks on work
    def process_request(self, request, client_address) -> None:
        try:
            self._pool.put_nowait((request, client_address))
        except queue.Full:
            if self._rejected is not None:
                self._rejected.inc()
            try:
                request.sendall(_REJECT_RESPONSE)
            except OSError:          # client already gone
                pass
            self.shutdown_request(request)
            return
        if self._depth_gauge is not None:
            self._depth_gauge.set(self._pool.qsize())

    def _work(self) -> None:
        while True:
            item = self._pool.get()
            if item is None:
                return
            if self._depth_gauge is not None:
                self._depth_gauge.set(self._pool.qsize())
            # ThreadingMixIn's per-request body: finish_request +
            # shutdown_request with handle_error on failure
            self.process_request_thread(*item)

    def server_close(self) -> None:
        """Drain queued connections, then stop the workers.  Sentinels
        queue *behind* pending connections, so every accepted request
        is served before its worker exits — the graceful-drain
        contract ``ReproService.stop`` relies on."""
        for _ in self._workers:
            try:
                self._pool.put(None, timeout=5.0)
            except queue.Full:       # pragma: no cover - stuck worker
                break
        for worker in self._workers:
            worker.join(timeout=10.0)
        HTTPServer.server_close(self)


class ReproService:
    """One serving process over one index directory.

    Owns the application facade, the per-variant raw engines, the
    ingest worker, the maintenance thread and the HTTP server.
    Usable as a context manager::

        with ReproService(ServiceConfig("var/indexes")) as service:
            print(f"listening on {service.url}")
            service.serve_forever()       # until KeyboardInterrupt
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        obs = get_observability()
        #: the process-wide registry when observability is installed
        #: (the CLI does that), else a private enabled one so
        #: ``/metrics`` always has the ``serve_*`` series.
        self.metrics = (obs.metrics if obs.metrics.enabled
                        else MetricsRegistry(enabled=True))

        directory = Path(config.index_dir)
        #: every index variant present on disk.
        self.indexes: Dict[str, SegmentedIndex] = {}
        for name in IndexName.BUILT:
            if name in list_indexes(directory):
                self.indexes[name] = load_index(directory, name)
        if IndexName.FULL_INF not in self.indexes:
            raise ReproError(
                f"no {IndexName.FULL_INF} index in {directory} — "
                f"run `repro build -d {directory}` first")

        self.app = SemanticSearchApplication(
            self.indexes[IndexName.FULL_INF],
            self.indexes.get(IndexName.PHR_EXP),
            feedback_min_support=config.feedback_min_support)

        #: raw per-variant engines for explicit-index requests (the
        #: evaluation path: no spell/feedback interference, identical
        #: scoring to the offline harness).
        self.engines: Dict[str, Any] = {}
        for name, index in self.indexes.items():
            if name == IndexName.PHR_EXP:
                self.engines[name] = PhrasalSearchEngine(index)
            else:
                self.engines[name] = KeywordSearchEngine(index)
        if IndexName.TRAD in self.indexes:
            from repro.ontology import soccer_ontology
            from repro.reasoning import Reasoner
            from repro.reasoning.rules import soccer_rules
            ontology = soccer_ontology()
            reasoner = Reasoner(ontology, soccer_rules())
            self.engines[IndexName.QUERY_EXP] = ExpandedSearchEngine(
                self.indexes[IndexName.TRAD],
                QueryExpander(ontology, taxonomy=reasoner.taxonomy))

        directories = {name: index.directory
                       for name, index in self.indexes.items()}
        self.ingest = IngestWorker(directories, self.indexes,
                                   metrics=self.metrics)
        self.maintenance = MaintenanceThread(
            directories, self.indexes,
            interval=config.maintenance_interval,
            merge_factor=config.merge_factor,
            metrics=self.metrics)

        #: encode-once responses: (index, query, limit, generation)
        #: -> serialized JSON bytes.  The generation component keys
        #: the entry to the snapshot that produced it, so live ingest
        #: invalidates implicitly, like the query result cache.
        self.response_cache = QueryResultCache(
            maxsize=config.response_cache_size, shards=8)

        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._draining = False
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise ReproError("service not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReproService":
        """Bind, start the HTTP server + background threads."""
        if self._server is not None:
            raise ReproError("service already started")
        handler = _make_handler(self)
        server = _PooledHTTPServer(
            (self.config.host, self.config.port), handler,
            workers=self.config.http_workers,
            queue_size=self.config.http_queue,
            metrics=self.metrics)
        self._server = server
        self._server_thread = threading.Thread(
            target=server.serve_forever, name="serve-http",
            daemon=True)
        self._server_thread.start()
        self.ingest.start()
        if self.config.maintenance:
            self.maintenance.start()
        self._started_at = time.monotonic()
        return self

    def serve_forever(self) -> None:
        """Block until the server thread exits (Ctrl-C stops it)."""
        if self._server_thread is None:
            raise ReproError("service not started")
        while self._server_thread.is_alive():
            self._server_thread.join(timeout=0.5)

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight
        requests, drain the ingest queue, stop maintenance, release
        the index mmaps.  Idempotent."""
        if self._server is None:
            return
        self._draining = True
        self._server.shutdown()
        self._server.server_close()      # joins handler threads
        if self._server_thread is not None:
            self._server_thread.join(timeout=10.0)
        self._server = None
        self._server_thread = None
        self.ingest.stop(drain=True, timeout=self.config.drain_timeout)
        self.maintenance.stop()
        self.app.close()
        for index in self.indexes.values():
            index.close()

    def __enter__(self) -> "ReproService":
        return self.start() if self._server is None else self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # endpoint bodies (handler methods delegate here; unit tests can
    # call these without any socket)
    # ------------------------------------------------------------------

    @staticmethod
    def _hit_json(hit: SearchHit) -> dict:
        return {"doc_key": hit.doc_key, "score": hit.score,
                "event_type": hit.event_type,
                "narration": hit.narration}

    @staticmethod
    def _validate_search(payload: dict):
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _JsonError(400, "body must carry a non-empty "
                                  "string 'query'")
        limit = payload.get("limit", 10)
        if limit is not None and (not isinstance(limit, int)
                                  or isinstance(limit, bool)
                                  or limit < 1):
            raise _JsonError(400, "'limit' must be a positive "
                                  "integer or null (unlimited)")
        return query, limit

    def handle_search_bytes(self, payload: dict) -> bytes:
        """``POST /search`` with **encode-once** responses.

        On the raw-index path the serialized JSON bytes are cached
        keyed by (index, query, limit, generation): a repeat of a hot
        query skips query parsing, the result cache, hit
        materialization *and* ``json.dumps`` — the handler writes the
        same bytes straight to the socket.  The generation read is
        monotonic, so a response served from this cache is exactly
        the one a fresh search against the current snapshot would
        have encoded.  The facade path (spell correction, feedback
        expansions — state the generation does not capture) and
        engines without :meth:`search_detailed` fall through to a
        plain encode.
        """
        query, limit = self._validate_search(payload)
        index_name = payload.get("index")
        engine = (self.engines.get(index_name)
                  if index_name is not None else None)
        if (index_name is not None and engine is not None
                and hasattr(engine, "search_detailed")):
            key = (index_name, query, limit,
                   self.indexes[index_name].generation)
            body = self.response_cache.get(key)
            metered = self.metrics.enabled
            if metered:
                self.metrics.counter(
                    "serve_response_cache_%s_total"
                    % ("hits" if body is not None else "misses"),
                    "serialized-response byte cache traffic").inc()
            if body is not None:
                return body
            hits, top = engine.search_detailed(query, limit=limit)
            body = json.dumps(
                {"query": query, "index": index_name,
                 "count": len(hits),
                 "hits": [self._hit_json(hit)
                          for hit in hits]}).encode("utf-8")
            # key on the generation the query actually pinned — under
            # a concurrent refresh that may be newer than the one we
            # probed with, never older
            self.response_cache.put(
                (index_name, query, limit, top.generation), body)
            return body
        return json.dumps(self.handle_search(payload)).encode("utf-8")

    def handle_search(self, payload: dict) -> dict:
        query, limit = self._validate_search(payload)
        index_name = payload.get("index")
        if index_name is not None:
            engine = self.engines.get(index_name)
            if engine is None:
                raise _JsonError(
                    400, f"unknown index {index_name!r} "
                         f"(have {sorted(self.engines)})")
            hits = engine.search(query, limit=limit)
            return {"query": query, "index": index_name,
                    "count": len(hits),
                    "hits": [self._hit_json(hit) for hit in hits]}
        response = self.app.search(
            query, limit=limit,
            spell_correct=bool(payload.get("spell_correct", True)),
            snippets=bool(payload.get("snippets", True)))
        return {"query": response.query,
                "original_query": response.original_query,
                "corrected": response.corrected,
                "phrasal": response.phrasal,
                "count": len(response.hits),
                "hits": [self._hit_json(hit)
                         for hit in response.hits],
                "snippets": response.snippets}

    def handle_feedback(self, payload: dict) -> dict:
        query = payload.get("query")
        doc_key = payload.get("doc_key")
        if not isinstance(query, str) or not isinstance(doc_key, str):
            raise _JsonError(400, "body must carry string 'query' "
                                  "and 'doc_key'")
        self.app.feedback(query, doc_key)
        return {"recorded": True,
                "clicks": len(self.app.feedback_engine.store),
                "learned_terms": len(self.app.learned_expansions)}

    def handle_ingest(self, payload: dict) -> dict:
        try:
            crawled = match_from_json(payload)
        except CrawlError as error:
            raise _JsonError(400, str(error)) from error
        depth = self.ingest.submit(crawled)
        return {"match_id": crawled.match_id, "accepted": True,
                "queued": depth}

    def handle_healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": (time.monotonic() - self._started_at
                               if self._started_at is not None
                               else 0.0),
            "indexes": {name: {"generation": index.generation,
                               "doc_count": index.doc_count}
                        for name, index in self.indexes.items()},
            "ingest": self.ingest.stats(),
            "maintenance": {"cycles": self.maintenance.cycles,
                            "merges": self.maintenance.merges},
        }

    def handle_metrics(self) -> str:
        return self.metrics.to_prometheus()

    # -- instrumentation ------------------------------------------------

    def observe_request(self, endpoint: str, status: int,
                        seconds: float) -> None:
        if not self.metrics.enabled:
            return
        self.metrics.counter("serve_requests_total",
                             "HTTP requests served",
                             endpoint=endpoint, status=status).inc()
        self.metrics.histogram("serve_request_seconds",
                               "HTTP request wall seconds",
                               buckets=_REQUEST_BUCKETS,
                               endpoint=endpoint).observe(seconds)


def _make_handler(service: ReproService):
    """One handler class bound to ``service``.

    ``BaseHTTPRequestHandler`` instantiates per request, so state
    lives on the service; the closure avoids a module-level global.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"    # keep-alive for loadgen
        server_version = "repro-serve"

        # -- plumbing ---------------------------------------------------

        def log_message(self, format: str, *args) -> None:
            pass                         # metrics, not stderr noise

        def _send_json(self, status: int, payload: dict) -> None:
            self._send_body(status, json.dumps(payload).encode("utf-8"))

        def _send_body(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str,
                       content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_json(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise _JsonError(400, "request body required")
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as error:
                raise _JsonError(
                    400, f"invalid JSON body: {error}") from error
            if not isinstance(payload, dict):
                raise _JsonError(400, "body must be a JSON object")
            return payload

        def _dispatch(self, endpoint: str, func) -> None:
            started = time.perf_counter()
            status = 500
            try:
                result = func()
                status = 202 if endpoint == "ingest" else 200
                if isinstance(result, bytes):   # pre-encoded response
                    self._send_body(status, result)
                else:
                    self._send_json(status, result)
            except _JsonError as error:
                status = error.status
                self._send_json(status, {"error": str(error)})
            except BrokenPipeError:      # client went away mid-write
                status = 499
            except Exception as error:   # noqa: BLE001 — 500 + detail
                self._send_json(500, {
                    "error": f"{type(error).__name__}: {error}"})
            finally:
                service.observe_request(endpoint, status,
                                        time.perf_counter() - started)

        # -- routes -----------------------------------------------------

        def do_POST(self) -> None:       # noqa: N802 — http.server API
            routes = {"/search": service.handle_search_bytes,
                      "/feedback": service.handle_feedback,
                      "/ingest": service.handle_ingest}
            handler = routes.get(self.path)
            if handler is None:
                self._send_json(404, {"error":
                                      f"no such endpoint {self.path}"})
                return
            endpoint = self.path.lstrip("/")
            self._dispatch(endpoint,
                           lambda: handler(self._read_json()))

        def do_GET(self) -> None:        # noqa: N802 — http.server API
            started = time.perf_counter()
            if self.path == "/metrics":
                self._send_text(200, service.handle_metrics(),
                                "text/plain; version=0.0.4")
                service.observe_request(
                    "metrics", 200, time.perf_counter() - started)
            elif self.path == "/healthz":
                status = 503 if service._draining else 200
                self._send_json(status, service.handle_healthz())
                service.observe_request(
                    "healthz", status, time.perf_counter() - started)
            else:
                self._send_json(404, {"error":
                                      f"no such endpoint {self.path}"})

        def do_PUT(self) -> None:        # noqa: N802 — http.server API
            self._send_json(405, {"error": "method not allowed"})

        do_DELETE = do_PUT

    return Handler
