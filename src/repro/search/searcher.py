"""IndexSearcher: executes query trees and ranks results.

Query serving runs through three layers, fastest first:

1. **result cache** — a thread-safe LRU keyed on (index name, index
   generation, canonical query string, limit).  The generation
   component makes invalidation implicit: any index mutation bumps
   the counter, so stale entries simply stop being addressable and
   age out of the LRU.
2. **pruned top-k** — when a ``limit`` is given and the query
   compiles to a flat plan (term, DisMax and boolean trees, see
   :func:`repro.search.topk.compile_plan`), the MaxScore driver
   (:mod:`repro.search.topk`) skips documents that cannot enter the
   top k.  Results are bit-identical to exhaustive scoring (same
   docs, order, floats).
3. **exhaustive scoring** — the oracle path; also serves unlimited
   searches and query shapes without a plan.  Exposed directly as
   :meth:`IndexSearcher.search_exhaustive` for parity testing.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.search.document import Document
from repro.search.index.inverted import InvertedIndex
from repro.search.index.writer import CacheInfo
from repro.search.query.queries import Query
from repro.search.similarity import ClassicSimilarity, Similarity
from repro.search.topk import compile_plan, run_top_k, score_doc

__all__ = ["ScoredDoc", "TopDocs", "QueryResultCache", "IndexSearcher",
           "rank_docs"]


def _observability():
    # deferred: repro.core.retrieval imports this module while
    # repro.core is still initializing, so a top-level import of
    # repro.core.observability would hit a half-built package.
    from repro.core.observability import get_observability
    return get_observability()


@dataclass(frozen=True)
class ScoredDoc:
    """One hit: internal doc id plus score."""

    doc_id: int
    score: float


@dataclass
class TopDocs:
    """Ranked result list."""

    total_hits: int
    scored: List[ScoredDoc]
    #: True when early termination skipped scoring some documents
    pruned: bool = False
    #: True when served from the query result cache
    cached: bool = False
    #: the index generation the whole query was evaluated against —
    #: on a segmented index this is one pinned manifest generation,
    #: which the concurrency stress suite asserts on
    generation: Optional[int] = None

    def __iter__(self):
        return iter(self.scored)

    def __len__(self) -> int:
        return len(self.scored)

    def doc_ids(self) -> List[int]:
        return [hit.doc_id for hit in self.scored]


def rank_docs(scores: Dict[int, float],
              limit: Optional[int] = None) -> List[Tuple[int, float]]:
    """Rank a doc→score map: descending score, ties broken by
    ascending doc id.

    The tie-break is applied *before* any ``limit`` cut, so top-k
    result sets are stable across runs, worker counts, and the
    insertion order of the score map — equal-score documents can
    never swap in or out of the window.

    When ``limit`` is given and smaller than the map, a bounded heap
    selects the window in O(n log k) instead of sorting all n scores;
    ``heapq.nsmallest`` is defined to equal ``sorted(...)[:k]``, so
    the output is identical to the full sort.
    """
    def key(item):
        return (-item[1], item[0])

    if limit is not None and 0 <= limit < len(scores):
        ranked = heapq.nsmallest(limit, scores.items(), key=key)
    else:
        ranked = sorted(scores.items(), key=key)
        if limit is not None:
            ranked = ranked[:limit]
    return ranked


class _CacheShard:
    """One lock-striped slice of the result cache: its own LRU dict,
    lock and exact hit/miss tallies."""

    __slots__ = ("entries", "lock", "capacity", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        self.entries: "OrderedDict[tuple, TopDocs]" = OrderedDict()
        self.lock = threading.Lock()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0


class QueryResultCache:
    """Thread-safe lock-striped LRU for ranked results.

    Keys are ``(index name, index generation, canonical query string,
    limit)``.  Because the generation changes on every index mutation
    (:attr:`InvertedIndex.generation`), entries written against an
    older snapshot can never be returned for the current one — no
    explicit invalidation hooks needed, and the property holds per
    shard because a key always hashes to the same shard.

    Striping replaces the former single lock: a key is pinned to one
    of ``shards`` slices by hash, so concurrent lookups of different
    keys contend only 1/N of the time.  Each shard is its own exact
    LRU over ``maxsize / shards`` entries (total capacity unchanged);
    recency is therefore per-shard, which preserves every hit/miss
    outcome of a single-threaded trace except for which entry a full
    cache evicts.  Hit/miss counts stay exact: each lookup increments
    exactly one shard's tally under that shard's lock, and
    :meth:`cache_info` sums the tallies — no double counting, and at
    quiescence the totals equal the single-lock implementation's.
    """

    def __init__(self, maxsize: int = 256, shards: int = 8) -> None:
        self.maxsize = maxsize
        if maxsize > 0:
            shards = max(1, min(shards, maxsize))
        else:
            shards = 1
        # spread capacity so the per-shard sum is exactly maxsize
        base, extra = divmod(max(maxsize, 0), shards)
        self._shards = tuple(
            _CacheShard(base + (1 if number < extra else 0))
            for number in range(shards))

    def _shard(self, key: tuple) -> _CacheShard:
        return self._shards[hash(key) % len(self._shards)]

    def get(self, key: tuple) -> Optional[TopDocs]:
        shard = self._shard(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            return entry

    def put(self, key: tuple, value: TopDocs) -> None:
        if self.maxsize <= 0:
            return
        shard = self._shard(key)
        with shard.lock:
            shard.entries[key] = value
            shard.entries.move_to_end(key)
            while len(shard.entries) > shard.capacity:
                shard.entries.popitem(last=False)

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()

    def cache_info(self) -> CacheInfo:
        hits = misses = size = 0
        for shard in self._shards:
            with shard.lock:
                hits += shard.hits
                misses += shard.misses
                size += len(shard.entries)
        return CacheInfo(hits, misses, self.maxsize, size)

    def approx_size(self) -> int:
        """Lock-free entry count for hot-path gauges: each ``len`` is
        atomic, the sum may interleave with writers by at most the
        in-flight puts."""
        return sum(len(shard.entries) for shard in self._shards)

    def __len__(self) -> int:
        size = 0
        for shard in self._shards:
            with shard.lock:
                size += len(shard.entries)
        return size


class _InFlight:
    """One in-progress uncached search that identical concurrent
    queries (same cache key, hence same pinned generation) wait on
    instead of recomputing."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[TopDocs] = None


class IndexSearcher:
    """Searches one inverted index with a pluggable similarity.

    Every query evaluates against one **pinned snapshot** of the
    index: on a :class:`~repro.search.index.segments.SegmentedIndex`
    the whole search — cache-key generation, postings reads, scoring —
    runs inside ``index.pinned()``, so a concurrent ``refresh`` can
    neither mix two manifest generations inside one query nor cache a
    new-generation result under an old-generation key.  Plain
    in-memory indexes have no ``pinned`` and are used directly.
    """

    def __init__(self, index: InvertedIndex,
                 similarity: Optional[Similarity] = None,
                 cache_size: int = 256,
                 cache_shards: int = 8) -> None:
        self.index = index
        self.similarity = similarity or ClassicSimilarity()
        self.cache = QueryResultCache(maxsize=cache_size,
                                      shards=cache_shards)
        # single-flight: cache key -> the computation in progress
        self._inflight: Dict[tuple, "_InFlight"] = {}
        self._inflight_lock = threading.Lock()
        # hot-path instrument handles, resolved once per registry
        self._instrument_registry = None
        self._instruments: Optional[tuple] = None

    # ------------------------------------------------------------------

    @contextmanager
    def _pinned_index(self) -> Iterator:
        """The index frozen for one whole query: a pinned segment set
        when the index supports it, the index itself otherwise."""
        pin = getattr(self.index, "pinned", None)
        if pin is None:
            yield self.index
            return
        with pin() as snapshot:
            yield snapshot

    def _cache_key(self, query: Query, limit: Optional[int],
                   index=None) -> tuple:
        # repr() of the dataclass query trees is a canonical string:
        # it covers every field (terms, boosts, occurs, tie breakers)
        # and is stable across processes, unlike hash().
        index = index if index is not None else self.index
        return (index.name, index.generation, repr(query), limit)

    def _cache_instruments(self, obs):
        """Counter/gauge handles for the per-query cache metrics,
        resolved through the registry once per installed registry
        instead of per search (the registry lookup takes a lock —
        measurable on the cache-hit path)."""
        if self._instrument_registry is not obs.metrics:
            self._instrument_registry = obs.metrics
            self._instruments = (
                obs.metrics.counter("query_cache_hits_total",
                                    "query result cache traffic"),
                obs.metrics.counter("query_cache_misses_total",
                                    "query result cache traffic"),
                obs.metrics.counter(
                    "query_cache_coalesced_total",
                    "identical in-flight queries served by "
                    "single-flight coalescing"),
                obs.metrics.gauge("query_cache_size",
                                  "entries in the query result cache"),
            )
        return self._instruments

    def _replay_spans(self, obs, index, top: TopDocs) -> None:
        # keep the span shape of a live query so traces stay
        # uniform: parse/retrieve/score children always exist
        with obs.tracer.span("query.retrieve",
                             index=index.name) as span:
            if span is not None:
                span.attributes["candidates"] = top.total_hits
                span.attributes["cached"] = True
        with obs.tracer.span("query.score",
                             candidates=top.total_hits):
            pass

    def search(self, query: Query, limit: Optional[int] = None) -> TopDocs:
        """Run ``query``; return hits sorted by descending score.

        Ties break on ascending doc id (see :func:`rank_docs`), making
        rankings deterministic — important for reproducible evaluation
        numbers.  Served from the result cache when possible, and via
        the pruned top-k path when ``limit`` is set and the query
        supports it; both return exactly what exhaustive scoring
        would (see :meth:`search_exhaustive`).

        Concurrent identical queries are **coalesced**: the first
        cache miss for a key computes, every later caller arriving
        before it finishes waits for that result instead of scoring
        the index again (single-flight).  The cache key includes the
        pinned generation, so coalescing can never hand a caller a
        result from a different snapshot than its own miss would have
        produced.
        """
        obs = _observability()
        with self._pinned_index() as index:
            key = self._cache_key(query, limit, index)
            cached_top = self.cache.get(key)
            metered = obs.metrics.enabled
            if metered:
                hits, misses, coalesced, size_gauge = \
                    self._cache_instruments(obs)
                (hits if cached_top is not None else misses).inc()
                size_gauge.set(self.cache.approx_size())
            if cached_top is not None:
                self._replay_spans(obs, index, cached_top)
                # shallow copy so the flag doesn't retroactively mark
                # the miss-path object that produced the entry
                return replace(cached_top, cached=True)

            with self._inflight_lock:
                flight = self._inflight.get(key)
                leader = flight is None
                if leader:
                    flight = self._inflight[key] = _InFlight()

            if not leader:
                # some other thread is already computing exactly this
                # (key, generation) — wait for its result; waiting
                # holds our pin, which never blocks a refresh, only
                # the deferred mmap close
                flight.event.wait()
                top = flight.result
                if top is not None:
                    if metered:
                        coalesced.inc()
                    self._replay_spans(obs, index, top)
                    return replace(top, cached=True)
                # the leader failed; compute alone

            try:
                top = self._search_uncached(index, query, limit, obs)
                self.cache.put(key, top)
                if leader:
                    flight.result = top
                return top
            finally:
                if leader:
                    with self._inflight_lock:
                        self._inflight.pop(key, None)
                    flight.event.set()

    def _search_uncached(self, index, query: Query,
                         limit: Optional[int], obs) -> TopDocs:
        with obs.tracer.span("query.retrieve",
                             index=index.name) as span:
            result = run_top_k(index, self.similarity, query, limit)
            if result is not None:
                ranked = result.ranked
                total_hits = result.total_hits
                candidates = result.candidates_scored
                pruned = result.pruned
                if obs.metrics.enabled:
                    obs.metrics.counter(
                        "query_postings_scanned_total",
                        "postings entries read while scoring queries"
                    ).inc(result.postings_scanned)
                    obs.metrics.counter(
                        "query_segments_searched_total",
                        "segments scanned by scatter-gather top-k"
                    ).inc(result.segments_searched)
                    obs.metrics.counter(
                        "query_segments_pruned_total",
                        "segments skipped whole by score bounds"
                    ).inc(result.segments_pruned)
                    if result.blocks_scored or result.blocks_pruned:
                        obs.metrics.counter(
                            "query_blocks_scored_total",
                            "skip blocks of a lone surviving term "
                            "clause admitted for scoring"
                        ).inc(result.blocks_scored)
                        obs.metrics.counter(
                            "query_blocks_pruned_total",
                            "skip blocks skipped whole by block-max "
                            "bounds"
                        ).inc(result.blocks_pruned)
            else:
                scores = query.score_docs(index, self.similarity)
                candidates = total_hits = len(scores)
                pruned = False
            if span is not None:
                span.attributes["candidates"] = candidates
                span.attributes["pruned"] = pruned
        with obs.tracer.span("query.score", candidates=candidates):
            if result is None:
                ranked = rank_docs(scores, limit)
        if obs.metrics.enabled:
            obs.metrics.counter("query_candidates_scored_total",
                                "documents scored across all queries"
                                ).inc(candidates)
            if pruned:
                obs.metrics.counter("query_pruned_total",
                                    "queries served by the pruned "
                                    "top-k path").inc()
        return TopDocs(total_hits=total_hits,
                       scored=[ScoredDoc(doc_id, score)
                               for doc_id, score in ranked],
                       pruned=pruned,
                       generation=index.generation)

    def search_exhaustive(self, query: Query,
                          limit: Optional[int] = None) -> TopDocs:
        """The oracle: full scoring, no cache, no pruning.  The pruned
        :meth:`search` path is verified bit-identical against this."""
        with self._pinned_index() as index:
            scores = query.score_docs(index, self.similarity)
            ranked = sorted(scores.items(),
                            key=lambda item: (-item[1], item[0]))
            if limit is not None:
                ranked = ranked[:limit]
            return TopDocs(total_hits=len(scores),
                           scored=[ScoredDoc(doc_id, score)
                                   for doc_id, score in ranked],
                           generation=index.generation)

    def document(self, doc_id: int) -> Document:
        """Fetch stored fields of a hit."""
        return self.index.stored_document(doc_id)

    def explain(self, query: Query, doc_id: int) -> float:
        """Score of ``doc_id`` under ``query`` (0.0 when not matched).

        A query that compiles to a plan is scored against the one view
        holding the document — O(query terms) postings probes instead
        of re-scoring the whole index; other query shapes fall back to
        the exhaustive map."""
        plan = compile_plan(query)
        with self._pinned_index() as index:
            if plan is not None:
                return score_doc(index, self.similarity, plan, doc_id)
            return query.score_docs(index,
                                    self.similarity).get(doc_id, 0.0)
