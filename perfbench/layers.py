"""Per-layer metrics from a traced run's spans and ``/metrics`` deltas.

A span is ``(id, parent, name, thread, start, end, rid, info)`` as
:mod:`traced_serve` writes it.  A layer's time is *self* time: the
span's duration minus the durations of its direct child spans, so the
layer times of one request add up to the time the server spent in it.
Per-request figures are totals over the measured requests divided by
their number; ingest figures are per ingested match.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping

__all__ = ["load_spans", "parse_prometheus", "request_layers",
           "ingest_layers", "metrics_ratios"]

#: per-request self-time metrics (ms) and the span names they sum
REQUEST_TIMES = {
    "serve.encode_ms": ("serve.handle_search_bytes", "serve.handle_search"),
    "app.self_ms": ("app.search",),
    "spell.ms": ("spell.correct_query",),
    "phrasal.parse_ms": ("phrasal.parse",),
    "retrieval.build_query_ms": ("retrieval.build_query",),
    "query.scorer_build_ms": ("query.scorer",),
    "topk.scan_ms": ("topk.run_top_k",),
    "searcher.search_ms": ("searcher.search",),
    "searcher.document_ms": ("searcher.document",),
    "highlight.ms": ("highlight",),
}

_INGEST_THREAD = "serve-ingest"
_MAINTENANCE_THREAD = "serve-maintenance"


def load_spans(path) -> List[list]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def request_layers(spans: Iterable[list],
                   client_ms: Mapping[int, float]) -> Dict[str, float]:
    """Layer metrics of the search requests whose ids are the keys of
    ``client_ms`` (each request's client-side send-to-receive ms)."""
    by_id = {}
    children = defaultdict(list)
    roots = {}
    for span in spans:
        span_id, parent, name, _thread, start, end, rid, _info = span
        by_id[span_id] = span
        children[parent].append(span_id)
        if name == "serve.handle_search_bytes" and rid in client_ms:
            roots[rid] = span

    def duration(span) -> float:
        return (span[5] - span[4]) * 1000.0

    totals: Dict[str, float] = defaultdict(float)
    wire = 0.0
    corrected = routed = 0
    topk_calls = topk_fallbacks = 0
    topk_sums = [0] * 6
    for rid, root in roots.items():
        wire += client_ms[rid] - duration(root)
        pending = [root[0]]
        while pending:
            span = by_id[pending.pop()]
            kids = children.get(span[0], ())
            pending.extend(kids)
            own = duration(span) - sum(duration(by_id[kid]) for kid in kids)
            totals[span[2]] += own
            info = span[7]
            if span[2] == "app.search" and info is not None:
                corrected += bool(info[0])
                routed += bool(info[1])
            elif span[2] == "topk.run_top_k":
                topk_calls += 1
                if info is None:
                    topk_fallbacks += 1
                else:
                    topk_sums = [a + b for a, b in zip(topk_sums, info)]
    count = len(roots)
    out = {metric: sum(totals[name] for name in names) / max(count, 1)
           for metric, names in REQUEST_TIMES.items()}
    candidates, postings, seg_searched, seg_pruned, blk_scored, blk_pruned \
        = topk_sums
    pruned_calls = topk_calls - topk_fallbacks
    out.update({
        "serve.wire_ms": wire / max(count, 1),
        "spell.corrected_ratio": _ratio(corrected, count),
        "phrasal.routed_ratio": _ratio(routed, count),
        "topk.candidates_per_query": _ratio(candidates, pruned_calls),
        "topk.postings_per_query": _ratio(postings, pruned_calls),
        "topk.segments_pruned_ratio": _ratio(seg_pruned,
                                             seg_searched + seg_pruned),
        "topk.blocks_pruned_ratio": _ratio(blk_pruned,
                                           blk_scored + blk_pruned),
        "topk.exhaustive_fallback_ratio": _ratio(topk_fallbacks, topk_calls),
        "serve.requests": count,
    })
    return out


def ingest_layers(spans: Iterable[list]) -> Dict[str, float]:
    """Per-match ingest stage times (ms) and the maintenance totals
    over the traced server's life."""
    submitted = {}
    stages = []
    waits = []
    commit = refresh = merge_ms = 0.0
    merges = 0
    spans = list(spans)
    for span in spans:
        if span[2] == "ingest.submit":
            submitted[span[6]] = span[5]
    for span in spans:
        _id, _parent, name, thread, start, end, rid, info = span
        if name == "ingest.process" and info is not None:
            stages.append(info)
            if rid in submitted:
                waits.append((start - submitted[rid]) * 1000.0)
        elif name == "ingest.add_index" and thread == _INGEST_THREAD:
            commit += (end - start) * 1000.0
        elif name == "index.refresh" and thread == _INGEST_THREAD:
            refresh += (end - start) * 1000.0
        elif name == "maintenance.merge" and thread == _MAINTENANCE_THREAD:
            merge_ms += (end - start) * 1000.0
            merges += info or 0
    matches = max(len(stages), 1)

    def stage_ms(predicate) -> float:
        return sum(seconds for times in stages
                   for stage, seconds in times.items()
                   if predicate(stage)) * 1000.0 / matches

    return {
        "ingest.matches": len(stages),
        "ingest.queue_wait_ms": sum(waits) / max(len(waits), 1),
        "ingest.extraction_ms": stage_ms(lambda s: s == "extraction"),
        "ingest.populate_ms": stage_ms(lambda s: s.startswith("populate")),
        "ingest.inference_ms": stage_ms(lambda s: s == "inference"),
        "ingest.indexing_ms": stage_ms(lambda s: s.endswith("_index")),
        "ingest.commit_ms": commit / matches,
        "ingest.refresh_ms": refresh / matches,
        "maintenance.merge_ms": merge_ms,
        "maintenance.merges": merges,
    }


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Metric name -> value summed over its label sets."""
    values: Dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            values[match.group(1)] += float(match.group(3))
    return values


def metrics_ratios(before: Mapping[str, float],
                   after: Mapping[str, float]) -> Dict[str, float]:
    """Cache ratios from the ``/metrics`` counters' deltas."""

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    lookups = delta("query_cache_hits_total") + delta(
        "query_cache_misses_total")
    postings = delta("postings_cache_hits_total") + delta(
        "postings_cache_misses_total")
    return {
        "searcher.cache_hit_ratio": _ratio(delta("query_cache_hits_total"),
                                           lookups),
        "searcher.coalesced_ratio": _ratio(
            delta("query_cache_coalesced_total"), lookups),
        "index.postings_cache_hit_ratio": _ratio(
            delta("postings_cache_hits_total"), postings),
    }
