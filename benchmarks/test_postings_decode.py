"""Postings decode micro-benchmark: the serving hot path's inner loop.

Three measurements on the real FULL_INF index / segment built from
the standard corpus:

1. **Bulk vs scalar varint decode** — every term's postings payload
   decoded with :func:`decode_uvarints` (one tight loop per byte
   range) versus the byte-at-a-time :func:`_read_uvarint` call chain
   it replaced.  Outputs are asserted identical, so the speedup is a
   pure mechanical win.
2. **Cold vs warm postings cache** — first materialisation of every
   term (decode + LRU insert + column build) versus the second pass,
   which must be all hits on shared :class:`DecodedTerm` arrays.
3. **Contribution column vs the per-posting loop** — every term
   scored through the top-k plan's per-row contribution column
   (:func:`~repro.search.topk.row_contributions`: term constants
   hoisted, one tight loop over the typed columns) versus a
   per-posting walk (a frequency probe, a full ``similarity.score``
   call and two per-document lookups per posting, written out below).
   Identical floats out; the report gates on the column being ≥ 1.5×
   faster.

Evidence lands in ``benchmarks/results/BENCH_decode.json``.
"""

from __future__ import annotations

import json
import time

from repro.core import IndexName
from repro.search.index.codec import _read_uvarint, decode_uvarints
from repro.search.index.segment import SegmentReader, write_segment
from repro.search.similarity import BM25Similarity
from repro.search.topk import row_contributions

from benchmarks.conftest import write_result

REPEATS = 5

#: the typed-column contribution loop must clearly beat the
#: per-posting probe-and-score walk
MIN_BLOCK_SCORING_SPEEDUP = 1.5


def scalar_decode(data, start: int, end: int) -> list:
    """The pre-optimisation shape: one function call per varint."""
    values = []
    pos = start
    while pos < end:
        value, pos = _read_uvarint(data, pos)
        values.append(value)
    return values


def per_posting_contributions(index, similarity, field: str,
                              term: str) -> list:
    """The reference loop: per posting, one frequency probe, one full
    ``similarity.score`` call and the length/boost lookups through the
    index's per-document methods — the exhaustive path's arithmetic,
    so the floats equal the contribution column's."""
    postings = index.postings(field, term)
    doc_frequency = postings.doc_frequency
    doc_count = index.doc_count
    average = index.average_field_length(field)
    out = []
    for doc_id in postings.doc_ids():
        score = similarity.score(postings.frequency(doc_id), doc_frequency,
                                 doc_count, index.field_length(field, doc_id),
                                 average)
        out.append(score * 1.0 * index.field_boost(field, doc_id))
    return out


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_postings_decode_benchmark(pipeline_result, results_dir,
                                   tmp_path):
    index = pipeline_result.index(IndexName.FULL_INF)
    path = write_segment(index, tmp_path / "decode_bench.ridx")

    with SegmentReader(path) as reader:
        ranges = []
        for field in reader.field_names():
            for meta in reader.term_metas(field).values():
                ranges.append((meta.offset, meta.offset + meta.length))
        payload_bytes = sum(end - start for start, end in ranges)
        data = reader._mmap

        # correctness first: bulk and scalar must agree on every range
        for start, end in ranges:
            assert decode_uvarints(data, start, end) \
                == scalar_decode(data, start, end)

        def bulk_pass():
            for start, end in ranges:
                decode_uvarints(data, start, end)

        def scalar_pass():
            for start, end in ranges:
                scalar_decode(data, start, end)

        bulk_s = best_of(REPEATS, bulk_pass)
        scalar_s = best_of(REPEATS, scalar_pass)

    # cold vs warm: fresh readers for the cold passes so every term
    # decode really happens; the warm pass reuses one reader's LRU.
    # Decoding is block-lazy now, so touching doc_ids forces the
    # actual column materialisation both passes compare.
    terms = [(field, term) for field in index.field_names()
             for term in index.terms(field)]

    def cold_pass():
        with SegmentReader(path) as cold_reader:
            for field, term in terms:
                cold_reader.postings(field, term).doc_ids()

    cold_s = best_of(REPEATS, cold_pass)

    # the warm reader's LRU must hold the whole vocabulary, or a
    # sequential full-vocab sweep evicts every entry before reuse
    warm_reader = SegmentReader(path,
                                postings_cache_size=len(terms) + 64)
    try:
        for field, term in terms:
            warm_reader.postings(field, term).doc_ids()

        def warm_pass():
            for field, term in terms:
                warm_reader.postings(field, term).doc_ids()

        warm_s = best_of(REPEATS, warm_pass)
        info = warm_reader.postings_cache_info()
        assert info.hits >= REPEATS * len(terms)
        assert info.misses == len(terms)
    finally:
        warm_reader.close()

    # contribution column vs the per-posting loop: identical floats,
    # then time both over every term
    similarity = BM25Similarity()
    docs_scored = 0
    for field, term in terms:
        _, column = row_contributions(index, similarity, field, term, 1.0)
        assert column == per_posting_contributions(index, similarity,
                                                   field, term)
        docs_scored += len(column)

    def per_posting_pass():
        for field, term in terms:
            per_posting_contributions(index, similarity, field, term)

    def column_pass():
        for field, term in terms:
            row_contributions(index, similarity, field, term, 1.0)

    per_posting_s = best_of(REPEATS, per_posting_pass)
    column_s = best_of(REPEATS, column_pass)
    column_speedup = per_posting_s / column_s

    report = {
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "index": IndexName.FULL_INF,
        "term_count": len(terms),
        "postings_payload_bytes": payload_bytes,
        "varint_decode": {
            "bulk_ms": round(bulk_s * 1000, 3),
            "scalar_ms": round(scalar_s * 1000, 3),
            "speedup": round(scalar_s / bulk_s, 2),
        },
        "postings_cache": {
            "cold_pass_ms": round(cold_s * 1000, 3),
            "warm_pass_ms": round(warm_s * 1000, 3),
            "speedup": round(cold_s / warm_s, 2),
            "warm_hit_rate": round(
                info.hits / (info.hits + info.misses), 4),
        },
        "contribution_column": {
            "docs_scored": docs_scored,
            "per_posting_ms": round(per_posting_s * 1000, 3),
            "column_ms": round(column_s * 1000, 3),
            "speedup": round(column_speedup, 2),
            "min_speedup": MIN_BLOCK_SCORING_SPEEDUP,
        },
    }
    write_result(results_dir, "BENCH_decode.json",
                 json.dumps(report, indent=2) + "\n")
    print(f"bulk={bulk_s * 1000:.2f}ms scalar={scalar_s * 1000:.2f}ms "
          f"({scalar_s / bulk_s:.2f}x)  "
          f"cold={cold_s * 1000:.2f}ms warm={warm_s * 1000:.2f}ms "
          f"({cold_s / warm_s:.2f}x)  "
          f"contribution-column={column_speedup:.2f}x")

    # machine-independent: the warm pass skips every decode, so it
    # must not be slower than decoding the whole vocabulary cold
    assert warm_s < cold_s
    # the typed-column contribution loop is what scoring rests on:
    # gate it
    assert column_speedup >= MIN_BLOCK_SCORING_SPEEDUP, (
        f"contribution column only {column_speedup:.2f}x over the "
        f"per-posting loop (need {MIN_BLOCK_SCORING_SPEEDUP}x)")
