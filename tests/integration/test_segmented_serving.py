"""Golden-table parity through the segmented serving path.

The numbers in test_golden_numbers.py are pinned against the
monolithic in-memory indexes.  Here the same corpus is ingested
segment-natively (multiple mmap'd segments per index, scatter-gather
top-k) and every Table 4/5/6 cell must come out bit-identical — the
segment architecture is a serving-layer change and may not move a
single number.
"""

from __future__ import annotations

import pytest

from repro.core import IndexName
from repro.evaluation import EvaluationHarness
from repro.evaluation.queries import TABLE3_QUERIES, TABLE6_QUERIES
from repro.search.topk import run_top_k


@pytest.fixture(scope="module")
def segmented_result(pipeline, corpus, tmp_path_factory):
    """The standard corpus ingested into 2-match segments (5 per
    index variant)."""
    result = pipeline.run_segmented(
        corpus.crawled, tmp_path_factory.mktemp("segmented"),
        segment_size=2)
    yield result
    result.close()


@pytest.fixture(scope="module")
def segmented_harness(corpus, segmented_result):
    return EvaluationHarness(corpus, segmented_result)


def assert_tables_equal(ours, reference):
    assert ours.systems == reference.systems
    assert set(ours.rows) == set(reference.rows)
    for query_id, row in reference.rows.items():
        for system, cell in row.items():
            mine = ours.rows[query_id][system]
            assert mine.average_precision == cell.average_precision, \
                (query_id, system)
            assert mine.recall == cell.recall, (query_id, system)
            assert mine.relevant_count == cell.relevant_count
            assert mine.retrieved_count == cell.retrieved_count


class TestSegmentedGoldenParity:
    def test_segments_really_are_segmented(self, segmented_result):
        for name in IndexName.BUILT:
            assert segmented_result.index(name).segment_count == 5

    def test_doc_ids_match_monolithic(self, pipeline_result,
                                      segmented_result):
        for name in IndexName.BUILT:
            assert segmented_result.index(name).doc_count \
                == pipeline_result.index(name).doc_count

    def test_table4_bit_identical(self, harness, segmented_harness):
        assert_tables_equal(segmented_harness.table4(),
                            harness.table4())

    def test_table5_bit_identical(self, harness, segmented_harness):
        assert_tables_equal(segmented_harness.table5(),
                            harness.table5())

    def test_table6_bit_identical(self, harness, segmented_harness):
        assert_tables_equal(segmented_harness.table6(),
                            harness.table6())

    @pytest.mark.parametrize("query_id",
                             [q.query_id for q in TABLE3_QUERIES])
    def test_rankings_bit_identical(self, pipeline_result,
                                    segmented_result, query_id):
        """Not just the metrics — the raw ranked (doc, score) lists."""
        query = next(q for q in TABLE3_QUERIES
                     if q.query_id == query_id)
        for name in IndexName.LADDER:
            ours = segmented_result.engine(name).search(query.keywords,
                                                        limit=10)
            reference = pipeline_result.engine(name).search(
                query.keywords, limit=10)
            assert [(h.doc_key, h.score) for h in ours] \
                == [(h.doc_key, h.score) for h in reference], name

    def test_phrasal_rankings_bit_identical(self, pipeline_result,
                                            segmented_result):
        for query in TABLE6_QUERIES:
            ours = segmented_result.engine(IndexName.PHR_EXP).search(
                query.keywords, limit=10)
            reference = pipeline_result.engine(IndexName.PHR_EXP).search(
                query.keywords, limit=10)
            assert [(h.doc_key, h.score) for h in ours] \
                == [(h.doc_key, h.score) for h in reference]

    def test_rankings_survive_a_forced_merge(self, segmented_result):
        engine = segmented_result.engine(IndexName.FULL_INF)
        before = [[(h.doc_key, h.score)
                   for h in engine.search(q.keywords, limit=10)]
                  for q in TABLE3_QUERIES]
        directory = segmented_result.directories[IndexName.FULL_INF]
        assert directory.merge(force=True) == 1
        segmented_result.refresh()
        assert segmented_result.index(IndexName.FULL_INF) \
                               .segment_count == 1
        after = [[(h.doc_key, h.score)
                  for h in engine.search(q.keywords, limit=10)]
                 for q in TABLE3_QUERIES]
        assert after == before


class TestServedQueriesCompileToPlans:
    """Every query the table engines build compiles to a top-k plan:
    the pruned path serves it (no exhaustive fallback) and matches the
    exhaustive oracle bit for bit."""

    def assert_served_by_plan(self, engine, query):
        searcher = engine.searcher
        result = run_top_k(engine.index, searcher.similarity, query, 10)
        assert result is not None, query
        oracle = searcher.search_exhaustive(query, 10)
        assert result.ranked == [(hit.doc_id, hit.score)
                                 for hit in oracle]
        assert result.total_hits == oracle.total_hits

    def test_keyword_queries(self, segmented_result):
        for name in IndexName.LADDER:
            engine = segmented_result.engine(name)
            for query in (*TABLE3_QUERIES, *TABLE6_QUERIES):
                self.assert_served_by_plan(
                    engine, engine.build_query(query.keywords))

    def test_phrasal_queries(self, segmented_result):
        phrasal = segmented_result.engine(IndexName.PHR_EXP)
        for query in (*TABLE3_QUERIES, *TABLE6_QUERIES):
            self.assert_served_by_plan(
                phrasal.engine, phrasal.build_query(query.keywords))
