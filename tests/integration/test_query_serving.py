"""Serving-path parity on the golden query sets.

The Table 4–6 numbers are pinned in test_golden_numbers.py; these
tests pin the *serving machinery* underneath them: for every golden
query, the pruned top-k path, the query result cache, and the saved
on-disk form must all reproduce the in-memory ranking bit for bit.
Any divergence here would silently corrupt the tables.
"""

from __future__ import annotations

import pytest

from repro.core import IndexName, KeywordSearchEngine
from repro.core.phrasal import PhrasalSearchEngine
from repro.evaluation.queries import TABLE3_QUERIES, TABLE6_QUERIES
from repro.search.index import load_index, save_index


def ranking(hits):
    return [(hit.doc_key, hit.score) for hit in hits]


@pytest.fixture(scope="module")
def keyword_engine(pipeline_result):
    return pipeline_result.engines[IndexName.FULL_INF]


class TestPrunedGoldenParity:
    """search(limit=k) == exhaustive oracle on every Table 3 query."""

    @pytest.mark.parametrize("query_id",
                             [q.query_id for q in TABLE3_QUERIES])
    @pytest.mark.parametrize("limit", [1, 10])
    def test_table3_pruned_matches_exhaustive(self, keyword_engine,
                                              query_id, limit):
        query = next(q for q in TABLE3_QUERIES
                     if q.query_id == query_id)
        tree = keyword_engine.build_query(query.keywords)
        searcher = keyword_engine.searcher
        pruned = searcher.search(tree, limit)
        oracle = searcher.search_exhaustive(tree, limit)
        assert [(h.doc_id, h.score) for h in pruned] \
            == [(h.doc_id, h.score) for h in oracle]
        assert pruned.total_hits == oracle.total_hits

    def test_cache_on_and_off_agree(self, pipeline_result):
        index = pipeline_result.index(IndexName.FULL_INF)
        cached = KeywordSearchEngine(index)
        uncached = KeywordSearchEngine(index, cache_size=0)
        for query in TABLE3_QUERIES:
            first = ranking(cached.search(query.keywords, limit=10))
            second = ranking(cached.search(query.keywords, limit=10))
            cold = ranking(uncached.search(query.keywords, limit=10))
            assert first == second == cold
        info = cached.cache_info()
        assert info.hits == len(TABLE3_QUERIES)
        assert uncached.cache_info().currsize == 0


class TestBinaryFormatGoldenParity:
    """save_index → load_index (one sealed segment per index) serves
    the in-memory pipeline result's rankings bit for bit."""

    @pytest.fixture(scope="class")
    def reloaded(self, pipeline_result, tmp_path_factory):
        directory = tmp_path_factory.mktemp("indexes")
        out = {}
        for name in (IndexName.FULL_INF, IndexName.PHR_EXP):
            index = pipeline_result.index(name)
            save_index(index, directory)
            out[name] = (index, load_index(directory, name))
        yield out
        for _, loaded in out.values():
            loaded.close()

    def test_table3_rankings_identical(self, reloaded):
        in_memory, loaded = reloaded[IndexName.FULL_INF]
        engine_memory = KeywordSearchEngine(in_memory)
        engine_loaded = KeywordSearchEngine(loaded)
        for query in TABLE3_QUERIES:
            assert ranking(engine_loaded.search(query.keywords)) \
                == ranking(engine_memory.search(query.keywords))

    def test_table6_rankings_identical(self, reloaded):
        in_memory, loaded = reloaded[IndexName.PHR_EXP]
        engine_memory = PhrasalSearchEngine(in_memory)
        engine_loaded = PhrasalSearchEngine(loaded)
        for query in TABLE6_QUERIES:
            assert ranking(engine_loaded.search(query.keywords)) \
                == ranking(engine_memory.search(query.keywords))

    def test_round_trip_preserves_index_json(self, reloaded):
        in_memory, loaded = reloaded[IndexName.FULL_INF]
        assert loaded.to_inverted().to_json() == in_memory.to_json()
