"""Pruned top-k scoring: bit-identical parity with the exhaustive path.

The MaxScore driver (repro.search.topk) may only ever *skip work*,
never change results: same documents, same order, same floats as
``IndexSearcher.search_exhaustive``.  These tests fuzz that invariant
across random indexes, query shapes, similarities and k values —
including equal-score tie groups, the classic early-termination
footgun — and pin the single-doc ``explain`` path to ``search``.
"""

from __future__ import annotations

import random

import pytest

from repro.search.index.inverted import InvertedIndex
from repro.search.query.queries import (BooleanQuery, DisMaxQuery, Occur,
                                        PhraseQuery, TermQuery)
from repro.search.searcher import IndexSearcher, rank_docs
from repro.search.similarity import BM25Similarity, ClassicSimilarity
from repro.search.topk import run_top_k

class CountingSimilarity(ClassicSimilarity):
    """Counts per-document scoring calls (batched or not)."""

    def __init__(self) -> None:
        self.calls = 0

    def score(self, *args) -> float:
        self.calls += 1
        return super().score(*args)

    def batch_score(self, doc_frequency, doc_count, average_field_length):
        inner = super().batch_score(doc_frequency, doc_count,
                                    average_field_length)

        def score(term_frequency, field_length):
            self.calls += 1
            return inner(term_frequency, field_length)
        return score


VOCAB = ["goal", "messi", "pass", "foul", "corner", "shot", "save"]
FIELDS = ["event", "narration", "player"]


def build_random_index(rng: random.Random, docs: int) -> InvertedIndex:
    index = InvertedIndex("fuzz")
    for _ in range(docs):
        doc_id = index.new_doc_id()
        for field_name in FIELDS:
            terms = [(rng.choice(VOCAB), position)
                     for position in range(rng.randint(0, 6))]
            if terms:
                index.index_terms(doc_id, field_name, terms,
                                  boost=rng.choice([1.0, 1.0, 2.0]))
        index.store_value(doc_id, "doc_key", f"doc-{doc_id}")
    return index


def random_query(rng: random.Random, depth: int = 0):
    kind = rng.choice(["term", "dismax", "bool"]) if depth < 2 else "term"
    if kind == "term":
        return TermQuery(rng.choice(FIELDS), rng.choice(VOCAB),
                         boost=rng.choice([1.0, 1.0, 3.0]))
    if kind == "dismax":
        return DisMaxQuery(
            [random_query(rng, depth + 1)
             for _ in range(rng.randint(1, 4))],
            tie_breaker=rng.choice([0.0, 0.1, 0.5, 1.0]),
            boost=rng.choice([1.0, 2.0]))
    query = BooleanQuery(boost=rng.choice([1.0, 1.5]))
    for _ in range(rng.randint(1, 4)):
        query.add(random_query(rng, depth + 1),
                  rng.choice([Occur.SHOULD, Occur.SHOULD, Occur.MUST,
                              Occur.MUST_NOT]))
    return query


def assert_parity(searcher: IndexSearcher, query, limit: int) -> None:
    pruned = searcher.search(query, limit)
    oracle = searcher.search_exhaustive(query, limit)
    assert [(h.doc_id, h.score) for h in pruned] \
        == [(h.doc_id, h.score) for h in oracle]
    assert pruned.total_hits == oracle.total_hits


class TestPrunedParity:
    """Exhaustive fuzz: pruned top-k == oracle, bit for bit."""

    @pytest.mark.parametrize("similarity",
                             [ClassicSimilarity(), BM25Similarity()],
                             ids=["classic", "bm25"])
    def test_random_queries_match_oracle(self, similarity):
        rng = random.Random(1234)
        for _ in range(60):
            index = build_random_index(rng, rng.randint(1, 25))
            searcher = IndexSearcher(index, similarity, cache_size=0)
            query = random_query(rng)
            for k in (1, 5, index.doc_count, index.doc_count + 3):
                assert_parity(searcher, query, k)

    def test_equal_score_tie_groups_never_pruned_apart(self):
        # identical documents -> every match scores identically; the
        # k cut must fall on ascending doc id exactly like the oracle
        index = InvertedIndex("ties")
        for _ in range(12):
            doc_id = index.new_doc_id()
            index.index_terms(doc_id, "event",
                              [("goal", 0), ("corner", 1)])
        searcher = IndexSearcher(index, ClassicSimilarity(), cache_size=0)
        query = DisMaxQuery([TermQuery("event", "goal"),
                             TermQuery("event", "corner")],
                            tie_breaker=0.3)
        for k in (1, 5, 12):
            top = searcher.search(query, k)
            assert top.doc_ids() == list(range(k))
            assert_parity(searcher, query, k)

    def test_unlimited_search_stays_exhaustive(self):
        rng = random.Random(7)
        index = build_random_index(rng, 10)
        searcher = IndexSearcher(index, ClassicSimilarity(), cache_size=0)
        top = searcher.search(random_query(rng), limit=None)
        assert not top.pruned

    def test_unsupported_query_types_fall_back(self):
        index = InvertedIndex("phrases")
        doc_id = index.new_doc_id()
        index.index_terms(doc_id, "narration",
                          [("great", 0), ("goal", 1)])
        query = PhraseQuery("narration", ["great", "goal"])
        assert run_top_k(index, ClassicSimilarity(), query, 5) is None
        searcher = IndexSearcher(index, ClassicSimilarity(), cache_size=0)
        top = searcher.search(query, limit=5)
        assert top.doc_ids() == [doc_id]
        assert not top.pruned


class TestPruningActuallyPrunes:
    def test_skips_postings_of_weak_clauses(self):
        # one rare high-impact term, one ubiquitous weak term: with
        # k=1 the weak clause's tail must not be fully scored
        index = InvertedIndex("skew")
        for i in range(400):
            doc_id = index.new_doc_id()
            terms = [("common", p) for p in range(1)]
            if i == 13:
                terms += [("rare", 5)] * 6
            index.index_terms(doc_id, "event",
                              [(t, p) for p, (t, _) in enumerate(terms)])
        searcher = IndexSearcher(index, ClassicSimilarity(), cache_size=0)
        query = DisMaxQuery([TermQuery("event", "rare", boost=5.0),
                             TermQuery("event", "common")])
        result = run_top_k(index, searcher.similarity, query, 1)
        assert result is not None and result.pruned
        assert result.candidates_scored < index.doc_count
        assert result.postings_scanned < 2 * index.doc_count
        assert_parity(searcher, query, 1)


class TestExplain:
    def test_explain_matches_search_scores(self):
        rng = random.Random(99)
        index = build_random_index(rng, 20)
        searcher = IndexSearcher(index, ClassicSimilarity(), cache_size=0)
        for _ in range(20):
            query = random_query(rng)
            top = searcher.search(query, limit=index.doc_count)
            for hit in top:
                assert searcher.explain(query, hit.doc_id) == hit.score
            missing = set(range(index.doc_count)) - set(top.doc_ids())
            for doc_id in sorted(missing)[:3]:
                assert searcher.explain(query, doc_id) == 0.0

    def test_explain_does_not_score_other_documents(self):
        index = InvertedIndex("explain")
        for _ in range(50):
            doc_id = index.new_doc_id()
            index.index_terms(doc_id, "event", [("goal", 0)])
        similarity = CountingSimilarity()
        searcher = IndexSearcher(index, similarity, cache_size=0)
        query = TermQuery("event", "goal")
        score = searcher.explain(query, 7)
        # one explained document -> one posting scored, not fifty
        assert similarity.calls == 1
        assert score == searcher.search_exhaustive(query, 1).scored[0].score


class TestBoundedRankDocs:
    def test_heap_select_equals_full_sort(self):
        rng = random.Random(5)
        scores = {doc: rng.choice([0.5, 1.0, 2.0])
                  for doc in range(200)}
        full = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        for limit in (0, 1, 7, 199, 200, 500):
            assert rank_docs(scores, limit) == full[:limit]
        assert rank_docs(scores) == full

    def test_empty_and_zero_limit(self):
        assert rank_docs({}, 5) == []
        assert rank_docs({5: 1.0}, 0) == []
