"""SegmentedIndex parity: scatter-gather serving == monolithic index.

A segmented index over chunks A+B+C must be indistinguishable from
one InvertedIndex built over the same documents: same doc ids, same
statistics, same scores (bit for bit, including tie order), same
total_hits — at every segment count, k and query shape.  The driver
may additionally skip whole segments whose score bound cannot reach
the heap; that must stay invisible in the results.
"""

from __future__ import annotations

import random

from repro.search.index import IndexDirectory, InvertedIndex, SegmentedIndex
from repro.search.query.queries import (BooleanQuery, DisMaxQuery, Occur,
                                        PhraseQuery, TermQuery)
from repro.search.searcher import IndexSearcher
from repro.search.similarity import BM25Similarity, ClassicSimilarity
from repro.search.topk import run_top_k

VOCAB = ["goal", "messi", "pass", "foul", "corner", "shot", "save"]
FIELDS = ["event", "narration", "player"]


def random_doc_specs(rng: random.Random, docs: int):
    """Doc blueprints fed identically to both index builds."""
    specs = []
    for _ in range(docs):
        fields = {}
        for field_name in FIELDS:
            terms = [(rng.choice(VOCAB), position)
                     for position in range(rng.randint(0, 6))]
            if terms:
                fields[field_name] = (terms,
                                      rng.choice([1.0, 1.0, 2.0]))
        specs.append(fields)
    return specs


def feed(index: InvertedIndex, specs, start: int = 0) -> None:
    for offset, fields in enumerate(specs):
        doc_id = index.new_doc_id()
        for field_name, (terms, boost) in fields.items():
            index.index_terms(doc_id, field_name, terms, boost=boost)
        index.store_value(doc_id, "doc_key", f"doc-{start + offset}")


def build_pair(rng: random.Random, docs: int, tmp_path):
    """A monolithic index and a segmented index over the same docs,
    split into 1–5 random contiguous chunks."""
    specs = random_doc_specs(rng, docs)
    mono = InvertedIndex("fuzz")
    feed(mono, specs)
    directory = IndexDirectory(tmp_path / f"fuzz{rng.random()}.segd",
                               name="fuzz")
    cuts = sorted(rng.sample(range(1, docs),
                             k=min(rng.randint(0, 4), docs - 1)))
    for start, end in zip([0, *cuts], [*cuts, docs]):
        chunk = InvertedIndex("fuzz")
        feed(chunk, specs[start:end], start=start)
        directory.add_index(chunk)
    return mono, SegmentedIndex(directory)


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


class TestReadApiParity:
    def test_statistics_and_stored_fields_match(self, tmp_path):
        rng = random.Random(11)
        mono, segmented = build_pair(rng, 40, tmp_path)
        with segmented:
            assert segmented.doc_count == mono.doc_count
            assert segmented.segment_count >= 1
            for field_name in FIELDS:
                assert sorted(segmented.terms(field_name)) \
                    == sorted(mono.terms(field_name))
                assert segmented.average_field_length(field_name) \
                    == mono.average_field_length(field_name)
                assert segmented.docs_with_field(field_name) \
                    == mono.docs_with_field(field_name)
                assert segmented.max_field_boost(field_name) \
                    == mono.max_field_boost(field_name)
                for term in mono.terms(field_name):
                    assert segmented.doc_frequency(field_name, term) \
                        == mono.doc_frequency(field_name, term)
                    ours = segmented.postings(field_name, term)
                    theirs = mono.postings(field_name, term)
                    assert ours.doc_ids() == theirs.doc_ids()
                    assert ours.doc_frequency == theirs.doc_frequency
                    assert ours.total_frequency \
                        == theirs.total_frequency
            for doc_id in range(mono.doc_count):
                assert segmented.stored_value(doc_id, "doc_key") \
                    == mono.stored_value(doc_id, "doc_key")
                for field_name in FIELDS:
                    assert segmented.field_length(field_name, doc_id) \
                        == mono.field_length(field_name, doc_id)
                    assert segmented.field_boost(field_name, doc_id) \
                        == mono.field_boost(field_name, doc_id)

    def test_to_inverted_round_trip(self, tmp_path):
        mono, segmented = build_pair(random.Random(5), 25, tmp_path)
        with segmented:
            assert segmented.to_inverted().to_json() == mono.to_json()


class TestSearchParity:
    """Scatter-gather top-k over segments == monolithic oracle."""

    def test_fuzz_bit_identical_rankings(self, tmp_path):
        rng = random.Random(1234)
        for trial in range(15):
            docs = rng.randint(5, 40)
            mono, segmented = build_pair(rng, docs, tmp_path)
            similarity = rng.choice([ClassicSimilarity(),
                                     BM25Similarity()])
            oracle = IndexSearcher(mono, similarity, cache_size=0)
            ours = IndexSearcher(segmented, similarity, cache_size=0)
            with segmented:
                for _ in range(8):
                    query = random_query(rng)
                    limit = rng.choice([1, 3, docs, docs + 7, None])
                    mine = ours.search(query, limit)
                    ref = oracle.search_exhaustive(query, limit)
                    assert [(h.doc_id, h.score) for h in mine] \
                        == [(h.doc_id, h.score) for h in ref], \
                        (trial, query, limit)
                    assert mine.total_hits == ref.total_hits

    def test_phrase_queries_match(self, tmp_path):
        rng = random.Random(99)
        mono, segmented = build_pair(rng, 30, tmp_path)
        query = PhraseQuery("narration", ["goal", "messi"])
        with segmented:
            mine = IndexSearcher(segmented).search(query, 10)
            ref = IndexSearcher(mono).search_exhaustive(query, 10)
            assert [(h.doc_id, h.score) for h in mine] \
                == [(h.doc_id, h.score) for h in ref]

    def test_explain_matches_monolithic(self, tmp_path):
        rng = random.Random(7)
        mono, segmented = build_pair(rng, 20, tmp_path)
        with segmented:
            for _ in range(5):
                query = random_query(rng)
                for doc_id in range(mono.doc_count):
                    assert IndexSearcher(segmented).explain(
                        query, doc_id) \
                        == IndexSearcher(mono).explain(query, doc_id)


class TestSegmentPruning:
    def build_skewed(self, tmp_path):
        """Segment 0 holds the only boosted doc; later segments'
        bounds (their local max boost) fall below the k=1 heap."""
        directory = IndexDirectory(tmp_path / "skew.segd", name="skew")
        hot = InvertedIndex("skew")
        doc_id = hot.new_doc_id()
        hot.index_terms(doc_id, "f", [("t", 0)], boost=4.0)
        directory.add_index(hot)
        for _ in range(3):
            cold = InvertedIndex("skew")
            doc_id = cold.new_doc_id()
            cold.index_terms(doc_id, "f", [("t", 0)])
            directory.add_index(cold)
        return directory

    def test_whole_segments_are_skipped_but_results_exact(
            self, tmp_path):
        directory = self.build_skewed(tmp_path)
        with SegmentedIndex(directory) as segmented:
            result = run_top_k(segmented, ClassicSimilarity(),
                               TermQuery("f", "t"), 1)
            assert result is not None
            assert result.segments_searched \
                + result.segments_pruned == 4
            assert result.segments_pruned > 0
            # pruned segments still count toward total_hits
            assert result.total_hits == 4
            assert [doc_id for doc_id, _ in result.ranked] == [0]
            oracle = IndexSearcher(segmented).search_exhaustive(
                TermQuery("f", "t"), 1)
            assert [(h.doc_id, h.score)
                    for h in IndexSearcher(segmented, cache_size=0)
                    .search(TermQuery("f", "t"), 1)] \
                == [(h.doc_id, h.score) for h in oracle]

    def test_monolithic_results_report_no_segments(self, tmp_path):
        index = InvertedIndex("plain")
        doc_id = index.new_doc_id()
        index.index_terms(doc_id, "f", [("t", 0)])
        result = run_top_k(index, ClassicSimilarity(),
                           TermQuery("f", "t"), 1)
        # an in-memory index is scanned as a single view of itself:
        # one segment searched, none pruned
        assert result.segments_searched == 1
        assert result.segments_pruned == 0


class TestPinnedRefreshRace:
    """Reading ``_state`` and pinning it are two separate steps, so a
    concurrent refresh can swap + retire the set in between; the old
    unconditional ``pin()`` would then hand the reader a segment set
    whose mmaps were already closed.  ``try_pin`` must refuse retired
    sets and ``pinned()`` must retry against the freshly swapped-in
    state."""

    def grow(self, segmented, rng, docs=5):
        """Commit one more segment so a newer manifest generation
        exists on disk."""
        chunk = InvertedIndex(segmented.name)
        feed(chunk, random_doc_specs(rng, docs), start=1000)
        segmented.directory.add_index(chunk)

    def test_try_pin_refuses_a_retired_set(self, tmp_path):
        rng = random.Random(3)
        _, segmented = build_pair(rng, 20, tmp_path)
        with segmented:
            old = segmented._state
            assert old.try_pin() is True
            old.unpin()
            self.grow(segmented, rng)
            assert segmented.refresh()
            # retired with zero pins: readers are closed, a late pin
            # must fail instead of handing out dead mmaps
            assert old.try_pin() is False

    def test_pinned_retries_past_a_racing_refresh(self, tmp_path,
                                                  monkeypatch):
        from repro.search.index.segments import _SegmentSet

        rng = random.Random(7)
        _, segmented = build_pair(rng, 20, tmp_path)
        with segmented:
            self.grow(segmented, rng)     # newer manifest, not yet live
            old = segmented._state
            real = _SegmentSet.try_pin
            fired = []

            def refresh_between_read_and_pin(state):
                # simulate losing the race: the refresh lands after
                # pinned() read self._state but before the pin
                if not fired:
                    fired.append(True)
                    assert segmented.refresh()
                return real(state)

            monkeypatch.setattr(_SegmentSet, "try_pin",
                                refresh_between_read_and_pin)
            with segmented.pinned() as state:
                assert state is not old
                assert state.generation == segmented.generation
                # reads serve from open mmaps of the new set
                assert state.doc_count == 25
            assert fired == [True]
