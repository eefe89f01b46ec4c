"""Segment lifecycle: atomic manifest commits, tiered merges, vacuum.

The crash-safety contract under test: the manifest is the only
mutable state, and committing one is a single atomic rename — so a
crash at *any* point between sealing segment files and committing the
manifest that references them leaves the directory serving exactly
the previously committed state.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.search.index import (InvertedIndex, IndexDirectory,
                                SegmentedIndex, write_segment)
from repro.search.index.segments import SEGMENTS_PREFIX
from repro.search.query.queries import TermQuery
from repro.search.searcher import IndexSearcher


def tiny_index(seed: int, docs: int = 3,
               name: str = "demo") -> InvertedIndex:
    rng = random.Random(seed)
    index = InvertedIndex(name)
    for _ in range(docs):
        doc_id = index.new_doc_id()
        index.index_terms(
            doc_id, "f",
            [(rng.choice(["goal", "foul", "pass"]), position)
             for position in range(rng.randint(1, 4))])
        index.store_value(doc_id, "doc_key", f"d{doc_id}")
    return index


class TestAtomicCommit:
    def test_sealed_but_uncommitted_segment_is_invisible(self, tmp_path):
        directory = IndexDirectory(tmp_path / "demo.segd", name="demo")
        committed = directory.add_index(tiny_index(1))
        # crash window: the next segment is sealed, the manifest never
        # lands.  Readers must keep serving the old manifest.
        directory.seal(tiny_index(2))
        reopened = IndexDirectory(tmp_path / "demo.segd")
        assert reopened.read_manifest() == committed
        with SegmentedIndex(reopened) as index:
            assert index.doc_count == 3
            assert index.generation == committed.generation

    def test_torn_manifest_is_skipped(self, tmp_path):
        directory = IndexDirectory(tmp_path / "demo.segd", name="demo")
        committed = directory.add_index(tiny_index(1))
        torn = directory.path / f"{SEGMENTS_PREFIX}2"
        torn.write_text('{"format": "repro.segments/v1", "gen')
        assert IndexDirectory(directory.path).read_manifest() == committed

    def test_generation_is_monotonic_and_counter_never_reused(
            self, tmp_path):
        directory = IndexDirectory(tmp_path / "demo.segd", name="demo")
        seen_files = set()
        for seed in range(4):
            manifest = directory.add_index(tiny_index(seed))
            assert manifest.generation == seed + 1
            new = {info.file for info in manifest.segments} - seen_files
            assert len(new) == 1
            seen_files |= new
        directory.merge(force=True)
        merged = directory.manifest()
        assert merged.generation == 5
        assert {info.file for info in merged.segments}.isdisjoint(
            seen_files)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_crash_anywhere_preserves_committed_state(self, data,
                                                      tmp_path_factory):
        """Property: committed chunks + arbitrary crash debris
        (orphan segments, torn manifests, leftover temp files) always
        reopen at the last committed manifest, bit-for-bit."""
        root = tmp_path_factory.mktemp("crash") / "demo.segd"
        directory = IndexDirectory(root, name="demo")
        chunk_count = data.draw(st.integers(1, 4), label="chunks")
        union = InvertedIndex("demo")
        for seed in range(chunk_count):
            chunk = tiny_index(seed,
                               docs=data.draw(st.integers(1, 4),
                                              label=f"docs{seed}"))
            union.merge(chunk)
            committed = directory.add_index(chunk)

        debris = data.draw(st.lists(
            st.sampled_from(["orphan", "torn", "tmp"]), max_size=3),
            label="debris")
        for kind in debris:
            if kind == "orphan":
                directory.seal(tiny_index(99))
            elif kind == "torn":
                generation = committed.generation \
                    + data.draw(st.integers(1, 3), label="torn_gen")
                (root / f"{SEGMENTS_PREFIX}{generation}").write_bytes(
                    data.draw(st.binary(max_size=40), label="garbage"))
            else:
                (root / "seg_0000009999.ridx.tmp").write_bytes(b"junk")

        reopened = IndexDirectory(root)
        assert reopened.read_manifest() == committed
        with SegmentedIndex(reopened) as index:
            assert index.doc_count == union.doc_count
            assert index.to_inverted().to_json() == union.to_json()


class TestTieredMerge:
    def build(self, tmp_path, chunk_docs):
        directory = IndexDirectory(tmp_path / "demo.segd", name="demo")
        for seed, docs in enumerate(chunk_docs):
            directory.add_index(tiny_index(seed, docs=docs))
        return directory

    def test_no_merge_below_factor(self, tmp_path):
        directory = self.build(tmp_path, [2, 2, 2])
        assert directory.plan_merges(merge_factor=8) == []
        assert directory.merge(merge_factor=8) == 0

    def test_same_tier_run_merges(self, tmp_path):
        directory = self.build(tmp_path, [2] * 8)
        assert directory.plan_merges(merge_factor=8) == [(0, 8)]
        assert directory.merge(merge_factor=8) == 1
        assert len(directory.manifest().segments) == 1

    def test_only_adjacent_same_tier_segments_merge(self, tmp_path):
        # a big segment in the middle splits the small-tier run
        directory = self.build(tmp_path, [2, 2, 300, 2, 2])
        assert directory.plan_merges(merge_factor=2) == [(0, 2), (3, 5)]

    def test_bad_merge_factor_rejected(self, tmp_path):
        directory = self.build(tmp_path, [2, 2])
        with pytest.raises(IndexError_):
            directory.plan_merges(merge_factor=1)

    def test_forced_merge_output_is_byte_identical_to_union(
            self, tmp_path):
        chunk_docs = [3, 5, 2, 4]
        directory = self.build(tmp_path, chunk_docs)
        union = InvertedIndex("demo")
        for seed, docs in enumerate(chunk_docs):
            union.merge(tiny_index(seed, docs=docs))
        assert directory.merge(force=True) == 1
        manifest = directory.manifest()
        assert len(manifest.segments) == 1
        merged_bytes = (directory.path
                        / manifest.segments[0].file).read_bytes()
        oracle = write_segment(union, tmp_path / "oracle.ridx")
        assert merged_bytes == oracle.read_bytes()

    def test_merge_preserves_search_results(self, tmp_path):
        directory = self.build(tmp_path, [3, 4, 5])
        index = SegmentedIndex(directory)
        searcher = IndexSearcher(index)
        query = TermQuery("f", "goal")
        before = [(h.doc_id, h.score)
                  for h in searcher.search(query, 10)]
        directory.merge(force=True)
        assert index.refresh()
        assert index.segment_count == 1
        after = [(h.doc_id, h.score)
                 for h in searcher.search(query, 10)]
        assert after == before
        index.close()


class TestVacuum:
    def test_vacuum_sweeps_orphans_and_old_manifests(self, tmp_path):
        directory = IndexDirectory(tmp_path / "demo.segd", name="demo")
        for seed in range(3):
            directory.add_index(tiny_index(seed))
        directory.seal(tiny_index(77))          # orphan
        directory.merge(force=True)
        deleted = directory.vacuum()
        # 3 merged-away segments + 1 orphan + 3 old manifests
        assert len(deleted) == 7
        live = directory.manifest()
        remaining = sorted(p.name for p in directory.path.iterdir())
        assert remaining == sorted(
            [live.segments[0].file,
             f"{SEGMENTS_PREFIX}{live.generation}"])
        with SegmentedIndex(directory) as index:
            assert index.doc_count == 9


class TestConcurrentMutators:
    """A live ingest (``add_index``) and the maintenance merge
    (``merge`` + ``vacuum``) share one directory.  Both read, modify
    and commit the manifest and allocate segment names, so unless they
    serialize, a merge can commit a manifest planned before an ingest
    landed — dropping the ingested segment, which vacuum then
    deletes."""

    def test_ingest_racing_merge_and_vacuum_loses_nothing(self, tmp_path):
        directory = IndexDirectory(tmp_path / "race.segd", name="race")
        errors = []
        added = []
        ingest_done = threading.Event()

        def ingest():
            try:
                for number in range(40):
                    chunk = InvertedIndex("race")
                    doc_id = chunk.new_doc_id()
                    chunk.index_terms(doc_id, "f", [("goal", 0)])
                    chunk.store_value(doc_id, "doc_key", f"doc-{number}")
                    directory.add_index(chunk)
                    added.append(f"doc-{number}")
            except Exception as error:   # noqa: BLE001 — asserted below
                errors.append(error)
            finally:
                ingest_done.set()

        def maintain():
            try:
                while not ingest_done.is_set():
                    directory.merge(merge_factor=2)
                    directory.vacuum()
            except Exception as error:   # noqa: BLE001 — asserted below
                errors.append(error)

        threads = [threading.Thread(target=ingest),
                   threading.Thread(target=maintain)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(added) == 40
        with SegmentedIndex(directory) as index:
            keys = sorted(index.stored_value(doc_id, "doc_key")
                          for doc_id in range(index.doc_count))
            assert keys == sorted(added)
            top = IndexSearcher(index, cache_size=0).search(
                TermQuery("f", "goal"), 100)
            assert top.total_hits == 40


class TestCacheInvalidation:
    def test_merge_bumps_generation_and_invalidates_cache(
            self, tmp_path):
        directory = IndexDirectory(tmp_path / "demo.segd", name="demo")
        for seed in range(3):
            directory.add_index(tiny_index(seed))
        index = SegmentedIndex(directory)
        searcher = IndexSearcher(index)
        query = TermQuery("f", "goal")
        first = searcher.search(query, 5)
        assert not first.cached
        assert searcher.search(query, 5).cached

        old_generation = index.generation
        directory.merge(force=True)
        index.refresh()
        assert index.generation > old_generation
        post_merge = searcher.search(query, 5)
        assert not post_merge.cached      # new generation, new key
        assert [(h.doc_id, h.score) for h in post_merge] \
            == [(h.doc_id, h.score) for h in first]
        index.close()
