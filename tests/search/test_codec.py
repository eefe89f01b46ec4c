"""The on-disk format: segment round trip, format checks, varints."""

from __future__ import annotations

import json
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.search.index import (InvertedIndex, list_indexes, load_index,
                                save_index)
from repro.search.index import codec
from repro.search.index.segment import SEGMENT_SUFFIX, SEGMENT_VERSION
from repro.search.query.queries import TermQuery
from repro.search.searcher import IndexSearcher
from repro.search.similarity import ClassicSimilarity


def _unzigzag(value: int) -> int:
    """Inverse of ``codec._zigzag`` (the segment reader inlines it)."""
    return (value >> 1) ^ -(value & 1)


def sample_index(seed: int = 7, docs: int = 30) -> InvertedIndex:
    rng = random.Random(seed)
    vocab = ["goal", "foul", "messi", "pass", "Zürich", "corner"]
    index = InvertedIndex("demo")
    for _ in range(docs):
        doc_id = index.new_doc_id()
        index.index_terms(
            doc_id, "event",
            [(rng.choice(vocab), p) for p in range(rng.randint(1, 5))],
            boost=rng.choice([1.0, 2.0]))
        if rng.random() < 0.8:
            index.index_terms(
                doc_id, "narration",
                [(rng.choice(vocab), p)
                 for p in range(rng.randint(1, 8))])
        index.store_value(doc_id, "doc_key", f"doc-{doc_id}")
    return index


class TestRoundTrip:
    """``save_index`` seals one segment; ``load_index`` serves it."""

    def test_binary_equals_json_semantics(self, tmp_path):
        index = sample_index()
        save_index(index, tmp_path)
        with load_index(tmp_path, "demo") as loaded:
            assert loaded.to_inverted().to_json() == index.to_json()

    def test_search_results_identical_across_formats(self, tmp_path):
        index = sample_index()
        save_index(index, tmp_path)
        from_json = InvertedIndex.from_json(index.to_json())
        query = TermQuery("event", "goal")
        oracle = IndexSearcher(index, ClassicSimilarity()
                               ).search_exhaustive(query, 10)
        with load_index(tmp_path, "demo") as from_segments:
            for source in (from_json, from_segments):
                searcher = IndexSearcher(source, ClassicSimilarity())
                top = searcher.search(query, 10)
                assert [(h.doc_id, h.score) for h in top] \
                    == [(h.doc_id, h.score) for h in oracle]

    def test_postings_statistics_survive(self, tmp_path):
        index = sample_index()
        save_index(index, tmp_path)
        with load_index(tmp_path, "demo") as loaded:
            original = index.postings("event", "goal")
            round_tripped = loaded.postings("event", "goal")
            assert round_tripped.max_frequency == original.max_frequency
            assert round_tripped.total_frequency \
                == original.total_frequency
            assert loaded.max_field_boost("event") \
                == index.max_field_boost("event")

    def test_binary_is_smaller(self, tmp_path):
        index = sample_index(docs=200)
        segment_dir = save_index(index, tmp_path)
        on_disk = sum(entry.stat().st_size
                      for entry in segment_dir.iterdir())
        as_json = json.dumps(index.to_json(), ensure_ascii=False)
        assert on_disk < len(as_json.encode("utf-8"))


class TestFormatHandling:
    def test_binary_preferred_when_both_exist(self, tmp_path):
        # a legacy JSON file next to the segment directory is ignored
        index = sample_index()
        (tmp_path / "demo.json").write_text(json.dumps(index.to_json()))
        save_index(index, tmp_path)
        assert list_indexes(tmp_path) == ["demo"]
        with load_index(tmp_path, "demo") as loaded:
            assert loaded.to_inverted().to_json() == index.to_json()

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(IndexError_, match="no index"):
            load_index(tmp_path, "absent")

    def test_bad_magic_rejected(self, tmp_path):
        segment = self._only_segment(tmp_path)
        segment.write_bytes(b"JSON" + segment.read_bytes()[4:])
        with pytest.raises(IndexError_, match="bad magic"):
            load_index(tmp_path, "demo")

    def test_future_version_rejected(self, tmp_path):
        segment = self._only_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[4] = SEGMENT_VERSION + 1
        segment.write_bytes(bytes(data))
        with pytest.raises(IndexError_, match="unsupported segment "
                                              "version"):
            load_index(tmp_path, "demo")

    def test_header_length_matches_struct(self, tmp_path):
        # pin the on-disk prelude: magic, version byte, u32 LE length
        raw = self._only_segment(tmp_path).read_bytes()
        assert raw[:4] == codec.MAGIC == b"RIDX"
        assert raw[4] == SEGMENT_VERSION
        (header_length,) = struct.unpack_from("<I", raw, 5)
        assert raw[9:9 + header_length].lstrip().startswith(b"{")

    @staticmethod
    def _only_segment(tmp_path):
        segment_dir = save_index(sample_index(), tmp_path)
        (segment,) = segment_dir.glob(f"seg_*{SEGMENT_SUFFIX}")
        return segment


class TestVarintPrimitives:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 21,
                                       2 ** 40])
    def test_uvarint_round_trip(self, value):
        import io
        out = io.BytesIO()
        codec._write_uvarint(out, value)
        decoded, end = codec._read_uvarint(out.getvalue(), 0)
        assert decoded == value
        assert end == len(out.getvalue())

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 1000, -1000])
    def test_zigzag_round_trip(self, value):
        assert _unzigzag(codec._zigzag(value)) == value

    @pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63),
                                       2 ** 63 - 1, -(2 ** 63) + 1,
                                       2 ** 64, 2 ** 100, -(2 ** 100)])
    def test_zigzag_has_no_width_assumption(self, value):
        # Python ints are arbitrary-precision; the encoding must not
        # bake in a 64-bit word (the C-style ``x >> 63`` sign trick
        # silently corrupts every non-negative value >= 2**63)
        encoded = codec._zigzag(value)
        assert encoded >= 0
        assert _unzigzag(encoded) == value

    @given(st.integers())
    def test_zigzag_round_trips_any_int(self, value):
        encoded = codec._zigzag(value)
        assert encoded >= 0            # varint-encodable
        assert _unzigzag(encoded) == value

    @given(st.integers())
    def test_zigzag_orders_by_magnitude(self, value):
        # the point of zigzag: small magnitudes get small codes
        assert codec._zigzag(value) in (2 * abs(value),
                                        2 * abs(value) - 1)


class TestBulkVarintDecode:
    """decode_uvarints must agree with the scalar decoder on any
    varint stream and reject byte ranges cut mid-varint."""

    def encode(self, values):
        import io
        out = io.BytesIO()
        for value in values:
            codec._write_uvarint(out, value)
        return out.getvalue()

    def test_matches_scalar_decoder_on_random_streams(self):
        rng = random.Random(99)
        for _ in range(25):
            values = [rng.randint(0, 2 ** rng.randint(1, 45))
                      for _ in range(rng.randint(0, 200))]
            data = self.encode(values)
            assert codec.decode_uvarints(data, 0, len(data)) == values
            scalar = []
            pos = 0
            while pos < len(data):
                value, pos = codec._read_uvarint(data, pos)
                scalar.append(value)
            assert scalar == values

    def test_subrange_with_offsets(self):
        prefix = self.encode([7, 300])
        body = self.encode([0, 127, 128, 2 ** 30])
        data = prefix + body + self.encode([5])
        assert codec.decode_uvarints(
            data, len(prefix), len(prefix) + len(body)) \
            == [0, 127, 128, 2 ** 30]

    def test_empty_range(self):
        assert codec.decode_uvarints(b"anything", 3, 3) == []

    def test_truncated_stream_raises(self):
        data = self.encode([2 ** 30])
        assert len(data) > 1
        with pytest.raises(ValueError, match="inside a varint"):
            codec.decode_uvarints(data, 0, len(data) - 1)

    @pytest.mark.parametrize("pos,end", [(0, 9), (5, 9), (-1, 4),
                                         (3, 2)])
    def test_overrunning_range_raises_value_error(self, pos, end):
        # a [pos, end) range that does not fit the buffer is the
        # *caller's* bug and must surface as the documented
        # ValueError, not as a bare IndexError from running off the
        # end of ``data`` mid-decode
        data = self.encode([1, 2, 3, 4])
        assert len(data) == 4
        with pytest.raises(ValueError, match="does not fit"):
            codec.decode_uvarints(data, pos, end)

    def test_overrun_with_continuation_bytes_still_value_error(self):
        # every in-range byte has the continuation bit set, so the old
        # code walked past ``end`` and raised IndexError at len(data)
        data = bytes([0x80, 0x80, 0x80])
        with pytest.raises(ValueError):
            codec.decode_uvarints(data, 0, len(data) + 2)

    def test_works_on_memoryview_and_mmap_like_buffers(self):
        values = [1, 128, 2 ** 21]
        data = self.encode(values)
        assert codec.decode_uvarints(memoryview(data), 0,
                                     len(data)) == values
