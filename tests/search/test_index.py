"""Tests for documents, the inverted index, writer and persistence."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import IndexError_
from repro.search import (Document, Field, IndexWriter, InvertedIndex,
                          PerFieldAnalyzer, KeywordAnalyzer,
                          SimpleAnalyzer, StandardAnalyzer, load_index,
                          save_index)


class TestDocument:
    def test_add_and_get(self):
        doc = Document().add_text("title", "hello")
        assert doc.get("title") == "hello"

    def test_get_missing_is_none(self):
        assert Document().get("nope") is None

    def test_multi_valued_fields(self):
        doc = Document()
        doc.add(Field("tag", "a"))
        doc.add(Field("tag", "b"))
        assert doc.values("tag") == ["a", "b"]
        assert doc.get("tag") == "a"

    def test_field_names_ordered_unique(self):
        doc = Document([Field("a", "1"), Field("b", "2"), Field("a", "3")])
        assert doc.field_names() == ["a", "b"]

    def test_field_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Field("", "x")

    def test_field_rejects_non_positive_boost(self):
        with pytest.raises(ValueError):
            Field("f", "x", boost=0)

    def test_field_coerces_value_to_str(self):
        assert Field("minute", 42).value == "42"


@pytest.fixture
def index():
    idx = InvertedIndex("test")
    writer = IndexWriter(idx, SimpleAnalyzer())
    docs = [
        {"body": "messi scores a goal", "event": "goal"},
        {"body": "cech saves from messi", "event": "save"},
        {"body": "ballack fouls busquets", "event": "foul"},
    ]
    for raw in docs:
        doc = Document()
        for name, value in raw.items():
            doc.add(Field(name, value))
        writer.add_document(doc)
    return idx


class TestInvertedIndex:
    def test_doc_count(self, index):
        assert index.doc_count == 3

    def test_postings(self, index):
        postings = index.postings("body", "messi")
        assert postings.doc_frequency == 2
        assert [p.doc_id for p in postings] == [0, 1]

    def test_positions_recorded(self, index):
        posting = index.postings("body", "goal").get(0)
        assert posting.positions == [3]

    def test_doc_frequency_missing_term(self, index):
        assert index.doc_frequency("body", "zidane") == 0

    def test_terms_sorted(self, index):
        terms = list(index.terms("event"))
        assert terms == sorted(terms)

    def test_terms_with_prefix(self, index):
        assert list(index.terms_with_prefix("body", "mes")) == ["messi"]

    def test_field_length(self, index):
        assert index.field_length("body", 0) == 4
        assert index.field_length("event", 0) == 1

    def test_average_field_length(self, index):
        assert index.average_field_length("event") == 1.0

    def test_stored_document_roundtrip(self, index):
        doc = index.stored_document(1)
        assert doc.get("event") == "save"

    def test_stored_value(self, index):
        assert index.stored_value(2, "event") == "foul"

    def test_unknown_doc_raises(self, index):
        with pytest.raises(IndexError_):
            index.stored_document(99)

    def test_unique_term_count(self, index):
        assert index.unique_term_count("event") == 3

    def test_index_terms_unknown_doc_raises(self, index):
        with pytest.raises(IndexError_):
            index.index_terms(42, "body", [("x", 0)])


class TestWriter:
    def test_unindexed_field_not_searchable_but_stored(self):
        idx = InvertedIndex()
        writer = IndexWriter(idx, SimpleAnalyzer())
        doc = Document([Field("secret", "hidden", indexed=False)])
        writer.add_document(doc)
        assert idx.postings("secret", "hidden") is None
        assert idx.stored_value(0, "secret") == "hidden"

    def test_unstored_field_searchable_but_not_retrievable(self):
        idx = InvertedIndex()
        writer = IndexWriter(idx, SimpleAnalyzer())
        writer.add_document(Document([Field("body", "findme",
                                            stored=False)]))
        assert idx.postings("body", "findme") is not None
        assert idx.stored_value(0, "body") is None

    def test_per_field_analyzers(self):
        idx = InvertedIndex()
        analyzer = PerFieldAnalyzer(
            default=StandardAnalyzer(),
            per_field={"id": KeywordAnalyzer()})
        writer = IndexWriter(idx, analyzer)
        writer.add_document(Document([Field("id", "Event 42"),
                                      Field("body", "Scores!")]))
        assert idx.postings("id", "event 42") is not None
        assert idx.postings("body", "score") is not None

    def test_boost_recorded(self):
        idx = InvertedIndex()
        writer = IndexWriter(idx, SimpleAnalyzer())
        writer.add_document(Document([Field("event", "goal", boost=4.0)]))
        writer.add_document(Document([Field("event", "goal")]))
        assert idx.field_boost("event", 0) == 4.0
        assert idx.field_boost("event", 1) == 1.0

    def test_add_documents_bulk(self, index):
        writer = IndexWriter(index, SimpleAnalyzer())
        count = writer.add_documents(
            Document([Field("body", f"doc {i}")]) for i in range(5))
        assert count == 5
        assert index.doc_count == 8


class TestPersistence:
    def test_roundtrip(self, index, tmp_path):
        path = save_index(index, tmp_path)
        assert path.exists()
        loaded = load_index(tmp_path, "test")
        assert loaded.doc_count == index.doc_count
        assert loaded.postings("body", "messi").doc_frequency == 2
        assert loaded.stored_value(0, "event") == "goal"

    def test_boosts_and_lengths_survive(self, tmp_path):
        idx = InvertedIndex("boosted")
        writer = IndexWriter(idx, SimpleAnalyzer())
        writer.add_document(Document([Field("event", "goal", boost=6.0)]))
        save_index(idx, tmp_path)
        loaded = load_index(tmp_path, "boosted")
        assert loaded.field_boost("event", 0) == 6.0
        assert loaded.field_length("event", 0) == 1

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(IndexError_):
            load_index(tmp_path, "ghost")

    def test_list_indexes(self, index, tmp_path):
        from repro.search.index import list_indexes
        assert list_indexes(tmp_path) == []
        save_index(index, tmp_path)
        assert list_indexes(tmp_path) == ["test"]

    def test_saving_twice_replaces_the_index(self, index, tmp_path):
        save_index(index, tmp_path)
        path = save_index(index, tmp_path)
        with load_index(tmp_path, "test") as loaded:
            assert loaded.doc_count == index.doc_count
            assert loaded.segment_count == 1
        # the superseded segment and manifest are gone from disk
        assert len(list(path.glob("seg_*"))) == 1
        assert len(list(path.glob("segments_*"))) == 1

    @pytest.mark.parametrize("suffix", [".json", ".ridx"])
    def test_legacy_file_raises_rebuild_hint(self, tmp_path, suffix):
        from repro.search.index import list_indexes
        legacy = tmp_path / f"test{suffix}"
        legacy.write_text("{}")
        assert list_indexes(tmp_path) == []
        with pytest.raises(IndexError_) as caught:
            load_index(tmp_path, "test")
        message = str(caught.value)
        assert str(legacy) in message
        assert f"repro build -d {tmp_path}" in message


class TestPropertyBased:
    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4),
                    min_size=1, max_size=20))
    def test_field_length_equals_token_count(self, words):
        idx = InvertedIndex()
        writer = IndexWriter(idx, SimpleAnalyzer())
        writer.add_document(Document([Field("body", " ".join(words))]))
        assert idx.field_length("body", 0) == len(words)

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4),
                    min_size=1, max_size=20))
    def test_every_token_findable(self, words):
        idx = InvertedIndex()
        writer = IndexWriter(idx, SimpleAnalyzer())
        writer.add_document(Document([Field("body", " ".join(words))]))
        for word in words:
            assert idx.postings("body", word) is not None

    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=5),
                    min_size=1, max_size=12))
    def test_json_roundtrip_preserves_postings(self, words):
        idx = InvertedIndex()
        writer = IndexWriter(idx, SimpleAnalyzer())
        writer.add_document(Document([Field("body", " ".join(words))]))
        clone = InvertedIndex.from_json(idx.to_json())
        for word in set(words):
            original = idx.postings("body", word).get(0).positions
            restored = clone.postings("body", word).get(0).positions
            assert original == restored
