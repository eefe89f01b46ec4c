"""The inverted index structure.

Per field, a term dictionary maps each term to a
:class:`~repro.search.index.postings.PostingsList`; alongside it the
index keeps per-document field lengths (for length normalization),
index-time field boosts, and the stored document values.  This is the
"single special inverted index structure" that gives the paper its
query-time scalability (§1, §3.6).

This is the in-memory write buffer: :class:`IndexWriter` fills it,
the pipeline and the golden tables search it in process, and
:func:`~repro.search.index.segment.write_segment` seals it into the
one persisted form, an immutable segment (see
:mod:`repro.search.index.directory`).  ``to_json``/``from_json`` stay
as a plain-data export that tests use as an oracle.

A **generation counter** (:attr:`InvertedIndex.generation`) is bumped
on every mutation — documents added, terms indexed, values stored,
indexes merged.  Query-side caches (the searcher's result cache, the
memoized per-field average lengths) key on it, so any write
invalidates them without explicit notification.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import IndexError_
from repro.search.document import Document, Field
from repro.search.index.postings import PostingsList

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """In-memory inverted index over multi-field documents."""

    def __init__(self, name: str = "index") -> None:
        self.name = name
        # field -> term -> postings
        self._terms: Dict[str, Dict[str, PostingsList]] = {}
        # field -> doc_id -> token count
        self._lengths: Dict[str, Dict[int, int]] = {}
        # field -> doc_id -> index-time boost
        self._boosts: Dict[str, Dict[int, float]] = {}
        # doc_id -> field name -> stored values
        self._stored: List[Dict[str, List[str]]] = []
        # every field seen at write time (indexed or stored), so
        # field_names() never has to rescan the stored documents
        self._field_names: Set[str] = set()
        # bumped on every mutation; caches key on it
        self._generation = 0
        # field -> (generation, average length) memo
        self._avg_length_cache: Dict[str, Tuple[int, float]] = {}
        # field -> highest index-time boost seen (>= 1.0), for the
        # top-k score upper bounds
        self._max_boosts: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def new_doc_id(self) -> int:
        self._stored.append({})
        self._generation += 1
        return len(self._stored) - 1

    def index_terms(self, doc_id: int, field_name: str,
                    terms_with_positions: List[Tuple[str, int]],
                    boost: float = 1.0) -> None:
        """Add analyzed terms of one document field."""
        if not 0 <= doc_id < len(self._stored):
            raise IndexError_(f"unknown doc_id {doc_id}")
        self._field_names.add(field_name)
        self._generation += 1
        field_terms = self._terms.setdefault(field_name, {})
        for term, position in terms_with_positions:
            postings = field_terms.get(term)
            if postings is None:
                postings = PostingsList()
                field_terms[term] = postings
            postings.add_occurrence(doc_id, position)
        lengths = self._lengths.setdefault(field_name, {})
        lengths[doc_id] = lengths.get(doc_id, 0) + len(terms_with_positions)
        if boost != 1.0:
            boosts = self._boosts.setdefault(field_name, {})
            boosts[doc_id] = boosts.get(doc_id, 1.0) * boost
            self._note_boost(field_name, boosts[doc_id])

    def store_value(self, doc_id: int, field_name: str, value: str) -> None:
        self._field_names.add(field_name)
        self._generation += 1
        self._stored[doc_id].setdefault(field_name, []).append(value)

    def _note_boost(self, field_name: str, boost: float) -> None:
        if boost > self._max_boosts.get(field_name, 1.0):
            self._max_boosts[field_name] = boost

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self._stored)

    @property
    def generation(self) -> int:
        """Mutation counter: changes whenever the index changes.
        Caches key on (index name, generation)."""
        return self._generation

    def field_names(self) -> List[str]:
        return sorted(self._field_names)

    def postings(self, field_name: str, term: str) -> Optional[PostingsList]:
        return self._terms.get(field_name, {}).get(term)

    def doc_frequency(self, field_name: str, term: str) -> int:
        postings = self.postings(field_name, term)
        return postings.doc_frequency if postings else 0

    def terms(self, field_name: str) -> Iterator[str]:
        """All terms of a field, sorted (the term dictionary)."""
        return iter(sorted(self._terms.get(field_name, {})))

    def terms_with_prefix(self, field_name: str, prefix: str
                          ) -> Iterator[str]:
        for term in self.terms(field_name):
            if term.startswith(prefix):
                yield term

    def field_length(self, field_name: str, doc_id: int) -> int:
        return self._lengths.get(field_name, {}).get(doc_id, 0)

    def field_boost(self, field_name: str, doc_id: int) -> float:
        return self._boosts.get(field_name, {}).get(doc_id, 1.0)

    def local_field_maps(self, field_name: str):
        """``(lengths, boosts)`` dicts behind :meth:`field_length` /
        :meth:`field_boost`, keyed by the same doc-id space as this
        index's postings — the contribution column probes them
        directly instead of paying two method calls per document.
        Defaults (0 / 1.0) apply to missing keys exactly as in the
        per-doc methods."""
        return (self._lengths.get(field_name, {}),
                self._boosts.get(field_name, {}))

    def max_field_boost(self, field_name: str) -> float:
        """Upper bound on :meth:`field_boost` over all documents
        (maintained incrementally; never below 1.0)."""
        return self._max_boosts.get(field_name, 1.0)

    def average_field_length(self, field_name: str) -> float:
        """Mean token count of a field, memoized per generation —
        queries read this once per term, so the sum over every
        document must not be recomputed each time."""
        cached = self._avg_length_cache.get(field_name)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        lengths = self._lengths.get(field_name)
        value = (sum(lengths.values()) / len(lengths)) if lengths else 0.0
        self._avg_length_cache[field_name] = (self._generation, value)
        return value

    def docs_with_field(self, field_name: str) -> int:
        return len(self._lengths.get(field_name, {}))

    def stored_document(self, doc_id: int) -> Document:
        """Rebuild a (stored-fields-only) document."""
        try:
            raw = self._stored[doc_id]
        except IndexError:
            raise IndexError_(f"unknown doc_id {doc_id}") from None
        document = Document()
        for name, values in raw.items():
            for value in values:
                document.add(Field(name, value))
        return document

    def stored_value(self, doc_id: int, field_name: str) -> Optional[str]:
        values = self._stored[doc_id].get(field_name)
        return values[0] if values else None

    def unique_term_count(self, field_name: str | None = None) -> int:
        if field_name is not None:
            return len(self._terms.get(field_name, {}))
        return sum(len(terms) for terms in self._terms.values())

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------

    def merge(self, other: "InvertedIndex") -> int:
        """Append every document of ``other`` to this index.

        Doc ids of the incoming index are offset by the current doc
        count; postings, lengths, boosts and stored fields all carry
        over.  This is the incremental-update path: build a small
        index for a new match offline and merge it in, instead of
        re-indexing the world (the §3.5/§7 flexibility argument).

        Returns the doc-id offset applied to ``other``'s documents.
        """
        offset = self.doc_count
        self._generation += 1
        self._stored.extend(
            {name: list(values) for name, values in doc.items()}
            for doc in other._stored)
        for field_name, terms in other._terms.items():
            target_terms = self._terms.setdefault(field_name, {})
            for term, postings in terms.items():
                target = target_terms.get(term)
                if target is None:
                    target = PostingsList()
                    target_terms[term] = target
                for posting in postings:
                    for position in posting.positions:
                        target.add_occurrence(posting.doc_id + offset,
                                              position)
        for field_name, lengths in other._lengths.items():
            target_lengths = self._lengths.setdefault(field_name, {})
            for doc_id, count in lengths.items():
                target_lengths[doc_id + offset] = count
        for field_name, boosts in other._boosts.items():
            target_boosts = self._boosts.setdefault(field_name, {})
            for doc_id, boost in boosts.items():
                target_boosts[doc_id + offset] = boost
                self._note_boost(field_name, boost)
        self._field_names |= other._field_names
        return offset

    # ------------------------------------------------------------------
    # plain-data export (a test oracle; persistence is segments)
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "terms": {
                field_name: {term: postings.to_json()
                             for term, postings in terms.items()}
                for field_name, terms in self._terms.items()
            },
            "lengths": {
                field_name: {str(doc): count
                             for doc, count in lengths.items()}
                for field_name, lengths in self._lengths.items()
            },
            "boosts": {
                field_name: {str(doc): boost
                             for doc, boost in boosts.items()}
                for field_name, boosts in self._boosts.items()
            },
            "stored": self._stored,
        }

    @classmethod
    def from_json(cls, data: dict) -> "InvertedIndex":
        index = cls(name=data.get("name", "index"))
        index._terms = {
            field_name: {term: PostingsList.from_json(entries)
                         for term, entries in terms.items()}
            for field_name, terms in data.get("terms", {}).items()
        }
        index._lengths = {
            field_name: {int(doc): count for doc, count in lengths.items()}
            for field_name, lengths in data.get("lengths", {}).items()
        }
        index._boosts = {
            field_name: {int(doc): boost for doc, boost in boosts.items()}
            for field_name, boosts in data.get("boosts", {}).items()
        }
        index._stored = [
            {name: list(values) for name, values in doc.items()}
            for doc in data.get("stored", [])
        ]
        index._field_names = set(index._terms) | {
            name for doc in index._stored for name in doc}
        for field_name, boosts in index._boosts.items():
            for boost in boosts.values():
                index._note_boost(field_name, boost)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<InvertedIndex {self.name!r}: {self.doc_count} docs, "
                f"{self.unique_term_count()} terms>")
