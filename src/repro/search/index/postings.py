"""Postings: the inverted index's core data structure."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Posting", "PostingsList", "SKIP_BLOCK"]

#: Documents per skip block.  Shared by the segment codec (which
#: persists one skip entry and one block-max statistic per block, see
#: :mod:`repro.search.index.segment`), the in-memory column API below,
#: and the top-k scan's block-at-a-time pruning arithmetic — all three
#: must agree on the block size for the persisted maxima to bound the
#: right documents.
SKIP_BLOCK = 64


@dataclass
class Posting:
    """Occurrences of one term in one document field.

    Attributes:
        doc_id: internal document number.
        positions: token positions of each occurrence (for phrases).
    """

    doc_id: int
    positions: List[int] = field(default_factory=list)

    @property
    def frequency(self) -> int:
        return len(self.positions)

    def to_json(self) -> list:
        return [self.doc_id, self.positions]

    @classmethod
    def from_json(cls, data: list) -> "Posting":
        return cls(doc_id=data[0], positions=list(data[1]))


class PostingsList:
    """Doc-ordered postings for one (field, term) pair.

    Besides the postings themselves the list maintains two summary
    statistics *incrementally* (updated on every
    :meth:`add_occurrence`, so the writer and :meth:`InvertedIndex.merge
    <repro.search.index.inverted.InvertedIndex.merge>` keep them fresh
    for free):

    * :attr:`total_frequency` — total occurrence count, used by the
      stats/scoring path; and
    * :attr:`max_frequency` — the highest within-document frequency,
      the per-(field, term) *max-impact* figure that
      :meth:`Similarity.max_score
      <repro.search.similarity.Similarity.max_score>` turns into a
      score upper bound for top-k pruning.
    """

    __slots__ = ("_postings", "_by_doc", "_total_frequency",
                 "_max_frequency", "_columns")

    def __init__(self) -> None:
        self._postings: List[Posting] = []
        self._by_doc: Dict[int, Posting] = {}
        self._total_frequency = 0
        self._max_frequency = 0
        #: typed (doc_ids, freqs) columns for the block API; built on
        #: first block access, dropped on any mutation
        self._columns: Optional[Tuple[array, array]] = None

    def add_occurrence(self, doc_id: int, position: int) -> None:
        """Record one term occurrence.  doc_ids must arrive
        non-decreasing (the writer guarantees this)."""
        posting = self._by_doc.get(doc_id)
        if posting is None:
            posting = Posting(doc_id)
            self._postings.append(posting)
            self._by_doc[doc_id] = posting
        posting.positions.append(position)
        self._total_frequency += 1
        self._columns = None
        if len(posting.positions) > self._max_frequency:
            self._max_frequency = len(posting.positions)

    @property
    def doc_frequency(self) -> int:
        return len(self._postings)

    @property
    def total_frequency(self) -> int:
        return self._total_frequency

    @property
    def max_frequency(self) -> int:
        """Highest per-document frequency (the max-impact bound)."""
        return self._max_frequency

    def get(self, doc_id: int) -> Posting | None:
        return self._by_doc.get(doc_id)

    def frequency(self, doc_id: int) -> int | None:
        """Within-document frequency of ``doc_id``, or ``None`` when
        the document does not match.  Term scoring uses this instead
        of :meth:`get` so postings backed by decoded arrays (segments)
        never materialize position lists just to count them."""
        posting = self._by_doc.get(doc_id)
        return None if posting is None else len(posting.positions)

    def doc_ids(self) -> List[int]:
        """Matching doc ids, in postings (ascending) order."""
        return [posting.doc_id for posting in self._postings]

    def freqs(self) -> "array":
        """Within-document frequencies aligned with :meth:`doc_ids`
        (the typed column, shared — read-only)."""
        return self._ensure_columns()[1]

    # -- column API ---------------------------------------------------
    #
    # The shape the top-k plan reads from LazyPostings over a decoded
    # segment term: a typed frequency column, a doc-id base and a
    # per-block max frequency over blocks of SKIP_BLOCK documents.
    # Here the columns are materialized lazily from the posting
    # objects (and dropped on mutation), so the contribution column
    # and block bounds are computed identically over in-memory and
    # segment-backed indexes.

    @property
    def base(self) -> int:
        """Doc-id offset of the backing columns (always 0 here; the
        segment view rebases)."""
        return 0

    def _ensure_columns(self) -> Tuple[array, array]:
        columns = self._columns
        if columns is None:
            doc_ids = array(
                "q", (posting.doc_id for posting in self._postings))
            freqs = array(
                "q", (len(posting.positions)
                      for posting in self._postings))
            columns = self._columns = (doc_ids, freqs)
        return columns

    def block_max_frequency(self, block: int) -> int:
        """Highest within-document frequency inside ``block``."""
        _, freqs = self._ensure_columns()
        start = block * SKIP_BLOCK
        return max(freqs[start:start + SKIP_BLOCK])

    def __iter__(self) -> Iterator[Posting]:
        return iter(self._postings)

    def __len__(self) -> int:
        return len(self._postings)

    def _append(self, posting: Posting) -> None:
        """Adopt a fully-built posting (deserialization path); keeps
        the incremental statistics in sync."""
        self._postings.append(posting)
        self._by_doc[posting.doc_id] = posting
        self._total_frequency += posting.frequency
        self._columns = None
        if posting.frequency > self._max_frequency:
            self._max_frequency = posting.frequency

    def to_json(self) -> list:
        return [posting.to_json() for posting in self._postings]

    @classmethod
    def from_json(cls, data: list) -> "PostingsList":
        postings = cls()
        for entry in data:
            postings._append(Posting.from_json(entry))
        return postings
