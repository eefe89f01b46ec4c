"""Immutable on-disk index segments (``.ridx``, format version 3).

A *segment* is a write-once snapshot of an :class:`InvertedIndex`,
laid out so that opening one touches only a fixed-size header and
everything else — term dictionaries, postings, per-document lengths,
boosts and stored fields — is memory-mapped and decoded lazily on
first use:

* **open is O(header)** — the JSON header grows with the number of
  *fields*, not documents or terms, so opening a 10x larger segment
  costs the same;
* **per-term lazy postings** — the per-field term dictionary maps
  each term to the byte range of its postings, so a query decodes
  exactly the terms it touches;
* **skip blocks** — postings are encoded in blocks of
  :data:`SKIP_BLOCK` documents with a per-block (first doc id, byte
  offset) skip pointer, so a point lookup (``explain``, conjunctive
  probing) decodes one block instead of the whole list;
* **page-cache friendly** — reads go through ``mmap``, so repeated
  opens of the same segment share the OS page cache and cold data is
  never copied into the process until touched.

File layout (little-endian)::

    magic   "RIDX"                      4 bytes
    version u8                          3 for segments (2 readable)
    hlen    u32                         header length in bytes
    header  JSON, utf-8                 hlen bytes
    blocks  term dicts / postings / lengths / boosts / stored

The header carries ``name``, ``doc_count``, ``field_names`` and a
per-field table of ``[offset, length]`` block locators (offsets
relative to the end of the header) plus the per-field summary
statistics global scoring needs without decoding anything:
``sum_lengths``, ``docs_with_field`` and ``max_boost``.

Block encodings (all integers LEB128 varints)::

    tdict    := term_count, term*
    term     := len(utf8), utf8, doc_freq, total_freq, max_freq,
                postings_off, postings_len,
                block_count, (first_doc_delta, off_delta, block_max)*
    postings := block*                 # SKIP_BLOCK docs per block
    block    := doc*                   # first doc absolute, rest
    doc      := doc_delta, freq, zigzag(position_delta)*
    lengths  := count, (doc_delta, length)*
    boosts   := count, (doc_delta, f64)*
    stored_index := (doc_count + 1) * u64    # blob offsets
    stored   := per-doc JSON blobs, utf-8

Version 3 added ``block_max`` — the largest within-document frequency
inside each skip block — to the per-block skip entries, so the top-k
driver can bound a whole block's best possible score from the term
dictionary alone and skip it without decoding a byte.  Version-2
segments (pair-shaped skip entries) still open fine; their block
maxima are recomputed from the decoded block on first touch.

Every encoder iterates its inputs in a canonical order (fields and
terms sorted, documents ascending), so sealing an index is fully
deterministic: merging segments A+B byte-for-byte equals sealing an
index built over the union corpus — the property the merge tests pin.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import threading
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import IndexError_
from repro.search.index import kernels as _kernels
from repro.search.index.codec import (MAGIC, _read_uvarint,
                                      _write_uvarint, _zigzag,
                                      decode_uvarints)
from repro.search.index.inverted import InvertedIndex
from repro.search.index.postings import Posting, SKIP_BLOCK

__all__ = ["SEGMENT_VERSION", "SEGMENT_SUFFIX", "SKIP_BLOCK",
           "POSTINGS_CACHE_SIZE", "write_segment",
           "merge_segment_files", "SegmentReader", "LazyPostings",
           "DecodedTerm", "TermMeta"]

SEGMENT_VERSION = 3
#: versions this reader still opens; 2 lacks per-block max
#: frequencies, which are then recomputed on first block decode
READABLE_VERSIONS = (2, 3)
SEGMENT_SUFFIX = ".ridx"

# SKIP_BLOCK (documents per postings block) lives in
# repro.search.index.postings so the in-memory block API and the
# codec agree on the block size; re-exported here because each block
# restarts delta encoding and gets one skip pointer in this format.

#: decoded terms kept per :class:`SegmentReader` (the decode-once
#: LRU); a term is a few KB decoded, so the default bounds a reader
#: at single-digit MB while covering a realistic hot vocabulary
POSTINGS_CACHE_SIZE = 2048

PathLike = Union[str, Path]


def _segment_metrics():
    # deferred for the same reason as repro.search.searcher: the
    # observability module sits above this package in import order.
    from repro.core.observability import get_observability
    return get_observability().metrics


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TermMeta:
    """Term-dictionary entry: everything known about one term's
    postings without decoding them."""

    doc_frequency: int
    total_frequency: int
    max_frequency: int
    offset: int            # postings byte range, relative to the
    length: int            # field's postings block
    skip_docs: Tuple[int, ...]      # first doc id per block
    skip_offsets: Tuple[int, ...]   # block byte offset per block
    #: largest within-doc frequency per block (None for v2 segments,
    #: recomputed on first decode)
    block_maxima: Optional[Tuple[int, ...]] = None


def _encode_term_postings(docs: Sequence[Tuple[int, Sequence[int]]]
                          ) -> Tuple[bytes, List[int], List[int],
                                     List[int], int, int]:
    """Encode one term's ``(doc_id, positions)`` sequence.

    Returns ``(payload, skip_docs, skip_offsets, block_maxima,
    total_freq, max_freq)``.  Documents must arrive ascending (the
    index and the merge both guarantee it).
    """
    out = io.BytesIO()
    skip_docs: List[int] = []
    skip_offsets: List[int] = []
    block_maxima: List[int] = []
    total_frequency = 0
    max_frequency = 0
    previous_doc = 0
    for position_in_list, (doc_id, positions) in enumerate(docs):
        if position_in_list % SKIP_BLOCK == 0:
            skip_docs.append(doc_id)
            skip_offsets.append(out.tell())
            block_maxima.append(0)
            previous_doc = 0          # block restart: absolute doc id
        _write_uvarint(out, doc_id - previous_doc)
        previous_doc = doc_id
        _write_uvarint(out, len(positions))
        previous_position = 0
        for position in positions:
            _write_uvarint(out, _zigzag(position - previous_position))
            previous_position = position
        total_frequency += len(positions)
        if len(positions) > max_frequency:
            max_frequency = len(positions)
        if len(positions) > block_maxima[-1]:
            block_maxima[-1] = len(positions)
    return (out.getvalue(), skip_docs, skip_offsets, block_maxima,
            total_frequency, max_frequency)


def _encode_field(terms: Iterable[Tuple[str,
                                        Sequence[Tuple[int,
                                                       Sequence[int]]]]],
                  version: int = SEGMENT_VERSION
                  ) -> Tuple[bytes, bytes, int]:
    """Encode one field's sorted ``(term, docs)`` stream into a term
    dictionary block and a postings block.  Returns
    ``(tdict, postings, term_count)``.  ``version`` selects the skip
    entry shape: v3 triples carry the per-block max frequency, v2
    pairs (kept writable for the read-compatibility tests) do not."""
    tdict = io.BytesIO()
    postings = io.BytesIO()
    term_count = 0
    for term, docs in terms:
        (payload, skip_docs, skip_offsets, block_maxima,
         total_freq, max_freq) = _encode_term_postings(docs)
        raw = term.encode("utf-8")
        _write_uvarint(tdict, len(raw))
        tdict.write(raw)
        _write_uvarint(tdict, len(docs))
        _write_uvarint(tdict, total_freq)
        _write_uvarint(tdict, max_freq)
        _write_uvarint(tdict, postings.tell())
        _write_uvarint(tdict, len(payload))
        _write_uvarint(tdict, len(skip_docs))
        previous_doc = 0
        previous_offset = 0
        for doc_id, offset, block_max in zip(skip_docs, skip_offsets,
                                             block_maxima):
            _write_uvarint(tdict, doc_id - previous_doc)
            _write_uvarint(tdict, offset - previous_offset)
            if version >= 3:
                _write_uvarint(tdict, block_max)
            previous_doc, previous_offset = doc_id, offset
        postings.write(payload)
        term_count += 1
    body = tdict.getvalue()
    head = io.BytesIO()
    _write_uvarint(head, term_count)
    return head.getvalue() + body, postings.getvalue(), term_count


def _encode_lengths(lengths: Dict[int, int]) -> bytes:
    out = io.BytesIO()
    _write_uvarint(out, len(lengths))
    previous_doc = 0
    for doc_id in sorted(lengths):
        _write_uvarint(out, doc_id - previous_doc)
        previous_doc = doc_id
        _write_uvarint(out, lengths[doc_id])
    return out.getvalue()


def _encode_boosts(boosts: Dict[int, float]) -> bytes:
    out = io.BytesIO()
    _write_uvarint(out, len(boosts))
    previous_doc = 0
    for doc_id in sorted(boosts):
        _write_uvarint(out, doc_id - previous_doc)
        previous_doc = doc_id
        out.write(struct.pack("<d", boosts[doc_id]))
    return out.getvalue()


def _encode_stored(blobs: Iterable[bytes], doc_count: int
                   ) -> Tuple[bytes, bytes]:
    """Fixed-width offset table + concatenated JSON blobs, so stored
    fields of any document resolve in O(1)."""
    offsets = [0]
    body = io.BytesIO()
    for blob in blobs:
        body.write(blob)
        offsets.append(body.tell())
    if len(offsets) != doc_count + 1:
        raise IndexError_(
            f"stored blob count {len(offsets) - 1} != doc count "
            f"{doc_count}")
    index = struct.pack(f"<{len(offsets)}Q", *offsets)
    return index, body.getvalue()


class _BlockAssembler:
    """Accumulates named blocks and hands out header locators."""

    def __init__(self) -> None:
        self.blocks: List[bytes] = []
        self.offset = 0

    def add(self, block: bytes) -> List[int]:
        locator = [self.offset, len(block)]
        self.blocks.append(block)
        self.offset += len(block)
        return locator


def _write_file(path: Path, header: dict, assembler: _BlockAssembler,
                version: int = SEGMENT_VERSION) -> Path:
    """Write header + blocks atomically (temp file + rename) so a
    crash mid-seal never leaves a half-written ``.ridx`` under the
    final name."""
    raw_header = json.dumps(header, ensure_ascii=False).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<B", version))
        handle.write(struct.pack("<I", len(raw_header)))
        handle.write(raw_header)
        for block in assembler.blocks:
            handle.write(block)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# sealing an in-memory index
# ----------------------------------------------------------------------

def write_segment(index: InvertedIndex, path: PathLike,
                  version: int = SEGMENT_VERSION) -> Path:
    """Seal ``index`` into an immutable segment file at ``path``.

    The index is not modified; the output is deterministic, so two
    sealings of equal indexes produce byte-identical files.
    ``version`` defaults to the current format; passing ``2`` writes
    the previous (no block-maxima) shape, which exists so the
    read-compatibility tests can fabricate genuine v2 files.
    """
    if version not in READABLE_VERSIONS:
        raise IndexError_(f"cannot write segment version {version} "
                          f"(writable: {READABLE_VERSIONS})")
    path = Path(path)
    assembler = _BlockAssembler()
    field_table = []
    field_names = sorted(index._field_names
                         | set(index._terms) | set(index._lengths))
    indexed = sorted(set(index._terms) | set(index._lengths)
                     | set(index._boosts))
    for field_name in indexed:
        terms = index._terms.get(field_name, {})
        stream = ((term, [(posting.doc_id, posting.positions)
                          for posting in terms[term]])
                  for term in sorted(terms))
        tdict, postings, term_count = _encode_field(stream, version)
        lengths = index._lengths.get(field_name, {})
        boosts = index._boosts.get(field_name, {})
        field_table.append({
            "name": field_name,
            "terms": term_count,
            "tdict": assembler.add(tdict),
            "postings": assembler.add(postings),
            "lengths": assembler.add(_encode_lengths(lengths)),
            "boosts": assembler.add(_encode_boosts(boosts)),
            "sum_lengths": sum(lengths.values()),
            "docs_with_field": len(lengths),
            "max_boost": index.max_field_boost(field_name),
        })
    blobs = (json.dumps(doc, ensure_ascii=False).encode("utf-8")
             for doc in index._stored)
    stored_index, stored = _encode_stored(blobs, index.doc_count)
    header = {
        "name": index.name,
        "doc_count": index.doc_count,
        "field_names": field_names,
        "fields": field_table,
        "stored_index": assembler.add(stored_index),
        "stored": assembler.add(stored),
    }
    return _write_file(path, header, assembler, version)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

class DecodedTerm:
    """One term's postings as typed int64 columns, decoded lazily one
    skip block at a time and shared per (reader, term).

    Segments are write-once, so every decode result is immutable for
    the reader's whole lifetime: :class:`SegmentReader` keeps these in
    a bounded LRU (:data:`POSTINGS_CACHE_SIZE`) and every query that
    touches the term shares the same arrays — the decode-once hot
    path.  Construction itself decodes nothing (it only captures the
    mmap and :class:`TermMeta`); each skip block's payload is decoded
    on first touch with the bulk varint pass
    (:func:`~repro.search.index.codec.decode_uvarints`) — or, when
    :mod:`repro.search.index.kernels` is enabled, a single compiled
    decode-and-split call — into ``array('q')`` doc-id and frequency
    columns.  A point lookup therefore decodes at most one block, a
    pruned scan decodes only the blocks whose max-impact bound
    survives θ, and a full materialization (:attr:`doc_ids`, merge,
    iteration) concatenates the per-block columns once.  Position
    lists stay in varint form until a positional reader (phrase
    scoring, iteration, merge) asks, and are then cached too.

    Derived views handed to callers (:meth:`block_columns`,
    :meth:`doc_ids_rebased`, :meth:`postings_rebased`,
    :meth:`positions`) are cached and **shared** — callers must treat
    them as read-only; :meth:`block_columns` enforces it by handing
    out read-only memoryviews.  Concurrent builders of the same block
    or derived view race benignly: both compute identical values and
    the last assignment wins.
    """

    __slots__ = ("_data", "_meta", "block_count",
                 "_block_docs", "_block_freqs", "_block_entries",
                 "_block_values", "_block_maxima",
                 "_all_doc_ids", "_all_freqs",
                 "_positions", "_doc_ids_by_base", "_postings_by_base")

    def __init__(self, data, meta: TermMeta) -> None:
        self._data = data          # the segment mmap (zero-copy)
        self._meta = meta
        self.block_count = len(meta.skip_offsets)
        count = self.block_count
        # per-block typed columns, decoded on first touch
        self._block_docs: List[Optional[array]] = [None] * count
        self._block_freqs: List[Optional[array]] = [None] * count
        self._block_entries: List[Optional[array]] = [None] * count
        # per-block flat varint stream (positions live here); the
        # compiled kernel skips producing it, so it may refill lazily
        self._block_values: List[Optional[list]] = [None] * count
        self._block_maxima: List[Optional[int]] = (
            list(meta.block_maxima) if meta.block_maxima is not None
            else [None] * count)
        self._all_doc_ids: Optional[array] = None
        self._all_freqs: Optional[array] = None
        self._positions: Optional[List[Optional[List[int]]]] = None
        self._doc_ids_by_base: Dict[int, Sequence[int]] = {}
        self._postings_by_base: Dict[int, List[Posting]] = {}

    @classmethod
    def decode(cls, data, meta: TermMeta) -> "DecodedTerm":
        """The shared decoded form of one term.  Despite the name no
        bytes are decoded here anymore — blocks materialize on first
        touch — but the classmethod stays as the construction point
        every caller (LRU, merge, parity tests) goes through."""
        return cls(data, meta)

    @property
    def doc_frequency(self) -> int:
        return self._meta.doc_frequency

    # -- block decode --------------------------------------------------

    def _block_span(self, block: int) -> Tuple[int, int, int]:
        """(byte start, byte end, doc count) of one skip block."""
        meta = self._meta
        start = meta.offset + meta.skip_offsets[block]
        end = (meta.offset + meta.skip_offsets[block + 1]
               if block + 1 < self.block_count
               else meta.offset + meta.length)
        ndocs = min(SKIP_BLOCK,
                    meta.doc_frequency - block * SKIP_BLOCK)
        return start, end, ndocs

    def _ensure_block(self, block: int) -> Tuple[array, array]:
        """Decode one skip block into typed columns (idempotent)."""
        docs = self._block_docs[block]
        if docs is not None:
            return docs, self._block_freqs[block]
        start, end, ndocs = self._block_span(block)
        split = _kernels.split_postings(self._data, start, end, ndocs)
        if split is not None:
            docs, freqs, entries, block_max = split
        else:
            values = decode_uvarints(self._data, start, end)
            docs = array("q", bytes(8 * ndocs))
            freqs = array("q", bytes(8 * ndocs))
            entries = array("q", bytes(8 * ndocs))
            position = 0
            doc_id = 0
            block_max = 0
            try:
                for i in range(ndocs):
                    doc_id += values[position]
                    frequency = values[position + 1]
                    docs[i] = doc_id
                    freqs[i] = frequency
                    entries[i] = position + 2
                    if frequency > block_max:
                        block_max = frequency
                    position += 2 + frequency
            except IndexError:
                raise IndexError_(
                    "postings payload does not match its byte range "
                    "(corrupt segment)") from None
            if position != len(values):
                raise IndexError_("postings payload does not match its "
                                  "byte range (corrupt segment)")
            self._block_values[block] = values
        # benign race: concurrent decoders produce identical columns
        self._block_freqs[block] = freqs
        self._block_entries[block] = entries
        self._block_docs[block] = docs
        if self._block_maxima[block] is None:
            self._block_maxima[block] = block_max
        return docs, freqs

    def _values_of(self, block: int) -> list:
        """The block's flat varint stream (positions path); refilled
        lazily when the compiled kernel produced the columns."""
        values = self._block_values[block]
        if values is None:
            start, end, _ = self._block_span(block)
            values = decode_uvarints(self._data, start, end)
            self._block_values[block] = values
        return values

    def block_max_frequency(self, block: int) -> int:
        """Largest within-document frequency in one skip block — from
        the v3 term dictionary when persisted (no decode), otherwise
        computed on the block's first decode and cached."""
        cached = self._block_maxima[block]
        if cached is None:
            self._ensure_block(block)
            cached = self._block_maxima[block]
        return cached

    def block_columns(self, block: int) -> Tuple[memoryview, memoryview]:
        """One block's ``(doc_ids, freqs)`` typed columns as read-only
        int64 memoryviews (segment-local doc ids, ascending)."""
        docs, freqs = self._ensure_block(block)
        return memoryview(docs).toreadonly(), \
            memoryview(freqs).toreadonly()

    # -- whole-term columns -------------------------------------------

    @property
    def doc_ids(self) -> array:
        """All segment-local doc ids as one ``array('q')``,
        materialized (and cached) on first use."""
        ids = self._all_doc_ids
        if ids is None:
            if self.block_count == 1:
                ids = self._ensure_block(0)[0]
            else:
                ids = array("q")
                for block in range(self.block_count):
                    ids.extend(self._ensure_block(block)[0])
            self._all_doc_ids = ids
        return ids

    @property
    def freqs(self) -> array:
        """All within-document frequencies as one ``array('q')``."""
        freqs = self._all_freqs
        if freqs is None:
            if self.block_count == 1:
                freqs = self._ensure_block(0)[1]
            else:
                freqs = array("q")
                for block in range(self.block_count):
                    freqs.extend(self._ensure_block(block)[1])
            self._all_freqs = freqs
        return freqs

    # -- lookups -------------------------------------------------------

    def find(self, local_doc: int) -> Optional[Tuple[int, int]]:
        """``(block, offset)`` of ``local_doc``, or ``None``.  Two
        binary searches — skip table, then one ≤ SKIP_BLOCK column —
        so a point lookup decodes at most one block."""
        block = bisect_right(self._meta.skip_docs, local_doc) - 1
        if block < 0:
            return None
        docs, _ = self._ensure_block(block)
        offset = bisect_right(docs, local_doc) - 1
        if offset >= 0 and docs[offset] == local_doc:
            return block, offset
        return None

    def frequency_of(self, local_doc: int) -> Optional[int]:
        """Within-document frequency of ``local_doc`` (the scoring
        fast path: :meth:`find` inlined flat, so a probe costs two
        bisects and no extra call frames)."""
        block = bisect_right(self._meta.skip_docs, local_doc) - 1
        if block < 0:
            return None
        docs = self._block_docs[block]
        if docs is None:
            docs, _ = self._ensure_block(block)
        offset = bisect_right(docs, local_doc) - 1
        if offset >= 0 and docs[offset] == local_doc:
            return self._block_freqs[block][offset]
        return None

    def index_of(self, local_doc: int) -> Optional[int]:
        """Ordinal of ``local_doc`` across all blocks, or ``None``."""
        found = self.find(local_doc)
        if found is None:
            return None
        block, offset = found
        return block * SKIP_BLOCK + offset

    def positions(self, ordinal: int) -> List[int]:
        """Position list of the ``ordinal``-th document, decoded on
        first use and cached (shared — read-only)."""
        cache = self._positions
        if cache is None:
            cache = [None] * self._meta.doc_frequency
            self._positions = cache
        decoded = cache[ordinal]
        if decoded is None:
            block, offset = divmod(ordinal, SKIP_BLOCK)
            self._ensure_block(block)
            values = self._values_of(block)
            start = self._block_entries[block][offset]
            decoded = []
            position = 0
            for delta in values[start:start
                                + self._block_freqs[block][offset]]:
                position += (delta >> 1) ^ -(delta & 1)   # unzigzag
                decoded.append(position)
            cache[ordinal] = decoded
        return decoded

    def doc_ids_rebased(self, base: int) -> Sequence[int]:
        """All doc ids shifted into global space (shared, read-only).
        A reader's base is fixed within one segment set, so this is
        computed once per (decoded term, generation)."""
        ids = self._doc_ids_by_base.get(base)
        if ids is None:
            ids = (self.doc_ids if base == 0
                   else array("q", (doc + base for doc in self.doc_ids)))
            self._doc_ids_by_base[base] = ids
        return ids

    def postings_rebased(self, base: int) -> List[Posting]:
        """Materialized :class:`Posting` objects (shared, read-only)
        for the positional/iteration path."""
        postings = self._postings_by_base.get(base)
        if postings is None:
            postings = [Posting(doc + base, self.positions(ordinal))
                        for ordinal, doc in enumerate(self.doc_ids)]
            self._postings_by_base[base] = postings
        return postings


class LazyPostings:
    """Postings of one term: a per-query shell over the reader's
    shared :class:`DecodedTerm`.

    Duck-compatible with
    :class:`~repro.search.index.postings.PostingsList` where scoring
    needs it.  Two statistics intentionally differ in scope:

    * :attr:`doc_frequency` is the **global** document frequency the
      caller supplied (scoring must use corpus-wide IDF to stay
      bit-identical to the monolithic index), while
    * :attr:`max_frequency`, :attr:`total_frequency` and ``len()``
      are **segment-local** (the local max-impact bound is tighter,
      and still sound, for pruning this segment).

    ``base`` shifts decoded doc ids into the global doc-id space.
    The shell itself holds no decode state — everything decoded lives
    on the shared :class:`DecodedTerm`, so constructing one per query
    is allocation-cheap and the decode happens once per reader.
    """

    __slots__ = ("_decoded", "_meta", "_base", "_doc_frequency")

    def __init__(self, decoded: DecodedTerm, meta: TermMeta,
                 base: int = 0,
                 doc_frequency: Optional[int] = None) -> None:
        self._decoded = decoded
        self._meta = meta
        self._base = base
        self._doc_frequency = (meta.doc_frequency
                               if doc_frequency is None
                               else doc_frequency)

    # -- statistics ----------------------------------------------------

    @property
    def doc_frequency(self) -> int:
        return self._doc_frequency

    @property
    def total_frequency(self) -> int:
        return self._meta.total_frequency

    @property
    def max_frequency(self) -> int:
        return self._meta.max_frequency

    def __len__(self) -> int:
        return self._meta.doc_frequency

    # -- PostingsList API ---------------------------------------------

    def frequency(self, doc_id: int) -> Optional[int]:
        """Within-document frequency without materializing a
        :class:`Posting` (the term-scoring fast path — position lists
        are never touched, and at most one block is decoded)."""
        return self._decoded.frequency_of(doc_id - self._base)

    def get(self, doc_id: int) -> Optional[Posting]:
        ordinal = self._decoded.index_of(doc_id - self._base)
        if ordinal is None:
            return None
        return Posting(doc_id, self._decoded.positions(ordinal))

    def doc_ids(self) -> Sequence[int]:
        """Matching global doc ids, ascending (shared — read-only)."""
        return self._decoded.doc_ids_rebased(self._base)

    def freqs(self) -> Sequence[int]:
        """Within-document frequencies aligned with :meth:`doc_ids`
        (the shared typed column — read-only; frequencies need no
        rebasing)."""
        return self._decoded.freqs

    def __iter__(self):
        return iter(self._decoded.postings_rebased(self._base))

    # -- block API (block-max pruning, per-block decode) -------------

    @property
    def base(self) -> int:
        """Offset added to segment-local doc ids (scatter-gather)."""
        return self._base

    def block_count(self) -> int:
        return self._decoded.block_count

    def block_max_frequency(self, block: int) -> int:
        """Per-block max-impact figure — straight from the v3 term
        dictionary when persisted, so a block can be rejected against
        θ without decoding it."""
        return self._decoded.block_max_frequency(block)

    def block_columns(self, block: int) -> Tuple[memoryview, memoryview]:
        """One block's ``(doc_ids, freqs)`` int64 columns (read-only,
        segment-local ids — add :attr:`base` to globalize)."""
        return self._decoded.block_columns(block)


class SegmentReader:
    """Memory-mapped random access into one sealed segment.

    Opening parses the magic, version and JSON header only — O(fields)
    work however many documents the segment holds.  Term dictionaries,
    postings, lengths, boosts and stored documents decode lazily on
    first touch and stay cached on the reader.
    """

    def __init__(self, path: PathLike,
                 postings_cache_size: int = POSTINGS_CACHE_SIZE) -> None:
        self.path = Path(path)
        # decode-once postings LRU: (field, term) -> DecodedTerm; set
        # up first so close() works on a rejected header too
        self._postings_cache: "OrderedDict[Tuple[str, str], DecodedTerm]" \
            = OrderedDict()
        self._postings_lock = threading.Lock()
        self._file = open(self.path, "rb")
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except ValueError:           # pragma: no cover - 0-byte file
            self._file.close()
            raise IndexError_(f"{self.path} is empty, not a segment")
        data = self._mmap
        magic = bytes(data[:4])
        if magic != MAGIC:
            self.close()
            raise IndexError_(f"{self.path} is not a segment "
                              f"(bad magic {magic!r})")
        version = data[4]
        if version not in READABLE_VERSIONS:
            self.close()
            raise IndexError_(
                f"unsupported segment version {version} in "
                f"{self.path} (supported: "
                f"{', '.join(map(str, READABLE_VERSIONS))})")
        self.version = version
        (header_length,) = struct.unpack_from("<I", data, 5)
        self._blocks_start = 9 + header_length
        header = json.loads(data[9:self._blocks_start].decode("utf-8"))
        self.name: str = header["name"]
        self.doc_count: int = header["doc_count"]
        self._field_names: List[str] = header["field_names"]
        self._fields: Dict[str, dict] = {entry["name"]: entry
                                         for entry in header["fields"]}
        self._stored_index = header["stored_index"]
        self._stored = header["stored"]
        # lazy caches
        self._term_metas: Dict[str, Dict[str, TermMeta]] = {}
        self._lengths: Dict[str, Dict[int, int]] = {}
        self._boosts: Dict[str, Dict[int, float]] = {}
        self._stored_cache: Dict[int, dict] = {}
        self._postings_capacity = max(1, postings_cache_size)
        self._postings_hits = 0
        self._postings_misses = 0
        self._postings_evictions = 0
        metrics = _segment_metrics()
        if metrics.enabled:
            metrics.counter("segment_opens_total",
                            "segment files opened").inc()
            # hot path: resolve the instruments once, not per lookup
            self._metric_hits = metrics.counter(
                "postings_cache_hits_total",
                "decoded-postings cache hits across all segment readers")
            self._metric_misses = metrics.counter(
                "postings_cache_misses_total",
                "decoded-postings cache misses (terms decoded)")
            self._metric_evictions = metrics.counter(
                "postings_cache_evictions_total",
                "decoded-postings cache LRU evictions")
        else:
            self._metric_hits = None
            self._metric_misses = None
            self._metric_evictions = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._postings_lock:
            self._postings_cache.clear()
        try:
            self._mmap.close()
        except Exception:            # pragma: no cover - already closed
            pass
        self._file.close()

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def size_bytes(self) -> int:
        return len(self._mmap)

    # -- header-level reads -------------------------------------------

    def field_names(self) -> List[str]:
        return list(self._field_names)

    def indexed_fields(self) -> List[str]:
        return sorted(self._fields)

    def field_entry(self, field_name: str) -> Optional[dict]:
        return self._fields.get(field_name)

    def sum_lengths(self, field_name: str) -> int:
        entry = self._fields.get(field_name)
        return entry["sum_lengths"] if entry else 0

    def docs_with_field(self, field_name: str) -> int:
        entry = self._fields.get(field_name)
        return entry["docs_with_field"] if entry else 0

    def max_field_boost(self, field_name: str) -> float:
        entry = self._fields.get(field_name)
        return entry["max_boost"] if entry else 1.0

    # -- term dictionary ----------------------------------------------

    def term_metas(self, field_name: str) -> Dict[str, TermMeta]:
        """The field's full term dictionary (term → :class:`TermMeta`),
        decoded once and cached.  Iteration order is sorted — the
        on-disk order."""
        metas = self._term_metas.get(field_name)
        if metas is not None:
            return metas
        metas = {}
        entry = self._fields.get(field_name)
        if entry is not None:
            data = self._mmap
            has_block_maxima = self.version >= 3
            pos = self._blocks_start + entry["tdict"][0]
            term_count, pos = _read_uvarint(data, pos)
            for _ in range(term_count):
                length, pos = _read_uvarint(data, pos)
                term = bytes(data[pos:pos + length]).decode("utf-8")
                pos += length
                doc_freq, pos = _read_uvarint(data, pos)
                total_freq, pos = _read_uvarint(data, pos)
                max_freq, pos = _read_uvarint(data, pos)
                offset, pos = _read_uvarint(data, pos)
                payload_len, pos = _read_uvarint(data, pos)
                block_count, pos = _read_uvarint(data, pos)
                skip_docs: List[int] = []
                skip_offsets: List[int] = []
                block_maxima: List[int] = []
                doc_id = 0
                block_offset = 0
                for _ in range(block_count):
                    doc_delta, pos = _read_uvarint(data, pos)
                    off_delta, pos = _read_uvarint(data, pos)
                    doc_id += doc_delta
                    block_offset += off_delta
                    skip_docs.append(doc_id)
                    skip_offsets.append(block_offset)
                    if has_block_maxima:
                        block_max, pos = _read_uvarint(data, pos)
                        block_maxima.append(block_max)
                metas[term] = TermMeta(
                    doc_frequency=doc_freq,
                    total_frequency=total_freq,
                    max_frequency=max_freq,
                    offset=(self._blocks_start + entry["postings"][0]
                            + offset),
                    length=payload_len,
                    skip_docs=tuple(skip_docs),
                    skip_offsets=tuple(skip_offsets),
                    block_maxima=(tuple(block_maxima)
                                  if has_block_maxima else None))
        self._term_metas[field_name] = metas
        return metas

    def term_meta(self, field_name: str, term: str) -> Optional[TermMeta]:
        return self.term_metas(field_name).get(term)

    def decoded_term(self, field_name: str, term: str
                     ) -> Optional[Tuple[TermMeta, DecodedTerm]]:
        """The shared decoded form of ``(field, term)`` through the
        bounded LRU, or ``None`` when the term is absent.

        The decode itself runs outside the cache lock, so two threads
        missing the same cold term may both decode it; the loser
        adopts the winner's copy, keeping exactly one shared
        :class:`DecodedTerm` per key.
        """
        meta = self.term_meta(field_name, term)
        if meta is None:
            return None
        key = (field_name, term)
        cache = self._postings_cache
        with self._postings_lock:
            decoded = cache.get(key)
            if decoded is not None:
                cache.move_to_end(key)
                self._postings_hits += 1
        if decoded is not None:
            if self._metric_hits is not None:
                self._metric_hits.inc()
            return meta, decoded
        decoded = DecodedTerm.decode(self._mmap, meta)
        evicted = 0
        with self._postings_lock:
            self._postings_misses += 1
            racer = cache.get(key)
            if racer is not None:
                cache.move_to_end(key)
                decoded = racer
            else:
                cache[key] = decoded
                while len(cache) > self._postings_capacity:
                    cache.popitem(last=False)
                    evicted += 1
                self._postings_evictions += evicted
        if self._metric_misses is not None:
            self._metric_misses.inc()
            if evicted:
                self._metric_evictions.inc(evicted)
        return meta, decoded

    def postings_cache_info(self):
        """Exact ``(hits, misses, maxsize, currsize)`` of the
        decode-once LRU (same shape as the query-cache info)."""
        from repro.search.index.writer import CacheInfo
        with self._postings_lock:
            return CacheInfo(self._postings_hits, self._postings_misses,
                             self._postings_capacity,
                             len(self._postings_cache))

    def postings(self, field_name: str, term: str, base: int = 0,
                 doc_frequency: Optional[int] = None
                 ) -> Optional[LazyPostings]:
        """Lazy postings for ``(field, term)``, or ``None`` when the
        term is absent.  ``base`` rebases doc ids (scatter-gather);
        ``doc_frequency`` overrides the reported df with the global
        one (scoring parity).  The decoded arrays come from the
        reader's decode-once LRU; only the cheap shell is per-call."""
        found = self.decoded_term(field_name, term)
        if found is None:
            return None
        meta, decoded = found
        return LazyPostings(decoded, meta, base=base,
                            doc_frequency=doc_frequency)

    # -- per-document attributes --------------------------------------

    def lengths(self, field_name: str) -> Dict[int, int]:
        lengths = self._lengths.get(field_name)
        if lengths is not None:
            return lengths
        lengths = {}
        entry = self._fields.get(field_name)
        if entry is not None:
            # the lengths block is a pure varint stream — bulk decode
            start = self._blocks_start + entry["lengths"][0]
            values = decode_uvarints(self._mmap, start,
                                     start + entry["lengths"][1])
            doc_id = 0
            for position in range(1, 2 * values[0], 2):
                doc_id += values[position]
                lengths[doc_id] = values[position + 1]
        self._lengths[field_name] = lengths
        return lengths

    def boosts(self, field_name: str) -> Dict[int, float]:
        boosts = self._boosts.get(field_name)
        if boosts is not None:
            return boosts
        boosts = {}
        entry = self._fields.get(field_name)
        if entry is not None:
            data = self._mmap
            pos = self._blocks_start + entry["boosts"][0]
            count, pos = _read_uvarint(data, pos)
            doc_id = 0
            for _ in range(count):
                delta, pos = _read_uvarint(data, pos)
                doc_id += delta
                (value,) = struct.unpack_from("<d", data, pos)
                pos += 8
                boosts[doc_id] = value
        self._boosts[field_name] = boosts
        return boosts

    def field_length(self, field_name: str, doc_id: int) -> int:
        return self.lengths(field_name).get(doc_id, 0)

    def field_boost(self, field_name: str, doc_id: int) -> float:
        return self.boosts(field_name).get(doc_id, 1.0)

    # -- stored fields ------------------------------------------------

    def stored_fields(self, doc_id: int) -> Dict[str, List[str]]:
        """The stored-field dict of one document, JSON-decoded once
        per reader lifetime and shared after that (the segment is
        immutable, so callers must treat the dict as read-only; use
        :meth:`_decode_stored` for a private copy)."""
        cached = self._stored_cache.get(doc_id)
        if cached is None:
            cached = self._decode_stored(doc_id)
            self._stored_cache[doc_id] = cached
        return cached

    def _decode_stored(self, doc_id: int) -> Dict[str, List[str]]:
        """Decode one document's stored fields fresh (O(1) via the
        fixed-width offset table)."""
        if not 0 <= doc_id < self.doc_count:
            raise IndexError_(f"unknown doc_id {doc_id}")
        table = self._blocks_start + self._stored_index[0]
        start, end = struct.unpack_from("<2Q", self._mmap,
                                        table + 8 * doc_id)
        base = self._blocks_start + self._stored[0]
        blob = bytes(self._mmap[base + start:base + end])
        return json.loads(blob.decode("utf-8"))

    # -- materialization (tests, stats, JSON export) ------------------

    def to_inverted(self) -> InvertedIndex:
        """Fully decode into a mutable :class:`InvertedIndex` (a
        debugging/parity aid — serving never needs it)."""
        index = InvertedIndex(name=self.name)
        # private copies: the mutable index must not alias the
        # reader's shared stored-field cache
        index._stored = [self._decode_stored(doc_id)
                         for doc_id in range(self.doc_count)]
        index._field_names = set(self._field_names)
        for field_name in self.indexed_fields():
            terms = {}
            for term, meta in self.term_metas(field_name).items():
                # full-vocabulary walk: decode directly instead of
                # thrashing the bounded serving LRU
                postings = LazyPostings(
                    DecodedTerm.decode(self._mmap, meta), meta)
                target = terms.setdefault(term, None)
                del target
                from repro.search.index.postings import PostingsList
                plist = PostingsList()
                for posting in postings:
                    plist._append(Posting(posting.doc_id,
                                          list(posting.positions)))
                terms[term] = plist
            index._terms[field_name] = terms
            index._lengths[field_name] = dict(self.lengths(field_name))
            boosts = self.boosts(field_name)
            if boosts:
                index._boosts[field_name] = dict(boosts)
                for boost in boosts.values():
                    index._note_boost(field_name, boost)
        index._generation = 0
        return index

    def __repr__(self) -> str:     # pragma: no cover - debugging aid
        return (f"<SegmentReader {self.path.name}: {self.doc_count} "
                f"docs, {len(self._fields)} fields>")


# ----------------------------------------------------------------------
# streaming merge
# ----------------------------------------------------------------------

def merge_segment_files(readers: Sequence[SegmentReader],
                        path: PathLike) -> Path:
    """Merge ``readers`` (in order) into one segment at ``path``.

    This is a *streaming postings merge*: per term, only that term's
    postings from each input are decoded, re-based and re-encoded —
    memory stays proportional to a single term, never the whole
    index.  Stored-field blobs are copied byte-for-byte.  Because the
    encoders are deterministic, the output is byte-identical to
    sealing an index built over the concatenated corpus directly.
    """
    if not readers:
        raise IndexError_("cannot merge zero segments")
    path = Path(path)
    bases = []
    base = 0
    for reader in readers:
        bases.append(base)
        base += reader.doc_count
    doc_count = base

    assembler = _BlockAssembler()
    field_names = sorted({name for reader in readers
                          for name in reader.field_names()})
    indexed = sorted({name for reader in readers
                      for name in reader.indexed_fields()})
    field_table = []
    for field_name in indexed:
        per_reader = [(reader, reader_base,
                       reader.term_metas(field_name))
                      for reader, reader_base in zip(readers, bases)]

        def merged_terms():
            all_terms = sorted({term for _, _, metas in per_reader
                                for term in metas})
            for term in all_terms:
                docs: List[Tuple[int, Sequence[int]]] = []
                for reader, reader_base, metas in per_reader:
                    meta = metas.get(term)
                    if meta is None:
                        continue
                    # merge walks the whole vocabulary once — decode
                    # directly, bypassing the bounded serving LRU
                    decoded = DecodedTerm.decode(reader._mmap, meta)
                    docs.extend(
                        (doc_id + reader_base,
                         decoded.positions(ordinal))
                        for ordinal, doc_id
                        in enumerate(decoded.doc_ids))
                yield term, docs

        tdict, postings, term_count = _encode_field(merged_terms())
        lengths: Dict[int, int] = {}
        boosts: Dict[int, float] = {}
        for reader, reader_base in zip(readers, bases):
            for doc_id, value in reader.lengths(field_name).items():
                lengths[doc_id + reader_base] = value
            for doc_id, value in reader.boosts(field_name).items():
                boosts[doc_id + reader_base] = value
        field_table.append({
            "name": field_name,
            "terms": term_count,
            "tdict": assembler.add(tdict),
            "postings": assembler.add(postings),
            "lengths": assembler.add(_encode_lengths(lengths)),
            "boosts": assembler.add(_encode_boosts(boosts)),
            "sum_lengths": sum(reader.sum_lengths(field_name)
                               for reader in readers),
            "docs_with_field": sum(reader.docs_with_field(field_name)
                                   for reader in readers),
            "max_boost": max(reader.max_field_boost(field_name)
                             for reader in readers),
        })

    def stored_blobs():
        for reader in readers:
            table = reader._blocks_start + reader._stored_index[0]
            body = reader._blocks_start + reader._stored[0]
            for doc_id in range(reader.doc_count):
                start, end = struct.unpack_from(
                    "<2Q", reader._mmap, table + 8 * doc_id)
                yield bytes(reader._mmap[body + start:body + end])

    stored_index, stored = _encode_stored(stored_blobs(), doc_count)
    header = {
        "name": readers[0].name,
        "doc_count": doc_count,
        "field_names": field_names,
        "fields": field_table,
        "stored_index": assembler.add(stored_index),
        "stored": assembler.add(stored),
    }
    return _write_file(path, header, assembler)
