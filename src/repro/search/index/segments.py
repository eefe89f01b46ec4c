"""Segmented index: manifests, tiered merges, scatter-gather serving.

This is the Lucene-style lifecycle around the immutable segment files
of :mod:`repro.search.index.segment`:

* :class:`IndexDirectory` owns an on-disk directory of sealed
  ``seg_*.ridx`` files plus ``segments_<N>`` manifests.  The manifest
  is the **only** mutable state: committing one is a single atomic
  ``os.replace``, so readers always see either the old complete
  segment set or the new complete one — a crash between sealing a
  segment and committing the manifest merely leaves an ignored orphan
  file.  Generation ``N`` increases monotonically; the PR 4 query
  cache keys on it, so a merge (same documents, different segments)
  invalidates stale entries for free.
* :class:`SegmentedIndex` serves the read API of
  :class:`~repro.search.index.inverted.InvertedIndex` over all live
  segments.  Per-document state routes to the owning segment by doc-id
  range; statistics that enter scoring (document frequency, average
  field length, doc count) are *global* — summed over segments — so
  every score is bit-identical to a monolithic index over the same
  corpus.  The pruned top-k driver consumes
  :meth:`SegmentedIndex.segment_views` to scan segment-by-segment and
  skip whole segments whose score bound cannot reach the heap.

Documents keep their global ids: the manifest order assigns each
segment a contiguous doc-id range (``base .. base + doc_count``), and
merges only ever coalesce **adjacent** segments, so global ids — and
with them rankings and tie-breaks — never change under any merge.
"""

from __future__ import annotations

import json
import os
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.errors import IndexError_
from repro.search.document import Document, Field
from repro.search.index.inverted import InvertedIndex
from repro.search.index.postings import Posting
from repro.search.index.segment import (SEGMENT_SUFFIX, LazyPostings,
                                        SegmentReader,
                                        merge_segment_files,
                                        write_segment)

__all__ = ["SegmentInfo", "Manifest", "IndexDirectory",
           "SegmentedIndex", "SEGMENTS_PREFIX", "SEGMENT_DIR_SUFFIX",
           "DEFAULT_MERGE_FACTOR"]

SEGMENTS_PREFIX = "segments_"
#: directory suffix that marks a segmented index on disk
SEGMENT_DIR_SUFFIX = ".segd"
#: segments per size tier before a merge triggers
DEFAULT_MERGE_FACTOR = 8
#: size ratio separating merge tiers (decimal orders of magnitude)
TIER_RATIO = 10.0

PathLike = Union[str, Path]


def _metrics():
    from repro.core.observability import get_observability
    return get_observability().metrics


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentInfo:
    """One live segment as recorded in the manifest."""

    file: str
    doc_count: int
    size_bytes: int


@dataclass(frozen=True)
class Manifest:
    """A committed segment set.  ``generation`` is the cache/commit
    counter; ``counter`` is the next free segment file number (never
    reused, so files from abandoned generations cannot collide)."""

    generation: int
    name: str
    counter: int
    segments: Tuple[SegmentInfo, ...]

    @property
    def doc_count(self) -> int:
        return sum(info.doc_count for info in self.segments)

    def to_json(self) -> dict:
        return {
            "format": "repro.segments/v1",
            "generation": self.generation,
            "name": self.name,
            "counter": self.counter,
            "segments": [{"file": info.file,
                          "doc_count": info.doc_count,
                          "size_bytes": info.size_bytes}
                         for info in self.segments],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Manifest":
        if not isinstance(data, dict):
            raise IndexError_(
                f"not a segments manifest: {type(data).__name__}")
        if data.get("format") != "repro.segments/v1":
            raise IndexError_(
                f"not a segments manifest: {data.get('format')!r}")
        return cls(
            generation=data["generation"],
            name=data["name"],
            counter=data["counter"],
            segments=tuple(SegmentInfo(entry["file"],
                                       entry["doc_count"],
                                       entry["size_bytes"])
                           for entry in data["segments"]))


class IndexDirectory:
    """An on-disk directory of immutable segments plus manifests.

    All mutation goes through :meth:`commit`, which writes
    ``segments_<generation+1>`` to a temp file and atomically renames
    it into place.  Opening always resolves the highest *parseable*
    manifest, so torn writes and orphaned segment files from crashes
    are invisible to readers until :meth:`vacuum` sweeps them.

    The mutators — :meth:`commit`, :meth:`seal`, :meth:`reserve`,
    :meth:`add_index`, :meth:`add_sealed`, :meth:`merge` and
    :meth:`vacuum` — serialize on :attr:`lock`, so a live ingest and a
    background merge sharing one directory can neither commit over
    each other's manifest nor vacuum a segment sealed but not yet
    committed.
    """

    def __init__(self, path: PathLike, name: str = "index") -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.name = name
        #: held by every read-modify-commit of the manifest (reentrant,
        #: so compound mutators call the primitive ones under it)
        self.lock = threading.RLock()
        existing = self.read_manifest()
        if existing is not None:
            self.name = existing.name

    # -- manifest IO ---------------------------------------------------

    def _manifest_path(self, generation: int) -> Path:
        return self.path / f"{SEGMENTS_PREFIX}{generation}"

    def _manifest_generations(self) -> List[int]:
        generations = []
        for entry in self.path.iterdir():
            name = entry.name
            if not name.startswith(SEGMENTS_PREFIX):
                continue
            suffix = name[len(SEGMENTS_PREFIX):]
            if suffix.isdigit():
                generations.append(int(suffix))
        return sorted(generations)

    def read_manifest(self) -> Optional[Manifest]:
        """The newest committed manifest, or ``None`` when the
        directory has never been committed to.  Unparseable manifests
        (torn by a crash) are skipped in favor of older complete
        ones."""
        for generation in reversed(self._manifest_generations()):
            target = self._manifest_path(generation)
            try:
                data = json.loads(target.read_text(encoding="utf-8"))
                manifest = Manifest.from_json(data)
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError_):
                continue
            if manifest.generation != generation:
                continue
            return manifest
        return None

    def manifest(self) -> Manifest:
        """Like :meth:`read_manifest`, but an empty generation-0
        manifest when nothing is committed yet."""
        found = self.read_manifest()
        if found is not None:
            return found
        return Manifest(generation=0, name=self.name, counter=1,
                        segments=())

    def commit(self, segments: Sequence[SegmentInfo],
               counter: Optional[int] = None) -> Manifest:
        """Atomically commit ``segments`` as the new live set."""
        with self.lock:
            current = self.manifest()
            manifest = Manifest(
                generation=current.generation + 1,
                name=self.name,
                counter=counter if counter is not None else current.counter,
                segments=tuple(segments))
            target = self._manifest_path(manifest.generation)
            tmp = target.with_name(target.name + ".tmp")
            raw = json.dumps(manifest.to_json(), ensure_ascii=False,
                             indent=2)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
            return manifest

    # -- sealing segments ----------------------------------------------

    def _allocate(self, counter: int) -> Tuple[str, int]:
        """Next unused segment file name.  Scans for leftovers of
        crashed/abandoned commits so their numbers are never
        reissued."""
        highest = counter - 1
        for entry in self.path.glob(f"seg_*{SEGMENT_SUFFIX}"):
            stem = entry.name[4:-len(SEGMENT_SUFFIX)]
            if stem.isdigit():
                highest = max(highest, int(stem))
        number = highest + 1
        return f"seg_{number:010d}{SEGMENT_SUFFIX}", number + 1

    def reserve(self, count: int,
                counter: Optional[int] = None) -> Tuple[List[str], int]:
        """Pre-assign ``count`` segment file names without writing
        anything.  Parallel build workers seal straight into reserved
        names (no cross-process coordination needed), and the parent
        later commits them together with the returned counter."""
        with self.lock:
            if counter is None:
                counter = self.manifest().counter
            names: List[str] = []
            for _ in range(count):
                file_name, counter = self._allocate(counter)
                names.append(file_name)
            return names, counter

    def seal(self, index: InvertedIndex,
             counter: Optional[int] = None) -> Tuple[SegmentInfo, int]:
        """Seal ``index`` into a new (uncommitted) segment file.
        Returns its :class:`SegmentInfo` and the advanced counter —
        the segment only becomes visible once a manifest referencing
        it is committed."""
        with self.lock:
            if counter is None:
                counter = self.manifest().counter
            file_name, counter = self._allocate(counter)
            path = write_segment(index, self.path / file_name)
            info = SegmentInfo(file=file_name, doc_count=index.doc_count,
                               size_bytes=path.stat().st_size)
            return info, counter

    def add_index(self, index: InvertedIndex) -> Manifest:
        """Seal ``index`` and append it to the live set (one commit)."""
        with self.lock:
            current = self.manifest()
            info, counter = self.seal(index, current.counter)
            return self.commit([*current.segments, info], counter=counter)

    def add_sealed(self, segments: Sequence[SegmentInfo],
                   counter: int) -> Manifest:
        """Append already-sealed segments (e.g. built by parallel
        workers) to the live set in one commit."""
        with self.lock:
            current = self.manifest()
            return self.commit([*current.segments, *segments],
                               counter=max(counter, current.counter))

    # -- tiered merge ---------------------------------------------------

    @staticmethod
    def _tier(size_bytes: int) -> int:
        tier = 0
        size = max(size_bytes, 1)
        while size >= TIER_RATIO:
            size /= TIER_RATIO
            tier += 1
        return tier

    def plan_merges(self, merge_factor: int = DEFAULT_MERGE_FACTOR,
                    force: bool = False) -> List[Tuple[int, int]]:
        """Merge candidates as ``(start, end)`` index ranges into the
        current manifest's segment list.

        Tiered policy: segments are bucketed by size order of
        magnitude (:data:`TIER_RATIO`); any run of **adjacent**
        same-tier segments at least ``merge_factor`` long collapses
        into one.  Adjacency is load-bearing — doc ids are assigned by
        manifest order, so only neighbors can merge without renumbering
        documents.  ``force`` collapses everything into one segment.
        """
        segments = self.manifest().segments
        if len(segments) < 2:
            return []
        if force:
            return [(0, len(segments))]
        if merge_factor < 2:
            raise IndexError_(f"merge_factor must be >= 2, "
                              f"got {merge_factor}")
        plans: List[Tuple[int, int]] = []
        run_start = 0
        run_tier = self._tier(segments[0].size_bytes)
        for position in range(1, len(segments) + 1):
            tier = (self._tier(segments[position].size_bytes)
                    if position < len(segments) else None)
            if tier != run_tier:
                if position - run_start >= merge_factor:
                    plans.append((run_start, position))
                run_start, run_tier = position, tier
        return plans

    def merge(self, merge_factor: int = DEFAULT_MERGE_FACTOR,
              force: bool = False) -> int:
        """Run the tiered merge policy once; returns the number of
        merges performed.  Each merge seals its output before the
        single commit swaps all merged runs in atomically — a crash
        at any point leaves the old manifest serving."""
        with self.lock:
            plans = self.plan_merges(merge_factor, force=force)
            if not plans:
                return 0
            started = time.perf_counter()
            current = self.manifest()
            segments = list(current.segments)
            counter = current.counter
            merged: Dict[int, SegmentInfo] = {}
            for start, end in plans:
                file_name, counter = self._allocate(counter)
                readers = [SegmentReader(self.path / info.file)
                           for info in segments[start:end]]
                try:
                    path = merge_segment_files(readers,
                                               self.path / file_name)
                finally:
                    for reader in readers:
                        reader.close()
                merged[start] = SegmentInfo(
                    file=file_name,
                    doc_count=sum(info.doc_count
                                  for info in segments[start:end]),
                    size_bytes=path.stat().st_size)
            replaced: List[SegmentInfo] = []
            position = 0
            spans = dict(plans)
            while position < len(segments):
                if position in merged:
                    replaced.append(merged[position])
                    position = spans[position]
                else:
                    replaced.append(segments[position])
                    position += 1
            self.commit(replaced, counter=counter)
            metrics = _metrics()
            if metrics.enabled:
                metrics.counter("segment_merges_total",
                                "segment merges performed").inc(len(plans))
                metrics.counter("segment_merge_seconds_total",
                                "wall seconds spent merging segments"
                                ).inc(time.perf_counter() - started)
            return len(plans)

    # -- maintenance ----------------------------------------------------

    def vacuum(self) -> List[str]:
        """Delete segment files and manifests no longer referenced by
        the newest committed manifest; returns the deleted names."""
        with self.lock:
            manifest = self.read_manifest()
            if manifest is None:
                return []
            live = {info.file for info in manifest.segments}
            deleted = []
            for entry in sorted(self.path.iterdir()):
                name = entry.name
                stale_segment = (name.endswith(SEGMENT_SUFFIX)
                                 and name not in live)
                stale_manifest = (name.startswith(SEGMENTS_PREFIX)
                                  and name !=
                                  f"{SEGMENTS_PREFIX}{manifest.generation}")
                if stale_segment or stale_manifest or name.endswith(".tmp"):
                    entry.unlink()
                    deleted.append(name)
            return deleted


# ----------------------------------------------------------------------
# the serving facade
# ----------------------------------------------------------------------

class _MultiPostings:
    """One term's postings across every segment that contains it.

    Parts arrive pre-rebased into global doc-id space and carry the
    global document frequency, so iteration order (ascending global
    doc id) and every statistic match the monolithic
    :class:`~repro.search.index.postings.PostingsList` exactly.
    """

    __slots__ = ("_parts", "_doc_frequency", "_bases",
                 "_total_frequency", "_max_frequency")

    def __init__(self, parts: List[Tuple[int, int, LazyPostings]],
                 doc_frequency: int) -> None:
        self._parts = parts        # (base, end, postings), base order
        self._doc_frequency = doc_frequency
        # parts are immutable once handed over, so the aggregate
        # statistics and the span-lookup key list are computed once
        # here instead of on every property access / point probe
        self._bases = [base for base, _, _ in parts]
        self._total_frequency = sum(
            part.total_frequency for _, _, part in parts)
        self._max_frequency = max(
            part.max_frequency for _, _, part in parts)

    @property
    def doc_frequency(self) -> int:
        return self._doc_frequency

    @property
    def total_frequency(self) -> int:
        return self._total_frequency

    @property
    def max_frequency(self) -> int:
        return self._max_frequency

    def __len__(self) -> int:
        return self._doc_frequency

    def _part_of(self, doc_id: int) -> Optional[LazyPostings]:
        """The part whose ``[base, end)`` span holds ``doc_id``, by
        binary search over the (ascending, disjoint) part bases."""
        position = bisect_right(self._bases, doc_id) - 1
        if position < 0:
            return None
        base, end, part = self._parts[position]
        return part if doc_id < end else None

    def get(self, doc_id: int) -> Optional[Posting]:
        part = self._part_of(doc_id)
        return None if part is None else part.get(doc_id)

    def doc_ids(self) -> List[int]:
        out: List[int] = []
        for _, _, part in self._parts:
            out.extend(part.doc_ids())
        return out

    def __iter__(self) -> Iterator[Posting]:
        for _, _, part in self._parts:
            yield from part


class _SegmentView:
    """One segment through the index duck API, with *global* scoring
    statistics.

    The unit the top-k driver binds a query plan to:
    ``doc_count``, ``average_field_length`` and (via the injected
    document frequency on postings) IDF are corpus-wide, so a score
    computed here is bit-identical to the monolithic one — while
    ``max_field_boost`` and the postings' ``max_frequency`` stay
    segment-local, giving the driver *tighter* (still sound) pruning
    bounds per segment.  ``parent`` is the :class:`_SegmentSet` the
    view belongs to, so global statistics always come from the same
    committed generation as the segment itself.
    """

    __slots__ = ("parent", "reader", "base", "end", "contrib_memo",
                 "bound_memo")

    def __init__(self, parent: "_SegmentSet", reader: SegmentReader,
                 base: int) -> None:
        self.parent = parent
        self.reader = reader
        self.base = base
        self.end = base + reader.doc_count
        # plan-binding memos (see repro.search.topk): a row's
        # contribution column and score bound keyed (similarity,
        # field, term, boost), a group's merged contributor map keyed
        # by its rows.  Every input — global df and averages from
        # ``parent``, the reader's length/boost maps, ``base`` — is
        # frozen with the generation, so all are view-lifetime
        # constants that repeat queries should not recompute (benign
        # data race: concurrent fills write identical values)
        self.contrib_memo: dict = {}
        self.bound_memo: dict = {}

    @property
    def name(self) -> str:
        return self.parent.name

    @property
    def doc_count(self) -> int:
        return self.parent.doc_count          # global, for IDF parity

    def postings(self, field_name: str, term: str
                 ) -> Optional[LazyPostings]:
        reader = self.reader
        if reader.term_meta(field_name, term) is None:
            # absent in this segment: skip the global-df aggregation
            return None
        return reader.postings(
            field_name, term, base=self.base,
            doc_frequency=self.parent.doc_frequency(field_name, term))

    def average_field_length(self, field_name: str) -> float:
        return self.parent.average_field_length(field_name)

    def field_length(self, field_name: str, doc_id: int) -> int:
        return self.reader.field_length(field_name, doc_id - self.base)

    def field_boost(self, field_name: str, doc_id: int) -> float:
        return self.reader.field_boost(field_name, doc_id - self.base)

    def local_field_maps(self, field_name: str):
        """The segment's own ``(lengths, boosts)`` dicts, keyed by
        *local* doc ids (global id minus :attr:`base`) — the
        contribution column probes them directly."""
        return (self.reader.lengths(field_name),
                self.reader.boosts(field_name))

    def max_field_boost(self, field_name: str) -> float:
        return self.reader.max_field_boost(field_name)


class _SegmentSet:
    """One committed generation's complete read state: the manifest,
    its open readers, doc-id bases, per-term stat caches and segment
    views, frozen together.

    This is the unit of concurrency control for serving: a refresh
    builds a whole new ``_SegmentSet`` and swaps one attribute on the
    :class:`SegmentedIndex`, so any single reference to a set is
    internally consistent forever.  The set is **refcounted** —
    queries pin it for their full lifetime via
    :meth:`SegmentedIndex.pinned` — and the mmaps only close when the
    set has been retired by a newer generation *and* the last pin is
    released.  Without the deferred close, a refresh under concurrent
    readers yanks the mmap out from under in-flight postings decodes
    (the PR 6 implementation did exactly that).
    """

    __slots__ = ("manifest", "readers", "bases", "views", "_df_cache",
                 "_avg_len_cache", "_doc_cache",
                 "_guard", "_refs", "_retired")

    def __init__(self, manifest: Manifest,
                 readers: List[SegmentReader],
                 bases: List[int]) -> None:
        self.manifest = manifest
        self.readers = readers
        self.bases = bases
        self.views: List[_SegmentView] = [
            _SegmentView(self, reader, base)
            for reader, base in zip(readers, bases)]
        self._df_cache: Dict[Tuple[str, str], int] = {}
        self._avg_len_cache: Dict[str, float] = {}
        self._doc_cache: Dict[int, Document] = {}
        self._guard = threading.Lock()
        self._refs = 0
        self._retired = False

    @classmethod
    def empty(cls, name: str) -> "_SegmentSet":
        return cls(Manifest(generation=-1, name=name, counter=1,
                            segments=()), [], [])

    @classmethod
    def open(cls, path: Path, manifest: Manifest) -> "_SegmentSet":
        readers: List[SegmentReader] = []
        bases: List[int] = []
        base = 0
        for info in manifest.segments:
            reader = SegmentReader(path / info.file)
            if reader.doc_count != info.doc_count:
                for opened in (*readers, reader):
                    opened.close()
                raise IndexError_(
                    f"segment {info.file} holds {reader.doc_count} "
                    f"docs, manifest says {info.doc_count}")
            readers.append(reader)
            bases.append(base)
            base += reader.doc_count
        return cls(manifest, readers, bases)

    # -- pin protocol --------------------------------------------------

    def try_pin(self) -> bool:
        """Take a pin, or refuse if the set was already retired.

        Refusing is what closes the TOCTOU window in
        :meth:`SegmentedIndex.pinned`: a reader that grabbed
        ``_state`` just before a refresh swapped it out would
        otherwise pin a set whose readers :meth:`retire` has already
        closed (or is free to close the moment this pin is released).
        ``_retired`` flips under the same ``_guard`` that protects the
        refcount, so a successful pin guarantees the readers stay open
        until the matching :meth:`unpin`.
        """
        with self._guard:
            if self._retired:
                return False
            self._refs += 1
            return True

    def unpin(self) -> None:
        with self._guard:
            self._refs -= 1
            close_now = self._retired and self._refs == 0
        if close_now:
            self._close_readers()

    def retire(self) -> None:
        """Mark the set as superseded; closes immediately when nobody
        holds a pin, otherwise the last :meth:`unpin` closes."""
        with self._guard:
            self._retired = True
            close_now = self._refs == 0
        if close_now:
            self._close_readers()

    def _close_readers(self) -> None:
        for reader in self.readers:
            reader.close()

    @property
    def closed(self) -> bool:
        """True once every reader's mmap has been released (an empty
        set is trivially closed).  Observability hook for the
        concurrency stress suite."""
        return all(reader._mmap.closed for reader in self.readers)

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def generation(self) -> int:
        """The committed manifest generation (the cache-key epoch)."""
        return self.manifest.generation

    @property
    def doc_count(self) -> int:
        return (self.bases[-1] + self.readers[-1].doc_count
                if self.readers else 0)

    @property
    def segment_count(self) -> int:
        return len(self.readers)

    def segment_views(self) -> List[_SegmentView]:
        """Per-segment duck indexes for the scatter-gather top-k
        driver, in doc-id (manifest) order."""
        return self.views

    def _locate(self, doc_id: int) -> Tuple[SegmentReader, int]:
        if not 0 <= doc_id < self.doc_count:
            raise IndexError_(f"unknown doc_id {doc_id}")
        position = bisect_right(self.bases, doc_id) - 1
        return self.readers[position], doc_id - self.bases[position]

    # -- the InvertedIndex read API ------------------------------------

    def field_names(self) -> List[str]:
        names = set()
        for reader in self.readers:
            names.update(reader.field_names())
        return sorted(names)

    def doc_frequency(self, field_name: str, term: str) -> int:
        """Corpus-wide document frequency, from term-dictionary
        metadata only — no postings decode.  The cache is set-local,
        so a racing duplicate computation writes the same value."""
        key = (field_name, term)
        cached = self._df_cache.get(key)
        if cached is None:
            cached = 0
            for reader in self.readers:
                meta = reader.term_meta(field_name, term)
                if meta is not None:
                    cached += meta.doc_frequency
            self._df_cache[key] = cached
        return cached

    def postings(self, field_name: str, term: str
                 ) -> Optional[_MultiPostings]:
        doc_frequency = self.doc_frequency(field_name, term)
        if doc_frequency == 0:
            return None
        parts = []
        for reader, base in zip(self.readers, self.bases):
            part = reader.postings(field_name, term, base=base,
                                   doc_frequency=doc_frequency)
            if part is not None:
                parts.append((base, base + reader.doc_count, part))
        return _MultiPostings(parts, doc_frequency)

    def terms(self, field_name: str) -> Iterator[str]:
        merged = set()
        for reader in self.readers:
            merged.update(reader.term_metas(field_name))
        return iter(sorted(merged))

    def terms_with_prefix(self, field_name: str, prefix: str
                          ) -> Iterator[str]:
        for term in self.terms(field_name):
            if term.startswith(prefix):
                yield term

    def field_length(self, field_name: str, doc_id: int) -> int:
        reader, local = self._locate(doc_id)
        return reader.field_length(field_name, local)

    def field_boost(self, field_name: str, doc_id: int) -> float:
        reader, local = self._locate(doc_id)
        return reader.field_boost(field_name, local)

    def max_field_boost(self, field_name: str) -> float:
        """Set-wide boost bound (never below 1.0).  Scoring bounds use
        each view's own, tighter figure."""
        return max([1.0, *(reader.max_field_boost(field_name)
                           for reader in self.readers)])

    def average_field_length(self, field_name: str) -> float:
        """Exact corpus-wide mean: the per-segment integer sums from
        the headers add associatively, so the float division happens
        once on the same operands as the monolithic computation.
        Memoized per set (immutable; racing writers store the same
        float, benign like :meth:`doc_frequency`'s cache)."""
        average = self._avg_len_cache.get(field_name)
        if average is None:
            total = 0
            docs = 0
            for reader in self.readers:
                total += reader.sum_lengths(field_name)
                docs += reader.docs_with_field(field_name)
            average = total / docs if docs else 0.0
            self._avg_len_cache[field_name] = average
        return average

    def docs_with_field(self, field_name: str) -> int:
        return sum(reader.docs_with_field(field_name)
                   for reader in self.readers)

    def stored_document(self, doc_id: int) -> Document:
        """The materialized stored document, built once per doc per
        generation and shared after that (the set is frozen, so
        callers must treat it as read-only — retrieval only ever
        ``get``\\ s fields)."""
        document = self._doc_cache.get(doc_id)
        if document is not None:
            return document
        reader, local = self._locate(doc_id)
        document = Document()
        for name, values in reader.stored_fields(local).items():
            for value in values:
                document.add(Field(name, value))
        self._doc_cache[doc_id] = document
        return document

    def stored_value(self, doc_id: int,
                     field_name: str) -> Optional[str]:
        reader, local = self._locate(doc_id)
        values = reader.stored_fields(local).get(field_name)
        return values[0] if values else None

    def unique_term_count(self, field_name: Optional[str] = None) -> int:
        if field_name is not None:
            merged = set()
            for reader in self.readers:
                merged.update(reader.term_metas(field_name))
            return len(merged)
        fields = set()
        for reader in self.readers:
            fields.update(reader.indexed_fields())
        return sum(self.unique_term_count(field) for field in fields)

    def __repr__(self) -> str:    # pragma: no cover - debugging aid
        return (f"<_SegmentSet {self.name!r} generation "
                f"{self.generation}: {self.segment_count} segments, "
                f"refs {self._refs}>")


class SegmentedIndex:
    """Read-only :class:`InvertedIndex` API over a committed segment
    set.

    Global statistics come from per-segment header summaries (integer
    sums, so they equal the monolithic figures exactly); per-document
    reads route to the owning segment by doc-id range.
    :attr:`generation` mirrors the committed manifest generation —
    :class:`~repro.search.searcher.QueryResultCache` keys on it, so
    :meth:`refresh` after a commit invalidates stale entries the same
    way in-memory index mutation does.

    **Concurrency contract.**  All read state lives in one immutable
    refcounted :class:`_SegmentSet`; :meth:`refresh` swaps it
    atomically and retires the old set, whose mmaps stay open until
    the last pinned reader releases it.  A multi-call operation that
    must see a single generation end to end (a scored query: cache
    key, postings, lengths, stored fields) wraps itself in
    :meth:`pinned` — :class:`~repro.search.searcher.IndexSearcher`
    does this automatically.  Individual method calls on this class
    are each internally consistent, but two *separate* calls may
    straddle a refresh.
    """

    def __init__(self, directory: Union[IndexDirectory, PathLike],
                 name: Optional[str] = None) -> None:
        if not isinstance(directory, IndexDirectory):
            directory = IndexDirectory(directory,
                                       name=name or "index")
        self.directory = directory
        self._state = _SegmentSet.empty(directory.name)
        #: serializes refresh/close (the swap itself is one attribute
        #: assignment; this keeps two refreshes from both opening
        #: readers for the same generation)
        self._refresh_lock = threading.Lock()
        self.refresh()

    # -- lifecycle -----------------------------------------------------

    def refresh(self) -> bool:
        """Re-open at the newest committed manifest.  Returns True
        when the live segment set changed.  Safe under concurrent
        readers: in-flight pinned queries keep serving the old set,
        which closes only when its last pin is released."""
        with self._refresh_lock:
            manifest = self.directory.manifest()
            if manifest.generation == self._state.generation:
                return False
            state = _SegmentSet.open(self.directory.path, manifest)
            old, self._state = self._state, state
            old.retire()
            return True

    def close(self) -> None:
        """Release this handle's segment set.  Pinned in-flight
        queries finish against the old set before it really closes."""
        with self._refresh_lock:
            old, self._state = self._state, _SegmentSet.empty(
                self.directory.name)
            old.retire()

    def __enter__(self) -> "SegmentedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def pinned(self) -> Iterator[_SegmentSet]:
        """Pin the current segment set for a multi-call read.

        Yields the :class:`_SegmentSet`, which serves the full
        :class:`InvertedIndex` read API (plus ``segment_views`` for
        the scatter-gather driver) frozen at one manifest generation.
        Concurrent :meth:`refresh`/:meth:`close` calls cannot close
        its readers until the ``with`` block exits.

        Reading ``self._state`` and pinning it are two steps, so a
        refresh can retire the set in between; :meth:`_SegmentSet.try_pin`
        detects that (retired flips under the set's own guard) and the
        loop retries against the freshly swapped-in state.  Each retry
        observes a set that some refresh/close published *after* the
        failed candidate, so the loop terminates as soon as swaps
        stop — it cannot spin against a stable ``_state``.
        """
        while True:
            state = self._state
            if state.try_pin():
                break
        try:
            yield state
        finally:
            state.unpin()

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._state.name

    @property
    def generation(self) -> int:
        """The committed manifest generation (the cache-key epoch)."""
        return self._state.generation

    @property
    def doc_count(self) -> int:
        return self._state.doc_count

    @property
    def segment_count(self) -> int:
        return self._state.segment_count

    def segment_views(self) -> List[_SegmentView]:
        """Per-segment duck indexes for the scatter-gather top-k
        driver, in doc-id (manifest) order."""
        return self._state.segment_views()

    # -- the InvertedIndex read API ------------------------------------
    # each call reads self._state once, so it is internally consistent;
    # cross-call consistency is what pinned() is for.

    def field_names(self) -> List[str]:
        return self._state.field_names()

    def doc_frequency(self, field_name: str, term: str) -> int:
        return self._state.doc_frequency(field_name, term)

    def postings(self, field_name: str, term: str
                 ) -> Optional[_MultiPostings]:
        return self._state.postings(field_name, term)

    def terms(self, field_name: str) -> Iterator[str]:
        return self._state.terms(field_name)

    def terms_with_prefix(self, field_name: str, prefix: str
                          ) -> Iterator[str]:
        return self._state.terms_with_prefix(field_name, prefix)

    def field_length(self, field_name: str, doc_id: int) -> int:
        return self._state.field_length(field_name, doc_id)

    def field_boost(self, field_name: str, doc_id: int) -> float:
        return self._state.field_boost(field_name, doc_id)

    def max_field_boost(self, field_name: str) -> float:
        return self._state.max_field_boost(field_name)

    def average_field_length(self, field_name: str) -> float:
        return self._state.average_field_length(field_name)

    def docs_with_field(self, field_name: str) -> int:
        return self._state.docs_with_field(field_name)

    def stored_document(self, doc_id: int) -> Document:
        return self._state.stored_document(doc_id)

    def stored_value(self, doc_id: int,
                     field_name: str) -> Optional[str]:
        return self._state.stored_value(doc_id, field_name)

    def unique_term_count(self, field_name: Optional[str] = None) -> int:
        return self._state.unique_term_count(field_name)

    # -- stats/debugging ------------------------------------------------

    def segment_infos(self) -> Tuple[SegmentInfo, ...]:
        return self._state.manifest.segments

    def to_inverted(self) -> InvertedIndex:
        """Materialize the whole segment set into one mutable index
        (parity tests and JSON export — not a serving path)."""
        with self.pinned() as state:
            index = InvertedIndex(name=state.name)
            for reader in state.readers:
                index.merge(reader.to_inverted())
            return index

    def __repr__(self) -> str:    # pragma: no cover - debugging aid
        return (f"<SegmentedIndex {self.name!r}: {self.doc_count} docs "
                f"in {self.segment_count} segments, "
                f"generation {self.generation}>")
