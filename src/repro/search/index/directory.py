"""Index persistence: every saved index is a segment directory.

A directory holds one ``<name>.segd/`` entry per index: immutable
mmap'd segments plus an atomic ``segments_<N>`` manifest (see
:mod:`repro.search.index.segments`).  That is the only persisted
format.  :func:`save_index` seals an in-memory
:class:`~repro.search.index.inverted.InvertedIndex` as one segment;
``repro build --segmented`` writes many, one per chunk of matches.
Either way :func:`load_index` opens a
:class:`~repro.search.index.segments.SegmentedIndex`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.errors import IndexError_
from repro.search.index.inverted import InvertedIndex
from repro.search.index.segments import (SEGMENT_DIR_SUFFIX,
                                         IndexDirectory, SegmentedIndex)

__all__ = ["save_index", "load_index", "list_indexes",
           "segment_dir_path"]

PathLike = Union[str, Path]

#: files earlier versions wrote per index; recognised only to point
#: the user at a rebuild
_LEGACY_SUFFIXES = (".json", ".ridx")


def segment_dir_path(directory: PathLike, name: str) -> Path:
    """The segment directory an index of ``name`` would occupy."""
    return Path(directory) / f"{name}{SEGMENT_DIR_SUFFIX}"


def save_index(index: InvertedIndex, directory: PathLike) -> Path:
    """Seal ``index`` as one segment in ``directory/<index.name>.segd``
    and commit a manifest holding only that segment, so saving again
    replaces the index.  Superseded segment files are vacuumed.
    Returns the segment directory."""
    target = IndexDirectory(segment_dir_path(directory, index.name),
                            name=index.name)
    with target.lock:
        info, counter = target.seal(index)
        target.commit([info], counter=counter)
        target.vacuum()
    return target.path


def load_index(directory: PathLike, name: str) -> SegmentedIndex:
    """Open the index called ``name`` in ``directory`` — mmap-backed,
    O(1) in corpus size."""
    segment_dir = segment_dir_path(directory, name)
    if segment_dir.is_dir():
        segmented = IndexDirectory(segment_dir, name=name)
        if segmented.read_manifest() is not None:
            return SegmentedIndex(segmented)
    for suffix in _LEGACY_SUFFIXES:
        legacy = Path(directory) / f"{name}{suffix}"
        if legacy.exists():
            raise IndexError_(
                f"{legacy} is a legacy index file, no longer readable; "
                f"rebuild with `repro build -d {directory}`")
    raise IndexError_(f"no index {name!r} in {directory}")


def list_indexes(directory: PathLike) -> List[str]:
    """Names of all indexes stored in ``directory``."""
    target = Path(directory)
    if not target.exists():
        return []
    return sorted(entry.name[:-len(SEGMENT_DIR_SUFFIX)]
                  for entry in target.glob(f"*{SEGMENT_DIR_SUFFIX}")
                  if entry.is_dir())
