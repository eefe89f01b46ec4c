"""Inverted index: postings, writer, persistence, segments."""

from repro.search.index.directory import (list_indexes, load_index,
                                          save_index, segment_dir_path)
from repro.search.index.inverted import InvertedIndex
from repro.search.index.postings import Posting, PostingsList
from repro.search.index.segment import (SegmentReader,
                                        merge_segment_files,
                                        write_segment)
from repro.search.index.segments import (DEFAULT_MERGE_FACTOR,
                                         SEGMENT_DIR_SUFFIX,
                                         IndexDirectory, Manifest,
                                         SegmentedIndex, SegmentInfo)
from repro.search.index.writer import IndexWriter, PerFieldAnalyzer

__all__ = [
    "InvertedIndex",
    "Posting",
    "PostingsList",
    "IndexWriter",
    "PerFieldAnalyzer",
    "save_index",
    "load_index",
    "list_indexes",
    "segment_dir_path",
    "SegmentReader",
    "write_segment",
    "merge_segment_files",
    "IndexDirectory",
    "SegmentedIndex",
    "SegmentInfo",
    "Manifest",
    "SEGMENT_DIR_SUFFIX",
    "DEFAULT_MERGE_FACTOR",
]
