"""``repro serve`` with spans around each layer's public entry points.

Usage (``src`` on ``PYTHONPATH``)::

    python perfbench/traced_serve.py SPANS.jsonl serve -d INDEXDIR -p PORT

The launcher wraps the entry points listed in :func:`install`, then
runs the ordinary ``repro`` command line.  Each wrapped call records
one span — name, start, end, parent span, thread, request or match id,
and a small summary of its result — in memory.  When the server has
drained (SIGTERM), the spans are written to ``SPANS.jsonl``, one JSON
list per line.  A name already open on the calling thread is not
recorded again, so a recursive entry point (``Query.scorer``) counts
once, as its outermost call.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class SpanRecorder:
    """Spans kept in memory: ``(id, parent, name, thread, start, end,
    rid, info)`` tuples, ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = set()
            local.rid = None
        return local

    def wrap(self, owner, attr: str, name: str, rid=None, info=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  ``rid(args)``
        names the request the call belongs to (inherited by the spans
        it opens); ``info(args, result)`` summarizes the result."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = recorder._state()
            if name in state.open:
                return original(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = state.stack[-1] if state.stack else 0
            outer_rid = state.rid
            if rid is not None:
                state.rid = rid(args)
            state.stack.append(span_id)
            state.open.add(name)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.open.discard(name)
                recorder.spans.append((
                    span_id, parent, name,
                    threading.current_thread().name, start, end,
                    state.rid, info(args, result) if info else None))
                state.rid = outer_rid

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _topk_info(args, result):
    if result is None:
        return None
    return [result.candidates_scored, result.postings_scanned,
            result.segments_searched, result.segments_pruned,
            result.blocks_scored, result.blocks_pruned]


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point (imports are deferred so that
    importing this module touches nothing)."""
    from repro.app import SemanticSearchApplication
    from repro.core.parallel import MatchProcessor
    from repro.core.phrasal import PhrasalQueryParser, PhrasalSearchEngine
    from repro.core.retrieval import KeywordSearchEngine
    from repro.search import searcher as searcher_module
    from repro.search.highlight import Highlighter
    from repro.search.index.segments import IndexDirectory, SegmentedIndex
    from repro.search.query import extras, queries
    from repro.search.spell import SpellChecker
    from repro.serve.ingest import IngestWorker
    from repro.serve.service import ReproService

    wrap = recorder.wrap
    wrap(ReproService, "handle_search_bytes", "serve.handle_search_bytes",
         rid=lambda args: args[1].get("rid"))
    wrap(ReproService, "handle_search", "serve.handle_search")
    wrap(SemanticSearchApplication, "search", "app.search",
         info=lambda args, result: (None if result is None else
                                    [result.corrected, result.phrasal]))
    wrap(SpellChecker, "correct_query", "spell.correct_query")
    wrap(PhrasalQueryParser, "parse_parts", "phrasal.parse")
    wrap(KeywordSearchEngine, "build_query", "retrieval.build_query")
    wrap(PhrasalSearchEngine, "build_query", "retrieval.build_query")
    query_classes = {value for module in (queries, extras)
                     for value in vars(module).values()
                     if isinstance(value, type)
                     and issubclass(value, queries.Query)
                     and "scorer" in vars(value)}
    for query_class in query_classes:
        wrap(query_class, "scorer", "query.scorer")
    # IndexSearcher calls run_top_k through its own module namespace
    wrap(searcher_module, "run_top_k", "topk.run_top_k", info=_topk_info)
    wrap(searcher_module.IndexSearcher, "search", "searcher.search")
    wrap(searcher_module.IndexSearcher, "document", "searcher.document")
    wrap(Highlighter, "highlight_terms", "highlight")
    wrap(IngestWorker, "submit", "ingest.submit",
         rid=lambda args: args[1].match_id)
    wrap(MatchProcessor, "process", "ingest.process",
         rid=lambda args: args[1].crawled.match_id,
         info=lambda args, result: (None if result is None
                                    else result.stage_seconds))
    wrap(IndexDirectory, "add_index", "ingest.add_index")
    wrap(SegmentedIndex, "refresh", "index.refresh")
    wrap(IndexDirectory, "merge", "maintenance.merge",
         info=lambda args, result: result)


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.jsonl serve -d INDEXDIR ...",
              file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main
    try:
        return repro_main(command)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
