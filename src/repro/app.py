"""The deployable application facade.

:class:`SemanticSearchApplication` bundles everything a consumer of
the system touches at *query time* into one object: the saved inferred
index, spell correction, phrasal-expression handling (§6), learned
feedback expansions (§8) and highlighting — the online half of the
paper's offline/online split.

Typical lifecycle::

    # offline (once)
    corpus = standard_corpus()
    result = SemanticRetrievalPipeline().run(corpus.crawled)
    SemanticSearchApplication.persist(result, "var/indexes")

    # online (every process start)
    app = SemanticSearchApplication.open("var/indexes")
    response = app.search("foul by daniel to florent")
    app.feedback(response.query, response.hits[0])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.core import (F, IndexName, KeywordSearchEngine,
                        PhrasalSearchEngine, PipelineResult, SearchHit)
from repro.core.feedback import FeedbackSearchEngine
from repro.core.phrasal import PhrasalQueryParser
from repro.search import (Highlighter, SpellChecker, load_index,
                          save_index)
from repro.search.highlight import collect_terms
from repro.search.index import InvertedIndex, SegmentedIndex

__all__ = ["SearchResponse", "SemanticSearchApplication"]

PathLike = Union[str, Path]

#: a pipeline run's in-memory index or a saved, segmented one — the
#: facade duck-types both.
AnyIndex = Union[InvertedIndex, SegmentedIndex]


@dataclass
class SearchResponse:
    """What one search returns to the caller."""

    query: str                      # the query as executed
    original_query: str             # what the user typed
    hits: List[SearchHit]
    corrected: bool = False         # spell correction applied
    phrasal: bool = False           # by/to/of phrases detected
    snippets: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.hits)


class SemanticSearchApplication:
    """Query-time facade over a built (or loaded) inferred index.

    It searches either a pipeline run's in-memory
    :class:`InvertedIndex` (:meth:`from_pipeline`) or the mmap'd
    :class:`~repro.search.index.segments.SegmentedIndex` that
    :meth:`open` loads from a saved directory.  Every query-time
    collaborator (feedback learner, spell checker, query result cache)
    keys its derived state on the index's ``generation`` counter, so
    live ingestion into a saved directory — commit a delta segment,
    :meth:`refresh` — makes new documents searchable, learnable and
    spell-known without restart.
    """

    def __init__(self, inferred_index: AnyIndex,
                 phrasal_index: Optional[AnyIndex] = None,
                 feedback_min_support: int = 3) -> None:
        self.index = inferred_index
        self.phrasal_index = phrasal_index
        self.engine = KeywordSearchEngine(inferred_index)
        self.feedback_engine = FeedbackSearchEngine(
            inferred_index, min_support=feedback_min_support)
        self.phrasal_engine = (PhrasalSearchEngine(phrasal_index)
                               if phrasal_index is not None else None)
        self.phrasal_parser = PhrasalQueryParser()
        self.spell = SpellChecker(
            inferred_index,
            fields=[F.EVENT, F.SUBJECT_PLAYER, F.OBJECT_PLAYER,
                    F.NARRATION])
        self.highlighter = Highlighter()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def persist(cls, result: PipelineResult,
                directory: PathLike) -> Path:
        """Save the online-serving indexes of a pipeline run, one
        ``<name>.segd`` segment directory each."""
        target = Path(directory)
        save_index(result.index(IndexName.FULL_INF), target)
        save_index(result.index(IndexName.PHR_EXP), target)
        return target

    @classmethod
    def open(cls, directory: PathLike,
             feedback_min_support: int = 3) -> "SemanticSearchApplication":
        """Load a persisted application."""
        inferred = load_index(directory, IndexName.FULL_INF)
        phrasal = load_index(directory, IndexName.PHR_EXP)
        return cls(inferred, phrasal,
                   feedback_min_support=feedback_min_support)

    @classmethod
    def from_pipeline(cls, result: PipelineResult,
                      feedback_min_support: int = 3
                      ) -> "SemanticSearchApplication":
        """Wrap an in-memory pipeline result (no disk round trip)."""
        return cls(result.index(IndexName.FULL_INF),
                   result.index(IndexName.PHR_EXP),
                   feedback_min_support=feedback_min_support)

    @property
    def generation(self) -> int:
        """The serving index's generation counter (cache epoch)."""
        return self.index.generation

    def refresh(self) -> bool:
        """Re-open saved indexes at their newest committed manifest;
        returns True when anything changed.  A no-op over in-memory
        indexes (their mutations are visible immediately)."""
        changed = False
        for index in (self.index, self.phrasal_index):
            refresh = getattr(index, "refresh", None)
            if refresh is not None and refresh():
                changed = True
        return changed

    def close(self) -> None:
        """Release saved indexes' mmaps (no-op for in-memory indexes).
        In-flight pinned queries finish first."""
        for index in (self.index, self.phrasal_index):
            close = getattr(index, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "SemanticSearchApplication":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def search(self, text: str, limit: int = 10,
               spell_correct: bool = True,
               snippets: bool = True) -> SearchResponse:
        """One user query through the full online stack.

        Order of operations: spell-correct unknown terms → route to
        the phrasal engine when by/to/of phrases are present →
        otherwise keyword search with learned feedback expansions →
        highlight snippets.
        """
        original = text
        corrected = False
        if spell_correct:
            fixed = self.spell.correct_query(text)
            corrected = fixed != text
            text = fixed

        __, role_terms = self.phrasal_parser.parse_parts(text)
        use_phrasal = bool(role_terms) and self.phrasal_engine is not None
        if use_phrasal:
            hits = self.phrasal_engine.search(text, limit=limit)
            query_tree = self.phrasal_engine.build_query(text)
        else:
            expanded = self.feedback_engine.expand_query(text)
            hits = self.engine.search(expanded, limit=limit)
            query_tree = self.engine.build_query(expanded)

        response = SearchResponse(
            query=text, original_query=original, hits=hits,
            corrected=corrected, phrasal=use_phrasal)
        if snippets:
            terms = collect_terms(query_tree)
            response.snippets = [
                self.highlighter.highlight_terms(hit.narration, terms)
                if hit.narration else ""
                for hit in hits
            ]
        return response

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------

    def feedback(self, query: str, hit: SearchHit | str) -> None:
        """Record a click; learned expansions refresh immediately."""
        self.feedback_engine.record_click(query, hit)
        self.feedback_engine.refresh()

    @property
    def learned_expansions(self) -> dict:
        return self.feedback_engine.expansions
