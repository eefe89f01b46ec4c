"""Query tree: term, phrase, prefix, boolean and match-all queries.

Each query knows how to score itself against an
:class:`~repro.search.index.inverted.InvertedIndex` given a
:class:`~repro.search.similarity.Similarity`; the searcher merely ranks
the resulting document→score map.

:meth:`Query.score_docs` is the exhaustive path: it materializes the
full doc→score map and is the semantics oracle.  The pruned top-k
path (:mod:`repro.search.topk`) compiles term, DisMax and boolean
trees into a flat plan and is verified bit-identical against it;
every other query type is always scored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence

from repro.errors import QueryError
from repro.search.index.inverted import InvertedIndex
from repro.search.similarity import Similarity

__all__ = ["Query", "TermQuery", "PhraseQuery", "PrefixQuery",
           "MatchAllQuery", "DisMaxQuery", "Occur", "BooleanClause",
           "BooleanQuery"]

Scores = Dict[int, float]


def _count_postings(amount: int) -> None:
    """Tally postings scanned into the active metrics registry (the
    import is deferred — see repro.search.searcher._observability)."""
    from repro.core.observability import get_observability
    metrics = get_observability().metrics
    if metrics.enabled:
        metrics.counter("query_postings_scanned_total",
                        "postings entries read while scoring queries"
                        ).inc(amount)


class Query:
    """Base query node."""

    boost: float = 1.0

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        raise NotImplementedError


@dataclass
class TermQuery(Query):
    """Match one analyzed term in one field."""

    field_name: str
    term: str
    boost: float = 1.0

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        postings = index.postings(self.field_name, self.term)
        if postings is None:
            return {}
        _count_postings(len(postings))
        doc_count = index.doc_count
        average = index.average_field_length(self.field_name)
        scores: Scores = {}
        for posting in postings:
            base = similarity.score(
                posting.frequency, postings.doc_frequency, doc_count,
                index.field_length(self.field_name, posting.doc_id),
                average)
            index_boost = index.field_boost(self.field_name, posting.doc_id)
            scores[posting.doc_id] = base * self.boost * index_boost
        return scores

    def __str__(self) -> str:
        suffix = f"^{self.boost}" if self.boost != 1.0 else ""
        return f"{self.field_name}:{self.term}{suffix}"


@dataclass
class PhraseQuery(Query):
    """Match terms at consecutive positions (slop 0) or within ``slop``."""

    field_name: str
    terms: Sequence[str]
    slop: int = 0
    boost: float = 1.0

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("phrase query needs at least one term")
        self.terms = list(self.terms)

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        if len(self.terms) == 1:
            return TermQuery(self.field_name, self.terms[0],
                             self.boost).score_docs(index, similarity)
        postings_lists = []
        for term in self.terms:
            postings = index.postings(self.field_name, term)
            if postings is None:
                return {}
            postings_lists.append(postings)
        _count_postings(sum(len(p) for p in postings_lists))
        candidates = set(p.doc_id for p in postings_lists[0])
        for postings in postings_lists[1:]:
            candidates &= set(p.doc_id for p in postings)
        doc_count = index.doc_count
        average = index.average_field_length(self.field_name)
        scores: Scores = {}
        for doc_id in candidates:
            phrase_freq = self._phrase_frequency(postings_lists, doc_id)
            if phrase_freq == 0:
                continue
            # idf of a phrase: sum of member idfs (Lucene's approach)
            idf_proxy_df = min(p.doc_frequency for p in postings_lists)
            base = similarity.score(
                phrase_freq, idf_proxy_df, doc_count,
                index.field_length(self.field_name, doc_id), average)
            index_boost = index.field_boost(self.field_name, doc_id)
            scores[doc_id] = base * self.boost * index_boost
        return scores

    def _phrase_frequency(self, postings_lists, doc_id: int) -> int:
        position_sets = []
        for postings in postings_lists:
            posting = postings.get(doc_id)
            if posting is None:
                return 0
            position_sets.append(set(posting.positions))
        count = 0
        for start in sorted(position_sets[0]):
            if self._match_from(position_sets, start):
                count += 1
        return count

    def _match_from(self, position_sets, start: int) -> bool:
        if self.slop == 0:
            return all(start + offset in positions
                       for offset, positions in enumerate(position_sets))
        # sloppy match: each next term must appear after the previous
        # one within the slop window; take the earliest valid position.
        expected = start
        for positions in position_sets[1:]:
            candidates = [pos for pos in positions
                          if expected < pos <= expected + 1 + self.slop]
            if not candidates:
                return False
            expected = min(candidates)
        return True

    def __str__(self) -> str:
        phrase = " ".join(self.terms)
        return f'{self.field_name}:"{phrase}"'


@dataclass
class PrefixQuery(Query):
    """Match every term starting with ``prefix`` (constant score)."""

    field_name: str
    prefix: str
    boost: float = 1.0

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        scores: Scores = {}
        for term in index.terms_with_prefix(self.field_name, self.prefix):
            postings = index.postings(self.field_name, term)
            if postings is None:
                continue
            _count_postings(len(postings))
            for posting in postings:
                index_boost = index.field_boost(self.field_name,
                                                posting.doc_id)
                score = self.boost * index_boost
                if score > scores.get(posting.doc_id, 0.0):
                    scores[posting.doc_id] = score
        return scores

    def __str__(self) -> str:
        return f"{self.field_name}:{self.prefix}*"


@dataclass
class MatchAllQuery(Query):
    """Match every document with a constant score."""

    boost: float = 1.0

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        return {doc_id: self.boost for doc_id in range(index.doc_count)}

    def __str__(self) -> str:
        return "*:*"


@dataclass
class DisMaxQuery(Query):
    """Disjunction-max: score is the best sub-query score per doc,
    plus ``tie_breaker`` times the others.

    The multi-field keyword interface uses this per query term so that
    a term matching the boosted ``event`` field is not penalized for
    missing the ten other fields (as a coordinated boolean would do).
    """

    queries: List[Query] = field(default_factory=list)
    tie_breaker: float = 0.0
    boost: float = 1.0

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        combined: Scores = {}
        totals: Scores = {}
        for query in self.queries:
            for doc_id, score in query.score_docs(index,
                                                  similarity).items():
                if score > combined.get(doc_id, 0.0):
                    combined[doc_id] = score
                totals[doc_id] = totals.get(doc_id, 0.0) + score
        if self.tie_breaker:
            for doc_id in combined:
                rest = totals[doc_id] - combined[doc_id]
                combined[doc_id] += self.tie_breaker * rest
        if self.boost != 1.0:
            combined = {doc: score * self.boost
                        for doc, score in combined.items()}
        return combined

    def __str__(self) -> str:
        inner = " | ".join(str(q) for q in self.queries)
        return f"dismax({inner})"


class Occur(Enum):
    """Boolean clause polarity."""

    MUST = "must"
    SHOULD = "should"
    MUST_NOT = "must_not"


@dataclass
class BooleanClause:
    query: Query
    occur: Occur = Occur.SHOULD


@dataclass
class BooleanQuery(Query):
    """Combination of sub-queries with Lucene boolean semantics.

    * MUST clauses all have to match; their scores add.
    * SHOULD clauses are optional; matches add score.  If there are no
      MUST clauses, at least one SHOULD clause has to match.
    * MUST_NOT clauses exclude documents.
    * The coordination factor multiplies score by the fraction of
      scoring (MUST/SHOULD) clauses matched.
    """

    clauses: List[BooleanClause] = field(default_factory=list)
    boost: float = 1.0

    def add(self, query: Query, occur: Occur = Occur.SHOULD
            ) -> "BooleanQuery":
        self.clauses.append(BooleanClause(query, occur))
        return self

    def score_docs(self, index: InvertedIndex,
                   similarity: Similarity) -> Scores:
        musts = [c.query for c in self.clauses if c.occur is Occur.MUST]
        shoulds = [c.query for c in self.clauses if c.occur is Occur.SHOULD]
        nots = [c.query for c in self.clauses if c.occur is Occur.MUST_NOT]
        if not musts and not shoulds:
            return {}

        must_scores = [q.score_docs(index, similarity) for q in musts]
        should_scores = [q.score_docs(index, similarity) for q in shoulds]

        if musts:
            allowed = set(must_scores[0])
            for scores in must_scores[1:]:
                allowed &= set(scores)
        else:
            allowed = set()
            for scores in should_scores:
                allowed |= set(scores)

        for query in nots:
            allowed -= set(query.score_docs(index, similarity))

        total_clauses = len(musts) + len(shoulds)
        combined: Scores = {}
        for doc_id in allowed:
            score = 0.0
            matched = 0
            for scores in must_scores:
                score += scores[doc_id]
                matched += 1
            for scores in should_scores:
                contribution = scores.get(doc_id)
                if contribution is not None:
                    score += contribution
                    matched += 1
            coord = similarity.coord(matched, total_clauses)
            combined[doc_id] = score * coord * self.boost
        return combined

    def __str__(self) -> str:
        rendered = []
        marker = {Occur.MUST: "+", Occur.SHOULD: "", Occur.MUST_NOT: "-"}
        for clause in self.clauses:
            rendered.append(f"{marker[clause.occur]}({clause.query})")
        return " ".join(rendered)
