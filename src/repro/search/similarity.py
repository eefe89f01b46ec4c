"""Scoring models: Lucene-classic TF-IDF and BM25.

The paper built on pre-4.0 Lucene, whose practical scoring function is

    score(q, d) = coord(q, d) * Σ_t  tf(t, d) * idf(t)² * norm(d) * boost

with ``tf = √freq``, ``idf = 1 + ln(N / (df + 1))`` and
``norm = 1/√length``.  :class:`ClassicSimilarity` reproduces exactly
that, so the custom field boosts of §3.6.2 behave as they did in the
original system.  :class:`BM25Similarity` is provided for ablations.
"""

from __future__ import annotations

import math

__all__ = ["Similarity", "ClassicSimilarity", "BM25Similarity"]


class Similarity:
    """Scoring interface: per-term document score."""

    def score(self, term_frequency: int, doc_frequency: int,
              doc_count: int, field_length: int,
              average_field_length: float) -> float:
        raise NotImplementedError

    def max_score(self, max_frequency: int, doc_frequency: int,
                  doc_count: int) -> float:
        """Upper bound on :meth:`score` over every document of a
        postings list whose highest within-document frequency is
        ``max_frequency`` (the list's max-impact statistic).

        Used by the top-k pruned scoring path to skip documents that
        cannot reach the current k-th score.  The default is
        ``+inf`` — always safe, never prunes — so custom similarities
        stay correct without opting in.
        """
        return math.inf

    def batch_score(self, doc_frequency: int, doc_count: int,
                    average_field_length: float):
        """A per-document ``(term_frequency, field_length) -> float``
        closure with the term-constant work (IDF, parameter loads)
        hoisted out of the per-document loop.

        Every value it returns must be **bit-identical** to
        :meth:`score` with the same arguments — the top-k plan's
        contribution column relies on that for its parity guarantee.  The default
        simply defers to :meth:`score`, so custom similarities are
        correct without opting in; built-ins override it because the
        hot loop calls this once per document.
        """
        def score(term_frequency: int, field_length: int) -> float:
            return self.score(term_frequency, doc_frequency, doc_count,
                              field_length, average_field_length)
        return score

    def coord(self, matched_clauses: int, total_clauses: int) -> float:
        """Coordination factor rewarding docs matching more clauses."""
        if total_clauses <= 1:
            return 1.0
        return matched_clauses / total_clauses


class ClassicSimilarity(Similarity):
    """Lucene's classic (pre-BM25 default) TF-IDF scoring."""

    def idf(self, doc_frequency: int, doc_count: int) -> float:
        return 1.0 + math.log(doc_count / (doc_frequency + 1.0)) \
            if doc_count > 0 else 1.0

    def score(self, term_frequency: int, doc_frequency: int,
              doc_count: int, field_length: int,
              average_field_length: float) -> float:
        if term_frequency <= 0:
            return 0.0
        tf = math.sqrt(term_frequency)
        idf = self.idf(doc_frequency, doc_count)
        norm = 1.0 / math.sqrt(field_length) if field_length > 0 else 1.0
        return tf * idf * idf * norm

    def max_score(self, max_frequency: int, doc_frequency: int,
                  doc_count: int) -> float:
        # norm is at most 1.0 (field_length >= 1 for any matching doc)
        if max_frequency <= 0:
            return 0.0
        idf = self.idf(doc_frequency, doc_count)
        return math.sqrt(max_frequency) * idf * idf

    def batch_score(self, doc_frequency: int, doc_count: int,
                    average_field_length: float):
        # identical float sequence to score(): idf is a pure function
        # of (df, N), so computing it once changes nothing, and the
        # per-document expression keeps score()'s operation order
        idf = self.idf(doc_frequency, doc_count)
        sqrt = math.sqrt

        def score(term_frequency: int, field_length: int) -> float:
            if term_frequency <= 0:
                return 0.0
            tf = sqrt(term_frequency)
            norm = 1.0 / sqrt(field_length) if field_length > 0 else 1.0
            return tf * idf * idf * norm
        return score


class BM25Similarity(Similarity):
    """Okapi BM25 with the standard k1/b parameters."""

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be within [0, 1]")
        self.k1 = k1
        self.b = b

    def idf(self, doc_frequency: int, doc_count: int) -> float:
        return math.log(
            1.0 + (doc_count - doc_frequency + 0.5) / (doc_frequency + 0.5))

    def score(self, term_frequency: int, doc_frequency: int,
              doc_count: int, field_length: int,
              average_field_length: float) -> float:
        if term_frequency <= 0:
            return 0.0
        idf = self.idf(doc_frequency, doc_count)
        if average_field_length <= 0:
            length_norm = 1.0
        else:
            length_norm = (1.0 - self.b
                           + self.b * field_length / average_field_length)
        tf_component = (term_frequency * (self.k1 + 1.0)
                        / (term_frequency + self.k1 * length_norm))
        return idf * tf_component

    def max_score(self, max_frequency: int, doc_frequency: int,
                  doc_count: int) -> float:
        # tf_component grows with tf and shrinks with length_norm;
        # length_norm is at least (1 - b), so plugging max_frequency
        # and that floor in gives a sound upper bound.
        if max_frequency <= 0:
            return 0.0
        idf = self.idf(doc_frequency, doc_count)
        floor = self.k1 * (1.0 - self.b)
        return idf * (max_frequency * (self.k1 + 1.0)
                      / (max_frequency + floor))

    def batch_score(self, doc_frequency: int, doc_count: int,
                    average_field_length: float):
        # identical float sequence to score(): the hoisted values are
        # exact copies of score()'s subexpressions ((1.0 - b) and
        # (k1 + 1.0) are evaluated there the same way), and the
        # per-document expression keeps the operation order
        idf = self.idf(doc_frequency, doc_count)
        k1 = self.k1
        b = self.b
        one_minus_b = 1.0 - b
        k1_plus_1 = k1 + 1.0

        def score(term_frequency: int, field_length: int) -> float:
            if term_frequency <= 0:
                return 0.0
            if average_field_length <= 0:
                length_norm = 1.0
            else:
                length_norm = (one_minus_b
                               + b * field_length / average_field_length)
            return idf * (term_frequency * k1_plus_1
                          / (term_frequency + k1 * length_norm))
        return score

    def coord(self, matched_clauses: int, total_clauses: int) -> float:
        # BM25 in Lucene drops the coordination factor.
        return 1.0
