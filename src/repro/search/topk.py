"""MaxScore-style top-k query evaluation (the pruned serving path).

Exhaustive scoring (``Query.score_docs``) computes a score for every
matching document, even when the caller only wants the top ten.  This
module evaluates ``limit=k`` queries with *early termination*: each
scoring clause carries a score upper bound (from the postings lists'
max-impact statistics, see
:meth:`~repro.search.index.postings.PostingsList.max_frequency` and
:meth:`~repro.search.similarity.Similarity.max_score`), and once the
bounded result heap holds ``k`` documents, clauses whose combined
bounds cannot beat the current k-th score stop feeding candidates —
documents that appear only in those clauses are never scored at all.

**Pruning invariant**: the returned top-k is bit-identical to the
exhaustive path — same doc ids, same order (score descending, doc id
ascending) and same floating-point scores.  Three properties make
that hold:

1. every candidate that *is* scored goes through the clause scorers'
   ``score_one``, which replicates the exhaustive arithmetic in the
   same operation order;
2. a candidate is skipped only when its score *upper bound* is
   **strictly** below the current k-th score, so equal-score ties
   (which resolve by doc id) are never pruned away; and
3. the k-th score only ever grows, so a skip decision never needs to
   be revisited.

Queries whose type has no :class:`~repro.search.query.queries.Scorer`
(phrase, prefix, match-all, extras) return ``None`` here and fall
back to the exhaustive path, which remains the semantics oracle.

There is one scan loop, a *scatter-gather* over segment views: one
scorer per view, views scanned in ascending doc-id order against a
**shared** heap and threshold.  A
:class:`~repro.search.index.segments.SegmentedIndex` supplies its
views through ``segment_views()``; an in-memory
:class:`~repro.search.index.inverted.InvertedIndex` is a single view
of itself.  Because view doc-id ranges are disjoint and ascending, the
candidate stream is the exact stream one scan over the whole corpus
would produce, so all parity properties hold however the corpus is
split — and a whole segment whose best-possible score (from its
*local* max-impact statistics, which are tighter than global ones) is
strictly below θ skips scoring entirely.  Its candidates are still
enumerated so ``total_hits`` stays exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, List, Optional, Set, Tuple

from repro.search.index.postings import SKIP_BLOCK
from repro.search.query.queries import (BooleanScorer, DisMaxScorer,
                                        Query, Scorer, TermScorer)
from repro.search.similarity import Similarity

__all__ = ["TopKResult", "run_top_k"]


@dataclass
class TopKResult:
    """Outcome of a pruned top-k evaluation."""

    #: (doc_id, score), score descending then doc id ascending
    ranked: List[Tuple[int, float]]
    #: exact number of matching documents (candidate count)
    total_hits: int
    #: documents actually pushed through full scoring
    candidates_scored: int
    #: postings entries read while scoring
    postings_scanned: int
    #: True when clause bounds allowed skipping whole clauses
    pruned: bool
    #: segments whose candidates were scored (scatter-gather only)
    segments_searched: int = 0
    #: segments skipped whole because their bound was below θ
    segments_pruned: int = 0
    #: skip blocks scored through the batched block path
    blocks_scored: int = 0
    #: skip blocks skipped whole because their block-max bound was
    #: strictly below θ
    blocks_pruned: int = 0


class _SharedHeap:
    """The bounded result heap plus its threshold, shared across
    segment shards.  Keys are (score, -doc_id): min-heap order equals
    "worst of the current top k", and ties resolve doc-id-ascending
    exactly like :func:`repro.search.searcher.rank_docs`."""

    __slots__ = ("heap", "k", "theta")

    def __init__(self, k: int) -> None:
        self.heap: List[Tuple[float, int]] = []
        self.k = k
        self.theta: Optional[float] = None

    def offer(self, doc_id: int, score: float) -> bool:
        """Push a scored candidate; True when θ (the k-th score)
        rose."""
        key = (score, -doc_id)
        if len(self.heap) < self.k:
            heapq.heappush(self.heap, key)
            if len(self.heap) == self.k:
                self.theta = self.heap[0][0]
                return True
        elif key > self.heap[0]:
            heapq.heapreplace(self.heap, key)
            if self.heap[0][0] > self.theta:
                self.theta = self.heap[0][0]
                return True
        return False

    def drain(self) -> List[Tuple[int, float]]:
        ordered = sorted(self.heap, reverse=True)
        return [(-negative_doc, score)
                for score, negative_doc in ordered]


def run_top_k(index, similarity: Similarity,
              query: Query, k: Optional[int]) -> Optional[TopKResult]:
    """Evaluate ``query`` for its top ``k`` documents, or return
    ``None`` when the query (or ``k``) does not support pruning and
    the caller should score exhaustively.

    ``index`` is scanned view by view: a segmented index through
    ``segment_views()``, an in-memory index as the single view
    ``[index]``.  Views are visited in ascending doc-id (manifest)
    order, so the concatenation of their candidate streams is the
    whole corpus's stream and results are bit-identical however the
    corpus is split.  Once the heap is full, a view whose score bound
    is strictly below θ contributes its candidate count and nothing
    else.
    """
    if k is None or k <= 0:
        return None
    segment_views = getattr(index, "segment_views", None)
    views = segment_views() if segment_views is not None else [index]
    if not views:
        return None                 # empty set: exhaustive returns {}
    scorers = []
    for view in views:
        scorer = query.scorer(view, similarity)
        if scorer is None:          # query type without a scorer
            return None
        scorers.append(scorer)

    shared = _SharedHeap(k)
    total_hits = 0
    scored_total = 0
    pruned = False
    searched = 0
    skipped = 0
    blocks_scored = 0
    blocks_pruned = 0
    is_conjunctive = (isinstance(scorers[0], BooleanScorer)
                      and scorers[0].musts)
    for scorer in scorers:
        if shared.theta is not None \
                and scorer.max_contribution() < shared.theta:
            total_hits += _matching_count(scorer)
            skipped += 1
            pruned = True
            continue
        searched += 1
        if is_conjunctive:
            hits, scored = _conjunctive_scan(scorer, shared)
            total_hits += hits
            scored_total += scored
            pruned = True
            continue
        clauses, bounds, scale = _disjunctive_clauses(scorer)
        if clauses is not None:
            exclude = (scorer.excluded_docs()
                       if isinstance(scorer, BooleanScorer)
                       else frozenset())
            hits, scored, seg_pruned, seg_blocks = _maxscore_scan(
                clauses, bounds, scale, scorer, exclude, shared)
            total_hits += hits
            scored_total += scored
            blocks_pruned += seg_blocks
            pruned = pruned or seg_pruned
        elif isinstance(scorer, TermScorer):
            # a single term has no sibling clauses to prune against,
            # but the batched block scan still skips blocks below θ
            # and the bounded heap avoids materializing + sorting a
            # full score map
            outcome = _term_block_scan(scorer, shared)
            if outcome is None:
                candidates = scorer.doc_ids()
                scored = _heap_over(candidates, scorer, shared)
                outcome = (len(candidates), scored, False, 0, 0)
            hits, scored, seg_pruned, seg_scored, seg_skipped = outcome
            total_hits += hits
            scored_total += scored
            blocks_scored += seg_scored
            blocks_pruned += seg_skipped
            pruned = pruned or seg_pruned
        else:
            return None
    return TopKResult(
        ranked=shared.drain(), total_hits=total_hits,
        candidates_scored=scored_total,
        postings_scanned=sum(scorer.postings_scanned()
                             for scorer in scorers),
        pruned=pruned, segments_searched=searched,
        segments_pruned=skipped, blocks_scored=blocks_scored,
        blocks_pruned=blocks_pruned)


def _disjunctive_clauses(scorer: Scorer):
    """The ``(clauses, bounds, scale)`` triple for the MaxScore scan,
    or ``(None, None, 1.0)`` when the scorer is not disjunctive.
    ``bounds[i]`` is ``clauses[i].max_contribution() * scale``; the
    scale is handed out separately so per-block bounds can be pushed
    through the identical arithmetic (never a division, which could
    round a bound *below* the true maximum and break soundness)."""
    if isinstance(scorer, BooleanScorer) and not scorer.musts:
        scale = scorer.boost
        return scorer.shoulds, [sub.max_contribution() * scale
                                for sub in scorer.shoulds], scale
    if isinstance(scorer, DisMaxScorer):
        # per-doc dismax <= sum of the contributing clauses' bounds
        # (times boost, and tie_breaker when it exceeds 1)
        scale = scorer._boost * max(1.0, scorer._tie_breaker)
        return scorer._subs, [sub.max_contribution() * scale
                              for sub in scorer._subs], scale
    return None, None, 1.0


def _heap_over(candidates: Iterable[int], scorer: Scorer,
               shared: _SharedHeap) -> int:
    """Score every candidate into the shared heap; returns the number
    scored."""
    scored = 0
    for doc_id in candidates:
        score = scorer.score_one(doc_id)
        scored += 1
        if score is not None:
            shared.offer(doc_id, score)
    return scored


def _conjunctive_scan(scorer: BooleanScorer,
                      shared: _SharedHeap) -> Tuple[int, int]:
    """MUST clauses present: candidates are the (small) intersection
    of the MUST matches minus exclusions; score those and only those.
    Returns (candidate count, scored count)."""
    candidates = sorted(scorer.doc_id_set())
    _heap_over(candidates, scorer, shared)
    return len(candidates), len(candidates)


def _clause_block_bounds(clauses: List[Scorer]) -> List[Optional[object]]:
    """Per-clause block-bound accessor (``block -> unscaled bound``)
    for term clauses over block-structured postings, ``None``
    elsewhere.  Bounds are memoized on the scorer, so consulting one
    per merged document costs a dict probe."""
    accessors: List[Optional[object]] = []
    for clause in clauses:
        accessor = None
        if isinstance(clause, TermScorer) \
                and clause.block_count() is not None:
            accessor = clause.block_bound
        accessors.append(accessor)
    return accessors


def _maxscore_scan(clauses: List[Scorer], bounds: List[float],
                   scale: float, combiner: Scorer, exclude: Set[int],
                   shared: _SharedHeap) -> Tuple[int, int, bool, int]:
    """The MaxScore loop over disjunctive clauses, feeding the shared
    heap.  Returns (candidate count, scored count, pruned flag,
    blocks pruned).

    Three pruning levels, all sound because skips require a *strict*
    bound-below-θ comparison (score ≤ bound, so a skipped doc can
    never tie the k-th entry):

    * **clause retirement** (MaxScore proper) — clauses are ordered
      by ascending bound; once the heap is full, every prefix whose
      bound sum is strictly below the k-th score stops streaming.
      Documents appearing only in retired clauses are never visited.
    * **per-document bound skip** (WAND-style) — the merge knows
      exactly which live clauses contain the current doc, so its
      upper bound is their bound sum plus the retired clauses' total
      (membership there is unknown).  For a term clause the cursor
      ordinal names the skip block the doc sits in, so its
      contribution is capped by the *block-max* bound — strictly
      tighter wherever the block's best frequency undercuts the
      term's.  Below θ → not even scored.
    * **block skipping** (block-max WAND, single-survivor case) —
      once one clause remains live, its stream is drained one skip
      block per step: a block whose bound (plus the retired mass)
      falls below θ advances the cursor past the whole block without
      scoring — and, when the block maxima come from the v3 term
      dictionary, without decoding it either.

    Doc-id streams are merged with a linear scan over the live
    clauses rather than a heap: clause counts are small (query terms,
    not index terms), and the scan also yields the membership list the
    document bound needs.

    θ may already be set on entry (a previous segment shard filled the
    heap); retirement state is local to this scan, since bounds are.
    """
    doc_lists = [clause.doc_ids() for clause in clauses]
    count = len(clauses)
    order = sorted(range(count), key=lambda i: (bounds[i], i))
    prefix_bounds = list(accumulate(bounds[i] for i in order))
    block_bounds = _clause_block_bounds(clauses)

    # exact match count is cheap (set union, no scoring) and keeps
    # TopDocs.total_hits identical to the exhaustive path
    matching: Set[int] = set()
    for doc_list in doc_lists:
        matching.update(doc_list)
    matching -= exclude
    total_hits = len(matching)

    scored = 0
    pruned = False
    blocks_pruned = 0
    retired = [False] * count
    retired_bound = 0.0        # bound mass of the retired clauses
    non_essential = 0
    cursors = [0] * count
    active = [ci for ci in range(count) if doc_lists[ci]]

    def retire_below_theta() -> None:
        nonlocal non_essential, retired_bound, active, pruned
        changed = False
        while (non_essential < count
               and prefix_bounds[non_essential] < shared.theta):
            retired[order[non_essential]] = True
            retired_bound = prefix_bounds[non_essential]
            non_essential += 1
            changed = True
        if changed:
            pruned = True
            active = [ci for ci in active if not retired[ci]]

    if shared.theta is not None:
        retire_below_theta()

    while active:
        if len(active) == 1 and shared.theta is not None:
            # lone survivor: no merge left, drain its stream one skip
            # block per step.  Every doc in a block shares the block
            # bound, so one comparison either rejects the whole block
            # or admits per-doc scoring until θ rises — at which point
            # the bound is re-checked before the next doc.
            ci = active[0]
            doc_list = doc_lists[ci]
            size = len(doc_list)
            cursor = cursors[ci]
            accessor = block_bounds[ci]
            clause_bound = bounds[ci]
            while cursor < size:
                if accessor is not None:
                    tight = accessor(cursor // SKIP_BLOCK) * scale
                    block_bound = min(tight, clause_bound)
                    block_end = min(
                        (cursor // SKIP_BLOCK + 1) * SKIP_BLOCK, size)
                else:
                    block_bound = clause_bound
                    block_end = size
                if retired_bound + block_bound < shared.theta:
                    pruned = True
                    blocks_pruned += 1
                    cursor = block_end
                    continue
                while cursor < block_end:
                    doc_id = doc_list[cursor]
                    cursor += 1
                    if doc_id in exclude:
                        continue
                    score = combiner.score_one(doc_id)
                    scored += 1
                    if score is not None \
                            and shared.offer(doc_id, score):
                        break    # θ rose: re-check the block bound
            cursors[ci] = cursor
            break
        doc_id = min(doc_lists[ci][cursors[ci]] for ci in active)
        doc_bound = retired_bound
        exhausted = False
        for ci in active:
            if doc_lists[ci][cursors[ci]] == doc_id:
                accessor = block_bounds[ci]
                if accessor is None:
                    doc_bound += bounds[ci]
                else:
                    tight = accessor(cursors[ci] // SKIP_BLOCK) * scale
                    doc_bound += min(tight, bounds[ci])
                cursors[ci] += 1
                if cursors[ci] == len(doc_lists[ci]):
                    exhausted = True
        if exhausted:
            active = [ci for ci in active
                      if cursors[ci] < len(doc_lists[ci])]
        if doc_id in exclude:
            continue
        if shared.theta is not None and doc_bound < shared.theta:
            pruned = True      # provably below the k-th score
            continue
        score = combiner.score_one(doc_id)
        scored += 1
        if score is None:
            continue
        if shared.offer(doc_id, score):
            retire_below_theta()
    return total_hits, scored, pruned, blocks_pruned


def _term_block_scan(scorer: TermScorer, shared: _SharedHeap
                     ) -> Optional[Tuple[int, int, bool, int, int]]:
    """Batched scan of a lone term scorer, one skip block per step:
    bound the block from its block-max statistic, skip it whole when
    strictly below θ (no decode when the maxima are persisted in the
    term dictionary), otherwise score it with the batched typed-column
    loop.  Returns ``(hits, scored, pruned, blocks_scored,
    blocks_pruned)``, or ``None`` when the postings expose no block
    structure and the caller should fall back to the per-doc loop."""
    blocks = scorer.block_count()
    if blocks is None:
        return None
    scored = 0
    pruned = False
    blocks_scored = 0
    blocks_pruned = 0
    offer = shared.offer
    for block in range(blocks):
        theta = shared.theta
        if theta is not None and scorer.block_bound(block) < theta:
            pruned = True
            blocks_pruned += 1
            continue
        pairs = scorer.score_block(block)
        blocks_scored += 1
        scored += len(pairs)
        for doc_id, score in pairs:
            offer(doc_id, score)
    return scorer.matching_count(), scored, pruned, blocks_scored, \
        blocks_pruned


def _matching_count(scorer: Scorer) -> int:
    """Candidate count of one segment's scorer without scoring —
    pruned segments still owe their exact contribution to
    ``total_hits``."""
    if isinstance(scorer, BooleanScorer) or isinstance(scorer,
                                                       DisMaxScorer):
        return len(scorer.doc_id_set())
    return len(scorer.doc_ids())
