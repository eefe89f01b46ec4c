"""Top-k query evaluation: compile a query into a flat plan, scan it
view by view with MaxScore pruning (the serving path).

Every query the engines serve is one of three two-level shapes: a
coordinated :class:`BooleanQuery` over ``Term``/``DisMax(Term…)``
clauses, that boolean plus MUST role terms, or a bare DisMax (or
term).  :func:`compile_plan` flattens such a tree into a
:class:`Plan` — one ``(group, field, term, boost)`` row per term, one
group per clause carrying its occur, tie-breaker and boost.  Any other
shape (phrase, prefix, match-all, the extras, nested booleans)
compiles to ``None`` and is scored exhaustively by
``Query.score_docs``, which stays the semantics oracle.

:func:`run_top_k` runs one scan loop over *views*: a
:class:`~repro.search.index.segments.SegmentedIndex` supplies its
segment views through ``segment_views()``, an in-memory
:class:`~repro.search.index.inverted.InvertedIndex` is the single view
``[index]``.  Binding the plan to a view is term lookup plus probes of
the view's ``contrib_memo``/``bound_memo`` (segment views freeze their
scoring inputs with the generation, so a term group's merged
contributor map and each row's score bound are computed once per
view).  Views are visited in ascending doc-id order against one
**shared** heap and threshold θ, so the candidate stream is the one a
scan over the whole corpus would produce, however it is split.

**Pruning invariant**: the returned top-k is bit-identical to the
exhaustive path — same doc ids, same order (score descending, doc id
ascending) and same floats.  Three properties make that hold:

1. every candidate that *is* scored goes through :meth:`_Binding.score`,
   which replays the exhaustive float sequence — per-row contribution
   (similarity, then ``* term boost * index boost``), DisMax
   best/total/tie/boost, the boolean sum (MUST groups, then SHOULD
   groups, each in clause order), then coord and boost;
2. anything is skipped only when its score *upper bound* is
   **strictly** below θ, so equal-score ties (which resolve by doc id)
   are never pruned away; and
3. θ only ever grows, so a skip decision never needs revisiting.

Four pruning levels apply, all over plan groups and rows: a whole
**segment** whose bound (from its *local* max-impact statistics) is
below θ; MaxScore **retirement** of the lowest-bound clauses; a
**per-document bound** from the clauses that actually hold the doc;
and **block-max** skipping of whole skip blocks of a term clause.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.search.index.postings import SKIP_BLOCK
from repro.search.query.queries import (BooleanQuery, DisMaxQuery, Occur,
                                        Query, TermQuery)
from repro.search.similarity import Similarity

__all__ = ["PlanRow", "PlanGroup", "Plan", "TopKResult", "compile_plan",
           "row_contributions", "run_top_k", "score_doc"]


class PlanRow(NamedTuple):
    """One term of a plan: the group it belongs to plus its term."""

    group: int
    field: str
    term: str
    boost: float


class PlanGroup(NamedTuple):
    """One clause of a plan: a bare term (``dismax=False``, scored as
    its single row) or a DisMax over its rows."""

    occur: Occur
    dismax: bool
    tie_breaker: float
    boost: float
    #: indices of the group's rows in :attr:`Plan.rows`
    rows: range


@dataclass(frozen=True)
class Plan:
    """A compiled query: flat rows, per-group combination, and — for a
    top-level boolean — the coordinated sum."""

    rows: Tuple[PlanRow, ...]
    groups: Tuple[PlanGroup, ...]
    #: True for a top-level BooleanQuery: group scores sum, then coord
    #: and :attr:`boost` apply; otherwise the one group's score is the
    #: document's score
    boolean: bool
    boost: float


def compile_plan(query: Query) -> Optional[Plan]:
    """Flatten ``Term``, ``DisMax(Term…)`` or
    ``Boolean(Term | DisMax(Term…))`` into a :class:`Plan`; ``None``
    for every other shape (those score exhaustively)."""
    if type(query) is BooleanQuery:
        clauses = [(clause.query, clause.occur) for clause in query.clauses]
        if all(occur is Occur.MUST_NOT for _, occur in clauses):
            return None
        boolean, boost = True, query.boost
    else:
        clauses = [(query, Occur.SHOULD)]
        boolean, boost = False, 1.0
    rows: List[PlanRow] = []
    groups: List[PlanGroup] = []
    for number, (clause, occur) in enumerate(clauses):
        if type(clause) is TermQuery:
            terms = [clause]
            dismax, tie_breaker, group_boost = False, 0.0, 1.0
        elif (type(clause) is DisMaxQuery and clause.queries
              and all(type(sub) is TermQuery for sub in clause.queries)):
            terms = clause.queries
            dismax, tie_breaker, group_boost = (True, clause.tie_breaker,
                                                clause.boost)
        else:
            return None
        groups.append(PlanGroup(occur, dismax, tie_breaker, group_boost,
                                range(len(rows), len(rows) + len(terms))))
        rows.extend(PlanRow(number, term.field_name, term.term, term.boost)
                    for term in terms)
    return Plan(tuple(rows), tuple(groups), boolean, boost)


def row_contributions(view, similarity: Similarity, field: str, term: str,
                      boost: float, doc_id: Optional[int] = None
                      ) -> Tuple[Sequence[int], List[float]]:
    """The per-row contribution column: ``(doc ids, contributions)`` of
    one term over one view, in postings order.  Each contribution is
    ``similarity.score(...) * boost * index boost`` — the float
    sequence of ``TermQuery.score_docs`` — with the term constants
    hoisted into ``similarity.batch_score`` and one tight loop over the
    typed columns.  With ``doc_id`` only that document's posting is
    probed (the explain path)."""
    postings = view.postings(field, term)
    if postings is None:
        return (), []
    if doc_id is None:
        doc_ids, freqs = postings.doc_ids(), postings.freqs()
    else:
        frequency = postings.frequency(doc_id)
        if frequency is None:
            return (), []
        doc_ids, freqs = [doc_id], [frequency]
    sim_score = similarity.batch_score(postings.doc_frequency,
                                       view.doc_count,
                                       view.average_field_length(field))
    # the maps are keyed by the view's local doc ids: two dict probes
    # per document instead of two method calls
    lengths, boosts = view.local_field_maps(field)
    length_of, boost_of = lengths.get, boosts.get
    base = postings.base
    return doc_ids, [sim_score(frequency, length_of(doc - base, 0))
                     * boost * boost_of(doc - base, 1.0)
                     for doc, frequency in zip(doc_ids, freqs)]


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
    #: True when bounds allowed skipping some scoring work
    pruned: bool
    #: views whose candidates were scored
    segments_searched: int = 0
    #: views skipped whole because their bound was below θ
    segments_pruned: int = 0
    #: skip blocks of a lone surviving term clause scored doc by doc
    blocks_scored: int = 0
    #: skip blocks skipped whole because their block-max bound was
    #: strictly below θ
    blocks_pruned: int = 0


class _SharedHeap:
    """The bounded result heap plus its threshold, shared across
    views.  Keys are (score, -doc_id): min-heap order equals "worst of
    the current top k", and ties resolve doc-id-ascending exactly like
    :func:`repro.search.searcher.rank_docs`."""

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


def _views(index) -> list:
    segment_views = getattr(index, "segment_views", None)
    return segment_views() if segment_views is not None else [index]


def _group_score(group: PlanGroup, entry) -> Optional[float]:
    """A group's score from its contributor-map entry: the row's
    contribution for a term group; for a DisMax the exhaustive
    sequence — the running best starts at 0.0, so the doc matches only
    once some contribution exceeds it, while the total sums them all."""
    if not group.dismax:
        return entry
    best = 0.0
    matched = False
    total = 0.0
    for score in entry:
        if score > best:
            best = score
            matched = True
        total += score
    if not matched:
        return None
    if group.tie_breaker:
        best += group.tie_breaker * (total - best)
    if group.boost != 1.0:
        best *= group.boost
    return best


class _Binding:
    """A plan bound to one view.

    ``maps[g]`` is group ``g``'s contributor map — doc id to the row's
    contribution (term group) or to the contributions of the rows that
    hold the doc, in row order (DisMax group) — and ``doc_lists[g]``
    its doc ids, ascending.  Both are memoized in the view's
    ``contrib_memo`` under the group's rows, row bounds in its
    ``bound_memo``; a view without memos (a mutable in-memory index)
    or a one-document binding (``doc_id``) gets per-binding dicts.
    """

    __slots__ = ("plan", "view", "similarity", "maps", "doc_lists",
                 "musts", "shoulds", "excluded", "scanned", "_contribs",
                 "_bounds", "_blocks")

    def __init__(self, plan: Plan, view, similarity: Similarity,
                 doc_id: Optional[int] = None) -> None:
        self.plan = plan
        self.view = view
        self.similarity = similarity
        #: postings entries consumed by :meth:`score`
        self.scanned = 0
        contribs = bounds = None
        if doc_id is None:
            contribs = getattr(view, "contrib_memo", None)
            bounds = getattr(view, "bound_memo", None)
        self._contribs = {} if contribs is None else contribs
        self._bounds = {} if bounds is None else bounds
        self._blocks: dict = {}
        self.maps = []
        self.doc_lists = []
        for group in plan.groups:
            cmap, doc_list = self._group_map(group, doc_id)
            self.maps.append(cmap)
            self.doc_lists.append(doc_list)
        occurs = [group.occur for group in plan.groups]
        self.musts = [g for g, occur in enumerate(occurs)
                      if occur is Occur.MUST]
        self.shoulds = [g for g, occur in enumerate(occurs)
                        if occur is Occur.SHOULD]
        self.excluded = set().union(
            *(self.maps[g] for g, occur in enumerate(occurs)
              if occur is Occur.MUST_NOT))

    def _row_key(self, row: int) -> tuple:
        _, field, term, boost = self.plan.rows[row]
        return (self.similarity, field, term, boost)

    def column(self, row: int, doc_id: Optional[int] = None):
        """Row ``row``'s contribution column (memoized)."""
        key = self._row_key(row)
        column = self._contribs.get(key)
        if column is None:
            _, field, term, boost = self.plan.rows[row]
            column = row_contributions(self.view, self.similarity, field,
                                       term, boost, doc_id)
            self._contribs[key] = column
        return column

    def _group_map(self, group: PlanGroup, doc_id: Optional[int]):
        key = (group.dismax,) + tuple(self._row_key(row)
                                      for row in group.rows)
        found = self._contribs.get(key)
        if found is not None:
            return found
        columns = [self.column(row, doc_id) for row in group.rows]
        if group.dismax:
            cmap: dict = {}
            for doc_ids, values in columns:
                for doc, value in zip(doc_ids, values):
                    entry = cmap.get(doc)
                    if entry is None:
                        cmap[doc] = [value]
                    else:
                        entry.append(value)
            found = (cmap, sorted(cmap))
        else:
            doc_ids, values = columns[0]
            found = (dict(zip(doc_ids, values)), doc_ids)
        self._contribs[key] = found
        return found

    # -- scoring --------------------------------------------------------

    def score(self, doc_id: int) -> Optional[float]:
        """The document's exact score, ``None`` when it does not
        match."""
        plan = self.plan
        groups = plan.groups
        maps = self.maps
        if not plan.boolean:
            entry = maps[0].get(doc_id)
            if entry is None:
                return None
            self.scanned += len(entry) if groups[0].dismax else 1
            return _group_score(groups[0], entry)
        if doc_id in self.excluded:
            return None
        score = 0.0
        matched = 0
        for g in self.musts:
            entry = maps[g].get(doc_id)
            if entry is None:
                return None
            self.scanned += len(entry) if groups[g].dismax else 1
            contribution = _group_score(groups[g], entry)
            if contribution is None:
                return None
            score += contribution
            matched += 1
        for g in self.shoulds:
            entry = maps[g].get(doc_id)
            if entry is None:
                continue
            self.scanned += len(entry) if groups[g].dismax else 1
            contribution = _group_score(groups[g], entry)
            if contribution is not None:
                score += contribution
                matched += 1
        if not self.musts and matched == 0:
            return None
        coord = self.similarity.coord(
            matched, len(self.musts) + len(self.shoulds))
        return score * coord * plan.boost

    def candidates(self):
        """Every matching doc id of this view (a set, or the one
        group's contributor map for a non-boolean plan)."""
        maps = self.maps
        if not self.plan.boolean:
            return maps[0]
        if self.musts:
            matching = set(maps[self.musts[0]])
            for g in self.musts[1:]:
                matching.intersection_update(maps[g])
        else:
            matching = set()
            for g in self.shoulds:
                matching.update(self.doc_lists[g])
        return matching - self.excluded

    # -- bounds ---------------------------------------------------------

    def row_bound(self, row: int) -> float:
        """Upper bound on row ``row``'s contribution in this view, from
        the view-local max-impact statistics (memoized)."""
        key = self._row_key(row)
        bound = self._bounds.get(key)
        if bound is None:
            _, field, term, boost = self.plan.rows[row]
            postings = self.view.postings(field, term)
            bound = 0.0
            if postings is not None:
                bound = self.similarity.max_score(
                    postings.max_frequency, postings.doc_frequency,
                    self.view.doc_count)
                bound = bound * boost * self.view.max_field_boost(field)
            self._bounds[key] = bound
        return bound

    def block_bound(self, row: int, block: int) -> float:
        """Upper bound on row ``row``'s contribution inside one skip
        block — the block's max frequency through the same arithmetic
        as :meth:`row_bound`, so it is sound for the same reason and
        tighter wherever the block's best undercuts the term's."""
        bounds = self._blocks.get(row)
        if bounds is None:
            bounds = self._blocks[row] = {}
        bound = bounds.get(block)
        if bound is None:
            _, field, term, boost = self.plan.rows[row]
            postings = self.view.postings(field, term)
            bound = self.similarity.max_score(
                postings.block_max_frequency(block),
                postings.doc_frequency, self.view.doc_count)
            bound = bound * boost * self.view.max_field_boost(field)
            bounds[block] = bound
        return bound

    def group_bound(self, g: int) -> float:
        group = self.plan.groups[g]
        bounds = [self.row_bound(row) for row in group.rows]
        if not group.dismax:
            return bounds[0]
        best, total = max(bounds), sum(bounds)
        tie = group.tie_breaker
        if tie <= 0.0:
            bound = best
        elif tie <= 1.0:
            bound = (1.0 - tie) * best + tie * total
        else:
            bound = tie * total
        return bound * group.boost

    def max_score(self) -> float:
        """Upper bound on any document's score in this view (coord is
        at most 1, so the clause-bound sum times boost dominates)."""
        if not self.plan.boolean:
            return self.group_bound(0)
        return sum(self.group_bound(g)
                   for g in self.musts + self.shoulds) * self.plan.boost


def run_top_k(index, similarity: Similarity,
              query: Query, k: Optional[int]) -> Optional[TopKResult]:
    """Evaluate ``query`` for its top ``k`` documents, or return
    ``None`` when the query does not compile to a plan (or ``k`` is
    unset) and the caller should score exhaustively.

    Once the heap is full, a view whose bound is strictly below θ
    contributes its candidate count and nothing else.
    """
    if k is None or k <= 0:
        return None
    plan = compile_plan(query)
    if plan is None:
        return None
    views = _views(index)
    if not views:
        return None                 # empty set: exhaustive returns {}
    shared = _SharedHeap(k)
    result = TopKResult(ranked=[], total_hits=0, candidates_scored=0,
                        postings_scanned=0, pruned=False)
    for view in views:
        binding = _Binding(plan, view, similarity)
        candidates = binding.candidates()
        result.total_hits += len(candidates)
        if shared.theta is not None and binding.max_score() < shared.theta:
            result.segments_pruned += 1
            result.pruned = True
            continue
        result.segments_searched += 1
        if binding.musts:
            # MUST clauses: the candidates are the (small) intersection
            # of the MUST matches minus exclusions — score exactly those
            result.pruned = True
            for doc_id in sorted(candidates):
                score = binding.score(doc_id)
                if score is not None:
                    shared.offer(doc_id, score)
            result.candidates_scored += len(candidates)
        else:
            _maxscore_scan(binding, shared, result)
        result.postings_scanned += binding.scanned
    result.ranked = shared.drain()
    return result


def score_doc(index, similarity: Similarity, plan: Plan,
              doc_id: int) -> float:
    """Score one document against the view that holds it (0.0 when it
    does not match) — O(plan rows) postings probes, no scan."""
    holding = [view for view in _views(index)
               if getattr(view, "base", 0) <= doc_id]
    if not holding:                 # negative doc id
        return 0.0
    score = _Binding(plan, holding[-1], similarity, doc_id).score(doc_id)
    return 0.0 if score is None else score


def _maxscore_scan(binding: _Binding, shared: _SharedHeap,
                   result: TopKResult) -> None:
    """The MaxScore loop over one view's disjunctive clauses, feeding
    the shared heap and tallying into ``result``.

    The clauses are the rows of a bare DisMax, otherwise the SHOULD
    groups.  ``bounds[i]`` is clause ``i``'s bound times ``scale``;
    the scale is kept separately so block bounds are pushed through the
    identical arithmetic (never a division, which could round a bound
    *below* the true maximum and break soundness).  A clause that is a
    single term (``block_rows[i]`` not ``None``) also has block bounds.

    Three pruning levels, all sound because skips require a *strict*
    bound-below-θ comparison (score ≤ bound, so a skipped doc can
    never tie the k-th entry):

    * **clause retirement** (MaxScore proper) — clauses are ordered by
      ascending bound; once the heap is full, every prefix whose bound
      sum is strictly below θ stops streaming.  Documents appearing
      only in retired clauses are never visited.
    * **per-document bound skip** (WAND-style) — the merge knows which
      live clauses contain the current doc, so its upper bound is
      their bound sum plus the retired clauses' total.  For a term
      clause the cursor ordinal names the skip block the doc sits in,
      so its contribution is capped by the *block-max* bound.
    * **block skipping** (block-max WAND, lone-survivor case) — once
      one clause remains live, its stream drains one skip block per
      step: a block whose bound (plus the retired mass) falls below θ
      is skipped without scoring — and, when the block maxima come
      from the v3 term dictionary, without decoding it either.

    Doc-id streams merge with a linear scan over the live clauses
    rather than a heap: clause counts are small (query terms, not
    index terms), and the scan also yields the membership the document
    bound needs.  θ may already be set on entry (an earlier view
    filled the heap); retirement state is local, since bounds are.
    """
    plan = binding.plan
    if not plan.boolean and plan.groups[0].dismax:
        group = plan.groups[0]
        scale = group.boost * max(1.0, group.tie_breaker)
        block_rows = list(group.rows)
        doc_lists = [binding.column(row)[0] for row in block_rows]
        bounds = [binding.row_bound(row) * scale for row in block_rows]
    else:
        scale = plan.boost
        shoulds = binding.shoulds
        doc_lists = [binding.doc_lists[g] for g in shoulds]
        bounds = [binding.group_bound(g) * scale for g in shoulds]
        block_rows = [None if plan.groups[g].dismax
                      else plan.groups[g].rows[0] for g in shoulds]
    exclude = binding.excluded
    score_of = binding.score
    block_bound = binding.block_bound
    count = len(doc_lists)
    order = sorted(range(count), key=lambda i: (bounds[i], i))
    prefix_bounds = list(accumulate(bounds[i] for i in order))

    scored = 0
    retired = [False] * count
    retired_bound = 0.0        # bound mass of the retired clauses
    non_essential = 0
    cursors = [0] * count
    active = [ci for ci in range(count) if doc_lists[ci]]

    def retire_below_theta() -> None:
        nonlocal non_essential, retired_bound, active
        changed = False
        while (non_essential < count
               and prefix_bounds[non_essential] < shared.theta):
            retired[order[non_essential]] = True
            retired_bound = prefix_bounds[non_essential]
            non_essential += 1
            changed = True
        if changed:
            result.pruned = True
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
            row = block_rows[ci]
            clause_bound = bounds[ci]
            while cursor < size:
                if row is not None:
                    block = cursor // SKIP_BLOCK
                    tight = block_bound(row, block) * scale
                    bound = min(tight, clause_bound)
                    block_end = min((block + 1) * SKIP_BLOCK, size)
                else:
                    bound = clause_bound
                    block_end = size
                if retired_bound + bound < shared.theta:
                    result.pruned = True
                    result.blocks_pruned += 1
                    cursor = block_end
                    continue
                if row is not None:
                    result.blocks_scored += 1
                while cursor < block_end:
                    doc_id = doc_list[cursor]
                    cursor += 1
                    if doc_id in exclude:
                        continue
                    score = score_of(doc_id)
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
                row = block_rows[ci]
                if row is None:
                    doc_bound += bounds[ci]
                else:
                    tight = block_bound(row, cursors[ci] // SKIP_BLOCK) \
                        * scale
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
            result.pruned = True       # provably below the k-th score
            continue
        score = score_of(doc_id)
        scored += 1
        if score is None:
            continue
        if shared.offer(doc_id, score):
            retire_below_theta()
    result.candidates_scored += scored
