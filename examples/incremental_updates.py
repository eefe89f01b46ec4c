#!/usr/bin/env python3
"""Incremental knowledge-base updates (§3.5 scalability + §7
flexibility).

The paper's architecture makes adding a new match cheap: the match is
crawled, extracted, populated and inferred as an *independent model*
("we disjunctively add the inferred information to the knowledge
base"), then its documents are appended to the saved index as one new
segment in a single manifest commit — no global re-reasoning, no
rewrite of the existing index.

This example builds a 9-match knowledge base, persists its staged
models (the paper's OWL files) and its index, then processes match 10
incrementally and shows the index answering queries over all ten.

Run:  python examples/incremental_updates.py
"""

import tempfile
import time
from pathlib import Path

from repro.core import (IndexName, KeywordSearchEngine, ModelStore,
                        SemanticRetrievalPipeline)
from repro.extraction import InformationExtractor
from repro.ontology import soccer_ontology
from repro.search import save_index
from repro.search.index import IndexDirectory, SegmentedIndex
from repro.soccer import standard_corpus


def main() -> None:
    corpus = standard_corpus()
    existing, new_match = corpus.crawled[:9], corpus.crawled[9]
    pipeline = SemanticRetrievalPipeline()

    with tempfile.TemporaryDirectory() as tmp:
        store = ModelStore(Path(tmp) / "models", soccer_ontology())

        print("Initial offline build over 9 matches…")
        started = time.perf_counter()
        result = pipeline.run(existing, store=store)
        built = time.perf_counter() - started
        index_dir = Path(tmp) / "indexes"
        segment_dir = save_index(result.index(IndexName.FULL_INF),
                                 index_dir)
        print(f"  built + persisted in {built:.1f}s; "
              f"{len(store.list('inferred'))} inferred models on disk")

        print(f"\nA new match arrives: {new_match.home_team} vs "
              f"{new_match.away_team}")
        started = time.perf_counter()
        # 1. extract + populate + infer ONLY the new match
        extractor = InformationExtractor(new_match)
        model = pipeline.populator.populate_full(
            new_match, extractor.extract_all())
        inferred = pipeline.reasoner.infer(model,
                                           check_consistency=False)
        store.save("inferred", new_match.match_id, inferred.abox)
        # 2. index it alone and append it as one segment commit
        increment = pipeline.indexer.build_semantic(
            [inferred.abox], "increment", inferred=True)
        IndexDirectory(segment_dir).add_index(increment)
        incremental = time.perf_counter() - started
        print(f"  incremental update: {incremental * 1000:.0f} ms "
              f"(vs {built:.1f}s for the full build — "
              f"{built / incremental:.0f}x cheaper)")
        with SegmentedIndex(segment_dir) as live:
            print(f"  index now holds {live.doc_count} documents in "
                  f"{live.segment_count} segments")

            print("\nQueries over the updated index:")
            engine = KeywordSearchEngine(live)
            new_team = new_match.home_team.split()[0].lower()
            for query in (f"{new_team} goal", "punishment"):
                hits = engine.search(query, limit=3)
                print(f"  {query!r}:")
                for hit in hits:
                    print(f"    {hit.score:8.2f}  "
                          f"{hit.narration or hit.event_type}")


if __name__ == "__main__":
    main()
