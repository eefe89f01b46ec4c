"""Persistence benchmarks: index save/load and model round trips.

The paper's offline/online split presumes the artifacts can be
materialized and reloaded quickly; these benchmarks measure the saved
index (one sealed segment) and the per-match N-Triples model files.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import IndexName, ModelStore
from repro.search import load_index, save_index
from benchmarks.conftest import write_result


def test_index_save_load_round_trip(pipeline_result, tmp_path_factory,
                                    results_dir, benchmark):
    directory = tmp_path_factory.mktemp("indexes")
    index = pipeline_result.index(IndexName.FULL_INF)

    def round_trip():
        path = save_index(index, directory)
        with load_index(directory, IndexName.FULL_INF) as loaded:
            return path, loaded.doc_count

    path, doc_count = benchmark(round_trip)
    assert doc_count == index.doc_count
    size_kb = sum(entry.stat().st_size for entry in path.iterdir()) / 1024
    text = (f"FULL_INF index persistence\n\n"
            f"documents:  {index.doc_count}\n"
            f"terms:      {index.unique_term_count()}\n"
            f"disk size:  {size_kb:,.0f} KiB\n"
            f"round trip: {benchmark.stats.stats.mean * 1000:.0f} ms")
    write_result(results_dir, "persistence_index.txt", text)
    print("\n" + text)


def test_model_store_round_trip(pipeline, pipeline_result, corpus,
                                tmp_path_factory, benchmark):
    directory = tmp_path_factory.mktemp("models")
    store = ModelStore(directory, pipeline.ontology)
    match_id = corpus.matches[0].match_id
    model = pipeline_result.inferred_models[0]

    def round_trip():
        store.save("inferred", match_id, model)
        return store.load("inferred", match_id)

    loaded = benchmark(round_trip)
    assert loaded.individual_count == model.individual_count


def test_load_only_startup_cost(pipeline_result, tmp_path_factory,
                                benchmark):
    """The online process's cold-start cost: load the serving index."""
    directory = tmp_path_factory.mktemp("startup")
    save_index(pipeline_result.index(IndexName.FULL_INF), directory)

    loaded = benchmark(load_index, directory, IndexName.FULL_INF)
    assert loaded.doc_count > 1000
