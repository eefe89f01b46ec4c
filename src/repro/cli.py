"""Command-line interface.

Subcommands::

    python -m repro corpus              # corpus statistics (§4)
    python -m repro build -d INDEXDIR   # run the pipeline, save indexes
    python -m repro search QUERY        # keyword search (built or saved)
    python -m repro merge -d INDEXDIR   # tiered merge of index segments
    python -m repro evaluate            # Tables 4, 5 and 6
    python -m repro ontology            # Fig. 2 class hierarchy
    python -m repro loadtest            # open-loop serving load test
    python -m repro serve -d INDEXDIR   # HTTP service with live ingest

``build`` persists every index under the given directory as an
immutable mmap'd segment directory, ``<name>.segd`` — one segment per
index, or with ``--segmented`` one per chunk of matches, sealed
straight by the ingestion workers.  ``search --index-dir`` then
answers queries without re-running the pipeline — the offline/online
split of §3.5 — and ``serve`` serves the same directory with live
ingest.  ``merge`` runs the tiered merge policy over the segments
(documents, doc ids and rankings are unchanged; only segment counts
drop).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

from repro.core import (IndexName, KeywordSearchEngine,
                        PhrasalSearchEngine, SemanticRetrievalPipeline)
from repro.core.observability import (Observability, get_observability,
                                      install_observability,
                                      render_metrics)
from repro.errors import ReproError
from repro.evaluation import EvaluationHarness, render_table
from repro.ontology import soccer_ontology
from repro.loadgen import ARRIVAL_PROCESSES, PROFILES
from repro.search import Highlighter, load_index, save_index
from repro.search.index import (DEFAULT_MERGE_FACTOR, IndexDirectory,
                                list_indexes, segment_dir_path)
from repro.soccer import corpus_statistics, standard_corpus

__all__ = ["main", "build_parser",
           "EXIT_OK", "EXIT_USER_ERROR", "EXIT_INTERNAL_ERROR"]

#: exit-code contract: 2 for bad input/environment (fixable by the
#: user), 70 (BSD EX_SOFTWARE) for internal bugs.  KeyboardInterrupt
#: and SystemExit always propagate.
EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INTERNAL_ERROR = 70


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ontology-based retrieval with semantic indexing "
                    "(paper reproduction).")
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the paper-matched "
                             "seed)")
    parser.add_argument("-w", "--workers", type=int, default=1,
                        help="worker processes for batch ingestion "
                             "(default: 1, serial)")
    parser.add_argument("--profile", action="store_true",
                        help="print per-stage timings and cache hit "
                             "rates after pipeline runs")
    parser.add_argument("--naive-inference", action="store_true",
                        help="run the reasoner's naive fixpoint "
                             "instead of the semi-naive default "
                             "(identical output, slower; the parity "
                             "oracle — see docs/reasoning.md)")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="retries per pipeline stage before a "
                             "match is given up (enables the "
                             "resilience layer; default 2 once "
                             "enabled)")
    parser.add_argument("--stage-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock bound per stage attempt "
                             "(enables the resilience layer)")
    tolerance = parser.add_mutually_exclusive_group()
    tolerance.add_argument("--degrade", action="store_true",
                           help="quarantine matches that exhaust "
                                "their retries and keep indexing the "
                                "survivors")
    tolerance.add_argument("--fail-fast", action="store_true",
                           help="abort the run on the first match "
                                "that exhausts its retries")
    parser.add_argument("--inject-faults", type=Path, default=None,
                        metavar="PLAN.json",
                        help="JSON fault plan for resilience testing "
                             "(see docs/resilience.md)")
    parser.add_argument("--trace", type=Path, default=None,
                        metavar="OUT.json",
                        help="record a span trace of the command and "
                             "write it as JSON (docs/observability.md)")
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="OUT.prom",
                        help="record metrics and write them on exit "
                             "(.json → JSON, anything else → "
                             "Prometheus text format)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("corpus",
                          help="print corpus statistics (§4)")

    build = subparsers.add_parser(
        "build", help="run the pipeline and persist all indexes")
    build.add_argument("-d", "--index-dir", type=Path, required=True,
                       help="directory to write the indexes to")
    build.add_argument("--segmented", action="store_true",
                       help="seal one segment per --segment-size "
                            "matches instead of one per index; "
                            "ingestion workers seal their own "
                            "segments, so --workers scales (results "
                            "are bit-identical either way)")
    build.add_argument("--segment-size", type=int, default=1,
                       metavar="MATCHES",
                       help="matches per segment with --segmented "
                            "(default: 1)")

    merge = subparsers.add_parser(
        "merge", help="run the tiered merge policy over saved "
                      "indexes (fewer segments, same documents and "
                      "rankings)")
    merge.add_argument("-d", "--index-dir", type=Path, required=True,
                       help="directory written by 'repro build'")
    merge.add_argument("-i", "--index", default=None,
                       choices=[*IndexName.BUILT],
                       help="merge only this index (default: every "
                            "index found)")
    merge.add_argument("--merge-factor", type=int,
                       default=DEFAULT_MERGE_FACTOR, metavar="N",
                       help="adjacent same-tier segments needed "
                            f"before a merge fires (default: "
                            f"{DEFAULT_MERGE_FACTOR})")
    merge.add_argument("--force", action="store_true",
                       help="collapse each index into one segment "
                            "regardless of tiers")
    merge.add_argument("--vacuum", action="store_true",
                       help="delete superseded segment files and "
                            "manifests after merging")

    search = subparsers.add_parser("search",
                                   help="keyword search over an index")
    search.add_argument("query", help="keyword query text")
    search.add_argument("-i", "--index", default=IndexName.FULL_INF,
                        choices=[*IndexName.LADDER, IndexName.PHR_EXP],
                        help="which index to search")
    search.add_argument("-d", "--index-dir", type=Path, default=None,
                        help="load a saved index instead of rebuilding")
    search.add_argument("-n", "--limit", "--top-k", type=int, default=10,
                        help="number of hits to return; drives the "
                             "pruned top-k scoring path")
    search.add_argument("--phrasal", action="store_true",
                        help="interpret by/to/of phrases (§6; implies "
                             "the PHR_EXP index)")

    subparsers.add_parser("evaluate",
                          help="reproduce Tables 4, 5 and 6")

    loadtest = subparsers.add_parser(
        "loadtest",
        help="open-loop load test of the query-serving path "
             "(docs/performance.md)")
    loadtest.add_argument("-d", "--index-dir", type=Path, default=None,
                          help="load a saved index instead of "
                               "rebuilding (required with --processes)")
    loadtest.add_argument("-i", "--index", default=IndexName.FULL_INF,
                          choices=[*IndexName.LADDER, IndexName.PHR_EXP],
                          help="which index to hammer")
    loadtest.add_argument("--workload", default="cache_hostile",
                          choices=sorted(PROFILES),
                          help="query-mix profile (default: "
                               "cache_hostile, the scoring-path "
                               "stressor)")
    loadtest.add_argument("--requests", type=int, default=500,
                          metavar="N",
                          help="requests per run (default: 500)")
    loadtest.add_argument("--rate", type=float, default=200.0,
                          metavar="QPS",
                          help="offered arrival rate (default: 200)")
    loadtest.add_argument("--arrival", default="poisson",
                          choices=sorted(ARRIVAL_PROCESSES),
                          help="arrival process (default: poisson)")
    loadtest.add_argument("--threads", type=int, default=4,
                          help="worker threads draining the open "
                               "queue (default: 4)")
    loadtest.add_argument("--processes", type=int, default=1,
                          help="shard the load across this many "
                               "worker processes (default: 1, "
                               "in-process threads only)")
    loadtest.add_argument("-n", "--limit", type=int, default=10,
                          help="hits per query (default: 10)")
    loadtest.add_argument("--load-seed", type=int, default=42,
                          metavar="S",
                          help="seed for workload sampling and "
                               "arrival schedule (default: 42; "
                               "distinct from --seed, which shapes "
                               "the corpus)")
    loadtest.add_argument("--sweep", default=None, metavar="R1,R2,…",
                          help="comma-separated offered rates: run "
                               "each and report the saturation point "
                               "instead of a single run")
    loadtest.add_argument("-o", "--output", type=Path, default=None,
                          metavar="OUT.json",
                          help="also write the report as JSON")
    loadtest.add_argument("--http", default=None, metavar="URL",
                          help="drive a running `repro serve` "
                               "instance over HTTP instead of an "
                               "in-process engine (end-to-end "
                               "service latency; --index selects the "
                               "raw index the service searches)")

    serve = subparsers.add_parser(
        "serve",
        help="HTTP/JSON retrieval service with live ingestion "
             "(docs/serving.md)")
    serve.add_argument("-d", "--index-dir", type=Path, required=True,
                       help="a directory written by 'repro build'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("-p", "--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral one "
                            "(default: 8080)")
    serve.add_argument("--merge-factor", type=int,
                       default=DEFAULT_MERGE_FACTOR,
                       help="tiered merge fan-in for background "
                            f"maintenance (default: "
                            f"{DEFAULT_MERGE_FACTOR})")
    serve.add_argument("--maintenance-interval", type=float,
                       default=5.0, metavar="SECONDS",
                       help="seconds between background merge/vacuum/"
                            "refresh cycles (default: 5)")
    serve.add_argument("--feedback-min-support", type=int, default=3,
                       metavar="N",
                       help="clicks before a feedback association is "
                            "learned (default: 3)")

    subparsers.add_parser("ontology",
                          help="print the Fig. 2 class hierarchy")

    stats = subparsers.add_parser(
        "stats", help="statistics of a saved index, or a readable "
                      "rendering of an exported metrics file")
    stats.add_argument("-i", "--index", default=IndexName.FULL_INF,
                       choices=[*IndexName.LADDER, IndexName.PHR_EXP])
    stats.add_argument("-d", "--index-dir", type=Path, default=None)
    stats.add_argument("--metrics-file", type=Path, default=None,
                       metavar="METRICS.json",
                       help="render a metrics JSON file previously "
                            "exported with --metrics")
    return parser


def _corpus(seed: Optional[int]):
    if seed is None:
        return standard_corpus()
    return standard_corpus(seed=seed)


def _resilience_config(args):
    """A ResilienceConfig from the CLI flags, or None when every
    resilience flag is at its default (the bare fast path)."""
    if (args.max_retries is None and args.stage_timeout is None
            and not args.degrade and not args.fail_fast
            and args.inject_faults is None):
        return None
    from repro.core import FaultPlan, ResilienceConfig, RetryPolicy
    retry = RetryPolicy(
        max_retries=(2 if args.max_retries is None
                     else args.max_retries),
        stage_timeout=args.stage_timeout)
    plan = (FaultPlan.from_file(args.inject_faults)
            if args.inject_faults is not None else None)
    return ResilienceConfig(retry=retry, degrade=not args.fail_fast,
                            fault_plan=plan)


def _run_pipeline(args, corpus):
    """Run the pipeline honoring the --workers/--profile/
    --naive-inference flags and the resilience flags (--max-retries,
    --stage-timeout, --degrade/--fail-fast, --inject-faults)."""
    result = SemanticRetrievalPipeline().run(
        corpus.crawled, workers=args.workers, profile=args.profile,
        resilience=_resilience_config(args),
        naive_inference=args.naive_inference)
    if args.profile and result.profile is not None:
        print()
        print(result.profile.render())
        print()
    if result.quarantine:
        print()
        print(result.quarantine.render())
        print()
    return result


def _command_corpus(args) -> int:
    corpus = _corpus(args.seed)
    stats = corpus_statistics(corpus)
    print(f"matches:    {stats['matches']}")
    print(f"narrations: {stats['narrations']}")
    print(f"events:     {stats['events']}")
    print("\nevents by kind:")
    for key in sorted(stats):
        if key.startswith("kind_"):
            print(f"  {key[5:]:20} {stats[key]:4}")
    return 0


def _command_build(args) -> int:
    corpus = _corpus(args.seed)
    if args.segmented:
        return _build_segmented(args, corpus)
    print(f"building pipeline over {len(corpus.matches)} matches "
          f"with {args.workers} worker(s)…")
    started = time.perf_counter()
    result = _run_pipeline(args, corpus)
    elapsed = time.perf_counter() - started
    print(f"pipeline finished in {elapsed:.1f}s")
    for name, index in result.indexes.items():
        path = save_index(index, args.index_dir)
        print(f"  {name:10} {index.doc_count:5} docs → {path}")
    return 0


def _build_segmented(args, corpus) -> int:
    print(f"building segmented indexes over {len(corpus.matches)} "
          f"matches with {args.workers} worker(s), "
          f"{args.segment_size} match(es) per segment…")
    started = time.perf_counter()
    result = SemanticRetrievalPipeline().run_segmented(
        corpus.crawled, args.index_dir, workers=args.workers,
        segment_size=args.segment_size,
        naive_inference=args.naive_inference)
    elapsed = time.perf_counter() - started
    print(f"pipeline finished in {elapsed:.1f}s")
    try:
        for name, index in result.indexes.items():
            on_disk = sum(info.size_bytes
                          for info in index.segment_infos())
            print(f"  {name:10} {index.doc_count:5} docs in "
                  f"{index.segment_count} segment(s), "
                  f"{on_disk:,} bytes, generation {index.generation} "
                  f"→ {result.directories[name].path}")
    finally:
        result.close()
    return 0


def _command_merge(args) -> int:
    target: Path = args.index_dir
    names = ([args.index] if args.index is not None
             else list_indexes(target))
    if not names:
        print(f"error: no indexes in {target}", file=sys.stderr)
        print(f"hint: build them with 'repro build -d {target}'",
              file=sys.stderr)
        return EXIT_USER_ERROR
    for name in names:
        path = segment_dir_path(target, name)
        if not path.is_dir():
            print(f"error: no index {name!r} in {target}",
                  file=sys.stderr)
            return EXIT_USER_ERROR
        directory = IndexDirectory(path, name=name)
        merges = directory.merge(merge_factor=args.merge_factor,
                                 force=args.force)
        manifest = directory.manifest()
        line = (f"  {name:10} {merges} merge(s) → "
                f"{len(manifest.segments)} segment(s), "
                f"generation {manifest.generation}")
        if args.vacuum:
            deleted = directory.vacuum()
            line += f", {len(deleted)} file(s) vacuumed"
        print(line)
    return 0


def _command_search(args) -> int:
    index_name = IndexName.PHR_EXP if args.phrasal else args.index
    if args.index_dir is not None:
        # user-input problems only (missing/corrupt files, bad index
        # names); programming errors propagate to main()'s backstop.
        try:
            index = load_index(args.index_dir, index_name)
        except (OSError, ValueError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            print(f"hint: run 'repro build -d {args.index_dir}' first",
                  file=sys.stderr)
            return EXIT_USER_ERROR
    else:
        corpus = _corpus(args.seed)
        result = _run_pipeline(args, corpus)
        index = result.index(index_name)

    if args.phrasal:
        engine = PhrasalSearchEngine(index)
        query_tree = engine.build_query(args.query)
        hits = engine.search(args.query, limit=args.limit)
    else:
        engine = KeywordSearchEngine(index)
        query_tree = engine.build_query(args.query)
        hits = engine.search(args.query, limit=args.limit)

    highlighter = Highlighter()
    print(f"{len(hits)} hits on {index_name} for {args.query!r}:\n")
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank:3}. {hit.score:9.3f}  [{hit.event_type or '-'}]")
        if hit.narration:
            print(f"     {highlighter.highlight(hit.narration, query_tree)}")
    return 0


def _command_evaluate(args) -> int:
    corpus = _corpus(args.seed)
    print("building pipeline…")
    result = _run_pipeline(args, corpus)
    harness = EvaluationHarness(corpus, result)
    print()
    print(render_table(harness.table4(), "Table 4"))
    print()
    print(render_table(harness.table5(), "Table 5", absolute=False))
    print()
    print(render_table(harness.table6(), "Table 6", absolute=False))
    return 0


def _command_loadtest(args) -> int:
    from repro.loadgen import (OpenLoopDriver, arrival_times,
                               build_workload, run_multiprocess,
                               saturation_sweep)
    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return EXIT_USER_ERROR
    if args.rate <= 0:
        print("error: --rate must be positive", file=sys.stderr)
        return EXIT_USER_ERROR

    if args.http is not None:
        if args.processes > 1:
            print("error: --http and --processes are mutually "
                  "exclusive", file=sys.stderr)
            return EXIT_USER_ERROR
        if args.index_dir is not None:
            print("error: --http drives a running service; "
                  "--index-dir is for in-process runs", file=sys.stderr)
            return EXIT_USER_ERROR
        from repro.loadgen import (HttpSearchClient, HttpSearchError,
                                   OpenLoopDriver, arrival_times,
                                   build_workload, wait_healthy)
        client = HttpSearchClient(args.http, index=args.index)
        try:
            wait_healthy(args.http, timeout=10.0)
        except HttpSearchError as error:
            print(f"error: {error}", file=sys.stderr)
            print(f"hint: start the service with "
                  f"'repro serve -d INDEXDIR'", file=sys.stderr)
            return EXIT_USER_ERROR
        workload = build_workload(args.workload, args.requests,
                                  seed=args.load_seed)
        arrivals = arrival_times(args.arrival, args.rate,
                                 args.requests, seed=args.load_seed)
        result = OpenLoopDriver(
            client.search, workload.queries, arrivals,
            threads=args.threads, limit=args.limit,
            name=f"http:{args.workload}@{args.rate:g}qps").run()
        return _emit_load_report(result.to_json(), args)

    if args.processes > 1:
        if args.index_dir is None:
            print("error: --processes needs --index-dir (worker "
                  "processes reopen the saved index)", file=sys.stderr)
            return EXIT_USER_ERROR
        if args.sweep is not None:
            print("error: --sweep and --processes are mutually "
                  "exclusive", file=sys.stderr)
            return EXIT_USER_ERROR
        report = run_multiprocess(
            args.index_dir, args.index, args.workload, args.requests,
            args.rate, args.processes, threads=args.threads,
            limit=args.limit, arrival=args.arrival,
            seed=args.load_seed)
        return _emit_load_report(report, args)

    if args.index_dir is not None:
        try:
            index = load_index(args.index_dir, args.index)
        except (OSError, ValueError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            print(f"hint: run 'repro build -d {args.index_dir}' first",
                  file=sys.stderr)
            return EXIT_USER_ERROR
    else:
        corpus = _corpus(args.seed)
        print("building pipeline (pass --index-dir to load a saved "
              "index instead)…", file=sys.stderr)
        index = _run_pipeline(args, corpus).index(args.index)

    try:
        engine = KeywordSearchEngine(index)
        workload = build_workload(args.workload, args.requests,
                                  seed=args.load_seed)

        def run_at(rate):
            arrivals = arrival_times(args.arrival, rate,
                                     args.requests,
                                     seed=args.load_seed)
            return OpenLoopDriver(
                engine.search, workload.queries, arrivals,
                threads=args.threads, limit=args.limit,
                name=f"{args.workload}@{rate:g}qps").run()

        if args.sweep is not None:
            try:
                rates = [float(token) for token
                         in args.sweep.split(",") if token.strip()]
            except ValueError:
                print(f"error: --sweep wants comma-separated numbers, "
                      f"got {args.sweep!r}", file=sys.stderr)
                return EXIT_USER_ERROR
            if not rates:
                print("error: --sweep got no rates", file=sys.stderr)
                return EXIT_USER_ERROR
            report = saturation_sweep(run_at, rates)
            report["workload"] = args.workload
            report["arrival"] = args.arrival
        else:
            report = run_at(args.rate).to_json()
    finally:
        close = getattr(index, "close", None)
        if close is not None and args.index_dir is not None:
            close()
    return _emit_load_report(report, args)


def _emit_load_report(report: dict, args) -> int:
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"report written to {args.output}", file=sys.stderr)
    return 0


def _command_serve(args) -> int:
    import signal
    from repro.serve import ReproService, ServiceConfig
    if not args.index_dir.exists():
        print(f"error: index directory {args.index_dir} does not "
              f"exist", file=sys.stderr)
        print(f"hint: run 'repro build -d {args.index_dir}' first",
              file=sys.stderr)
        return EXIT_USER_ERROR

    # the service always meters itself; installing the process-wide
    # registry here folds query-path series (latency, caches,
    # segments) into GET /metrics too.
    previous = None
    if not get_observability().metrics.enabled:
        previous = install_observability(Observability(metrics=True))
    try:
        config = ServiceConfig(
            index_dir=args.index_dir, host=args.host, port=args.port,
            merge_factor=args.merge_factor,
            maintenance_interval=args.maintenance_interval,
            feedback_min_support=args.feedback_min_support)
        # SIGTERM (what `kill` and CI teardown send) must drain the
        # same way Ctrl-C does; so must SIGINT when a non-interactive
        # parent shell launched us with it set to SIG_IGN.
        def _terminate(signum, frame):
            raise KeyboardInterrupt
        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)
        with ReproService(config) as service:
            print(f"serving {args.index_dir} on {service.url} "
                  f"(indexes: {', '.join(sorted(service.engines))}; "
                  "live ingest enabled)", file=sys.stderr)
            print("endpoints: POST /search /feedback /ingest, "
                  "GET /metrics /healthz — Ctrl-C to stop",
                  file=sys.stderr)
            try:
                service.serve_forever()
            except KeyboardInterrupt:
                print("\ndraining…", file=sys.stderr)
        print("stopped", file=sys.stderr)
        return EXIT_OK
    finally:
        if previous is not None:
            install_observability(previous)


def _command_ontology(args) -> int:
    ontology = soccer_ontology()
    print(f"{ontology.class_count} concepts, "
          f"{ontology.property_count} properties\n")

    def walk(uri, depth):
        print("    " * depth + uri.local_name)
        for child in sorted(ontology.direct_subclasses(uri)):
            walk(child, depth + 1)

    for root in sorted(ontology.roots()):
        walk(root, 0)
    return 0


def _query_cache_line(metrics_data: dict) -> Optional[str]:
    """Summarize the query result cache counters of an exported
    metrics document, or None when no cache traffic was recorded."""
    counters = metrics_data.get("counters", {})

    def total(name: str) -> float:
        return sum(entry.get("value", 0) for entry in counters.get(name, []))

    hits = total("query_cache_hits_total")
    misses = total("query_cache_misses_total")
    lookups = hits + misses
    if not lookups:
        return None
    return (f"query cache: {hits:.0f} hits / {misses:.0f} misses "
            f"({hits / lookups:.1%} hit rate)")


def _command_stats(args) -> int:
    from repro.search.stats import collect_stats, render_stats
    if args.index_dir is None and args.metrics_file is None:
        print("error: stats needs --index-dir and/or --metrics-file",
              file=sys.stderr)
        return EXIT_USER_ERROR
    if args.metrics_file is not None:
        try:
            data = json.loads(args.metrics_file.read_text())
            rendered = render_metrics(data)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USER_ERROR
        print(rendered)
        cache_line = _query_cache_line(data)
        if cache_line:
            print(cache_line)
    if args.index_dir is not None:
        try:
            index = load_index(args.index_dir, args.index)
        except (OSError, ValueError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USER_ERROR
        print(render_stats(collect_stats(index)))
        print()
        print(f"segments (generation {index.generation}):")
        for info in index.segment_infos():
            print(f"  {info.file:24} {info.doc_count:>6} docs "
                  f"{info.size_bytes:>12,} bytes")
        index.close()
    return 0


_COMMANDS = {
    "corpus": _command_corpus,
    "build": _command_build,
    "merge": _command_merge,
    "search": _command_search,
    "evaluate": _command_evaluate,
    "loadtest": _command_loadtest,
    "serve": _command_serve,
    "ontology": _command_ontology,
    "stats": _command_stats,
}


def _export_observability(args) -> None:
    obs = get_observability()
    if args.trace is not None:
        args.trace.write_text(
            json.dumps(obs.tracer.to_json(), indent=2) + "\n")
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics is not None:
        if args.metrics.suffix == ".json":
            text = json.dumps(obs.metrics.to_json(), indent=2) + "\n"
        else:
            text = obs.metrics.to_prometheus()
        args.metrics.write_text(text)
        print(f"metrics written to {args.metrics}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    observing = args.trace is not None or args.metrics is not None
    previous = None
    if observing:
        previous = install_observability(Observability(
            tracing=args.trace is not None,
            metrics=args.metrics is not None))
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        # domain errors carry a user-actionable message; internal
        # bugs fall through to the next handler with a traceback.
        # KeyboardInterrupt/SystemExit are BaseExceptions: they
        # propagate past both handlers untouched.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    finally:
        if observing:
            # export even when the command failed — a partial trace
            # of a crashed run is exactly when you want one.
            _export_observability(args)
            install_observability(previous)


if __name__ == "__main__":       # pragma: no cover - direct execution
    raise SystemExit(main())
