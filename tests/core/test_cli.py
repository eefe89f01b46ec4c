"""Tests for the command-line interface."""

import json
import shlex

import pytest

import repro.cli as cli
from repro.cli import (EXIT_INTERNAL_ERROR, EXIT_USER_ERROR, build_parser,
                       main)
from repro.core import IndexName, validate_trace
from repro.search import save_index


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "goal"])
        assert args.query == "goal"
        assert args.index == IndexName.FULL_INF
        assert args.limit == 10

    def test_unknown_index_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "goal", "-i", "NOPE"])


class TestCommands:
    def test_corpus_statistics(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "narrations: 1182" in out
        assert "events:     902" in out

    def test_ontology_tree(self, capsys):
        assert main(["ontology"]) == 0
        out = capsys.readouterr().out
        assert "79 concepts, 95 properties" in out
        assert "YellowCard" in out

    def test_search_on_saved_index(self, pipeline_result, tmp_path,
                                   capsys):
        save_index(pipeline_result.index(IndexName.FULL_INF), tmp_path)
        assert main(["search", "messi goal", "-d", str(tmp_path),
                     "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 hits" in out
        assert "goal" in out

    def test_search_missing_index_dir_fails_cleanly(self, tmp_path,
                                                    capsys):
        code = main(["search", "goal", "-d", str(tmp_path / "nothing")])
        assert code == 2
        err = capsys.readouterr().err
        assert "hint" in err

    def test_phrasal_search_on_saved_index(self, pipeline_result,
                                           tmp_path, capsys):
        save_index(pipeline_result.index(IndexName.PHR_EXP), tmp_path)
        assert main(["search", "foul by Daniel", "--phrasal",
                     "-d", str(tmp_path), "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "PHR_EXP" in out

    def test_stats_on_saved_index(self, pipeline_result, tmp_path,
                                  capsys):
        save_index(pipeline_result.index(IndexName.FULL_INF), tmp_path)
        assert main(["stats", "-d", str(tmp_path),
                     "-i", IndexName.FULL_INF]) == 0
        out = capsys.readouterr().out
        assert "1198 documents" in out
        assert "subjectPlayerProp" in out

    def test_stats_missing_index_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", "-d", str(tmp_path)]) == 2

    def test_build_persists_all_indexes(self, tmp_path, capsys,
                                        monkeypatch):
        # shrink the corpus so the build command stays fast
        import repro.cli as cli
        from repro.soccer import standard_corpus
        from repro.soccer.names import FIXTURES

        def tiny_corpus(seed):
            return standard_corpus(fixtures=FIXTURES[:1],
                                   total_narrations=120)

        monkeypatch.setattr(cli, "_corpus", tiny_corpus)
        assert main(["build", "-d", str(tmp_path)]) == 0
        names = sorted(p.stem for p in tmp_path.glob("*.segd"))
        assert names == sorted(["TRAD", "BASIC_EXT", "FULL_EXT",
                                "FULL_INF", "PHR_EXP"])

    def test_build_with_fault_plan_quarantines_and_persists(
            self, tmp_path, capsys, monkeypatch):
        """End-to-end --inject-faults: a poison match is reported on
        stdout and the survivors' indexes still land on disk."""
        import json

        import repro.cli as cli
        from repro.soccer import standard_corpus
        from repro.soccer.names import FIXTURES

        corpus = standard_corpus(fixtures=FIXTURES[:3],
                                 total_narrations=150)
        poison = corpus.crawled[1].match_id
        monkeypatch.setattr(cli, "_corpus", lambda seed: corpus)

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "specs": [{"stage": "extractor", "mode": "raise",
                       "match_ids": [poison]}],
        }))
        index_dir = tmp_path / "idx"
        assert main(["--inject-faults", str(plan_path), "--degrade",
                     "--max-retries", "1", "--workers", "2",
                     "build", "-d", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "quarantine: 1 match(es) skipped" in out
        assert poison in out
        assert "stage=extraction" in out
        names = sorted(p.stem for p in index_dir.glob("*.segd"))
        assert names == sorted(["TRAD", "BASIC_EXT", "FULL_EXT",
                                "FULL_INF", "PHR_EXP"])


class TestExitCodes:
    """The exit-code contract: 2 for user problems, 70 for internal
    bugs, BaseExceptions propagate untouched."""

    def test_domain_error_reports_and_returns_2(self, pipeline_result,
                                                tmp_path, capsys):
        save_index(pipeline_result.index(IndexName.FULL_INF), tmp_path)
        # an all-stopword query has no searchable terms → QueryError,
        # a user-input problem
        assert main(["search", "the of and", "-d", str(tmp_path)]) \
            == EXIT_USER_ERROR
        assert "error:" in capsys.readouterr().err

    def test_internal_bug_returns_70_with_traceback(self, monkeypatch,
                                                    capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "corpus", broken)
        assert main(["corpus"]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "boom" in err

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "corpus", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["corpus"])

    def test_system_exit_propagates(self, monkeypatch):
        def exiting(args):
            raise SystemExit(3)

        monkeypatch.setitem(cli._COMMANDS, "corpus", exiting)
        with pytest.raises(SystemExit) as info:
            main(["corpus"])
        assert info.value.code == 3


class TestObservabilityFlags:
    def test_trace_and_metrics_written_for_search(self, pipeline_result,
                                                  tmp_path, capsys):
        save_index(pipeline_result.index(IndexName.FULL_INF), tmp_path)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert main(["--trace", str(trace_path),
                     "--metrics", str(metrics_path),
                     "search", "messi goal", "-d", str(tmp_path),
                     "-n", "3"]) == 0
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node["children"]:
                collect(child)

        collect(trace["root"])
        assert {"query", "query.parse", "query.retrieve",
                "query.score"} <= names
        prom = metrics_path.read_text()
        assert 'queries_total{engine="keyword"} 1' in prom
        assert "query_latency_seconds_bucket" in prom

    def test_metrics_json_round_trips_through_stats(self, pipeline_result,
                                                    tmp_path, capsys):
        save_index(pipeline_result.index(IndexName.FULL_INF), tmp_path)
        metrics_path = tmp_path / "metrics.json"
        assert main(["--metrics", str(metrics_path),
                     "search", "goal", "-d", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["stats", "--metrics-file", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "queries_total" in out
        assert "histogram query_latency_seconds" in out

    def test_observability_is_uninstalled_after_the_command(
            self, pipeline_result, tmp_path):
        from repro.core import get_observability
        save_index(pipeline_result.index(IndexName.FULL_INF), tmp_path)
        assert main(["--trace", str(tmp_path / "t.json"),
                     "search", "goal", "-d", str(tmp_path)]) == 0
        assert not get_observability().enabled

    def test_stats_without_any_source_is_a_user_error(self, capsys):
        assert main(["stats"]) == EXIT_USER_ERROR
        assert "--metrics-file" in capsys.readouterr().err

    def test_stats_with_corrupt_metrics_file(self, tmp_path, capsys):
        bad = tmp_path / "metrics.json"
        bad.write_text("{not json")
        assert main(["stats", "--metrics-file", str(bad)]) \
            == EXIT_USER_ERROR


class TestSegmentedCommands:
    """build --segmented / merge / segment-aware stats and search."""

    @pytest.fixture()
    def tiny(self, monkeypatch):
        import repro.cli as cli
        from repro.soccer import standard_corpus
        from repro.soccer.names import FIXTURES
        corpus = standard_corpus(fixtures=FIXTURES[:2],
                                 total_narrations=120)
        monkeypatch.setattr(cli, "_corpus", lambda seed: corpus)
        return corpus

    def test_build_segmented_creates_directories(self, tiny, tmp_path,
                                                 capsys):
        assert main(["build", "--segmented", "-d", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 segment(s)" in out
        names = sorted(p.name for p in tmp_path.glob("*.segd"))
        assert names == sorted(f"{name}.segd" for name in
                               ["TRAD", "BASIC_EXT", "FULL_EXT",
                                "FULL_INF", "PHR_EXP"])

    def test_search_and_stats_over_segmented_build(self, tiny, tmp_path,
                                                   capsys):
        assert main(["build", "--segmented", "-d", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["search", "goal", "-d", str(tmp_path),
                     "-n", "3"]) == 0
        assert "3 hits" in capsys.readouterr().out
        assert main(["stats", "-d", str(tmp_path),
                     "-i", IndexName.FULL_INF]) == 0
        out = capsys.readouterr().out
        assert "segments (generation 1):" in out
        assert "seg_0000000001.ridx" in out

    def test_merge_collapses_and_preserves_search(self, tiny, tmp_path,
                                                  capsys):
        assert main(["build", "--segmented", "-d", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["search", "goal", "-d", str(tmp_path),
                     "-n", "3"]) == 0
        before = capsys.readouterr().out
        assert main(["merge", "-d", str(tmp_path), "--force",
                     "--vacuum"]) == 0
        out = capsys.readouterr().out
        assert "1 segment(s), generation 2" in out
        assert "vacuumed" in out
        assert main(["search", "goal", "-d", str(tmp_path),
                     "-n", "3"]) == 0
        assert capsys.readouterr().out == before

    def test_merge_without_segments_is_a_user_error(self, tmp_path,
                                                    capsys):
        assert main(["merge", "-d", str(tmp_path)]) == EXIT_USER_ERROR
        assert "hint" in capsys.readouterr().err


class TestServeCommand:
    """`repro serve` + `loadtest --http` argument handling.  The
    served behaviour itself is covered by tests/serve and
    tests/integration/test_live_ingestion.py; here we pin the CLI
    contract (flags, exit codes, error messages)."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "-d", "idx"])
        assert str(args.index_dir) == "idx"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.maintenance_interval == 5.0

    def test_missing_directory_is_a_user_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["serve", "-d", str(missing)]) == EXIT_USER_ERROR
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert f"'repro build -d {missing}'" in err

    def test_serve_hints_are_valid_build_commands(self, tmp_path,
                                                  capsys):
        """Both serve hints name a `repro build` argv that parses."""
        from repro.errors import ReproError
        from repro.serve import ReproService, ServiceConfig

        missing = tmp_path / "nope"
        main(["serve", "-d", str(missing)])
        cli_hint = capsys.readouterr().err.split("'")[1]
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ReproError) as caught:
            ReproService(ServiceConfig(index_dir=empty))
        service_hint = str(caught.value).split("`")[1]
        for hint, directory in ((cli_hint, missing),
                                (service_hint, empty)):
            argv = shlex.split(hint)
            assert argv[0] == "repro"
            args = build_parser().parse_args(argv[1:])
            assert args.command == "build"
            assert args.index_dir == directory

    def test_http_excludes_processes(self, capsys):
        code = main(["loadtest", "--http", "http://127.0.0.1:1",
                     "--processes", "2"])
        assert code == EXIT_USER_ERROR
        assert "mutually exclusive" in capsys.readouterr().err

    def test_http_excludes_index_dir(self, tmp_path, capsys):
        code = main(["loadtest", "--http", "http://127.0.0.1:1",
                     "-d", str(tmp_path)])
        assert code == EXIT_USER_ERROR
        assert "--index-dir" in capsys.readouterr().err

    def test_http_against_dead_server_fails_cleanly(self, capsys):
        code = main(["loadtest", "--http", "http://127.0.0.1:9",
                     "--requests", "5", "--rate", "100"])
        assert code == EXIT_USER_ERROR
        assert "repro serve" in capsys.readouterr().err

    def test_http_load_run_end_to_end(self, pipeline, tmp_path,
                                      capsys):
        """A real serve instance driven by `loadtest --http`."""
        from repro.serve import ReproService, ServiceConfig
        from repro.soccer import standard_corpus
        from repro.soccer.names import FIXTURES
        corpus = standard_corpus(fixtures=FIXTURES[:2],
                                 total_narrations=120)
        pipeline.run_segmented(corpus.crawled, tmp_path).close()
        config = ServiceConfig(tmp_path, maintenance=False)
        with ReproService(config) as service:
            report_path = tmp_path / "http_load.json"
            code = main(["loadtest", "--http", service.url,
                         "--requests", "40", "--rate", "100",
                         "--arrival", "fixed",
                         "-o", str(report_path)])
            assert code == 0
            report = json.loads(report_path.read_text())
        assert report["errors"] == 0
        assert report["completed"] == 40
        assert report["name"].startswith("http:")
