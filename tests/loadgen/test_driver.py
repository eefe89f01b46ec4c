"""The open-loop driver against stub engines.

A stub with a known service time makes every driver claim checkable
without a real index: completion accounting, error capture, the
response-vs-service split (queue wait is *visible* — the whole point
of open-loop), saturation detection, and the multi-run sweep.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.loadgen import (OpenLoopDriver, build_workload,
                           fixed_rate_arrivals, saturation_sweep)


def instant_search(query, limit):
    return ["hit"] * min(3, limit if limit is not None else 3)


class TestDriverBasics:
    def test_completes_every_request(self):
        queries = [f"q{i}" for i in range(40)]
        driver = OpenLoopDriver(instant_search, queries,
                                fixed_rate_arrivals(2000.0, 40),
                                threads=4, limit=3)
        result = driver.run()
        assert result.completed == result.requests == 40
        assert result.errors == 0
        assert result.answered == 40
        assert result.percentile_source == "reservoir_exact"
        assert result.response["p99"] >= result.service["p50"] >= 0.0

    def test_records_are_kept_only_on_request(self):
        queries = ["a", "b"]
        arrivals = fixed_rate_arrivals(100.0, 2)
        lean = OpenLoopDriver(instant_search, queries, arrivals,
                              threads=1).run()
        assert lean.records is None
        full = OpenLoopDriver(instant_search, queries, arrivals,
                              threads=1, capture_results=True).run()
        assert len(full.records) == 2
        assert all(record.result == ["hit"] * 3
                   for record in full.records)

    def test_every_thread_participates(self):
        seen = set()

        def tracking(query, limit):
            seen.add(threading.current_thread().name)
            time.sleep(0.005)
            return ["hit"]

        OpenLoopDriver(tracking, ["q"] * 32,
                       fixed_rate_arrivals(5000.0, 32),
                       threads=4, name="spread").run()
        assert len(seen) == 4

    def test_errors_are_counted_not_fatal(self):
        def flaky(query, limit):
            if query == "boom":
                raise RuntimeError("engine exploded")
            return ["hit"]

        queries = ["ok", "boom", "ok", "boom", "ok"]
        result = OpenLoopDriver(flaky, queries,
                                fixed_rate_arrivals(1000.0, 5),
                                threads=2).run()
        assert result.completed == 5
        assert result.errors == 2
        assert result.answered == 3
        assert "RuntimeError: engine exploded" in result.error_samples

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="queries"):
            OpenLoopDriver(instant_search, ["a"], [0.0, 0.1])
        with pytest.raises(ValueError, match="thread"):
            OpenLoopDriver(instant_search, ["a"], [0.0], threads=0)

    def test_to_json_is_self_describing(self):
        queries = [f"q{i}" for i in range(50)]
        result = OpenLoopDriver(instant_search, queries,
                                fixed_rate_arrivals(300.0, 50),
                                threads=1, name="shape").run()
        data = result.to_json()
        assert data["name"] == "shape"
        assert data["requests"] == 50
        assert data["utilization"] <= 1.05
        for window in ("response_seconds", "service_seconds"):
            assert set(data[window]) \
                == {"p50", "p95", "p99", "max", "mean"}
            assert data[window]["p99"] <= data[window]["max"]

    def test_offered_rate_equals_configured_rate(self):
        # N arrivals span N-1 gaps: offered must read back as the
        # configured rate, not rate * N/(N-1)
        result = OpenLoopDriver(instant_search, ["q"] * 21,
                                fixed_rate_arrivals(200.0, 21),
                                threads=2).run()
        assert result.offered_qps == pytest.approx(200.0)

    def test_single_request_offered_rate_is_zero(self):
        # one arrival has no inter-arrival gap, hence no rate:
        # defined as 0.0, and utilization serializes as null
        result = OpenLoopDriver(instant_search, ["q"], [0.0],
                                threads=1).run()
        assert result.offered_qps == 0.0
        assert result.to_json()["utilization"] is None

    def test_result_exposes_its_histograms(self):
        result = OpenLoopDriver(instant_search, ["a", "b", "c"],
                                fixed_rate_arrivals(300.0, 3),
                                threads=1).run()
        for histogram in (result.response_histogram,
                          result.service_histogram):
            assert histogram.count == 3
            assert len(histogram.reservoir_values()) == 3
        assert "response_histogram" not in result.to_json()


class TestOpenLoopSemantics:
    def test_queue_wait_shows_in_response_not_service(self):
        # one worker, 5ms of service, offered 10x capacity: a closed
        # loop would report ~5ms everywhere; the open loop must show
        # response time >> service time because requests queue up
        def slow(query, limit):
            time.sleep(0.005)
            return ["hit"]

        result = OpenLoopDriver(slow, ["q"] * 60,
                                fixed_rate_arrivals(2000.0, 60),
                                threads=1).run()
        assert result.service["p50"] == pytest.approx(0.005, rel=0.9)
        assert result.response["p95"] > result.service["p95"] * 3
        assert result.achieved_qps < result.offered_qps * 0.5

    def test_under_capacity_response_tracks_service(self):
        def quick(query, limit):
            time.sleep(0.001)
            return ["hit"]

        result = OpenLoopDriver(quick, ["q"] * 50,
                                fixed_rate_arrivals(100.0, 50),
                                threads=4).run()
        assert result.achieved_qps > result.offered_qps * 0.9
        assert result.response["p50"] < 0.01


class TestSaturationSweep:
    def test_finds_the_knee(self):
        def slow(query, limit):
            time.sleep(0.002)
            return ["hit"]

        def run_at(rate):
            return OpenLoopDriver(
                slow, ["q"] * 100,
                fixed_rate_arrivals(rate, 100), threads=2).run()

        # capacity ≈ 2 threads / 2ms = ~1000 qps; 100 is comfortable,
        # 10000 is far past the knee
        sweep = saturation_sweep(run_at, [100.0, 10000.0])
        assert len(sweep["points"]) == 2
        assert sweep["points"][0]["utilization"] > 0.9
        assert sweep["points"][1]["utilization"] < 0.9
        assert sweep["saturated_at_offered_qps"] \
            == sweep["points"][1]["offered_qps"]
        assert sweep["saturation_qps"] >= sweep["points"][0]["achieved_qps"]

    def test_no_knee_reports_none(self):
        def quick(query, limit):
            return ["hit"]

        sweep = saturation_sweep(
            lambda rate: OpenLoopDriver(
                quick, ["q"] * 30, fixed_rate_arrivals(rate, 30),
                threads=2).run(),
            [50.0, 100.0])
        assert sweep["saturated_at_offered_qps"] is None


class TestWorkloadIntegration:
    def test_driver_replays_a_built_workload(self):
        workload = build_workload("cache_friendly", 30, seed=11)
        result = OpenLoopDriver(
            instant_search, workload.queries,
            fixed_rate_arrivals(3000.0, 30), threads=2,
            capture_results=True).run()
        assert result.completed == 30
        assert {record.query for record in result.records} \
            == set(workload.queries)


class TestMultiprocess:
    def test_shard_counts_preserve_the_total(self):
        from repro.loadgen.driver import _shard_counts

        assert _shard_counts(100, 3) == [34, 33, 33]
        assert _shard_counts(12, 4) == [3, 3, 3, 3]
        # fewer requests than processes: surplus shards get zero,
        # never inflating the run to `processes` requests
        assert _shard_counts(2, 4) == [1, 1, 0, 0]
        for count, processes in [(1, 1), (7, 2), (400, 7), (5, 8)]:
            assert sum(_shard_counts(count, processes)) == count

    def _mini_index_dir(self, tmp_path):
        from repro.search import InvertedIndex, save_index

        index = InvertedIndex("mini")
        for terms in (["goal", "messi"], ["pass", "corner"],
                      ["goal", "foul"]):
            doc_id = index.new_doc_id()
            index.index_terms(doc_id, "narration",
                              list(zip(terms, range(len(terms)))))
            index.store_value(doc_id, "doc_key", f"doc-{doc_id}")
        save_index(index, tmp_path)
        return tmp_path

    def test_run_multiprocess_drives_exactly_count_requests(self,
                                                            tmp_path):
        from repro.loadgen import run_multiprocess

        report = run_multiprocess(
            self._mini_index_dir(tmp_path), "mini", "cache_friendly",
            count=10, rate=500.0, processes=3, threads=1)
        # 10 // 3 would silently drive 9; the remainder must survive
        assert report["requests"] == 10
        assert report["completed"] == 10
        assert report["errors"] == 0
        assert report["processes"] == 3
        # shards ship their reservoirs: merged percentiles are exact,
        # and the service window travels too (parity with in-process)
        assert report["percentile_source"] == "reservoir_exact"
        for window in ("response_seconds", "service_seconds"):
            assert set(report[window]) \
                == {"p50", "p95", "p99", "max", "mean"}
            assert report[window]["p50"] <= report[window]["p99"] \
                <= report[window]["max"]

    def test_run_multiprocess_with_fewer_requests_than_processes(
            self, tmp_path):
        from repro.loadgen import run_multiprocess

        report = run_multiprocess(
            self._mini_index_dir(tmp_path), "mini", "cache_friendly",
            count=2, rate=100.0, processes=4, threads=1)
        assert report["requests"] == 2
        assert report["completed"] == 2
        assert report["processes"] == 2
