#!/usr/bin/env python3
"""The repository benchmark: ``repro serve`` driven over keep-alive HTTP.

    python3 perfbench/run.py --workload search_miss --seed 1 \\
        --seconds 40 --trace 0

One run builds the paper corpus into a segmented index directory
(three times, for the set-up time), starts ``repro serve`` on it as its
own process, drives it from this process over ``nproc`` persistent
HTTP/1.1 connections on an open-loop schedule, checks every answer
against an in-process oracle, and prints every metric by name with its
unit.  The last line of standard output is the JSON result.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures
one untraced phase, restarts the server under ``traced_serve.py`` and
measures the same phase again, and reports the per-layer metrics plus
the tracing overhead.  Workloads, metrics and the layer map are in
``perfbench/README.md``.  Scratch files live under ``.bench_work/`` in
the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from httpload import KeepAliveClient, Op, quantile, run_open_loop  # noqa: E402
import layers  # noqa: E402

#: workload -> (repro.loadgen profile, seconds between ingests or None,
#: warm the result cache with the whole query universe before timing)
WORKLOADS = {
    "search_miss": ("cache_hostile", None, False),
    "search_hit": ("cache_friendly", None, True),
    "ingest_live": ("cache_friendly", 1.0, True),
}
#: offered rate of the fixed-rate phase (search requests per second)
OFFERED_QPS = 20.0
#: the knee's limits: p95 response time, and achieved / offered
LATENCY_LIMIT_S = 0.100
ACHIEVED_SHARE = 0.95
#: arrivals per knee probe (s); a probe is judged alone, then drained
PROBE_SECONDS = 1.5
#: time left to the knee search; the fixed-rate phase gets the rest
KNEE_SECONDS = 8.0
#: warm-up searches where the result cache is to stay cold: queries of
#: the universe that the timed phase does not send
WARM_MISSES = 100
#: /healthz poll period while an ingest is not yet visible (s)
POLL_SECONDS = 0.1
SETUPS = 3
#: idle-server ingests timed after the search workloads: fewer than
#: the merge factor (8) minus the two built segments, so no merge runs
FRESHNESS_INGESTS = 5
SEGMENT_SIZE = 5
LIMIT = 10
HOST = "127.0.0.1"
UNIVERSE_SEED = 0
RUN_LIMIT_S = 120.0


class BenchError(Exception):
    """The run cannot produce a result."""


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` process (optionally under the traced
    launcher), with its CPU and memory read from ``/proc``."""

    def __init__(self, index_dir: Path, log_path: Path, env: dict,
                 spans_path: Path | None = None) -> None:
        self.port = _free_port()
        command = [sys.executable]
        if spans_path is not None:
            command += [str(HERE / "traced_serve.py"), str(spans_path)]
        else:
            command += ["-m", "repro"]
        command += ["serve", "-d", str(index_dir), "-p", str(self.port)]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                finally:
                    conn.close()
                if response.status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("server not healthy in time")
            time.sleep(0.02)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15; fields[0] is field 3
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM drains the server; clients must be closed first."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ----------------------------------------------------------------------
# ingest visibility
# ----------------------------------------------------------------------

class IngestTracker:
    """Acknowledged ingests on one server, and how long each took to
    show in ``/healthz`` (the ingest worker counts a match only after
    its segments are committed and the serving handles refreshed)."""

    def __init__(self, health: dict) -> None:
        self.base = health["ingest"]["ingested"]
        self.cursor = 0            # next match to post to this server
        self.acked: list = []      # (match id, send time)
        self.visible: list = []    # seconds, in ack order
        self.server_failed = 0
        self.last_error = None
        self._lock = threading.Lock()

    def pending(self) -> bool:
        return len(self.visible) < len(self.acked)

    def skip(self, op: Op) -> bool:
        return op.kind == "poll" and not self.pending()

    def on_done(self, op: Op) -> None:
        if not op.ok:
            return
        if op.kind == "ingest":
            with self._lock:
                self.acked.append((op.key, op.sent))
        elif op.kind == "poll":
            self.observe(json.loads(op.response), op.done)

    def observe(self, health: dict, at: float) -> None:
        ingest = health["ingest"]
        with self._lock:
            self.server_failed = ingest["failed"]
            self.last_error = ingest["last_error"]
            shown = min(ingest["ingested"] - self.base, len(self.acked))
            while len(self.visible) < shown:
                self.visible.append(at - self.acked[len(self.visible)][1])


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def query_universe(profile: str) -> list:
    """A ``repro.loadgen`` profile's query universe: the paper's
    queries, then synthetic expansions.  The universe is fixed (like
    the corpus); the run's seed draws the request sequence from it."""
    from repro.loadgen import PAPER_QUERIES, PROFILES, synthetic_queries
    size = PROFILES[profile].universe_size
    extra = synthetic_queries(max(0, size - len(PAPER_QUERIES)),
                              seed=UNIVERSE_SEED)
    return [*PAPER_QUERIES, *extra][:size]


def zipf_stream(universe: list, profile: str, seed: int):
    """Endless seeded zipf draws over ``universe`` (the profile's
    exponent, rank 1 = the first paper query)."""
    from repro.loadgen import PROFILES, ZipfSampler
    sampler = ZipfSampler(len(universe), PROFILES[profile].exponent,
                          seed=seed)
    while True:
        yield universe[sampler.sample()]


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------

def oracle_answers(index_dir: Path, queries) -> dict:
    """What ``POST /search`` must answer, from the application facade
    opened in this process on the same directory and run serially."""
    from repro.app import SemanticSearchApplication
    expected = {}
    with SemanticSearchApplication.open(index_dir) as app:
        for query in queries:
            response = app.search(query, limit=LIMIT)
            expected[query] = json.loads(json.dumps({
                "query": response.query,
                "original_query": response.original_query,
                "corrected": response.corrected,
                "phrasal": response.phrasal,
                "count": len(response.hits),
                "hits": [{"doc_key": hit.doc_key, "score": hit.score,
                          "event_type": hit.event_type,
                          "narration": hit.narration}
                         for hit in response.hits],
                "snippets": response.snippets}))
    return expected


def plausible(answer: dict, query: str) -> bool:
    """The shape every answer has, whatever snapshot it came from."""
    hits = answer.get("hits", [])
    scores = [hit["score"] for hit in hits]
    return (answer.get("original_query") == query
            and answer.get("count") == len(hits) <= LIMIT
            and len(answer.get("snippets", ())) == len(hits)
            and scores == sorted(scores, reverse=True))


def visible_matches(index_dir: Path, match_ids) -> list:
    """The match ids that have documents in the FULL_INF index."""
    from repro.core import IndexName
    from repro.search import load_index
    index = load_index(index_dir, IndexName.FULL_INF)
    try:
        keys = [index.stored_document(doc_id).get("docKey")
                for doc_id in range(index.doc_count)]
    finally:
        index.close()
    prefixes = {key.rsplit("_n", 1)[0] for key in keys if key}
    return [match_id for match_id in match_ids if match_id in prefixes]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _dir_mb(path: Path) -> float:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file()) / 1e6


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    """The checked-out commit read from ``.git`` inside the checkout,
    or None where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    def __init__(self, workload: str, seed: int, seconds: int,
                 work: Path) -> None:
        profile, self.ingest_every, warm_universe = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)     # REPRO_KERNELS* pass through
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"
        universe = query_universe(profile)
        self.universe, self.profile = universe, profile
        self.queries = zipf_stream(universe, profile, seed)
        self.warm_universe = warm_universe
        self.rids = itertools.count(1)
        self._matches: list = []
        self._servers: list = []
        self._clients: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.lateness: list = []
        #: no new load phase starts after this, so a stalling server
        #: cannot keep the run going past its limit
        self.deadline = time.monotonic() + RUN_LIMIT_S

    # -- inputs ----------------------------------------------------------

    def match(self, number: int):
        """The ``number``-th fresh match: ``round_robin_fixtures``
        beyond the standard ten, simulated with the corpus's seed (the
        data side is fixed like the corpus; the run's seed draws the
        traffic)."""
        from repro.serve import match_to_json
        from repro.soccer import (DEFAULT_SEED, FIXTURES, SimulatedCrawler,
                                  build_teams)
        from repro.soccer.names import round_robin_fixtures
        if not self._matches:
            self._crawler = SimulatedCrawler(build_teams(), seed=DEFAULT_SEED)
        while len(self._matches) <= number:
            count = len(FIXTURES) + len(self._matches) + 1
            crawled = self._crawler.crawl_match(
                *round_robin_fixtures(count)[-1])
            self._matches.append((crawled.match_id,
                                  json.dumps(match_to_json(crawled)).encode()))
        return self._matches[number]

    def search_op(self, query: str, due: float) -> Op:
        """A user-shaped search; the request id rides in the body,
        which the server ignores, for the traced run to match on."""
        rid = next(self.rids)
        body = json.dumps({"query": query, "limit": LIMIT,
                           "rid": rid}).encode()
        return Op("search", due, "POST", "/search", body, key=query, rid=rid)

    def search_ops(self, rate: float, seconds: float,
                   replay: bool = False) -> list:
        """Searches at ``rate`` for ``seconds``: fresh draws from the
        seeded stream, or with ``replay`` one fixed draw from the
        profile (the same requests every run) in a seed-shuffled
        order, so that the fixed-rate phase's figures differ between
        runs by the system and not by the sample.  Where the result
        cache is to stay cold the replayed draw holds distinct queries:
        a repeat would hit the cache or not depending on the shuffle."""
        count = max(2, round(rate * seconds))
        if replay:
            log = zipf_stream(self.universe, self.profile, UNIVERSE_SEED)
            if self.warm_universe:
                queries = [next(log) for _ in range(count)]
            else:
                distinct: dict = {}
                while len(distinct) < count:
                    distinct.setdefault(next(log))
                queries = list(distinct)
            random.Random(self.seed).shuffle(queries)
        else:
            queries = [next(self.queries) for _ in range(count)]
        return [self.search_op(query, number / rate)
                for number, query in enumerate(queries)]

    def ingest_ops(self, seconds: float, tracker: IngestTracker) -> list:
        if self.ingest_every is None:
            return []
        ops = []
        due = self.ingest_every / 2
        while due < seconds:
            match_id, payload = self.match(tracker.cursor)
            tracker.cursor += 1
            ops.append(Op("ingest", due, "POST", "/ingest", payload,
                          key=match_id))
            due += self.ingest_every
        ops += [Op("poll", step * POLL_SECONDS, "GET", "/healthz")
                for step in range(1, int(seconds / POLL_SECONDS))]
        return ops

    # -- driving ---------------------------------------------------------

    def clients(self, server: Server) -> list:
        clients = [KeepAliveClient(HOST, server.port)
                   for _ in range(self.nproc)]
        self._clients += clients
        return clients

    def close_clients(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []

    def run_ops(self, clients, ops, tracker: IngestTracker) -> list:
        if time.monotonic() > self.deadline:
            raise BenchError("run over its time limit; the server is stalling")
        ops.sort(key=lambda op: op.due)
        run_open_loop(clients, ops, skip=tracker.skip,
                      on_done=tracker.on_done)
        sent = [op for op in ops if not op.skipped]
        self.attempted += len(sent)
        for op in sent:
            self.lateness.append(op.dispatched - op.scheduled)
            if not op.ok:
                self.failed += 1
                self.problems.append(f"{op.kind} {op.path}: "
                                     f"{op.error or op.status}")
        return [op for op in sent if op.kind == "search"]

    def request(self, client: KeepAliveClient, method: str, path: str,
                body: bytes | None = None) -> dict:
        """One serial request outside the open loop, counted."""
        self.attempted += 1
        try:
            status, data = client.request(method, path, body)
        except (OSError, http.client.HTTPException) as error:
            self.failed += 1
            raise BenchError(f"{method} {path}: {error}") from error
        if not 200 <= status < 300:
            self.failed += 1
            raise BenchError(f"{method} {path}: HTTP {status}")
        return json.loads(data)

    def health(self, client) -> dict:
        return self.request(client, "GET", "/healthz")

    def warm_up(self, clients, timed=()) -> list:
        """Searches sent before timing starts, answers checked like the
        rest: the whole query universe once where the workload wants a
        warm result cache (as on a long-running server), else
        ``WARM_MISSES`` queries of the universe that are not among the
        ``timed`` ops, so lazy set-up (spell vocabulary) is done and the
        postings cache is as warm as a long-running server's while the
        timed searches still miss the result cache."""
        if self.warm_universe:
            queries = self.universe
        else:
            sent = {op.key for op in timed}
            queries = [query for query in self.universe
                       if query not in sent][:WARM_MISSES]
        ops = [self.search_op(query, 0.0) for query in queries]
        run_open_loop(clients, ops)
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        return ops

    # -- phases ------------------------------------------------------------

    def setup(self, number: int):
        """Corpus generation and build, server start, healthy."""
        index_dir = self.work / f"index{number}"
        log = self.work / "server.log"
        started = time.perf_counter()
        with open(log, "ab") as sink:
            # a process group of its own, so that its pool workers stop
            # with it if the run is interrupted
            build = subprocess.Popen(
                [sys.executable, "-m", "repro", "--workers",
                 str(min(2, self.nproc)), "build", "--segmented", "-d",
                 str(index_dir), "--segment-size", str(SEGMENT_SIZE)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=sink,
                start_new_session=True)
            try:
                code = build.wait(timeout=300)
            except subprocess.TimeoutExpired:
                raise BenchError("build did not finish in 300 s") from None
            finally:
                if build.poll() is None:
                    os.killpg(build.pid, signal.SIGKILL)
                    build.wait()
        if code != 0:
            raise BenchError(f"build exited with {code}")
        built = time.perf_counter()
        server = self.start_server(index_dir)
        healthy = time.perf_counter()
        return index_dir, server, built - started, healthy - built

    def start_server(self, index_dir: Path, spans: Path | None = None):
        server = Server(index_dir, self.work / "server.log", self.env, spans)
        self._servers.append(server)
        server.wait_healthy()
        return server

    def stop_server(self, server: Server) -> None:
        self.close_clients()
        server.stop()

    def setups(self):
        """Three set-ups; the third server is returned running."""
        results = [self.setup(number) for number in range(SETUPS)]
        for _, server, _, _ in results[:-1]:
            self.stop_server(server)
        return results

    def probe_ok(self, searches, rate: float) -> bool:
        latencies = [op.response_s if op.ok else math.inf for op in searches]
        finished = sorted(op.done for op in searches if op.ok)
        span = finished[-1] - finished[0] if len(finished) > 1 else 0.0
        achieved = (len(finished) - 1) / span if span > 0 else 0.0
        return (len(finished) == len(searches)
                and quantile(latencies, 0.95) <= LATENCY_LIMIT_S
                and achieved >= ACHIEVED_SHARE * rate)

    def knee(self, clients, tracker, fixed_ok, budget: float,
             searches: list) -> float:
        """Highest offered search rate meeting the limits, from a fixed
        number of probes: rates double until one fails, then the
        bracket is bisected geometrically.  ``fixed_ok`` is the verdict
        of the fixed-rate phase as the first probe, or None to start by
        probing the fixed rate."""
        low = high = None
        if fixed_ok is not None:
            low, high = (OFFERED_QPS, None) if fixed_ok else (None,
                                                              OFFERED_QPS)
        for _ in range(max(1, round(budget / (PROBE_SECONDS + 0.25)))):
            rate = (OFFERED_QPS if low is None and high is None
                    else low * 2 if high is None
                    else high / 2 if low is None
                    else math.sqrt(low * high))
            probe = self.run_ops(clients, self.search_ops(rate, PROBE_SECONDS),
                                 tracker)
            searches += probe
            if self.probe_ok(probe, rate):
                low = rate
            else:
                high = rate
        return low if low is not None else 0.0

    def wait_visible(self, client, tracker: IngestTracker,
                     period: float) -> None:
        """Poll ``/healthz`` every ``period`` seconds until every
        acknowledged ingest shows; a failed ingest fails the run."""
        deadline = time.monotonic() + 60.0
        tick = time.perf_counter()
        while tracker.pending():
            tracker.observe(self.health(client), time.perf_counter())
            if time.monotonic() > deadline or tracker.server_failed:
                raise BenchError(
                    f"acknowledged ingests not visible: "
                    f"{len(tracker.acked) - len(tracker.visible)} pending, "
                    f"{tracker.server_failed} failed in the server "
                    f"({tracker.last_error})")
            tick += period
            time.sleep(max(0.0, tick - time.perf_counter()))

    def settle(self, client, tracker: IngestTracker) -> None:
        """Wait until every acknowledged ingest shows; on
        ``ingest_live`` also wait out one maintenance cycle, so the
        merges its segments call for have run before the index is
        measured and the knee probed."""
        self.wait_visible(client, tracker, POLL_SECONDS)
        if self.ingest_every is not None:
            deadline = time.monotonic() + 60.0
            cycles = self.health(client)["maintenance"]["cycles"]
            while self.health(client)["maintenance"]["cycles"] == cycles:
                if time.monotonic() > deadline:
                    raise BenchError("no maintenance cycle ran")
                time.sleep(0.1)

    def check(self, index_dir: Path, searches, client,
              tracker: IngestTracker) -> None:
        """The correctness gate for everything one server answered."""
        answered = [op for op in searches if op.ok]
        if self.ingest_every is None:
            expected = oracle_answers(index_dir, {op.key for op in answered})
            wrong = [op.key for op in answered
                     if json.loads(op.response) != expected[op.key]]
        else:
            wrong = [op.key for op in answered
                     if not plausible(json.loads(op.response), op.key)]
            wrong += self.final_answers(index_dir, client,
                                        sorted({op.key for op in answered}))
            acked = [match_id for match_id, _ in tracker.acked]
            missing = set(acked) - set(visible_matches(index_dir, acked))
            if missing or tracker.server_failed:
                self.failed += len(missing) + tracker.server_failed
                self.problems.append(
                    f"ingest: {len(missing)} acknowledged matches not "
                    f"visible, {tracker.server_failed} failed")
        self.failed += len(wrong)
        self.problems += [f"wrong answer for {query!r}" for query in wrong[:5]]

    def final_answers(self, index_dir, client, queries) -> list:
        """The queries whose answer, served after the run, differs from
        the oracle reopened on the final directory (served again if
        maintenance moved the generation meanwhile)."""
        for _ in range(3):
            generation = self.health(client)["indexes"]["FULL_INF"]["generation"]
            served = {}
            for query in queries:
                rid = next(self.rids)
                body = json.dumps({"query": query, "limit": LIMIT,
                                   "rid": rid}).encode()
                served[query] = self.request(client, "POST", "/search", body)
            after = self.health(client)["indexes"]["FULL_INF"]["generation"]
            if after == generation:
                break
        expected = oracle_answers(index_dir, queries)
        return [query for query in queries if served[query] != expected[query]]

    def freshness(self, server: Server) -> None:
        """Post fresh matches one at a time to the idle server, each
        once ``/healthz`` counts the one before."""
        client = self.clients(server)[0]
        tracker = IngestTracker(self.health(client))
        for number in range(FRESHNESS_INGESTS):
            match_id, payload = self.match(number)
            sent = time.perf_counter()
            self.request(client, "POST", "/ingest", payload)
            tracker.acked.append((match_id, sent))
            self.wait_visible(client, tracker, 0.02)

    def phase(self, server, index_dir, seconds, knee_budget=0.0,
              scrape=False):
        """Warm-up, the fixed-rate phase, settling, then (``knee_budget``
        > 0) the knee probes; checks every answer.  ``scrape`` reads
        ``/metrics`` around the fixed-rate phase."""
        clients = self.clients(server)
        tracker = IngestTracker(self.health(clients[0]))
        timed = self.search_ops(OFFERED_QPS, seconds, replay=True)
        searches = self.warm_up(clients, timed)
        out = {"tracker": tracker}
        if scrape:
            out["metrics_before"] = self.scrape(clients[0])
        cpu_before = server.cpu_seconds()
        fixed = self.run_ops(
            clients, timed + self.ingest_ops(seconds, tracker), tracker)
        cpu = server.cpu_seconds() - cpu_before
        if scrape:
            out["metrics_after"] = self.scrape(clients[0])
        searches += fixed
        out["fixed"] = fixed
        out["cpu_ms_per_search"] = cpu * 1000.0 / max(len(fixed), 1)
        self.settle(clients[0], tracker)
        out["disk_mb"] = _dir_mb(index_dir)
        from repro.search.index.segments import IndexDirectory
        out["segments"] = len(IndexDirectory(
            index_dir / "FULL_INF.segd").manifest().segments)
        if knee_budget > 0:
            if self.ingest_every is None:
                fixed_ok = self.probe_ok(fixed, OFFERED_QPS)
            else:
                # reads only, on the index live ingest left behind
                searches += self.warm_up(clients)
                fixed_ok = None
            out["knee"] = self.knee(clients, tracker, fixed_ok,
                                    knee_budget, searches)
        out["rss_mb"] = server.peak_rss_mb()
        self.check(index_dir, searches, clients[0], tracker)
        self.close_clients()
        return out

    # -- the two modes -----------------------------------------------------

    def measure(self) -> dict:
        setups = self.setups()
        index_dir, server = setups[-1][0], setups[-1][1]
        knee_s = min(KNEE_SECONDS, self.seconds / 3)
        out = self.phase(server, index_dir, self.seconds - knee_s,
                         knee_budget=knee_s)
        self.stop_server(server)
        latencies = [op.response_s * 1000.0 if op.ok else math.inf
                     for op in out["fixed"]]
        metrics = {
            "setup_s": ("s", _median([b + s for _, _, b, s in setups])),
            "search_p50_ms": ("ms", quantile(latencies, 0.50)),
            "search_p95_ms": ("ms", quantile(latencies, 0.95)),
            "server_cpu_ms_per_search": ("ms", out["cpu_ms_per_search"]),
            "server_peak_rss_mb": ("MB", out["rss_mb"]),
            "index_disk_mb": ("MB", out["disk_mb"]),
            "search_knee_qps": ("1/s", out["knee"]),
        }
        if self.ingest_every is not None:
            metrics["ingest_visible_p50_s"] = (
                "s", _median(out["tracker"].visible))
        metrics["ok_ratio"] = (
            "ratio", 1.0 - self.failed / max(self.attempted, 1))
        return metrics

    def trace(self) -> dict:
        setups = self.setups()
        phase_s = self.seconds / 2
        index_dir = self.work / "traced"
        shutil.copytree(setups[-1][0], index_dir)
        plain = self.phase(setups[-1][1], setups[-1][0], phase_s)
        self.stop_server(setups[-1][1])
        spans_path = self.work / "spans.jsonl"
        server = self.start_server(index_dir, spans_path)
        traced = self.phase(server, index_dir, phase_s, scrape=True)
        if self.ingest_every is None:
            self.freshness(server)     # the ingest layers' spans
        self.stop_server(server)

        def p50(ops):
            return quantile([op.response_s * 1000.0 if op.ok else math.inf
                             for op in ops], 0.50)

        spans = layers.load_spans(spans_path)
        client_ms = {op.rid: op.service_s * 1000.0
                     for op in traced["fixed"] if op.ok}
        metrics = {}
        request = layers.request_layers(spans, client_ms)
        for name, value in request.items():
            metrics[name] = (_unit(name), value)
        for name, value in layers.ingest_layers(spans).items():
            metrics[name] = (_unit(name), value)
        for name, value in layers.metrics_ratios(
                traced["metrics_before"], traced["metrics_after"]).items():
            metrics[name] = ("ratio", value)
        untraced, traced_p50 = p50(plain["fixed"]), p50(traced["fixed"])
        metrics.update({
            "index.segment_count": ("count", traced["segments"]),
            "setup.build_s": ("s", _median([b for _, _, b, _ in setups])),
            "setup.start_s": ("s", _median([s for _, _, _, s in setups])),
            "loadgen.late_ms_p95": ("ms", quantile(self.lateness, 0.95)
                                    * 1000.0),
            "trace.search_p50_ms_untraced": ("ms", untraced),
            "trace.search_p50_ms_traced": ("ms", traced_p50),
            "trace.overhead_ratio": ("ratio", traced_p50 / untraced),
        })
        return metrics

    def scrape(self, client) -> dict:
        self.attempted += 1
        try:
            status, data = client.request("GET", "/metrics")
        except (OSError, http.client.HTTPException) as error:
            status, data = 0, str(error).encode()
        if status != 200:
            self.failed += 1
            raise BenchError(f"GET /metrics: {status} {data[:200]!r}")
        return layers.parse_prometheus(data.decode("utf-8"))

    def close(self) -> None:
        """Stop every server this run started and wait for it."""
        self.close_clients()
        for server in self._servers:
            server.stop()


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the oracle must iterate sets in the server's order
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    # compiled kernels (REPRO_KERNELS=1) build inside the checkout
    os.environ["REPRO_KERNELS_CACHE"] = str(ROOT / ".bench_work" / "kernels")
    sys.path.insert(0, str(SRC))
    from repro.search.index import kernels
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    # a terminated run still stops its servers (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        metrics = run.trace() if args.trace else run.measure()
        correct = run.failed == 0
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        log = work / "server.log"
        if log.is_file():
            sys.stderr.write(log.read_text(errors="replace")[-2000:])
        return 1
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "src_sha256": _src_digest(),
            "nproc": run.nproc, "python": platform.python_version(),
            "repro_kernels": os.environ.get("REPRO_KERNELS", ""),
            "kernels_enabled": kernels.enabled(),
            "connections": run.nproc, "offered_qps": OFFERED_QPS,
            "ingest_every_s": run.ingest_every,
            "latency_limit_ms": LATENCY_LIMIT_S * 1000.0,
            "achieved_share": ACHIEVED_SHARE}
    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(f"failed_ratio {run.failed / max(run.attempted, 1)} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for name, (unit, value) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
