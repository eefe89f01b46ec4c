"""Keep-alive HTTP load generation for the benchmark.

One :class:`KeepAliveClient` per worker thread holds a single
persistent HTTP/1.1 connection (``http.client``, ``TCP_NODELAY`` on the
client side), the way a browser or service mesh talks to the server.
:func:`run_open_loop` releases each :class:`Op` at its scheduled offset
from one dispatcher thread, whether or not earlier operations have
finished, and the workers send them over their connections.  An
op's ``due`` is its offset from the phase start; the times recorded on
it are absolute ``time.perf_counter()`` readings.
"""

from __future__ import annotations

import http.client
import math
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["KeepAliveClient", "Op", "run_open_loop", "quantile"]

_JSON_HEADERS = {"Content-Type": "application/json"}


class KeepAliveClient:
    """One persistent connection; reconnects only after an error or
    when the server closes the connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self._conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        try:
            self._conn.request(method, path, body=body,
                               headers=_JSON_HEADERS if body else {})
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Op:
    """One scheduled operation and, after the run, what happened."""

    kind: str                  # "search" | "ingest" | "poll"
    due: float                 # offset from the phase start (s)
    method: str
    path: str
    body: Optional[bytes] = None
    key: object = None         # query text, match id, ...
    rid: int = 0
    scheduled: float = math.nan
    dispatched: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    response: bytes = b""
    error: Optional[str] = None
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def response_s(self) -> float:
        """From the scheduled send: includes every wait a stall
        imposed on this request."""
        return self.done - self.scheduled

    @property
    def service_s(self) -> float:
        return self.done - self.sent


def run_open_loop(clients: Sequence[KeepAliveClient], ops: List[Op],
                  skip: Optional[Callable[[Op], bool]] = None,
                  on_done: Optional[Callable[[Op], None]] = None,
                  grace: float = 15.0) -> None:
    """Run ``ops`` (sorted by ``due``) over ``clients``, one worker
    thread per client.  ``skip(op)`` is asked just before sending and
    drops the op unsent when true; ``on_done(op)`` sees every sent op
    after its response.  An op still queued ``grace`` seconds after
    the last scheduled send fails unsent, so a wedged server cannot
    hold the run."""
    work: "queue.SimpleQueue" = queue.SimpleQueue()
    base = time.perf_counter()
    deadline = base + (ops[-1].due if ops else 0.0) + grace

    def worker(client: KeepAliveClient) -> None:
        while True:
            op = work.get()
            if op is None:
                return
            if skip is not None and skip(op):
                op.skipped = True
                continue
            op.sent = time.perf_counter()
            if op.sent > deadline:
                op.error = "not sent: phase deadline passed"
                op.done = op.sent
                continue
            try:
                op.status, op.response = client.request(
                    op.method, op.path, op.body)
            except (OSError, http.client.HTTPException) as error:
                op.error = f"{type(error).__name__}: {error}"
            op.done = time.perf_counter()
            if on_done is not None:
                on_done(op)

    threads = [threading.Thread(target=worker, args=(client,),
                                name=f"bench-conn-{number}")
               for number, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    try:
        for op in ops:
            op.scheduled = base + op.due
            delay = op.scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            op.dispatched = time.perf_counter()
            work.put(op)
    finally:
        for _ in threads:
            work.put(None)
        for thread in threads:
            thread.join()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (NaN when empty); a
    failed request enters as ``math.inf``."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    fraction = position - low
    if fraction == 0:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * fraction
