"""Closed-loop keep-alive HTTP driver.

Each connection is one caller that waits for its plan before sending the
next request, as a build system or a Linnea-style front-end does.  A
request is timed from send to the last body byte.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from perfbench.workloads import Request, Workload

REQUEST_TIMEOUT_S = 120.0


@dataclass
class Sample:
    request: Request
    status: int
    payload: Optional[dict]
    latency_s: float
    done: float


class Connection:
    """One keep-alive connection (connected eagerly, so the timed window
    never pays the TCP handshake)."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        self._conn.connect()

    def send(self, request: Request) -> Sample:
        started = time.perf_counter()
        try:
            self._conn.request(
                "POST", request.path, body=request.body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            data = response.read()
            done = time.perf_counter()
            status = response.status
        except (OSError, http.client.HTTPException):
            self._conn.close()  # reopened by the next request
            done = time.perf_counter()
            return Sample(request, 0, None, done - started, done)
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        return Sample(request, status, payload, done - started, done)

    def close(self) -> None:
        self._conn.close()


def closed_loop(
    connections: List[Connection],
    workload: Workload,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    min_samples: int = 0,
    cap_s: float = 100.0,
) -> Tuple[List[Sample], float]:
    """Drive *workload* over *connections* until *seconds* have passed and
    *min_samples* requests completed (never past *cap_s*), or until exactly
    *count* requests were sent.  Returns the samples in stream order and
    the window length (start to the last completion)."""
    stop = threading.Event()
    lock = threading.Lock()
    samples: List[Sample] = []
    issued = [0]

    def caller(connection: Connection) -> None:
        while not stop.is_set():
            with lock:
                if count is not None and issued[0] >= count:
                    return
                issued[0] += 1
                request = workload.next()
            sample = connection.send(request)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=caller, args=(c,), daemon=True) for c in connections]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if count is None:
        while True:
            elapsed = time.perf_counter() - started
            with lock:
                enough = len(samples) >= min_samples
            if (elapsed >= seconds and enough) or elapsed >= cap_s:
                break
            time.sleep(0.02)
        stop.set()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S + 5.0)
    samples.sort(key=lambda sample: sample.request.index)
    window = max((s.done for s in samples), default=started) - started
    return samples, window
