"""Boot, probe and stop the real compilation server as a subprocess."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

#: How long a boot may take before the run is abandoned.
BOOT_TIMEOUT_S = 60.0
#: How long SIGINT may take to stop the server and its pool.
STOP_TIMEOUT_S = 20.0
HEALTH_POLL_S = 0.002


class ServerError(RuntimeError):
    pass


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            # The state field follows the parenthesised command name.
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _children(pid: int) -> List[int]:
    pids: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", "r", encoding="ascii") as handle:
                pids += [int(child) for child in handle.read().split()]
    except OSError:
        pass
    return pids


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def request_json(port: int, method: str, path: str, timeout: float = 30.0):
    """One request on a fresh connection: ``(status, decoded body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


class Server:
    """``python -m repro.frontend --serve --workers 2 --port 0`` in a
    subprocess, from spawn to its first ``/healthz`` 200 (``setup_s``)."""

    def __init__(self, root: Path, out: Path, base_env: dict, workers: int = 2) -> None:
        env = dict(base_env)
        env["PYTHONPATH"] = str(root / "src")
        # The execution tier materialises emitted modules under the temp
        # dir; keep them inside the checkout.
        env["TMPDIR"] = str(out / "tmp")
        (out / "tmp").mkdir(parents=True, exist_ok=True)
        self.log = open(out / "server.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.frontend", "--serve",
             "--workers", str(workers), "--port", "0"],
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.worker_pids: List[int] = []
        try:
            self.port = self._read_port(started + BOOT_TIMEOUT_S)
            self._wait_healthy(started + BOOT_TIMEOUT_S)
            self.setup_s = time.perf_counter() - started
            self.worker_pids = [entry["pid"] for entry in self.stats()["per_worker"]]
        except BaseException:
            self.kill()
            raise

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise ServerError(f"server did not announce its port: {line!r}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError(f"server exited before listening: {line!r}")
                line += chunk
        address = line.split(b"http://", 1)[1].split()[0]
        return int(address.rsplit(b":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = request_json(self.port, "GET", "/healthz", timeout=5.0)
                if status == 200:
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise ServerError("server never reported healthy")
            time.sleep(HEALTH_POLL_S)

    def stats(self) -> dict:
        status, payload = request_json(self.port, "GET", "/stats")
        if status != 200:
            raise ServerError(f"GET /stats returned {status}")
        return payload

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its workers."""
        pids = [self.proc.pid, *self.worker_pids]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> List[int]:
        """SIGINT the server; returns the worker pids that outlived it.

        SIGINT is the clean path (``run_server`` catches KeyboardInterrupt
        and closes the pool).  Survivors are killed here so the benchmark
        never leaks a process, and reported so the run fails.
        """
        orphans: List[int] = []
        self.worker_pids = sorted(set(self.worker_pids) | set(_children(self.proc.pid)))
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    orphans.append(self.proc.pid)
            orphans += [pid for pid in self.worker_pids if _alive(pid)]
        finally:
            self.kill()
        return orphans

    def kill(self) -> None:
        """Hard stop of the server and every known worker; waits for each."""
        self.worker_pids += [
            pid for pid in _children(self.proc.pid) if pid not in self.worker_pids
        ]
        for pid in self.worker_pids:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in self.worker_pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def setup_times(root: Path, out: Path, env: dict, boots: int) -> Tuple[List[float], Server, List[int]]:
    """Boot *boots* servers one after another; all but the last are
    stopped again.  Returns ``(setup seconds, live server, orphan pids)``."""
    times: List[float] = []
    orphans: List[int] = []
    for _ in range(boots - 1):
        server = Server(root, out, env)
        times.append(server.setup_s)
        orphans += server.stop()
    server = Server(root, out, env)
    times.append(server.setup_s)
    return times, server, orphans
