"""Serve phase: ``python -m repro serve`` in a subprocess, driven over HTTP.

One client process (the benchmark's) opens at most ``nproc`` keep-alive
connections.  The open-loop phase sends requests on a fixed schedule; each
request's latency runs from its due time, so a stall also charges the
requests queued behind it.  The reload phase keeps a lighter open loop
going while the client flips the snapshot directory's ``LATEST`` pointer
between two snapshots and times each flip until the first response that
names the new snapshot.  A closed-loop phase on the same connections then
measures capacity.

Every response is checked: status 200, the requested node id, and for
``/predict`` and ``/explain`` the prediction of an in-process
``ServingState`` of the snapshot the response names; ``/neighbors`` must
report the node's degree.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ENDPOINTS = ("predict", "explain", "neighbors")
MIX = (0.5, 0.4, 0.1)
ZIPF_EXPONENT = 1.0
# Open-loop latency is reported over the quieter half of the windows: the
# windows with the lowest p99, pooled.  On a shared 2-core host, stalls of a
# few milliseconds arrive in bursts; a window of 1000 requests that catches
# ten of them has its p99 set by the host, not by the program.  Windows the
# host leaves alone still move with the program.
QUIET_SHARE = 0.5
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


def request_stream(seed: int, num_nodes: int, count: int) -> List[tuple]:
    """``count`` (endpoint, node) pairs; nodes Zipf-ranked in a seeded order."""
    rng = np.random.default_rng([seed, 0x5E4E])
    weights = 1.0 / np.arange(1, num_nodes + 1) ** ZIPF_EXPONENT
    ranked = rng.permutation(num_nodes)
    nodes = ranked[rng.choice(num_nodes, size=count, p=weights / weights.sum())]
    kinds = rng.choice(len(ENDPOINTS), size=count, p=MIX)
    return [(ENDPOINTS[k], int(n)) for k, n in zip(kinds, nodes)]


class ServerProcess:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, snapshot_dir: Path, log_path: Path, env: dict, args: List[str]):
        self.log_path = log_path
        command = [sys.executable, "-m", "repro", "serve", "--snapshot-dir",
                   str(snapshot_dir), "--port", "0", "--poll-interval", "0.02", *args]
        self._log = open(log_path, "w", encoding="utf-8")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                        stderr=self._log, env=env)
        self.port: Optional[int] = None

    def wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            match = _LISTENING.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; log:\n{self.log_path.read_text()}")

    def wait_ready(self, check, timeout: float = 60.0) -> float:
        """Seconds from spawn until the first valid ``/explain`` 200."""
        port = self.port or self.wait_port(timeout)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                conn = Connection(port)
            except OSError:
                conn = None
            if conn is not None:
                snapshot, conn = _send(conn, "explain", 0, check)
                conn.close()
                if snapshot is not None:
                    return time.perf_counter() - self.spawned_at
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server never became ready; log:\n{self.log_path.read_text()}")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Checker:
    """Validates one response against the in-process reference answers."""

    def __init__(self, expected: Dict[str, list], degrees: List[int]):
        self.expected = expected
        self.degrees = degrees

    def __call__(self, endpoint: str, node: int, status: int, body: bytes) -> Optional[str]:
        """The snapshot the response names, or ``None`` if it is wrong."""
        if status != 200:
            return None
        payload = json.loads(body)
        snapshot = payload.get("snapshot")
        if payload.get("node") != node or snapshot not in self.expected:
            return None
        if endpoint == "neighbors":
            ok = payload.get("degree") == self.degrees[node]
        else:
            ok = payload.get("prediction") == self.expected[snapshot][node]
        return snapshot if ok else None


class Connection:
    """A lean keep-alive HTTP/1.1 client: the load generator must not be
    the bottleneck, and ``http.client`` costs more CPU than the server."""

    def __init__(self, port: int):
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def get(self, path: str) -> tuple:
        """``(status, body)`` of one GET; raises ``OSError`` on a dropped link."""
        self.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        buffer = self.buffer
        while b"\r\n\r\n" not in buffer:
            buffer += self._recv()
        head, _, rest = buffer.partition(b"\r\n\r\n")
        length = int(_CONTENT_LENGTH.search(head).group(1))
        while len(rest) < length:
            rest += self._recv()
        self.buffer = rest[length:]
        return int(head[9:12]), rest[:length]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


def _send(conn: Connection, endpoint: str, node: int, check):
    """One GET on ``conn``; returns (snapshot or None, connection to use next)."""
    try:
        status, body = conn.get(f"/{endpoint}/{node}")
        return check(endpoint, node, status, body), conn
    except (OSError, ValueError, AttributeError):
        conn.close()
        return None, Connection(conn.port)


class Flipper:
    """Moves ``LATEST`` between two snapshots and times each reload."""

    def __init__(self, directory: Path, snapshots: List[str]):
        self.directory = directory
        self.snapshots = snapshots
        self.current = (directory / "LATEST").read_text(encoding="utf-8").strip()
        self.flipped_at: Optional[float] = None
        self.seen = True
        self.reloads: List[float] = []
        self._lock = threading.Lock()

    def flip(self) -> None:
        with self._lock:
            target = self.snapshots[1 - self.snapshots.index(self.current)]
            tmp = self.directory / "LATEST.tmp"
            tmp.write_text(target + "\n", encoding="utf-8")
            os.replace(tmp, self.directory / "LATEST")
            self.current, self.seen = target, False
            self.flipped_at = time.perf_counter()

    def observe(self, snapshot: str, at: float) -> None:
        if snapshot == self.current and not self.seen:
            with self._lock:
                if snapshot == self.current and not self.seen:
                    self.seen = True
                    self.reloads.append(at - self.flipped_at)


def open_loop(port: int, stream: List[tuple], rate: float, conns: int, check,
              flipper: Flipper, flips: int = 0, windows: int = 1) -> dict:
    """Send ``stream`` at ``rate`` req/s, or with ``flips`` only until that
    many ``LATEST`` flips have each shown (the stream bounds the wait).

    Each flip waits until the previous one showed, so no reload is timed
    from a flip that overlapped the last one.  p50 and p99 are taken over
    the quieter slices of ``windows`` equal slices (see ``QUIET_SHARE``).
    """
    count = len(stream)
    latency = [float("inf")] * count
    lateness = [0.0] * count
    sent_upto = [0] * conns
    stop = threading.Event()
    start = time.perf_counter() + 0.05

    def client(offset: int) -> None:
        conn = Connection(port)
        try:
            for i in range(offset, count, conns):
                if stop.is_set():
                    break
                due = start + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                endpoint, node = stream[i]
                snapshot, conn = _send(conn, endpoint, node, check)
                done = time.perf_counter()
                lateness[i] = sent - due
                sent_upto[offset] = i + 1
                if snapshot is not None:
                    latency[i] = done - due
                    flipper.observe(snapshot, done)
        finally:
            conn.close()

    cpu = time.process_time()
    threads = [threading.Thread(target=client, args=(c,), daemon=True) for c in range(conns)]
    for thread in threads:
        thread.start()
    if flips:
        end = start + count / rate
        for _ in range(flips):
            time.sleep(0.2)  # let the swapped-out state go before the next load
            flipper.flip()
            while not flipper.seen and time.perf_counter() < end:
                time.sleep(0.001)
            if not flipper.seen:
                break
        stop.set()
    for thread in threads:
        thread.join(timeout=count / rate + 60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop client did not finish")
    cpu = time.process_time() - cpu
    sent = min(sent_upto) if stop.is_set() else count
    latency = latency[:sent]
    slices = np.array_split(1e3 * np.array(latency), windows)
    p99s = [float(np.percentile(w, 99, method="inverted_cdf")) for w in slices]
    quiet = np.concatenate([slices[i] for i in np.argsort(p99s, kind="stable")
                            [: max(1, int(QUIET_SHARE * windows))]])
    return {
        "requests": sent,
        "failed": sum(1 for x in latency if x == float("inf")),
        "p50_ms": float(np.percentile(quiet, 50, method="inverted_cdf")),
        "p99_ms": float(np.percentile(quiet, 99, method="inverted_cdf")),
        "windows_p99_ms": p99s,
        "lateness_ms": 1e3 * float(np.mean(np.maximum(lateness[:sent], 0.0))),
        "cpu_us_per_req": 1e6 * cpu / sent,
    }


def closed_loop(port: int, stream: List[tuple], seconds: float, conns: int,
                check, flipper: Flipper, windows: int = 1) -> dict:
    """Back-to-back requests on ``conns`` connections for ``seconds``; the
    rate is counted per window and reported as the median window."""
    finished: List[List[float]] = [[] for _ in range(conns)]
    failed = [0] * conns
    begin = time.perf_counter()
    deadline = begin + seconds

    def client(offset: int) -> None:
        conn = Connection(port)
        i = offset
        try:
            while time.perf_counter() < deadline:
                endpoint, node = stream[i % len(stream)]
                snapshot, conn = _send(conn, endpoint, node, check)
                if snapshot is None:
                    failed[offset] += 1
                else:
                    finished[offset].append(time.perf_counter())
                    flipper.observe(snapshot, finished[offset][-1])
                i += conns
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,), daemon=True) for c in range(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop client did not finish")
    done = np.concatenate([np.array(times) for times in finished]) - begin
    counts, _ = np.histogram(done, bins=windows, range=(0.0, seconds))
    rates = (counts * windows / seconds).tolist()
    return {"requests": len(done) + sum(failed), "failed": sum(failed),
            "rps": float(np.median(rates)), "windows_rps": rates}


def scrape(port: int) -> Dict[str, float]:
    """Server-side serve metrics from ``/metrics``."""
    from repro.obs.metrics import parse_exposition

    conn = Connection(port)
    try:
        samples = parse_exposition(conn.get("/metrics")[1].decode("utf-8"))
    finally:
        conn.close()

    def value(name: str, **labels: str) -> float:
        return samples.get((name, tuple(sorted(labels.items()))), 0.0)

    out = {}
    for endpoint in ENDPOINTS:
        total = value("repro_serve_request_seconds_sum", endpoint=endpoint)
        calls = value("repro_serve_request_seconds_count", endpoint=endpoint)
        out[f"serve.{endpoint}_server_ms"] = 1e3 * total / calls if calls else 0.0
    hits = value("repro_serve_cache_total", result="hit")
    misses = value("repro_serve_cache_total", result="miss")
    out["serve.store_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["serve.evictions"] = value("repro_serve_evictions_total")
    out["serve.reloads"] = value("repro_serve_reloads_total", result="ok")
    out["serve.reload_failures"] = value("repro_serve_reloads_total", result="error")
    return out
