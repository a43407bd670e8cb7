"""TCP clients for the serving workloads (line-delimited JSON protocol).

The clients keep their own per-request work to a send, a receive and a
timestamp; responses are kept as raw lines and decoded only after the
measured window, so the client stays cheaper than the server.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class Connection:
    """Blocking request/response connection for control operations."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def call(self, payload: dict) -> dict:
        self.sock.sendall(encode(payload))
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def closed_loop(port: int, requests: list[bytes], connections: int, depth: int,
                block: int, window_s: float):
    """Keep ``depth`` requests in flight on each of ``connections`` sockets.

    Request ``i`` is ``requests[i % len(requests)]`` and goes to
    connection ``i % connections``; once a connection's ``depth`` requests
    are all answered, its next ``depth`` requests are sent together.  New
    requests stop after ``window_s`` seconds and the outstanding ones are
    drained.  Returns ``(replies,
    latency_ns, block_ns)``: ``(i, raw reply line)`` for every request,
    each request's round trip, and the wall time of every ``block``
    consecutive completions.
    """
    socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(connections)]
    count = len(requests)
    sent = [0] * connections
    send_ns: list[list[int]] = [[] for _ in range(connections)]
    got: list[list[bytes]] = [[] for _ in range(connections)]
    recv_ns: list[list[int]] = [[] for _ in range(connections)]
    pending = [b""] * connections
    selector = selectors.DefaultSelector()
    for c, sock in enumerate(socks):
        selector.register(sock, selectors.EVENT_READ, c)

    def refill(c: int, now: int) -> None:
        # Lockstep: the next ``depth`` requests leave in one write once the
        # previous ones are all answered, so the server's batches do not
        # depend on scheduling.
        stop = len(got[c]) + depth
        if sent[c] == len(got[c]):
            payload = b"".join(
                requests[(j * connections + c) % count] for j in range(sent[c], stop)
            )
            send_ns[c].extend([now] * (stop - sent[c]))
            socks[c].sendall(payload)
            sent[c] = stop

    start = time.monotonic_ns()
    deadline = start + int(window_s * 1e9)
    completed = 0
    marks = [start]
    open_loop = True
    for c in range(connections):
        refill(c, start)
    try:
        while open_loop or completed < sum(sent):
            for key, _ in selector.select(timeout=60):
                c = key.data
                data = socks[c].recv(1 << 20)
                if not data:
                    raise ConnectionError("server closed the connection")
                now = time.monotonic_ns()
                parts = (pending[c] + data).split(b"\n")
                pending[c] = parts.pop()
                got[c].extend(parts)
                before = completed
                completed += len(parts)
                if completed // block > before // block:
                    marks.append(now)
                open_loop = open_loop and now < deadline
                if open_loop:
                    refill(c, now)
                recv_ns[c].extend([now] * len(parts))
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    replies = []
    latency = []
    for c in range(connections):
        replies.extend((j * connections + c, line) for j, line in enumerate(got[c]))
        latency.extend(b - a for a, b in zip(send_ns[c], recv_ns[c]))
    blocks = [b - a for a, b in zip(marks, marks[1:])]
    return replies, latency, blocks


class OpenLoop(threading.Thread):
    """Send ``requests`` at ``rate`` per second regardless of replies.

    Each round trip is timed from the request's scheduled send time, so a
    stall also charges the requests queued behind it; ``late_ns`` records
    how far behind schedule each send actually happened.
    """

    def __init__(self, port: int, requests: list[bytes], rate: float) -> None:
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.requests = requests
        self.rate = rate
        self.stop_event = threading.Event()
        self.lines: list[bytes] = []
        self.latency_ns: list[int] = []
        self.late_ns: list[int] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # reported by the caller after join
            self.error = exc

    def _loop(self) -> None:
        sock = self.sock
        sock.settimeout(None)
        selector = selectors.DefaultSelector()
        selector.register(sock, selectors.EVENT_READ)
        interval = int(1e9 / self.rate)
        start = time.monotonic_ns()
        scheduled: list[int] = []
        pending = b""
        sent = 0
        try:
            while True:
                now = time.monotonic_ns()
                stopping = self.stop_event.is_set()
                while not stopping and sent < len(self.requests) and \
                        start + sent * interval <= now:
                    due = start + sent * interval
                    sock.sendall(self.requests[sent])
                    self.late_ns.append(time.monotonic_ns() - due)
                    scheduled.append(due)
                    sent += 1
                if stopping and len(self.lines) == sent:
                    return
                wait = (start + sent * interval - now) / 1e9
                for _ in selector.select(timeout=max(0.0, min(wait, 0.05))):
                    data = sock.recv(1 << 20)
                    if not data:
                        raise ConnectionError("server closed the connection")
                    now = time.monotonic_ns()
                    parts = (pending + data).split(b"\n")
                    pending = parts.pop()
                    first = len(self.lines)
                    self.lines.extend(parts)
                    self.latency_ns.extend(now - t for t in scheduled[first:len(self.lines)])
        finally:
            selector.close()
            sock.close()
