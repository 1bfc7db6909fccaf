"""Zero-cost-when-idle monitoring taps with remote capture.

A tap sits after every pipeline stage.  Idle, it costs one integer check per
offer.  A capture request arms the tap; the owning worker then copies the
next N samples passing through into a bounded buffer, and the monitor server
returns them to the client.  Workers never block on monitor clients.

Wire protocol (TCP, addresses carried in the adverts):
* requests are single JSON lines: {"op": "ls"}, {"op": "sub"}, or
  {"op": "grab", "name": ..., "count": N}
* ``ls`` answers with one JSON line (the advert list); ``sub`` streams advert
  JSON lines periodically; ``grab`` answers with a 16-byte binary header
  (magic ``CSDR``, u16 dtype code, u16 flags, u64 count) followed by the raw
  samples (complex64 or float32, little-endian).
* any other request gets one ``{"error": ...}`` JSON line: one that is not
  a JSON object, an unknown ``op``, or a grab whose ``name`` is not a
  string, whose ``count`` is not an integer in [1, MAX_GRAB_COUNT], or
  whose ``timeout`` (default GRAB_TIMEOUT) is not a number in
  (0, MAX_GRAB_TIMEOUT].  A grab on a tap that is already capturing gets
  ``{"error": "tap busy"}``: a tap serves one capture at a time.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CaptureTimeout, TapBusy

MAGIC = b"CSDR"
DTYPE_CODES = {"complex64": 1, "float32": 2}
DTYPE_BY_CODE = {1: np.complex64, 2: np.float32}
ADVERT_PERIOD = 1.0
GRAB_TIMEOUT = 10.0  # seconds a grab waits when its request names no timeout
MAX_GRAB_COUNT = 1 << 22  # samples one grab may ask for (32 MB of complex64)
MAX_GRAB_TIMEOUT = 300.0  # seconds one grab may wait
SERVE_POLL = 0.05  # seconds between the serving loop's shutdown checks; bounds `close`


@dataclass(frozen=True)
class Advertisement:
    name: str
    dtype: str
    thread_id: int
    host_id: str
    address: tuple[str, int]
    period: float = ADVERT_PERIOD
    rate_hint: float = 0.0

    def to_json(self) -> str:
        d = asdict(self)
        d["address"] = list(self.address)
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "Advertisement":
        d = json.loads(text)
        d["address"] = tuple(d["address"])
        return cls(**d)


class MonitorTap:
    """Owned by one worker; samples pass through `offer`."""

    def __init__(self, name: str, dtype: str = "complex64"):
        self.name = name
        self.dtype = dtype
        self._want = 0  # samples still to capture; 0 = idle
        self._parts: list[np.ndarray] = []
        self._lock = threading.Lock()
        self._busy = False  # a capture is under way
        self._done = threading.Event()

    def offer(self, samples: np.ndarray) -> None:
        if self._want <= 0:  # idle fast path
            return
        with self._lock:
            take = min(self._want, len(samples))
            if take > 0:
                self._parts.append(np.array(samples[:take]))
                self._want -= take
            if self._want <= 0:
                self._done.set()

    def capture(self, count: int, timeout: float = 10.0) -> np.ndarray:
        """Arm the tap and wait for the next `count` samples; raises TapBusy
        at once while another capture is under way."""
        with self._lock:
            if self._busy:
                raise TapBusy(self.name)
            self._busy = True
            self._parts = []
            self._done.clear()
            self._want = int(count)
        done = self._done.wait(timeout)
        with self._lock:
            self._want, self._busy = 0, False
            parts, self._parts = self._parts, []
        if not done:
            raise CaptureTimeout(
                f"{self.name}: got {sum(len(p) for p in parts)} of {count} samples"
            )
        return np.concatenate(parts) if parts else np.zeros(0, DTYPE_BY_CODE[DTYPE_CODES[self.dtype]])


class TapSet:
    """One worker's taps, keyed by stage name."""

    def __init__(self, worker_name: str, registry: "MonitorServer | None" = None):
        self.worker_name = worker_name
        self.registry = registry
        self._taps: dict[str, MonitorTap] = {}

    def offer(self, stage: str, samples: np.ndarray) -> None:
        tap = self._taps.get(stage)
        if tap is None:
            tap = MonitorTap(f"{stage}@{self.worker_name}", _dtype_of(samples))
            self._taps[stage] = tap
            if self.registry is not None:
                self.registry.register(tap)
        tap.offer(samples)

    def taps(self) -> list[MonitorTap]:
        return list(self._taps.values())


def _dtype_of(samples: np.ndarray) -> str:
    return "float32" if np.asarray(samples).dtype.kind == "f" else "complex64"


class MonitorServer:
    """TCP endpoint serving ls/sub/grab plus the periodic advert publisher."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, period: float = ADVERT_PERIOD,
                 host_id: str | None = None):
        self.period = period
        self.host_id = host_id or socket.gethostname()
        self._taps: dict[str, MonitorTap] = {}
        self._tap_threads: dict[str, int] = {}
        self._lock = threading.Lock()
        self._subscribers: list[socket.socket] = []
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                line = self.rfile.readline()
                if not line:
                    return
                try:
                    req = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    self.wfile.write(b'{"error": "bad request"}\n')
                    return
                outer._handle(req, self)

        self._server = socketserver.ThreadingTCPServer((host, port), Handler, bind_and_activate=True)
        self._server.daemon_threads = True
        self.address: tuple[str, int] = self._server.server_address[:2]
        self._threads = [
            threading.Thread(
                target=self._server.serve_forever, args=(SERVE_POLL,), daemon=True
            ),
            threading.Thread(target=self._advert_loop, daemon=True),
        ]
        self._stop = threading.Event()
        for t in self._threads:
            t.start()

    def register(self, tap: MonitorTap) -> None:
        with self._lock:
            self._taps[tap.name] = tap
            self._tap_threads[tap.name] = threading.get_ident()

    def adverts(self) -> list[Advertisement]:
        with self._lock:
            return [
                Advertisement(
                    name=tap.name,
                    dtype=tap.dtype,
                    thread_id=self._tap_threads.get(tap.name, 0),
                    host_id=self.host_id,
                    address=self.address,
                    period=self.period,
                )
                for tap in self._taps.values()
            ]

    def _advert_loop(self) -> None:
        while not self._stop.wait(self.period):
            lines = [ad.to_json() + "\n" for ad in self.adverts()]
            dead = []
            with self._lock:
                subs = list(self._subscribers)
            for sub in subs:
                try:
                    for line in lines:
                        sub.sendall(line.encode())
                except OSError:
                    dead.append(sub)
            if dead:
                with self._lock:
                    for s in dead:
                        if s in self._subscribers:
                            self._subscribers.remove(s)

    def _handle(self, req, handler) -> None:
        refusal = _refusal(req)
        if refusal is not None:
            handler.wfile.write(json.dumps({"error": refusal}).encode() + b"\n")
            return
        op = req["op"]
        if op == "ls":
            payload = json.dumps([json.loads(a.to_json()) for a in self.adverts()])
            handler.wfile.write(payload.encode() + b"\n")
        elif op == "sub":
            with self._lock:
                self._subscribers.append(handler.connection)
            # keep the connection open until the client closes it
            try:
                while handler.rfile.readline():
                    pass
            except OSError:
                pass
        else:
            name = req.get("name", "")
            count = req["count"]
            timeout = float(req.get("timeout", GRAB_TIMEOUT))
            tap = self._taps.get(name)
            if tap is None:
                handler.wfile.write(MAGIC + np.array([0, 1], "<u2").tobytes() + np.array([0], "<u8").tobytes())
                return
            try:
                data = tap.capture(count, timeout)
                code = DTYPE_CODES[tap.dtype]
                header = MAGIC + np.array([code, 0], "<u2").tobytes() + np.array([len(data)], "<u8").tobytes()
                handler.wfile.write(header + data.astype(DTYPE_BY_CODE[code]).tobytes())
            except CaptureTimeout:
                handler.wfile.write(MAGIC + np.array([0, 2], "<u2").tobytes() + np.array([0], "<u8").tobytes())
            except TapBusy:
                handler.wfile.write(b'{"error": "tap busy"}\n')

    def close(self) -> None:
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()


def _refusal(req) -> str | None:
    """Why a decoded request is refused, or None when it is served."""
    if not isinstance(req, dict):
        return "request is not a JSON object"
    op = req.get("op")
    if op not in ("ls", "sub", "grab"):
        return "unknown op"
    if op != "grab":
        return None
    count, timeout = req.get("count"), req.get("timeout", GRAB_TIMEOUT)
    if not isinstance(req.get("name", ""), str):
        return "grab name is not a string"
    if type(count) is not int or not 1 <= count <= MAX_GRAB_COUNT:
        return f"grab count is not an integer in [1, {MAX_GRAB_COUNT}]"
    if type(timeout) not in (int, float) or not 0 < timeout <= MAX_GRAB_TIMEOUT:
        return f"grab timeout is not a number in (0, {MAX_GRAB_TIMEOUT:g}]"
    return None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    parts = []
    while n > 0:
        piece = sock.recv(min(n, 65536))
        if not piece:
            raise ConnectionError("connection closed")
        parts.append(piece)
        n -= len(piece)
    return b"".join(parts)


def monitor_ls(address: tuple[str, int], timeout: float = 5.0) -> list[Advertisement]:
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(b'{"op": "ls"}\n')
        data = sock.makefile("rb").readline()
    return [Advertisement.from_json(json.dumps(d)) for d in json.loads(data)]


def monitor_grab(
    address: tuple[str, int], name: str, count: int, timeout: float = 15.0
) -> np.ndarray:
    req = json.dumps({"op": "grab", "name": name, "count": count, "timeout": timeout})
    with socket.create_connection(address, timeout=timeout + 5.0) as sock:
        sock.sendall(req.encode() + b"\n")
        header = _recv_exact(sock, 16)
        if header[:1] == b"{":  # a refused request: one JSON error line
            reply = json.loads(header + sock.makefile("rb").readline())
            raise ValueError(f"grab refused: {reply['error']}")
        if header[:4] != MAGIC:
            raise ValueError("bad capture reply")
        code, flags = np.frombuffer(header, "<u2", 2, 4)
        (n,) = np.frombuffer(header, "<u8", 1, 8)
        if flags == 1:
            raise KeyError(f"no such tap {name!r}")
        if flags == 2:
            raise CaptureTimeout(name)
        dtype = DTYPE_BY_CODE[int(code)]
        raw = _recv_exact(sock, int(n) * dtype().itemsize)
    return np.frombuffer(raw, dtype)


def monitor_subscribe(address: tuple[str, int], duration: float) -> list[Advertisement]:
    """Collect adverts from a sub connection for `duration` seconds."""
    adverts: list[Advertisement] = []
    deadline = time.monotonic() + duration
    with socket.create_connection(address, timeout=duration + 2.0) as sock:
        sock.sendall(b'{"op": "sub"}\n')
        f = sock.makefile("rb")
        sock.settimeout(0.2)
        while time.monotonic() < deadline:
            try:
                line = f.readline()
            except (TimeoutError, socket.timeout):
                continue
            if not line:
                break
            adverts.append(Advertisement.from_json(line.decode()))
    return adverts
