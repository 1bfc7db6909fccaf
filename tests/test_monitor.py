"""Monitor taps: adverts, remote capture, idle cost."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from chunksdr.errors import CaptureTimeout
from chunksdr.monitor import (
    Advertisement,
    MonitorServer,
    MonitorTap,
    TapSet,
    monitor_grab,
    monitor_ls,
)


@pytest.fixture()
def server():
    srv = MonitorServer()
    yield srv
    srv.close()


class TestAdvertisement:
    def test_json_roundtrip(self):
        ad = Advertisement(
            name="phase@w0",
            dtype="complex64",
            thread_id=123,
            host_id="desk",
            address=("127.0.0.1", 5555),
        )
        back = Advertisement.from_json(ad.to_json())
        assert back == ad

    def test_distinct_names_per_thread(self, server):
        taps = TapSet("w0", registry=server)
        taps.offer("timing", np.zeros(4, np.complex64))
        taps.offer("phase", np.zeros(4, np.complex64))
        names = {ad.name for ad in server.adverts()}
        assert names == {"timing@w0", "phase@w0"}

    def test_ls_over_tcp(self, server):
        server.register(MonitorTap("resampler@w1"))
        ads = monitor_ls(server.address)
        assert [ad.name for ad in ads] == ["resampler@w1"]
        assert ads[0].address == server.address

    def test_close_returns_promptly(self):
        """`close` waits for at most one poll of the serving loop."""
        srv = MonitorServer()
        monitor_ls(srv.address)  # the serving loop is running
        t0 = time.perf_counter()
        srv.close()
        assert time.perf_counter() - t0 < 0.25


class TestCapture:
    def test_capture_next_samples(self, server):
        tap = MonitorTap("slicer@w0")
        server.register(tap)
        stop = threading.Event()

        def feeder():
            rng = np.random.default_rng(0)
            while not stop.is_set():
                points = np.exp(1j * np.pi / 4 * rng.integers(0, 8, 256)).astype(np.complex64)
                tap.offer(points)
                time.sleep(0.002)

        t = threading.Thread(target=feeder)
        t.start()
        try:
            data = monitor_grab(server.address, "slicer@w0", 1024)
        finally:
            stop.set()
            t.join()
        assert data.size == 1024
        angles = np.angle(data) * 4 / np.pi
        np.testing.assert_allclose(angles, np.round(angles), atol=1e-3)

    def test_idle_copies_nothing(self):
        tap = MonitorTap("idle@w0")
        for _ in range(100):
            tap.offer(np.ones(1000, np.complex64))
        assert tap._parts == [] and tap._want == 0

    def test_concurrent_captures_independent(self, server):
        tap_a = MonitorTap("a@w0")
        tap_b = MonitorTap("b@w1")
        server.register(tap_a)
        server.register(tap_b)
        stop = threading.Event()

        def feeder():
            while not stop.is_set():
                tap_a.offer(np.full(128, 1 + 0j, np.complex64))
                tap_b.offer(np.full(128, 0 + 1j, np.complex64))
                time.sleep(0.001)

        t = threading.Thread(target=feeder)
        t.start()
        results = {}

        def grab(name):
            results[name] = monitor_grab(server.address, name, 512)

        ga = threading.Thread(target=grab, args=("a@w0",))
        gb = threading.Thread(target=grab, args=("b@w1",))
        ga.start(), gb.start()
        ga.join(), gb.join()
        stop.set()
        t.join()
        assert results["a@w0"].size == 512 and np.all(results["a@w0"] == 1)
        assert results["b@w1"].size == 512 and np.all(results["b@w1"] == 1j)

    def test_second_grab_on_busy_tap_refused(self, server, tmp_path, capsys):
        """A grab on a tap that is already capturing is refused at once, and
        `monitor grab` exits 1; the first grab still gets its full count."""
        from chunksdr.cli import main

        tap = MonitorTap("busy@w0")
        server.register(tap)
        first = []
        grab = threading.Thread(
            target=lambda: first.append(monitor_grab(server.address, "busy@w0", 100))
        )
        grab.start()
        deadline = time.monotonic() + 5.0
        while tap._want == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        t0 = time.perf_counter()
        rc = main(["monitor", "grab", "busy@w0", "-n", "50", "-o", str(tmp_path / "o.cf32"),
                   "--addr", f"{server.address[0]}:{server.address[1]}"])
        refused_in = time.perf_counter() - t0
        tap.offer(np.arange(100, dtype=np.complex64))
        grab.join(timeout=10.0)
        assert rc == 1 and refused_in < 2.0
        assert capsys.readouterr().err == "error: grab refused: tap busy\n"
        assert first[0].size == 100
        np.testing.assert_array_equal(first[0].real, np.arange(100))

    def test_timeout_when_stream_stalls(self, server):
        tap = MonitorTap("stalled@w0")
        server.register(tap)
        with pytest.raises(CaptureTimeout):
            monitor_grab(server.address, "stalled@w0", 100, timeout=0.2)

    def test_unknown_tap(self, server):
        with pytest.raises(KeyError):
            monitor_grab(server.address, "nope", 10, timeout=0.2)

    def test_monitor_cli_ls_and_grab(self, server, tmp_path, capsys):
        from chunksdr.cli import main

        tap = MonitorTap("cli@w0")
        server.register(tap)
        addr = f"{server.address[0]}:{server.address[1]}"
        assert main(["monitor", "ls", "--addr", addr]) == 0
        assert "cli@w0" in capsys.readouterr().out

        stop = threading.Event()

        def feeder():
            while not stop.is_set():
                tap.offer(np.full(256, 0.5 + 0.5j, np.complex64))
                time.sleep(0.001)

        t = threading.Thread(target=feeder)
        t.start()
        out = tmp_path / "grab.cf32"
        try:
            rc = main(["monitor", "grab", "cli@w0", "-n", "300", "-o", str(out),
                       "--addr", addr])
        finally:
            stop.set()
            t.join()
        assert rc == 0
        data = np.fromfile(out, dtype="<c8")
        assert data.size == 300
        assert np.all(data == np.complex64(0.5 + 0.5j))

    def test_contiguous_capture(self, server):
        """Captured samples are a contiguous slice of the offered stream."""
        tap = MonitorTap("contig@w0")
        server.register(tap)
        counter = np.arange(10_000, dtype=np.float32).astype(np.complex64)
        done = threading.Event()

        def feeder():
            for i in range(0, 10_000, 100):
                tap.offer(counter[i : i + 100])
                time.sleep(0.001)
            done.set()

        t = threading.Thread(target=feeder)
        t.start()
        data = monitor_grab(server.address, "contig@w0", 1500)
        t.join()
        first = int(data[0].real)
        np.testing.assert_array_equal(data.real, np.arange(first, first + 1500))


class TestBadRequests:
    """A request the server cannot serve gets one `{"error": ...}` line at
    once, and the server keeps serving."""

    @staticmethod
    def _reply(server, line: bytes) -> bytes:
        with socket.create_connection(server.address, timeout=2.0) as sock:
            sock.sendall(line + b"\n")
            return sock.makefile("rb").readline()

    @pytest.mark.parametrize(
        "line",
        [
            b"[1, 2]",
            b'"ls"',
            b'{"op": "grab", "name": "idle@w0", "count": "abc"}',
            b'{"op": "grab", "name": "idle@w0", "count": -5, "timeout": 5}',
            b'{"op": "grab", "name": "idle@w0", "count": 10, "timeout": NaN}',
            b'{"op": "grab", "name": "idle@w0", "count": 10, "timeout": Infinity}',
            b'{"op": "grab", "name": ["idle@w0"], "count": 10}',
            b"\xff{}",
            b'{"op": "sub"}',
        ],
        ids=[
            "list", "string", "count-abc", "count-negative", "timeout-nan",
            "timeout-infinity", "name-list", "not-utf8", "sub",
        ],
    )
    def test_error_reply(self, server, line):
        server.register(MonitorTap("idle@w0"))
        reply = self._reply(server, line)
        assert reply.endswith(b"\n") and set(json.loads(reply)) == {"error"}
        assert [ad.name for ad in monitor_ls(server.address)] == ["idle@w0"]
