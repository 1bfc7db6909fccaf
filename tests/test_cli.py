"""Command-line workflows."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chunksdr
import chunksdr.runtime as runtime
from chunksdr.cli import main
from chunksdr.combiner import encode_block
from chunksdr.e2e import run_e2e
from chunksdr.fec import DecodedBlock
from chunksdr.monitor import MAX_GRAB_COUNT, MonitorServer, MonitorTap
from chunksdr.runtime import ReceiverContext


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["e2e", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["channel", "-i", str(tmp_path / "nope.cf32"), "-o", str(tmp_path / "o.cf32")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["distribute", "-i", "{tx}"],
            ["monitor", "ls", "--addr", "localhost"],
            ["monitor", "grab", "x", "-o", "{out}", "--addr", "localhost:http"],
            ["bench", "--workers", "1,x"],
            ["bench", "--workers", "0"],
            ["txgen", "--frames", "0", "-o", "{out}"],
            ["txgen", "--frames", "-1", "-o", "{out}"],
            ["e2e", "--frames", "2", "--workers", "0"],
            ["demod", "-i", "{tx}", "-o", "{out}", "--workers", "0"],
            ["bench", "--chunks", "0"],
            ["bench", "--chunks", "-2"],
            ["distribute", "-i", "{tx}", "-o", "{out}", "--servers", "0"],
            ["bench", "--seconds", "nan"],
            ["bench", "--seconds", "0"],
            ["bench", "--seconds", "-1"],
            ["e2e", "--loss-rate", "nan"],
            ["e2e", "--loss-rate", "-0.1"],
            ["distribute", "-i", "{tx}", "-o", "{out}", "--loss-rate", "1.5"],
            ["monitor", "grab", "x", "-o", "{out}", "--addr", "localhost:1", "-n", "0"],
            ["monitor", "grab", "x", "-o", "{out}", "--addr", "localhost:1", "-n", "-3"],
            ["distribute", "-i", "{tx}", "-o", "{out}", "--full-scale", "0"],
            ["distribute", "-i", "{tx}", "-o", "{out}", "--full-scale", "-4"],
            ["distribute", "-i", "{tx}", "-o", "{out}", "--full-scale", "nan"],
            ["distribute", "-i", "{tx}", "-o", "{out}", "--full-scale", "inf"],
            ["demod", "-i", "{tx}", "-o", "{out}", "--full-scale", "0"],
            ["channel", "-i", "{tx}", "-o", "{out}", "--ppm", "nan"],
            ["channel", "-i", "{tx}", "-o", "{out}", "--esn0", "nan"],
            ["channel", "-i", "{tx}", "-o", "{out}", "--freq", "inf"],
            ["channel", "-i", "{tx}", "-o", "{out}", "--phase", "nan"],
            ["e2e", "--ppm", "-inf"],
            ["e2e", "--esn0", "nan"],
            ["e2e", "--freq", "inf"],
            ["e2e", "--monitor-port", "70000"],
            ["e2e", "--monitor-port", "-1"],
        ],
    )
    def test_bad_arguments_exit_2_with_usage(self, argv, tmp_path, capsys):
        tx = tmp_path / "tx.cf32"
        np.zeros(8, np.complex64).tofile(tx)
        argv = [a.format(tx=tx, out=tmp_path / "o.cf32") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chunksdr ") and "error:" in err

    def test_monitor_grab_unknown_tap_exits_1(self, tmp_path, capsys):
        server = MonitorServer()
        try:
            host, port = server.address
            rc = main(["monitor", "grab", "nope", "-o", str(tmp_path / "o.cf32"),
                       "--addr", f"{host}:{port}"])
        finally:
            server.close()
        assert rc == 1
        assert capsys.readouterr().err == "error: no such tap 'nope'\n"
        assert not (tmp_path / "o.cf32").exists()

    def test_monitor_grab_refused_exits_1(self, tmp_path, capsys):
        server = MonitorServer()
        try:
            server.register(MonitorTap("idle@w0"))
            host, port = server.address
            rc = main(["monitor", "grab", "idle@w0", "-n", str(MAX_GRAB_COUNT + 1),
                       "-o", str(tmp_path / "o.cf32"), "--addr", f"{host}:{port}"])
        finally:
            server.close()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grab refused: grab count is not an integer")
        assert not (tmp_path / "o.cf32").exists()

    @pytest.mark.parametrize("argv, n_bytes, message", [
        # 80000 bytes of cf32 zeros read as 13-byte empty block headers: 11 are left
        (["stitch", "{inp}", "-o", "{out}"], 80000, "truncated block header at byte 79989"),
        (["channel", "-i", "{inp}", "-o", "{out}"], 1001, "1001 bytes is not a whole number"),
        (["demod", "-i", "{inp}", "-o", "{out}"], 1001, "1001 bytes is not a whole number"),
    ], ids=["stitch", "channel", "demod"])
    def test_malformed_input_file_exits_1(self, argv, n_bytes, message, tmp_path, capsys):
        inp, out = tmp_path / "in.cf32", tmp_path / "out.bin"
        inp.write_bytes(bytes(n_bytes))
        rc = main([a.format(inp=inp, out=out) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


class TestFileChain:
    def test_chain_reproduces_in_process_e2e(self, tmp_path, capsys):
        """txgen -> channel -> demod -> stitch equals run_e2e bit for bit."""
        tx = tmp_path / "tx.cf32"
        rx = tmp_path / "rx.cf32"
        blocks = tmp_path / "blocks.bin"
        bits = tmp_path / "bits.bin"
        ctx = ReceiverContext.build("desk")
        n_scored = 16
        pad = ctx.plan.chunk.chunk_samples // ctx.plan.frame_samples + 2

        assert main(["txgen", "--profile", "desk", "--frames", str(n_scored + pad),
                     "--seed", "5", "-o", str(tx)]) == 0
        assert main(["channel", "-i", str(tx), "-o", str(rx), "--ppm", "10",
                     "--esn0", "12", "--seed", "6"]) == 0
        assert main(["demod", "--profile", "desk", "-i", str(rx), "-o", str(blocks)]) == 0
        assert main(["stitch", str(blocks), "-o", str(bits), "--profile", "desk"]) == 0

        reference = run_e2e(ctx, frames=n_scored, esn0_db=12.0, ppm=10.0, seed=5)
        # the file chain's channel seed is independent; compare recovered info
        # bits against the generator ground truth instead
        from chunksdr.modem import generate_stream

        stream = generate_stream(ctx.plan.profile, ctx.codec, n_scored + pad, seed=5)
        got = np.unpackbits(np.fromfile(bits, np.uint8))
        want = stream.info_bits.reshape(-1)
        n = min(got.size, want.size)
        assert n >= n_scored * ctx.codec.k
        np.testing.assert_array_equal(got[: n_scored * ctx.codec.k],
                                      want[: n_scored * ctx.codec.k])
        assert reference.ber == 0.0

    def test_distribute_wire_file(self, tmp_path):
        tx = tmp_path / "tx.cf32"
        pkts = tmp_path / "pkts.bin"
        assert main(["txgen", "--profile", "desk", "--frames", "10", "-o", str(tx)]) == 0
        assert main(["distribute", "--profile", "desk", "-i", str(tx), "-o", str(pkts),
                     "--servers", "2"]) == 0
        from chunksdr.distributor import Packet
        from chunksdr.numerology import load_numerology

        plan = load_numerology("desk", servers=2)
        unit = 8 + plan.packet.packet_payload_bytes
        data = pkts.read_bytes()
        assert len(data) % unit == 0
        numbers = [
            Packet.from_wire(data[i : i + unit]).packet_number
            for i in range(0, len(data), unit)
        ]
        assert numbers == list(range(10 * 1680 // 224))

    def test_distribute_loss_rate(self, tmp_path):
        tx = tmp_path / "tx.cf32"
        pkts = tmp_path / "pkts.bin"
        assert main(["txgen", "--profile", "desk", "--frames", "10", "-o", str(tx)]) == 0
        assert main(["distribute", "--profile", "desk", "-i", str(tx), "-o", str(pkts),
                     "--loss-rate", "0.5", "--seed", "3"]) == 0
        from chunksdr.numerology import load_numerology

        plan = load_numerology("desk")
        unit = 8 + plan.packet.packet_payload_bytes
        n = len(pkts.read_bytes()) // unit
        assert 10 < n < 65

    def test_sc8_quantization_path(self, tmp_path):
        assert main(["txgen", "--profile", "desk", "--frames", "5", "-o",
                     str(tmp_path / "t.cf32")]) == 0
        from chunksdr import iqfile

        x = iqfile.read_cf32(tmp_path / "t.cf32")
        iqfile.quantize_int8(x, full_scale=4.0).tofile(tmp_path / "t.sc8")
        back = iqfile.dequantize_int8(np.fromfile(tmp_path / "t.sc8", np.int8), full_scale=4.0)
        assert np.max(np.abs(back - x)) <= 4.0 * np.sqrt(2) / 254 + 1e-9


class TestJsonOutputs:
    def test_e2e_json(self, capsys):
        rc = main(["e2e", "--profile", "desk", "--frames", "8", "--esn0", "15",
                   "--workers", "1", "--seed", "2", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ber"] == 0.0
        assert out["frames_recovered"] >= 7

    def test_e2e_json_counts_partial_chunks(self, capsys):
        """A lossy run hands chunks out partial and counts what they lost.
        At 10% loss the draw loses packets 310..312, three adjacent inside
        frame 41's payload: more erased symbols than the code recovers."""
        rc = main(["e2e", "--profile", "desk", "--frames", "40", "--servers", "2",
                   "--loss-rate", "0.1", "--workers", "1", "--seed", "3", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["chunks_dropped"] == 0
        assert 0 < out["chunks_partial"] <= out["packets_missing"]
        assert out["words_lost_to_erasures"] > 0
        assert out["ber"] == 0.0

    def test_demod_stats_line_counts_assembly(self, tmp_path, capsys):
        tx = tmp_path / "tx.cf32"
        assert main(["txgen", "--profile", "desk", "--frames", "24", "-o", str(tx)]) == 0
        assert main(["demod", "--profile", "desk", "-i", str(tx),
                     "-o", str(tmp_path / "b.bin")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("demodulated ")
        assert line.endswith(
            "dropped_chunks=0 partial_chunks=0 missing_packets=0 words_lost_to_erasures=0"
        )

    def test_bench_json_and_files(self, tmp_path, capsys):
        argv = ["bench", "--profile", "desk", "--workers", "1", "--chunks", "2", "--out"]
        assert main(argv + [str(tmp_path / "r.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["thread", "workers=1"],
                                                        ["process", "workers=1"]]
        report = json.loads((tmp_path / "r.json").read_text())
        assert [r["workers"] for r in report["rows"]] == [1, 1]
        assert main(argv + ["-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"machine", "corpus", "rows"}
        assert [r["backend"] for r in report["rows"]] == ["thread", "process"]


def _fields(line: str) -> dict:
    """The `name=value` fields after the `; ` of a `demod` line."""
    return dict(field.split("=", 1) for field in line.split("; ", 1)[1].split())


class TestRunReport:
    """Every counter of a run reaches the output, and a chunk that raised
    fails the run once its output is written."""

    @pytest.fixture()
    def second_chunk_raises(self, monkeypatch):
        process = runtime.process_chunk
        second = ReceiverContext.build("desk").plan.chunk.advance_samples

        def raising_process(chunk, *args, **kwargs):
            if chunk.first_sample_number == second:
                raise RuntimeError("injected")
            return process(chunk, *args, **kwargs)

        monkeypatch.setattr(runtime, "process_chunk", raising_process)

    def test_e2e_json_reports_chunk_error(self, second_chunk_raises, capsys):
        rc = main(["e2e", "--profile", "desk", "--frames", "24", "--workers", "1", "--json"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert out["chunk_errors"] == 1
        assert out["chunk_error_types"] == {"RuntimeError": 1}
        assert out["chunks_in"] == 2 and out["chunks_ok"] == 1
        assert 0 < out["frames_recovered"] < 24

    def test_demod_reports_chunk_error(self, second_chunk_raises, tmp_path, capsys):
        tx, blocks = tmp_path / "tx.cf32", tmp_path / "b.bin"
        assert main(["txgen", "--profile", "desk", "--frames", "44", "-o", str(tx)]) == 0
        rc = main(["demod", "--profile", "desk", "-i", str(tx), "-o", str(blocks)])
        assert rc == 1
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("demodulated 2 chunks -> 18 blocks (0 failed)")
        fields = _fields(line)
        assert (fields["chunk_errors"], fields["chunk_error_types"]) == ("1", '{"RuntimeError":1}')
        assert blocks.stat().st_size > 0

    @pytest.mark.parametrize("full_scale, clipped", [("0.25", 39337), ("4.0", 0)])
    def test_demod_reports_clipping(self, full_scale, clipped, tmp_path, capsys):
        """At full scale 0.25 a 12 dB desk capture clips most of its samples."""
        tx, rx = tmp_path / "tx.cf32", tmp_path / "rx.cf32"
        assert main(["txgen", "--profile", "desk", "--frames", "24", "-o", str(tx)]) == 0
        assert main(["channel", "-i", str(tx), "-o", str(rx), "--esn0", "12"]) == 0
        assert main(["demod", "--profile", "desk", "-i", str(rx), "-o", str(tmp_path / "b.bin"),
                     "--full-scale", full_scale]) == 0
        fields = _fields(capsys.readouterr().out.strip().splitlines()[-1])
        assert (int(fields["clipped"]), int(fields["residual_samples"])) == (clipped, 0)

    @pytest.mark.parametrize("full_scale, clipped", [("0.25", 39337), ("4.0", 0)])
    def test_distribute_reports_clipping(self, full_scale, clipped, tmp_path, capsys):
        """`distribute` prints the clip count that `demod` reports on the same capture."""
        tx, rx = tmp_path / "tx.cf32", tmp_path / "rx.cf32"
        assert main(["txgen", "--profile", "desk", "--frames", "24", "-o", str(tx)]) == 0
        assert main(["channel", "-i", str(tx), "-o", str(rx), "--esn0", "12"]) == 0
        capsys.readouterr()
        assert main(["distribute", "--profile", "desk", "-i", str(rx), "-o", str(tmp_path / "p.bin"),
                     "--full-scale", full_scale]) == 0
        wrote, report = capsys.readouterr().out.splitlines()
        assert wrote.startswith("wrote 180/180 packets to ")
        assert report == f"residual_samples=0 clipped={clipped}"

    def test_stitch_logs_conflicts(self, tmp_path, capsys):
        """Two block files holding one key with different bits: one
        duplicate, which is also a conflict; the first file's block is kept."""
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, bit in zip(paths, (0, 1)):
            path.write_bytes(encode_block(DecodedBlock(0, np.full(8, bit, np.uint8))))
        bits = tmp_path / "bits.bin"
        assert main(["stitch", *map(str, paths), "-o", str(bits)]) == 0
        log = json.loads(capsys.readouterr().err)
        assert (log["emitted"], log["duplicates"], log["conflicts"]) == (1, 1, 1)
        assert bits.read_bytes() == bytes(1)


class TestEntrypoint:
    def test_module_invocation(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(chunksdr.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "chunksdr.cli", "--help"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "txgen" in proc.stdout
