"""Command-line front end.

Subcommands compose via files: `txgen | channel | demod | stitch` over cf32
and block-message files reproduces the in-process `e2e` loop bit-exactly.
Exit codes: 0 success; 1 runtime failure (one-line diagnostic), or an `e2e`
or `demod` run in which a chunk raised, once its output and report are
written; 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import iqfile
from .channel import ChannelConfig, apply as chan_apply
from .combiner import ReorderBuffer, decode_block_stream, encode_block
from .distributor import UdpMulticastTransport, lose_packets, packetize, receive_chunks
from .e2e import DEFAULT_FULL_SCALE, run_e2e
from .errors import ChunkSdrError
from .monitor import MonitorServer, monitor_grab, monitor_ls
from .numerology import load_numerology
from .runtime import ReceiverContext, RunStats, bench, default_workers, run_pipeline
from .modem import generate_stream


def _report_fields(report: dict) -> str:
    """A run report as the text lines print it: `name=value` fields, values in
    compact JSON, the loss counters last under their text names."""
    loss = {"chunks_dropped": "dropped_chunks", "chunks_partial": "partial_chunks",
            "packets_missing": "missing_packets", "words_lost_to_erasures": "words_lost_to_erasures"}
    named = [(k, v) for k, v in report.items() if k not in loss] + [(loss[k], report[k]) for k in loss]
    return " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in named)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"{text!r} is not host:port")
    return host or "127.0.0.1", int(port)


def _parse_port(text: str) -> int:
    if not (text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"{text!r} is not a port in [0, 65535]")
    return int(text)


def _parse_count(text: str) -> int:
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive count")
    return int(text)


def _parse_workers(text: str) -> list[int]:
    return [_parse_count(c) for c in text.split(",")]


def _parse_positive(text: str) -> float:
    if not 0 < float(text) < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return float(text)


def _parse_finite(text: str) -> float:
    if not -float("inf") < float(text) < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return float(text)


def _parse_probability(text: str) -> float:
    if not 0 <= float(text) <= 1:  # also rejects nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a probability in [0, 1]")
    return float(text)


def cmd_txgen(args) -> int:
    ctx = ReceiverContext.build(args.profile)
    stream = generate_stream(ctx.plan.profile, ctx.codec, args.frames, seed=args.seed)
    iqfile.write_cf32(args.output, stream.samples)
    if args.bits_out:
        np.packbits(stream.info_bits.reshape(-1)).tofile(args.bits_out)
    print(f"wrote {stream.samples.size} samples ({args.frames} frames) to {args.output}")
    return 0


def cmd_channel(args) -> int:
    samples = iqfile.read_cf32(args.input)
    cfg = ChannelConfig(
        clock_offset_ppm=args.ppm,
        carrier_freq_offset=args.freq,
        initial_phase=args.phase,
        esn0_db=args.esn0,
        seed=args.seed,
    )
    out = chan_apply(samples, cfg)
    iqfile.write_cf32(args.output, out)
    print(f"impaired {samples.size} -> {out.size} samples to {args.output}")
    return 0


def cmd_distribute(args) -> int:
    plan = load_numerology(args.profile, servers=args.servers)
    samples = iqfile.read_cf32(args.input)
    packed = packetize(samples, plan, full_scale=args.full_scale)
    if args.udp:
        transport = UdpMulticastTransport(plan)
        send, close, dest = transport.send, transport.close, "over UDP multicast"
    else:
        out = open(args.output, "wb")
        send, close, dest = (lambda pkt: out.write(pkt.to_wire())), out.close, f"to {args.output}"
    kept = lose_packets(packed.packets, args.loss_rate, args.seed)
    try:
        for pkt in kept:
            send(pkt)
    finally:
        close()
    print(f"{'sent' if args.udp else 'wrote'} {len(kept)}/{len(packed.packets)} packets {dest}")
    if packed.residual_samples:
        print(f"residual {packed.residual_samples} samples not packetized")
    return 0


def cmd_demod(args) -> int:
    ctx = ReceiverContext.build(args.profile, servers=args.servers)
    samples = iqfile.read_cf32(args.input)
    chunks, assembly = receive_chunks(samples, ctx.plan, args.full_scale)
    result = run_pipeline(chunks, ctx, workers=args.workers)
    with open(args.output, "wb") as f:
        for block in result.blocks:
            f.write(encode_block(block))
    stats = result.stats
    stats.assembly = assembly
    print(
        f"demodulated {stats.chunks_in} chunks -> {stats.frames_out} blocks "
        f"({stats.decode_failures} failed) to {args.output}; {_report_fields(stats.report())}"
    )
    return 1 if stats.chunk_errors else 0


def cmd_stitch(args) -> int:
    spacing = load_numerology(args.profile).frame_samples
    blocks = []
    for path in args.inputs:
        with open(path, "rb") as f:
            blocks.extend(decode_block_stream(f.read()))
    # offline inputs merge by key; the buffer still dedups and logs gaps
    blocks.sort(key=lambda b: b.start_sample_number)
    buffer = ReorderBuffer(block_spacing=spacing)
    emitted = []
    for block in blocks:
        emitted.extend(buffer.submit(block))
    emitted.extend(buffer.flush())
    bits = np.concatenate([b.info_bits for b in emitted]) if emitted else np.zeros(0, np.uint8)
    out = sys.stdout.buffer if args.output == "-" else open(args.output, "wb")
    np.packbits(bits).tofile(out)
    if out is not sys.stdout.buffer:
        out.close()
    failed = sum(b.failed for b in emitted)
    stats = RunStats(frames_out=len(emitted), decode_failures=failed, combiner=buffer.stats)
    print(json.dumps(stats.report()), file=sys.stderr)
    return 0


def cmd_e2e(args) -> int:
    ctx = ReceiverContext.build(args.profile, servers=args.servers)
    monitor = None
    taps_factory = None
    if args.monitor_port is not None:
        monitor = MonitorServer(port=args.monitor_port)
        from .monitor import TapSet

        taps_factory = lambda name: TapSet(name, registry=monitor)
        print(f"monitor on {monitor.address[0]}:{monitor.address[1]}", file=sys.stderr)
    result = run_e2e(
        ctx,
        frames=args.frames,
        esn0_db=args.esn0,
        ppm=args.ppm,
        freq_per_symbol=args.freq,
        workers=args.workers,
        seed=args.seed,
        loss_rate=args.loss_rate,
        taps_factory=taps_factory,
    )
    if monitor is not None:
        monitor.close()
    s = result.summary()
    if args.json:
        print(json.dumps(s))
    else:
        print(
            f"BER={s['ber']:.3g} frames={s['frames_recovered']}/{s['frames']} "
            f"{_report_fields(result.stats.report())} in {s['seconds']}s"
        )
    return 1 if result.stats.chunk_errors or not result.bits_compared else 0


def cmd_bench(args) -> int:
    ctx = ReceiverContext.build(args.profile)
    report = bench(ctx, args.workers, n_chunks=args.chunks, seed=args.seed, seconds=args.seconds)
    if args.out == "-":
        print(report.to_json())
        return 0
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json() + "\n")
    for row in report.rows:
        c, q = row["chunk_ms"], row["pass_samples_per_second"]
        print(
            f"{row['backend']} workers={row['workers']} passes={row['passes']} "
            f"throughput={row['input_samples_per_second']/1e6:.2f} Msps "
            f"(passes {q['p25']/1e6:.2f}-{q['p75']/1e6:.2f}) "
            f"chunk_ms={c['mean']:.1f} (p90 {c['p90']:.1f}, max {c['max']:.1f}) "
            + " ".join(f"{stage}={ms:.1f}" for stage, ms in row["stage_ms"].items())
        )
    return 0


def cmd_monitor(args) -> int:
    if args.monitor_cmd == "ls":
        for ad in monitor_ls(args.addr):
            print(f"{ad.name}\t{ad.dtype}\thost={ad.host_id}\tthread={ad.thread_id}")
        return 0
    try:
        data = monitor_grab(args.addr, args.name, args.count)
    except KeyError:
        print(f"error: no such tap {args.name!r}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if data.dtype == np.complex64:
        iqfile.write_cf32(args.output, data)
    else:
        data.astype("<f4").tofile(args.output)
    print(f"captured {data.size} samples to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chunksdr", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, profile=True):
        if profile:
            sp.add_argument("--profile", default="desk", help="profile name or path")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("txgen", help="synthesize a framed waveform")
    common(sp)
    sp.add_argument("--frames", type=_parse_count, default=64)
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--bits-out", help="also write the packed payload bits")
    sp.set_defaults(func=cmd_txgen)

    sp = sub.add_parser("channel", help="apply channel impairments to an IQ file")
    common(sp, profile=False)
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--ppm", type=_parse_finite, default=0.0, help="clock offset, ppm")
    sp.add_argument("--freq", type=_parse_finite, default=0.0, help="carrier offset, cycles/sample")
    sp.add_argument("--phase", type=_parse_finite, default=0.0, help="initial phase, radians")
    sp.add_argument("--esn0", type=_parse_finite, default=None,
                    help="Es/N0 in dB (omit: noiseless)")
    sp.set_defaults(func=cmd_channel)

    sp = sub.add_parser("distribute", help="packetize and distribute an IQ file")
    common(sp)
    sp.add_argument("-i", "--input", required=True)
    dest = sp.add_mutually_exclusive_group(required=True)
    dest.add_argument("-o", "--output", help="packet wire-format output file")
    dest.add_argument("--udp", action="store_true", help="send over UDP multicast instead")
    sp.add_argument("--servers", type=_parse_count, default=1)
    sp.add_argument("--loss-rate", type=_parse_probability, default=0.0)
    sp.add_argument("--full-scale", type=_parse_positive, default=DEFAULT_FULL_SCALE)
    sp.set_defaults(func=cmd_distribute)

    sp = sub.add_parser("demod", help="demodulate an IQ file into decoded blocks")
    common(sp)
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", required=True, help="block-message output file")
    sp.add_argument("--servers", type=_parse_count, default=1)
    sp.add_argument("--workers", type=_parse_count, default=1)
    sp.add_argument("--full-scale", type=_parse_positive, default=DEFAULT_FULL_SCALE)
    sp.set_defaults(func=cmd_demod)

    sp = sub.add_parser("stitch", help="reorder decoded-block files into a bitstream")
    sp.add_argument("inputs", nargs="+", help="block-message files")
    sp.add_argument("-o", "--output", required=True, help="output file or - for stdout")
    sp.add_argument("--profile", default="desk",
                    help="profile name or path; its frame length is the block spacing")
    sp.set_defaults(func=cmd_stitch)

    sp = sub.add_parser("e2e", help="full tx -> channel -> distribute -> demod -> stitch loop")
    common(sp)
    sp.add_argument("--frames", type=_parse_count, default=64)
    sp.add_argument("--esn0", type=_parse_finite, default=12.0)
    sp.add_argument("--ppm", type=_parse_finite, default=0.0)
    sp.add_argument("--freq", type=_parse_finite, default=0.0, help="carrier offset, cycles/SYMBOL")
    sp.add_argument("--workers", type=_parse_count, default=default_workers())
    sp.add_argument("--servers", type=_parse_count, default=1)
    sp.add_argument("--loss-rate", type=_parse_probability, default=0.0)
    sp.add_argument("--monitor-port", type=_parse_port, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_e2e)

    sp = sub.add_parser("bench", help="per-stage sweep over both backends and worker counts")
    common(sp)
    sp.add_argument("--workers", type=_parse_workers, default="1,2,4")
    sp.add_argument("--chunks", type=_parse_count, default=8, help="corpus size (chunks)")
    sp.add_argument("--seconds", type=_parse_positive, default=None,
                    help="cycle the corpus for this long per backend and worker count")
    sp.add_argument("--out", help="JSON report path, or - for stdout")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("monitor", help="query a running monitor endpoint")
    msub = sp.add_subparsers(dest="monitor_cmd", required=True)
    mls = msub.add_parser("ls")
    mls.add_argument("--addr", type=_parse_addr, required=True, help="host:port from the advert")
    mls.set_defaults(func=cmd_monitor)
    mgrab = msub.add_parser("grab")
    mgrab.add_argument("name")
    mgrab.add_argument("-n", "--count", type=_parse_count, default=4096)
    mgrab.add_argument("-o", "--output", required=True)
    mgrab.add_argument("--addr", type=_parse_addr, required=True)
    mgrab.set_defaults(func=cmd_monitor)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChunkSdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
