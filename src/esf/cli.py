"""Single entry point exposing every workflow as a subcommand.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 network error.
Diagnostics go to stderr; data goes to stdout or to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import socket
import sys
import tempfile

import numpy as np

from . import config as cfgmod
from . import dsp
from .errors import (ConfigurationError, CorruptionError, DeliveryError,
                     EsfError, FormatError, LaunchError, TruncationError)
from .wire import DEFAULT_MAX_CREDITS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NETWORK = 3

# Shorthand flags, per command: argparse dest -> the config field it sets
# when given, after the config file and --set.
_SERVER_FLAGS = {"pipelines": "server.num_pipelines", "epochs": "server.epochs",
                 "seed": "pipeline.seed"}
SHORTHANDS = {
    "serve": _SERVER_FLAGS,
    "launch": _SERVER_FLAGS,
    "bench": {**{dest: f"bench.{dest}" for dest in
                 ("servers", "consumers", "step_cost", "repeats", "utterances")},
              "seed": "pipeline.seed"},
    "decode": {"lambda_p": "fusion.lambda_prior", "lambda_lm": "fusion.lambda_lm",
               "beam": "fusion.beam_size", "max_len": "fusion.max_len"},
}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def build_parser() -> Parser:
    parser = Parser(prog="esf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", help="config JSON (default $ESF_CONFIG)")
    configured.add_argument("--set", dest="overrides", action="append", default=[],
                            metavar="SECTION.KEY=VALUE", help="override any config field")

    p = sub.add_parser("shard", help="pack a wav+transcript manifest into shards")
    p.add_argument("--in", dest="manifest", required=True,
                   help="TSV manifest: wav_path<TAB>transcript per line")
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="shard path pattern containing {shard}, e.g. out-{shard:04d}.esrd")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser("inspect", help="print the records of one shard")
    p.add_argument("shard")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("augment", help="apply VTLP and/or acoustic simulation to a wav")
    p.add_argument("--vtlp-alpha", help="warp factor or min:max range")
    p.add_argument("--room", help="fixed room dims LxWxH in meters")
    p.add_argument("--t60", type=float, help="fixed reverberation time in seconds")
    p.add_argument("--snr", type=float, help="fixed noise SNR in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("features", help="dump features of a wav as CSV, one frame per row")
    p.add_argument("--kind", choices=["power_mel", "mfcc"], default="power_mel")
    p.add_argument("--num-filters", type=int, default=dsp.DEFAULT_NUM_FILTERS)
    p.add_argument("--num-ceps", type=int, default=dsp.DEFAULT_NUM_CEPS)
    p.add_argument("input")
    p.add_argument("output", nargs="?", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("pipeline-dryrun", parents=[configured],
                       help="run the pipeline, print batch shapes and a stream checksum")
    p.add_argument("--epochs", type=int, default=1)
    p.set_defaults(func=cmd_dryrun)

    p = sub.add_parser("serve", parents=[configured], help="serve batches to consumers")
    p.add_argument("--bind", type=host_port, help="host:port (overrides config)")
    p.add_argument("--pipelines", type=int, help="number of pipeline slots")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("launch", parents=[configured],
                       help="spawn several server processes")
    p.add_argument("--servers", type=int, required=True)
    p.add_argument("--pipelines", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_launch)

    p = sub.add_parser("consume", help="consume one epoch from a server")
    p.add_argument("--addr", type=host_port, required=True, help="host:port")
    p.add_argument("--step-cost", type=non_negative_float, default=0.0,
                   help="simulated seconds of compute per batch")
    p.add_argument("--max-credits", type=positive_int, default=DEFAULT_MAX_CREDITS)
    p.set_defaults(func=cmd_consume)

    p = sub.add_parser("bench", parents=[configured],
                       help="servers-vs-consumers throughput study (CSV)")
    p.add_argument("--servers", type=server_counts,
                   help="server counts, e.g. 1..5 or 1,2,4")
    p.add_argument("--consumers", type=int)
    p.add_argument("--step-cost", type=non_negative_float)
    p.add_argument("--repeats", type=int)
    p.add_argument("--utterances", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "decode", help="shallow-fusion beam search over toy scorers",
        description="Shallow-fusion beam search over toy scorers. decode takes no "
        "--config or --set, but it reads the config file named by $ESF_CONFIG, "
        "when that is set: the fusion keys lambda_prior, lambda_lm, beam_size "
        "and max_len give the defaults of --lambda-p, --lambda-lm, --beam and "
        "--max-len, and an unknown section or key in that file is an error.")
    p.add_argument("--am", help="table acoustic scorer JSON")
    p.add_argument("--lm", help="bigram language model JSON")
    p.add_argument("--prior", help="prior JSON (list of log-probs); default uniform")
    p.add_argument("--lambda-p", type=float)
    p.add_argument("--lambda-lm", type=float)
    p.add_argument("--beam", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--demo", action="store_true",
                   help="run a small built-in toy instance instead of files")
    p.set_defaults(func=cmd_decode)

    return parser


def config_from_args(args) -> dict:
    """Defaults, BENCH_BASE (bench only), --config or $ESF_CONFIG, --set, flags."""
    cfg = cfgmod.load_config(getattr(args, "config", None),
                             getattr(args, "overrides", None),
                             cfgmod.BENCH_BASE if args.command == "bench" else None)
    for dest, field in SHORTHANDS.get(args.command, {}).items():
        section, _, key = field.partition(".")
        if getattr(args, dest) is not None:
            cfg[section][key] = getattr(args, dest)
    return cfg


def cmd_shard(args) -> int:
    from .recordio import UtteranceRecord, write_shards

    records = []
    with open(args.manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            wav_path, _, transcript = line.partition("\t")
            w = dsp.read_wav(wav_path)
            records.append(UtteranceRecord.from_float(
                wav_path.rsplit("/", 1)[-1].removesuffix(".wav"),
                w.sample_rate, w.samples, transcript))
    shard_set = write_shards(records, args.shards, args.out)
    for path in shard_set.shard_paths:
        print(path)
    print(f"wrote {len(records)} records into {args.shards} shards", file=sys.stderr)
    return EXIT_OK


def cmd_inspect(args) -> int:
    from .recordio import read_shard

    for i, rec in enumerate(read_shard(args.shard)):
        meta = " ".join(f"{k}={v}" for k, v in rec.metadata)
        print(f"{i}\t{rec.utt_id}\t{rec.sample_rate}Hz\t{len(rec.samples)} samples"
              f"\t{rec.transcript!r}\t{meta}")
    return EXIT_OK


def _parse_alpha(text: str) -> tuple[float, float]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return float(lo), float(hi)
    v = float(text)
    return v, v


def cmd_augment(args) -> int:
    from .acoustic import SimulatorConfig, simulate
    from .recordio import UtteranceRecord
    from .vtlp import WarpSpec, vtlp_resynthesize

    w = dsp.read_wav(args.input)
    rng = np.random.default_rng(args.seed)
    if args.vtlp_alpha:
        lo, hi = _parse_alpha(args.vtlp_alpha)
        spec = WarpSpec(alpha_range=(lo, hi))
        res = vtlp_resynthesize(w, spec, rng=rng)
        w = res.waveform
        print(f"vtlp.alpha={res.alpha:.6f} applied={res.applied}", file=sys.stderr)
    if args.room or args.t60 is not None or args.snr is not None:
        fixed = {}
        if args.room:
            dims = [float(x) for x in args.room.lower().split("x")]
            if len(dims) != 3:
                raise UsageError("--room must look like 5x4x3")
            fixed["dim_ranges"] = tuple((d, d) for d in dims)
        if args.t60 is not None:
            fixed["t60_range"] = (args.t60, args.t60)
        if args.snr is not None:
            fixed["snr_range_db"] = (args.snr, args.snr)
        apply_reverb = bool(args.room or args.t60 is not None)
        sim_cfg = SimulatorConfig(  # unset fields keep their defaults
            **fixed, probability_of_reverb=1.0 if apply_reverb else 0.0,
            probability_of_noise=1.0 if args.snr is not None else 0.0)
        rec = UtteranceRecord.from_float("cli", w.sample_rate, w.samples)
        out = simulate(rec, rng, sim_cfg)
        w = dsp.Waveform(out.float_samples(), out.sample_rate)
        meta = " ".join(f"{k}={v}" for k, v in out.metadata)
        print(meta, file=sys.stderr)
    dsp.write_wav(args.output, w)
    return EXIT_OK


def cmd_features(args) -> int:
    w = dsp.read_wav(args.input)
    if args.kind == "power_mel":
        feats = dsp.extract_power_mel(w, num_filters=args.num_filters)
    else:
        feats = dsp.extract_mfcc(w, num_filters=args.num_filters,
                                 num_ceps=args.num_ceps)
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        np.savetxt(out, feats.values, fmt="%.8g", delimiter=",")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"{feats.values.shape[0]} frames x {feats.values.shape[1]} "
          f"coefficients ({args.kind})", file=sys.stderr)
    return EXIT_OK


def cmd_dryrun(args) -> int:
    from .pipeline import build_pipeline
    from .util import crc32c
    from .wire import encode_batch

    cfg = config_from_args(args)
    pcfg = cfgmod.pipeline_config(cfg)
    warp = cfgmod.warp_spec(cfg)
    sim = cfgmod.simulator_config(cfg)
    checksum = 0
    total_batches = 0
    total_records = 0
    for epoch in range(args.epochs):
        for batch in build_pipeline(pcfg, warp, sim, epoch=epoch):
            b, t, f = batch.features.shape
            print(f"batch {total_batches}: features {b}x{t}x{f} "
                  f"labels {batch.labels.shape[0]}x{batch.labels.shape[1]}")
            checksum = crc32c(encode_batch(batch), checksum)
            total_batches += 1
            total_records += b
    print(f"batches={total_batches} records={total_records} checksum={checksum:08x}")
    return EXIT_OK


def cmd_serve(args) -> int:
    from .server import serve

    cfg = config_from_args(args)
    if args.bind:
        cfg["server"]["host"], cfg["server"]["port"] = args.bind
    scfg = cfgmod.server_config(cfg)

    def announce(endpoint):
        print(f"LISTENING {endpoint[0]}:{endpoint[1]}", flush=True)

    serve(scfg, ready=announce)
    print("all pipeline slots complete", file=sys.stderr)
    return EXIT_OK


def cmd_launch(args) -> int:
    from .server import launch_servers

    cfg = config_from_args(args)
    cfgmod.server_config(cfg)  # a bad config fails here, not in every server
    procs = launch_servers(args.servers, cfg)
    for p in procs:
        print(f"{p.index} {p.host}:{p.port}")
    sys.stdout.flush()
    code = EXIT_OK
    for p in procs:
        rc = p.wait()
        if rc != 0:
            print(f"server {p.index} exited with {rc}", file=sys.stderr)
            code = EXIT_NETWORK
    return code


def cmd_consume(args) -> int:
    from .client import connect_consumer
    from .trainsim import consume_epoch

    consumer = connect_consumer(args.addr, max_credits=args.max_credits)
    try:
        stats = consume_epoch(consumer, args.step_cost)
    finally:
        consumer.close()
    print(json.dumps(dataclasses.asdict(stats)))
    return EXIT_OK


def host_port(text: str) -> tuple[str, int]:
    """A "host:port" argument; an empty host means 127.0.0.1."""
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def non_negative_float(text: str) -> float:
    if not 0 <= float(text) < math.inf:  # NaN too
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return float(text)


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def server_counts(text: str) -> list[int]:
    """A non-empty list of counts >= 1, written "lo..hi" or "a,b,c"."""
    lo, sep, hi = text.partition("..")
    counts = (list(range(int(lo), int(hi) + 1)) if sep
              else [int(x) for x in text.split(",") if x])
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"expected server counts >= 1, got {text!r}")
    return counts


def cmd_bench(args) -> int:
    from .synth import write_synth_corpus
    from .trainsim import BENCH_CSV_HEADER, bench_scaling

    cfg = config_from_args(args)
    bench = cfgmod.bench_config(cfg)  # a bad value fails before any file or server
    servers = list(bench.servers)
    seed = cfgmod.pipeline_config(cfg).seed

    with tempfile.TemporaryDirectory(prefix="esf-bench-") as tmp:
        shards, vocab = write_synth_corpus(
            tmp, bench.utterances, bench.num_shards, seed=seed,
            sample_rate=bench.sample_rate, duration_range=bench.duration_range)
        cfg["pipeline"]["shard_paths"] = shards.shard_paths
        cfg["pipeline"]["vocab_path"] = vocab
        print(f"benchmarking S={servers} G={bench.consumers} "
              f"step_cost={bench.step_cost}s corpus={bench.utterances} utts",
              file=sys.stderr)
        rows = bench_scaling(servers, bench.consumers, bench.step_cost,
                             cfg, repeats=bench.repeats, seed_base=seed)
    print(BENCH_CSV_HEADER)
    for row in rows:
        print(row.csv())
    return EXIT_OK


def _demo_scorers():
    from .fusion import BigramLanguageScorer, TableAcousticScorer

    # vocabulary {0, 1, 2, eos=3}; the AM prefers "0 1 eos"
    table = {
        "": [np.log(0.7), np.log(0.1), np.log(0.1), np.log(0.1)],
        "0": [np.log(0.05), np.log(0.8), np.log(0.05), np.log(0.1)],
        "0 1": [np.log(0.05), np.log(0.05), np.log(0.1), np.log(0.8)],
    }
    am = TableAcousticScorer(4, {k: list(v) for k, v in table.items()})
    row = [np.log(0.25)] * 4
    lm = BigramLanguageScorer(row, [row, row, row, row])
    return am, lm, 3


def cmd_decode(args) -> int:
    from .fusion import (PriorModel, TableAcousticScorer, BigramLanguageScorer,
                         beam_search, uniform_prior)

    fus = cfgmod.fusion_config(config_from_args(args))
    max_len = fus.max_len

    if args.demo:
        am, lm, eos_id = _demo_scorers()
        vocab_size = 4
        max_len = min(max_len, 6)
    else:
        if not args.am or not args.lm:
            raise UsageError("decode requires --am and --lm (or --demo)")
        am = TableAcousticScorer.from_json(args.am)
        lm = BigramLanguageScorer.from_json(args.lm)
        vocab_size = am.vocab_size
        with open(args.am, "r", encoding="utf-8") as fh:
            eos_id = int(json.load(fh).get("eos_id", vocab_size - 1))
    if args.prior:
        with open(args.prior, "r", encoding="utf-8") as fh:
            prior = PriorModel(np.asarray(json.load(fh), dtype=np.float64))
    else:
        prior = uniform_prior(vocab_size)
    best = beam_search(am, lm, prior, fus.weights, fus.beam_size, max_len, eos_id)
    print(json.dumps({
        "tokens": list(best.tokens[1:]),
        "score": best.score,
        "finished": best.finished,
        "beam_size": fus.beam_size,
        "lambda_p": fus.lambda_prior,
        "lambda_lm": fus.lambda_lm,
    }))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DeliveryError, LaunchError, ConnectionError, socket.gaierror) as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (CorruptionError, TruncationError, FormatError, EsfError,
            ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
