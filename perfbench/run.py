"""The esf benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload augment --seed 1 --seconds 10 --trace 0

Workloads: augment, transport, session (example servers as `esf serve`
processes and one trainer), decode (in-process beam search). With --trace 0
the run prints every end-to-end metric of BENCHMARK.json; with --trace 1 it
wraps esf's entry points in spans and prints every per-layer metric. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The run exits non-zero when any output is wrong or a server fails.

esf is imported from src/ of the checkout and built nowhere else; without
it the run stops before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

import children

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("augment", "transport", "session", "decode")
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)

# What the shared metric names mean where a workload has no servers, or no
# beam search; see README.md.
STAND_INS = {
    "decode": {"server_cpu_ms_per_utt": "no servers: the decoder, twin-scaled",
               "consumer_cpu_ms_per_utt": "the decoder, twin-scaled",
               "server_peak_rss_mb": "no servers: the decoder process",
               "t_session": "share of the window inside beam_search",
               "utt_per_s": "twin-scaled",
               "decode_ms_p50": "twin-scaled",
               "decode_ms_tail": "twin-scaled"},
    "servers": {"decode_ms_p50": "no decoding: batch interval per connection",
                "decode_ms_tail": "no decoding: batch interval per connection"},
}


def load_esf() -> None:
    """Import esf from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "esf", "__init__.py")):
        sys.exit(f"perfbench: no esf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import esf

    if os.path.dirname(os.path.dirname(os.path.abspath(esf.__file__))) != SRC:
        sys.exit(f"perfbench: esf imported from {esf.__file__}, not from {SRC}")


def golden_mismatch(workload: str, seed: int, seconds: float, digest: str) -> list[str]:
    """Stored digests pin the bytes for the default seed and run length."""
    with open(os.path.join(HERE, "golden.json"), "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    if seed != golden["seed"] or seconds != golden["seconds"]:
        return []
    want = golden["digests"].get(workload)
    if want == digest:
        return []
    return [f"golden digest mismatch for {workload}: stored {want}, got {digest}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for signum in STOP_SIGNALS:
        signal.signal(signum, _stop)
    try:
        return _main(args)
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        children.reap_all()


def _stop(signum, frame):
    """A stopped run still stops its children: SystemExit unwinds the finally
    blocks, and a second signal cannot cut that clean-up short."""
    for s in STOP_SIGNALS:
        signal.signal(s, signal.SIG_IGN)
    sys.exit(128 + signum)


def _main(args) -> int:
    load_esf()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import measure

    env = measure.environment()
    traced = bool(args.trace)
    try:
        if args.workload == "decode":
            import decode

            result = decode.run(args.seed, args.seconds, traced)
        else:
            import servers

            result = servers.run(args.workload, args.seed, args.seconds, traced, SRC,
                                 WORK_DIR)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} run failed", file=sys.stderr)
        return 1
    mismatch = golden_mismatch(args.workload, args.seed, args.seconds, result["digest"])
    result["failed"] += len(mismatch)
    result["messages"] += mismatch

    if traced:  # a layer the workload does not run reports 0
        wanted, values = spec["per_layer"], result["layers"]
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
    else:
        wanted, values = spec["end_to_end"], result["metrics"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    stand_ins = STAND_INS["decode" if args.workload == "decode" else "servers"]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = stand_ins.get(name, "") if not traced else ""
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']:8s} {note}")
    if not traced:
        print(f"  {'decode_ms_tail percentile':34s} {result['tail_percentile']:14.2f} "
              f"{'%':8s} of {result['latency_samples']} samples")
        print(f"  {'setup_s runs':34s} "
              + " ".join(f"{s:.4f}" for s in result["setup_runs_s"]))
    print(f"  {'error_frac':34s} {result['failed'] / result['attempted']:14.6f} "
          f"{'ratio':8s} {result['failed']} of {result['attempted']}")
    for process, spans in result.get("spans", {}).items():
        print(f"  spans in {process}: calls, wall s, self s, thread CPU s, "
              "self CPU s, bytes")
        for name, agg in sorted(spans.items()):
            print(f"    {name:24s} {agg['calls']:9d} {agg['wall_s']:10.4f} "
                  f"{agg['self_s']:10.4f} {agg['cpu_s']:10.4f} {agg['self_cpu_s']:10.4f} "
                  f"{agg['bytes']:12d}")
    for note in result.get("notes", []):
        print(f"  {note}")
    print(f"  stream digest {result['digest']}")
    for msg in result["messages"]:
        print(f"  ERROR {msg}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
