"""Tests of the benchmark's own arithmetic and of its decode reference.

Run with: PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
from spans import Tracer  # noqa: E402


def test_tail_is_the_sample_with_ten_beyond_it():
    values = list(range(100))  # 0..99 shuffled order must not matter
    values.reverse()
    value, pct, n = measure.tail(values)
    assert (value, n) == (89, 100)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)


def test_tail_percentile_follows_the_sample_count():
    value, pct, n = measure.tail([float(i) for i in range(600)])
    assert value == 589.0 and n == 600
    assert pct == pytest.approx(100.0 * 590 / 600)


def test_tail_with_too_few_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert measure.tail([float(i) for i in range(10)]) == (9.0, 100.0, 10)
    assert measure.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        measure.tail([])


def test_t_session_is_step_time_over_elapsed():
    assert measure.t_session(9.9, 10.0) == pytest.approx(0.99)
    assert measure.t_session(0.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        measure.t_session(1.0, 0.0)


def test_proc_stat_parsing_survives_odd_command_names():
    ticks = measure.CLOCK_TICKS
    fields = ["S"] + ["0"] * 10 + [str(3 * ticks), str(ticks)] + ["0"] * 30
    text = "1234 (my (odd) proc) " + " ".join(fields)
    assert measure.parse_proc_stat(text) == pytest.approx(4.0)


def test_proc_cpu_reads_this_process():
    before = measure.proc_cpu_s(os.getpid())
    deadline = time.process_time() + 0.05
    while time.process_time() < deadline:
        pass
    assert measure.proc_cpu_s(os.getpid()) >= before


def test_window_cpu_counts_only_the_window_and_sums_processes():
    # two servers: 2 s and 5 s of CPU before the window, 6 s and 11 s at exit
    assert measure.window_cpu_s([2.0, 5.0], [6.0, 11.0]) == pytest.approx(10.0)
    assert measure.ms_per_utt(10.0, 100) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        measure.window_cpu_s([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        measure.window_cpu_s([5.0, 1.0], [4.0, 9.0])
    with pytest.raises(ValueError):
        measure.ms_per_utt(1.0, 0)


def test_self_time_excludes_nested_spans_on_the_same_thread():
    tracer = Tracer()
    tracer.active = True
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    other = tracer.wrap("other", lambda: time.sleep(0.05))
    worker = threading.Thread(target=other)  # overlaps outer, but not its child

    def outer_body():
        worker.start()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 1 and totals["other"]["calls"] == 1
    assert totals["outer"]["wall_s"] >= 0.03
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["wall_s"] - totals["inner"]["wall_s"], abs=1e-9)


def test_patches_are_undone():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = Tracer()
    tracer.patch(mod, "f", tracer.wrap("f", mod.f, size=lambda args, r: r))
    tracer.active = True
    assert mod.f(2) == 3
    assert tracer.totals()["f"]["bytes"] == 3
    tracer.uninstall()
    assert mod.f is original


def test_decode_reference_matches_beam_search():
    import decode
    from esf import fusion

    mats, lm, prior = decode.build(seed=3, utterances=4)
    weights = fusion.FusionWeights(decode.LAMBDA_PRIOR, decode.LAMBDA_LM)
    for mat in mats:
        best = fusion.beam_search(decode.MatrixScorer(), lm, prior, weights,
                                  decode.BEAM, decode.MAX_LEN, decode.EOS, context=mat)
        assert decode.reference_search(mat, lm, prior.log_probs, weights) == \
            (best.tokens, best.score)
        twin = decode.twin_search(mat, lm, prior.log_probs, weights)
        assert (twin.tokens, twin.score) == (best.tokens, best.score)


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                    text = fh.read()
            except OSError:
                continue
            if int(text[text.rindex(")") + 2:].split()[1]) == pid:
                kids.append(int(entry))
    return kids


def test_reference_workers_match_in_process_and_are_all_reaped(tmp_path):
    import servers

    wl = servers.WORKLOADS["session"]
    before = set(_children(os.getpid()))
    corpus = servers.Corpus(wl, seed=5, utterances=8, work_dir=str(tmp_path),
                            src_dir=os.path.join(os.path.dirname(os.path.dirname(
                                os.path.abspath(__file__))), "src"))
    paths, vocab, reference = corpus.prepare()
    assert set(_children(os.getpid())) <= before
    cfg = servers.make_config(wl, paths, vocab)
    assert reference == [servers.slot_reference(cfg, j, wl.servers, 5)
                         for j in range(wl.servers)]
    assert sorted(u for r in reference for ids in r["utt_ids"] for u in ids) == \
        sorted({u for r in reference for ids in r["utt_ids"] for u in ids})


def test_children_die_with_a_run_killed_outright():
    import signal
    import subprocess

    here = os.path.dirname(os.path.abspath(__file__))
    # a stand-in run: starts one long child through children.popen, prints its
    # pid, then waits to be killed with SIGKILL, so no clean-up code runs
    script = ("import sys, time; sys.path.insert(0, sys.argv[1]); import children; "
              "p = children.popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
              "print(p.pid, flush=True); time.sleep(60)")
    run = subprocess.Popen([sys.executable, "-c", script, here], stdout=subprocess.PIPE)
    try:
        child = int(run.stdout.readline())
    finally:
        run.send_signal(signal.SIGKILL)
        run.wait()
        run.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{child}/stat", "r", encoding="ascii") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            break  # gone and reaped
        if state in ("Z", "X"):
            break  # dead, waiting for init to reap it
        time.sleep(0.01)
    else:
        os.kill(child, signal.SIGKILL)
        pytest.fail("the child outlived its killed parent")
