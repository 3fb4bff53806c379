"""The decode workload: in-process shallow-fusion beam search.

Each utterance is a generated acoustic log-prob matrix, one row per output
position, handed to beam_search as context; a benchmark-owned StepScorer
returns the row for the prefix length. The language model is a generated
BigramLanguageScorer and the prior comes from estimate_prior over a
generated label corpus. Every best hypothesis is checked against a
vectorised re-implementation of the same search.

Pure-Python search is the code whose speed drifts most on a shared box, in
phases that outlast a run (README.md). So each utterance is also searched by
twin_search, a frozen copy of the search loop kept here, right before or
after esf searches it. Every decode time is scaled by one factor per run,
the twin's time at a nominal TWIN_REF_UTT_PER_S over its measured time: a
slow phase slows both and cancels, while a change to esf moves only its
own side.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import measure
from spans import Tracer, install_trainer, span_cost_s, wrap_scorer

VOCAB = 32
EOS = VOCAB - 1
BEAM = 12
MAX_LEN = 32
LAMBDA_PRIOR = 0.005
LAMBDA_LM = 0.45
UTT_PER_S = 30.0  # pairs of searches per second of run; sizes it, never a metric
LABEL_SEQUENCES = 4000
SETUP_REPEATS = 11  # one build takes ~0.2 s and jitters by a quarter
TWIN_REF_UTT_PER_S = 75.0  # the twin's rate here in a typical phase; only a scale


class MatrixScorer:
    """Acoustic scorer: row len(prefix) - 1 of the utterance's matrix."""

    def log_probs(self, prefix, context):
        return context[len(prefix) - 1]


def _log_softmax(x: np.ndarray) -> np.ndarray:
    x = x - x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def build(seed: int, utterances: int):
    """Scorers, prior and per-utterance matrices; this is the set-up."""
    from esf.fusion import BigramLanguageScorer, estimate_prior

    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(utterances):
        logits = rng.normal(0.0, 1.0, (MAX_LEN, VOCAB))
        length = int(rng.integers(6, 21))
        targets = rng.integers(0, EOS, length)
        logits[np.arange(length), targets] += 3.0
        logits[length:, EOS] += 5.0
        mats.append(_log_softmax(logits))
    lm = BigramLanguageScorer(_log_softmax(rng.normal(0.0, 1.0, VOCAB)),
                              _log_softmax(rng.normal(0.0, 1.0, (VOCAB, VOCAB))))
    zipf = 1.0 / np.arange(1, VOCAB + 1)
    labels = [rng.choice(VOCAB, size=int(rng.integers(8, 25)), p=zipf / zipf.sum())
              .tolist() for _ in range(LABEL_SEQUENCES)]
    prior = estimate_prior(labels, VOCAB)
    return mats, lm, prior


def reference_search(mat, lm, prior_logp, weights) -> tuple[tuple, float]:
    """The beam search of esf.fusion, vectorised over (hypothesis, token).

    Scores are the same float64 sums in the same order, so the result must
    match bit for bit; exact score ties fall back to esf's token tie-break.
    """
    live_tokens: list[tuple] = [(-1,)]
    live_scores = np.zeros(1)
    finished: list[tuple[float, tuple]] = []
    for _ in range(MAX_LEN):
        if not live_tokens:
            break
        am = np.stack([mat[len(t) - 1] for t in live_tokens])
        lmv = np.stack([lm.initial if t[-1] == -1 else lm.bigram[t[-1]]
                        for t in live_tokens])
        fused = am - weights.lambda_prior * prior_logp + weights.lambda_lm * lmv
        cand = (live_scores[:, None] + fused).ravel()
        order = np.argsort(-cand, kind="stable")
        if len(np.unique(cand[order[:BEAM + 1]])) < min(BEAM + 1, cand.size):
            order = sorted(range(cand.size), key=lambda i: (
                -cand[i], live_tokens[i // VOCAB] + (i % VOCAB,)))
        tokens, scores = [], []
        for i in order[:BEAM]:
            h, v = divmod(int(i), VOCAB)
            if v == EOS:
                finished.append((float(cand[i]), live_tokens[h] + (v,)))
            else:
                tokens.append(live_tokens[h] + (v,))
                scores.append(cand[i])
        live_tokens, live_scores = tokens, np.array(scores)
    pool = finished or [(float(s), t) for s, t in zip(live_scores, live_tokens)]
    score, tokens = min(pool, key=lambda st: (-st[0], st[1]))
    return tokens, score


@dataclass(frozen=True)
class _Hyp:
    tokens: tuple
    score: float
    finished: bool


def twin_search(mat, lm, prior_logp, weights) -> _Hyp:
    """The shape of esf's beam search, frozen here as the box's yardstick.

    The same Python loop, objects, keyed sort and per-hypothesis numpy step,
    so the box's slow phases slow it as they slow the decoder. Its result is
    not used, and it must not change, or every decode figure moves.
    """
    live = [_Hyp((-1,), 0.0, False)]
    finished: list[_Hyp] = []
    scaled_prior = weights.lambda_prior * prior_logp
    for _ in range(MAX_LEN):
        if not live:
            break
        candidates = []
        for h in live:
            lmv = lm.initial if h.tokens[-1] == -1 else lm.bigram[h.tokens[-1]]
            fused = mat[len(h.tokens) - 1] - scaled_prior + weights.lambda_lm * lmv
            for v in range(VOCAB):
                candidates.append(_Hyp(h.tokens + (v,), h.score + float(fused[v]),
                                       v == EOS))
        candidates.sort(key=lambda h: (-h.score, h.tokens))
        kept = candidates[:BEAM]
        live = [h for h in kept if not h.finished]
        finished.extend(h for h in kept if h.finished)
    return max(finished or live, key=lambda h: h.score)


def _timed(fn, *args, **kwargs):
    """(result, wall s, CPU s) of one call."""
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0, time.process_time() - c0


def run(seed: int, seconds: float, traced: bool) -> dict:
    from esf import fusion

    n = max(20, round(UTT_PER_S * seconds))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mats, lm, prior = build(seed, n)
        setups.append(time.perf_counter() - t0)
    am = MatrixScorer()
    weights = fusion.FusionWeights(lambda_prior=LAMBDA_PRIOR, lambda_lm=LAMBDA_LM)
    tracer = None
    if traced:
        tracer = Tracer()
        install_trainer(tracer)
        wrap_scorer(tracer, am)
        wrap_scorer(tracer, lm)
        tracer.active = True
    latencies, twin, hyps = [], [], []
    cpu_s = twin_cpu_s = 0.0
    try:
        start = time.perf_counter()
        for k, mat in enumerate(mats):
            # alternate which search goes first, so neither always runs warm
            if k % 2:
                _, t, c = _timed(twin_search, mat, lm, prior.log_probs, weights)
            hyp, wall, cpu = _timed(fusion.beam_search, am, lm, prior, weights, BEAM,
                                    MAX_LEN, EOS, context=mat)
            if not k % 2:
                _, t, c = _timed(twin_search, mat, lm, prior.log_probs, weights)
            hyps.append(hyp)
            latencies.append(wall)
            cpu_s += cpu
            twin.append(t)
            twin_cpu_s += c
        elapsed = time.perf_counter() - start - sum(twin)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = 0
    lines = []
    for mat, hyp in zip(mats, hyps):
        tokens, score = reference_search(mat, lm, prior.log_probs, weights)
        failed += int(hyp.tokens != tokens or hyp.score != score)
        lines.append(f"{hyp.tokens} {float(hyp.score).hex()} {hyp.finished}")
    # one factor per run: the twin's nominal time over its measured time, so
    # a slow phase of the box, or a corpus of longer utterances, cancels
    scale = n / TWIN_REF_UTT_PER_S / sum(twin)
    cpu_scale = n / TWIN_REF_UTT_PER_S / twin_cpu_s
    rate = n / (scale * sum(latencies))
    tail_s, tail_pct, _ = measure.tail(latencies)
    result = {
        "attempted": n, "failed": failed,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "messages": [f"{failed} best hypotheses differ from the reference search"]
        if failed else [],
        "setup_runs_s": setups,
        "latency_samples": n,
        "tail_percentile": tail_pct,
        "notes": [f"unscaled: beam_search {n / sum(latencies):.3f} utt/s, twin "
                  f"{n / sum(twin):.3f} utt/s, p50 "
                  f"{1e3 * statistics.median(latencies):.3f} ms"],
        "metrics": {
            "utt_per_s": rate,
            "t_session": measure.t_session(sum(latencies), elapsed),
            "setup_s": statistics.median(setups),
            "server_cpu_ms_per_utt": measure.ms_per_utt(cpu_scale * cpu_s, n),
            "consumer_cpu_ms_per_utt": measure.ms_per_utt(cpu_scale * cpu_s, n),
            "server_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decode_ms_p50": 1e3 * scale * statistics.median(latencies),
            "decode_ms_tail": 1e3 * scale * tail_s,
        },
    }
    if traced:
        spans = tracer.totals()

        def per_utt_ms(name, field):
            return 1e3 * spans.get(name, {}).get(field, 0.0) / n

        cost = span_cost_s(cpu=False)
        result["layers"] = {
            "fusion.search_self_ms_per_utt": per_utt_ms("fusion.search", "self_s"),
            "fusion.scorer_ms_per_utt": per_utt_ms("fusion.scorer", "wall_s"),
            "fusion.fused_step_ms_per_utt": per_utt_ms("fusion.fused_step", "wall_s"),
            "fusion.candidates_per_utt":
                spans.get("fusion.fused_step", {}).get("calls", 0) * VOCAB / n,
            "trace.utt_per_s": rate,
            "trace.overhead_ms_per_utt":
                1e3 * cost * sum(a["calls"] for a in spans.values()) / n,
        }
        result["spans"] = {"decoder": spans}
    return result
