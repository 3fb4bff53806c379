"""Shallow-fusion decoding with prior-bias subtraction.

Each decode step combines an acoustic score, a label prior, and a language
model over the vocabulary:

    fused_v = am_v - lambda_prior * prior_v + lambda_lm * lm_v

and hypotheses maximize the sum of fused terms over their tokens. Scorers
are pluggable: anything returning a normalized log-probability vector for a
token prefix. Table-driven toy scorers (and an exhaustive-search oracle)
make the rule testable without a trained network.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import ScorerContractError

SOS_ID = -1
NORMALIZATION_TOL = 1e-6
# a row's sum of exp accepted without a logsumexp: [exp(-tol), exp(tol)]
_SUM_LO, _SUM_HI = math.exp(-NORMALIZATION_TOL), math.exp(NORMALIZATION_TOL)


@dataclass(frozen=True)
class FusionWeights:
    lambda_prior: float = 0.0
    lambda_lm: float = 0.0

    def __post_init__(self):
        for name in ("lambda_prior", "lambda_lm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class Hypothesis:
    """Token sequence (starting with SOS) and its cumulative fused score."""

    tokens: tuple[int, ...]
    score: float
    finished: bool


class StepScorer(Protocol):
    def log_probs(self, prefix: tuple[int, ...], context) -> np.ndarray:
        """Normalized log-probability vector over the vocabulary for the
        next token after prefix (prefix[0] is SOS)."""
        ...


@dataclass
class PriorModel:
    """Unigram label log-probabilities, normalized, finite after smoothing."""

    log_probs: np.ndarray

    def __post_init__(self):
        self.log_probs = np.asarray(self.log_probs, dtype=np.float64)
        if not np.all(np.isfinite(self.log_probs)):
            raise ValueError("prior log-probabilities must be finite")
        lse = float(_logsumexp_rows(self.log_probs[None])[0])
        if abs(lse) > NORMALIZATION_TOL:
            raise ValueError(f"prior is not normalized (logsumexp={lse:.2e})")

    def __len__(self) -> int:
        return len(self.log_probs)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """logsumexp of each row of a 2-D array; NaN for a row that is all -inf
    or holds NaN or +inf."""
    m = x.max(axis=1)
    with np.errstate(invalid="ignore"):
        return m + np.log(np.exp(x - m[:, None]).sum(axis=1))


def estimate_prior(corpus: Iterable[Sequence[int]], vocab_size: int,
                   smoothing: float = 1.0) -> PriorModel:
    """Smoothed unigram prior: log((count_v + s) / (N + s*V)).

    Token ids must be integers (operator.index) in [0, vocab_size); a float
    id is refused, not truncated.
    """
    if vocab_size < 1:
        raise ValueError("vocabulary must be non-empty")
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    try:
        ids = np.fromiter(map(operator.index, itertools.chain.from_iterable(corpus)),
                          np.int64)
    except TypeError as exc:
        raise ValueError(f"token ids must be integers: {exc}") from None
    except OverflowError:
        raise ValueError(f"a token id is outside vocabulary of {vocab_size}") from None
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError(f"token ids {ids.min()}..{ids.max()} outside vocabulary "
                         f"of {vocab_size}")
    counts = np.bincount(ids, minlength=vocab_size)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("corpus contains no tokens")
    return PriorModel(np.log((counts + smoothing) / (total + smoothing * vocab_size)))


def fused_step(am_logp: np.ndarray, lm_logp: np.ndarray, prior: PriorModel,
               weights: FusionWeights) -> np.ndarray:
    """One step of the fusion rule (unnormalized combination).

    am_logp and lm_logp are (..., V) arrays of the same shape, V the prior's
    length; every element is the same float64 expression as for one row. A
    zero LM weight drops the LM term, so an LM -inf cannot become
    0 * -inf = NaN; the prior is finite, so its term never does.
    """
    am = np.asarray(am_logp, dtype=np.float64)
    lm = np.asarray(lm_logp, dtype=np.float64)
    if am.shape != lm.shape or am.shape[-1:] != prior.log_probs.shape:
        raise ValueError(
            f"vector lengths differ: am {am.shape}, lm {lm.shape}, "
            f"prior {prior.log_probs.shape}")
    fused = am - weights.lambda_prior * prior.log_probs
    if weights.lambda_lm:
        fused += weights.lambda_lm * lm
    return fused


def _scored_rows(am: StepScorer, lm: StepScorer,
                 prefixes: Sequence[tuple[int, ...]], context,
                 vocab_size: int) -> np.ndarray:
    """AM rows then LM rows for the prefixes, stacked into a (2H, V) array.

    Each scorer is called once per prefix, in order. Every row must have
    shape (V,) and a logsumexp within NORMALIZATION_TOL of 0. A row that is
    all -inf, or holds NaN or +inf, has a non-finite logsumexp and fails
    too; -inf entries in an otherwise normalized row are legal. A failure
    raises ScorerContractError naming the scorer.

    Rows with no entry above 1 are accepted by their plain sums of exp; any
    other rows, and rows whose sums fall outside the bounds, go through the
    max-shifted logsumexp, which decides and words every failure.
    """
    rows = [am.log_probs(p, context) for p in prefixes]
    rows += [lm.log_probs(p, context) for p in prefixes]

    def broke(i: int) -> str:
        return "acoustic scorer" if i < len(prefixes) else "language model scorer"

    try:
        stacked = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        stacked = None
    if stacked is None or stacked.shape != (len(rows), vocab_size):
        for i, row in enumerate(rows):  # find the first bad row
            try:
                shape = np.asarray(row, dtype=np.float64).shape
            except (TypeError, ValueError) as exc:
                raise ScorerContractError(f"{broke(i)} returned a non-numeric row: {exc}")
            if shape != (vocab_size,):
                raise ScorerContractError(
                    f"{broke(i)} returned shape {shape}, expected ({vocab_size},)")
    # No entry above 1 means exp cannot overflow, so the sums need no max
    # shift; NaN and +inf fail the max test, and an all -inf row sums to 0.
    if stacked.max() <= 1.0:
        sums = np.exp(stacked).sum(axis=1).tolist()
        if _SUM_LO <= min(sums) and max(sums) <= _SUM_HI:
            return stacked
    lse = _logsumexp_rows(stacked)
    bad = ~(np.abs(lse) <= NORMALIZATION_TOL)  # NaN compares False
    if bad.any():
        i = int(bad.argmax())
        raise ScorerContractError(
            f"{broke(i)} output is not normalized (logsumexp={lse[i]:.2e})")
    return stacked


def _best(pool: Iterable[Hypothesis]) -> Hypothesis:
    """Higher score wins; ties go to the lexicographically smaller tokens."""
    return min(pool, key=lambda h: (-h.score, h.tokens))


def _beam_cut(cand: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k best entries of a 1-D float array.

    The set is the first k of a stable argsort of -cand: higher values
    first, ties to the smaller index, -inf last. The k-th highest value is
    the threshold; all entries above it are kept, and of those equal to it
    only as many as fit, smallest indices first. All n are kept if n <= k.
    """
    n = cand.size
    if n <= k:
        return np.arange(n)
    kth = np.partition(cand, n - k)[n - k]
    kept = (cand >= kth).nonzero()[0]  # np.flatnonzero, without its wrapper
    if kept.size > k:  # too many ties at the threshold: drop the last ones
        ties = np.flatnonzero(cand[kept] == kth)
        kept = np.delete(kept, ties[k - kept.size:])
    return kept


def beam_search(am: StepScorer, lm: StepScorer, prior: PriorModel,
                weights: FusionWeights, beam_size: int, max_len: int,
                eos_id: int, context=None) -> Hypothesis:
    """Beam search over fused step scores.

    Hypotheses that emit eos are frozen (no further terms accrue); the best
    finished hypothesis wins, falling back to the best live hypothesis at
    max_len. Ties break toward the lexicographically smaller token sequence.

    Each step is array work over the H live hypotheses: one scorer call per
    hypothesis and scorer, one contract check over the (2H, V) rows, one
    fused_step call on the (H, V) rows, and candidates live score plus fused
    step, of which the first beam_size in (-score, tokens) order are kept.
    The live hypotheses all have the same length and are kept in token
    order, so a candidate's flat index h * V + v is its rank in token order,
    and _beam_cut keeps the right set, in token order, with one partition
    and no tuple comparisons. One pass over the kept indices then splits
    them into finished and live ones; of the finished ones only the best so
    far is kept, as a (score, tokens) pair, and one Hypothesis is built for
    it at the end.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    vocab_size = len(prior)
    live = [(SOS_ID,)]  # token sequences, in token order
    scores = np.zeros(1)
    best = None  # (score, tokens) of the best finished hypothesis so far
    for _ in range(max_len):
        if not live:
            break
        rows = _scored_rows(am, lm, live, context, vocab_size)
        cand = fused_step(rows[:len(live)], rows[len(live):], prior, weights)
        # in place on fused_step's new array; IEEE addition commutes, so each
        # candidate has the bits of live score + fused step
        cand += scores[:, None]
        cand = cand.ravel()
        kept = _beam_cut(cand, beam_size)
        grown, kept_live = [], []
        for i in kept.tolist():
            h, v = divmod(i, vocab_size)
            if v == eos_id:
                score, tokens = float(cand[i]), live[h] + (v,)
                if best is None or score > best[0] or score == best[0] and tokens < best[1]:
                    best = score, tokens
            else:
                grown.append(live[h] + (v,))
                kept_live.append(i)
        # with no eos kept, index by the array: cheaper than by the list
        scores = cand[kept] if len(grown) == kept.size else cand[kept_live]
        live = grown
    if best is not None:
        return Hypothesis(best[1], best[0], True)
    # live is in token order, so the first best score has the smallest tokens
    h = int(np.argmax(scores))
    return Hypothesis(live[h], float(scores[h]), False)


def exhaustive_search(am: StepScorer, lm: StepScorer, prior: PriorModel,
                      weights: FusionWeights, max_len: int, eos_id: int,
                      context=None) -> Hypothesis:
    """Enumerate every token sequence up to max_len and return the argmax.

    The oracle twin of beam_search: same scoring, same eos freezing, same
    finished-first selection and tie-break. It has no beam: every prefix
    up to max_len is scored, and every row is checked.
    """
    vocab_size = len(prior)
    if vocab_size ** max_len > 10 ** 6:
        raise ValueError(
            f"search space {vocab_size}^{max_len} exceeds the enumeration limit")
    finished: list[Hypothesis] = []
    deepest: list[Hypothesis] = []

    def expand(hyp: Hypothesis, depth: int):
        if hyp.finished:
            finished.append(hyp)
            return
        if depth == max_len:
            deepest.append(hyp)
            return
        am_row, lm_row = _scored_rows(am, lm, [hyp.tokens], context, vocab_size)
        fused = fused_step(am_row, lm_row, prior, weights)
        for v in range(vocab_size):
            expand(Hypothesis(hyp.tokens + (v,), hyp.score + float(fused[v]),
                              v == eos_id), depth + 1)

    expand(Hypothesis((SOS_ID,), 0.0, False), 0)
    return _best(finished or deepest)


class TableAcousticScorer:
    """Acoustic scorer backed by a per-prefix table of log-prob vectors.

    Keys are space-joined token ids after SOS ("" for the first step);
    missing prefixes fall back to a default vector.
    """

    def __init__(self, vocab_size: int, table: dict[str, Sequence[float]],
                 default: Sequence[float] | None = None):
        self.vocab_size = vocab_size
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
        if default is None:
            default = np.full(vocab_size, -math.log(vocab_size))
        self.default = np.asarray(default, dtype=np.float64)

    @classmethod
    def from_json(cls, path: str) -> "TableAcousticScorer":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(int(doc["vocab_size"]), doc.get("table", {}), doc.get("default"))

    def log_probs(self, prefix: tuple[int, ...], context) -> np.ndarray:
        key = " ".join(str(t) for t in prefix[1:])
        return self.table.get(key, self.default)


class BigramLanguageScorer:
    """Bigram LM: an initial row for SOS and one row per previous token."""

    def __init__(self, initial: Sequence[float], bigram: Sequence[Sequence[float]]):
        self.initial = np.asarray(initial, dtype=np.float64)
        self.bigram = np.asarray(bigram, dtype=np.float64)
        if self.bigram.shape != (len(self.initial), len(self.initial)):
            raise ValueError("bigram matrix must be square and match the initial row")

    @classmethod
    def from_json(cls, path: str) -> "BigramLanguageScorer":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(doc["initial"], doc["bigram"])

    def log_probs(self, prefix: tuple[int, ...], context) -> np.ndarray:
        prev = prefix[-1]
        if prev == SOS_ID:
            return self.initial
        return self.bigram[prev]


def uniform_prior(vocab_size: int) -> PriorModel:
    return PriorModel(np.full(vocab_size, -math.log(vocab_size)))
