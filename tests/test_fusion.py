"""Shallow fusion: prior estimation, fused scoring, beam search vs oracle."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esf import fusion
from esf.errors import ScorerContractError
from esf.fusion import (BigramLanguageScorer, FusionWeights, PriorModel,
                        TableAcousticScorer, beam_search, estimate_prior,
                        exhaustive_search, fused_step, uniform_prior)


def normalized_rows(rng, shape):
    x = rng.standard_normal(shape) * 2.0
    return x - np.log(np.sum(np.exp(x), axis=-1, keepdims=True))


def random_instance(rng, vocab=4, max_len=4):
    """Random table AM over every prefix, plus a random bigram LM."""
    table = {}
    prefixes = [()]
    for depth in range(max_len):
        nxt = []
        for p in prefixes:
            key = " ".join(str(t) for t in p)
            table[key] = list(normalized_rows(rng, vocab))
            for v in range(vocab):
                nxt.append(p + (v,))
        prefixes = nxt
    am = TableAcousticScorer(vocab, table)
    lm = BigramLanguageScorer(list(normalized_rows(rng, vocab)),
                              [list(normalized_rows(rng, vocab)) for _ in range(vocab)])
    prior = PriorModel(normalized_rows(rng, vocab))
    return am, lm, prior


def test_estimate_prior_uniform_corpus():
    prior = estimate_prior([[0, 1, 2, 3]] * 5, vocab_size=4, smoothing=1.0)
    np.testing.assert_allclose(prior.log_probs, math.log(0.25), atol=1e-12)


def test_estimate_prior_add_one_unseen():
    # 3 tokens observed, vocab 4: unseen token gets log(1/(N+V))
    prior = estimate_prior([[0, 1, 2]], vocab_size=4, smoothing=1.0)
    assert prior.log_probs[3] == pytest.approx(math.log(1.0 / (3 + 4)), abs=1e-12)


def test_estimate_prior_normalizes():
    rng = np.random.default_rng(0)
    corpus = [list(rng.integers(0, 6, rng.integers(1, 9))) for _ in range(30)]
    prior = estimate_prior(corpus, vocab_size=6, smoothing=0.5)
    assert abs(np.sum(np.exp(prior.log_probs)) - 1.0) < 1e-9


def test_estimate_prior_argument_errors():
    with pytest.raises(ValueError):
        estimate_prior([[0]], vocab_size=0)
    with pytest.raises(ValueError):
        estimate_prior([[0]], vocab_size=2, smoothing=0.0)
    with pytest.raises(ValueError):
        estimate_prior([], vocab_size=2)


def test_fused_step_weights_off_is_am():
    rng = np.random.default_rng(1)
    am = normalized_rows(rng, 5)
    lm = normalized_rows(rng, 5)
    out = fused_step(am, lm, uniform_prior(5), FusionWeights(0.0, 0.0))
    np.testing.assert_array_equal(out, am)


def test_fused_step_uniform_prior_shifts_argmax_invariant():
    rng = np.random.default_rng(2)
    am = normalized_rows(rng, 6)
    lm = normalized_rows(rng, 6)
    base = fused_step(am, lm, uniform_prior(6), FusionWeights(0.0, 0.3))
    shifted = fused_step(am, lm, uniform_prior(6), FusionWeights(0.7, 0.3))
    assert np.argmax(base) == np.argmax(shifted)


def test_fused_step_table3_weight_settings():
    # direct weighted-sum oracle at the published operating points
    rng = np.random.default_rng(3)
    am = normalized_rows(rng, 8)
    lm = normalized_rows(rng, 8)
    prior = PriorModel(normalized_rows(rng, 8))
    for lp, llm in ((0.005, 0.45), (0.004, 0.46), (0.003, 0.48), (0.002, 0.48)):
        out = fused_step(am, lm, prior, FusionWeights(lp, llm))
        for v in range(8):
            expect = am[v] - lp * prior.log_probs[v] + llm * lm[v]
            assert out[v] == pytest.approx(expect, abs=1e-15)


def test_fused_step_rejects_length_mismatch():
    with pytest.raises(ValueError):
        fused_step(np.zeros(3), np.zeros(4), uniform_prior(3), FusionWeights())


def test_weights_validation():
    with pytest.raises(ValueError):
        FusionWeights(-0.1, 0.0)
    with pytest.raises(ValueError):
        FusionWeights(0.0, math.inf)


def test_prior_model_rejects_unnormalized():
    with pytest.raises(ValueError):
        PriorModel(np.array([-1.0, -1.0]))
    with pytest.raises(ValueError):
        PriorModel(np.array([0.0, -np.inf]))


def test_beam_equals_exhaustive_when_beam_covers_space():
    rng = np.random.default_rng(10)
    matches = 0
    trials = 100
    for _ in range(trials):
        am, lm, prior = random_instance(rng)
        w = FusionWeights(float(rng.uniform(0, 0.02)), float(rng.uniform(0, 0.6)))
        oracle = exhaustive_search(am, lm, prior, w, max_len=4, eos_id=3)
        full = beam_search(am, lm, prior, w, beam_size=256, max_len=4, eos_id=3)
        if full.tokens == oracle.tokens and full.score == oracle.score:
            matches += 1
    assert matches == trials


def test_narrow_beam_matches_oracle_mostly():
    rng = np.random.default_rng(11)
    matches = 0
    for _ in range(100):
        am, lm, prior = random_instance(rng)
        w = FusionWeights(0.005, 0.45)
        oracle = exhaustive_search(am, lm, prior, w, max_len=4, eos_id=3)
        got = beam_search(am, lm, prior, w, beam_size=16, max_len=4, eos_id=3)
        matches += got.tokens == oracle.tokens
    assert matches >= 95


def test_lambda_zero_reduces_to_am_only_beam():
    rng = np.random.default_rng(12)
    am, lm, prior = random_instance(rng)

    class JunkLM:
        def log_probs(self, prefix, context):
            return lm.log_probs(prefix, context)

    a = beam_search(am, JunkLM(), prior, FusionWeights(0.0, 0.0),
                    beam_size=16, max_len=4, eos_id=3)

    class UniformLM:
        def log_probs(self, prefix, context):
            return np.full(4, -math.log(4))

    b = beam_search(am, UniformLM(), uniform_prior(4), FusionWeights(0.0, 0.0),
                    beam_size=16, max_len=4, eos_id=3)
    assert a.tokens == b.tokens


def equal_length_instance(rng, vocab=4, max_len=3, eos_id=3):
    """Random instance where eos is hopeless before the final step, so every
    competitive hypothesis has exactly max_len tokens. A constant prior shift
    then moves every candidate's score identically."""
    table = {}
    prefixes = [()]
    for depth in range(max_len):
        nxt = []
        for p in prefixes:
            row = normalized_rows(rng, vocab)
            if depth < max_len - 1:
                row[eos_id] = -50.0
                row = row - np.log(np.sum(np.exp(row)))
            table[" ".join(str(t) for t in p)] = list(row)
            for v in range(vocab):
                if v != eos_id:
                    nxt.append(p + (v,))
        prefixes = nxt
    am = TableAcousticScorer(vocab, table)
    lm = BigramLanguageScorer(list(normalized_rows(rng, vocab)),
                              [list(normalized_rows(rng, vocab)) for _ in range(vocab)])
    return am, lm


def test_constant_prior_shift_leaves_argmax_unchanged():
    rng = np.random.default_rng(13)
    am, lm = equal_length_instance(rng)
    w = FusionWeights(0.4, 0.3)
    base_logits = normalized_rows(rng, 4)
    prior_a = PriorModel(base_logits)
    # adding a constant breaks normalization, so bypass the constructor check
    prior_b = PriorModel(base_logits)
    prior_b.log_probs = prior_a.log_probs + 2.5
    a = beam_search(am, lm, prior_a, w, beam_size=256, max_len=3, eos_id=3)
    b = beam_search(am, lm, prior_b, w, beam_size=256, max_len=3, eos_id=3)
    assert a.tokens == b.tokens


def test_peaked_lm_dominates_with_large_weight():
    rng = np.random.default_rng(14)
    am, _, prior = random_instance(rng, vocab=3, max_len=3)
    eps = 1e-9
    peak = np.log(np.array([1 - 2 * eps, eps, eps]))

    class PeakedLM:
        def log_probs(self, prefix, context):
            # strongly prefers token 0 then eos (=2)
            if len(prefix) >= 3:
                return np.log(np.array([eps, eps, 1 - 2 * eps]))
            return peak

    best = beam_search(am, PeakedLM(), prior, FusionWeights(0.0, 1e6),
                       beam_size=27, max_len=3, eos_id=2)
    assert best.tokens[1:3] == (0, 0)
    assert best.tokens[-1] == 2


def test_returned_score_nondecreasing_in_beam_size():
    rng = np.random.default_rng(15)
    am, lm, prior = random_instance(rng)
    w = FusionWeights(0.005, 0.45)
    scores = [beam_search(am, lm, prior, w, beam_size=b, max_len=4, eos_id=3).score
              for b in (1, 2, 4, 8, 16, 64, 256)]
    for lo, hi in zip(scores, scores[1:]):
        assert hi >= lo - 1e-12


def test_flat_scores_prefer_shortest_finished():
    vocab = 3
    flat = [-math.log(vocab)] * vocab

    class Flat:
        def log_probs(self, prefix, context):
            return np.array(flat)

    best = beam_search(Flat(), Flat(), uniform_prior(vocab), FusionWeights(),
                       beam_size=27, max_len=2, eos_id=2)
    oracle = exhaustive_search(Flat(), Flat(), uniform_prior(vocab),
                               FusionWeights(), max_len=2, eos_id=2)
    # each step adds the same negative amount, so the immediate eos wins
    assert best.tokens == oracle.tokens == (fusion.SOS_ID, 2)


def test_tie_break_prefers_lexicographically_smaller():
    vocab = 3
    flat = [-math.log(vocab)] * vocab

    class Flat:
        def log_probs(self, prefix, context):
            return np.array(flat)

    # lambda_p = 2 with flat everything makes each step worth +log(3), so the
    # two-token finished sequences tie above the one-token one
    w = FusionWeights(2.0, 0.0)
    best = beam_search(Flat(), Flat(), uniform_prior(vocab), w,
                       beam_size=27, max_len=2, eos_id=2)
    oracle = exhaustive_search(Flat(), Flat(), uniform_prior(vocab), w,
                               max_len=2, eos_id=2)
    # (0, 2) ties with (1, 2); lexicographic order decides
    assert best.tokens == oracle.tokens == (fusion.SOS_ID, 0, 2)


def test_single_token_vocab_exhaustive():
    class Only:
        def log_probs(self, prefix, context):
            return np.array([0.0])

    best = exhaustive_search(Only(), Only(), uniform_prior(1), FusionWeights(),
                             max_len=3, eos_id=0)
    assert best.tokens == (fusion.SOS_ID, 0)
    assert best.finished


def test_scorer_contract_violation_detected():
    class Bad:
        def log_probs(self, prefix, context):
            return np.array([0.0, 0.0, 0.0])  # logsumexp = log 3

    with pytest.raises(ScorerContractError):
        beam_search(Bad(), Bad(), uniform_prior(3), FusionWeights(),
                    beam_size=2, max_len=2, eos_id=2)


def test_exhaustive_search_rejects_huge_space():
    with pytest.raises(ValueError):
        exhaustive_search(None, None, uniform_prior(11), FusionWeights(),
                          max_len=7, eos_id=0)


def test_finished_hypotheses_freeze():
    # once eos is taken no further terms accrue: the finished score is the
    # exact prefix sum, not extended by later steps
    rng = np.random.default_rng(16)
    am, lm, prior = random_instance(rng, vocab=2, max_len=2)
    w = FusionWeights(0.01, 0.2)
    best = beam_search(am, lm, prior, w, beam_size=4, max_len=2, eos_id=1)
    if best.finished:
        steps = []
        prefix = (fusion.SOS_ID,)
        for tok in best.tokens[1:]:
            fused = fused_step(am.log_probs(prefix, None), lm.log_probs(prefix, None),
                               prior, w)
            steps.append(float(fused[tok]))
            prefix = prefix + (tok,)
        assert best.score == pytest.approx(sum(steps), abs=1e-12)


def test_table_scorers_from_json(tmp_path):
    am_doc = {"vocab_size": 3, "eos_id": 2,
              "table": {"": [math.log(0.6), math.log(0.3), math.log(0.1)]},
              "default": [-math.log(3)] * 3}
    lm_doc = {"initial": [-math.log(3)] * 3, "bigram": [[-math.log(3)] * 3] * 3}
    am_path = tmp_path / "am.json"
    lm_path = tmp_path / "lm.json"
    am_path.write_text(json.dumps(am_doc))
    lm_path.write_text(json.dumps(lm_doc))
    am = TableAcousticScorer.from_json(str(am_path))
    lm = BigramLanguageScorer.from_json(str(lm_path))
    best = beam_search(am, lm, uniform_prior(3), FusionWeights(), 9, 2, eos_id=2)
    assert best.tokens[1] == 0


def test_hypothesis_tokens_begin_with_sos():
    rng = np.random.default_rng(17)
    am, lm, prior = random_instance(rng)
    best = beam_search(am, lm, prior, FusionWeights(), 4, 4, eos_id=3)
    assert best.tokens[0] == fusion.SOS_ID


def object_sort_search(am, lm, prior, weights, beam_size, max_len, eos_id,
                       context=None, kept_per_step=None):
    """The object-sort loop beam_search replaced: every candidate a Hypothesis,
    one keyed sort per step. Kept as the oracle of the array step.

    kept_per_step, a list, gets (finished, kept) candidate counts per step.
    """
    vocab_size = len(prior)
    live = [fusion.Hypothesis((fusion.SOS_ID,), 0.0, False)]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for hyp in live:
            fused = fused_step(am.log_probs(hyp.tokens, context),
                               lm.log_probs(hyp.tokens, context), prior, weights)
            for v in range(vocab_size):
                candidates.append(fusion.Hypothesis(hyp.tokens + (v,),
                                                    hyp.score + float(fused[v]),
                                                    v == eos_id))
        candidates.sort(key=lambda h: (-h.score, h.tokens))
        kept = candidates[:beam_size]
        live = [h for h in kept if not h.finished]
        finished.extend(h for h in kept if h.finished)
        if kept_per_step is not None:
            kept_per_step.append((len(kept) - len(live), len(kept)))
    return min(finished or live, key=lambda h: (-h.score, h.tokens))


def assert_same_hypothesis(got, want):
    assert got.tokens == want.tokens
    assert got.finished == want.finished
    assert (np.float64(got.score).view(np.uint64)
            == np.float64(want.score).view(np.uint64))


class SeededScorer:
    """A normalized row per prefix from a generator seeded by the prefix.

    With tied=False rows are random with about a share p_inf of -inf entries
    (never all). With tied=True each row is uniform over a random 2^k of the
    tokens, -k*log 2 there and -inf elsewhere, so exact score ties between
    different hypotheses are common.
    """

    def __init__(self, seed, vocab, p_inf=0.3, tied=False):
        self.seed, self.vocab, self.p_inf, self.tied = seed, vocab, p_inf, tied

    def log_probs(self, prefix, context):
        rng = np.random.default_rng([self.seed, *(t + 1 for t in prefix)])
        if self.tied:
            k = int(rng.integers(0, int(math.log2(self.vocab)) + 1))
            row = np.full(self.vocab, -np.inf)
            row[rng.permutation(self.vocab)[:2 ** k]] = -k * math.log(2.0)
            return row
        row = rng.standard_normal(self.vocab) * 2.0
        off = rng.random(self.vocab) < self.p_inf
        off[rng.integers(self.vocab)] = False
        row[off] = -np.inf
        return row - np.log(np.sum(np.exp(row)))


@pytest.mark.parametrize("tied", [False, True])
def test_beam_search_matches_object_sort_oracle(tied):
    rng = np.random.default_rng(20 + tied)
    steps = []
    for trial in range(200):
        vocab = int(rng.integers(2, 9))
        eos = int(rng.integers(vocab))
        max_len = int(rng.integers(1, 7))
        beam = int(rng.choice([1, 2, 3, vocab - 1, vocab, vocab + 3, 4 * vocab, 0]))
        if beam == 0:  # 3 more than any step's H * V candidates: nothing is cut
            max_len = min(max_len, 3)
            beam = vocab ** max_len + 3
        beam = max(beam, 1)
        am = SeededScorer(3 * trial, vocab, tied=tied)
        lm = SeededScorer(3 * trial + 1, vocab, tied=tied)
        prior = (uniform_prior(vocab) if tied
                 else PriorModel(normalized_rows(rng, vocab)))
        w = (FusionWeights(0.0, float(rng.choice([0.5, 1.0, 2.0]))) if tied
             else FusionWeights(float(rng.uniform(0, 0.5)), float(rng.uniform(0.1, 1.0))))
        want = object_sort_search(am, lm, prior, w, beam, max_len, eos,
                                  kept_per_step=steps)
        got = beam_search(am, lm, prior, w, beam, max_len, eos)
        assert_same_hypothesis(got, want)
    # steps that keep eos among live candidates, and steps where all finish
    assert sum(0 < done < kept for done, kept in steps) >= 100
    assert sum(0 < done == kept for done, kept in steps) >= 10


def test_beam_search_edge_shapes_match_object_sort_oracle():
    rng = np.random.default_rng(22)
    am, lm, prior = random_instance(rng, vocab=4, max_len=4)
    w = FusionWeights(0.005, 0.45)
    for beam, max_len in [(1, 1), (1, 4), (4, 1), (4, 4), (7, 1), (7, 4), (300, 4)]:
        want = object_sort_search(am, lm, prior, w, beam, max_len, 3)
        assert_same_hypothesis(beam_search(am, lm, prior, w, beam, max_len, 3), want)
    # eos never taken: the best live hypothesis at max_len is returned
    want = object_sort_search(am, lm, prior, w, 3, 3, eos_id=7)
    got = beam_search(am, lm, prior, w, 3, 3, eos_id=7)
    assert not got.finished
    assert_same_hypothesis(got, want)


def test_tie_at_the_beam_cut_goes_to_the_smaller_tokens():
    # Step 1 keeps (1) at -log 2 above (0) at -2 log 2: the live hypothesis
    # with the higher score has the larger tokens. Step 2 puts (1, 2) first
    # and ties (1, 0), (1, 1) and (0, 0) at -3 log 2 for the one slot left;
    # (0, 0) must win. A stable argsort over the live hypotheses in score
    # order would keep (1, 0).
    half, quarter = math.log(0.5), math.log(0.25)
    am = TableAcousticScorer(3, {"": [quarter, half, quarter],
                                 "1": [quarter, quarter, half],
                                 "0": [half, quarter, quarter]})
    seen = []

    class Recording:
        def log_probs(self, prefix, context):
            seen.append(prefix)
            return am.log_probs(prefix, context)

    assert half + quarter == quarter + half  # the three-way tie is exact
    lm = BigramLanguageScorer([-math.log(3)] * 3, [[-math.log(3)] * 3] * 3)
    w = FusionWeights(0.0, 0.0)
    got = beam_search(Recording(), lm, uniform_prior(3), w, 2, 3, eos_id=2)
    step3 = [p for p in seen if len(p) == 3]
    assert step3 == [(fusion.SOS_ID, 0, 0)]
    want = object_sort_search(am, lm, uniform_prior(3), w, 2, 3, eos_id=2)
    assert_same_hypothesis(got, want)
    assert got.tokens == (fusion.SOS_ID, 1, 2)


# few distinct values, so ties are the rule; -0.0 ties with 0.0
_cut_values = st.one_of(st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 2.0]),
                        st.floats(-4.0, 4.0))


@settings(deadline=None)
@given(st.lists(_cut_values, min_size=1, max_size=48))
@example([-np.inf])
@example([-np.inf] * 7)
@example([0.0, -0.0, 0.0, -np.inf, -0.0])
def test_beam_cut_keeps_the_first_k_of_a_stable_argsort(values):
    cand = np.array(values)
    for k in range(1, cand.size + 3):
        kept = fusion._beam_cut(cand, k)
        assert kept.tolist() == np.sort(np.argsort(-cand, kind="stable")[:k]).tolist()


class Fixed:
    def __init__(self, row):
        self.row = np.array(row, dtype=np.float64)

    def log_probs(self, prefix, context):
        return self.row


def contract_outcome(which, row):
    """The ScorerContractError message of beam_search and exhaustive_search
    when the AM or the LM returns row at every step, or None when both pass;
    any warning raised on the way fails the test."""
    good = Fixed([-math.log(3)] * 3)
    bad = Fixed(row)
    am, lm = (bad, good) if which == "am" else (good, bad)
    w = FusionWeights(0.0, 0.5)
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for search in (lambda: beam_search(am, lm, uniform_prior(3), w, 2, 2, eos_id=2),
                       lambda: exhaustive_search(am, lm, uniform_prior(3), w, 2, eos_id=2)):
            try:
                search()
                messages.append(None)
            except ScorerContractError as exc:
                messages.append(str(exc))
    assert messages[0] == messages[1]
    return messages[0]


SCORER = {"am": "acoustic scorer", "lm": "language model scorer"}


@pytest.mark.parametrize("which", ["am", "lm"])
def test_a_row_with_a_small_positive_entry_passes(which):
    for top in (1e-12, 5e-7, 1e-6):
        assert contract_outcome(which, [top, -np.inf, -np.inf]) is None


@pytest.mark.parametrize("which", ["am", "lm"])
def test_a_row_with_a_large_entry_fails_without_a_warning(which):
    for row in ([800.0, -np.inf, -np.inf], [800.0, 0.0, -1.0], [1.5, -40.0, -50.0]):
        want = np.logaddexp.reduce(row)
        assert contract_outcome(which, row) == (
            f"{SCORER[which]} output is not normalized (logsumexp={want:.2e})")


@pytest.mark.parametrize("which", ["am", "lm"])
def test_the_normalization_bound_is_one_millionth(which):
    base = np.log([0.5, 0.3, 0.2])
    for shift in (0.9e-6, -0.9e-6):
        assert contract_outcome(which, base + shift) is None
    for shift in (1.1e-6, -1.1e-6):
        message = contract_outcome(which, base + shift)
        assert re.fullmatch(rf"{SCORER[which]} output is not normalized "
                            rf"\(logsumexp={shift:.2e}\)", message)


@pytest.mark.parametrize("row", [
    [np.nan, np.nan, np.nan],
    [-np.inf, -np.inf, -np.inf],
    [np.inf, -np.inf, -np.inf],
    [np.inf, 0.0, -1.0],
    [0.0, np.nan, -np.inf],
    [-800.0, -800.0, -800.0],
], ids=["all-nan", "all-neg-inf", "pos-inf", "pos-inf-finite", "nan-entry", "underflow"])
@pytest.mark.parametrize("which", ["am", "lm"])
def test_non_finite_scorer_output_breaks_the_contract(row, which):
    want = "-7.99e+02" if row[0] == -800.0 else "nan"
    assert contract_outcome(which, row) == (
        f"{SCORER[which]} output is not normalized (logsumexp={want})")


def test_neg_inf_entries_in_a_normalized_row_are_legal():
    row = Fixed([math.log(0.5), -np.inf, math.log(0.5)])  # token 1 impossible
    w = FusionWeights(0.0, 0.5)
    best = beam_search(row, row, uniform_prior(3), w, 2, 2, eos_id=2)
    oracle = exhaustive_search(row, row, uniform_prior(3), w, 2, eos_id=2)
    assert best == oracle
    assert best.tokens == (fusion.SOS_ID, 2)
    assert best.score == 1.5 * math.log(0.5)


def loop_prior(corpus, vocab_size, smoothing=1.0):
    """The per-token counting loop estimate_prior replaced, as its oracle."""
    counts = np.zeros(vocab_size, dtype=np.float64)
    total = 0
    for seq in corpus:
        for tok in seq:
            counts[tok] += 1
            total += 1
    return np.log((counts + smoothing) / (total + smoothing * vocab_size))


def test_estimate_prior_is_bit_identical_to_the_counting_loop():
    rng = np.random.default_rng(30)
    for trial in range(40):
        vocab = int(rng.integers(1, 70))
        corpus = [rng.integers(0, vocab, int(rng.integers(0, 30))).tolist()
                  for _ in range(int(rng.integers(1, 200)))]
        smoothing = float(rng.choice([1.0, 0.5, 1e-3, 7.25]))
        got = estimate_prior(corpus, vocab, smoothing).log_probs
        want = loop_prior(corpus, vocab, smoothing)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_estimate_prior_takes_any_iterable_of_sequences():
    corpus = [[0, 1], (2, 2), np.array([1, 0, 3]), [np.uint8(3)]]
    want = estimate_prior(corpus, 4).log_probs
    got = estimate_prior((seq for seq in corpus), 4).log_probs
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(
        want.view(np.uint64), loop_prior(corpus, 4).view(np.uint64))


@pytest.mark.parametrize("corpus", [
    [[0, 4]], [[-1, 0]], [[0], [2**64]],
], ids=["too-large", "negative", "huge"])
def test_estimate_prior_rejects_out_of_range_tokens(corpus):
    with pytest.raises(ValueError):
        estimate_prior(corpus, vocab_size=4)


@pytest.mark.parametrize("corpus", [
    [[0, 1.5]], [[2.0]], [[np.float64(1.0)]], [["a"]], [[[0, 1]]], [3],
], ids=["fraction", "integral-float", "numpy-float", "string", "nested", "not-a-sequence"])
def test_estimate_prior_refuses_non_integer_tokens(corpus):
    with pytest.raises(ValueError, match="integers"):
        estimate_prior(corpus, vocab_size=4)


def test_estimate_prior_rejects_a_corpus_of_empty_sequences():
    with pytest.raises(ValueError, match="no tokens"):
        estimate_prior([[], ()], vocab_size=3)


def test_fused_step_on_stacked_rows_matches_per_row_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    for weights in (FusionWeights(0.005, 0.45), FusionWeights(0.3, 0.0),
                    FusionWeights(0.0, 2.0)):
        am = normalized_rows(rng, (7, 9))
        lm = normalized_rows(rng, (7, 9))
        am[rng.random(am.shape) < 0.2] = -np.inf
        lm[rng.random(lm.shape) < 0.2] = -np.inf
        prior = PriorModel(normalized_rows(rng, 9))
        stacked = fused_step(am, lm, prior, weights)
        rows = np.array([fused_step(a, b, prior, weights) for a, b in zip(am, lm)])
        assert stacked.shape == (7, 9)
        assert np.isneginf(stacked).any()
        np.testing.assert_array_equal(stacked.view(np.uint64), rows.view(np.uint64))
        if weights.lambda_lm:
            want = am - weights.lambda_prior * prior.log_probs + weights.lambda_lm * lm
            np.testing.assert_array_equal(stacked.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("am_shape, lm_shape", [
    ((2, 3), (3, 3)), ((2, 3), (3,)), ((2, 4), (2, 4)), ((), ()),
])
def test_fused_step_rejects_mismatched_stacks(am_shape, lm_shape):
    with pytest.raises(ValueError):
        fused_step(np.zeros(am_shape), np.zeros(lm_shape), uniform_prior(3),
                   FusionWeights())


def test_beam_search_calls_fused_step_once_per_step_on_all_live_rows(monkeypatch):
    rng = np.random.default_rng(32)
    am, lm, prior = random_instance(rng, vocab=4, max_len=4)
    calls = []

    def recording(am_rows, lm_rows, prior, weights):
        calls.append((am_rows.shape, lm_rows.shape))
        return fused_step(am_rows, lm_rows, prior, weights)

    monkeypatch.setattr(fusion, "fused_step", recording)
    w = FusionWeights(0.005, 0.45)
    got = beam_search(am, lm, prior, w, beam_size=3, max_len=4, eos_id=7)
    monkeypatch.undo()
    # eos is never taken, so the beam stays full after the first step
    assert calls == [((1, 4), (1, 4)), ((3, 4), (3, 4)), ((3, 4), (3, 4)),
                     ((3, 4), (3, 4))]
    assert_same_hypothesis(got, object_sort_search(am, lm, prior, w, 3, 4, 7))


def test_beam_search_calls_every_am_row_then_every_lm_row_in_token_order():
    rng = np.random.default_rng(33)
    am, lm, prior = random_instance(rng, vocab=4, max_len=3)
    order = []

    class Recording:
        def __init__(self, name, inner):
            self.name, self.inner = name, inner

        def log_probs(self, prefix, context):
            order.append((self.name, prefix))
            return self.inner.log_probs(prefix, context)

    beam_search(Recording("am", am), Recording("lm", lm), prior,
                FusionWeights(0.005, 0.45), beam_size=3, max_len=3, eos_id=7)
    steps = [order[:2]] + [order[2 + 6 * k:8 + 6 * k] for k in range(2)]
    assert len(order) == 2 + 6 * 2
    for step in steps:
        half = len(step) // 2
        assert [n for n, _ in step] == ["am"] * half + ["lm"] * half
        prefixes = [p for _, p in step[:half]]
        assert prefixes == sorted(prefixes) == [p for _, p in step[half:]]


class ShapedAfter:
    """A uniform scorer that returns row once the prefix is `after` long."""

    def __init__(self, row, after):
        self.row, self.after = np.asarray(row, dtype=np.float64), after

    def log_probs(self, prefix, context):
        if len(prefix) >= self.after:
            return self.row
        return np.full(3, -math.log(3))


@pytest.mark.parametrize("row, message", [
    (np.full(4, -math.log(4)), "shape"),
    (np.full((1, 3), -math.log(3)), "shape"),
    (np.zeros(3), "not normalized"),
], ids=["length", "rank", "normalisation"])
@pytest.mark.parametrize("which", ["am", "lm"])
def test_a_broken_scorer_is_named_in_the_contract_error(row, message, which):
    good = Fixed([-math.log(3)] * 3)
    bad = ShapedAfter(row, after=2)  # breaks the contract from the second step
    am, lm = (bad, good) if which == "am" else (good, bad)
    name = "acoustic scorer" if which == "am" else "language model scorer"
    w = FusionWeights(0.0, 0.5)
    with pytest.raises(ScorerContractError, match=f"{name}.*{message}"):
        beam_search(am, lm, uniform_prior(3), w, 2, 3, eos_id=2)
    with pytest.raises(ScorerContractError, match=f"{name}.*{message}"):
        exhaustive_search(am, lm, uniform_prior(3), w, 3, eos_id=2)


def test_a_non_numeric_row_breaks_the_contract():
    good = Fixed([-math.log(3)] * 3)

    class Words:
        def log_probs(self, prefix, context):
            return ["a", "b", "c"]

    with pytest.raises(ScorerContractError, match="language model scorer"):
        beam_search(good, Words(), uniform_prior(3), FusionWeights(), 2, 2, eos_id=2)


def test_zero_lm_weight_ignores_an_lm_that_forbids_the_best_token():
    # 0 * -inf is NaN; a zero LM weight must drop the term, not rank token 0
    # last. eos (3) is outside the vocabulary, so both searches pick among the
    # live one-token hypotheses.
    am = Fixed(np.log([0.7, 0.2, 0.1]))
    forbidding = Fixed([-np.inf, 0.0, -np.inf])
    uniform = Fixed([-math.log(3)] * 3)
    w = FusionWeights(0.0, 0.0)
    for lm in (forbidding, uniform):
        best = beam_search(am, lm, uniform_prior(3), w, 1, 1, eos_id=3)
        oracle = exhaustive_search(am, lm, uniform_prior(3), w, 1, eos_id=3)
        assert best.tokens == oracle.tokens == (fusion.SOS_ID, 0)
        assert best.score == oracle.score == math.log(0.7)
    assert not np.isnan(fused_step(am.row, forbidding.row, uniform_prior(3), w)).any()
