"""Streaming combinators: interleave, shuffle, map stages, padded batches."""

import itertools

import numpy as np
import pytest

from esf import pipeline
from esf.acoustic import SimulatorConfig
from esf.errors import ConfigurationError
from esf.pipeline import (Example, MapStats, PipelineConfig, Tokenizer,
                          build_char_vocab, build_pipeline, interleave,
                          map_stage, padded_batch, shuffle, write_vocab)
from esf.recordio import UtteranceRecord, write_shards
from esf.synth import write_synth_corpus
from esf.util import crc32c, hash64, round_robin
from esf.vtlp import WarpSpec
from esf.wire import encode_batch


def shard_of(tmp_path, name, ids):
    recs = [UtteranceRecord(x, 16000, np.zeros(4, dtype=np.int16), x) for x in ids]
    pattern = str(tmp_path / (name + "-{shard}.esrd"))
    return write_shards(recs, 1, pattern).shard_paths[0]


def test_interleave_round_robin(tmp_path):
    a = shard_of(tmp_path, "a", ["A1", "A2"])
    b = shard_of(tmp_path, "b", ["B1", "B2"])
    got = [r.utt_id for r in interleave([a, b], 2)]
    assert got == ["A1", "B1", "A2", "B2"]


def test_interleave_cycle_one_concatenates(tmp_path):
    a = shard_of(tmp_path, "a", ["A1", "A2"])
    b = shard_of(tmp_path, "b", ["B1"])
    got = [r.utt_id for r in interleave([a, b], 1)]
    assert got == ["A1", "A2", "B1"]


def test_interleave_uneven_slot_replacement(tmp_path):
    # hand-executed slot rule: when A runs dry with no unopened shard left,
    # its slot disappears and B drains in order
    a = shard_of(tmp_path, "a", ["A1"])
    b = shard_of(tmp_path, "b", ["B1", "B2", "B3"])
    got = [r.utt_id for r in interleave([a, b], 2)]
    assert got == ["A1", "B1", "B2", "B3"]


def test_interleave_slot_takeover(tmp_path):
    a = shard_of(tmp_path, "a", ["A1"])
    b = shard_of(tmp_path, "b", ["B1", "B2"])
    c = shard_of(tmp_path, "c", ["C1"])
    got = [r.utt_id for r in interleave([a, b, c], 2)]
    assert got == ["A1", "B1", "C1", "B2"]


def test_interleave_exactly_once(tmp_path):
    shards = [shard_of(tmp_path, f"s{i}", [f"u{i}-{j}" for j in range(i + 1)])
              for i in range(4)]
    got = [r.utt_id for r in interleave(shards, 3)]
    assert len(got) == len(set(got)) == 1 + 2 + 3 + 4


def test_interleave_opens_shards_lazily_through_the_module_global(monkeypatch):
    calls, live, peak = [], set(), []

    def fake_read_shard(path):
        calls.append(path)
        live.add(path)
        peak.append(len(live))

        def records():
            yield from path.split()
            live.discard(path)
        return records()

    monkeypatch.setattr(pipeline, "read_shard", fake_read_shard)
    paths = ["A1 A2", "", "B1", "C1 C2 C3", "D1"]
    stream = interleave(paths, 2)
    assert next(stream) == "A1"
    assert calls == paths[:2]  # only the first cycle is open
    assert list(stream) == ["B1", "A2", "C1", "D1", "C2", "C3"]
    assert calls == paths and max(peak) == 2


@pytest.mark.parametrize("sizes", [[0, 3, 6, 1, 2], [6, 0, 0, 4, 1], [2, 2, 2, 2, 2]])
def test_round_robin_over_every_source_sweeps_one_item_each_per_round(sizes):
    sources = [[(i, j) for j in range(n)] for i, n in enumerate(sizes)]

    def sweep(srcs):
        return [src[j] for j in range(max(sizes)) for src in srcs if j < len(src)]

    for srcs in (sources, sources[::-1]):
        assert list(round_robin(srcs)) == sweep(srcs)
    assert list(round_robin(sources, len(sources))) == sweep(sources)


def test_shuffle_buffer_one_is_identity():
    assert list(shuffle(range(20), 1, seed=9)) == list(range(20))


def test_shuffle_deterministic_and_conserving():
    items = list(range(100))
    a = list(shuffle(items, 16, seed=3))
    b = list(shuffle(items, 16, seed=3))
    c = list(shuffle(items, 16, seed=4))
    assert a == b
    assert a != c
    assert sorted(a) == items


def test_shuffle_full_buffer_uniformity_chi_square():
    # 3-element stream, buffer covers it all: 6 permutations, 10k trials
    counts = {p: 0 for p in itertools.permutations((0, 1, 2))}
    for trial in range(10_000):
        counts[tuple(shuffle([0, 1, 2], 3, seed=trial))] += 1
    expected = 10_000 / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom, p > 0.01 -> chi2 below 15.086
    assert chi2 < 15.086


def test_map_stage_order_independent_of_width():
    def slow_square(x, seed):
        import time
        time.sleep(0.001 * (x % 3))
        return x * x

    items = list(range(40))
    w1 = list(map_stage(items, slow_square, 1))
    w8 = list(map_stage(items, slow_square, 8))
    assert w1 == w8 == [x * x for x in items]


def test_map_stage_per_record_seeds_are_stable():
    seen = {}

    def record_seed(x, ordinal):
        seen[x] = hash64(77, 2, ordinal)
        return x

    list(map_stage(range(5), record_seed, 1))
    again = {}

    def record_seed2(x, ordinal):
        again[x] = hash64(77, 2, ordinal)
        return x

    list(map_stage(range(5), record_seed2, 4))
    assert seen == again
    assert len(set(seen.values())) == 5


def test_map_stage_skip_and_count():
    def maybe_fail(x, seed):
        if x % 3 == 0:
            raise RuntimeError("corrupt")
        return x

    stats = MapStats()
    got = list(map_stage(range(10), maybe_fail, 2, stats=stats))
    assert got == [x for x in range(10) if x % 3 != 0]
    assert stats.skipped == 4


def test_map_stage_raise_policy():
    def boom(x, seed):
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        list(map_stage([1], boom, 1, on_error="raise"))


def ex(utt_id, t, f=3, labels=()):
    return Example(utt_id, np.full((t, f), float(t), dtype=np.float32),
                   np.asarray(labels, dtype=np.int32))


def test_padded_batch_pads_to_batch_max():
    batches = list(padded_batch([ex("a", 3, labels=[1]), ex("b", 5, labels=[2, 3])],
                                batch_size=2, pad_value=-7.0))
    (b,) = batches
    assert b.features.shape == (2, 5, 3)
    assert list(b.feature_lengths) == [3, 5]
    assert np.all(b.features[0, 3:] == -7.0)
    assert list(b.label_lengths) == [1, 2]
    assert b.labels[0, 1] == pipeline.PAD_ID


def test_padded_batch_final_partial():
    batches = list(padded_batch([ex(str(i), 2) for i in range(5)], 2))
    assert [b.size for b in batches] == [2, 2, 1]


def test_padded_batch_single_no_padding():
    (b,) = padded_batch([ex("a", 4, labels=[5])], 1)
    assert b.features.shape == (1, 4, 3)
    assert list(b.feature_lengths) == [4]


def test_tokenizer_round_trip_and_specials(tmp_path):
    vocab = build_char_vocab(["hello world"])
    path = str(tmp_path / "vocab.txt")
    write_vocab(path, vocab)
    tok = Tokenizer.from_file(path)
    assert tok.pad_id == 0
    ids = tok.encode("hello world")
    assert tok.decode(ids) == "hello world"
    assert tok.encode("z") == [tok.unk_id]


def test_tokenizer_requires_pad_first():
    with pytest.raises(ConfigurationError):
        Tokenizer(["a", "<s>", "</s>", "<unk>"])
    with pytest.raises(ConfigurationError):
        Tokenizer(["<pad>", "<s>", "</s>"])  # missing unk


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    shards, vocab = write_synth_corpus(str(tmp), 30, 4, seed=21)
    return shards, vocab


def stream_checksum(cfg, warp=None, sim=None, epoch=0):
    h = 0
    ids = []
    for batch in build_pipeline(cfg, warp, sim, epoch=epoch):
        h = crc32c(encode_batch(batch), h)
        ids.extend(batch.utt_ids)
    return h, ids


def test_build_pipeline_deterministic_and_exactly_once(small_corpus):
    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=4, shuffle_buffer=8, seed=5)
    warp = WarpSpec()
    sim = SimulatorConfig(max_image_order=3)
    h1, ids1 = stream_checksum(cfg, warp, sim)
    h2, ids2 = stream_checksum(cfg, warp, sim)
    assert h1 == h2
    assert ids1 == ids2
    assert len(ids1) == 30
    assert len(set(ids1)) == 30


def test_build_pipeline_width_independent(small_corpus):
    shards, vocab = small_corpus
    sims = SimulatorConfig(max_image_order=3)
    checksums = set()
    for width in (1, 2, 8):
        cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                             batch_size=4, shuffle_buffer=8, seed=5,
                             parallel_map_width=width)
        checksums.add(stream_checksum(cfg, WarpSpec(), sims)[0])
    assert len(checksums) == 1


@pytest.mark.parametrize("width", [1, 2])
def test_build_pipeline_stream_bytes_are_pinned(small_corpus, width):
    # CRC32C chain of the encoded batches; any change to a stage's
    # arithmetic, its seeds or the record order moves it
    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=4, shuffle_buffer=8, seed=5,
                         parallel_map_width=width)
    sim = SimulatorConfig(max_image_order=3)
    assert stream_checksum(cfg, WarpSpec(), sim, epoch=0)[0] == 0x6228af86
    assert stream_checksum(cfg, WarpSpec(), sim, epoch=1)[0] == 0x7ee79532


def test_skipped_record_shifts_no_later_seed(small_corpus, monkeypatch):
    # a record that fails VTLP leaves every other record's simulation seed
    # as it is: seeds are keyed on the position in the shuffled stream
    from esf.recordio import read_all

    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=4, shuffle_buffer=8, seed=5)
    audio = {r.utt_id: r.float_samples() for r in read_all(shards)}
    real_vtlp, real_simulate = pipeline.vtlp_resynthesize, pipeline.simulate

    def run(victim):
        sim_states = {}

        def failing_vtlp(w, spec, rng):
            if victim is not None and np.array_equal(w.samples, audio[victim]):
                raise RuntimeError("corrupt")
            return real_vtlp(w, spec, rng=rng)

        def recording_simulate(rec, rng, config):
            sim_states[rec.utt_id] = rng.bit_generator.state["state"]["state"]
            return real_simulate(rec, rng, config)

        monkeypatch.setattr(pipeline, "vtlp_resynthesize", failing_vtlp)
        monkeypatch.setattr(pipeline, "simulate", recording_simulate)
        stats = MapStats()
        batches = build_pipeline(cfg, WarpSpec(), SimulatorConfig(max_image_order=1),
                                 stats=stats)
        ids = [u for b in batches for u in b.utt_ids]
        return ids, sim_states, stats.skipped

    ids, clean, skipped = run(None)
    assert skipped == 0
    victim = ids[2]
    faulty_ids, faulty, skipped = run(victim)
    assert skipped == 1
    assert faulty_ids == [u for u in ids if u != victim]
    assert faulty == {u: s for u, s in clean.items() if u != victim}


def test_build_pipeline_runs_one_pool_of_width_threads(small_corpus, monkeypatch):
    import threading

    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=4, shuffle_buffer=8, seed=5,
                         parallel_map_width=2)
    before = set(threading.enumerate())
    peak = [0]

    def count_workers():
        workers = [t for t in threading.enumerate() if t not in before
                   and t.name.startswith("ThreadPoolExecutor")]
        peak[0] = max(peak[0], len(workers))

    real_simulate = pipeline.simulate

    def counting_simulate(rec, rng, config):
        count_workers()
        return real_simulate(rec, rng, config)

    monkeypatch.setattr(pipeline, "simulate", counting_simulate)
    for _ in build_pipeline(cfg, WarpSpec(), SimulatorConfig(max_image_order=1)):
        count_workers()
    assert 1 <= peak[0] <= 2


def test_build_pipeline_epochs_differ_but_conserve(small_corpus):
    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=4, shuffle_buffer=8, seed=5)
    h0, ids0 = stream_checksum(cfg, WarpSpec(), None, epoch=0)
    h1, ids1 = stream_checksum(cfg, WarpSpec(), None, epoch=1)
    assert h0 != h1  # different shuffle and augmentation draws
    assert sorted(ids0) == sorted(ids1)


def test_build_pipeline_no_augmentation_matches_direct_features(small_corpus):
    from esf import dsp
    from esf.recordio import read_all

    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=1, shuffle_buffer=1, seed=0)
    records = {r.utt_id: r for r in read_all(shards)}
    for batch in build_pipeline(cfg):
        rec = records[batch.utt_ids[0]]
        direct = dsp.extract_power_mel(
            dsp.Waveform(rec.float_samples(), rec.sample_rate))
        t = int(batch.feature_lengths[0])
        np.testing.assert_array_equal(batch.features[0, :t],
                                      direct.values.astype(np.float32))


def test_batch_record_count_conservation(small_corpus):
    shards, vocab = small_corpus
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=7, shuffle_buffer=4, seed=1)
    sizes = [b.size for b in build_pipeline(cfg)]
    assert sum(sizes) == 30
    assert sizes == [7, 7, 7, 7, 2]


def test_vtlp_runs_strictly_before_simulation(small_corpus, monkeypatch):
    # each step appends its metadata, so the order of keys is execution order
    shards, vocab = small_corpus
    real_simulate = pipeline.simulate
    orders = []

    def checked_simulate(rec, rng, config):
        assert "vtlp.alpha" in dict(rec.metadata)
        out = real_simulate(rec, rng, config)
        orders.append([k for k, _ in out.metadata])
        return out

    monkeypatch.setattr(pipeline, "simulate", checked_simulate)
    cfg = PipelineConfig(shard_paths=shards.shard_paths, vocab_path=vocab,
                         batch_size=4, shuffle_buffer=8, seed=5)
    list(build_pipeline(cfg, WarpSpec(), SimulatorConfig(max_image_order=2)))
    assert len(orders) == 30
    for keys in orders:
        assert keys.index("vtlp.alpha") < keys.index("room.dims")


def test_map_error_policy_skip_vs_raise(tmp_path, small_corpus):
    # a 50-sample record cannot fill one analysis window: the feature stage
    # fails on it, and the policy decides between skipping and aborting
    _, vocab = small_corpus
    records = [UtteranceRecord("ok-1", 16000, np.zeros(8000, dtype=np.int16), "a"),
               UtteranceRecord("tiny", 16000, np.zeros(50, dtype=np.int16), "b"),
               UtteranceRecord("ok-2", 16000, np.zeros(8000, dtype=np.int16), "c")]
    shard_set = write_shards(records, 1, str(tmp_path / "t-{shard}.esrd"))
    cfg = PipelineConfig(shard_paths=shard_set.shard_paths, vocab_path=vocab,
                         shuffle_buffer=1, batch_size=1)
    stats = MapStats()
    ids = [b.utt_ids[0] for b in build_pipeline(cfg, stats=stats)]
    assert ids == ["ok-1", "ok-2"]
    assert stats.skipped == 1
    cfg_strict = PipelineConfig(shard_paths=shard_set.shard_paths,
                                vocab_path=vocab, shuffle_buffer=1,
                                batch_size=1, map_error_policy="raise")
    with pytest.raises(ValueError):
        list(build_pipeline(cfg_strict))
    with pytest.raises(ConfigurationError):
        PipelineConfig(shard_paths=[], map_error_policy="sometimes")


def test_pipeline_config_validation():
    with pytest.raises(ConfigurationError):
        PipelineConfig(shard_paths=[], batch_size=0)
    with pytest.raises(ConfigurationError):
        PipelineConfig(shard_paths=[], shuffle_buffer=0)
    for width in (0, -2):
        with pytest.raises(ConfigurationError):
            PipelineConfig(shard_paths=[], parallel_map_width=width)
