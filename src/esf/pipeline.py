"""Deterministic streaming dataset combinators.

Stages compose as generators: interleaved shard reading, buffered shuffle,
one order-preserving (optionally parallel) map of a fused per-record
transform (VTLP, acoustic simulation, power-mel features, tokenize), and
padded batching. The whole stream is a pure function of (corpus bytes, config,
seed, epoch): each record's augmentation seeds derive from the pipeline seed,
the epoch and the record's position in the shuffled stream, so output is
identical for any parallel_map_width.
"""

from __future__ import annotations

import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import dsp
from .acoustic import SimulatorConfig, simulate
from .errors import ConfigurationError
from .recordio import ShardSet, UtteranceRecord, read_shard
from .util import hash64, round_robin
from .vtlp import WarpSpec, vtlp_resynthesize

PAD_ID = 0

# fixed stage indices folded into per-stage seeds
_STAGE_SHUFFLE = 1
_STAGE_VTLP = 2
_STAGE_SIM = 3


@dataclass
class PipelineConfig:
    shard_paths: list[str]
    interleave_cycle_length: int = 2
    shuffle_buffer: int = 64
    batch_size: int = 8
    pad_value: float = 0.0
    seed: int = 0
    parallel_map_width: int = 1
    vocab_path: str | None = None
    map_error_policy: str = "skip"  # "skip" (count and continue) or "raise"

    def __post_init__(self):
        if self.interleave_cycle_length < 1:
            raise ConfigurationError("interleave_cycle_length must be >= 1")
        if self.shuffle_buffer < 1:
            raise ConfigurationError("shuffle_buffer must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.parallel_map_width < 1:
            raise ConfigurationError("parallel_map_width must be >= 1")
        if self.map_error_policy not in ("skip", "raise"):
            raise ConfigurationError("map_error_policy must be 'skip' or 'raise'")


@dataclass
class Batch:
    """Padded feature tensor plus per-example lengths and label ids."""

    features: np.ndarray  # (B, T_max, F) float32, pad_value beyond lengths
    feature_lengths: np.ndarray  # (B,) int32
    labels: np.ndarray  # (B, L_max) int32, PAD_ID beyond lengths
    label_lengths: np.ndarray  # (B,) int32
    utt_ids: list[str]

    @property
    def size(self) -> int:
        return self.features.shape[0]


class Tokenizer:
    """Character-level symbol table; line number in the vocab file is the id.

    Token 0 must be the pad symbol; sos/eos/unk symbols must be present.
    """

    PAD_TOKEN = "<pad>"
    SOS_TOKEN = "<s>"
    EOS_TOKEN = "</s>"
    UNK_TOKEN = "<unk>"

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigurationError("vocabulary contains duplicate tokens")
        self.ids = {t: i for i, t in enumerate(self.tokens)}
        if not self.tokens or self.tokens[0] != self.PAD_TOKEN:
            raise ConfigurationError(f"token 0 must be {self.PAD_TOKEN!r}")
        for special in (self.SOS_TOKEN, self.EOS_TOKEN, self.UNK_TOKEN):
            if special not in self.ids:
                raise ConfigurationError(f"vocabulary is missing {special!r}")
        self.pad_id = PAD_ID
        self.sos_id = self.ids[self.SOS_TOKEN]
        self.eos_id = self.ids[self.EOS_TOKEN]
        self.unk_id = self.ids[self.UNK_TOKEN]

    @classmethod
    def from_file(cls, path: str) -> "Tokenizer":
        with open(path, "r", encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        while tokens and tokens[-1] == "":
            tokens.pop()
        return cls(tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        return [self.ids.get(ch, self.unk_id) for ch in text]

    def decode(self, ids: Iterable[int]) -> str:
        return "".join(self.tokens[i] for i in ids)


def build_char_vocab(transcripts: Iterable[str]) -> list[str]:
    """Vocabulary list for a corpus: specials first, then sorted characters."""
    chars = sorted(set("".join(transcripts)))
    return [Tokenizer.PAD_TOKEN, Tokenizer.SOS_TOKEN, Tokenizer.EOS_TOKEN,
            Tokenizer.UNK_TOKEN] + chars


def write_vocab(path: str, tokens: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tokens:
            fh.write(t + "\n")


def interleave(shards: ShardSet | Sequence[str],
               cycle_length: int) -> Iterator[UtteranceRecord]:
    """Round-robin over cycle_length concurrently open shards.

    When a shard is exhausted the next unopened shard takes its slot; every
    record appears exactly once.
    """
    paths = shards.shard_paths if isinstance(shards, ShardSet) else shards
    return round_robin((read_shard(p) for p in paths), max(1, cycle_length))


def shuffle(stream: Iterable, buffer_size: int, seed: int) -> Iterator:
    """Buffered shuffle: fill the buffer, emit a uniformly chosen element,
    replace it with the next input. The permutation is a pure function of the
    seed; the output multiset equals the input."""
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    rng = random.Random(seed)
    buf: list = []
    for item in stream:
        if len(buf) < buffer_size:
            buf.append(item)
            continue
        j = rng.randrange(buffer_size)
        out = buf[j]
        buf[j] = item
        yield out
    while buf:
        j = rng.randrange(len(buf))
        yield buf[j]
        buf[j] = buf[-1]
        buf.pop()


@dataclass
class MapStats:
    skipped: int = 0


def map_stage(stream: Iterable, fn: Callable, width: int = 1, *,
              on_error: str = "skip", stats: MapStats | None = None) -> Iterator:
    """Order-preserving map over up to width threads.

    fn(item, ordinal) must be deterministic given its arguments; ordinal is
    the item's position in the input stream. Output order equals input order
    for any width. Failing records are skipped and counted unless
    on_error="raise".
    """
    if on_error not in ("skip", "raise"):
        raise ValueError(f"on_error must be 'skip' or 'raise', got {on_error!r}")
    stats = stats if stats is not None else MapStats()

    if width <= 1:
        for ordinal, item in enumerate(stream):
            try:
                yield fn(item, ordinal)
            except Exception:
                if on_error == "raise":
                    raise
                stats.skipped += 1
        return

    executor = ThreadPoolExecutor(max_workers=width)
    try:
        pending: deque = deque()
        it = enumerate(stream)
        exhausted = False
        while True:
            while not exhausted and len(pending) < width:
                try:
                    ordinal, item = next(it)
                except StopIteration:
                    exhausted = True
                    break
                pending.append(executor.submit(fn, item, ordinal))
            if not pending:
                break
            fut = pending.popleft()
            try:
                yield fut.result()
            except Exception:
                if on_error == "raise":
                    raise
                stats.skipped += 1
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


@dataclass
class Example:
    """Featurized utterance ready for batching."""

    utt_id: str
    features: np.ndarray  # (T, F) float32
    labels: np.ndarray  # (L,) int32


def padded_batch(stream: Iterable[Example], batch_size: int,
                 pad_value: float = 0.0) -> Iterator[Batch]:
    """Group consecutive examples, padding features/labels to per-batch maxima.

    The final partial batch is emitted.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    group: list[Example] = []
    for ex in stream:
        group.append(ex)
        if len(group) == batch_size:
            yield _make_batch(group, pad_value)
            group = []
    if group:
        yield _make_batch(group, pad_value)


def _make_batch(group: list[Example], pad_value: float) -> Batch:
    b = len(group)
    t_max = max(ex.features.shape[0] for ex in group)
    f_dim = group[0].features.shape[1]
    l_max = max(len(ex.labels) for ex in group)
    features = np.full((b, t_max, f_dim), pad_value, dtype=np.float32)
    labels = np.full((b, l_max), PAD_ID, dtype=np.int32)
    feature_lengths = np.zeros(b, dtype=np.int32)
    label_lengths = np.zeros(b, dtype=np.int32)
    for i, ex in enumerate(group):
        t = ex.features.shape[0]
        features[i, :t] = ex.features
        feature_lengths[i] = t
        l = len(ex.labels)
        labels[i, :l] = ex.labels
        label_lengths[i] = l
    return Batch(features, feature_lengths, labels, label_lengths,
                 [ex.utt_id for ex in group])


def build_pipeline(cfg: PipelineConfig, warp_spec: WarpSpec | None = None,
                   sim_config: SimulatorConfig | None = None, *,
                   epoch: int = 0, stats: MapStats | None = None) -> Iterator[Batch]:
    """Full example-server stream: interleave, shuffle, one per-record
    transform (VTLP strictly before acoustic simulation, then features and
    labels), and batch.

    A record's VTLP and simulation seeds are keyed on its position in the
    shuffled stream, so a record skipped by one step shifts no other
    record's seeds.
    """
    if cfg.vocab_path is None:
        raise ConfigurationError("pipeline requires a vocab_path for the tokenizer")
    tokenizer = Tokenizer.from_file(cfg.vocab_path)
    vtlp_seed = hash64(cfg.seed, _STAGE_VTLP)
    sim_seed = hash64(cfg.seed, _STAGE_SIM)

    def transform(rec: UtteranceRecord, ordinal: int) -> Example:
        # the stage functions resolve through module globals on every call, so
        # a wrapper installed on esf.pipeline or esf.dsp sees each record
        if warp_spec is not None:
            rng = np.random.default_rng(hash64(vtlp_seed, epoch, ordinal))
            w = dsp.Waveform(rec.float_samples(), rec.sample_rate)
            res = vtlp_resynthesize(w, warp_spec, rng=rng)
            meta = list(rec.metadata) + [("vtlp.alpha", f"{res.alpha:.6f}")]
            rec = UtteranceRecord.from_float(rec.utt_id, rec.sample_rate,
                                             res.waveform.samples, rec.transcript, meta)
        if sim_config is not None:
            rng = np.random.default_rng(hash64(sim_seed, epoch, ordinal))
            rec = simulate(rec, rng, sim_config)
        feats = dsp.extract_power_mel(dsp.Waveform(rec.float_samples(), rec.sample_rate))
        return Example(rec.utt_id, feats.values.astype(np.float32),
                       np.asarray(tokenizer.encode(rec.transcript), dtype=np.int32))

    stream: Iterable = interleave(cfg.shard_paths, cfg.interleave_cycle_length)
    stream = shuffle(stream, cfg.shuffle_buffer,
                     hash64(cfg.seed, epoch, _STAGE_SHUFFLE))
    stream = map_stage(stream, transform, cfg.parallel_map_width,
                       on_error=cfg.map_error_policy, stats=stats)
    yield from padded_batch(stream, cfg.batch_size, cfg.pad_value)
