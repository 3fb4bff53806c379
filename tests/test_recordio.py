"""Shard storage: round trips, framing, and corruption detection."""

import io
import re
import resource
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esf import recordio, util, wire
from esf.errors import CorruptionError, FormatError, TruncationError
from esf.util import crc32c


def crc32c_bitwise(data: bytes, value: int = 0) -> int:
    """Independent bit-at-a-time CRC32C for cross-checking the table version."""
    crc = value ^ 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def test_crc32c_rfc3720_vectors():
    # RFC 3720 appendix B.4
    assert crc32c(b"") == 0
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"\x00" * 32) == 0x8A9136AA
    assert crc32c(b"\xff" * 32) == 0x62A8AB43
    assert crc32c(bytes(range(32))) == 0x46DD794E
    assert crc32c(bytes(range(31, -1, -1))) == 0x113FDB5C


def test_crc32c_matches_bitwise_reference():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 64, 1000):
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert crc32c(data) == crc32c_bitwise(data)


# lengths on both sides of the kernel's 8-byte step and of 256-byte edges,
# and a few hundred steps long
_crc_lengths = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 5, 255, 256, 257, 511, 512, 513]),
    st.integers(0, 2100))
_crc_data = _crc_lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))


def _kernel_constant(name: str) -> int:
    (value,) = re.findall(rf"^#define {name} (\d+)", util._SOURCE.read_text(), re.MULTILINE)
    return int(value)


# the kernel runs STREAMS streams over groups of STREAMS adjacent blocks
_STREAMS = _kernel_constant("STREAMS")
_BLOCK = _kernel_constant("BLOCK")
_GROUP = _STREAMS * _BLOCK
# lengths on both sides of one and two whole groups, and up to three groups
_crc_large_lengths = st.one_of(
    st.sampled_from([k * _GROUP + d for k in (1, 2) for d in (-9, -8, -1, 0, 1, 7, 8)]),
    st.integers(_GROUP - 64, 3 * _GROUP + 64))


@settings(deadline=None)
@given(_crc_data)
def test_crc32c_property_matches_bitwise_reference(data):
    assert crc32c(data) == crc32c_bitwise(data)


@settings(deadline=None)
@given(_crc_data, _crc_data)
def test_crc32c_property_continues_from_a_previous_value(a, b):
    assert crc32c(a + b) == crc32c(b, crc32c(a))


@settings(deadline=None)
@given(_crc_data, st.integers(0, 2**32 - 1))
def test_crc32c_property_same_for_bytes_bytearray_memoryview(data, value):
    expected = crc32c(data, value)
    assert crc32c(bytearray(data), value) == expected
    assert crc32c(memoryview(data), value) == expected
    padded = bytearray(b"x" + data + b"y")
    assert crc32c(memoryview(padded)[1:-1], value) == expected


def test_crc32c_spanning_several_gather_slices_matches_bitwise_reference():
    data = np.random.default_rng(5).integers(0, 256, 3 * 65536 + 7,
                                             dtype=np.uint8).tobytes()
    assert crc32c(data) == crc32c_bitwise(data)


_MEGABYTE = np.random.default_rng(11).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
_MEGABYTE_CRC = crc32c(_MEGABYTE)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 8 * len(_MEGABYTE) - 1))
@example(0)
@example(8 * len(_MEGABYTE) - 1)
def test_crc32c_property_single_bit_flip_in_a_megabyte_detected(bit):
    flipped = bytearray(_MEGABYTE)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert crc32c(flipped) != _MEGABYTE_CRC


def test_crc32c_every_short_length_at_every_alignment():
    rng = np.random.default_rng(3)
    buf = bytearray(rng.integers(0, 256, 80, dtype=np.uint8).tobytes())
    for start in range(8):
        for n in range(65):
            value = int(rng.integers(0, 2**32))
            data = memoryview(buf)[start:start + n]
            assert crc32c(data, value) == crc32c_bitwise(bytes(data), value), (start, n)


_CRC_TABLE = [crc32c_bitwise(bytes([i]), 0xFFFFFFFF) ^ 0xFFFFFFFF for i in range(256)]


def crc32c_table(data: bytes, value: int = 0) -> int:
    """Byte-at-a-time pure-Python CRC32C, fast enough for a megabyte."""
    crc = value ^ 0xFFFFFFFF
    for b in data:
        crc = _CRC_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def test_crc32c_large_sizes_with_initial_values_match_table_reference():
    rng = np.random.default_rng(7)
    assert crc32c_table(b"123456789") == 0xE3069283
    for n in (1 << 20, (1 << 20) - 1, 680_000, 96_001, 4099):
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        value = int(rng.integers(0, 2**32))
        assert crc32c(data, value) == crc32c_table(data, value), n


def test_crc32c_at_the_edges_of_whole_groups_matches_bitwise_reference():
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, 2 * _GROUP + 8, dtype=np.uint8).tobytes()
    value = int(rng.integers(1, 2**32))
    for k in (1, 2):
        for d in (-9, -8, -1, 0, 1, 7, 8):
            n = k * _GROUP + d
            assert crc32c(data[:n], value) == crc32c_bitwise(data[:n], value), n


def test_crc32c_of_groups_at_every_misaligned_start_matches_bitwise_reference():
    rng = np.random.default_rng(14)
    buf = bytearray(rng.integers(0, 256, _GROUP + 24, dtype=np.uint8).tobytes())
    for start in range(1, 8):
        data = memoryview(buf)[start:start + _GROUP + 9]
        value = int(rng.integers(1, 2**32))
        assert crc32c(data, value) == crc32c_bitwise(bytes(data), value), start


def test_crc32c_continues_across_a_split_inside_a_group():
    data = np.random.default_rng(15).integers(0, 256, 2 * _GROUP + 5, dtype=np.uint8).tobytes()
    whole = crc32c(data)
    assert whole == crc32c_table(data)
    for split in (1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 3, _GROUP - 8, _GROUP - 1,
                  _GROUP + 1, _GROUP + _BLOCK + 5, 2 * _GROUP - 3):
        assert crc32c(data[split:], crc32c(data[:split])) == whole, split


@settings(deadline=None, max_examples=30)
@given(_crc_large_lengths, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_crc32c_property_large_lengths_match_bitwise_reference(n, seed, value):
    # generated from a seed: hypothesis draws at most a few KiB of bytes
    data = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()
    assert crc32c(data, value) == crc32c_bitwise(data, value)


def test_a_bit_flip_in_any_block_of_a_group_or_in_the_tail_is_detected(tmp_path):
    # one flip in each of the streams of a group, then one past the group
    rng = np.random.default_rng(16)
    rec = recordio.UtteranceRecord(
        "group", 16000, rng.integers(-32768, 32767, (_GROUP + _BLOCK) // 2, dtype=np.int16))
    payload = recordio.encode_record(rec)
    assert _GROUP < len(payload) < 2 * _GROUP
    flips = [s * _BLOCK + int(rng.integers(0, _BLOCK)) for s in range(_STREAMS)]
    flips.append(int(rng.integers(_GROUP, len(payload))))
    frame = wire.encode_frame(wire.MsgType.BATCH, payload)
    path = recordio.write_shards([rec], 1, str(tmp_path / "s-{shard}.esrd")).shard_paths[0]
    shard = open(path, "rb").read()
    assert wire.FrameReader(io.BytesIO(frame).readinto).read_frame()[1] == payload
    assert records_equal(*recordio.read_shard(path), rec)
    for pos in flips:
        bit = 1 << int(rng.integers(0, 8))
        bad = bytearray(frame)
        bad[wire.HEADER_LEN + pos] ^= bit
        with pytest.raises(CorruptionError):
            wire.FrameReader(io.BytesIO(bad).readinto).read_frame()
        bad = bytearray(shard)
        bad[5 + 12 + pos] ^= bit  # past the file header, the length and its CRC
        (tmp_path / "bad.esrd").write_bytes(bad)
        with pytest.raises(CorruptionError):
            list(recordio.read_shard(str(tmp_path / "bad.esrd")))


def test_crc32c_rejects_non_contiguous_buffer():
    with pytest.raises(BufferError):
        crc32c(memoryview(bytearray(16))[::2])


def test_crc32c_of_a_frame_sized_buffer_takes_no_page_faults():
    data = np.random.default_rng(9).integers(0, 256, 680_000, dtype=np.uint8).tobytes()
    faults = []

    def measure():
        crc32c(memoryview(bytearray(data)))  # the first call's faults are not counted
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for _ in range(20):
            crc32c(data, 1)
            crc32c(memoryview(data), 2)
        faults.append((resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / 40)

    thread = threading.Thread(target=measure)
    thread.start()
    thread.join(timeout=60)
    assert faults and faults[0] < 5


def test_crc32c_kernel_is_built_once_and_then_loaded_from_the_cache(tmp_path, monkeypatch):
    first = util._load_kernel(tmp_path, util._COMPILER)
    assert first.esf_crc32c(0, b"123456789", 9) == 0xE3069283
    (library,) = tmp_path.iterdir()  # no partial file is left behind

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached kernel")

    monkeypatch.setattr(util.subprocess, "run", no_compiler)
    again = util._load_kernel(tmp_path, util._COMPILER)
    assert again.esf_crc32c(0, b"123456789", 9) == 0xE3069283
    assert list(tmp_path.iterdir()) == [library]


def test_crc32c_kernel_is_rebuilt_when_its_source_changes(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    first = util._load_kernel(cache, util._COMPILER)
    (library,) = cache.iterdir()
    changed = tmp_path / "crc32c.c"
    changed.write_text(util._SOURCE.read_text().replace("return ~crc;", "return ~crc ^ 1u;"))
    monkeypatch.setattr(util, "_SOURCE", changed)
    builds = []
    run = util.subprocess.run

    def counting_run(*args, **kwargs):
        builds.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(util.subprocess, "run", counting_run)
    again = util._load_kernel(cache, util._COMPILER)
    assert len(builds) == 1
    assert again.esf_crc32c(0, b"123456789", 9) == 0xE3069283 ^ 1  # the changed source
    assert first.esf_crc32c(0, b"123456789", 9) == 0xE3069283
    assert library in cache.iterdir() and len(list(cache.iterdir())) == 2


def test_crc32c_kernel_builds_in_a_temporary_directory_when_the_cache_is_unwritable(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    lib = util._load_kernel(blocker / "cache", util._COMPILER)
    assert lib.esf_crc32c(0, b"123456789", 9) == 0xE3069283
    assert list(tmp_path.iterdir()) == [blocker]


def test_crc32c_kernel_build_failure_raises_import_error_with_stderr(tmp_path):
    failing = [sys.executable, "-c",
               "import sys; sys.stderr.write('cc: fatal error: out of ink'); sys.exit(3)"]
    with pytest.raises(ImportError, match="out of ink") as err:
        util._load_kernel(tmp_path, failing)
    assert "exited with 3" in str(err.value)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ImportError, match="needs a C compiler"):
        util._load_kernel(tmp_path, [str(tmp_path / "no-such-cc")])


def make_records(n, samples_per=50):
    rng = np.random.default_rng(42)
    return [
        recordio.UtteranceRecord(
            f"utt-{i:03d}", 16000,
            rng.integers(-32768, 32767, samples_per, dtype=np.int16),
            f"transcript {i}", [("lang", "en"), ("idx", str(i))])
        for i in range(n)
    ]


def test_round_robin_assignment(tmp_path):
    records = make_records(4)
    shard_set = recordio.write_shards(records, 2, str(tmp_path / "s-{shard}.esrd"))
    shard0 = list(recordio.read_shard(shard_set.shard_paths[0]))
    shard1 = list(recordio.read_shard(shard_set.shard_paths[1]))
    assert [r.utt_id for r in shard0] == ["utt-000", "utt-002"]
    assert [r.utt_id for r in shard1] == ["utt-001", "utt-003"]


def test_empty_corpus_gives_valid_empty_shard(tmp_path):
    shard_set = recordio.write_shards([], 1, str(tmp_path / "s-{shard}.esrd"))
    path = shard_set.shard_paths[0]
    with open(path, "rb") as fh:
        assert fh.read() == recordio.MAGIC + bytes([recordio.VERSION])
    assert list(recordio.read_shard(path)) == []


def test_zero_sample_record_round_trips(tmp_path):
    rec = recordio.UtteranceRecord("empty", 8000, np.zeros(0, dtype=np.int16), "")
    shard_set = recordio.write_shards([rec], 1, str(tmp_path / "s-{shard}.esrd"))
    (back,) = recordio.read_shard(shard_set.shard_paths[0])
    assert back.utt_id == "empty"
    assert back.samples.size == 0


def records_equal(a, b):
    return (a.utt_id == b.utt_id and a.sample_rate == b.sample_rate
            and np.array_equal(a.samples, b.samples)
            and a.transcript == b.transcript and a.metadata == b.metadata)


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_round_trip_merge_restores_order(tmp_path, num_shards):
    records = make_records(11)
    shard_set = recordio.write_shards(records, num_shards,
                                      str(tmp_path / "s-{shard:02d}.esrd"))
    back = recordio.read_all(shard_set)
    assert len(back) == len(records)
    assert all(records_equal(a, b) for a, b in zip(records, back))
    # shards given in another order (sizes increasing) lose no record: the
    # same round-robin merge, over the reversed shard list
    shards = [records[k::num_shards] for k in reversed(range(num_shards))]
    expected = [s[i] for i in range(len(shards[-1])) for s in shards if i < len(s)]
    back = recordio.read_all(shard_set.shard_paths[::-1])
    assert len(back) == len(records)
    assert all(records_equal(a, b) for a, b in zip(expected, back))


def test_framing_length_is_16_plus_payload(tmp_path):
    records = make_records(1)
    payload = recordio.encode_record(records[0])
    shard_set = recordio.write_shards(records, 1, str(tmp_path / "s-{shard}.esrd"))
    with open(shard_set.shard_paths[0], "rb") as fh:
        data = fh.read()
    assert len(data) == 5 + 16 + len(payload)


def test_payload_byte_flip_detected_at_offset(tmp_path):
    records = make_records(3)
    shard_set = recordio.write_shards(records, 1, str(tmp_path / "s-{shard}.esrd"))
    path = shard_set.shard_paths[0]
    data = bytearray(open(path, "rb").read())
    # flip one byte inside the second record's payload
    first_len = 16 + len(recordio.encode_record(records[0]))
    second_frame_start = 5 + first_len
    flip_at = second_frame_start + 12 + 5  # a few bytes into the payload
    data[flip_at] ^= 0x40
    open(path, "wb").write(bytes(data))

    # direct recomputation oracle: stored CRC no longer matches the payload
    second_payload_len = len(recordio.encode_record(records[1]))
    payload_start = second_frame_start + 12
    corrupted_payload = bytes(data[payload_start:payload_start + second_payload_len])
    stored_crc = struct.unpack(
        "<I", data[payload_start + second_payload_len:
                   payload_start + second_payload_len + 4])[0]
    assert crc32c_bitwise(corrupted_payload) != stored_crc

    stream = recordio.read_shard(path)
    assert records_equal(next(stream), records[0])
    with pytest.raises(CorruptionError) as err:
        next(stream)
    assert err.value.offset == second_frame_start


def test_length_field_bit_flip_detected(tmp_path):
    records = make_records(1)
    shard_set = recordio.write_shards(records, 1, str(tmp_path / "s-{shard}.esrd"))
    path = shard_set.shard_paths[0]
    data = bytearray(open(path, "rb").read())
    data[5] ^= 0x01  # lowest bit of the u64 length
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptionError):
        list(recordio.read_shard(path))


def test_truncated_frame_yields_priors_then_raises(tmp_path):
    records = make_records(3)
    shard_set = recordio.write_shards(records, 1, str(tmp_path / "s-{shard}.esrd"))
    path = shard_set.shard_paths[0]
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(data) - 10])  # cut into the final record
    out = []
    with pytest.raises(TruncationError):
        for rec in recordio.read_shard(path):
            out.append(rec)
    assert len(out) == 2
    assert all(records_equal(a, b) for a, b in zip(records[:2], out))


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "bogus.esrd"
    path.write_bytes(b"NOPE\x01rest")
    with pytest.raises(FormatError):
        list(recordio.read_shard(str(path)))


def test_unknown_tags_are_skipped():
    rec = make_records(1)[0]
    payload = recordio.encode_record(rec)
    extended = payload + struct.pack("<BI", 99, 3) + b"xyz"
    back = recordio.decode_record(extended)
    assert records_equal(rec, back)


def test_write_shards_rejects_bad_args(tmp_path):
    with pytest.raises(ValueError):
        recordio.write_shards([], 0, str(tmp_path / "s-{shard}.esrd"))
    with pytest.raises(ValueError):
        recordio.write_shards([], 1, str(tmp_path / "no-placeholder.esrd"))


def test_record_invariants():
    with pytest.raises(ValueError):
        recordio.UtteranceRecord("", 16000, np.zeros(1, dtype=np.int16))
    with pytest.raises(ValueError):
        recordio.UtteranceRecord("x", 0, np.zeros(1, dtype=np.int16))


def test_float_conversion_divides_by_32768():
    rec = recordio.UtteranceRecord("x", 16000,
                                   np.array([-32768, 0, 16384], dtype=np.int16))
    assert np.allclose(rec.float_samples(), [-1.0, 0.0, 0.5])
