"""CLI surface: subcommands, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import esf.__main__ as entry
import esf.cli
from esf import dsp
from esf.cli import main
from esf.config import merge_config
from esf.errors import ConfigurationError
from esf.synth import write_synth_corpus

SUBCOMMANDS = ["shard", "inspect", "augment", "features", "pipeline-dryrun",
               "serve", "launch", "consume", "bench", "decode"]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([sub, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "usage:" in out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["inspect", "--bogus", "x"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def write_tone(path, freq=440.0, seconds=0.5, sr=16000):
    t = np.arange(int(sr * seconds)) / sr
    dsp.write_wav(path, dsp.Waveform(0.4 * np.sin(2 * np.pi * freq * t), sr))


def test_augment_identity_alpha(tmp_path, capsys):
    src = str(tmp_path / "in.wav")
    dst = str(tmp_path / "out.wav")
    write_tone(src)
    assert main(["augment", "--vtlp-alpha", "1.0", src, dst]) == 0
    a = dsp.read_wav(src).samples
    b = dsp.read_wav(dst).samples
    rel = np.linalg.norm(a - b) / np.linalg.norm(a)
    assert rel < 1e-3  # resynthesis + 16-bit requantization tolerance


def test_augment_full_chain_runs(tmp_path, capsys):
    src = str(tmp_path / "in.wav")
    dst = str(tmp_path / "out.wav")
    write_tone(src)
    assert main(["augment", "--vtlp-alpha", "0.8:1.2", "--room", "5x4x3",
                 "--t60", "0.43", "--snr", "15", "--seed", "3", src, dst]) == 0
    err = capsys.readouterr().err
    assert "room.dims=5.000x4.000x3.000" in err
    assert "mix.snr_db=15.0000" in err
    # same seed gives byte-identical output
    dst2 = str(tmp_path / "out2.wav")
    assert main(["augment", "--vtlp-alpha", "0.8:1.2", "--room", "5x4x3",
                 "--t60", "0.43", "--snr", "15", "--seed", "3", src, dst2]) == 0
    assert open(dst, "rb").read() == open(dst2, "rb").read()


def test_augment_missing_input_is_data_error(tmp_path):
    assert main(["augment", "--vtlp-alpha", "1.0",
                 str(tmp_path / "none.wav"), str(tmp_path / "out.wav")]) == 2


def test_features_csv(tmp_path, capsys):
    src = str(tmp_path / "in.wav")
    out = str(tmp_path / "f.csv")
    write_tone(src)
    assert main(["features", "--kind", "power_mel", src, out]) == 0
    rows = open(out).read().strip().splitlines()
    assert len(rows[0].split(",")) == dsp.DEFAULT_NUM_FILTERS
    assert main(["features", "--kind", "mfcc", "--num-ceps", "13", src, out]) == 0
    rows = open(out).read().strip().splitlines()
    assert len(rows[0].split(",")) == 13


def test_shard_and_inspect(tmp_path, capsys):
    wavs = []
    manifest = tmp_path / "manifest.tsv"
    lines = []
    for i in range(3):
        p = str(tmp_path / f"w{i}.wav")
        write_tone(p, freq=300 + 100 * i, seconds=0.1)
        lines.append(f"{p}\ttranscript {i}")
        wavs.append(p)
    manifest.write_text("\n".join(lines) + "\n")
    pattern = str(tmp_path / "c-{shard}.esrd")
    assert main(["shard", "--in", str(manifest), "--shards", "2",
                 "--out", pattern]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert main(["inspect", out[0]]) == 0
    inspected = capsys.readouterr().out
    assert "w0" in inspected and "transcript 0" in inspected


def test_inspect_corrupt_shard_is_data_error(tmp_path, capsys):
    wav = str(tmp_path / "w.wav")
    write_tone(wav, seconds=0.1)
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{wav}\thello\n")
    pattern = str(tmp_path / "c-{shard}.esrd")
    assert main(["shard", "--in", str(manifest), "--shards", "1",
                 "--out", pattern]) == 0
    capsys.readouterr()
    shard = pattern.format(shard=0)
    data = bytearray(open(shard, "rb").read())
    data[40] ^= 0xFF
    open(shard, "wb").write(bytes(data))
    assert main(["inspect", shard]) == 2


@pytest.fixture(scope="module")
def dryrun_config(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-corpus")
    shards, vocab = write_synth_corpus(str(tmp), 12, 3, seed=5,
                                       duration_range=(0.1, 0.2))
    cfg = {
        "pipeline": {"shard_paths": shards.shard_paths, "vocab_path": vocab,
                     "batch_size": 4, "seed": 11},
        "acoustic": {"max_image_order": 3},
    }
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_pipeline_dryrun_reproducible(dryrun_config, capsys):
    assert main(["pipeline-dryrun", "--config", dryrun_config]) == 0
    first = capsys.readouterr().out
    assert main(["pipeline-dryrun", "--config", dryrun_config]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "checksum=" in first
    assert "batches=3 records=12" in first


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"pipeline": {"batch_sizes": 4}}))
    assert main(["pipeline-dryrun", "--config", str(path)]) == 1
    assert "pipeline.batch_sizes" in capsys.readouterr().err


def test_set_flag_overrides_any_field(dryrun_config, capsys):
    assert main(["pipeline-dryrun", "--config", dryrun_config,
                 "--set", "pipeline.batch_size=12"]) == 0
    assert "batches=1 records=12" in capsys.readouterr().out
    assert main(["pipeline-dryrun", "--config", dryrun_config,
                 "--set", "pipeline.no_such=1"]) == 1
    assert "pipeline.no_such" in capsys.readouterr().err
    assert main(["pipeline-dryrun", "--config", dryrun_config,
                 "--set", "malformed"]) == 1


def test_config_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="mystery"):
        merge_config({"mystery": {}})


def test_config_env_var_default(tmp_path, dryrun_config, monkeypatch, capsys):
    monkeypatch.setenv("ESF_CONFIG", dryrun_config)
    assert main(["pipeline-dryrun"]) == 0
    assert "batches=3" in capsys.readouterr().out


def test_decode_demo_and_files(tmp_path, capsys):
    assert main(["decode", "--demo", "--beam", "12",
                 "--lambda-p", "0.005", "--lambda-lm", "0.45"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tokens"] == [0, 1, 3]
    assert doc["finished"]

    am = {"vocab_size": 2, "eos_id": 1,
          "table": {"": [math.log(0.9), math.log(0.1)]},
          "default": [math.log(0.5)] * 2}
    lm = {"initial": [math.log(0.5)] * 2, "bigram": [[math.log(0.5)] * 2] * 2}
    am_path = tmp_path / "am.json"
    lm_path = tmp_path / "lm.json"
    am_path.write_text(json.dumps(am))
    lm_path.write_text(json.dumps(lm))
    assert main(["decode", "--am", str(am_path), "--lm", str(lm_path),
                 "--beam", "4", "--max-len", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tokens"][-1] == 1


def test_decode_without_files_is_usage_error():
    assert main(["decode"]) == 1


def test_consume_unreachable_server_is_network_error():
    assert main(["consume", "--addr", "127.0.0.1:1"]) == 3


def test_serve_and_consume_subprocess(dryrun_config):
    server = subprocess.Popen(
        [sys.executable, "-m", "esf", "serve", "--config", dryrun_config,
         "--epochs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        line = server.stdout.readline()
        assert line.startswith("LISTENING ")
        addr = line.split()[1]
        out = subprocess.run(
            [sys.executable, "-m", "esf", "consume", "--addr", addr,
             "--step-cost", "0.001"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        stats = json.loads(out.stdout)
        assert stats["batches"] == 3
        assert not stats["incomplete"]
        assert server.wait(timeout=60) == 0
    finally:
        server.kill()


@pytest.mark.parametrize("before, after", [
    ({"HOME": "/nowhere"}, {"HOME": "/nowhere", "OMP_NUM_THREADS": "1",
                            "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OMP_NUM_THREADS": "4"}, {"OMP_NUM_THREADS": "4"}),  # the caller's choice stands
])
def test_entry_point_defaults_blas_to_one_thread(before, after, monkeypatch):
    env = dict(before)
    monkeypatch.setattr(os, "environ", env)
    monkeypatch.setattr(esf.cli, "main", lambda: 7)
    assert entry.main() == 7
    assert env == after


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_serve_runs_one_thread_until_a_consumer_connects(dryrun_config):
    # no BLAS worker threads: they would busy-wait beside the producer
    env = {k: v for k, v in os.environ.items() if k not in entry._BLAS_THREAD_VARS}
    server = subprocess.Popen(
        [sys.executable, "-m", "esf", "serve", "--config", dryrun_config],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        assert server.stdout.readline().startswith("LISTENING ")
        assert len(os.listdir(f"/proc/{server.pid}/task")) == 1
    finally:
        server.kill()
        server.wait()
        server.stdout.close()
