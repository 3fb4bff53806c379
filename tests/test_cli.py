"""CLI surface: subcommands, exit codes, reproducibility."""

import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import esf.__main__ as entry
import esf.cli
import esf.client
import esf.server
import esf.synth
import esf.trainsim
from esf import dsp
from esf.cli import main
from esf.config import merge_config
from esf.errors import ConfigurationError
from esf.synth import write_synth_corpus

SUBCOMMANDS = ["shard", "inspect", "augment", "features", "pipeline-dryrun",
               "serve", "launch", "consume", "bench", "decode"]


def test_server_and_cli_import_without_scipy():
    # a fresh process: scipy is a test oracle only, MFCC included
    src = os.path.dirname(os.path.dirname(os.path.abspath(esf.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy, esf.server, esf.cli, esf.dsp;"
         "esf.dsp.mfcc(esf.dsp.FeatureMatrix(numpy.ones((2, 40)), 'mel_energy'));"
         "print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_decode_help_names_esf_config(capsys):
    with pytest.raises(SystemExit):
        main(["decode", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "$ESF_CONFIG" in text
    for key in ("lambda_prior", "lambda_lm", "beam_size", "max_len"):
        assert key in text


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


@pytest.mark.parametrize("flags, sha256", [
    (["--room", "5x4x3", "--t60", "0.43", "--snr", "15", "--seed", "3"],
     "3c83d5542c1cf0c25757bc7a0e5c6d4170726e380f4cf354a2e585856a8f266c"),
    (["--room", "5x4x3"],
     "edf8091d054f41d406db3359a932b3b8487929243b978671ab5ce94ed08bd23f"),
    (["--snr", "10"],
     "14a91873372b4c09ddb94565453ff9ac9cc5fbc2049c555385e7715ef5b281cb"),
    (["--t60", "0.3"],
     "8960aba9e7bfd948fd62c26534079f7dd221ba66cb4a09e34f6e21e927748fc2"),
])
def test_augment_acoustic_output_is_pinned(flags, sha256, tmp_path, capsys):
    # unset flags fall back to the SimulatorConfig defaults
    src = str(tmp_path / "in.wav")
    dst = str(tmp_path / "out.wav")
    write_tone(src)
    assert main(["augment", *flags, src, dst]) == 0
    assert hashlib.sha256(open(dst, "rb").read()).hexdigest() == sha256


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
    assert "batches=3 records=12 checksum=014eee20" in first


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


@pytest.mark.parametrize("argv, key", [
    (["serve", "--set", "server.num_pipelines=0"], "num_pipelines"),
    (["serve", "--set", "server.epochs=0"], "epochs"),
    (["serve", "--pipelines", "0"], "num_pipelines"),
    (["pipeline-dryrun", "--set", "pipeline.batch_size=abc"], "pipeline.batch_size"),
    (["pipeline-dryrun", "--set", "acoustic.t60_range=0.5"], "acoustic.t60_range"),
    (["launch", "--servers", "1", "--set", "server.epochs=x"], "server.epochs"),
    (["pipeline-dryrun", "--set", "vtlp.enabled=False"], "vtlp.enabled"),
    (["bench", "--set", "bench.step_cost=-0.5"], "step_cost"),
    (["bench", "--set", "bench.step_cost=inf"], "step_cost"),
    (["bench", "--set", "bench.servers=[0]"], "servers"),
    (["bench", "--set", "bench.servers=[]"], "servers"),
    (["bench", "--consumers", "0"], "consumers"),
    (["bench", "--repeats", "0"], "repeats"),
    (["bench", "--seed", "1", "--set", "pipeline.batch_size=0"], "batch_size"),
    (["bench", "--utterances", "0"], "bench.utterances"),
    (["bench", "--set", "bench.num_shards=0"], "bench.num_shards"),
    (["bench", "--set", "bench.duration_range=[0.3,0.1]"], "bench.duration_range"),
    (["bench", "--set", "bench.servers=[1.5,2.9]"], "bench.servers"),
])
def test_config_value_errors_are_usage_errors(argv, key, monkeypatch, capsys):
    # found before the bench corpus is written or any server starts
    monkeypatch.delenv("ESF_CONFIG", raising=False)
    monkeypatch.setattr(esf.server, "serve", lambda *a, **k: pytest.fail("served"))
    monkeypatch.setattr(esf.server, "launch_servers",
                        lambda *a, **k: pytest.fail("launched"))
    monkeypatch.setattr(esf.synth, "write_synth_corpus",
                        lambda *a, **k: pytest.fail("wrote the corpus"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert key in err


@pytest.fixture
def layered_config(tmp_path, monkeypatch):
    """A config file that sets every shorthand's field; returns its path."""
    monkeypatch.delenv("ESF_CONFIG", raising=False)
    path = tmp_path / "layered.json"
    path.write_text(json.dumps({
        "pipeline": {"seed": 42},
        "server": {"num_pipelines": 3, "epochs": 2},
        "bench": {"servers": [2], "consumers": 3, "step_cost": 0.5, "repeats": 2,
                  "utterances": 7},
        "fusion": {"lambda_prior": 0.25, "lambda_lm": 0.5, "beam_size": 5,
                   "max_len": 4},
    }))
    return str(path)


def fake_serve(monkeypatch):
    seen = []
    monkeypatch.setattr(esf.server, "serve", lambda scfg, ready: seen.append(scfg))
    return seen


@pytest.mark.parametrize("extra, expected", [
    ([], (3, 2, 42)),
    (["--set", "server.num_pipelines=4", "--set", "server.epochs=5",
      "--set", "pipeline.seed=6"], (4, 5, 6)),
    (["--set", "server.num_pipelines=4", "--set", "server.epochs=5",
      "--set", "pipeline.seed=6", "--pipelines", "7", "--epochs", "8",
      "--seed", "9"], (7, 8, 9)),
])
def test_serve_precedence_file_then_set_then_flags(extra, expected, layered_config,
                                                   monkeypatch):
    seen = fake_serve(monkeypatch)
    assert main(["serve", "--config", layered_config, *extra]) == 0
    (scfg,) = seen
    assert (scfg.num_pipelines, scfg.epochs, scfg.pipeline.seed) == expected


def test_serve_bind_sets_host_and_port(layered_config, monkeypatch):
    seen = fake_serve(monkeypatch)
    assert main(["serve", "--config", layered_config, "--bind", ":7001"]) == 0
    assert (seen[0].host, seen[0].port) == ("127.0.0.1", 7001)


@pytest.mark.parametrize("argv", [
    ["serve", "--bind", "localhost"],
    ["serve", "--bind", "127.0.0.1:notaport"],
    ["serve", "--bind", "127.0.0.1:70000"],
    ["serve", "--bind", "127.0.0.1:"],
    ["consume", "--addr", "localhost"],
    ["consume", "--addr", "localhost:-1"],
], ids=["bind-no-port", "bind-port-not-a-number", "bind-port-out-of-range",
        "bind-empty-port", "addr-no-port", "addr-negative-port"])
def test_malformed_host_port_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "expected host:port" in err and "data error" not in err


def launch_settings(config):
    return (config["server"]["num_pipelines"], config["server"]["epochs"],
            config["pipeline"]["seed"])


@pytest.mark.parametrize("extra, expected", [
    ([], (3, 2, 42)),
    (["--set", "pipeline.seed=6"], (3, 2, 6)),
    (["--set", "pipeline.seed=6", "--pipelines", "1", "--epochs", "1", "--seed", "0"],
     (1, 1, 0)),
])
def test_launch_takes_server_fields_from_config(extra, expected, layered_config,
                                                monkeypatch, capsys):
    calls = []

    def fake_launch(n, config, **kwargs):
        calls.append((n, launch_settings(config), kwargs))
        return []

    monkeypatch.setattr(esf.server, "launch_servers", fake_launch)
    assert main(["launch", "--config", layered_config, "--servers", "2", *extra]) == 0
    assert calls == [(2, expected, {})]


def test_launch_defaults_are_the_config_defaults(monkeypatch, capsys):
    monkeypatch.delenv("ESF_CONFIG", raising=False)
    calls = []
    monkeypatch.setattr(esf.server, "launch_servers",
                        lambda n, config, **kwargs: calls.append(config) or [])
    assert main(["launch", "--servers", "1"]) == 0
    assert calls == [merge_config(None)]
    assert launch_settings(calls[0]) == (1, 1, 0)


def test_launch_servers_gives_server_j_the_config_seed_plus_j(monkeypatch):
    seen = []

    class FakeProcess:
        def __init__(self, argv, **kwargs):
            with open(argv[-1], encoding="utf-8") as fh:
                seen.append(json.load(fh))
            self.stdout = io.StringIO(f"LISTENING 127.0.0.1:{7000 + len(seen)}\n")

    monkeypatch.setattr(esf.server.subprocess, "Popen", FakeProcess)
    cfg = merge_config({"pipeline": {"seed": 40},
                        "server": {"num_pipelines": 3, "epochs": 2}})
    procs = esf.server.launch_servers(2, cfg)
    assert [p.port for p in procs] == [7001, 7002]
    assert [launch_settings(c) for c in seen] == [(3, 2, 40), (3, 2, 41)]
    assert [(c["server"]["server_index"], c["server"]["server_count"])
            for c in seen] == [(0, 2), (1, 2)]
    assert launch_settings(cfg) == (3, 2, 40)  # the caller's copy is untouched


def test_bench_writes_its_launch_settings_into_the_config(monkeypatch):
    seen = []

    def fake_launch(n, config, **kwargs):
        seen.append((n, launch_settings(config), kwargs))
        raise RuntimeError("stop after launch")

    monkeypatch.setattr(esf.server, "launch_servers", fake_launch)
    cfg = merge_config({"pipeline": {"seed": 5}, "server": {"num_pipelines": 9}})
    with pytest.raises(RuntimeError):
        esf.trainsim._run_bench_once(3, 2, 0.0, cfg, seed_base=1000)
    assert seen == [(3, (2, 1, 1000), {})]
    assert launch_settings(cfg) == (9, 1, 5)


def fake_bench_run(monkeypatch):
    """Fakes the corpus and the study; returns what each of them was given."""
    seen = {}

    def fake_corpus(out_dir, n, num_shards, **kwargs):
        seen["corpus"] = dict(kwargs, utterances=n, num_shards=num_shards)
        return type("Shards", (), {"shard_paths": ["s.esrd"]})(), "vocab.txt"

    def fake_bench(servers, consumers, step_cost, cfg, repeats, seed_base):
        seen["bench"] = (servers, consumers, step_cost, repeats, seed_base)
        seen["cfg"] = copy.deepcopy(cfg)
        return []

    monkeypatch.setattr(esf.synth, "write_synth_corpus", fake_corpus)
    monkeypatch.setattr(esf.trainsim, "bench_scaling", fake_bench)
    return seen


def bench_shape(cfg):
    return (cfg["pipeline"]["batch_size"], cfg["pipeline"]["shuffle_buffer"],
            cfg["acoustic"]["max_image_order"], cfg["acoustic"]["probability_of_reverb"],
            cfg["pipeline"]["seed"])


@pytest.mark.parametrize("extra, expected", [
    ([], ([2], 3, 0.5, 2, 7, 42)),
    (["--set", "bench.consumers=4", "--set", "bench.repeats=5",
      "--set", "pipeline.seed=6"], ([2], 4, 0.5, 5, 7, 6)),
    (["--set", "bench.consumers=4", "--servers", "1..3", "--consumers", "1",
      "--step-cost", "0.0", "--repeats", "1", "--utterances", "9", "--seed", "9"],
     ([1, 2, 3], 1, 0.0, 1, 9, 9)),
])
def test_bench_precedence_file_then_set_then_flags(extra, expected, layered_config,
                                                   monkeypatch, capsys):
    seen = fake_bench_run(monkeypatch)
    assert main(["bench", "--config", layered_config, *extra]) == 0
    servers, consumers, step_cost, repeats, utterances, seed = expected
    assert seen["corpus"]["utterances"] == utterances
    assert seen["bench"] == (servers, consumers, step_cost, repeats, seed)
    # --seed is the pipeline.seed shorthand: it seeds the corpus and the study
    assert seen["corpus"]["seed"] == seen["cfg"]["pipeline"]["seed"] == seed


def test_default_bench_runs_the_criterion_7_shape(monkeypatch, capsys):
    monkeypatch.delenv("ESF_CONFIG", raising=False)
    seen = fake_bench_run(monkeypatch)
    assert main(["bench"]) == 0
    assert bench_shape(seen["cfg"]) == (2, 16, 4, 0.2, 0)
    assert seen["bench"] == ([1, 2, 3, 4, 5], 2, 0.02, 3, 0)
    assert seen["corpus"] == {"utterances": 2000, "num_shards": 200, "seed": 0,
                              "sample_rate": 16000, "duration_range": (0.1, 0.2)}
    assert seen["cfg"]["pipeline"]["shard_paths"] == ["s.esrd"]
    assert seen["cfg"]["pipeline"]["vocab_path"] == "vocab.txt"


def test_bench_set_reaches_the_study(monkeypatch, capsys):
    # the bench shape is only the lowest layer: --set beats it, and the
    # corpus and the study take their seed from pipeline.seed
    monkeypatch.delenv("ESF_CONFIG", raising=False)
    seen = fake_bench_run(monkeypatch)
    assert main(["bench", "--set", "pipeline.batch_size=4",
                 "--set", "pipeline.shuffle_buffer=8",
                 "--set", "acoustic.max_image_order=6",
                 "--set", "acoustic.probability_of_reverb=1.0",
                 "--set", "pipeline.seed=42"]) == 0
    assert bench_shape(seen["cfg"]) == (4, 8, 6, 1.0, 42)
    assert seen["corpus"]["seed"] == 42
    assert seen["bench"][-1] == 42  # seed_base


def test_bench_file_beats_the_bench_shape(tmp_path, monkeypatch, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"pipeline": {"batch_size": 3},
                                "acoustic": {"probability_of_reverb": 0.5}}))
    monkeypatch.setenv("ESF_CONFIG", str(path))
    seen = fake_bench_run(monkeypatch)
    assert main(["bench"]) == 0
    assert bench_shape(seen["cfg"]) == (3, 16, 4, 0.5, 0)


@pytest.mark.parametrize("extra, expected", [
    ([], (0.25, 0.5, 5)),
    (["--lambda-p", "0.0", "--lambda-lm", "0.125", "--beam", "2"], (0.0, 0.125, 2)),
])
def test_decode_flags_beat_the_config(extra, expected, layered_config, monkeypatch,
                                      capsys):
    monkeypatch.setenv("ESF_CONFIG", layered_config)
    assert main(["decode", "--demo", *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["lambda_p"], doc["lambda_lm"], doc["beam_size"]) == expected


@pytest.mark.parametrize("fusion, flags, key", [
    ({"max_len": 2.5}, [], "fusion.max_len"),
    ({"beam_size": "3"}, [], "fusion.beam_size"),
    ({"beam_size": True}, [], "fusion.beam_size"),
    ({"lambda_lm": "x"}, [], "fusion.lambda_lm"),
    ({"lambda_prior": -1}, [], "fusion.lambda_prior"),
    ({}, ["--beam", "0"], "fusion.beam_size"),
    ({}, ["--max-len", "0"], "fusion.max_len"),
    ({}, ["--lambda-lm", "inf"], "fusion.lambda_lm"),
])
def test_bad_fusion_values_are_usage_errors(fusion, flags, key, tmp_path, monkeypatch,
                                            capsys):
    path = tmp_path / "fusion.json"
    path.write_text(json.dumps({"fusion": fusion}))
    monkeypatch.setenv("ESF_CONFIG", str(path))
    assert main(["decode", "--demo", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv", [
    ["consume", "--addr", "127.0.0.1:1", "--step-cost", "-1"],
    ["consume", "--addr", "127.0.0.1:1", "--step-cost", "nan"],
    ["consume", "--addr", "127.0.0.1:1", "--step-cost", "inf"],
    ["consume", "--addr", "127.0.0.1:1", "--max-credits", "0"],
    ["bench", "--servers", "3..1"],
    ["bench", "--servers", "0,1"],
    ["bench", "--servers", ","],
    ["bench", "--step-cost", "-0.5"],
    ["bench", "--step-cost", "inf"],
], ids=["consume-negative-step-cost", "consume-nan-step-cost", "consume-inf-step-cost",
        "consume-zero-credits", "bench-empty-range", "bench-zero-servers",
        "bench-no-servers", "bench-negative-step-cost", "bench-inf-step-cost"])
def test_bad_consume_and_bench_flags_are_usage_errors_before_any_socket(
        argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(esf.client.socket, "create_connection",
                        lambda *args, **kwargs: calls.append("connect"))
    monkeypatch.setattr(esf.synth, "write_synth_corpus",
                        lambda *args, **kwargs: calls.append("corpus"))
    monkeypatch.setattr(esf.server, "launch_servers",
                        lambda *args, **kwargs: calls.append("launch"))
    assert main(argv) == 1
    assert calls == []
    assert "expected" in capsys.readouterr().err


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
