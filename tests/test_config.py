"""The config document: its defaults, key checks and typed construction."""

import dataclasses
import json

import pytest

from esf import config as cfgmod
from esf.acoustic import SimulatorConfig
from esf.config import FusionConfig, merge_config
from esf.errors import ConfigurationError
from esf.fusion import FusionWeights
from esf.pipeline import PipelineConfig
from esf.server import ServerConfig
from esf.trainsim import BenchConfig
from esf.vtlp import WarpSpec

# The whole defaults document as it stood when the sections were hand-written;
# any change to a default must show up here.
EXPECTED_DEFAULTS = {
    "pipeline": {
        "shard_paths": [],
        "interleave_cycle_length": 2,
        "shuffle_buffer": 64,
        "batch_size": 8,
        "pad_value": 0.0,
        "seed": 0,
        "parallel_map_width": 1,
        "vocab_path": None,
        "map_error_policy": "skip",
    },
    "vtlp": {
        "enabled": True,
        "alpha_range": [0.8, 1.2],
        "window_ms": 50.0,
        "hop_ms": 12.5,
        "dft_size": 1024,
    },
    "acoustic": {
        "enabled": True,
        "dim_ranges": [[3.0, 10.0], [3.0, 8.0], [2.5, 4.0]],
        "t60_range": [0.2, 0.8],
        "snr_range_db": [0.0, 25.0],
        "noise_source": "white",
        "probability_of_reverb": 1.0,
        "probability_of_noise": 1.0,
        "max_image_order": 20,
        "wall_clearance": 0.3,
    },
    "server": {
        "host": "127.0.0.1",
        "port": 0,
        "num_pipelines": 1,
        "epochs": 1,
        "server_index": 0,
        "server_count": 1,
    },
    "bench": {
        "servers": [1, 2, 3, 4, 5],
        "consumers": 2,
        "step_cost": 0.02,
        "repeats": 3,
        "utterances": 2000,
        "num_shards": 200,
        "sample_rate": 16000,
        "duration_range": [0.1, 0.2],
    },
    "fusion": {
        "lambda_prior": 0.0,
        "lambda_lm": 0.0,
        "beam_size": 12,
        "max_len": 32,
    },
}


@pytest.fixture(autouse=True)
def no_config_file(monkeypatch):
    monkeypatch.delenv(cfgmod.ENV_VAR, raising=False)


def test_defaults_document_is_pinned():
    cfg = merge_config(None)
    assert cfg == EXPECTED_DEFAULTS
    # same order and same JSON types (1.0 stays a float, ranges are lists)
    assert json.dumps(cfg) == json.dumps(EXPECTED_DEFAULTS)
    assert json.dumps(cfgmod.DEFAULTS) == json.dumps(EXPECTED_DEFAULTS)


def test_recordio_section_is_unknown():
    # esf shard takes --shards and --out; a recordio section would be ignored
    with pytest.raises(ConfigurationError, match="recordio"):
        merge_config({"recordio": {"num_shards": 8}})


def test_merge_config_returns_a_copy():
    cfg = merge_config(None)
    cfg["acoustic"]["dim_ranges"][0][0] = 99.0
    cfg["pipeline"]["shard_paths"].append("x")
    assert merge_config(None) == EXPECTED_DEFAULTS


def test_server_config_coerces_json_values():
    doc = {
        "pipeline": {"shard_paths": ["a.esrd", "b.esrd"], "batch_size": 8,
                     "pad_value": 1, "seed": 42, "vocab_path": "v.txt"},
        "vtlp": {"alpha_range": [1, 1], "window_ms": 40, "hop_ms": 10,
                 "dft_size": 512},
        "acoustic": {"dim_ranges": [[4, 6], [3, 5], [3, 4]], "t60_range": [1, 1],
                     "snr_range_db": [5, 20], "probability_of_reverb": 1,
                     "probability_of_noise": 0, "max_image_order": 5,
                     "wall_clearance": 1},
        "server": {"port": 7000, "num_pipelines": 2, "epochs": 3,
                   "server_index": 1, "server_count": 2},
    }
    expected = ServerConfig(
        pipeline=PipelineConfig(shard_paths=["a.esrd", "b.esrd"], batch_size=8,
                                pad_value=1.0, seed=42, vocab_path="v.txt"),
        warp_spec=WarpSpec(alpha_range=(1.0, 1.0), window_ms=40.0, hop_ms=10.0,
                           dft_size=512),
        sim_config=SimulatorConfig(
            dim_ranges=((4.0, 6.0), (3.0, 5.0), (3.0, 4.0)), t60_range=(1.0, 1.0),
            snr_range_db=(5.0, 20.0), probability_of_reverb=1.0,
            probability_of_noise=0.0, max_image_order=5, wall_clearance=1.0),
        port=7000, num_pipelines=2, epochs=3, server_index=1, server_count=2)
    cfg = merge_config(doc)
    built = cfgmod.server_config(cfg)
    assert built == expected
    assert repr(built) == repr(expected)  # float fields are floats, ranges tuples
    # the built config does not share the document's lists
    assert built.pipeline.shard_paths is not cfg["pipeline"]["shard_paths"]


def test_disabled_stages_build_none():
    cfg = merge_config({"vtlp": {"enabled": False}, "acoustic": {"enabled": False}})
    assert cfgmod.warp_spec(cfg) is None
    assert cfgmod.simulator_config(cfg) is None
    scfg = cfgmod.server_config(cfg)
    assert scfg.warp_spec is None and scfg.sim_config is None
    assert cfgmod.warp_spec(merge_config(None)) == WarpSpec()
    assert cfgmod.simulator_config(merge_config(None)) == SimulatorConfig()


@pytest.mark.parametrize("section, cls, extra, nested", [
    ("pipeline", PipelineConfig, [], []),
    ("vtlp", WarpSpec, ["enabled"], []),
    ("acoustic", SimulatorConfig, ["enabled"], []),
    ("server", ServerConfig, [], ["pipeline", "warp_spec", "sim_config"]),
    ("bench", BenchConfig, [], []),
    ("fusion", FusionConfig, [], ["weights"]),  # weights is built, not a key
])
def test_section_keys_are_the_dataclass_fields(section, cls, extra, nested):
    expected = list(extra)
    for f in dataclasses.fields(cls):
        if f.name not in nested:
            expected.append(f.name)
    assert list(merge_config(None)[section]) == expected
    # every key is a --set target that round-trips its own default
    for key, value in merge_config(None)[section].items():
        cfg = cfgmod.load_config(None, [f"{section}.{key}={json.dumps(value)}"])
        assert cfg == EXPECTED_DEFAULTS


def test_set_keys_are_checked_like_file_keys():
    with pytest.raises(ConfigurationError, match="unknown config key pipeline.nope"):
        merge_config({"pipeline": {"nope": 1}})
    with pytest.raises(ConfigurationError, match="unknown config key pipeline.nope"):
        cfgmod.load_config(None, ["pipeline.nope=1"])
    with pytest.raises(ConfigurationError, match="unknown config section 'mystery'"):
        cfgmod.load_config(None, ["mystery.x=1"])
    for key in ("alpha_min", "alpha_max"):  # vtlp.alpha_range is one list key
        with pytest.raises(ConfigurationError, match=f"unknown config key vtlp.{key}"):
            cfgmod.load_config(None, [f"vtlp.{key}=0.9"])
    cfg = cfgmod.load_config(None, ["pipeline.vocab_path=v.txt",
                                    "pipeline.seed=3", "pipeline.seed=4"])
    assert cfg["pipeline"]["vocab_path"] == "v.txt"  # not JSON: kept as text
    assert cfg["pipeline"]["seed"] == 4  # the last --set wins


@pytest.mark.parametrize("build, section, key, value", [
    (cfgmod.pipeline_config, "pipeline", "batch_size", "abc"),
    (cfgmod.pipeline_config, "pipeline", "seed", None),
    (cfgmod.warp_spec, "vtlp", "alpha_range", "wide"),
    (cfgmod.simulator_config, "acoustic", "t60_range", 0.5),
    (cfgmod.simulator_config, "acoustic", "dim_ranges", [[3, "x"], [3, 4], [3, 4]]),
    (cfgmod.server_config, "server", "port", [1]),
    (cfgmod.bench_config, "bench", "servers", 3),
    (cfgmod.bench_config, "bench", "servers", ["two"]),
    (cfgmod.bench_config, "bench", "step_cost", "fast"),
    (cfgmod.bench_config, "bench", "duration_range", 0.2),
    # a number of the wrong kind is refused, not truncated
    (cfgmod.pipeline_config, "pipeline", "batch_size", 8.7),
    (cfgmod.pipeline_config, "pipeline", "batch_size", True),
    (cfgmod.pipeline_config, "pipeline", "pad_value", True),
    (cfgmod.pipeline_config, "pipeline", "seed", "3"),
    (cfgmod.bench_config, "bench", "servers", [1.5, 2.9]),
    (cfgmod.bench_config, "bench", "utterances", 0),
    (cfgmod.bench_config, "bench", "num_shards", 0),
    (cfgmod.bench_config, "bench", "sample_rate", 0),
    (cfgmod.bench_config, "bench", "duration_range", [0.2, 0.1]),
    (cfgmod.bench_config, "bench", "duration_range", [0.0, 0.1]),
    (cfgmod.bench_config, "bench", "duration_range", [0.1, float("inf")]),
    (cfgmod.pipeline_config, "pipeline", "shard_paths", "a.esrd"),
    # a string key takes a string, a path key a string or null, a list of
    # paths only strings
    (cfgmod.server_config, "server", "host", 5),
    (cfgmod.pipeline_config, "pipeline", "vocab_path", 7),
    (cfgmod.pipeline_config, "pipeline", "shard_paths", [1, 2]),
    (cfgmod.simulator_config, "acoustic", "noise_source", 3),
    (cfgmod.pipeline_config, "pipeline", "map_error_policy", None),
    (cfgmod.fusion_config, "fusion", "max_len", 2.5),
    (cfgmod.fusion_config, "fusion", "beam_size", "3"),
    (cfgmod.fusion_config, "fusion", "beam_size", True),
    (cfgmod.fusion_config, "fusion", "beam_size", 0),
    (cfgmod.fusion_config, "fusion", "max_len", 0),
    (cfgmod.fusion_config, "fusion", "lambda_lm", "x"),
    (cfgmod.fusion_config, "fusion", "lambda_prior", -0.5),
])
def test_bad_value_is_a_configuration_error_naming_its_key(build, section, key, value):
    cfg = merge_config({section: {key: value}})
    with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
        build(cfg)


def test_fusion_config_builds_the_weights():
    fus = cfgmod.fusion_config(merge_config(
        {"fusion": {"lambda_prior": 1, "lambda_lm": 0.45, "beam_size": 3.0}}))
    assert (fus.beam_size, fus.max_len) == (3, 32)
    assert fus.weights == FusionWeights(1.0, 0.45)
    assert type(fus.beam_size) is int and type(fus.lambda_prior) is float
    cfg = merge_config({"pipeline": {"vocab_path": None, "shard_paths": ["a", "b"]}})
    assert cfgmod.pipeline_config(cfg).vocab_path is None


def test_server_config_range_errors_are_configuration_errors():
    for key, value in [("num_pipelines", 0), ("epochs", 0), ("server_index", 1)]:
        with pytest.raises(ConfigurationError, match=key):
            cfgmod.server_config(merge_config({"server": {key: value}}))


@pytest.mark.parametrize("section, value", [
    ("vtlp", "False"), ("vtlp", "true"), ("vtlp", 0), ("acoustic", 1),
    ("acoustic", None), ("acoustic", "no"),
])
def test_enabled_must_be_a_json_boolean(section, value):
    build = {"vtlp": cfgmod.warp_spec, "acoustic": cfgmod.simulator_config}[section]
    cfg = merge_config({section: {"enabled": value}})
    with pytest.raises(ConfigurationError, match=f"{section}.enabled"):
        build(cfg)
    with pytest.raises(ConfigurationError, match=f"{section}.enabled"):
        cfgmod.server_config(cfg)


def test_set_enabled_capital_false_is_rejected(monkeypatch):
    # "False" is not JSON, so --set stored the truthy string and VTLP stayed on
    monkeypatch.delenv("ESF_CONFIG", raising=False)
    with pytest.raises(ConfigurationError, match="vtlp.enabled"):
        cfgmod.warp_spec(cfgmod.load_config(None, ["vtlp.enabled=False"]))
    assert cfgmod.warp_spec(cfgmod.load_config(None, ["vtlp.enabled=false"])) is None


@pytest.mark.parametrize("key, value", [
    ("servers", []), ("servers", [0]), ("servers", [2, -1]),
    ("step_cost", -0.5), ("step_cost", "inf"), ("step_cost", "nan"),
    ("consumers", 0), ("repeats", 0),
])
def test_bench_config_range_errors_are_configuration_errors(key, value):
    with pytest.raises(ConfigurationError, match=key):
        cfgmod.bench_config(merge_config({"bench": {key: value}}))


def test_bench_config_builds_typed_values():
    cfg = merge_config({"bench": {"servers": [1, 3.0], "step_cost": 0,
                                  "duration_range": [1, 2]}})
    assert cfgmod.bench_config(cfg) == BenchConfig(
        servers=(1, 3), step_cost=0.0, duration_range=(1.0, 2.0))
    assert cfgmod.bench_config(merge_config(None)) == BenchConfig()


@pytest.mark.parametrize("section, key, value", [
    ("vtlp", "alpha_range", [0.9]),
    ("vtlp", "alpha_range", [0.8, 1.0, 1.2]),
    ("acoustic", "t60_range", [0.2, 0.4, 0.8]),
])
def test_range_of_the_wrong_length_is_a_configuration_error(section, key, value):
    with pytest.raises(ConfigurationError, match=f"{section}: "):
        cfgmod.server_config(merge_config({section: {key: value}}))
