"""One JSON configuration document covering every subsystem.

Sections mirror the modules; unknown sections or keys are rejected with a
path-qualified error so typos cannot silently fall back to defaults. Every
value can also be overridden by a CLI flag. The ESF_CONFIG environment
variable names the default config file. Every section is one of the
SECTIONS, whose keys, defaults and types are the fields of its dataclass; a
range such as vtlp.alpha_range is a JSON list.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
from typing import TYPE_CHECKING

from .acoustic import SimulatorConfig
from .errors import ConfigurationError
from .pipeline import PipelineConfig
from .server import ServerConfig
from .trainsim import BenchConfig
from .vtlp import WarpSpec

if TYPE_CHECKING:
    from .fusion import FusionWeights

ENV_VAR = "ESF_CONFIG"


@dataclasses.dataclass
class FusionConfig:
    """The fusion config section: the decode weights and the beam's shape.

    It lives here, not in esf.fusion, so that a server, which never
    decodes, does not import the decoder.
    """

    lambda_prior: float = 0.0
    lambda_lm: float = 0.0
    beam_size: int = 12
    max_len: int = 32
    weights: FusionWeights = dataclasses.field(init=False, repr=False)  # built

    def __post_init__(self):
        """Refuse a value no search can run, naming its fusion.* key."""
        from .fusion import FusionWeights

        for name in ("beam_size", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"fusion.{name} must be >= 1, got {getattr(self, name)}")
        try:
            self.weights = FusionWeights(self.lambda_prior, self.lambda_lm)
        except ValueError as exc:
            raise ConfigurationError(f"fusion.{exc}") from exc


SECTIONS = {"pipeline": PipelineConfig, "vtlp": WarpSpec,
            "acoustic": SimulatorConfig, "server": ServerConfig,
            "bench": BenchConfig, "fusion": FusionConfig}
# Optional stages, which add an on/off switch to their fields.
ENABLED = ("vtlp", "acoustic")
# ServerConfig fields that are built from the other sections.
NESTED = ("pipeline", "warp_spec", "sim_config")

# The criterion-7 shape of esf bench: its lowest layer above the defaults.
BENCH_BASE = {
    "pipeline": {"batch_size": 2, "shuffle_buffer": 16},
    "acoustic": {"max_image_order": 4, "probability_of_reverb": 0.2},
}


def _keys(section: str):
    """(key, default) pairs of a section: its switch, then the fields its
    dataclass takes, other than the nested sections."""
    if section in ENABLED:
        yield "enabled", True
    for f in dataclasses.fields(SECTIONS[section]):
        default = [] if f.default is dataclasses.MISSING else f.default  # shard_paths
        if f.init and f.name not in NESTED:
            yield f.name, default


DEFAULTS: dict = {section: json.loads(json.dumps(dict(_keys(section))))  # tuples as lists
                  for section in SECTIONS}


def merge_config(*docs: dict | None) -> dict:
    """Defaults overlaid with user documents in turn; unknown keys are errors."""
    cfg = copy.deepcopy(DEFAULTS)
    for doc in filter(None, docs):
        if not isinstance(doc, dict):
            raise ConfigurationError("config document must be a JSON object")
        for section, values in doc.items():
            if section not in cfg:
                raise ConfigurationError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigurationError(f"section {section!r} must be an object")
            for key, value in values.items():
                if key not in cfg[section]:
                    raise ConfigurationError(f"unknown config key {section}.{key}")
                cfg[section][key] = value
    return cfg


def load_config(path: str | None, overrides: list[str] | None = None,
                base: dict | None = None) -> dict:
    """Load and validate a config file; fall back to ESF_CONFIG, then defaults.

    base is laid on the defaults first, under the file. overrides are
    "section.key=value" strings (values parsed as JSON when possible) applied
    on top, so every config field has a CLI override.
    """
    if path is None:
        path = os.environ.get(ENV_VAR)
    doc = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    sets: dict = {}
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep or "." not in key:
            raise ConfigurationError(
                f"override must look like section.key=value, got {item!r}")
        section, _, field = key.partition(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        sets.setdefault(section, {})[field] = value
    return merge_config(base, doc, sets)


def _convert(default, value):
    """value as the type of default: numbers and strings checked, tuples per
    element.

    A float key takes any JSON number; an int key takes an integer, or a
    float only if it is integral. A bool or a string is never a number, and
    nothing is truncated. A string key takes a string, and a key that
    defaults to None (a path) a string or null. A list key (shard_paths)
    takes a list of strings, not a string's characters.
    """
    if isinstance(default, tuple):
        return tuple(_convert(default[0], v) for v in value)
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise TypeError(f"expected a list of strings, got {value!r}")
        return list(value)
    if isinstance(default, (int, float)):
        if type(value) not in (int, float):  # not True, not "8"
            raise TypeError(f"expected a number, got {value!r}")
        if isinstance(default, int) and type(value) is float and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return type(default)(value)
    if isinstance(default, str) and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    if default is None and not (value is None or isinstance(value, str)):
        raise TypeError(f"expected a string or null, got {value!r}")
    return value


def _build(cfg: dict, section: str, **nested):
    """The section's dataclass from its keys, or None if it is disabled."""
    values = cfg[section]
    enabled = values.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigurationError(
            f"{section}.enabled must be true or false, got {enabled!r}")
    if not enabled:
        return None
    kwargs = {}
    for key, default in _keys(section):
        if key == "enabled":  # the switch, checked above
            continue
        try:
            kwargs[key] = _convert(default, values[key])
        except (TypeError, ValueError, OverflowError) as exc:  # an int too big for a float
            raise ConfigurationError(f"{section}.{key}: {exc}") from exc
    try:
        return SECTIONS[section](**kwargs, **nested)
    except ValueError as exc:  # a range of the wrong length
        raise ConfigurationError(f"{section}: {exc}") from exc


def pipeline_config(cfg: dict) -> PipelineConfig:
    return _build(cfg, "pipeline")


def warp_spec(cfg: dict) -> WarpSpec | None:
    return _build(cfg, "vtlp")


def simulator_config(cfg: dict) -> SimulatorConfig | None:
    return _build(cfg, "acoustic")


def server_config(cfg: dict) -> ServerConfig:
    return _build(cfg, "server", pipeline=pipeline_config(cfg),
                  warp_spec=warp_spec(cfg), sim_config=simulator_config(cfg))


def bench_config(cfg: dict) -> BenchConfig:
    return _build(cfg, "bench")


def fusion_config(cfg: dict) -> FusionConfig:
    return _build(cfg, "fusion")
