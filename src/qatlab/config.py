"""Experiment configuration: JSON file + ``--set KEY=VALUE`` overrides,
strictly validated before any computation runs."""

import dataclasses
import hashlib
import inspect
import json
import sys
from dataclasses import dataclass, field
from typing import Literal, get_args, get_origin

from .datasets import BUILDERS
from .oscillation import ToyProblem
from .qc import QCConfig
from .quantizer import SoftRoundConfig
from .training import TrainConfig

# The ema, qc and toy sections are the fields of the dataclass built from each
# (plus qc.source); dataset is the parameters of its builders.
_EMA = {f.name[4:]: f for f in dataclasses.fields(TrainConfig) if f.name.startswith("ema_")}
_QC = {f.name: f for f in dataclasses.fields(QCConfig)}
_BUILDER_PARAMS = [
    (k, p) for build in BUILDERS.values() for k, p in inspect.signature(build).parameters.items()
]
_SECTION_TYPES = {
    "dataset": {k: p.annotation for k, p in _BUILDER_PARAMS},
    "ema": {k: f.type for k, f in _EMA.items()},
    "qc": {**{k: f.type for k, f in _QC.items()}, "source": Literal["ema", "live"]},
    "toy": {f.name: f.type for f in dataclasses.fields(ToyProblem)},
}
# A section given in a file or by override is merged over its defaults, so a
# partial section keeps the rest.  ToyProblem fills in what toy leaves out.
_SECTION_DEFAULTS = {
    "dataset": {"kind": "blobs", "seed": 0, "n": 1000, "dim": 4, "classes": 3},
    "ema": {k: f.default for k, f in _EMA.items()},
    "qc": {**{k: f.default for k, f in _QC.items()}, "source": "ema"},
    "toy": {},
}


@dataclass
class ExperimentConfig:
    task: Literal["toy", "train", "qc", "fold", "ablate", "eval", "report"] = "train"
    out_dir: str = ""  # empty falls back to $QATLAB_OUT, then ./runs
    seeds: list = field(default_factory=lambda: [0])
    dataset: dict = field(default_factory=dict)  # sections merge over _SECTION_DEFAULTS
    network: Literal["mlp", "cnn"] = "mlp"
    bits_w: int = 4
    bits_a: int = 4
    first_last_bits: int = 8
    granularity: Literal["per_tensor", "per_channel"] = "per_tensor"
    ema: dict = field(default_factory=dict)
    dampening_lambda: float = 0.0
    qc: dict = field(default_factory=dict)
    epochs: int = 10
    pretrain_epochs: int = 10
    batch: int = 32
    lr: float = 1e-3
    toy: dict = field(default_factory=dict)
    checkpoint: str = ""
    eval_mode: Literal["quantized", "latent", "soft_round", "ema_quantized"] = "quantized"
    soft_round_k: float = 0.45
    ablate_kind: Literal["qc", "ema_decay"] = "qc"
    ema_alphas: list = field(default_factory=lambda: [0.99, 0.999, 0.9999])
    runs: list[str] = field(default_factory=list)

    def __post_init__(self):
        _check_types("", vars(self), {f.name: f.type for f in dataclasses.fields(self)})
        for section, defaults in _SECTION_DEFAULTS.items():
            values = {**defaults, **getattr(self, section)}
            setattr(self, section, values)
            if section == "dataset":
                check_dataset(values)
            else:
                _check_section(section, values)
        # Philox takes keys in [0, 2**128); each seed writes its own run
        # directory, so a repeated seed would write one directory twice.
        if not self.seeds or not all(_is_int(s) and 0 <= s < 2**128 for s in self.seeds):
            raise ValueError("seeds must be a non-empty list of integers in [0, 2**128)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {self.seeds!r}")
        for name in ("bits_w", "bits_a", "first_last_bits"):
            if not 1 <= getattr(self, name) <= 16:
                raise ValueError(f"{name} must be in [1, 16]")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if not self.ema_alphas or not all(
            _is_number(a) and 0.0 <= a < 1.0 for a in self.ema_alphas
        ):
            raise ValueError("ema_alphas must be a non-empty list of numbers in [0, 1)")
        if len(set(self.ema_alphas)) != len(self.ema_alphas):
            raise ValueError(f"ema_alphas must not repeat, got {self.ema_alphas!r}")
        # Building what the sections configure runs its range checks now,
        # before any run directory exists.
        _build("toy section", self.toy_problem)
        _build("qc section", self.qc_config)
        _build("training settings", self.train_config)
        _build("soft_round_k", lambda: SoftRoundConfig(k=self.soft_round_k))

    def toy_problem(self) -> ToyProblem:
        return ToyProblem(**self.toy)

    def qc_config(self) -> QCConfig:
        return QCConfig(**{k: v for k, v in self.qc.items() if k != "source"})

    def train_config(self, seed: int = 0) -> TrainConfig:
        """QAT settings: the top-level training fields plus the ema section."""
        return TrainConfig(
            epochs=self.epochs,
            batch=self.batch,
            lr=self.lr,
            dampening_lambda=self.dampening_lambda,
            seed=seed,
            **{f"ema_{k}": v for k, v in self.ema.items()},
        )


def _is_int(value) -> bool:
    """An int that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # The bound rejects inf and nan, and an int past float range without converting it.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


# Annotated type -> (check, what the message calls it).  Values annotated
# with any other type are left to the code that consumes them.
_TYPE_CHECKS = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    str | None: (lambda v: v is None or isinstance(v, str), "a string or null"),
    int | None: (lambda v: v is None or _is_int(v), "an integer or null"),
    tuple[int, ...]: (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
        "a list of integers",
    ),
    list: (lambda v: isinstance(v, list), "a list"),
    list[str]: (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                "a list of strings"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}


def _check_types(where, values, types):
    for key, value in values.items():
        t = types.get(key)
        if get_origin(t) is Literal:
            ok, kind = value in get_args(t), f"one of {get_args(t)}"
        else:
            check, kind = _TYPE_CHECKS.get(t, (None, None))
            ok = check is None or check(value)
        if not ok:
            raise ValueError(f"{where}{key} must be {kind}, got {value!r}")


def _check_section(section, values):
    unknown = set(values) - set(_SECTION_TYPES[section])
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    _check_types(f"{section}.", values, _SECTION_TYPES[section])


def check_dataset(spec: dict):
    """Raise ValueError unless ``spec`` is a ``dataset`` section: known
    keys, values of the types its builders' signatures give, a kind of
    ``BUILDERS``, and every parameter that kind's builder has no default for."""
    _check_section("dataset", spec)
    kind = spec.get("kind")
    if kind not in BUILDERS:
        raise ValueError(f"dataset.kind must be one of {sorted(BUILDERS)}, got {kind!r}")
    for name, p in inspect.signature(BUILDERS[kind]).parameters.items():
        if p.default is p.empty and name not in spec:
            raise ValueError(f"dataset.{name} must be set for kind {kind!r}")


def _build(what, make):
    try:
        make()
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int past float range
        raise ValueError(f"bad {what}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # recursion: nested too deep
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return data


def parse_override(text: str):
    """Split one ``key=value`` override; the value parses as JSON when it
    can, and stays a string otherwise.  JSON nested past the recursion
    limit is a ValueError."""
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ValueError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError as exc:
        raise ValueError(f"override {key!r} is not valid JSON: {exc}") from None
    return key, value


def apply_override(data: dict, key: str, value):
    """Set a possibly dotted key (``ema.alpha=0.99``) inside ``data``."""
    parts = key.split(".")
    here = data
    for part in parts[:-1]:
        nxt = here.get(part)
        if nxt is None:
            nxt = here[part] = {}
        elif not isinstance(nxt, dict):
            raise ValueError(f"cannot descend into non-object config key {part!r}")
        here = nxt
    here[parts[-1]] = value


def resolve_config(path=None, overrides=(), forced_task=None) -> ExperimentConfig:
    data = load_config(path) if path else {}
    for text in overrides:
        key, value = parse_override(text)
        apply_override(data, key, value)
    if forced_task is not None:
        data["task"] = forced_task
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
