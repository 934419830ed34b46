"""Experiment configuration: JSON file + --key=value overrides, strictly
validated before any computation runs."""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

TASKS = ("toy", "train", "qc", "fold", "ablate", "eval", "report")

# Section defaults.  A section given in a file or by override is merged over
# its defaults, so a partial section keeps the documented values for the rest.
_SECTION_DEFAULTS = {
    "dataset": {"kind": "blobs", "seed": 0, "n": 1000, "dim": 4, "classes": 3},
    "ema": {"enabled": True, "alpha": 0.999, "warmup_frac": 0.01},
    "qc": {
        "granularity": "per_channel",
        "use_scale": True,
        "use_shift": True,
        "lr": 1e-4,
        "batch": 32,
        "source": "ema",
    },
    "toy": {},
}
_SECTION_KEYS = {
    "dataset": {
        "kind",
        "seed",
        "n",
        "dim",
        "classes",
        "noise",
        "separation",
        "teacher",
        "eval_fraction",
        "calib_fraction",
        "path",
        "labels_path",
        "target",
        "task",
    },
    "ema": set(_SECTION_DEFAULTS["ema"]),
    "qc": set(_SECTION_DEFAULTS["qc"]),
    "toy": {
        "w_star",
        "bits_w",
        "bits_x",
        "batch_size",
        "steps",
        "lr",
        "s_w0",
        "s_x0",
        "x_lo",
        "x_hi",
        "ema_alpha",
        "ema_warmup_frac",
    },
}


@dataclass
class ExperimentConfig:
    task: str = "train"
    out_dir: str = ""  # empty falls back to $QATLAB_OUT, then ./runs
    seeds: list = field(default_factory=lambda: [0])
    dataset: dict = field(default_factory=dict)  # sections merge over _SECTION_DEFAULTS
    network: str = "mlp"
    bits_w: int = 4
    bits_a: int = 4
    first_last_bits: int = 8
    granularity: str = "per_tensor"
    ema: dict = field(default_factory=dict)
    dampening_lambda: float = 0.0
    qc: dict = field(default_factory=dict)
    epochs: int = 10
    pretrain_epochs: int = 10
    batch: int = 32
    lr: float = 1e-3
    toy: dict = field(default_factory=dict)
    checkpoint: str = ""
    eval_mode: str = "quantized"
    soft_round_k: float = 0.45
    ablate_kind: str = "qc"
    ema_alphas: list = field(default_factory=lambda: [0.99, 0.999, 0.9999])
    runs: list = field(default_factory=list)

    def __post_init__(self):
        for section, defaults in _SECTION_DEFAULTS.items():
            value = getattr(self, section)
            if isinstance(value, dict):
                setattr(self, section, {**defaults, **value})
            _check_keys(section, getattr(self, section), _SECTION_KEYS[section])
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.network not in ("mlp", "cnn"):
            raise ValueError(f"network must be mlp or cnn, got {self.network!r}")
        if (
            not isinstance(self.seeds, list)
            or not self.seeds
            or not all(_is_int(s) for s in self.seeds)
        ):
            raise ValueError("seeds must be a non-empty list of integers")
        for name in ("bits_w", "bits_a", "first_last_bits"):
            b = getattr(self, name)
            if not _is_int(b) or not 1 <= b <= 16:
                raise ValueError(f"{name} must be an integer in [1, 16]")
        for name, lo in (("epochs", 0), ("pretrain_epochs", 0), ("batch", 1)):
            n = getattr(self, name)
            if not _is_int(n) or n < lo:
                raise ValueError(f"{name} must be an integer >= {lo}")
        if self.granularity not in ("per_tensor", "per_channel"):
            raise ValueError(f"bad granularity {self.granularity!r}")
        if not _is_number(self.lr) or self.lr <= 0:
            raise ValueError("lr must be a positive number")
        if not _is_number(self.dampening_lambda) or self.dampening_lambda < 0:
            raise ValueError("dampening_lambda must be a number >= 0")
        if not _is_number(self.soft_round_k):
            raise ValueError("soft_round_k must be a number")
        if self.eval_mode not in ("quantized", "latent", "soft_round", "ema_quantized"):
            raise ValueError(f"bad eval_mode {self.eval_mode!r}")
        if self.ablate_kind not in ("qc", "ema_decay"):
            raise ValueError(f"bad ablate_kind {self.ablate_kind!r}")
        if (
            not isinstance(self.ema_alphas, list)
            or not self.ema_alphas
            or not all(_is_decay(a) for a in self.ema_alphas)
        ):
            raise ValueError("ema_alphas must be a non-empty list of numbers in [0, 1)")

        kind = self.dataset["kind"]
        if kind not in ("blobs", "spirals", "regression", "idx", "csv"):
            raise ValueError(f"dataset.kind must be a known generator, got {kind!r}")
        if not _is_decay(self.ema["alpha"]):
            raise ValueError("ema.alpha must be a number in [0, 1)")
        if self.qc["source"] not in ("ema", "live"):
            raise ValueError("qc.source must be 'ema' or 'live'")
        if self.qc["granularity"] not in ("per_tensor", "per_channel"):
            raise ValueError("qc.granularity must be per_tensor or per_channel")


def _is_int(value) -> bool:
    """An int that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_decay(value) -> bool:
    return _is_number(value) and 0.0 <= value < 1.0


def _check_keys(section, d, allowed):
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - _FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return data


def parse_override(text: str):
    """Split one ``key=value`` override; the value parses as JSON when it
    can, and stays a string otherwise."""
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
