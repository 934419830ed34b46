"""Experiment configuration: JSON file + --key=value overrides, strictly
validated before any computation runs."""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

TASKS = ("toy", "train", "qc", "fold", "ablate", "eval", "report")

_DATASET_KEYS = {
    "kind",
    "seed",
    "n",
    "dim",
    "classes",
    "mode",
    "noise",
    "separation",
    "teacher",
    "eval_fraction",
    "calib_fraction",
    "path",
    "labels_path",
    "target",
    "task",
}
_EMA_KEYS = {"enabled", "alpha", "warmup_frac"}
_QC_KEYS = {"granularity", "use_scale", "use_shift", "lr", "batch", "source"}
_TOY_KEYS = {
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
}


@dataclass
class ExperimentConfig:
    task: str = "train"
    out_dir: str = ""  # empty falls back to $QATLAB_OUT, then ./runs
    seeds: list = field(default_factory=lambda: [0])
    dataset: dict = field(
        default_factory=lambda: {"kind": "blobs", "seed": 0, "n": 1000, "dim": 4, "classes": 3}
    )
    network: str = "mlp"
    bits_w: int = 4
    bits_a: int = 4
    first_last_bits: int = 8
    granularity: str = "per_tensor"
    ema: dict = field(
        default_factory=lambda: {"enabled": True, "alpha": 0.999, "warmup_frac": 0.01}
    )
    dampening_lambda: float = 0.0
    qc: dict = field(
        default_factory=lambda: {
            "granularity": "per_channel",
            "use_scale": True,
            "use_shift": True,
            "lr": 1e-4,
            "batch": 32,
            "source": "ema",
        }
    )
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
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.network not in ("mlp", "cnn"):
            raise ValueError(f"network must be mlp or cnn, got {self.network!r}")
        if not self.seeds or not all(isinstance(s, int) for s in self.seeds):
            raise ValueError("seeds must be a non-empty list of integers")
        for name in ("bits_w", "bits_a", "first_last_bits"):
            b = getattr(self, name)
            if not isinstance(b, int) or not 1 <= b <= 16:
                raise ValueError(f"{name} must be an integer in [1, 16]")
        if self.granularity not in ("per_tensor", "per_channel"):
            raise ValueError(f"bad granularity {self.granularity!r}")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.dampening_lambda < 0:
            raise ValueError("dampening_lambda must be >= 0")
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

        _check_keys("dataset", self.dataset, _DATASET_KEYS)
        _check_keys("ema", self.ema, _EMA_KEYS)
        _check_keys("qc", self.qc, _QC_KEYS)
        _check_keys("toy", self.toy, _TOY_KEYS)
        kind = self.dataset.get("kind")
        if kind not in ("blobs", "spirals", "regression", "idx", "csv"):
            raise ValueError(f"dataset.kind must be a known generator, got {kind!r}")
        if not _is_decay(self.ema.get("alpha", 0.999)):
            raise ValueError("ema.alpha must be a number in [0, 1)")
        if self.qc.get("source", "ema") not in ("ema", "live"):
            raise ValueError("qc.source must be 'ema' or 'live'")
        if self.qc.get("granularity", "per_channel") not in ("per_tensor", "per_channel"):
            raise ValueError("qc.granularity must be per_tensor or per_channel")


def _is_decay(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0.0 <= value < 1.0
    )


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
    base = ExperimentConfig()
    merged = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in data:
            value = data[f.name]
            # Section dicts merge over their defaults so partial overrides
            # keep the documented values for the rest.
            if isinstance(getattr(base, f.name), dict) and isinstance(value, dict):
                whole = dict(getattr(base, f.name))
                whole.update(value)
                value = whole
            merged[f.name] = value
        else:
            merged[f.name] = getattr(base, f.name)
    return ExperimentConfig(**merged)


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
