"""Versioned binary checkpoints: JSON header plus checksummed raw tensors.

Layout: 8-byte magic, little-endian uint64 header length, canonical JSON
header, then the tensor blob.  Every tensor entry carries its sha256 so a
truncated or corrupted file fails loudly and names the bad tensor.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .ema import EMAState
from .network import BNParams, LayerSpec, NetworkSpec
from .quantizer import QuantizerState

MAGIC = b"QATLAB01"
FORMAT_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_ENTRY_KEYS = ("name", "dtype", "shape", "offset", "nbytes", "sha256")


@dataclass
class Checkpoint:
    tensors: dict
    topology: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


def _tensor_bytes(arr):
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind == "f":
        arr = arr.astype("<f8", copy=False)
    elif arr.dtype.kind in "iu":
        arr = arr.astype("<i8", copy=False)
    else:
        raise ValueError(f"unsupported tensor dtype {arr.dtype}")
    return arr.tobytes(), ("<f8" if arr.dtype.kind == "f" else "<i8")


def save_checkpoint(path, ckpt: Checkpoint):
    """Write the checkpoint.  Tensor order and JSON layout are canonical,
    so saving the same state twice produces identical bytes."""
    entries, blob = [], []
    offset = 0
    for name in sorted(ckpt.tensors):
        raw, dtype = _tensor_bytes(ckpt.tensors[name])
        entries.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(np.shape(ckpt.tensors[name])),
                "offset": offset,
                "nbytes": len(raw),
                "sha256": hashlib.sha256(raw).hexdigest(),
            }
        )
        blob.append(raw)
        offset += len(raw)
    header = {
        "version": ckpt.version,
        "config": ckpt.config,
        "topology": ckpt.topology,
        "tensors": entries,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for raw in blob:
            fh.write(raw)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    pos = len(MAGIC)
    if len(buf) < pos + 8:
        raise ValueError(f"{path}: truncated header length")
    (head_len,) = struct.unpack("<Q", buf[pos : pos + 8])
    pos += 8
    if len(buf) < pos + head_len:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(buf[pos : pos + head_len])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt header: {exc}") from None
    pos += head_len
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise ValueError(f"{path}: header has no 'tensors' list")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    body = buf[pos:]
    tensors = {}
    for entry in header["tensors"]:
        missing = [k for k in _ENTRY_KEYS if not isinstance(entry, dict) or k not in entry]
        if missing:
            raise ValueError(f"{path}: tensor entry {entry!r} has no {missing}")
        name = entry["name"]
        start, nbytes = entry["offset"], entry["nbytes"]
        raw = body[start : start + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"{path}: truncated data for tensor {name!r}")
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise ValueError(f"{path}: checksum mismatch for tensor {name!r}")
        dtype = _DTYPES.get(entry["dtype"])
        if dtype is None:
            raise ValueError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(entry["shape"]).copy()
    return Checkpoint(
        tensors=tensors,
        topology=header.get("topology", {}),
        config=header.get("config", {}),
        version=version,
    )


def _quant_meta(q):
    if q is None:
        return None
    return {
        "bits": q.bits,
        "signed": q.signed,
        "granularity": q.granularity,
        "axis": q.axis,
    }


def network_to_checkpoint(net: NetworkSpec, config=None, ema: EMAState = None) -> Checkpoint:
    """Capture a network (and optionally its EMA shadows) as a checkpoint."""
    layers = []
    for layer in net.layers:
        layers.append(
            {
                "kind": layer.kind,
                "nonlinearity": layer.nonlinearity,
                "stride": layer.stride,
                "pad": layer.pad,
                "w_quant": _quant_meta(layer.w_quant),
                "a_quant": _quant_meta(layer.a_quant),
                "bn": None
                if layer.bn is None
                else {
                    "momentum": layer.bn.momentum,
                    "eps": layer.bn.eps,
                    "mode": layer.bn.mode,
                },
                "qc": layer.qc_gamma is not None,
            }
        )
    topology = {
        "input_shape": list(net.input_shape),
        "loss": net.loss,
        "layers": layers,
    }
    if ema is not None:
        topology["ema"] = {
            "alpha": ema.alpha,
            "warmup_iters": ema.warmup_iters,
            "iter": ema.iter,
        }
    tensors = {name: arr.copy() for name, arr in net.state_arrays().items()}
    if ema is not None:
        for name, arr in ema.shadows.items():
            tensors[f"ema.{name}"] = arr.copy()
    return Checkpoint(tensors=tensors, topology=topology, config=dict(config or {}))


def checkpoint_to_network(ckpt: Checkpoint):
    """Rebuild ``(net, ema_state)`` from a checkpoint.  ``ema_state`` is
    None when the checkpoint carries no shadows.  A topology key or tensor
    that the checkpoint lacks, or a malformed topology, raises ValueError."""
    try:
        return _rebuild(ckpt.topology, ckpt.tensors)
    except KeyError as exc:
        raise ValueError(f"checkpoint has no topology key or tensor {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed checkpoint topology: {exc}") from None


def _rebuild(topo, t):
    layers = []
    for i, meta in enumerate(topo["layers"]):
        p = f"layer{i}"

        def quant(field_name, scale_key):
            m = meta[field_name]
            if m is None:
                return None
            return QuantizerState(
                s=t[scale_key],
                bits=m["bits"],
                signed=m["signed"],
                granularity=m["granularity"],
                axis=m["axis"],
            )

        bn = None
        if meta["bn"] is not None:
            bn = BNParams(
                gain=t[f"{p}.bn.gain"],
                bias=t[f"{p}.bn.bias"],
                running_mean=t[f"{p}.bn.running_mean"],
                running_var=t[f"{p}.bn.running_var"],
                momentum=meta["bn"]["momentum"],
                eps=meta["bn"]["eps"],
                mode=meta["bn"]["mode"],
            )
        layers.append(
            LayerSpec(
                kind=meta["kind"],
                weight=t[f"{p}.weight"],
                bias=t[f"{p}.bias"],
                w_quant=quant("w_quant", f"{p}.w_scale"),
                a_quant=quant("a_quant", f"{p}.a_scale"),
                bn=bn,
                nonlinearity=meta["nonlinearity"],
                stride=meta["stride"],
                pad=meta["pad"],
                qc_gamma=t.get(f"{p}.qc_gamma") if meta["qc"] else None,
                qc_beta=t.get(f"{p}.qc_beta") if meta["qc"] else None,
            )
        )
    net = NetworkSpec(
        layers=layers, input_shape=tuple(topo["input_shape"]), loss=topo["loss"]
    )
    ema = None
    if "ema" in topo:
        shadows = {
            name[len("ema.") :]: arr.copy()
            for name, arr in t.items()
            if name.startswith("ema.")
        }
        ema = EMAState(
            alpha=topo["ema"]["alpha"],
            warmup_iters=topo["ema"]["warmup_iters"],
            iter=topo["ema"]["iter"],
            shadows=shadows,
        )
    return net, ema
