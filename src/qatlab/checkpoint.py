"""Versioned binary checkpoints: JSON header plus checksummed raw tensors.

Layout: 8-byte magic, little-endian uint64 header length, canonical JSON
header, then the tensor blob.  Every tensor entry carries its sha256 so a
truncated or corrupted file fails loudly and names the bad tensor.

A network's topology is read off its dataclasses: each entry holds the
constructor fields that are not arrays (the arrays are tensors), and on
load those values are type-checked against the field annotations.
"""

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .config import _check_types
from .ema import EMAState
from .network import BNParams, LayerSpec, NetworkSpec
from .quantizer import QuantizerState

MAGIC = b"QATLAB01"
FORMAT_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_ENTRY_TYPES = {
    "name": str,
    "dtype": str,
    "shape": tuple[int, ...],
    "offset": int,
    "nbytes": int,
    "sha256": str,
}


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


def write_atomically(path, write, mode="w"):
    """Create or replace ``path`` with what ``write(fh)`` writes, so the
    path holds either its previous bytes or all of the new ones.

    The data goes to a temporary file in the same directory, is flushed to
    disk, and then replaces ``path`` in one rename.  If ``write`` raises,
    the temporary file is removed and ``path`` is untouched.  Text files
    are opened with ``newline=""``, so line endings are written as given.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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

    def write(fh):
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for raw in blob:
            fh.write(raw)

    write_atomically(path, write, "wb")


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
    except (json.JSONDecodeError, RecursionError) as exc:  # recursion: nested too deep
        raise ValueError(f"{path}: corrupt header: {exc}") from None
    pos += head_len
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise ValueError(f"{path}: header has no 'tensors' list")
    if not isinstance(header.get("config", {}), dict):
        raise ValueError(f"{path}: header 'config' is not an object")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    body = buf[pos:]
    # The tensors lie in table order, none overlapping, and the last one ends
    # the file.
    tensors, end = {}, 0
    for entry in header["tensors"]:
        missing = [k for k in _ENTRY_TYPES if not isinstance(entry, dict) or k not in entry]
        if missing:
            raise ValueError(f"{path}: tensor entry {entry!r} has no {missing}")
        name, shape, start, nbytes = entry["name"], entry["shape"], entry["offset"], entry["nbytes"]
        _check_types(f"{path}: tensor {name!r} ", entry, _ENTRY_TYPES)
        dtype = _DTYPES.get(entry["dtype"])
        if dtype is None:
            raise ValueError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']}")
        if min(shape, default=0) < 0 or nbytes != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"{path}: tensor {name!r} of shape {shape} cannot hold {nbytes} bytes")
        if start < end:
            raise ValueError(f"{path}: tensor {name!r} starts at {start}, before {end}")
        raw = body[start : start + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"{path}: truncated data for tensor {name!r}")
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise ValueError(f"{path}: checksum mismatch for tensor {name!r}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        end = start + nbytes
    if len(body) != end:
        raise ValueError(f"{path}: {len(body) - end} bytes follow the last tensor")
    return Checkpoint(
        tensors=tensors,
        topology=header.get("topology", {}),
        config=header.get("config", {}),
        version=version,
    )


def _topology_fields(cls) -> dict:
    """Name -> annotation of the constructor fields of dataclass ``cls``
    that the topology holds: all but the arrays, which are tensors."""
    hints = get_type_hints(cls)
    return {
        f.name: hints[f.name]
        for f in fields(cls)
        if f.init and hints[f.name] not in (np.ndarray, dict[str, np.ndarray])
    }


def _entry(obj, **given) -> dict:
    """``obj``'s topology entry: its ``_topology_fields``, each dataclass
    value an entry of its own, then the ``given`` keys."""
    entry = {}
    for name in _topology_fields(type(obj)):
        value = getattr(obj, name)
        entry[name] = _entry(value) if is_dataclass(value) else value
    return {**entry, **given}


def _read(cls, entry, take, prefix, **given):
    """``cls`` rebuilt from its topology ``entry``: each field ``given`` as
    passed, each other array as ``take("<prefix>.<name>")``, and the rest
    from ``entry``, type-checked against their annotations.  Keys of
    ``entry`` that are no field are ignored."""
    if not isinstance(entry, dict):
        raise ValueError(f"malformed checkpoint topology: {prefix} is {entry!r}")
    types = _topology_fields(cls)
    values = {
        f.name: entry[f.name] if f.name in types else take(f"{prefix}.{f.name}")
        for f in fields(cls)
        if f.init and f.name not in given
    }
    _check_types(f"{prefix}.", values, types)
    return cls(**values, **given)


def network_to_checkpoint(net: NetworkSpec, config=None, ema: EMAState = None) -> Checkpoint:
    """Capture a network (and optionally its EMA shadows) as a checkpoint.
    The topology holds each dataclass's ``_topology_fields``, plus a ``qc``
    flag per layer; the arrays are tensors named as in ``state_arrays``."""
    layers = [_entry(layer, qc=layer.qc_gamma is not None) for layer in net.layers]
    topology = _entry(net, layers=layers)
    tensors = {name: arr.copy() for name, arr in net.state_arrays().items()}
    if ema is not None:
        topology["ema"] = _entry(ema)
        for name, arr in ema.shadows.items():
            tensors[f"ema.{name}"] = arr.copy()
    return Checkpoint(tensors=tensors, topology=topology, config=dict(config or {}))


def checkpoint_to_network(ckpt: Checkpoint):
    """Rebuild ``(net, ema_state)`` from a checkpoint.  ``ema_state`` is
    None when the checkpoint carries no shadows.  A topology key or tensor
    that the checkpoint lacks, a value of the wrong type or out of range, a
    tensor that no field takes, or shadows that do not match the network's
    parameters raise ValueError."""
    try:
        return _rebuild(ckpt.topology, ckpt.tensors)
    except KeyError as exc:
        raise ValueError(f"checkpoint has no topology key or tensor {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed checkpoint topology: {exc}") from None


def _rebuild(topo, tensors):
    left = dict(tensors)  # what no field has taken yet

    def take(name):
        arr = left.pop(name)
        if arr.dtype.kind != "f":
            raise ValueError(f"tensor {name!r} holds {arr.dtype}, not floats")
        return arr

    def quant(entry, where, scale):
        return None if entry is None else _read(QuantizerState, entry, take, where, s=take(scale))

    layers = []
    for i, entry in enumerate(topo["layers"]):
        p = f"layer{i}"
        bn = entry["bn"]
        _check_types(f"{p}.", {"qc": entry["qc"]}, {"qc": bool})
        layers.append(
            _read(
                LayerSpec,
                entry,
                take,
                p,
                w_quant=quant(entry["w_quant"], f"{p}.w_quant", f"{p}.w_scale"),
                a_quant=quant(entry["a_quant"], f"{p}.a_quant", f"{p}.a_scale"),
                bn=None if bn is None else _read(BNParams, bn, take, f"{p}.bn"),
                **({} if entry["qc"] else {"qc_gamma": None, "qc_beta": None}),
            )
        )
    net = _read(NetworkSpec, topo, take, "topology", layers=layers)
    ema = None
    if "ema" in topo:
        shadows = {name[len("ema.") :]: take(name) for name in tensors if name.startswith("ema.")}
        ema = _read(EMAState, topo["ema"], take, "ema", shadows=shadows)
        shapes = {name: arr.shape for name, arr in net.parameters().items()}
        if shadows and {name: arr.shape for name, arr in shadows.items()} != shapes:
            raise ValueError("the EMA shadows do not match the network's parameters")
    if left:
        raise ValueError(f"checkpoint tensors {sorted(left)} belong to no field")
    return net, ema
