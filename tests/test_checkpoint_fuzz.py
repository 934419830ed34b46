"""Property test of checkpoints against the documented exit code: a file
with one mutation of its header keys or value types, of its tensor table
(dtype, shape, offset, nbytes, name, sha256) or of its length is unusable,
so ``eval`` exits 3, leaves no run directory and prints no traceback.
``test_bad_file_exits_3`` pins the bad files found so far, by the
property test and by hand.

The file mutated is the fixed CNN of ``test_checkpoint.pinned_state``,
with or without its EMA shadows: it holds eval-mode BN, a per-channel
weight quantizer and both kinds of correction.  Its ``config`` (the
dataset spec) is left alone; ``tests/test_dataset_fuzz.py`` covers that."""

import json
import math
import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatlab.checkpoint import network_to_checkpoint, save_checkpoint
from qatlab.cli import main
from test_checkpoint import pinned_state

SPEC = {"kind": "blobs", "seed": 0, "n": 60, "dim": 16, "classes": 3}
DTYPES = ("<f8", "<i8", "<f4", ">f8", "f8", "")


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    """The pinned checkpoint's bytes, with and without its EMA shadows (a
    checkpoint with shadows also fails on a weight whose shape no longer
    matches its shadow's); ``eval`` takes both as they are."""
    root = tmp_path_factory.mktemp("ckpt_fuzz")
    net, ema = pinned_state()
    config = {"experiment": {"dataset": SPEC}}
    files = []
    for name, shadows in (("ema", ema), ("plain", None)):
        path = root / f"{name}.qat"
        save_checkpoint(path, network_to_checkpoint(net, config, shadows))
        mode = "ema_quantized" if shadows else "quantized"
        argv = ["eval", "--out", str(root / name), "--set", f"checkpoint={path}",
                "--set", f"eval_mode={mode}"]
        assert main(argv) == 0
        files.append(path.read_bytes())
    return files


def _split(raw):
    (head_len,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + head_len]), raw[16 + head_len :]


def _join(raw, header, body):
    head = json.dumps(header).encode()
    return raw[:8] + struct.pack("<Q", len(head)) + head + body


def _paths(node, path=()):
    """Every path into ``node`` but the header's ``config``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if path or key != "config":
            yield path + (key,)
            if isinstance(value, (dict, list)):
                yield from _paths(value, path + (key,))


def _other_type(value):
    """JSON values of a type other than ``value``'s.  A float field takes
    any number, so a float is replaced by no number; an int field takes no
    float, so an int may be replaced by one."""
    scalars = {
        type(None): st.none(),
        bool: st.booleans(),
        int: st.integers(-5, 500),
        float: st.floats(),
        str: st.sampled_from(["", "x", "1", "per_tensor", "eval", "<f8"]),
    }
    scalars[list] = st.lists(st.integers(-2, 4) | st.sampled_from(["x", None]), max_size=3)
    scalars[dict] = st.dictionaries(st.sampled_from(["bits", "eps", "x"]), st.integers(0, 3),
                                    max_size=2)
    excluded = {type(value)} | ({int} if isinstance(value, float) else set())
    return st.one_of([s for t, s in scalars.items() if t not in excluded])


def _table_value(key, value, table, size):
    """Values of ``key``'s own type for a tensor-table entry, other than
    ``value``: shapes of the same size or not, offsets of other tensors."""
    own = {
        "dtype": lambda: st.sampled_from(DTYPES),
        "shape": lambda: st.permutations(value)
        | st.sampled_from([[*value, 1], [1, *value], [-1], [*value[1:], -1], [math.prod(value)]])
        | st.lists(st.integers(-1, 40), max_size=4),
        "offset": lambda: st.sampled_from([e["offset"] for e in table]) | st.integers(-8, size + 8),
        "nbytes": lambda: st.integers(-8, size + 8),
        "name": lambda: st.sampled_from([e["name"] for e in table] + ["", "x", "layer0.weight "]),
        "sha256": lambda: st.sampled_from(["", "0" * 64]),
    }
    return own[key]().filter(lambda v: v != value)


@st.composite
def _mutations(draw, raw):
    """One mutation of ``raw``: a header key deleted or given a value of
    another type (in the topology as often as in the tensor table), a
    tensor-table value of its own type (often the shape of a weight), or
    the file cut short or extended."""
    header, body = _split(raw)
    table = header["tensors"]
    kind = draw(st.sampled_from(["delete", "retype", "table", "shape", "cut", "extend"]))
    if kind == "cut":
        return kind, raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "extend":
        return kind, raw + draw(st.binary(min_size=1, max_size=16))
    if kind == "table":
        i = draw(st.integers(0, len(table) - 1))
        path = ("tensors", i, draw(st.sampled_from(sorted(table[i]))))
    elif kind == "shape":
        weights = [i for i, e in enumerate(table) if len(e["shape"]) > 1]
        path = ("tensors", draw(st.sampled_from(weights)), "shape")
    else:
        section = draw(st.sampled_from([(), ("topology",), ("topology",), ("tensors",)]))
        node = header
        for key in section:
            node = node[key]
        path = section + draw(st.sampled_from(list(_paths(node))))
    node = header
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    if kind == "delete":
        del node[path[-1]]
    elif kind == "retype":
        node[path[-1]] = draw(_other_type(old))
    else:
        node[path[-1]] = draw(_table_value(path[-1], old, table, len(body)))
    return (kind, path, old, node.get(path[-1]) if isinstance(node, dict) else None), _join(
        raw, header, body
    )


def test_mutated_checkpoint_exits_3(pinned_files, tmp_path, capfd):
    bad, out = tmp_path / "bad.qat", tmp_path / "out"

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(data=st.data(), mode=st.sampled_from(["quantized", "ema_quantized"]))
    def run(data, mode):
        what, raw = data.draw(_mutations(data.draw(st.sampled_from(pinned_files))))
        bad.write_bytes(raw)
        try:
            rc = main(["eval", "--out", str(out), "--set", f"checkpoint={bad}",
                       "--set", f"eval_mode={mode}"])
            assert rc == 3, what
            assert not out.exists(), what
        finally:
            shutil.rmtree(out, ignore_errors=True)
        assert "Traceback" not in capfd.readouterr().err

    run()


def _entry(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def _set(*path, value):
    def change(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return change


LAYER1 = ("topology", "layers", 1)


@pytest.mark.parametrize(
    "which, change, named",
    [
        # A tensor-table field of the wrong JSON type: exit 1, a traceback.
        (0, _set("tensors", 0, "offset", value="x"), "offset"),
        (0, _set("tensors", 0, "offset", value=1.5), "offset"),
        (0, _set("tensors", 0, "shape", value="x"), "shape"),
        (0, _set("tensors", 0, "shape", value=[2.5]), "shape"),
        (0, _set("tensors", 0, "nbytes", value=None), "nbytes"),
        (0, _set("tensors", 0, "dtype", value=["<f8"]), "dtype"),
        (0, _set("tensors", 0, "name", value=5), "name"),
        # A topology value of the wrong type or out of range.
        (0, _set(*LAYER1, "bn", "eps", value=-1.0), "eps"),
        (0, _set(*LAYER1, "bn", "momentum", value="x"), "momentum"),
        (0, _set(*LAYER1, "stride", value=0), "stride"),
        (0, _set(*LAYER1, "stride", value="1"), "stride"),
        (0, _set(*LAYER1, "pad", value=-3), "pad"),
        (0, _set("topology", "input_shape", value="ab"), "input_shape"),
        (0, _set("topology", "input_shape", value=[1.0, 4, 4]), "input_shape"),
        (0, _set("topology", "ema", "iter", value="x"), "ema.iter"),
        (0, _set("topology", "ema", "iter", value=-3), "iter must be >= 0"),
        (0, _set(*LAYER1, "a_quant", "axis", value=0), "axis"),
        (0, _set(*LAYER1, "w_quant", "bits", value=10000), "bits"),
        (0, _set("topology", "layers", value=[]), "layers"),
        (0, _set("version", value=True), "version"),
        (0, _set("version", value=1.0), "version"),
        # Escapes the property test found.
        (0, lambda h: _entry(h, "layer1.weight").update(dtype="<i8"), "int64"),
        (0, lambda h: _entry(h, "layer1.bn.running_mean").update(shape=[3, 1]), "vectors"),
        (0, lambda h: _entry(h, "layer1.bias").update(shape=[-1]), "cannot hold"),
        (0, lambda h: _entry(h, "layer2.bias").update(offset=_entry(h, "layer1.bias")["offset"]),
         "starts at"),
        (0, lambda h: h["tensors"].remove(_entry(h, "ema.layer0.a_scale")), "EMA shadows"),
        (0, lambda h: h["topology"].pop("ema"), "belong to no field"),
        (0, _set(*("topology", "layers", 3), "qc", value=None), "layer3.qc"),
        (1, lambda h: _entry(h, "layer1.weight").update(shape=[3, 3, 2, 3]), "channels"),
        (1, None, "follow the last tensor"),
    ],
    ids=["offset_str", "offset_float", "shape_str", "shape_float", "nbytes_null",
         "dtype_list", "name_int", "eps_negative", "momentum_str", "stride_0", "stride_str",
         "pad_negative", "input_shape_str", "input_shape_float", "ema_iter_str",
         "ema_iter_negative", "per_tensor_axis", "bits_huge", "no_layers", "version_bool",
         "version_float", "int_weight", "bn_stat_shape", "negative_dim",
         "identical_bytes_elsewhere", "missing_shadow", "no_ema_entry", "qc_null",
         "in_channels", "trailing_bytes"],
)
def test_bad_file_exits_3(pinned_files, tmp_path, capsys, which, change, named):
    """Files that ``eval`` took (exit 0), failed on while running (exit 2)
    or died on with a traceback (exit 1) before they were rejected on
    load: exit 3, naming what is wrong, with no run directory."""
    raw = pinned_files[which]
    if change is None:
        raw += b"\0"
    else:
        header, body = _split(raw)
        change(header)
        raw = _join(raw, header, body)
    bad, out = tmp_path / "bad.qat", tmp_path / "out"
    bad.write_bytes(raw)
    assert main(["eval", "--out", str(out), "--set", f"checkpoint={bad}"]) == 3
    err = capsys.readouterr().err
    assert "unusable checkpoint" in err and named in err
    assert not out.exists()
