"""Property tests of the ``dataset`` section against the documented exit
codes: whatever a user sets there, ``train`` exits 0 or 2 (and a 2 leaves
no run directory); whatever a checkpoint's embedded dataset spec holds,
``eval`` exits 0 or 3.  Paths are drawn only from a fixed set of files."""

import contextlib
import copy
import json
import shutil
import struct
from typing import Literal, get_args, get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatlab.checkpoint import load_checkpoint, save_checkpoint
from qatlab.cli import main
from qatlab.config import _SECTION_TYPES

KINDS = ("blobs", "spirals", "regression", "idx", "csv")
DATASET_KEYS = sorted(_SECTION_TYPES["dataset"])
UNKNOWN_KEYS = ("mode", "schema", "images_path", "Seed", "")
FILES = ("missing.csv", "data.csv", "images.idx", "labels.idx")
WORDS = ("", "x", "target", "a", *KINDS, "classification", "spirals ")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a valid CSV (integer targets, so both tasks
    load it), a valid IDX image file with its label file, and no
    ``missing.csv``."""
    root = tmp_path_factory.mktemp("fuzz")
    rows = "".join(f"{i % 5}.5,{(i * 7) % 11}.0,{i % 3}\n" for i in range(60))
    (root / "data.csv").write_text("a,b,target\n" + rows)
    n = 40
    (root / "images.idx").write_bytes(
        b"\x00\x00\x08\x03" + struct.pack(">III", n, 4, 4) + bytes(i % 256 for i in range(n * 16))
    )
    (root / "labels.idx").write_bytes(
        b"\x00\x00\x08\x01" + struct.pack(">I", n) + bytes(i % 3 for i in range(n))
    )
    return root


def _values(root):
    """Values of every JSON type, scalars most often; strings are file
    paths under ``root`` or words that name no file there."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-5, 500)
        | st.floats(allow_nan=False, allow_infinity=False)
        | _strings(root)
    )
    objects = st.dictionaries(st.sampled_from(WORDS), scalars, max_size=2)
    return scalars | st.lists(scalars, max_size=3) | objects


def _strings(root):
    return st.sampled_from([str(root / name) for name in FILES] + list(WORDS))


def _of_type(root, key):
    """Values of the type ``key`` is annotated with, often in range."""
    t = _SECTION_TYPES["dataset"][key]
    if get_origin(t) is Literal:
        return st.sampled_from(get_args(t))
    return {
        int: st.integers(-5, 500),
        float: st.floats(-0.5, 1.5) | st.floats(allow_nan=False, allow_infinity=False),
        tuple[int, ...]: st.lists(st.integers(-5, 500), max_size=3),
    }.get(t, _strings(root))


@st.composite
def _dataset_sets(draw, root):
    """``--set`` arguments for the dataset section: a kind, maybe a path,
    a few known keys with values mostly of their own type, else of any
    JSON type, and now and then an unknown key."""
    sets = [f"dataset.kind={draw(st.sampled_from(KINDS))}"]
    path = draw(st.sampled_from((None, *FILES)))
    if path is not None:
        sets.append(f"dataset.path={root / path}")
    pairs = []
    for key in draw(st.lists(st.sampled_from(DATASET_KEYS), max_size=4)):
        typed = draw(st.sampled_from((True, True, True, False)))
        pairs.append((key, draw(_of_type(root, key) if typed else _values(root))))
    unknown = draw(st.sampled_from((None,) * 5 * len(UNKNOWN_KEYS) + UNKNOWN_KEYS))
    if unknown is not None:
        pairs.append((unknown, draw(_values(root))))
    sets += [f"dataset.{key}={json.dumps(value)}" for key, value in pairs]
    return sets


@contextlib.contextmanager
def _fresh_out(root):
    """An output directory that does not exist yet, removed afterwards."""
    out = root / "out"
    try:
        yield out
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_train_dataset_section_exits_0_or_2(files, capfd, monkeypatch):
    monkeypatch.chdir(files)  # a word drawn as a path names no file here

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(sets=_dataset_sets(files))
    def run(sets):
        with _fresh_out(files) as out:
            argv = ["train", "--out", str(out), "--set", "epochs=0", "--set", "pretrain_epochs=0"]
            rc = main(argv + [arg for s in sets for arg in ("--set", s)])
            assert rc in (0, 2), sets
            if rc == 2:
                assert not out.exists(), sets
        assert "Traceback" not in capfd.readouterr().err

    run()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_ckpt")
    sets = ["epochs=1", "pretrain_epochs=0", "dataset.n=120", "batch=16"]
    assert main(["train", "--out", str(out), *[a for s in sets for a in ("--set", s)]]) == 0
    return load_checkpoint(out / "train-seed0" / "checkpoint.qat")


def test_checkpoint_dataset_spec_exits_0_or_3(files, trained_checkpoint, capfd, monkeypatch):
    monkeypatch.chdir(files)
    spec_keys = sorted(trained_checkpoint.config["experiment"]["dataset"])

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        key=st.sampled_from(DATASET_KEYS + list(UNKNOWN_KEYS)),
        data=st.data(),
        delete=st.sampled_from([None, *spec_keys]),
    )
    def run(key, data, delete):
        typed = _of_type(files, key) if key in DATASET_KEYS else st.nothing()
        value = data.draw(typed | _values(files))
        ckpt = copy.deepcopy(trained_checkpoint)
        spec = ckpt.config["experiment"]["dataset"]
        if delete is not None:
            del spec[delete]
        else:
            spec[key] = value
        with _fresh_out(files) as out:
            save_checkpoint(files / "fuzz.qat", ckpt)
            rc = main(["eval", "--out", str(out), "--set", f"checkpoint={files / 'fuzz.qat'}"])
            assert rc in (0, 3), (delete, key, value)
            if rc == 3:
                assert not out.exists(), (delete, key, value)
        assert "Traceback" not in capfd.readouterr().err

    run()
