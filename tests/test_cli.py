import csv
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qatlab import cli
from qatlab.checkpoint import (
    checkpoint_to_network,
    load_checkpoint,
    network_to_checkpoint,
    save_checkpoint,
)
from qatlab.cli import main
from qatlab.config import _SECTION_TYPES, ExperimentConfig, resolve_config
from qatlab.network import DENSE, LayerSpec, NetworkSpec, make_bn
from qatlab.quantizer import QuantizerState
from qatlab.training import TrainConfig, attach_quantizers, evaluate, train_latent, train_qat


DELETED = object()  # a dataset spec change that removes the key


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(run_dir):
    with open(run_dir / "manifest.json") as fh:
        return json.load(fh)


TRAIN_ARGS = [
    "--set", "seeds=[0]",
    "--set", "epochs=2",
    "--set", "pretrain_epochs=2",
    "--set", "dataset.n=300",
]


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cliruns")
    assert main(["train", "--out", str(out)] + TRAIN_ARGS) == 0
    return out


class TestToy:
    def test_trace_schema(self, tmp_path):
        assert main(["toy", "--out", str(tmp_path), "--set", "toy.steps=200",
                     "--set", "seeds=[3]"]) == 0
        header, rows = read_csv(tmp_path / "toy-seed3" / "toy_trace.csv")
        assert header == ["iter", "w_0", "w_1", "w_2", "q_w_0", "q_w_1", "q_w_2",
                          "s_w", "s_x", "loss", "flips"]
        assert len(rows) == 200
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]
        flips = [int(r[-1]) for r in rows]
        assert flips == sorted(flips)  # cumulative count never decreases
        assert flips[-1] > 0  # the default problem oscillates

    def test_manifest(self, tmp_path):
        main(["toy", "--out", str(tmp_path), "--set", "toy.steps=100"])
        m = read_manifest(tmp_path / "toy-seed0")
        assert m["status"] == "ok"
        assert m["artifacts"] == ["toy_trace.csv"]
        assert 0.0 <= m["final"]["mean_flip_frequency"] <= 1.0
        assert m["config_hash"] == m["config_hash"].lower()
        assert len(m["config_hash"]) == 64

    def test_trace_bytes_are_pinned(self, tmp_path):
        # A faster run_toy or CSV writer must keep these bytes.
        assert main(["toy", "--out", str(tmp_path), "--set", "seeds=[3]",
                     "--set", "toy.steps=300"]) == 0
        raw = (tmp_path / "toy-seed3" / "toy_trace.csv").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "c313e55f20e876a9b3131549fdfad8c63321a53f8a267802945d10f102145801"
        )


@pytest.mark.parametrize(
    "value, text",
    [
        (-0.0, "-0.0"),
        (1e-300, "1e-300"),
        (float("inf"), "inf"),
        (np.float64(-0.0), "-0.0"),
        (2**64, "18446744073709551616"),
        ("a,b", '"a,b"'),
        ('say "x"', '"say ""x"""'),
        (3, "3"),
        (np.int64(7), "7"),
        (None, ""),
        ("x", "x"),
    ],
)
def test_fmt(tmp_path, value, text):
    """A cell is its str, None is empty, and text is quoted as csv quotes it."""
    cli.write_csv(tmp_path / "t.csv", ["v", "n"], [[value, 1]])
    assert (tmp_path / "t.csv").read_bytes() == f"v,n\r\n{text},1\r\n".encode()


def reference_write_csv(path, header, rows):
    """The one cell rule written as ``csv.writer`` over text cells: a cell
    is its ``str``, None an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                row = [row.get(col) for col in header]
            w.writerow(["" if v is None else str(v) for v in row])


_CSV_TEXT = st.text(alphabet=st.sampled_from(list('ab 1.-,"\r\n\t\x00é')), max_size=6)
_CSV_CELLS = st.one_of(
    st.floats(),  # nan, ±inf and subnormals included
    st.sampled_from([-0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 1e-310]),
    st.integers(-(2**200), 2**200),
    st.sampled_from([2**63, -(2**63) - 1, 2**64]),
    st.none(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _CSV_TEXT,
)


@st.composite
def _csv_tables(draw):
    header = draw(st.lists(_CSV_TEXT, min_size=1, max_size=4, unique=True))
    row = st.one_of(
        st.lists(_CSV_CELLS, min_size=len(header), max_size=len(header)),
        st.dictionaries(st.sampled_from(header), _CSV_CELLS),  # missing keys are None
    )
    return header, draw(st.lists(row, max_size=5))


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(table=_csv_tables())
@example(table=(["a"], [[None], [""], {}, [-0.0]]))
@example(table=([",", '"', "\r", "\n", ""], [[2**64, np.float64(-0.0), np.int64(-7), "x,y", None]]))
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    """write_csv writes the bytes that csv.writer writes for the cells' text."""
    d = tmp_path_factory.getbasetemp()
    header, rows = table
    reference_write_csv(d / "reference.csv", header, rows)
    cli.write_csv(d / "fast.csv", header, rows)
    assert (d / "fast.csv").read_bytes() == (d / "reference.csv").read_bytes()


def test_toy_trace_cells_skip_quoted(tmp_path, monkeypatch):
    """Every toy_trace.csv cell is a native float or int, written as its str
    without a call to _quoted; only the header's cells are quoted."""
    calls = []
    original = cli._quoted

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(cli, "_quoted", counting)
    assert main(["toy", "--out", str(tmp_path), "--set", "seeds=[3]",
                 "--set", "toy.steps=300"]) == 0
    header, _ = read_csv(tmp_path / "toy-seed3" / "toy_trace.csv")
    assert calls == header


def test_every_task_writes_native_cells(tmp_path, monkeypatch):
    """Every cell any task hands write_csv is a float, an int, text or None,
    so the one cell rule covers them; a metrics.csv keeps its six columns
    when a run records no accuracy, no EMA or no epoch."""
    kinds = set()
    original = cli.write_csv

    def recording(path, header, rows):
        for row in rows:
            cells = [row.get(col) for col in header] if isinstance(row, dict) else row
            kinds.update(type(v) for v in cells)
        original(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", recording)
    small = ["--set", "dataset.n=200", "--set", "epochs=1", "--set", "pretrain_epochs=1"]
    ckpt = f"checkpoint={tmp_path}/cls/train-seed0/checkpoint.qat"
    calls = {
        "toy": ["toy", "--set", "toy.steps=50"],
        "cls": ["train", *small],
        "reg": ["train", *small, "--set", "dataset.kind=regression",
                "--set", "ema.enabled=false"],
        "zero": ["train", *small, "--set", "epochs=0"],
        "qc": ["qc", "--set", ckpt],
        "fold": ["fold", "--set", f"checkpoint={tmp_path}/qc/qc-seed0/qc_checkpoint.qat"],
        "eval": ["eval", "--set", ckpt],
        "ablate_qc": ["ablate", "--set", ckpt],
        "ablate_ema": ["ablate", *small, "--set", "ablate_kind=ema_decay"],
    }
    for out, argv in calls.items():
        assert main([argv[0], "--out", str(tmp_path / out), *argv[1:]]) == 0, out
    runs = sorted(str(p.parent) for p in tmp_path.glob("*/*/manifest.json"))
    assert main(["report", "--out", str(tmp_path / "report"), *runs]) == 0
    assert len(read_csv(tmp_path / "report" / "report" / "report.csv")[1]) > 0
    assert kinds <= {float, int, str, type(None)}
    for out in ("reg", "zero"):
        header, rows = read_csv(tmp_path / out / "train-seed0" / "metrics.csv")
        assert header == list(cli.METRIC_COLUMNS)
        # Regression records no accuracy, EMA off no ema_ values, epochs=0 no row.
        assert [row[3:] for row in rows] == ([["", "", ""]] if out == "reg" else [])


class TestTrain:
    # Each Adam step moves a weight by about lr, so the loss soon passes
    # DIVERGENCE_LIMIT while it is still finite.
    def test_pretraining_divergence_exits_3(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path), "--set", "lr=1e30"] + TRAIN_ARGS) == 3
        m = read_manifest(tmp_path / "train-seed0")
        assert m["status"] == "failed"
        assert m["error"].startswith("pretraining diverged (loss=")
        assert "run failed: pretraining diverged" in capsys.readouterr().err

    def test_metrics_and_manifest(self, train_run):
        header, rows = read_csv(train_run / "train-seed0" / "metrics.csv")
        assert header == ["epoch", "train_loss", "eval_loss", "eval_accuracy",
                          "ema_eval_loss", "ema_eval_accuracy"]
        assert len(rows) == 2
        m = read_manifest(train_run / "train-seed0")
        assert m["status"] == "ok"
        assert m["method"] == "ema"
        assert m["bits_w"] == 4
        assert set(m["artifacts"]) == {"checkpoint.qat", "metrics.csv"}

    def test_flip_stats_are_pinned(self, train_run):
        # A change to the tracker, or to the steps train_qat records, must
        # keep these values.
        final = read_manifest(train_run / "train-seed0")["final"]
        assert final["mean_flip_frequency"] == 0.04034900284900285
        assert final["oscillating_fraction"] == 0.1909722222222222

    def test_checkpoint_loads(self, train_run):
        ckpt = load_checkpoint(train_run / "train-seed0" / "checkpoint.qat")
        net, ema = checkpoint_to_network(ckpt)
        assert ema is not None and ema.shadows
        assert ckpt.config["experiment"]["dataset"]["n"] == 300

    def test_multiple_seeds_get_own_dirs(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--set", "seeds=[0,1]",
                     "--set", "epochs=1", "--set", "pretrain_epochs=1",
                     "--set", "dataset.n=200"]) == 0
        assert (tmp_path / "train-seed0" / "metrics.csv").exists()
        assert (tmp_path / "train-seed1" / "metrics.csv").exists()
        a = read_csv(tmp_path / "train-seed0" / "metrics.csv")[1]
        b = read_csv(tmp_path / "train-seed1" / "metrics.csv")[1]
        assert a != b  # different seed, different trajectory

    def test_rerun_is_byte_identical(self, train_run, tmp_path):
        """Same config and seed must reproduce the metrics file exactly."""
        assert main(["train", "--out", str(tmp_path)] + TRAIN_ARGS) == 0
        first = (train_run / "train-seed0" / "metrics.csv").read_bytes()
        again = (tmp_path / "train-seed0" / "metrics.csv").read_bytes()
        assert first == again

    def test_method_label_tracks_config(self, tmp_path):
        main(["train", "--out", str(tmp_path), "--set", "seeds=[0]",
              "--set", "epochs=1", "--set", "pretrain_epochs=0",
              "--set", "dataset.n=200", "--set", "ema.enabled=false",
              "--set", "dampening_lambda=0.1"])
        assert read_manifest(tmp_path / "train-seed0")["method"] == "dampening"

    def test_zero_epochs_saves_unchanged_qat_net(self, tmp_path):
        """epochs=0 pretrains, attaches quantizers and saves without QAT."""
        assert main(["train", "--out", str(tmp_path), "--set", "seeds=[0]",
                     "--set", "epochs=0", "--set", "pretrain_epochs=1",
                     "--set", "dataset.n=200"]) == 0
        assert (tmp_path / "train-seed0" / "checkpoint.qat").exists()
        assert read_manifest(tmp_path / "train-seed0")["status"] == "ok"


class TestEval:
    def test_matches_training_log(self, train_run, tmp_path):
        """Loading the checkpoint and evaluating reproduces the last
        logged eval metric exactly."""
        ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
        assert main(["eval", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}"]) == 0
        header, rows = read_csv(tmp_path / "eval-seed0" / "eval.csv")
        assert header == ["mode", "loss", "accuracy"]
        _, train_rows = read_csv(train_run / "train-seed0" / "metrics.csv")
        assert rows[0][1] == train_rows[-1][2]  # same repr, same float

    def test_ema_mode_matches_log(self, train_run, tmp_path):
        ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
        main(["eval", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}",
              "--set", "eval_mode=ema_quantized"])
        _, rows = read_csv(tmp_path / "eval-seed0" / "eval.csv")
        _, train_rows = read_csv(train_run / "train-seed0" / "metrics.csv")
        assert rows[0][1] == train_rows[-1][4]

    def test_ema_eval_without_shadows_fails(self, tmp_path):
        main(["train", "--out", str(tmp_path), "--set", "seeds=[0]",
              "--set", "epochs=1", "--set", "pretrain_epochs=0",
              "--set", "dataset.n=200", "--set", "ema.enabled=false"])
        ckpt = str(tmp_path / "train-seed0" / "checkpoint.qat")
        code = main(["eval", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}",
                     "--set", "eval_mode=ema_quantized"])
        assert code == 3
        assert read_manifest(tmp_path / "eval-seed0")["status"] == "failed"


@pytest.fixture(scope="module")
def qc_run(train_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("qcruns")
    ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
    assert main(["qc", "--out", str(out), "--set", f"checkpoint={ckpt}",
                 "--set", "qc.lr=0.001"]) == 0
    return out


class TestQcFold:
    def test_qc_metrics(self, qc_run):
        header, rows = read_csv(qc_run / "qc-seed0" / "qc_metrics.csv")
        assert header[:4] == ["calib_loss_before", "calib_loss_after",
                              "eval_loss_before", "eval_loss_after"]
        vals = [float(v) for v in rows[0]]
        assert all(np.isfinite(vals))
        assert read_manifest(qc_run / "qc-seed0")["method"] == "ema_qc"

    def test_qc_checkpoint_consistent(self, qc_run, train_run):
        ckpt = load_checkpoint(qc_run / "qc-seed0" / "qc_checkpoint.qat")
        net, _ = checkpoint_to_network(ckpt)
        assert any(l.qc_gamma is not None for l in net.layers)
        # dataset spec rides along so downstream tasks rebuild the same data
        assert ckpt.config["experiment"]["dataset"]["n"] == 300

    def test_fold_report(self, qc_run, tmp_path):
        ckpt = str(qc_run / "qc-seed0" / "qc_checkpoint.qat")
        assert main(["fold", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}"]) == 0
        header, rows = read_csv(tmp_path / "fold-seed0" / "fold_report.csv")
        row = dict(zip(header, [float(v) for v in rows[0]]))
        assert row["max_abs_output_diff"] <= 1e-6
        assert abs(row["eval_loss_after"] - row["eval_loss_before"]) <= 1e-6
        folded, _ = checkpoint_to_network(
            load_checkpoint(tmp_path / "fold-seed0" / "folded_checkpoint.qat"))
        assert all(l.bn is None for l in folded.layers)

    def test_per_tensor_correction_folds(self, train_run, tmp_path):
        ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
        assert main(["qc", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}",
                     "--set", "qc.granularity=per_tensor"]) == 0
        qc_ckpt = tmp_path / "qc-seed0" / "qc_checkpoint.qat"
        corrected, _ = checkpoint_to_network(load_checkpoint(qc_ckpt))
        assert {l.qc_gamma.shape for l in corrected.layers if l.qc_gamma is not None} == {(1,)}
        assert main(["fold", "--out", str(tmp_path), "--set", f"checkpoint={qc_ckpt}"]) == 0
        header, rows = read_csv(tmp_path / "fold-seed0" / "fold_report.csv")
        assert float(dict(zip(header, rows[0]))["max_abs_output_diff"]) <= 1e-6

    def test_per_channel_checkpoint_folds(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--set", "granularity=per_channel"]
                    + TRAIN_ARGS) == 0
        ckpt = tmp_path / "train-seed0" / "checkpoint.qat"
        assert main(["qc", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}"]) == 0
        for source in (ckpt, tmp_path / "qc-seed0" / "qc_checkpoint.qat"):
            out = tmp_path / source.stem
            assert main(["fold", "--out", str(out), "--set", f"checkpoint={source}"]) == 0
            header, rows = read_csv(out / "fold-seed0" / "fold_report.csv")
            assert float(dict(zip(header, rows[0]))["max_abs_output_diff"]) <= 1e-6

    def test_diverging_fit_exits_3(self, train_run, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qatlab.training.DIVERGENCE_LIMIT", 1e-9)
        ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
        assert main(["qc", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}"]) == 3
        m = read_manifest(tmp_path / "qc-seed0")
        assert m["status"] == "failed"
        assert m["error"].startswith("correction fitting diverged (loss=")
        assert "run failed: correction fitting diverged" in capsys.readouterr().err

    def test_fold_refuses_inexact_fold(self, tmp_path):
        """A negative BN gain sends a weight at the lowest code (-4 on the
        3-bit grid) to +4, which clips to +3: the fold changes the outputs,
        so the task fails instead of writing a folded checkpoint."""
        layer = LayerSpec(
            kind=DENSE,
            weight=np.array([[-1.0, 0.5], [0.25, 0.5]]),
            bias=np.zeros(2),
            w_quant=QuantizerState(s=np.asarray(0.25), bits=3),
            bn=make_bn(2, eps=0.0),
        )
        layer.bn.gain = np.array([-1.0, 1.0])
        net = NetworkSpec(layers=[layer], input_shape=(2,))
        spec = {"kind": "blobs", "seed": 0, "n": 40, "dim": 2, "classes": 2}
        ckpt = tmp_path / "crafted.qat"
        save_checkpoint(ckpt, network_to_checkpoint(net, {"experiment": {"dataset": spec}}))
        assert main(["fold", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}"]) == 3
        m = read_manifest(tmp_path / "fold-seed0")
        assert m["status"] == "failed"
        assert m["artifacts"] == ["fold_report.csv"]
        header, rows = read_csv(tmp_path / "fold-seed0" / "fold_report.csv")
        assert float(dict(zip(header, rows[0]))["max_abs_output_diff"]) > 0.1


class TestAblate:
    def test_qc_grid(self, train_run, tmp_path):
        ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
        assert main(["ablate", "--out", str(tmp_path), "--set", f"checkpoint={ckpt}"]) == 0
        header, rows = read_csv(tmp_path / "ablate-seed0" / "ablation.csv")
        assert header[:2] == ["granularity", "variant"]
        cells = {(r[0], r[1]) for r in rows}
        assert cells == {(g, v) for g in ("per_channel", "per_tensor")
                         for v in ("scale", "shift", "both")}

    def test_ema_decay_sweep(self, tmp_path):
        assert main(["ablate", "--out", str(tmp_path), "--set", "ablate_kind=ema_decay",
                     "--set", "ema_alphas=[0.9,0.99]", "--set", "seeds=[0]",
                     "--set", "epochs=1", "--set", "pretrain_epochs=1",
                     "--set", "dataset.n=200"]) == 0
        header, rows = read_csv(tmp_path / "ablate-seed0" / "ema_decay.csv")
        assert header[0] == "alpha"
        assert [r[0] for r in rows] == ["0.9", "0.99"]
        # live result is alpha-independent; the shadows differ
        live = {r[2] for r in rows}
        shadow = {r[4] for r in rows}
        assert len(live) == 1 and len(shadow) == 2

    def test_ema_decay_rows_equal_separate_runs(self, tmp_path):
        overrides = ["ablate_kind=ema_decay", "ema_alphas=[0.9,0.99,0.999]", "epochs=2",
                     "pretrain_epochs=1", "dataset.n=200"]
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["ablate", "--out", str(tmp_path)] + sets) == 0
        # Reference: the whole pipeline rerun once per alpha.
        cfg = resolve_config(None, overrides, forced_task="ablate")
        dataset = cli.build_dataset(cfg.dataset)
        rows = []
        for alpha in cfg.ema_alphas:
            net = cli.build_network(cfg, dataset, 0)
            train_latent(net, dataset, cfg.pretrain_epochs, cfg.batch, cfg.lr, 0)
            qnet = attach_quantizers(net, dataset.calib_x, bits_w=cfg.bits_w,
                                     bits_a=cfg.bits_a, first_last_bits=cfg.first_last_bits)
            tcfg = TrainConfig(epochs=cfg.epochs, batch=cfg.batch, lr=cfg.lr, ema_alpha=alpha,
                               ema_warmup_frac=cfg.ema["warmup_frac"], seed=0)
            row = {"alpha": alpha, **train_qat(qnet, dataset, tcfg)[3][-1]}
            del row["epoch"]
            rows.append(row)
        header = ["alpha"] + [c for c in cli.METRIC_COLUMNS if c != "epoch"]
        cli.write_csv(tmp_path / "reference.csv", header, rows)
        assert ((tmp_path / "ablate-seed0" / "ema_decay.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_ema_decay_trains_once_per_seed(self, tmp_path, monkeypatch):
        """One seed, which runs in this process, pretrains and trains once.
        Two seeds run in worker processes, where these counters cannot see
        the calls, so each seed's table is checked against a one-seed run."""
        calls = {"train_latent": 0, "train_qat": 0}

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        args = ["--set", "ablate_kind=ema_decay", "--set", "ema_alphas=[0.9,0.99,0.999]",
                "--set", "epochs=1", "--set", "pretrain_epochs=1", "--set", "dataset.n=200"]
        for seed in (0, 1):
            out = tmp_path / f"one{seed}"
            assert main(["ablate", "--out", str(out), "--set", f"seeds=[{seed}]"] + args) == 0
        assert calls == {"train_latent": 2, "train_qat": 2}
        assert main(["ablate", "--out", str(tmp_path / "two"), "--set", "seeds=[0,1]"]
                    + args) == 0
        for seed in (0, 1):
            table = tmp_path / "two" / f"ablate-seed{seed}" / "ema_decay.csv"
            _, rows = read_csv(table)
            assert [r[0] for r in rows] == ["0.9", "0.99", "0.999"]
            one = tmp_path / f"one{seed}" / f"ablate-seed{seed}" / "ema_decay.csv"
            assert table.read_bytes() == one.read_bytes()


    def test_ema_decay_honours_dampening(self, tmp_path):
        """With dampening on, the ablation's live columns equal those of
        train with the same settings, and differ from an undamped run."""
        sets = ["--set", "seeds=[0]", "--set", "epochs=2", "--set", "pretrain_epochs=1",
                "--set", "dataset.n=200"]
        damped = sets + ["--set", "dampening_lambda=0.5"]
        ablate = ["--set", "ablate_kind=ema_decay", "--set", "ema_alphas=[0.9,0.99]"]
        assert main(["train", "--out", str(tmp_path / "t")] + damped) == 0
        assert main(["ablate", "--out", str(tmp_path / "a")] + damped + ablate) == 0
        assert main(["ablate", "--out", str(tmp_path / "p")] + sets + ablate) == 0
        _, train_rows = read_csv(tmp_path / "t" / "train-seed0" / "metrics.csv")
        _, rows = read_csv(tmp_path / "a" / "ablate-seed0" / "ema_decay.csv")
        _, plain = read_csv(tmp_path / "p" / "ablate-seed0" / "ema_decay.csv")
        # columns: train_loss, eval_loss, eval_accuracy
        assert all(r[1:4] == train_rows[-1][1:4] for r in rows)
        assert rows[0][1] != plain[0][1]


def test_failed_manifest_lists_only_what_its_seed_wrote(tmp_path):
    """A failed seed's artifacts are the files it wrote before it failed,
    not the files an earlier run left in its directory."""
    assert main(["toy", "--out", str(tmp_path), "--set", "toy.steps=50"]) == 0
    assert main(["toy", "--out", str(tmp_path), "--set", "toy.steps=10000000000000"]) == 3
    m = read_manifest(tmp_path / "toy-seed0")
    assert m["status"] == "failed" and m["artifacts"] == []
    assert (tmp_path / "toy-seed0" / "toy_trace.csv").exists()


def test_manifest_lists_the_files_each_task_wrote(train_run, qc_run, tmp_path):
    """Every task's ok manifest names exactly the files in its run directory."""
    train_ckpt = str(train_run / "train-seed0" / "checkpoint.qat")
    qc_ckpt = str(qc_run / "qc-seed0" / "qc_checkpoint.qat")
    calls = {
        "toy": ["toy", "--set", "toy.steps=30"],
        "fold": ["fold", "--set", f"checkpoint={qc_ckpt}"],
        "eval": ["eval", "--set", f"checkpoint={train_ckpt}"],
        "ablate_qc": ["ablate", "--set", f"checkpoint={train_ckpt}"],
        "ablate_ema": ["ablate", "--set", "ablate_kind=ema_decay", "--set", "epochs=1",
                       "--set", "pretrain_epochs=0", "--set", "dataset.n=200"],
        "report": ["report", str(train_run / "train-seed0")],
    }
    run_dirs = [train_run / "train-seed0", qc_run / "qc-seed0"]
    for name, (task, *rest) in calls.items():
        assert main([task, "--out", str(tmp_path / name)] + rest) == 0
        run_dirs += list((tmp_path / name).iterdir())
    assert len(run_dirs) == 2 + len(calls)
    for run_dir in run_dirs:
        m = read_manifest(run_dir)
        written = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
        assert m["status"] == "ok"
        assert m["artifacts"] == written, run_dir.name


class TestReport:
    def test_aggregates_mean_and_spread(self, tmp_path):
        for seed in (0, 1):
            main(["train", "--out", str(tmp_path), "--set", f"seeds=[{seed}]",
                  "--set", "epochs=1", "--set", "pretrain_epochs=1",
                  "--set", "dataset.n=200"])
        runs = [str(tmp_path / f"train-seed{s}") for s in (0, 1)]
        assert main(["report", "--out", str(tmp_path)] + runs) == 0
        header, rows = read_csv(tmp_path / "report" / "report.csv")
        assert header == ["method", "bits_w", "metric", "runs", "mean", "spread"]
        # EMA runs record two arms: the live net as plain, the shadows as ema.
        assert len(rows) == 2
        finals = [read_manifest(tmp_path / f"train-seed{s}")["final"] for s in (0, 1)]
        for row, (method, key) in zip(rows, (("plain", "eval_accuracy"),
                                             ("ema", "ema_eval_accuracy"))):
            accs = [float(f[key]) for f in finals]
            assert row[:4] == [method, "4", "eval_accuracy", "2"]
            assert float(row[4]) == pytest.approx(np.mean(accs))
            assert float(row[5]) == pytest.approx(np.std(accs))

    def test_dampening_run_gives_one_live_row(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--set", "epochs=1",
                     "--set", "pretrain_epochs=0", "--set", "dataset.n=200",
                     "--set", "dampening_lambda=0.1"]) == 0
        assert main(["report", "--out", str(tmp_path), str(tmp_path / "train-seed0")]) == 0
        _, rows = read_csv(tmp_path / "report" / "report.csv")
        final = read_manifest(tmp_path / "train-seed0")["final"]
        assert [row[:4] for row in rows] == [["dampening", "4", "eval_accuracy", "1"]]
        assert float(rows[0][4]) == float(final["eval_accuracy"])

    def test_missing_runs_are_skipped(self, train_run, tmp_path):
        runs = [str(train_run / "train-seed0"), str(tmp_path / "never-ran")]
        assert main(["report", "--out", str(tmp_path)] + runs) == 0
        _, rows = read_csv(tmp_path / "report" / "report.csv")
        assert [row[0] for row in rows] == ["plain", "ema"]
        assert all(row[3] == "1" for row in rows)

    def test_empty_input_gives_header_only(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "report" / "report.csv")
        assert header[0] == "method" and rows == []

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"status": "ok", "method": "qc", "bits_w": 4, "final": 5}',
        '{"status": "ok", "method": "qc", "bits_w": [4], "final": {"eval_accuracy": 0.5}}',
        '{"status": "ok", "method": ["qc"], "bits_w": 4, "final": {"eval_accuracy": 0.5}}',
        '{"status": "ok", "method": "qc",',
        '{"status": "ok", "method": "qc", "bits_w": 4, "final": {"eval_accuracy": "high"}}',
    ], ids=["array", "final_not_object", "bits_w_list", "method_list", "bad_json",
            "metric_not_a_number"])
    def test_unusable_manifest_exits_3(self, tmp_path, capsys, text):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text(text)
        assert main(["report", "--out", str(tmp_path / "out"), str(run)]) == 3
        err = capsys.readouterr().err
        assert "unusable manifest: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestNestedJson:
    """JSON nested past the recursion limit is a bad input like any other:
    exit 2 for a config file or --set value, exit 3 for a checkpoint header
    or report manifest, each with its usual message and no run directory."""

    NESTED = "[" * 100_000 + "]" * 100_000

    def check(self, argv, out, code, message, capsys):
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.NESTED)
        self.check(["toy", "--config", str(cfg)], tmp_path / "out", 2,
                   f"config error: config {cfg} is not valid JSON", capsys)

    def test_override(self, tmp_path, capsys):
        self.check(["toy", "--set", f"toy={self.NESTED}"], tmp_path / "out", 2,
                   "config error: override 'toy' is not valid JSON", capsys)

    def test_checkpoint_header(self, tmp_path, capsys):
        head = self.NESTED.encode()
        bad = tmp_path / "bad.qat"
        bad.write_bytes(b"QATLAB01" + struct.pack("<Q", len(head)) + head)
        self.check(["eval", "--set", f"checkpoint={bad}"], tmp_path / "out", 3,
                   f"run failed: unusable checkpoint: {bad}: corrupt header", capsys)

    def test_report_manifest(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text(self.NESTED)
        self.check(["report", str(run)], tmp_path / "out", 3,
                   f"run failed: unusable manifest: {run / 'manifest.json'}:", capsys)


class TestErrors:
    def test_unknown_config_key(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--set", "lernrate=0.1"]) == 2

    def test_bad_json_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{oops")
        assert main(["train", "--config", str(p)]) == 2

    def test_config_file_plus_override(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"toy": {"steps": 50}}))
        assert main(["toy", "--config", str(p), "--out", str(tmp_path),
                     "--set", "toy.steps=60"]) == 0
        _, rows = read_csv(tmp_path / "toy-seed0" / "toy_trace.csv")
        assert len(rows) == 60

    def test_bare_long_override(self, tmp_path):
        """--set KEY=VALUE is the only override; --key=value is a stray
        argument."""
        out = tmp_path / "out"
        assert main(["toy", "--out", str(out), "--toy.steps=40"]) == 2
        assert not out.exists()

    def test_stray_argument(self):
        assert main(["train", "oops"]) == 2

    def test_no_task(self):
        assert main([]) == 2

    def test_missing_checkpoint_path(self, tmp_path):
        assert main(["fold", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "override",
        ["ema_alphas=[1.0]", "ema_alphas=[]", 'ema_alphas=["x"]', "epochs=0", "ema_alphas=[0.9,0.9]"],
    )
    def test_bad_ema_decay_settings(self, tmp_path, override):
        out = tmp_path / "out"
        assert main(["ablate", "--out", str(out), "--set", "ablate_kind=ema_decay",
                     "--set", override]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        ["batch=[1]", 'lr="fast"', 'dampening_lambda="x"', "seeds=[true]", "bits_w=true",
         "dataset.mode=blobs", 'toy.steps="5"', "toy.steps=true", "toy.bits_w=1.5",
         "toy.ema_alpha=1.0", 'ema.enabled="no"', 'ema.warmup_frac="x"', "ema.warmup_frac=-1",
         "qc.batch=[1]", 'qc.lr="x"', 'dataset.n="5"', 'dataset.noise="x"', "dataset.kind=idx",
         'dataset.teacher="x"', "seeds=[-1]", "seeds=[340282366920938463463374607431768211456]",
         "seeds=[0,0]", "toy.w_star=[]", "toy.w_star=[NaN]", "toy.w_star=[Infinity]",
         "toy.s_w0=0", "toy.s_x0=0", "dataset.labels_path=5", "dataset.labels_path=true",
         "dataset.labels_path=0", "dataset.target=5", "dataset.eval_fraction=0",
         "runs=[1]", "runs=[0.5]", "runs=[null]", "runs=[true]", "runs=[[1]]",
         pytest.param(f"soft_round_k={10**400}", id="soft_round_k=10**400"),
         pytest.param(f"toy.w_star=[{10**400}]", id="toy.w_star=[10**400]"),
         pytest.param(f"toy.steps={10**400}", id="toy.steps=10**400")],
    )
    def test_bad_config_types(self, tmp_path, override):
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), "--set", override]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "task", [["train"], ["ablate", "--set", "ablate_kind=ema_decay"]], ids=["train", "ema_decay"]
    )
    @pytest.mark.parametrize(
        "overrides",
        [["batch=100000"], ["dataset.n=3"], ["epochs=0", "batch=100000"],
         ["epochs=1", "pretrain_epochs=0", "batch=100000"]],
        ids=["batch", "rows", "pretrain_only", "qat_only"],
    )
    def test_no_training_step(self, tmp_path, capsys, task, overrides):
        """Training that could not take one step exits 2 with no run
        directory, whichever phase it is."""
        out = tmp_path / "out"
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main([*task, "--out", str(out), *sets]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [["dataset.eval_fraction=0.0"], ["dataset.n=5", "dataset.eval_fraction=0.95"]],
        ids=["no_eval_rows", "no_train_rows"],
    )
    def test_empty_split(self, tmp_path, capsys, overrides):
        """A dataset that splits into no eval rows or no training rows exits
        2 with no run directory, even when nothing would train."""
        out = tmp_path / "out"
        sets = [arg for o in ["epochs=0", "pretrain_epochs=0", *overrides] for arg in ("--set", o)]
        assert main(["train", "--out", str(out), *sets]) == 2
        assert not out.exists()
        assert "need one of each" in capsys.readouterr().err

    @pytest.mark.parametrize("labels_path", ["5", "true", "0"])
    def test_labels_path_is_never_a_file_descriptor(self, tmp_path, labels_path):
        """A non-string labels_path exits 2 without opening the number as a
        file descriptor, so the process keeps its stdin and stdout."""
        images = tmp_path / "x.idx"
        images.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", 10, 4, 4) + bytes(160))
        argv = ["train", "--out", str(tmp_path / "out"), "--set", "dataset.kind=idx",
                "--set", f"dataset.path={images}", "--set", f"dataset.labels_path={labels_path}"]
        script = f"from qatlab.cli import main\nrc = main({argv!r})\nprint('stdout open', rc)\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=60)
        assert proc.stdout.strip() == "stdout open 2", proc.stderr
        assert "labels_path" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["dataset_path", "labels_path", "checkpoint",
                                       "checkpoint_under_file"])
    def test_directory_paths(self, tmp_path, capsys, where):
        """A path that names a directory, or runs through a file, is a bad
        path: exit 2 with no run directory, like a missing file."""
        images = tmp_path / "x.idx"
        images.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", 10, 4, 4) + bytes(160))
        sets = {
            "dataset_path": ["train", "dataset.kind=csv", f"dataset.path={tmp_path}"],
            "labels_path": ["train", "dataset.kind=idx", f"dataset.path={images}",
                            f"dataset.labels_path={tmp_path}"],
            "checkpoint": ["eval", f"checkpoint={tmp_path}"],
            "checkpoint_under_file": ["eval", f"checkpoint={images}/x"],
        }[where]
        out = tmp_path / "out"
        argv = [sets[0], "--out", str(out)] + [a for o in sets[1:] for a in ("--set", o)]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400", "abc"])
    def test_csv_dataset_with_a_bad_cell(self, tmp_path, capsys, recwarn, cell):
        """A csv dataset cell that is no finite number exits 2, naming its
        line, before any run directory is made or any step is taken."""
        p = tmp_path / "d.csv"
        lines = [f"{i % 7}.5,{i % 3}.0,{i % 2}.0" for i in range(200)]
        lines[150] = f"{cell},1.0,0.0"
        p.write_text("a,b,target\n" + "\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = ["train", "--out", str(out), "--set", "dataset.kind=csv",
                "--set", f"dataset.path={p}"]
        assert main(argv) == 2
        assert "line 152" in capsys.readouterr().err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_no_epochs_need_no_batch(self, tmp_path):
        out = tmp_path / "out"
        sets = ["--set", "epochs=0", "--set", "pretrain_epochs=0", "--set", "batch=100000"]
        assert main(["train", "--out", str(out), *sets]) == 0
        assert (out / "train-seed0" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("no_tensors", "tensors"),
            ("missing_tensor", "layer0.weight"),
            ("bad_topology", "malformed"),
            ("bad_magic", "magic"),
            ("flipped_byte", "checksum"),
            ("config_not_object", "config"),
            ("experiment_not_object", "experiment"),
        ],
    )
    def test_malformed_checkpoint(self, train_run, tmp_path, capsys, damage, named):
        """A checkpoint file that exists but cannot be used is a runtime
        failure (exit 3) whose message names what is wrong."""
        raw = (train_run / "train-seed0" / "checkpoint.qat").read_bytes()
        head_len = struct.unpack("<Q", raw[8:16])[0]
        header, body = json.loads(raw[16 : 16 + head_len]), raw[16 + head_len :]
        if damage == "no_tensors":
            del header["tensors"]
        elif damage == "missing_tensor":
            header["tensors"] = [e for e in header["tensors"] if e["name"] != "layer0.weight"]
        elif damage == "bad_topology":
            header["topology"]["layers"] = [1]
        elif damage == "config_not_object":
            header["config"] = [1]
        elif damage == "experiment_not_object":
            header["config"]["experiment"] = [1]
        elif damage == "bad_magic":
            raw = b"NOTQATLB" + raw[8:]
        else:
            raw = raw[:-1] + bytes([raw[-1] ^ 0xFF])
        if damage not in ("bad_magic", "flipped_byte"):
            head = json.dumps(header).encode()
            raw = raw[:8] + struct.pack("<Q", len(head)) + head + body
        bad = tmp_path / "bad.qat"
        bad.write_bytes(raw)
        out = tmp_path / "out"
        assert main(["eval", "--out", str(out), "--set", f"checkpoint={bad}"]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_soft_round_k_out_of_range(self, tmp_path, capsys):
        """soft_round_k is checked with the config: exit 2, no run directory."""
        out = tmp_path / "out"
        argv = ["eval", "--out", str(out), "--set", "eval_mode=soft_round",
                "--set", "soft_round_k=0.7"]
        assert main(argv) == 2
        assert "soft_round_k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"n": "5"}, "dataset.n"),
            ({"kind": "nope"}, "dataset.kind"),
            ({"n": 1}, "n >= classes"),
            ({"seed": DELETED}, "dataset.seed"),
            ({"eval_fraction": 0.0}, "eval rows"),
            ({"dim": 2}, "the network has"),
            ({"kind": "csv", "path": "no-such-dir/d.csv"}, "No such file"),
            ({"kind": "csv", "path": "."}, "Is a directory"),
        ],
    )
    def test_checkpoint_with_bad_dataset_spec(self, train_run, tmp_path, capsys, change, named):
        """The dataset spec a checkpoint carries is checked like a config's
        dataset section; a bad one makes the file unusable (exit 3)."""
        ckpt = load_checkpoint(train_run / "train-seed0" / "checkpoint.qat")
        spec = ckpt.config["experiment"]["dataset"]
        spec.update(change)
        for key in [k for k, v in change.items() if v is DELETED]:
            del spec[key]
        bad = tmp_path / "bad.qat"
        save_checkpoint(bad, ckpt)
        out = tmp_path / "out"
        assert main(["eval", "--out", str(out), "--set", f"checkpoint={bad}"]) == 3
        err = capsys.readouterr().err
        assert "unusable checkpoint" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [[], 0, "", {}], ids=["list", "zero", "string", "empty"])
    def test_checkpoint_with_empty_or_non_object_dataset_spec(self, train_run, tmp_path, capsys,
                                                              spec):
        """Only a checkpoint without a dataset spec falls back to the
        config's dataset; an empty or non-object spec is unusable (exit 3)."""
        ckpt = load_checkpoint(train_run / "train-seed0" / "checkpoint.qat")
        ckpt.config["experiment"]["dataset"] = spec
        save_checkpoint(tmp_path / "bad.qat", ckpt)
        out = tmp_path / "out"
        assert main(["eval", "--out", str(out), "--set", f"checkpoint={tmp_path / 'bad.qat'}"]) == 3
        assert "unusable checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_dataset_spec_uses_the_config(self, train_run, tmp_path):
        ckpt = load_checkpoint(train_run / "train-seed0" / "checkpoint.qat")
        del ckpt.config["experiment"]["dataset"]
        save_checkpoint(tmp_path / "old.qat", ckpt)
        out = tmp_path / "out"
        argv = ["eval", "--out", str(out), "--set", f"checkpoint={tmp_path / 'old.qat'}"]
        assert main(argv + ["--set", "dataset.n=300"]) == 0
        assert (out / "eval-seed0" / "eval.csv").exists()

    def test_checkpoint_with_legacy_dataset_mode_loads(self, train_run, tmp_path):
        """Checkpoints written while ``dataset.mode`` was a key still carry
        it; they evaluate exactly as without it."""
        ckpt = load_checkpoint(train_run / "train-seed0" / "checkpoint.qat")
        runs = {}
        for name, extra in (("plain", {}), ("legacy", {"mode": "blobs"})):
            ckpt.config["experiment"]["dataset"].update(extra)
            save_checkpoint(tmp_path / f"{name}.qat", ckpt)
            out = tmp_path / name
            argv = ["eval", "--out", str(out), "--set", f"checkpoint={tmp_path / name}.qat"]
            assert main(argv) == 0
            runs[name] = (out / "eval-seed0" / "eval.csv").read_bytes()
        assert runs["legacy"] == runs["plain"]

    def test_cnn_needs_16_features(self, tmp_path):
        assert main(["train", "--out", str(tmp_path), "--set", "network=cnn",
                     "--set", "dataset.dim=4"]) == 2


# Every top-level config field but dataset, whose own fuzz is in test_dataset_fuzz.py.
SET_KEYS = sorted(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "dataset")
SECTION_KEYS = sorted({k for section in ("ema", "qc", "toy") for k in _SECTION_TYPES[section]})


def _json_texts():
    """JSON text of every type: null, bool, int (also past float range),
    finite and overflowing float, short string, a list of these, and an
    object of these and lists, keyed by section keys or short strings."""
    scalars = st.one_of(
        st.none().map(json.dumps),
        st.booleans().map(json.dumps),
        st.integers().map(json.dumps),
        st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
        st.sampled_from(["1e999", "-1e999", str(10**400)]),
        st.text(max_size=3).map(json.dumps),
    )
    lists = st.lists(scalars, max_size=3).map(lambda xs: f"[{','.join(xs)}]")
    keys = st.sampled_from(SECTION_KEYS) | st.text(max_size=3)
    objects = st.dictionaries(keys, scalars | lists, max_size=2).map(
        lambda d: "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in d.items()) + "}"
    )
    return scalars | lists | objects


def test_set_fuzz_exits_0_or_2(tmp_path, capfd, monkeypatch):
    """Config checks do not depend on the task, and a report with nothing
    to read is cheap: whatever one --set gives a top-level key, report
    exits 0 or 2, and a 2 leaves no run directory."""
    monkeypatch.chdir(tmp_path)  # a drawn run path names no manifest here
    out = tmp_path / "out"

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(key=st.sampled_from(SET_KEYS), value=_json_texts())
    def run(key, value):
        shutil.rmtree(out, ignore_errors=True)
        rc = main(["report", "--out", str(out), "--set", f"{key}={value}"])
        assert rc in (0, 2), (key, value)
        if rc == 2:
            assert not out.exists(), (key, value)
        assert "Traceback" not in capfd.readouterr().err

    run()


def test_build_dataset_from_csv(tmp_path):
    """A csv spec reads the ``target`` column by default and splits off eval
    rows and a calibration subsample of the training rows."""
    p = tmp_path / "d.csv"
    p.write_text("a,target\n" + "".join(f"{i}.0,{2 * i}.0\n" for i in range(40)))
    d = cli.build_dataset({"kind": "csv", "seed": 0, "path": str(p)})
    assert d.task == "regression" and d.inputs.shape == (40, 1)
    assert len(d.eval_idx) == 8 and len(d.calib_idx) == 3
    assert np.isin(d.calib_idx, d.train_idx).all()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


@pytest.mark.parametrize("writer", ["csv", "manifest", "checkpoint"])
def test_failed_write_keeps_previous_file(train_run, tmp_path, monkeypatch, writer):
    """A write that fails part way leaves the previous file byte for byte,
    and no temporary file beside it."""
    cfg = resolve_config()
    ckpt = load_checkpoint(train_run / "train-seed0" / "checkpoint.qat")
    if writer == "csv":
        path = tmp_path / "m.csv"
        cli.write_csv(path, ["a"], [[1]])
        fail = functools.partial(cli.write_csv, path, ["a"], [[2], [_Unprintable()]])
    elif writer == "manifest":
        path = tmp_path / "manifest.json"
        cli.write_manifest(tmp_path, cfg, 0, 1.0, [])
        fail = functools.partial(cli.write_manifest, tmp_path, cfg, 0, 2.0, [], bad=_Unprintable())
    else:
        path = tmp_path / "c.qat"
        save_checkpoint(path, ckpt)
        ckpt.tensors["layer0.bias"] = ckpt.tensors["layer0.bias"] + 1.0

        def broken_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr("qatlab.checkpoint.os.fsync", broken_fsync)
        fail = functools.partial(save_checkpoint, path, ckpt)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError, OSError)):
        fail()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_module_entry_point(tmp_path):
    """python -m qatlab.cli behaves like main()."""
    proc = subprocess.run(
        [sys.executable, "-m", "qatlab.cli", "toy", "--out", str(tmp_path),
         "--set", "toy.steps=30"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "toy-seed0" / "toy_trace.csv").exists()


class TestSeedPool:
    """Several seeds run in forked worker processes (``cli.map_seeds``)."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Pretend this machine has ``n`` usable CPUs, so the pool path runs
        whatever the machine has."""

        def set_cpus(n):
            monkeypatch.setattr(cli, "usable_cpus", lambda: n)

        return set_cpus

    def test_seeds_run_in_workers(self, cpus):
        cpus(3)
        parent = os.getpid()
        pids = cli.map_seeds(lambda seed: (seed, os.getpid()), [5, 3, 4])
        assert [seed for seed, _ in pids] == [5, 3, 4]
        assert parent not in {pid for _, pid in pids}
        assert cli.map_seeds(lambda seed: os.getpid(), [7]) == [parent]

    @pytest.mark.parametrize("n", [2, 3])
    def test_pool_writes_what_single_seed_calls_write(self, tmp_path, cpus, n):
        """On 2 CPUs seeds 0 and 2 share one loop; on 3 each has its own."""
        cpus(n)
        steps = ["--set", "toy.steps=300"]
        pooled = tmp_path / "pooled"
        assert main(["toy", "--out", str(pooled), "--set", "seeds=[0,1,2]"] + steps) == 0
        for seed in (0, 1, 2):
            single = tmp_path / "single"
            assert main(["toy", "--out", str(single), "--set", f"seeds=[{seed}]"] + steps) == 0
            a, b = pooled / f"toy-seed{seed}", single / f"toy-seed{seed}"
            assert (a / "toy_trace.csv").read_bytes() == (b / "toy_trace.csv").read_bytes()
            ma, mb = read_manifest(a), read_manifest(b)
            assert ma["config"] == {**mb["config"], "seeds": [0, 1, 2], "out_dir": str(pooled)}
            for m in (ma, mb):
                for key in ("wall_time_s", "config", "config_hash"):
                    del m[key]
            assert ma == mb

    def test_toy_groups_deal_seeds_round_robin(self, cpus):
        """One group per CPU up to one per seed, and none over the cap."""
        cpus(2)
        assert cli._toy_groups([5, 3, 4]) == [[5, 4], [3]]
        cpus(4)
        assert cli._toy_groups([5, 3]) == [[5], [3]]
        cpus(1)
        seeds = list(range(20))
        groups = cli._toy_groups(seeds)
        assert len(groups) == 3 and max(map(len, groups)) <= cli.TOY_SEEDS_PER_LOOP
        assert sorted(s for g in groups for s in g) == seeds

    @pytest.mark.parametrize("n", [1, 4])
    def test_every_seed_runs_and_first_failure_decides(self, tmp_path, monkeypatch, capsys,
                                                       cpus, n):
        """Seeds 1 and 3 fail: every seed still gets its manifest, and seed
        1's error sets the exit code and the message, in process or pool."""
        cpus(n)
        real = cli.run_toys

        def failing(problem, rngs):
            for rng in rngs:
                if rng.seed in (1, 3):
                    raise RuntimeError(f"toy seed {rng.seed} diverged")
            return real(problem, rngs)

        monkeypatch.setattr(cli, "run_toys", failing)
        assert main(["toy", "--out", str(tmp_path), "--set", "seeds=[0,1,2,3]",
                     "--set", "toy.steps=50"]) == 3
        status = {s: read_manifest(tmp_path / f"toy-seed{s}")["status"] for s in range(4)}
        assert status == {0: "ok", 1: "failed", 2: "ok", 3: "failed"}
        assert read_manifest(tmp_path / "toy-seed1")["error"] == "toy seed 1 diverged"
        err = capsys.readouterr().err
        assert "toy seed 1 diverged" in err and "seed 3" not in err

    @pytest.mark.parametrize("seeds, n", [("[0]", 1), ("[0,1,2]", 2)])
    def test_allocation_failure_exits_3(self, tmp_path, capfd, cpus, seeds, n):
        """Arrays that cannot be allocated fail every seed with exit 3 and a
        failed manifest, in process or pool.  On 2 CPUs seeds 0 and 2 share
        a loop, which fails, and then each reruns alone.  The 1.14 PiB
        request is past the x86-64 user address space, so it fails at once."""
        cpus(n)
        assert main(["toy", "--out", str(tmp_path), "--set", f"seeds={seeds}",
                     "--set", "toy.steps=10000000000000"]) == 3
        for seed in json.loads(seeds):
            m = read_manifest(tmp_path / f"toy-seed{seed}")
            assert m["status"] == "failed" and "Unable to allocate" in m["error"]
        err = capfd.readouterr().err
        assert "run failed: Unable to allocate" in err and "Traceback" not in err

    def test_dead_worker_exits_3(self, tmp_path):
        """A worker that dies ends the run with exit 3 and a message, not a
        hang or a traceback."""
        script = (
            "import os, sys\n"
            "from qatlab import cli\n"
            "cli.usable_cpus = lambda: 2\n"
            "real, parent = cli.run_toys, os.getpid()\n"
            "def dying(problem, rngs):\n"
            "    if any(rng.seed == 1 for rng in rngs) and os.getpid() != parent:\n"
            "        os._exit(7)\n"
            "    return real(problem, rngs)\n"
            "cli.run_toys = dying\n"
            f"sys.exit(cli.main(['toy', '--out', {str(tmp_path)!r}, '--set', 'seeds=[0,1]',"
            " '--set', 'toy.steps=50']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 3
        assert "a worker process died" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_dead_worker_fails_each_seed_of_its_group(self):
        """Every seed of a group whose worker died gets its own message."""
        script = (
            "import os\n"
            "from qatlab import cli\n"
            "cli.usable_cpus = lambda: 2\n"
            "def run(group):\n"
            "    if 2 in group:\n"
            "        os._exit(7)\n"
            "    return [(seed, None) for seed in group]\n"
            "for result, error in cli.map_groups(run, [[0, 2], [1]]):\n"
            "    print(result, error)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        # Group [1] may finish before the pool breaks, or not.
        assert lines[:2] == [f"None seed {seed} did not finish: a worker process died"
                             for seed in (0, 2)]
        assert len(lines) == 3

    def test_import_leaves_the_pool_modules_unloaded(self):
        """Loading the pool modules costs every process start-up time, so
        only a run with several seeds imports them."""
        script = (
            "import sys, qatlab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m in ('multiprocessing', 'concurrent.futures.process')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
