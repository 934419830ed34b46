"""The cnn_trend workload at seed 0 is seed 0 of the acceptance suite's
``trend_runs`` fixture (tests/test_acceptance.py).

The fixture's seed-0 computation runs through the library, exactly as the
fixture does it, and the workload runs through ``qatlab.cli.main``, exactly
as the benchmark does it; every figure both produce must agree.  About
90 s on one core:

    python3 -m pytest perfbench/test_fixture_match.py
"""

import csv
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from qatlab.cli import main  # noqa: E402
from qatlab.datasets import gen_classification  # noqa: E402
from qatlab.ema import materialize_ema  # noqa: E402
from qatlab.network import build_cnn  # noqa: E402
from qatlab.numeric import Rng  # noqa: E402
from qatlab.qc import QCConfig, fit_qc, qc_ablation  # noqa: E402
from qatlab.training import (  # noqa: E402
    TrainConfig,
    attach_quantizers,
    evaluate,
    train_latent,
    train_qat,
)

SEED = 0
# Seed-0 figures of the fixture at the commit that defined the benchmark.
SHADOW_ACCURACY = 0.9175
CORRECTED_ACCURACY = 0.92


def fixture_seed0():
    """trend_runs for one seed, line for line."""
    seed = SEED
    data = gen_classification(seed=seed, n=2000, dim=16, classes=3,
                              noise=1.8, separation=5.0, calib_fraction=0.25)
    net = build_cnn(in_shape=(1, 4, 4), out_dim=3, rng=Rng(seed).child("init"))
    train_latent(net, data, 12, 32, 4e-3, seed)
    qnet = attach_quantizers(net, data.calib_x, bits_w=3, bits_a=3)
    cfg = TrainConfig(epochs=24, batch=32, lr=4e-3, seed=seed,
                      ema_alpha=0.995, ema_warmup_frac=0.1)
    qnet, ema, _, _ = train_qat(qnet, data, cfg)
    shadow = materialize_ema(qnet, ema)
    corrected, _ = fit_qc(shadow, data.calib_x, data.calib_y,
                          QCConfig(lr=3e-3, batch=8), seed=seed)
    table = qc_ablation(shadow, data, lr=3e-3, batch=8, seed=seed)
    return {
        "plain_acc": evaluate(qnet, data.eval_x, data.eval_y)["accuracy"],
        "shadow_acc": evaluate(shadow, data.eval_x, data.eval_y)["accuracy"],
        "emaqc_acc": evaluate(corrected, data.eval_x, data.eval_y)["accuracy"],
        "calib_before": evaluate(shadow, data.calib_x, data.calib_y)["loss"],
        "calib_after": evaluate(corrected, data.calib_x, data.calib_y)["loss"],
        "soft_loss": evaluate(qnet, data.eval_x, data.eval_y,
                              mode="soft_round", k=0.45)["loss"],
        "pc_both": table["per_channel"]["both"]["eval_accuracy"],
        "pt_both": table["per_tensor"]["both"]["eval_accuracy"],
    }


def _row(path):
    with open(path, newline="") as fh:
        return next(csv.DictReader(fh))


def _cell(path, granularity, variant):
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if (row["granularity"], row["variant"]) == (granularity, variant):
                return row
    raise AssertionError(f"no {granularity}/{variant} row in {path}")


@pytest.fixture(scope="module")
def workload_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cnn_trend")
    for call in workloads.cnn_trend(SEED, str(out)):
        assert main(call["argv"]) == 0, call["task"]
    return out


def test_cnn_trend_seed0_reproduces_trend_fixture(workload_outputs):
    out = workload_outputs
    want = fixture_seed0()
    qc = _row(out / f"qc-seed{SEED}" / "qc_metrics.csv")
    fold = _row(out / f"fold-seed{SEED}" / "fold_report.csv")
    soft = _row(out / f"eval-seed{SEED}" / "eval.csv")
    ablation = out / f"ablate-seed{SEED}" / "ablation.csv"

    assert float(qc["eval_accuracy_before"]) == want["shadow_acc"] == SHADOW_ACCURACY
    assert float(qc["eval_accuracy_after"]) == want["emaqc_acc"] == CORRECTED_ACCURACY
    assert float(fold["eval_accuracy_before"]) == want["emaqc_acc"]
    assert float(fold["eval_accuracy_after"]) == CORRECTED_ACCURACY
    assert float(_cell(ablation, "per_channel", "both")["eval_accuracy"]) == want["pc_both"]
    assert float(_cell(ablation, "per_tensor", "both")["eval_accuracy"]) == want["pt_both"]
    assert float(qc["calib_loss_before"]) == want["calib_before"]
    assert float(qc["calib_loss_after"]) == want["calib_after"]
    assert float(soft["loss"]) == want["soft_loss"]
    with open(out / f"train-seed{SEED}" / "metrics.csv", newline="") as fh:
        final = list(csv.DictReader(fh))[-1]
    assert float(final["eval_accuracy"]) == want["plain_acc"]
    assert float(final["ema_eval_accuracy"]) == want["shadow_acc"]
