"""The benchmark's workloads: the qatlab CLI calls each one makes.

A workload is a function of the workload seed and an output root.  It
returns the ordered CLI calls (``argv`` lists for ``qatlab.cli.main``) and
the run directories each call must leave behind.  The program only ever
sees generated ``--set`` values; every call writes under ``out``.
"""

import json

# cnn_trend: one seed of the acceptance ``trend_runs`` regime
# (tests/test_acceptance.py).  Convolution dominates its time, and it is the
# only workload that runs qc, fold, eval and the checkpoint round trips.
CNN_DATASET = {
    "kind": "blobs",
    "n": 2000,
    "dim": 16,
    "classes": 3,
    "noise": 1.8,
    "separation": 5.0,
    "calib_fraction": 0.25,
}
CNN_TRAIN = {
    "network": "cnn",
    "bits_w": 3,
    "bits_a": 3,
    "pretrain_epochs": 12,
    "epochs": 24,
    "lr": 0.004,
    "ema.alpha": 0.995,
    "ema.warmup_frac": 0.1,
}
CNN_QC = {"qc.source": "ema", "qc.lr": 0.003, "qc.batch": 8}

# mlp_wide: no convolution, ~29k weights on 784-feature rows (MNIST-shaped),
# so per-parameter work (Adam, quantize, EMA, the flip tracker) dominates.
# The model and training settings are the CLI defaults.
MLP_DATASET = {"kind": "blobs", "n": 2000, "dim": 784, "classes": 3}

# toy: 3-element tensors through the same quantizer/EMA/tracker layers,
# 10,000 default steps per seed, so per-call overhead dominates.  Three seeds
# make a repetition of ~9 s, so a run holds several.
TOY_SEEDS_PER_RUN = 3

def _sets(values):
    argv = []
    for key, value in values.items():
        text = value if isinstance(value, str) else json.dumps(value)
        argv += ["--set", f"{key}={text}"]
    return argv


def _call(task, out, seeds, values):
    return {
        "task": task,
        "argv": [task, "--out", out, *_sets({"seeds": seeds, **values})],
        "run_dirs": [f"{task}-seed{s}" for s in seeds],
    }


def cnn_trend(seed, out):
    dataset = {**CNN_DATASET, "seed": seed}
    train_ckpt = f"{out}/train-seed{seed}/checkpoint.qat"
    qc_ckpt = f"{out}/qc-seed{seed}/qc_checkpoint.qat"
    seeds = [seed]
    return [
        _call("train", out, seeds, {"dataset": dataset, **CNN_TRAIN}),
        _call("qc", out, seeds, {"checkpoint": train_ckpt, **CNN_QC}),
        _call("fold", out, seeds, {"checkpoint": qc_ckpt}),
        _call("eval", out, seeds, {"checkpoint": train_ckpt, "eval_mode": "soft_round"}),
        _call("ablate", out, seeds, {"checkpoint": train_ckpt, **CNN_QC}),
    ]


def mlp_wide(seed, out):
    dataset = {**MLP_DATASET, "seed": seed}
    seeds = [seed]
    return [
        _call("train", out, seeds, {"dataset": dataset}),
        _call("ablate", out, seeds, {"dataset": dataset, "ablate_kind": "ema_decay"}),
    ]


def toy(seed, out):
    seeds = [TOY_SEEDS_PER_RUN * seed + i for i in range(TOY_SEEDS_PER_RUN)]
    return [_call("toy", out, seeds, {})]


WORKLOADS = {"cnn_trend": cnn_trend, "mlp_wide": mlp_wide, "toy": toy}
