"""End-to-end acceptance gate.

Nine numbered criteria, one summary line printed per criterion (visible
with ``pytest -s``).  Trend thresholds tuned by pilot runs and frozen:

  - toy oscillation: per-coordinate flip frequency > 0.05 over the final
    500 steps (pilot: 10/10 seeds oscillate, shadow flips lower 10/10,
    shadow final loss <= live in 9/10)
  - trend regime for the small CNN: blobs n=2000 dim=16 classes=3
    noise=1.8 separation=5.0 calib 25%, pretrain 12 epochs, 24 QAT epochs,
    lr 4e-3, 3-bit weights+activations, EMA alpha 0.995 warmup 10%,
    correction fit batch 8 lr 3e-3 (pilot: corrected >= plain 8/10,
    calibration loss drops 10/10, per-channel >= per-tensor 7/10)
  - a checkpoint counts as oscillating when >= 5% of its quantized
    weights flip codes in > 5% of the tracked window (pilot: 5/10 seeds,
    soft rounding at or below hard loss in 4/5)
"""

import time

import numpy as np
import pytest

from qatlab.checkpoint import (
    checkpoint_to_network,
    load_checkpoint,
    network_to_checkpoint,
    save_checkpoint,
)
from qatlab.cli import main, map_seeds
from qatlab.datasets import gen_classification
from qatlab.ema import EMAState, ema_update, materialize_ema
from qatlab.network import (
    DENSE,
    LayerSpec,
    NetworkSpec,
    _bn_forward,
    apply_correction,
    backward,
    build_cnn,
    build_mlp,
    forward,
    loss_and_grad,
    make_bn,
)
from qatlab.numeric import Rng
from qatlab.oscillation import ToyProblem, flip_frequency, run_toy
from qatlab.qc import (
    QCConfig,
    absorb_into_bn,
    fit_qc,
    fold_bn_into_quant_scale,
    fold_network,
    qc_ablation,
)
from qatlab.quantizer import (
    QuantizerState,
    init_scale,
    integer_range,
    quantize,
    quantize_backward,
    round_half_away,
    round_to_grid,
)
from qatlab.training import (
    TrainConfig,
    attach_quantizers,
    evaluate,
    train_latent,
    train_qat,
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def nearest_level_search(w: float, s: float, u: int, v: int) -> float:
    """Exhaustive reference: closest representable level, exact-distance
    ties resolved away from zero (the frozen rounding rule)."""
    codes = np.arange(u, v + 1)
    d = np.abs(w - s * codes)
    ties = np.flatnonzero(d == d.min())
    code = codes[ties[np.argmax(np.abs(codes[ties]))]]
    return float(s * code)


def test_criterion_1_quantizer_oracle():
    start = time.perf_counter()
    rng = Rng(101)
    mism = 0
    for _ in range(10_000):
        bits = int(rng.integers(1, 9))
        signed = bool(rng.integers(0, 2))
        u, v = integer_range(bits, signed)
        s = float(np.exp(rng.uniform((), np.log(1e-2), np.log(2.0))))
        w = float(rng.normal(()) * s * (abs(u) + v + 1))
        q = QuantizerState(s=np.asarray(s), bits=bits, signed=signed)
        got = quantize(np.asarray(w), q)
        if float(got) != nearest_level_search(w, s, u, v):
            mism += 1
        if float(quantize(got, q)) != float(got):
            mism += 1
    wall = time.perf_counter() - start
    report(1, mism == 0 and wall < 5.0,
           f"10^4 points vs exhaustive search, {mism} mismatches, {wall:.1f}s")


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = Rng(202)

    # STE weight gradient is definitional: pass-through in range, zero out.
    ok_w = True
    for _ in range(50):
        bits = int(rng.integers(2, 9))
        q = QuantizerState(s=np.asarray(0.37), bits=bits)
        w = rng.normal((64,)) * 0.37 * q.v
        g_out = rng.normal((64,))
        g_w, _ = quantize_backward(round_to_grid(w, q)[2], q, g_out)
        r = round_half_away(w / 0.37)
        in_range = (r >= q.u) & (r <= q.v)
        ok_w &= bool(np.array_equal(g_w, g_out * in_range))

    # Scale gradient vs central differences along the code-preserving
    # joint path (w/s held fixed so rounding stays locally constant).
    eps = 1e-5
    checked = agreements = 0
    while checked < 1000:
        bits = int(rng.integers(2, 9))
        u, v = integer_range(bits, True)
        s = float(np.exp(rng.uniform((), np.log(1e-2), np.log(2.0))))
        z = float(rng.uniform((), u + 0.05, v - 0.05))
        if abs(z - round_half_away(np.float64(z))) < 1e-3:
            continue
        if min(abs(z - u), abs(z - v)) < 1e-3:
            continue
        checked += 1
        q = QuantizerState(s=np.asarray(s), bits=bits)
        w = s * z

        def path(t):
            qt = QuantizerState(s=np.asarray(s + t), bits=bits)
            return float(quantize(np.asarray(w + t * z), qt))

        fd_joint = (path(eps) - path(-eps)) / (2 * eps)
        fd_scale = fd_joint - z
        _, g_s = quantize_backward(round_to_grid(np.asarray([w]), q)[2], q, np.ones(1))
        got = float(g_s) * np.sqrt(max(v, 1))  # undo the 1/sqrt(N*v) scaling
        if abs(got - fd_scale) <= 1e-4 * max(1.0, abs(fd_scale)):
            agreements += 1

    # Whole-network backward vs FD, 3-layer MLP, 10 entries per tensor.
    net = build_mlp(6, 3, hidden=(8, 8), rng=Rng(7).child("init"))
    x = Rng(8).normal((16, 6))
    y = Rng(9).integers(0, 3, (16,))

    def loss_of():
        out = forward(net, x, "latent")
        return loss_and_grad(net.loss, out, y)[0]

    out, cache = forward(net, x, "latent", cache=True)
    _, dl = loss_and_grad(net.loss, out, y)
    grads = backward(net, cache, dl)
    fd_bad = 0
    prng = np.random.default_rng(55)
    for name, p in net.parameters().items():
        flat = p.reshape(-1)
        for idx in prng.choice(p.size, size=min(10, p.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + eps
            hi = loss_of()
            flat[idx] = keep - eps
            lo = loss_of()
            flat[idx] = keep
            fd = (hi - lo) / (2 * eps)
            got = grads[name].reshape(-1)[idx]
            if abs(got - fd) > 1e-4 * max(1.0, abs(fd)) + 1e-7:
                fd_bad += 1
    wall = time.perf_counter() - start
    report(2, ok_w and agreements >= 950 and fd_bad == 0 and wall < 120,
           f"weight grads definitional, scale FD {agreements}/1000 (need 950), "
           f"network FD mismatches {fd_bad}, {wall:.1f}s")


def test_criterion_3_toy_oscillation():
    start = time.perf_counter()
    osc = lower = better = 0
    for seed in range(10):
        trace, _ = run_toy(ToyProblem(), rng=Rng(seed))
        tail = trace["codes"][-500:]
        etail = trace["ema_codes"][-500:]
        live = (tail[1:] != tail[:-1]).mean(axis=0)
        shadow = (etail[1:] != etail[:-1]).mean(axis=0)
        osc += bool((live > 0.05).any())
        lower += bool(shadow.mean() < live.mean())
        better += bool(trace["final_eval_loss_ema"] <= trace["final_eval_loss"])
    wall = time.perf_counter() - start
    report(3, osc >= 8 and lower >= 8 and better >= 8 and wall < 60,
           f"oscillating {osc}/10, shadow flips lower {lower}/10, "
           f"shadow loss <= live {better}/10 (all need 8), {wall:.1f}s")


def test_criterion_4_ema_exactness():
    start = time.perf_counter()
    # alpha = 0: the shadow is the live value, bit for bit.
    data = gen_classification(seed=5, n=300, dim=4, classes=3)
    net = build_mlp(4, 3, hidden=(8,), rng=Rng(5).child("init"))
    qnet = attach_quantizers(net, data.calib_x, bits_w=4, bits_a=4)
    cfg = TrainConfig(epochs=1, batch=32, seed=5, ema_alpha=0.0, ema_warmup_frac=0.0)
    qnet, ema, _, _ = train_qat(qnet, data, cfg)
    shadow = materialize_ema(qnet, ema)
    x = Rng(6).normal((40, 4))
    identical = bool(
        np.array_equal(forward(shadow, x, "quantized"), forward(qnet, x, "quantized"))
    )

    # Constant live values: one million updates converge geometrically.
    state = EMAState(alpha=0.999, warmup_iters=0)
    live = {"p": np.asarray([3.712, -0.25, 118.0])}
    state.shadows["p"] = np.asarray([-7.0, 0.9, 2.0])
    s0 = state.shadows["p"].copy()
    for i in range(1_000_000):
        ema_update(state, live)
        if i == 999:  # closed form alpha^n s0 + (1 - alpha^n) p
            expect = 0.999 ** 1000 * s0 + (1 - 0.999 ** 1000) * live["p"]
            assert np.allclose(state.shadows["p"], expect, rtol=0, atol=1e-9)
    gap = float(np.abs(state.shadows["p"] - live["p"]).max())
    wall = time.perf_counter() - start
    report(4, identical and gap <= 1e-9 and wall < 10,
           f"alpha=0 bit-identical: {identical}, 10^6-step gap {gap:.1e} "
           f"(need <=1e-9), {wall:.1f}s")


def test_criterion_5_qc_algebra(tmp_path):
    start = time.perf_counter()
    rng = Rng(303)

    absorb_worst = 0.0
    for i in range(100):
        c_dim = int(rng.integers(1, 33))
        h = rng.normal((1000, c_dim)) * 3.0 + rng.normal((c_dim,))
        per_tensor = i % 5 == 0
        gdim = 1 if per_tensor else c_dim
        corr = (
            rng.uniform((gdim,), 0.5, 1.5) * np.where(rng.uniform((gdim,), 0, 1) < 0.1, -1, 1),
            rng.normal((gdim,)),
        )
        bn = make_bn(c_dim)
        bn.mode = "eval"
        bn.gain = rng.uniform((c_dim,), 0.2, 2.0) * np.where(rng.uniform((c_dim,), 0, 1) < 0.2, -1, 1)
        bn.bias = rng.normal((c_dim,))
        bn.running_mean = rng.normal((c_dim,))
        bn.running_var = rng.uniform((c_dim,), 0.1, 4.0)
        direct = _bn_forward(bn, apply_correction(h, *corr), False)[0]
        merged = _bn_forward(absorb_into_bn(*corr, bn), h, False)[0]
        absorb_worst = max(absorb_worst, float(np.abs(direct - merged).max()))

    fold_worst = 0.0
    for i in range(100):
        c_out = int(rng.integers(1, 9))
        c_in = int(rng.integers(1, 7))
        w = rng.normal((c_out, c_in))
        layer = LayerSpec(
            kind=DENSE, weight=w, bias=rng.normal((c_out,)),
            w_quant=init_scale(w, bits=4), bn=make_bn(c_out),
        )
        layer.bn.mode = "eval"
        layer.bn.gain = rng.uniform((c_out,), 0.3, 2.0)
        if i % 2:
            layer.bn.gain[::2] *= -1.0
        layer.bn.bias = rng.normal((c_out,))
        layer.bn.running_mean = rng.normal((c_out,))
        layer.bn.running_var = rng.uniform((c_out,), 0.2, 2.0)
        pre = NetworkSpec(layers=[layer], input_shape=(c_in,), loss="mse")
        post = NetworkSpec(
            layers=[fold_bn_into_quant_scale(layer)], input_shape=(c_in,), loss="mse"
        )
        x = rng.normal((200, c_in))
        diff = np.abs(forward(post, x, "quantized") - forward(pre, x, "quantized"))
        fold_worst = max(fold_worst, float(diff.max()))

    # Folding a trained net does not move its checkpointed eval metric.
    data = gen_classification(seed=11, n=400, dim=4, classes=3)
    net = build_mlp(4, 3, hidden=(8,), rng=Rng(11).child("init"))
    train_latent(net, data, 4, 32, 1e-3, 11)
    qnet = attach_quantizers(net, data.calib_x, bits_w=4, bits_a=4)
    qnet, _, _, _ = train_qat(qnet, data, TrainConfig(epochs=2, seed=11))
    for layer in qnet.layers:
        if layer.bn is not None:
            layer.bn.mode = "eval"
    pre_loss = evaluate(qnet, data.eval_x, data.eval_y)["loss"]
    folded = fold_network(qnet)
    post_loss = evaluate(folded, data.eval_x, data.eval_y)["loss"]
    ckpt_path = str(tmp_path / "folded.qat")
    save_checkpoint(ckpt_path, network_to_checkpoint(folded))
    loaded, _ = checkpoint_to_network(load_checkpoint(ckpt_path))
    loaded_loss = evaluate(loaded, data.eval_x, data.eval_y)["loss"]
    ckpt_gap = max(abs(post_loss - pre_loss), abs(loaded_loss - pre_loss))

    wall = time.perf_counter() - start
    report(5, absorb_worst <= 1e-10 and fold_worst <= 1e-6 and ckpt_gap <= 1e-6 and wall < 60,
           f"absorb worst {absorb_worst:.1e} (<=1e-10), fold worst {fold_worst:.1e} "
           f"(<=1e-6), checkpointed eval gap {ckpt_gap:.1e} (<=1e-6), {wall:.1f}s")


def _trend_seed(seed):
    data = gen_classification(seed=seed, n=2000, dim=16, classes=3,
                              noise=1.8, separation=5.0, calib_fraction=0.25)
    net = build_cnn(in_shape=(1, 4, 4), out_dim=3, rng=Rng(seed).child("init"))
    train_latent(net, data, 12, 32, 4e-3, seed)
    qnet = attach_quantizers(net, data.calib_x, bits_w=3, bits_a=3)
    cfg = TrainConfig(epochs=24, batch=32, lr=4e-3, seed=seed,
                      ema_alpha=0.995, ema_warmup_frac=0.1)
    qnet, ema, tracker, _ = train_qat(qnet, data, cfg)
    shadow = materialize_ema(qnet, ema)
    plain_acc = evaluate(qnet, data.eval_x, data.eval_y)["accuracy"]
    calib_before = evaluate(shadow, data.calib_x, data.calib_y)["loss"]
    corrected, _ = fit_qc(shadow, data.calib_x, data.calib_y,
                          QCConfig(lr=3e-3, batch=8), seed=seed)
    calib_after = evaluate(corrected, data.calib_x, data.calib_y)["loss"]
    emaqc_acc = evaluate(corrected, data.eval_x, data.eval_y)["accuracy"]
    freq = flip_frequency(tracker)
    return dict(
        seed=seed, data=data, live=qnet, shadow=shadow,
        plain_acc=plain_acc, emaqc_acc=emaqc_acc,
        calib_drop=calib_after - calib_before,
        osc_fraction=float((freq > 0.05).mean()),
    )


@pytest.fixture(scope="session")
def trend_runs():
    """Shared 10-seed trend computation: CNN with a depthwise block at
    3-bit weights and activations, plain vs EMA-shadow vs corrected.  The
    seeds train in parallel worker processes (``map_seeds``)."""
    t0 = time.perf_counter()
    rows = map_seeds(_trend_seed, list(range(10)))
    t_train = time.perf_counter() - t0

    t0 = time.perf_counter()
    for row in rows:
        hard = evaluate(row["live"], row["data"].eval_x, row["data"].eval_y,
                        mode="quantized")
        soft = evaluate(row["live"], row["data"].eval_x, row["data"].eval_y,
                        mode="soft_round", k=0.45)
        row["hard_loss"], row["soft_loss"] = hard["loss"], soft["loss"]
    t_soft = time.perf_counter() - t0

    t0 = time.perf_counter()
    for row in rows:
        table = qc_ablation(row["shadow"], row["data"], lr=3e-3, batch=8,
                            seed=row["seed"])
        row["pc_both"] = table["per_channel"]["both"]["eval_accuracy"]
        row["pt_both"] = table["per_tensor"]["both"]["eval_accuracy"]
        row["ablation"] = table
    t_ablate = time.perf_counter() - t0
    return {"rows": rows, "t_train": t_train, "t_soft": t_soft, "t_ablate": t_ablate}


def test_criterion_6_method_ordering(trend_runs):
    rows = trend_runs["rows"]
    wins = sum(r["emaqc_acc"] >= r["plain_acc"] for r in rows)
    drops = sum(r["calib_drop"] < 0 for r in rows)
    wall = trend_runs["t_train"]
    report(6, wins >= 8 and drops >= 9 and wall < 900,
           f"corrected shadow >= plain accuracy {wins}/10 (need 8), "
           f"calibration loss drops {drops}/10 (need 9), {wall:.0f}s")


def test_criterion_7_soft_rounding(trend_runs):
    rows = [r for r in trend_runs["rows"] if r["osc_fraction"] >= 0.05]
    wins = sum(r["soft_loss"] <= r["hard_loss"] for r in rows)
    wall = trend_runs["t_soft"]
    ok = len(rows) > 0 and wins * 2 > len(rows) and wall < 120
    pairs = ", ".join(f"{r['soft_loss']:.3f}/{r['hard_loss']:.3f}" for r in rows)
    report(7, ok,
           f"soft <= hard loss in {wins}/{len(rows)} oscillating seeds "
           f"(soft/hard: {pairs}), {wall:.1f}s")


def test_criterion_8_qc_ablation(trend_runs):
    rows = trend_runs["rows"]
    complete = all(
        np.isfinite(cell["eval_loss"])
        for r in rows
        for gran in r["ablation"].values()
        for cell in gran.values()
    )
    wins = sum(r["pc_both"] >= r["pt_both"] for r in rows)
    wall = trend_runs["t_ablate"]
    report(8, complete and wins * 2 > len(rows) and wall < 1200,
           f"2x3 grid complete on 10 seeds, per-channel >= per-tensor "
           f"{wins}/10 (need majority), {wall:.0f}s")


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    args = ["train", "--set", "seeds=[0]", "--set", "epochs=2",
            "--set", "pretrain_epochs=1", "--set", "dataset.n=300"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "train-seed0" / "metrics.csv").read_bytes() == \
           (tmp_path / "b" / "train-seed0" / "metrics.csv").read_bytes()
    for out in ("a", "b"):
        assert main(["toy", "--out", str(tmp_path / out), "--set", "toy.steps=300"]) == 0
    same_toy = (tmp_path / "a" / "toy-seed0" / "toy_trace.csv").read_bytes() == \
               (tmp_path / "b" / "toy-seed0" / "toy_trace.csv").read_bytes()
    wall = time.perf_counter() - start
    report(9, same and same_toy,
           f"re-run metrics byte-identical: train {same}, toy {same_toy}, {wall:.1f}s")
