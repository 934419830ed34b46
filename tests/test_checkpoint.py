import hashlib
import struct

import numpy as np
import pytest

from qatlab.checkpoint import (
    Checkpoint,
    checkpoint_to_network,
    load_checkpoint,
    network_to_checkpoint,
    save_checkpoint,
)
from qatlab.datasets import gen_classification
from qatlab.ema import EMAState, ema_update
from qatlab.network import build_cnn, build_mlp, forward
from qatlab.numeric import Rng
from qatlab.qc import QCConfig, fit_qc, fold_bn_into_quant_scale
from qatlab.training import TrainConfig, attach_quantizers, train_latent, train_qat


def small_ckpt():
    rng = Rng(0)
    return Checkpoint(
        tensors={
            "b": rng.normal((3, 2)),
            "a": rng.normal((4,)),
            "codes": np.arange(5, dtype=np.int64),
        },
        topology={"note": "fixture"},
        config={"seed": 7, "lr": 0.1},
    )


class TestContainer:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "c.qat"
        ckpt = small_ckpt()
        save_checkpoint(p, ckpt)
        back = load_checkpoint(p)
        assert back.config == ckpt.config
        assert back.topology == ckpt.topology
        assert sorted(back.tensors) == sorted(ckpt.tensors)
        for k in ckpt.tensors:
            np.testing.assert_array_equal(back.tensors[k], ckpt.tensors[k])
        assert back.tensors["codes"].dtype == np.int64

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.qat", tmp_path / "b.qat"
        save_checkpoint(p1, small_ckpt())
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.qat"
        save_checkpoint(p, small_ckpt())
        p.write_bytes(b"XXTSLAB9" + p.read_bytes()[8:])
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "c.qat"
        ckpt = small_ckpt()
        ckpt.version = 2
        save_checkpoint(p, ckpt)
        with pytest.raises(ValueError, match="version 2"):
            load_checkpoint(p)

    def test_truncation_names_tensor(self, tmp_path):
        p = tmp_path / "c.qat"
        save_checkpoint(p, small_ckpt())
        p.write_bytes(p.read_bytes()[:-4])
        # Sorted order puts "codes" last in the blob.
        with pytest.raises(ValueError, match="codes"):
            load_checkpoint(p)

    def test_corruption_names_tensor(self, tmp_path):
        p = tmp_path / "c.qat"
        save_checkpoint(p, small_ckpt())
        raw = bytearray(p.read_bytes())
        raw[-3] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum.*codes"):
            load_checkpoint(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "c.qat"
        save_checkpoint(p, small_ckpt())
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(p)

    def test_unsupported_dtype(self, tmp_path):
        ckpt = Checkpoint(tensors={"x": np.array(["a", "b"])})
        with pytest.raises(ValueError, match="dtype"):
            save_checkpoint(tmp_path / "c.qat", ckpt)


def trained_state(seed=0):
    d = gen_classification(seed=seed, n=400, classes=3, dim=4)
    net = build_mlp(4, 3, hidden=(8,), rng=Rng(seed), loss="softmax_ce")
    train_latent(net, d, epochs=4, batch=32, lr=1e-2, seed=seed)
    qnet = attach_quantizers(net, d.calib_x, bits_w=4, bits_a=4)
    _, ema, _, _ = train_qat(qnet, d, TrainConfig(epochs=2, seed=seed))
    return d, qnet, ema


class TestNetworkRoundTrip:
    def test_forward_identical(self, tmp_path):
        d, qnet, ema = trained_state()
        p = tmp_path / "net.qat"
        save_checkpoint(p, network_to_checkpoint(qnet, config={"seed": 0}, ema=ema))
        net2, ema2 = checkpoint_to_network(load_checkpoint(p))
        x = d.eval_x[:16]
        np.testing.assert_array_equal(
            forward(net2, x, "quantized"), forward(qnet, x, "quantized")
        )
        assert ema2.alpha == ema.alpha
        assert ema2.iter == ema.iter
        assert sorted(ema2.shadows) == sorted(ema.shadows)
        for k in ema.shadows:
            np.testing.assert_array_equal(ema2.shadows[k], ema.shadows[k])

    def test_quantizer_metadata_survives(self, tmp_path):
        _, qnet, _ = trained_state()
        p = tmp_path / "net.qat"
        save_checkpoint(p, network_to_checkpoint(qnet))
        net2, ema2 = checkpoint_to_network(load_checkpoint(p))
        assert ema2 is None
        for a, b in zip(qnet.layers, net2.layers):
            assert a.w_quant.bits == b.w_quant.bits
            assert a.a_quant.signed == b.a_quant.signed
            np.testing.assert_array_equal(a.w_quant.s, b.w_quant.s)

    def test_corrections_survive(self, tmp_path):
        d, qnet, _ = trained_state(seed=1)
        corrected, _ = fit_qc(qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01))
        p = tmp_path / "qc.qat"
        save_checkpoint(p, network_to_checkpoint(corrected))
        net2, _ = checkpoint_to_network(load_checkpoint(p))
        x = d.eval_x[:8]
        np.testing.assert_array_equal(
            forward(net2, x, "quantized"), forward(corrected, x, "quantized")
        )
        assert net2.layers[0].qc_gamma is not None
        # BN mode was frozen to eval by the fitting step and must persist.
        assert all(l.bn.mode == "eval" for l in net2.layers if l.bn is not None)

    def test_header_with_degenerate_flag_loads(self, tmp_path):
        """Checkpoints written before the quantizer dropped its unused
        ``degenerate`` flag still carry it in the header."""
        d, qnet, _ = trained_state()
        ckpt = network_to_checkpoint(qnet)
        for meta in ckpt.topology["layers"]:
            for q in ("w_quant", "a_quant"):
                meta[q]["degenerate"] = True
        p = tmp_path / "old.qat"
        save_checkpoint(p, ckpt)
        net2, _ = checkpoint_to_network(load_checkpoint(p))
        x = d.eval_x[:8]
        np.testing.assert_array_equal(
            forward(net2, x, "quantized"), forward(qnet, x, "quantized")
        )

    def test_double_save_byte_identical(self, tmp_path):
        _, qnet, ema = trained_state()
        p1, p2 = tmp_path / "a.qat", tmp_path / "b.qat"
        save_checkpoint(p1, network_to_checkpoint(qnet, ema=ema))
        save_checkpoint(p2, network_to_checkpoint(qnet, ema=ema))
        assert p1.read_bytes() == p2.read_bytes()


def pinned_state():
    """A fixed 3-bit CNN with every kind of state a checkpoint holds: eval-mode
    BN, a first layer folded into a per-channel weight quantizer, per-channel
    and per-tensor corrections, and EMA shadows after two updates."""
    net = build_cnn(in_shape=(1, 4, 4), out_dim=3, channels=(2, 3, 3, 2), rng=Rng(0))
    net = attach_quantizers(net, Rng(1).normal((8, 1, 4, 4)), bits_w=3, bits_a=4).frozen()
    net.layers[0] = fold_bn_into_quant_scale(net.layers[0])
    net.layers[1].qc_gamma = 1.0 + 0.1 * Rng(2).normal((3,))
    net.layers[1].qc_beta = 0.1 * Rng(3).normal((3,))
    net.layers[4].qc_gamma, net.layers[4].qc_beta = np.array([0.9]), np.array([0.05])
    ema = EMAState(alpha=0.9, warmup_iters=1)
    for _ in range(2):
        ema_update(ema, net.parameters())
    return net, ema


def test_header_bytes_are_pinned(tmp_path):
    """The header (topology, quantizer metadata, tensor table with every
    tensor's sha256) of a fixed checkpoint keeps the bytes it had when the
    topology was still written field by field."""
    net, ema = pinned_state()
    p = tmp_path / "pinned.qat"
    save_checkpoint(p, network_to_checkpoint(net, config={"seed": 0}, ema=ema))
    raw = p.read_bytes()
    (head_len,) = struct.unpack("<Q", raw[8:16])
    head = raw[16 : 16 + head_len]
    assert head_len == 11709
    assert hashlib.sha256(head).hexdigest() == (
        "ba78d4666883142b9e7710211ce8523de0472d6778137d29e660a9d2bc2e6d47"
    )
    net2, ema2 = checkpoint_to_network(load_checkpoint(p))
    x = Rng(4).normal((5, 1, 4, 4))
    np.testing.assert_array_equal(forward(net2, x), forward(net, x))
    assert (ema2.alpha, ema2.warmup_iters, ema2.iter) == (0.9, 1, 2)
    assert net2.layers[0].w_quant.granularity == "per_channel" and net2.layers[0].bn is None
