import copy
import pickle

import numpy as np
import pytest

from kernel_reference import reference_ema_update
from qatlab.ema import EMAState, ema_update, materialize_ema
from qatlab.numeric import Rng


class DictNet:
    """Minimal parameter container used to exercise materialization."""

    def __init__(self, params):
        self._p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    def parameters(self):
        return self._p

    def copy(self):
        return DictNet({k: v.copy() for k, v in self._p.items()})


class TestEmaUpdate:
    def test_warmup_is_exact_copy(self):
        state = EMAState(alpha=0.9, warmup_iters=5)
        live = {"w": np.array([1.0, 2.0])}
        for _ in range(5):
            live["w"] += 0.37
            ema_update(state, live)
            np.testing.assert_array_equal(state.shadows["w"], live["w"])

    def test_direct_arithmetic(self):
        state = EMAState(alpha=0.9)
        state.shadows["w"] = np.array(1.0)
        state.iter = 1
        ema_update(state, {"w": np.array(2.0)})
        assert float(state.shadows["w"]) == pytest.approx(1.1)

    def test_fixed_point(self):
        for alpha in (0.0, 0.5, 0.9999):
            state = EMAState(alpha=alpha)
            v = np.array([0.3, -0.7])
            ema_update(state, {"w": v})
            ema_update(state, {"w": v})
            np.testing.assert_allclose(state.shadows["w"], v, rtol=1e-15)

    def test_alpha_zero_always_bit_identical(self):
        state = EMAState(alpha=0.0)
        rng = Rng(4)
        for _ in range(20):
            live = {"w": rng.normal((7,)), "s": rng.uniform((), 0.01, 1.0)}
            ema_update(state, live)
            np.testing.assert_array_equal(state.shadows["w"], live["w"])
            np.testing.assert_array_equal(state.shadows["s"], live["s"])

    def test_geometric_convergence_matches_closed_form(self):
        alpha = 0.97
        state = EMAState(alpha=alpha)
        state.shadows["w"] = np.array(5.0)
        state.iter = 1
        live = {"w": np.array(2.0)}
        for n in range(1, 1001):
            ema_update(state, live)
            expect = 2.0 + (alpha**n) * 3.0
            assert float(state.shadows["w"]) == pytest.approx(expect, rel=1e-12)

    def test_linearity(self):
        rng = Rng(10)
        seq = [rng.normal((4,)) for _ in range(30)]
        c = 2.75

        def run(scale):
            st = EMAState(alpha=0.8)
            for v in seq:
                ema_update(st, {"w": scale * v})
            return st.shadows["w"]

        np.testing.assert_allclose(run(c), c * run(1.0), rtol=1e-13)

    def test_new_parameter_mid_run_rejected(self):
        state = EMAState(alpha=0.5)
        ema_update(state, {"a": np.zeros(2)})
        with pytest.raises(RuntimeError):
            ema_update(state, {"a": np.zeros(2), "b": np.zeros(2)})

    def test_shape_change_rejected(self):
        state = EMAState(alpha=0.5)
        ema_update(state, {"a": np.zeros(2)})
        with pytest.raises(RuntimeError):
            ema_update(state, {"a": np.zeros(3)})

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            EMAState(alpha=1.0)


EMA_SHAPES = {"w": (4, 3), "b": (4,), "s": (), "gain": (2,)}


def _assert_same_shadows(flat, ref):
    assert flat.iter == ref.iter
    assert sorted(flat.shadows) == sorted(ref.shadows)
    for name, shadow in ref.shadows.items():
        assert np.array_equal(flat.shadows[name], shadow), name


class TestFlatEmaOracle:
    """ema_update on one flat buffer equals the name-by-name reference."""

    @pytest.mark.parametrize("alpha, warmup", [(0.0, 0), (0.9, 0), (0.999, 40), (0.5, 5000)])
    def test_thousand_steps_bit_identical(self, alpha, warmup):
        rng = Rng(int(alpha * 1000) + warmup)
        flat, ref = EMAState(alpha, warmup), EMAState(alpha, warmup)
        for st in (flat, ref):  # seeded by hand before the first update
            st.shadows["b"] = np.arange(4.0)
        live = {name: np.array(rng.normal(shape)) for name, shape in EMA_SHAPES.items()}
        for _ in range(1000):
            # Live arrays change in place, as a net's parameters do; "s" is
            # a new array every step, as the toy's weights are.
            live["w"] += rng.normal((4, 3))
            live["b"][...] = rng.normal((4,))
            live["s"] = np.array(rng.uniform((), 0.1, 1.0))
            live["gain"] *= 0.99
            ema_update(flat, live)
            reference_ema_update(ref, live)
            _assert_same_shadows(flat, ref)

    def test_shadows_never_alias_live(self):
        state = EMAState(alpha=0.0)
        live = {"w": np.ones(3)}
        for _ in range(3):
            ema_update(state, live)
        live["w"] += 1.0
        np.testing.assert_array_equal(state.shadows["w"], np.ones(3))

    @staticmethod
    def _live(shape_a=(2, 3), **extra):
        return {"a": np.full(shape_a, 0.5), "b": np.arange(4.0), **extra}

    def _rejects(self, misuse, error=RuntimeError, match=None):
        """``misuse`` of a running state raises and leaves it as it was."""
        state = EMAState(alpha=0.9)
        for _ in range(5):
            ema_update(state, self._live())
        before = {name: sh.copy() for name, sh in state.shadows.items()}
        with pytest.raises(error, match=match):
            misuse(state)
        assert state.iter == 5
        assert sorted(state.shadows) == sorted(before)
        for name, shadow in before.items():
            assert np.array_equal(state.shadows[name], shadow), name
        ema_update(state, self._live())
        assert state.iter == 6

    def test_new_name_mid_run_rejected(self):
        live = self._live(c=np.zeros(1))
        self._rejects(lambda st: ema_update(st, live), match="'c' appeared mid-run")

    def test_renamed_parameter_rejected(self):
        live = {"a": np.zeros((2, 3)), "c": np.zeros(4)}
        self._rejects(lambda st: ema_update(st, live), match="'c' appeared mid-run")

    @pytest.mark.parametrize("shape", [(3, 2), (7,)])
    def test_shape_change_mid_run_rejected(self, shape):
        # (3, 2) has the size of (2, 3), so only the shape differs.
        live = self._live(shape)
        self._rejects(lambda st: ema_update(st, live), match="does not match live")

    def test_left_out_name_rejected(self):
        live = {"a": np.zeros((2, 3))}
        self._rejects(lambda st: ema_update(st, live), match="'b' is missing from the update")

    def test_non_array_live_value_rejected(self):
        live = {**self._live(), "a": [[0.0] * 3] * 2}
        self._rejects(lambda st: ema_update(st, live), AttributeError)

    def test_rebinding_a_shadow_raises(self):
        def rebind(state):
            state.shadows["a"] = np.zeros((2, 3))

        self._rejects(rebind, TypeError)

    @pytest.mark.parametrize("clone", [copy.deepcopy, pickle.dumps])
    def test_laid_out_state_cannot_be_copied(self, clone):
        self._rejects(clone, TypeError)

    def test_laid_out_state_cannot_be_shallow_copied(self):
        self._rejects(copy.copy, TypeError, match="cannot be copied")

    def test_rebound_shadows_rejected(self):
        """Rebinding ``shadows`` after the first update makes the next
        update raise and change nothing; binding the laid-out mapping back
        lets the run go on."""
        state = EMAState(alpha=0.9)
        for _ in range(5):
            ema_update(state, self._live())
        laid_out = state.shadows
        before = {name: sh.copy() for name, sh in laid_out.items()}
        state.shadows = {name: np.zeros_like(sh) for name, sh in before.items()}
        with pytest.raises(RuntimeError, match="shadows was rebound"):
            ema_update(state, self._live())
        assert state.iter == 5
        for name, shadow in before.items():
            assert np.array_equal(laid_out[name], shadow), name
        state.shadows = laid_out
        ema_update(state, self._live())
        assert state.iter == 6

    def test_bad_first_update_leaves_the_state_fresh(self):
        state = EMAState(alpha=0.9)
        state.shadows["b"] = np.arange(4.0)
        with pytest.raises(RuntimeError, match="'b' is missing from the update"):
            ema_update(state, {"a": np.zeros(2)})
        with pytest.raises(AttributeError):
            ema_update(state, {"b": [1.0, 2.0, 3.0, 4.0]})
        assert state.iter == 0 and type(state.shadows) is dict and list(state.shadows) == ["b"]
        np.testing.assert_array_equal(state.shadows["b"], np.arange(4.0))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda st: pickle.loads(pickle.dumps(st))])
    def test_fresh_state_copies(self, clone):
        state = EMAState(alpha=0.8)
        state.shadows["b"] = np.arange(4.0)
        twin = clone(state)
        for st in (state, twin):
            ema_update(st, self._live())
        _assert_same_shadows(twin, state)


class TestMaterialize:
    def test_returns_shadows_and_leaves_live_alone(self):
        net = DictNet({"w": [1.0, 2.0], "s": [0.1]})
        state = EMAState(alpha=0.9)
        ema_update(state, net.parameters())
        net.parameters()["w"] += 10.0
        ema_update(state, net.parameters())
        out = materialize_ema(net, state)
        np.testing.assert_allclose(out.parameters()["w"], state.shadows["w"])
        np.testing.assert_allclose(net.parameters()["w"], [11.0, 12.0])

    def test_warmup_only_training_is_identity(self):
        net = DictNet({"w": [3.0, -1.0]})
        state = EMAState(alpha=0.9999, warmup_iters=100)
        for _ in range(50):
            ema_update(state, net.parameters())
        out = materialize_ema(net, state)
        np.testing.assert_array_equal(out.parameters()["w"], net.parameters()["w"])

    def test_missing_shadow_rejected(self):
        net = DictNet({"w": [1.0]})
        with pytest.raises(RuntimeError):
            materialize_ema(net, EMAState(alpha=0.9))

    def test_materialization_deterministic(self):
        net = DictNet({"w": [1.0, 2.0]})
        state = EMAState(alpha=0.5)
        ema_update(state, net.parameters())
        a = materialize_ema(net, state).parameters()["w"]
        b = materialize_ema(net, state).parameters()["w"]
        np.testing.assert_array_equal(a, b)
