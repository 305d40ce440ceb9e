import numpy as np
import pytest

from corefkit.numeric import (
    AdamOptimizer,
    NumericError,
    OptimizerConfig,
    ParamStore,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    softmax,
)


class TestPrimitives:
    def test_sigmoid_value_and_grad(self):
        assert sigmoid(0.0) == 0.5
        y = sigmoid(0.0)
        assert y * (1 - y) == 0.25

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])


def quad_store():
    params = ParamStore()
    rng = np.random.default_rng(3)
    params.add("p", rng.normal(size=(4, 3)), "task")
    params.add("q", rng.normal(size=5), "encoder")
    return params


def quad_loss(params):
    def fn(backward):
        total = 0.0
        for name in params.names():
            p = params[name]
            total += float(np.sum(p.value**2))
            if backward:
                p.grad += 2.0 * p.value
        return total

    return fn


class TestGradCheck:
    def test_quadratic_tight(self):
        params = quad_store()
        assert grad_check(quad_loss(params), params, eps=1e-5) < 1e-8

    def test_detects_wrong_gradient(self):
        params = quad_store()

        def wrong(backward):
            total = 0.0
            for name in params.names():
                p = params[name]
                total += float(np.sum(p.value**2))
                if backward:
                    p.grad += 3.0 * p.value  # deliberately wrong
            return total

        assert grad_check(wrong, params, eps=1e-5) > 0.1

    def test_subsampling(self):
        params = quad_store()
        assert grad_check(quad_loss(params), params, eps=1e-5, max_scalars=5) < 1e-8

    def test_nonfinite_loss_rejected(self):
        params = quad_store()
        with pytest.raises(NumericError, match="non-finite"):
            grad_check(lambda backward: float("nan"), params)


class TestOptimizer:
    def test_clipping_scales_by_half(self):
        params = ParamStore()
        params.add("w", np.zeros(4), "task")
        params["w"].grad[:] = 10.0  # norm 20
        opt = AdamOptimizer(params, OptimizerConfig(clip_norm=10.0))
        norm = opt.step(params)
        assert norm == pytest.approx(20.0)
        # after clipping all coordinates saw the same gradient, so the Adam
        # update is uniform with magnitude lr (bias-corrected first step)
        np.testing.assert_allclose(params.value("w"), -2e-4 * np.ones(4), rtol=1e-6)

    def test_clip_preserves_direction(self):
        rng = np.random.default_rng(4)
        params = ParamStore()
        params.add("w", np.zeros(8), "task")
        g = rng.normal(size=8) * 100
        params["w"].grad[:] = g
        opt = AdamOptimizer(params, OptimizerConfig(clip_norm=10.0))
        norm = opt.step(params)
        # after one step the first moment is (1 - beta1) * clipped gradient,
        # which must be a positive scalar multiple of the raw gradient
        np.testing.assert_allclose(opt.m["w"], 0.1 * g * (10.0 / norm), rtol=1e-12)
        assert norm > 10.0

    def test_frozen_untouched_bit_exact(self):
        params = ParamStore()
        params.add("a", np.ones(3), "task")
        params.add("b", np.ones(3), "encoder")
        params.set_frozen("a", True)
        params.set_frozen("b", True)
        before = {n: params.value(n).copy() for n in params.names()}
        params["a"].grad[:] = 5.0
        params["b"].grad[:] = 5.0
        AdamOptimizer(params).step(params)
        for n in params.names():
            assert np.array_equal(params.value(n), before[n])

    def test_gradients_zeroed_after_step(self):
        params = ParamStore()
        params.add("a", np.ones(3), "task")
        params["a"].grad[:] = 1.0
        AdamOptimizer(params).step(params)
        assert np.all(params["a"].grad == 0.0)

    def test_nonfinite_gradient_rejected(self):
        params = ParamStore()
        params.add("a", np.ones(2), "task")
        params["a"].grad[:] = [np.inf, 0.0]
        with pytest.raises(NumericError, match="non-finite"):
            AdamOptimizer(params).step(params)

    def test_convex_bowl_convergence(self):
        params = ParamStore()
        params.add("x", np.array([3.0]), "task")
        opt = AdamOptimizer(params, OptimizerConfig(lr_task=5e-2, clip_norm=10.0))
        target = 1.25
        for _ in range(200):
            params["x"].grad[:] = 2.0 * (params.value("x") - target)
            opt.step(params)
        assert abs(float(params.value("x")[0]) - target) < 1e-3

    def test_per_group_learning_rates(self):
        params = ParamStore()
        params.add("t", np.zeros(1), "task")
        params.add("e", np.zeros(1), "encoder")
        params["t"].grad[:] = 1.0
        params["e"].grad[:] = 1.0
        AdamOptimizer(
            params, OptimizerConfig(lr_task=2e-4, lr_encoder=1e-5, weight_decay_encoder=0.0)
        ).step(params)
        assert float(params.value("t")[0]) == pytest.approx(-2e-4, rel=1e-6)
        assert float(params.value("e")[0]) == pytest.approx(-1e-5, rel=1e-6)

    def test_weight_decay_encoder_only(self):
        params = ParamStore()
        params.add("t", np.full(1, 2.0), "task")
        params.add("e", np.full(1, 2.0), "encoder")
        # zero gradients: only decay moves anything
        AdamOptimizer(params, OptimizerConfig(weight_decay_encoder=0.01)).step(params)
        assert float(params.value("t")[0]) == 2.0
        assert float(params.value("e")[0]) == pytest.approx(2.0 * (1 - 1e-5 * 0.01))

    def test_determinism(self):
        def run():
            params = ParamStore()
            params.add("w", np.linspace(-1, 1, 6), "task")
            opt = AdamOptimizer(params)
            for step in range(50):
                params["w"].grad[:] = np.sin(params.value("w") + step)
                opt.step(params)
            return params.value("w").copy()

        np.testing.assert_array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip_with_optimizer(self, tmp_path):
        params = ParamStore()
        rng = np.random.default_rng(7)
        params.add("w", rng.normal(size=(3, 2)), "task")
        params.add("e", rng.normal(size=4), "encoder")
        params.set_frozen("e", True)
        opt = AdamOptimizer(params)
        params["w"].grad[:] = 1.0
        opt.step(params)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, opt, meta={"epoch": 3})
        loaded, loaded_opt, meta = load_checkpoint(path)
        assert loaded.names() == params.names()
        for name in params.names():
            np.testing.assert_array_equal(loaded.value(name), params.value(name))
        assert loaded["e"].frozen and not loaded["w"].frozen
        assert loaded_opt.step_count == 1
        np.testing.assert_array_equal(loaded_opt.m["w"], opt.m["w"])
        np.testing.assert_array_equal(loaded_opt.v["w"], opt.v["w"])
        assert meta == {"epoch": 3}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(NumericError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 20, -100, -8, -1])
    def test_truncated_rejected(self, tmp_path, keep):
        params = ParamStore()
        params.add("w", np.arange(6.0).reshape(2, 3), "task")
        opt = AdamOptimizer(params)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, opt)
        data = path.read_bytes()
        path.write_bytes(data[:keep])
        with pytest.raises(NumericError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["tensors", "frozen"])
    def test_header_without_field_rejected(self, tmp_path, field):
        import json
        import struct

        params = ParamStore()
        params.add("w", np.zeros(3), "task")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        (n,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + n])
        del (header if field == "tensors" else header["tensors"][0])[field]
        header_bytes = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + data[16 + n :])
        with pytest.raises(NumericError, match=f"corrupt checkpoint header: KeyError '{field}'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = ParamStore()
        params.add("w", np.zeros(3), "task")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(NumericError, match="trailing"):
            load_checkpoint(path)
