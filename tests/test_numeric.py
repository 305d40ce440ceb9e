import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from corefkit import Document, EncoderConfig, EngineConfig, document_loss
from corefkit.engine import init_params
from corefkit.numeric import (
    _MIN_CAPACITY,
    AdamOptimizer,
    NumericError,
    OptimizerConfig,
    ParamStore,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)
from oracles import reference_adam_step, softmax


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


# task tensors first, then encoder ones, and groups interleaved, so the
# trainable elements split into several runs of one group
MIXED_LAYOUT = [
    ("score.W1", (6, 5), "task"),
    ("score.b1", (6,), "task"),
    ("embed.token", (10, 4), "encoder"),
    ("embed.pos", (7, 4), "encoder"),
    ("enc.0.W", (4, 4), "encoder"),
    ("enc.0.b", (4,), "encoder"),
    ("head.w2", (3,), "task"),
    ("enc.1.W", (4, 4), "encoder"),
    ("enc.1.gate", (1,), "encoder"),
]

FROZEN = {
    "none": lambda step: (),
    "embeddings": lambda step: ("embed.token", "embed.pos"),
    "middle_layer": lambda step: ("enc.0.W", "enc.0.b"),
    # frozen on odd steps only, so a tensor's moments pause and resume
    "toggled": lambda step: ("score.b1", "enc.0.W") if step % 2 else ("embed.pos",),
}


def mixed_store(seed=0):
    rng = np.random.default_rng(seed)
    params = ParamStore()
    for name, shape, group in MIXED_LAYOUT:
        params.add(name, rng.normal(size=shape), group)
    return params


class TestMatchesPerTensorReference:
    """The flat in-place step against the per-tensor step it replaced: values,
    moments and returned norms must be bit-identical."""

    @pytest.mark.parametrize("grad_scale", [0.05, 5.0], ids=["no_clip", "clip"])
    @pytest.mark.parametrize("frozen", sorted(FROZEN))
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fifty_steps_bit_identical(self, grad_scale, frozen, weight_decay):
        config = OptimizerConfig(lr_task=1e-2, lr_encoder=3e-3, weight_decay_encoder=weight_decay)
        flat, ref = mixed_store(), mixed_store()
        opt = AdamOptimizer(flat, config)
        ref_opt = SimpleNamespace(
            config=config,
            step_count=0,
            m={n: np.zeros_like(ref.value(n)) for n in ref.names()},
            v={n: np.zeros_like(ref.value(n)) for n in ref.names()},
        )
        rng = np.random.default_rng(1)
        clipped = 0
        for step in range(50):
            for store in (flat, ref):
                for name in store.names():
                    store.set_frozen(name, name in FROZEN[frozen](step))
            for name in flat.names():
                g = rng.normal(size=flat.value(name).shape) * grad_scale
                flat[name].grad[...] = g
                ref[name].grad[...] = g
            norm = opt.step(flat)
            assert norm == reference_adam_step(ref_opt, ref)
            clipped += norm > config.clip_norm
            for name in flat.names():
                assert np.array_equal(flat.value(name), ref.value(name)), name
                assert np.array_equal(opt.m[name], ref_opt.m[name]), name
                assert np.array_equal(opt.v[name], ref_opt.v[name]), name
            assert not flat.flat_grads().any()
        assert clipped == (50 if grad_scale > 1.0 else 0)


SRC_ENC = EncoderConfig(num_layers=2, hidden_dim=16, hash_vocab_size=2048, max_position=128)
SRC_ENG = EngineConfig(max_span_width=3, pruning_mode="reformulated",
                       scorer_hidden_dim=128, width_embedding_dim=8)


class TestFlatStore:
    def test_views_share_the_flat_buffers_in_insertion_order(self):
        params = mixed_store()
        offset = 0
        for name in params.names():
            p = params[name]
            size = p.value.size
            assert np.shares_memory(p.value, params.flat_values()[offset : offset + size])
            assert np.shares_memory(p.grad, params.flat_grads()[offset : offset + size])
            offset += size
        assert offset == params.flat_values().size == sum(p.value.size for _, p in params.items())

    def test_growth_keeps_values_and_grads(self):
        params = ParamStore()
        params.add("a", np.arange(3.0), "task")
        params["a"].grad[...] = 1.0
        a = params["a"]
        for i in range(3):  # each outgrows the buffers
            params.add(f"b{i}", np.full((_MIN_CAPACITY, 2), float(i)), "encoder")
        assert a is params["a"]
        np.testing.assert_array_equal(params.value("a"), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(params["a"].grad, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(params.value("b1"), np.full((_MIN_CAPACITY, 2), 1.0))
        assert np.shares_memory(params.value("a"), params.flat_values())

    @pytest.mark.parametrize("attr", ["value", "grad"])
    def test_rebinding_raises(self, attr):
        params = mixed_store()
        p = params["score.W1"]
        with pytest.raises(AttributeError, match="cannot be rebound"):
            setattr(p, attr, np.zeros((6, 5)))
        view = getattr(p, attr)
        setattr(p, attr, view)  # what `p.grad += g` does after adding in place
        view += 1.0
        assert np.shares_memory(getattr(p, attr), params.flat_values() if attr == "value"
                                else params.flat_grads())

    @pytest.mark.parametrize("made_by", ["copy", "load_checkpoint", "set_frozen"])
    def test_step_visible_through_every_view(self, tmp_path, made_by):
        enc = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=128, max_position=64)
        eng = EngineConfig(max_span_width=3, scorer_hidden_dim=6, width_embedding_dim=4)
        doc = Document(
            "d",
            [["Anna", "saw", "the", "dog"], ["Anna", "fed", "it", "happily"]],
            [((0, 0), (4, 4)), ((2, 3), (6, 6))],
        )
        params = init_params(enc, eng, seed=0)
        if made_by == "copy":
            params = params.copy()
        elif made_by == "load_checkpoint":
            save_checkpoint(tmp_path / "m.ckpt", params)
            params, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        else:
            params.set_frozen("embed.token", True)
            params.set_frozen("embed.token", False)
            params.set_frozen("enc.0.W", True)
        held = {name: params.value(name) for name in params.names()}
        before = params.flat_values().copy()
        opt = AdamOptimizer(params, OptimizerConfig(weight_decay_encoder=0.0))
        # the encoder and engine write their gradients through the views
        loss_before = document_loss(doc, params, enc, eng, "joint_singleton", backward=True)
        reached = {name: params[name].grad.any() for name in params.names()}
        assert sum(reached.values()) >= len(reached) // 2
        opt.step(params)

        for name in params.names():
            p = params[name]
            moved = not np.array_equal(p.value.ravel(), before[p.offset : p.offset + p.value.size])
            assert moved == (reached[name] and not p.frozen), name
            assert np.shares_memory(held[name], params.flat_values())
            np.testing.assert_array_equal(held[name], params.value(name))
        # the encoder and engine read the stepped values: the loss they compute
        # matches one on a store rebuilt from the flat buffer
        def loss(store):
            return document_loss(doc, store, enc, eng, "joint_singleton", backward=False)

        assert loss(params) != loss_before
        assert loss(params) == loss(params.copy())


class TestCheckpoint:
    # sha256 of the v1 files written by the per-tensor writer the flat one replaced
    PINNED_PLAIN = "71ea8bf5c871d10acd0f7894a4cc06035e13bd29ea57f8d6e14f0346c2be68a7"
    PINNED_WITH_OPTIMIZER = "87fa48d52317d35e6082f40e021915c6b1fd5baf7ec06e847568ea9a5b8a0d0f"

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = init_params(SRC_ENC, SRC_ENG, seed=0)
        save_checkpoint(path, params)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_PLAIN

        opt = AdamOptimizer(params)
        rng = np.random.default_rng(0)
        for name in params.names():
            params[name].grad[...] = rng.normal(size=params.value(name).shape)
        params.set_frozen("embed.pos", True)
        opt.step(params)
        save_checkpoint(path, params, opt, meta={"epoch": 1})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_WITH_OPTIMIZER
        loaded, loaded_opt, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.flat_values(), params.flat_values())
        np.testing.assert_array_equal(loaded_opt.m["enc.1.W"], opt.m["enc.1.W"])
        np.testing.assert_array_equal(loaded_opt.v["score.pair.W1"], opt.v["score.pair.W1"])

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
