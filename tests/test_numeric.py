import gc
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import corefkit
from corefkit import Document, EncoderConfig, EngineConfig, TrainConfig, document_loss
from corefkit.engine import init_params
from corefkit.numeric import (
    AdamOptimizer,
    NumericError,
    ParamStore,
    grad_check,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)
from oracles import reference_adam_step, softmax, textbook_adam_step
from stores import store_of, v1_checkpoint, with_version


class TestPrimitives:
    def test_sigmoid_value_and_grad(self):
        assert sigmoid(0.0) == 0.5
        y = sigmoid(0.0)
        assert y * (1 - y) == 0.25

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])


def quad_store():
    rng = np.random.default_rng(3)
    return store_of(("p", rng.normal(size=(4, 3)), "task"), ("q", rng.normal(size=5), "encoder"))


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

    def test_zero_gradient_rejected(self):
        # a constant loss has a zero gradient that finite differences agree with
        params = quad_store()
        with pytest.raises(NumericError, match="zero everywhere"):
            grad_check(lambda backward: 1.0, params)

    @pytest.mark.parametrize("kwargs,message", [
        ({"eps": 0.0}, "eps must be positive"),
        ({"eps": -1e-5}, "eps must be positive"),
        ({"max_scalars": 0}, "max_scalars must be >= 1"),
    ])
    def test_bad_arguments_rejected(self, kwargs, message):
        params = quad_store()
        with pytest.raises(ValueError, match=message):
            grad_check(quad_loss(params), params, **kwargs)


class TestOptimizer:
    def test_clipping_scales_by_half(self):
        params = store_of(("w", np.zeros(4), "task"))
        params["w"].grad[:] = 10.0  # norm 20
        opt = AdamOptimizer(params, TrainConfig(clip_norm=10.0))
        norm = opt.step(params)
        assert norm == pytest.approx(20.0)
        # after clipping all coordinates saw the same gradient, so the Adam
        # update is uniform with magnitude lr (bias-corrected first step)
        np.testing.assert_allclose(params.value("w"), -2e-4 * np.ones(4), rtol=1e-6)

    def test_clip_preserves_direction(self):
        rng = np.random.default_rng(4)
        params = store_of(("w", np.zeros(8), "task"))
        g = rng.normal(size=8) * 100
        params["w"].grad[:] = g
        opt = AdamOptimizer(params, TrainConfig(clip_norm=10.0))
        norm = opt.step(params)
        # after one step the first moment is (1 - beta1) * clipped gradient,
        # which must be a positive scalar multiple of the raw gradient
        np.testing.assert_allclose(opt.m["w"], 0.1 * g * (10.0 / norm), rtol=1e-12)
        assert norm > 10.0

    def test_frozen_untouched_bit_exact(self):
        params = store_of(
            ("a", np.ones(3), "task"),
            ("b", np.ones(3), "encoder"),
        )
        params.set_frozen("a", True)
        params.set_frozen("b", True)
        before = {n: params.value(n).copy() for n in params.names()}
        params["a"].grad[:] = 5.0
        params["b"].grad[:] = 5.0
        AdamOptimizer(params, TrainConfig()).step(params)
        for n in params.names():
            assert np.array_equal(params.value(n), before[n])

    def test_gradients_zeroed_after_step(self):
        params = store_of(("a", np.ones(3), "task"))
        params["a"].grad[:] = 1.0
        AdamOptimizer(params, TrainConfig()).step(params)
        assert np.all(params["a"].grad == 0.0)

    def test_nonfinite_gradient_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            params = store_of(("a", np.ones(2), "task"), ("b", np.ones(3), "encoder"))
            params["b"].grad[:] = [0.0, bad, 0.0]
            with pytest.raises(NumericError, match="non-finite gradient in b"):
                AdamOptimizer(params, TrainConfig()).step(params)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_clips_to_zero(self):
        """Finite gradients whose squared norm overflows: the step returns an
        infinite norm and clips them to zero, so the moments stay at zero and
        only the encoder's weight decay moves a value."""
        params = store_of(("t", np.full(3, 2.0), "task"), ("e", np.full(2, 2.0), "encoder"))
        config = TrainConfig(weight_decay_encoder=0.01)
        opt = AdamOptimizer(params, config)
        params["t"].grad[:] = 1e200
        params["e"].grad[:] = -1e200
        assert opt.step(params) == math.inf
        for name in params.names():
            assert not opt.m[name].any() and not opt.v[name].any(), name
        assert np.array_equal(params.value("t"), np.full(3, 2.0))
        np.testing.assert_allclose(params.value("e"), 2.0 * (1.0 - 1e-5 * 0.01), rtol=1e-15)
        assert not params.flat_grads().any()
        # the next finite step updates as usual
        params["t"].grad[:] = 1.0
        assert opt.step(params) == pytest.approx(math.sqrt(3.0))
        assert np.all(params.value("t") < 2.0) and np.all(np.isfinite(opt.v["t"]))

    def test_step_allocates_no_run_sized_array(self):
        params = init_params(SRC_ENC, SRC_ENG, seed=0)
        opt = AdamOptimizer(params, TrainConfig())
        rng = np.random.default_rng(0)
        smallest_run = min(
            sum(p.value.nbytes for _, p in params.items() if p.group == group)
            for group in ("encoder", "task")
        )
        tracemalloc.start()
        try:
            for _ in range(2):  # the first step also builds the run layout
                params.flat_grads()[:] = rng.normal(size=params.flat_grads().size)  # clipped
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                assert opt.step(params) > opt.config.clip_norm
                grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grown < smallest_run // 4

    def test_norm_does_not_follow_the_blas_thread_count(self):
        """Ten steps on a tensor of 32,768 scalars give the same norms and
        values with one BLAS thread as with two."""
        program = (
            "import hashlib\n"
            "import numpy as np\n"
            "from corefkit import TrainConfig\n"
            "from corefkit.numeric import AdamOptimizer, ParamStore\n"
            "params = ParamStore([('w', (32768,), 'task')])\n"
            "opt, rng = AdamOptimizer(params, TrainConfig()), np.random.default_rng(0)\n"
            "for _ in range(10):\n"
            "    params.flat_grads()[:] = rng.normal(size=32768)\n"
            "    print(opt.step(params).hex())\n"
            "print(hashlib.sha256(params.flat_values().tobytes()).hexdigest())\n"
        )
        src = str(Path(corefkit.__file__).resolve().parents[1])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", program],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert len(outputs) == 1

    def test_convex_bowl_convergence(self):
        params = store_of(("x", np.array([3.0]), "task"))
        opt = AdamOptimizer(params, TrainConfig(lr_task=5e-2, clip_norm=10.0))
        target = 1.25
        for _ in range(200):
            params["x"].grad[:] = 2.0 * (params.value("x") - target)
            opt.step(params)
        assert abs(float(params.value("x")[0]) - target) < 1e-3

    def test_per_group_learning_rates(self):
        params = store_of(
            ("t", np.zeros(1), "task"),
            ("e", np.zeros(1), "encoder"),
        )
        params["t"].grad[:] = 1.0
        params["e"].grad[:] = 1.0
        AdamOptimizer(
            params, TrainConfig(lr_task=2e-4, lr_encoder=1e-5, weight_decay_encoder=0.0)
        ).step(params)
        assert float(params.value("t")[0]) == pytest.approx(-2e-4, rel=1e-6)
        assert float(params.value("e")[0]) == pytest.approx(-1e-5, rel=1e-6)

    def test_weight_decay_encoder_only(self):
        params = store_of(
            ("t", np.full(1, 2.0), "task"),
            ("e", np.full(1, 2.0), "encoder"),
        )
        # zero gradients: only decay moves anything
        AdamOptimizer(params, TrainConfig(weight_decay_encoder=0.01)).step(params)
        assert float(params.value("t")[0]) == 2.0
        assert float(params.value("e")[0]) == pytest.approx(2.0 * (1 - 1e-5 * 0.01))

    def test_determinism(self):
        def run():
            params = store_of(("w", np.linspace(-1, 1, 6), "task"))
            opt = AdamOptimizer(params, TrainConfig())
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
    return store_of(*((name, rng.normal(size=shape), group) for name, shape, group in MIXED_LAYOUT))


def reference_optimizer(config, store):
    """The state ``reference_adam_step`` and ``textbook_adam_step`` update."""
    return SimpleNamespace(
        config=config,
        step_count=0,
        m={n: np.zeros_like(store.value(n)) for n in store.names()},
        v={n: np.zeros_like(store.value(n)) for n in store.names()},
    )


class TestMatchesPerTensorReference:
    """The flat in-place step against the same arithmetic applied one tensor
    at a time: values, moments and returned norms must be bit-identical."""

    @pytest.mark.parametrize("how", ["set_frozen", "attribute"])
    def test_freeze_flag_flipped_between_steps(self, how):
        """The optimizer keeps its run layout across steps; a flag flipped
        after a step must still take effect on the next one."""
        config = TrainConfig(lr_task=1e-2, lr_encoder=3e-3)
        flat, ref = mixed_store(), mixed_store()
        opt = AdamOptimizer(flat, config)
        ref_opt = reference_optimizer(config, ref)
        rng = np.random.default_rng(2)
        for frozen in ((), ("enc.0.W",), ("enc.0.W", "score.b1"), ()):
            for store in (flat, ref):
                for name in store.names():
                    if how == "set_frozen":
                        store.set_frozen(name, name in frozen)
                    else:
                        store[name].frozen = name in frozen
            before = {name: flat.value(name).copy() for name in frozen}
            for name in flat.names():
                flat[name].grad[...] = ref[name].grad[...] = rng.normal(size=flat.value(name).shape)
            assert opt.step(flat) == reference_adam_step(ref_opt, ref)
            for name in flat.names():
                assert np.array_equal(flat.value(name), ref.value(name)), name
                assert np.array_equal(opt.m[name], ref_opt.m[name]), name
                assert np.array_equal(opt.v[name], ref_opt.v[name]), name
            for name, value in before.items():
                assert np.array_equal(flat.value(name), value), name

    @pytest.mark.parametrize("grad_scale", [0.05, 5.0], ids=["no_clip", "clip"])
    @pytest.mark.parametrize("frozen", sorted(FROZEN))
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fifty_steps_bit_identical(self, grad_scale, frozen, weight_decay):
        config = TrainConfig(lr_task=1e-2, lr_encoder=3e-3, weight_decay_encoder=weight_decay)
        flat, ref = mixed_store(), mixed_store()
        opt = AdamOptimizer(flat, config)
        ref_opt = reference_optimizer(config, ref)
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

    def test_acceptance_model_bit_identical(self):
        """Tensors longer than one dot-product slice of the norm."""
        config = TrainConfig()
        flat, ref = init_params(SRC_ENC, SRC_ENG, seed=0), init_params(SRC_ENC, SRC_ENG, seed=0)
        ref.set_frozen("enc.0.W", True)
        flat.set_frozen("enc.0.W", True)
        opt, ref_opt = AdamOptimizer(flat, config), reference_optimizer(config, ref)
        rng = np.random.default_rng(5)
        for _ in range(3):
            flat.flat_grads()[:] = ref.flat_grads()[:] = rng.normal(size=flat.flat_grads().size)
            assert opt.step(flat) == reference_adam_step(ref_opt, ref)
            assert np.array_equal(flat.flat_values(), ref.flat_values())
            for name in flat.names():
                assert np.array_equal(opt.m[name], ref_opt.m[name]), name
                assert np.array_equal(opt.v[name], ref_opt.v[name]), name


class TestMatchesTextbookAdam:
    """The step against the textbook order of the same update: clip the
    gradient, update the moments, divide each by its bias correction. Only
    the rounding differs; the bounds are about twice the largest deviation
    measured on this grid (values 5.0e-14, ``v`` 9.0e-16, norms 2.6e-16,
    ``m`` 1.9e-14 of its tensor's largest magnitude)."""

    @pytest.mark.parametrize("grad_scale", [0.05, 5.0], ids=["no_clip", "clip"])
    @pytest.mark.parametrize("frozen", sorted(FROZEN))
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fifty_steps_within_rounding(self, grad_scale, frozen, weight_decay):
        config = TrainConfig(lr_task=1e-2, lr_encoder=3e-3, weight_decay_encoder=weight_decay)
        flat, ref = mixed_store(), mixed_store()
        opt, ref_opt = AdamOptimizer(flat, config), reference_optimizer(config, ref)
        rng = np.random.default_rng(1)
        for step in range(50):
            for store in (flat, ref):
                for name in store.names():
                    store.set_frozen(name, name in FROZEN[frozen](step))
            for name in flat.names():
                flat[name].grad[...] = ref[name].grad[...] = (
                    rng.normal(size=flat.value(name).shape) * grad_scale
                )
            norm, textbook = opt.step(flat), textbook_adam_step(ref_opt, ref)
            assert norm == pytest.approx(textbook, rel=1e-15, abs=0)
            for name in flat.names():
                np.testing.assert_allclose(flat.value(name), ref.value(name), rtol=1e-13, atol=0)
                np.testing.assert_allclose(opt.v[name], ref_opt.v[name], rtol=2e-15, atol=0)
                largest = np.max(np.abs(ref_opt.m[name]), initial=0.0)
                np.testing.assert_allclose(opt.m[name], ref_opt.m[name], rtol=0, atol=4e-14 * largest)


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

    def test_rows_are_checked(self):
        params = ParamStore([("a", (2, 3), "task"), ("b", (4,), "encoder", True)])
        assert params.flat_values().size == 10 and not params.flat_values().any()
        assert params["b"].frozen and not params["a"].frozen
        assert ParamStore([("z", (0,), "task")]).flat_grads().shape == (0,)
        with pytest.raises(KeyError, match="already exists"):
            ParamStore([("a", (2,), "task"), ("a", (1,), "task")])
        with pytest.raises(ValueError, match="unknown group"):
            ParamStore([("a", (2,), "other")])
        with pytest.raises(ValueError, match="3 values for tensors of 2 scalars"):
            ParamStore([("a", (2,), "task")], np.zeros(3))

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
        opt = AdamOptimizer(params, TrainConfig(weight_decay_encoder=0.0))
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

    @pytest.mark.parametrize("made_by", ["copy", "init_params", "load_checkpoint"])
    def test_gradients_take_memory_only_once_written(self, tmp_path, made_by):
        source = init_params(SRC_ENC, SRC_ENG, seed=0)
        save_checkpoint(tmp_path / "m.ckpt", source)
        make = {
            "copy": source.copy,
            "init_params": lambda: init_params(SRC_ENC, SRC_ENG, seed=0),
            "load_checkpoint": lambda: load_checkpoint(tmp_path / "m.ckpt")[0],
        }[made_by]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            params = make()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the values, and no gradient vector beside them
        assert grown <= params.flat_values().nbytes + 64 * 1024
        assert not params.flat_grads().any()

    def test_trained_store_freed_without_the_cyclic_collector(self):
        enc = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=128, max_position=64)
        eng = EngineConfig(max_span_width=3, scorer_hidden_dim=6, width_embedding_dim=4)
        doc = Document("d", [["Anna", "saw", "her", "dog"]], [((0, 0), (2, 2))])
        gc.disable()
        try:
            params = init_params(enc, eng, seed=0)
            opt = AdamOptimizer(params, TrainConfig())
            document_loss(doc, params, enc, eng, "joint_singleton", backward=True)
            opt.step(params)
            alive = weakref.ref(params)
            del params
            assert alive() is None
        finally:
            gc.enable()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestCheckpoint:
    # sha256 of the file for init_params(SRC_ENC, SRC_ENG, seed=0)
    PINNED_V2 = "0adc7fff5b196b634f8f732b1205855b2fd11c57c15b9e27223e1b211b8ef6d5"

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = init_params(SRC_ENC, SRC_ENG, seed=0)
        save_checkpoint(path, params)
        data = path.read_bytes()
        assert sha256_hex(data) == self.PINNED_V2
        # the raw little-endian values, at an offset that is a multiple of 8
        # and followed by the sha256 of all before them
        payload = params.flat_values().astype("<f8").tobytes()
        assert data[-32 - len(payload) : -32] == payload
        assert (len(data) - 32 - len(payload)) % 8 == 0
        assert data[-32:] == hashlib.sha256(data[:-32]).digest()

    @pytest.mark.parametrize("version", [1, 3])
    def test_unsupported_version_rejected(self, tmp_path, version):
        path = tmp_path / "m.ckpt"
        params = init_params(SRC_ENC, SRC_ENG, seed=0)
        save_checkpoint(path, params)
        # a version 1 file as its writer made it; a version 3 header on a
        # version 2 file, whose digest is checked only after the version
        data = v1_checkpoint(params) if version == 1 else with_version(path.read_bytes(), version)
        path.write_bytes(data)
        with pytest.raises(NumericError, match=f"^unsupported checkpoint version {version}$"):
            load_checkpoint(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = store_of(("w", rng.normal(size=(3, 2)), "task"), ("e", rng.normal(size=4), "encoder"))
        params.set_frozen("e", True)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"epoch": 3})
        loaded, middle, meta = load_checkpoint(path)
        assert middle is None
        assert loaded.names() == params.names()
        for name in params.names():
            np.testing.assert_array_equal(loaded.value(name), params.value(name))
        assert loaded["e"].frozen and not loaded["w"].frozen
        assert meta == {"epoch": 3}
        assert b"optimizer" not in path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(NumericError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 20, -100, -8, -1])
    def test_truncated_rejected(self, tmp_path, keep):
        params = store_of(("w", np.arange(6.0).reshape(2, 3), "task"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        path.write_bytes(data[:keep])
        # a cut inside the version field is too short to check; any later cut
        # fails the digest
        match = "truncated checkpoint: version" if keep == 6 else "digest mismatch"
        with pytest.raises(NumericError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["tensors", "frozen"])
    def test_header_without_field_rejected(self, tmp_path, field):
        params = store_of(("w", np.zeros(3), "task"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        (n,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + n])
        del (header if field == "tensors" else header["tensors"][0])[field]
        header_bytes = json.dumps(header).encode("utf-8")
        # a consistent file around the bad header: its digest is recomputed
        body = data[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + data[16 + n : -32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(NumericError, match=f"corrupt checkpoint header: KeyError '{field}'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = store_of(("w", np.zeros(3), "task"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(NumericError, match="digest mismatch"):
            load_checkpoint(path)

    def test_trailing_bytes_under_the_digest_rejected(self, tmp_path):
        params = store_of(("w", np.zeros(3), "task"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        # bytes after the last tensor, in a file whose digest covers them
        body = path.read_bytes()[:-32] + b"\0" * 8
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(NumericError, match="trailing bytes after the last tensor"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["header", "payload", "digest"])
    def test_flipped_byte_rejected(self, tmp_path, where):
        params = store_of(("w", np.arange(6.0), "task"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, meta={"max_span_width": 3})
        data = bytearray(path.read_bytes())
        # a meta digit that keeps the header valid JSON, a payload byte, the digest's first
        at = {"header": data.index(b"3}"), "payload": len(data) - 40, "digest": len(data) - 32}[where]
        data[at] ^= {"header": 0x04, "payload": 0x01, "digest": 0x80}[where]
        path.write_bytes(bytes(data))
        with pytest.raises(NumericError, match="digest mismatch"):
            load_checkpoint(path)
