import numpy as np
import pytest

from corefkit import EncoderConfig, EngineConfig, TrainConfig, apply_freeze, init_params
from corefkit.encoder import (
    embed_tokens_backward,
    embed_tokens_forward,
    encode_backward,
    encode_forward,
    encoder_layout,
    token_id,
    token_ids,
)
from corefkit.numeric import ENCODER_GROUP, AdamOptimizer, NumericError, ParamStore, grad_check
from oracles import reference_encode_backward, reference_encode_forward


def fresh_params(cfg, seed=0):
    """The encoder tensors of a fresh model; they lead the store, so they are a prefix."""
    rows = [row[:3] for row in encoder_layout(cfg)]
    size = sum(np.prod(shape) for _, shape, _ in rows)
    return ParamStore(rows, init_params(cfg, EngineConfig(), seed).flat_values()[:size].copy())


def encoder_flags(params):
    return [p.frozen for _, p in params.items() if p.group == ENCODER_GROUP]


@pytest.fixture
def cfg():
    return EncoderConfig(num_layers=3, hidden_dim=8, hash_vocab_size=64, max_position=16)


@pytest.mark.parametrize("kwargs,message", [
    ({"num_layers": 0}, "num_layers must be >= 1"),
    ({"hidden_dim": 3}, "hidden_dim must be >= 4"),
    ({"hash_vocab_size": 1}, "hash_vocab_size and max_position must be positive"),
    ({"max_position": 0}, "hash_vocab_size and max_position must be positive"),
])
def test_config_bounds_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        EncoderConfig(**kwargs).validate()
    # one above each bound is accepted
    EncoderConfig(**{key: value + 1 for key, value in kwargs.items()}).validate()


class TestEmbedding:
    def test_output_shape(self, cfg):
        params = fresh_params(cfg)
        ids = token_ids(["a", "b", "c"], cfg.hash_vocab_size)
        x = embed_tokens_forward(params, cfg, ids)
        assert x.shape == (3, cfg.hidden_dim)

    def test_same_token_two_positions(self, cfg):
        params = fresh_params(cfg)
        ids = token_ids(["dog", "saw", "dog"], cfg.hash_vocab_size)
        x = embed_tokens_forward(params, cfg, ids)
        lex = params.value("embed.token")[token_id("dog", cfg.hash_vocab_size)]
        pos = params.value("embed.pos")
        np.testing.assert_allclose(x[0] - pos[0], lex)
        np.testing.assert_allclose(x[2] - pos[2], lex)
        assert not np.allclose(x[0], x[2])

    def test_seed_changes_tables(self, cfg):
        a = fresh_params(cfg, seed=1).value("embed.token")
        b = fresh_params(cfg, seed=2).value("embed.token")
        assert not np.allclose(a, b)

    def test_hashing_deterministic(self, cfg):
        assert token_id("hello", 4096) == token_id("hello", 4096)

    def test_too_long_segment(self, cfg):
        params = fresh_params(cfg)
        with pytest.raises(NumericError, match="max_position"):
            embed_tokens_forward(params, cfg, token_ids(["t"] * (cfg.max_position + 1), cfg.hash_vocab_size))

    def test_empty_segment(self, cfg):
        with pytest.raises(NumericError, match="empty"):
            embed_tokens_forward(fresh_params(cfg), cfg, token_ids([], cfg.hash_vocab_size))


class TestEncode:
    def test_shape_preserved(self, cfg):
        params = fresh_params(cfg)
        ids = token_ids(["a", "b", "c", "d", "e"], cfg.hash_vocab_size)
        x = embed_tokens_forward(params, cfg, ids)
        h, _ = encode_forward(params, cfg, x)
        assert h.shape == (5, cfg.hidden_dim)

    def test_deterministic(self, cfg):
        params = fresh_params(cfg)

        def encode():
            ids = token_ids(["x", "y"], cfg.hash_vocab_size)
            x = embed_tokens_forward(params, cfg, ids)
            return encode_forward(params, cfg, x)[0]

        np.testing.assert_array_equal(encode(), encode())

    def test_zero_weight_layer_is_input_plus_mixing(self):
        cfg = EncoderConfig(num_layers=1, hidden_dim=4, hash_vocab_size=16, max_position=8)
        params = fresh_params(cfg)
        params["enc.0.W"].value[...] = 0.0
        ids = token_ids(["a", "b", "c"], cfg.hash_vocab_size)
        x = embed_tokens_forward(params, cfg, ids)
        h, _ = encode_forward(params, cfg, x)
        gate = float(params.value("enc.0.gate")[0])
        # uniform window weights at init: mixing term is the windowed mean
        mix = np.zeros_like(x)
        for off in (-2, -1, 0, 1, 2):
            shifted = np.zeros_like(x)
            if off >= 0:
                shifted[: len(x) - off] = x[off:]
            else:
                shifted[-off:] = x[: len(x) + off]
            mix += shifted / 5.0
        np.testing.assert_allclose(h, x + gate * mix, atol=1e-12)

    def test_gradients_match_fd(self, cfg):
        params = fresh_params(cfg, seed=5)
        tokens = ["a", "b", "c", "d"]
        rng = np.random.default_rng(0)
        target = rng.normal(size=(4, cfg.hidden_dim))

        def loss(backward):
            ids = token_ids(tokens, cfg.hash_vocab_size)
            x = embed_tokens_forward(params, cfg, ids)
            h, caches = encode_forward(params, cfg, x)
            value = float(np.sum(h * target))
            if backward:
                dx = encode_backward(params, target.copy(), caches)
                embed_tokens_backward(params, dx, ids)
            return value

        assert grad_check(loss, params, eps=1e-6, max_scalars=300, seed=1) < 1e-6


class TestWindowMixMatchesShiftReference:
    """The window mix over one zero-padded buffer against one shifted copy per
    offset, bit for bit, including segments shorter than the +/-2 window."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_forward_and_backward_bit_identical(self, cfg, n):
        params = fresh_params(cfg, seed=n)
        rng = np.random.default_rng(n)
        for i in range(cfg.num_layers):  # uneven mix weights, and gates of both signs
            params[f"enc.{i}.mix"].value[...] = rng.normal(size=5)
            params[f"enc.{i}.gate"].value[...] = [0.7, -1.3, 2.0][i]
        ref = params.copy()
        x = rng.normal(size=(n, cfg.hidden_dim))
        dh = rng.normal(size=(n, cfg.hidden_dim))
        h, caches = encode_forward(params, cfg, x)
        h_ref, caches_ref = reference_encode_forward(ref, cfg, x)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(encode_backward(params, dh.copy(), caches),
                              reference_encode_backward(ref, dh.copy(), caches_ref))
        assert np.array_equal(params.flat_grads(), ref.flat_grads())
        assert params.flat_grads().any()


class TestFreezing:
    def test_mask_zero_freezes_everything(self, cfg):
        params = fresh_params(cfg)
        apply_freeze(params, cfg, 0)
        assert all(encoder_flags(params))

    def test_mask_full_frees_everything(self, cfg):
        params = fresh_params(cfg)
        apply_freeze(params, cfg, cfg.num_layers)
        assert not any(encoder_flags(params))

    def test_default_mask_frees_everything(self, cfg):
        params = fresh_params(cfg)
        apply_freeze(params, cfg, None)
        assert not any(encoder_flags(params))

    def test_partial_mask_layers(self, cfg):
        params = fresh_params(cfg)
        apply_freeze(params, cfg, 1)
        assert params["enc.0.W"].frozen and params["enc.1.W"].frozen
        assert not params["enc.2.W"].frozen
        assert params["embed.token"].frozen  # embeddings frozen unless k == L

    def test_out_of_range_mask(self, cfg):
        with pytest.raises(ValueError, match="outside"):
            apply_freeze(fresh_params(cfg), cfg, cfg.num_layers + 1)

    def test_trainable_count_strictly_increases(self, cfg):
        params = fresh_params(cfg)
        counts = []
        for k in range(cfg.num_layers + 1):
            apply_freeze(params, cfg, k)
            counts.append(sum(p.value.size for _, p in params.items() if not p.frozen))
        assert counts == sorted(counts) and len(set(counts)) == len(counts)

    def test_only_top_layers_change_after_step(self, cfg):
        params = fresh_params(cfg, seed=3)
        apply_freeze(params, cfg, 1)
        before = {n: params.value(n).copy() for n in params.names()}
        tokens = ["a", "b", "c"]
        target = np.ones((3, cfg.hidden_dim))

        ids = token_ids(tokens, cfg.hash_vocab_size)
        x = embed_tokens_forward(params, cfg, ids)
        h, caches = encode_forward(params, cfg, x)
        dx = encode_backward(params, target, caches)
        embed_tokens_backward(params, dx, ids)
        AdamOptimizer(params, TrainConfig()).step(params)

        changed = {n for n in params.names() if not np.array_equal(params.value(n), before[n])}
        top = {"enc.2.W", "enc.2.b", "enc.2.mix", "enc.2.gate"}
        assert changed == top
