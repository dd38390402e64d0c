"""Attention pooling contracts: shapes, structure, degenerate anchors."""

import math

import numpy as np
import pytest

from scenekit.attention import (
    STREAM_PREFIXES,
    AttentionConfig,
    attention_pool,
    global_pool,
    multihead_attention,
    param_shapes,
)
from scenekit.gradcheck import finite_difference_check
from scenekit.head import l2_penalty
from scenekit.params import ModelParams
from scenekit.tensor import NumericError, Tensor, add, backward, mul, scale


def make_params(cfg: AttentionConfig, channels: int, seed: int,
                scale: float = 0.3) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams()
    for name, shape in param_shapes(cfg, channels):
        params.add(name, rng.standard_normal(shape) * scale)
    return params


def reference_attention(x: np.ndarray, p: dict, heads: int, dim: int, g: np.ndarray):
    """Head-by-head forward and VJP with 2-D products, one example at a time.

    Returns the output, the input gradient and the parameter gradients
    (keyed "wq", "bq", ...) for the upstream gradient ``g``.
    """
    out = np.empty_like(x)
    gx = np.zeros_like(x)
    grads = {name: np.zeros_like(value) for name, value in p.items()}
    for n in range(x.shape[0]):
        xn, gn = x[n], g[n]
        proj = {kind: xn @ p["w" + kind] + p["b" + kind] for kind in "qkv"}
        ctx = np.zeros_like(proj["v"])
        attn = []
        for h in range(heads):
            cols = slice(h * dim, (h + 1) * dim)
            s = proj["q"][:, cols] @ proj["k"][:, cols].T / math.sqrt(dim)
            a = np.exp(s - s.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            ctx[:, cols] = a @ proj["v"][:, cols]
            attn.append(a)
        out[n] = ctx @ p["wo"] + p["bo"]
        grads["wo"] += ctx.T @ gn
        grads["bo"] += gn.sum(axis=0)
        g_ctx = gn @ p["wo"].T
        g_proj = {kind: np.zeros_like(ctx) for kind in "qkv"}
        for h, a in enumerate(attn):
            cols = slice(h * dim, (h + 1) * dim)
            g_a = g_ctx[:, cols] @ proj["v"][:, cols].T
            g_s = a * (g_a - (g_a * a).sum(axis=1, keepdims=True)) / math.sqrt(dim)
            g_proj["q"][:, cols] = g_s @ proj["k"][:, cols]
            g_proj["k"][:, cols] = g_s.T @ proj["q"][:, cols]
            g_proj["v"][:, cols] = a.T @ g_ctx[:, cols]
        for kind, gm in g_proj.items():
            grads["w" + kind] += xn.T @ gm
            grads["b" + kind] += gm.sum(axis=0)
            gx[n] += gm @ p["w" + kind].T
    return out, gx, grads


class TestMultiheadAttention:
    def test_single_position_weight_is_one(self):
        cfg = AttentionConfig(num_heads=2, key_dim=3)
        params = make_params(cfg, channels=4, seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 4)))
        out, weights = multihead_attention(x, cfg, params, "attn.w", return_weights=True)
        assert np.array_equal(weights.data, np.ones((2, 2, 1, 1)))
        # With one key the output is exactly the value path through the
        # output projection.
        v = x.data @ params["attn.w.wv"].data + params["attn.w.bv"].data
        expected = v @ params["attn.w.wo"].data + params["attn.w.bo"].data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_output_shape_retained(self):
        cfg = AttentionConfig(num_heads=4, key_dim=8)
        params = make_params(cfg, channels=6, seed=2)
        x = Tensor(np.random.default_rng(3).standard_normal((3, 5, 6)))
        assert multihead_attention(x, cfg, params, "attn.h").shape == (3, 5, 6)

    def test_permutation_equivariance(self):
        cfg = AttentionConfig(num_heads=2, key_dim=4)
        params = make_params(cfg, channels=5, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 5))
        perm = rng.permutation(6)
        out = multihead_attention(Tensor(x), cfg, params, "attn.w").data
        out_perm = multihead_attention(Tensor(x[:, perm]), cfg, params, "attn.w").data
        assert np.abs(out[:, perm] - out_perm).max() < 1e-12

    def test_attention_rows_sum_to_one(self):
        cfg = AttentionConfig(num_heads=3, key_dim=4)
        params = make_params(cfg, channels=4, seed=6)
        x = Tensor(np.random.default_rng(7).standard_normal((2, 7, 4)))
        _, weights = multihead_attention(x, cfg, params, "attn.w", return_weights=True)
        sums = weights.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_non_finite_input_raises_numeric_error(self):
        cfg = AttentionConfig(num_heads=2, key_dim=3)
        params = make_params(cfg, channels=4, seed=21)
        x = np.random.default_rng(22).standard_normal((2, 3, 4))
        x[1, 2, 0] = np.inf
        with pytest.raises(NumericError):
            multihead_attention(Tensor(x), cfg, params, "attn.w")

    # (B, L, C, heads, key_dim): heads * key_dim != C, then L = 1, then B = 1.
    @pytest.mark.parametrize("b, length, c, heads, dim",
                             [(2, 5, 6, 3, 4), (3, 1, 4, 2, 3), (1, 4, 5, 2, 2)])
    def test_matches_head_by_head_reference(self, b, length, c, heads, dim):
        cfg = AttentionConfig(num_heads=heads, key_dim=dim)
        params = make_params(cfg, channels=c, seed=23)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((b, length, c))
        g = rng.standard_normal((b, length, c))
        seq = Tensor(x, requires_grad=True)
        out, weights = multihead_attention(seq, cfg, params, "attn.w", return_weights=True)
        backward(mul(out, Tensor(g)).sum())
        p = {name[len("attn.w."):]: t.data for name, t in params.items()
             if name.startswith("attn.w.")}
        ref_out, ref_gx, ref_grads = reference_attention(x, p, heads, dim, g)

        def close(a, ref):  # zero with L = 1, where the scores get no gradient
            return np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()

        assert close(out.data, ref_out)
        assert close(seq.grad, ref_gx)
        for kind, ref in ref_grads.items():
            fused = params[f"attn.w.{kind}"].grad
            if kind == "bk":
                # Exactly zero in the fused op; rounding noise in the loop.
                assert not fused.any()
                assert np.abs(ref).max() <= 1e-12 * np.abs(ref_grads["wk"]).max()
            else:
                assert close(fused, ref), kind
        assert np.abs(weights.data.sum(axis=-1) - 1.0).max() < 1e-12

    def test_identity_projection_degenerates_to_input(self):
        # heads=1, key_dim=C, identity V/O projections, single position.
        c = 4
        cfg = AttentionConfig(num_heads=1, key_dim=c)
        params = ModelParams()
        for name, shape in param_shapes(cfg, c):
            if name.endswith((".wq", ".wk", ".wv", ".wo")):
                params.add(name, np.eye(c))
            else:
                params.add(name, np.zeros(shape))
        x = np.random.default_rng(8).standard_normal((3, 1, c))
        out = multihead_attention(Tensor(x), cfg, params, "attn.w").data
        assert np.abs(out - x).max() < 1e-12


class TestAttentionPool:
    def test_channel_concat_shape(self):
        cfg = AttentionConfig(num_heads=2, key_dim=4)
        params = make_params(cfg, channels=8, seed=9)
        fmap = Tensor(np.random.default_rng(10).standard_normal((2, 4, 4, 8)))
        assert attention_pool(fmap, cfg, params).shape == (2, 16)

    def test_output_width_is_2c_for_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = int(rng.integers(1, 4))
            w = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            c = int(rng.integers(2, 10))
            heads = int(rng.integers(1, 4))
            key_dim = int(rng.integers(1, 6))
            mode = ("average", "max")[int(rng.integers(2))]
            cfg = AttentionConfig(num_heads=heads, key_dim=key_dim, stream_pool_mode=mode)
            params = make_params(cfg, channels=c, seed=int(rng.integers(1 << 30)))
            fmap = Tensor(rng.standard_normal((b, w, h, c)))
            assert attention_pool(fmap, cfg, params).shape == (b, 2 * c)

    def test_streams_have_independent_parameters(self):
        cfg = AttentionConfig(num_heads=2, key_dim=4)
        c = 6
        params = make_params(cfg, channels=c, seed=14)
        fmap = Tensor(np.random.default_rng(15).standard_normal((2, 3, 5, c)))
        before = attention_pool(fmap, cfg, params).data.copy()
        for name, t in params.items():
            if name.startswith("attn.h."):
                t.data[...] = 0.0
        after = attention_pool(fmap, cfg, params).data
        assert np.array_equal(before[:, :c], after[:, :c])
        assert not np.array_equal(before[:, c:], after[:, c:])

    def test_degenerate_1x1_spatial_input(self):
        cfg = AttentionConfig(num_heads=2, key_dim=3, stream_pool_mode="average")
        c = 5
        params = make_params(cfg, channels=c, seed=16)
        fmap = np.random.default_rng(17).standard_normal((2, 1, 1, c))
        out = attention_pool(Tensor(fmap), cfg, params).data
        seq = Tensor(fmap[:, 0, :, :])  # [B, 1, C], identical for both streams
        w_out = multihead_attention(seq, cfg, params, "attn.w").data[:, 0, :]
        h_out = multihead_attention(seq, cfg, params, "attn.h").data[:, 0, :]
        assert np.abs(out - np.concatenate([w_out, h_out], axis=1)).max() < 1e-12

    @pytest.mark.parametrize("mode", ["average", "max"])
    def test_gradients_match_finite_differences(self, mode):
        cfg = AttentionConfig(num_heads=2, key_dim=3, stream_pool_mode=mode)
        c = 4
        rng = np.random.default_rng(18)
        params = ModelParams()
        for name, shape in param_shapes(cfg, c):
            params.add(name, rng.standard_normal(shape) * 0.4)
        fmap = params.add("fmap", rng.standard_normal((2, 3, 4, c)))
        weights = Tensor(rng.standard_normal((2, 2 * c)))

        def loss_fn():
            return mul(attention_pool(fmap, cfg, params), weights).sum()

        result = finite_difference_check(loss_fn, params, n_probes=60, rng=rng)
        assert result.max_rel_error < 1e-4, result.worst()

    def test_key_bias_gradient_is_exactly_zero(self):
        # Softmax ignores the per-row shift q_i·bk a key bias adds to the
        # scores, so only the L2 term reaches bk, and exactly.
        cfg = AttentionConfig(num_heads=2, key_dim=3)
        c, lam = 4, 0.3
        params = make_params(cfg, channels=c, seed=25)
        rng = np.random.default_rng(26)
        fmap = Tensor(rng.standard_normal((2, 3, 4, c)), requires_grad=True)
        weights = Tensor(rng.standard_normal((2, 2 * c)))
        backward(mul(attention_pool(fmap, cfg, params), weights).sum())
        for prefix in STREAM_PREFIXES:
            assert not params[f"{prefix}.bk"].grad.any()
            assert params[f"{prefix}.bq"].grad.any()
        params.zero_grads()
        loss = mul(attention_pool(fmap, cfg, params), weights).sum()
        backward(add(loss, scale(l2_penalty(params), lam / 2.0)))
        for prefix in STREAM_PREFIXES:
            bk = params[f"{prefix}.bk"]
            assert np.array_equal(bk.grad, lam * bk.data)


class TestGlobalPool:
    def test_constant_map(self):
        fmap = Tensor(np.full((2, 3, 4, 5), 2.5))
        for mode in ("average", "max"):
            out = global_pool(fmap, mode).data
            assert np.array_equal(out, np.full((2, 5), 2.5))

    def test_single_pixel_identity(self):
        x = np.random.default_rng(19).standard_normal((2, 1, 1, 6))
        out = global_pool(Tensor(x), "average").data
        assert np.array_equal(out, x[:, 0, 0, :])

    def test_average_matches_naive_reduction(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 4, 5))
        out = global_pool(Tensor(x), "average").data
        naive = np.zeros((2, 5))
        for n in range(2):
            for c in range(5):
                total = 0.0
                for i in range(3):
                    for j in range(4):
                        total += x[n, i, j, c]
                naive[n, c] = total / 12.0
        assert np.abs(out - naive).max() < 1e-12
