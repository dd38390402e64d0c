"""MLP head and KL+L2 loss: exact values, dropout contract, descent."""

import math

import numpy as np
import pytest

from scenekit.gradcheck import finite_difference_check
from scenekit.head import (
    HeadConfig,
    LossConfig,
    dropout_mask,
    kl_loss,
    l2_penalty,
    mlp_forward,
    param_shapes,
)
from scenekit.model import desk_model_config, init_params, model_forward
from scenekit.params import ModelParams
from scenekit.tensor import ShapeError, Tensor, add, backward, mul, scale


def make_head_params(cfg: HeadConfig, in_width: int, seed: int,
                     zero: bool = False, weight_scale: float = 0.3) -> ModelParams:
    rng = np.random.default_rng(seed)
    params = ModelParams()
    for name, shape in param_shapes(cfg, in_width):
        params.add(name, np.zeros(shape) if zero
                   else rng.standard_normal(shape) * weight_scale)
    return params


class TestMlpForward:
    def test_inference_is_deterministic(self):
        cfg = HeadConfig(hidden_width=16, num_classes=5)
        params = make_head_params(cfg, 8, seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((3, 8)))
        a = mlp_forward(x, params, cfg, training=False).data
        b = mlp_forward(x, params, cfg, training=False).data
        assert a.tobytes() == b.tobytes()

    def test_zero_parameters_give_uniform_distribution(self):
        cfg = HeadConfig(hidden_width=16, num_classes=4)
        params = make_head_params(cfg, 8, seed=0, zero=True)
        out = mlp_forward(Tensor(np.random.default_rng(2).standard_normal((3, 8))),
                          params, cfg, training=False).data
        assert np.abs(out - 0.25).max() < 1e-15

    def test_dropout_keep_statistics(self):
        # Monte-Carlo count over 10^5 units: the kept fraction must land
        # within 0.8 +/- 0.005, and kept units carry exactly 1/0.8.
        mask = dropout_mask((100_000,), 0.2, np.random.default_rng(4))
        kept = mask > 0
        assert abs(kept.mean() - 0.8) < 0.005
        assert np.array_equal(np.unique(mask), np.array([0.0, 1.0 / 0.8]))

    def test_dropout_zeroes_masked_units_in_training(self):
        cfg = HeadConfig(hidden_width=64, dropout_rate=0.5, num_classes=3)
        params = make_head_params(cfg, 4, seed=3)
        x = Tensor(np.random.default_rng(30).standard_normal((2, 4)))
        a = mlp_forward(x, params, cfg, training=True,
                        rng=np.random.default_rng(31)).data
        b = mlp_forward(x, params, cfg, training=True,
                        rng=np.random.default_rng(32)).data
        assert not np.array_equal(a, b)  # different masks, different outputs

    def test_inference_invariant_to_dropout_rate(self):
        x = Tensor(np.random.default_rng(5).standard_normal((4, 8)))
        outs = []
        for rate in (0.0, 0.2, 0.7):
            cfg = HeadConfig(hidden_width=16, dropout_rate=rate, num_classes=5)
            params = make_head_params(cfg, 8, seed=6)
            outs.append(mlp_forward(x, params, cfg, training=False).data)
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_training_mask_scaling_preserves_expectation(self):
        cfg = HeadConfig(hidden_width=50_000, dropout_rate=0.2, num_classes=2)
        params = make_head_params(cfg, 2, seed=7, zero=True)
        params["head.fc1.b"].data[...] = 1.0
        params["head.fc2.w"].data[...] = 1e-5
        x = Tensor(np.zeros((1, 2)))
        out = mlp_forward(x, params, cfg, training=True,
                          rng=np.random.default_rng(8)).data
        # Inverted dropout keeps the expected pre-softmax logit equal to
        # the deterministic path, so probabilities stay near uniform.
        assert np.abs(out - 0.5).max() < 0.01

    def test_width_mismatch_rejected(self):
        cfg = HeadConfig(hidden_width=16, num_classes=5)
        params = make_head_params(cfg, 8, seed=9)
        with pytest.raises(ShapeError, match="width"):
            mlp_forward(Tensor(np.zeros((2, 9))), params, cfg, training=False)

    def test_training_with_dropout_needs_rng(self):
        cfg = HeadConfig(hidden_width=16, dropout_rate=0.2, num_classes=5)
        params = make_head_params(cfg, 8, seed=10)
        with pytest.raises(ValueError, match="rng"):
            mlp_forward(Tensor(np.zeros((2, 8))), params, cfg, training=True)

    def test_rows_sum_to_one(self):
        cfg = HeadConfig(hidden_width=16, num_classes=7)
        params = make_head_params(cfg, 8, seed=11)
        out = mlp_forward(Tensor(np.random.default_rng(12).standard_normal((5, 8))),
                          params, cfg, training=False).data
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


class TestKlLoss:
    def test_identical_distributions_give_zero(self):
        probs = Tensor(np.array([[0.3, 0.7], [0.5, 0.5]]))
        out = kl_loss(probs, probs.data.copy(), ModelParams(), LossConfig(lam=0.0))
        assert abs(out.item()) < 1e-12

    def test_ln2_example(self):
        # One-hot target against the uniform pair: direct evaluation of
        # the divergence gives ln 2.
        probs = Tensor(np.array([[0.5, 0.5]]))
        targets = np.array([[1.0, 0.0]])
        out = kl_loss(probs, targets, ModelParams(), LossConfig(lam=0.0))
        assert abs(out.item() - math.log(2.0)) < 1e-9

    def test_l2_term_alone(self):
        params = ModelParams()
        params.add("w", np.array([2.0]))
        probs = Tensor(np.array([[0.5, 0.5]]))
        out = kl_loss(probs, probs.data.copy(), params, LossConfig(lam=1e-4))
        assert abs(out.item() - 2e-4) < 1e-18

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(c), size=4)
            targets = rng.dirichlet(np.ones(c), size=4)
            out = kl_loss(Tensor(probs), targets, ModelParams(), LossConfig(lam=0.0))
            assert out.item() >= -1e-12

    def test_soft_targets_with_zeros_are_finite(self):
        probs = Tensor(np.array([[0.25, 0.25, 0.5]]))
        targets = np.array([[0.0, 0.4, 0.6]])
        out = kl_loss(probs, targets, ModelParams(), LossConfig(lam=0.0))
        assert np.isfinite(out.item())

    def test_unnormalized_rows_rejected(self):
        probs = Tensor(np.array([[0.6, 0.6]]))
        with pytest.raises(ValueError, match="sum to 1"):
            kl_loss(probs, np.array([[1.0, 0.0]]), ModelParams(), LossConfig())
        with pytest.raises(ValueError, match="sum to 1"):
            kl_loss(Tensor(np.array([[0.5, 0.5]])), np.array([[0.9, 0.0]]),
                    ModelParams(), LossConfig())

    def test_gradient_matches_finite_differences(self):
        cfg = HeadConfig(hidden_width=12, dropout_rate=0.2, num_classes=4)
        params = make_head_params(cfg, 6, seed=14)
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((5, 6)))
        targets = rng.dirichlet(np.ones(4), size=5)
        loss_cfg = LossConfig(lam=1e-4)

        def loss_fn():
            probs = mlp_forward(x, params, cfg, training=False)
            return kl_loss(probs, targets, params, loss_cfg)

        result = finite_difference_check(loss_fn, params, n_probes=60, rng=rng)
        assert result.max_rel_error < 1e-4, result.worst()

    def test_loss_decreases_over_ten_full_batch_steps(self):
        cfg = HeadConfig(hidden_width=8, dropout_rate=0.0, num_classes=3)
        params = make_head_params(cfg, 4, seed=16)
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((8, 4)))
        targets = np.eye(3)[rng.integers(0, 3, size=8)]
        loss_cfg = LossConfig(lam=1e-4)
        losses = []
        for _ in range(11):
            params.zero_grads()
            loss = kl_loss(mlp_forward(x, params, cfg, training=False),
                           targets, params, loss_cfg)
            losses.append(loss.item())
            backward(loss)
            for _, p in params.items():
                p.data -= 0.05 * p.grad
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_target_probability_below_epsilon_keeps_its_gradient(self):
        # A one-unit head whose logits are [0, 60]: the softmax puts
        # 1 / (1 + e^60) ~ 8.8e-27 on the target class, far below the
        # 1e-12 clamp. The true KL is 60 + log(1 + e^-60) and the logit
        # gradient is (p0 - 1, 1 - p0); fc2.b receives exactly that.
        cfg = HeadConfig(hidden_width=1, dropout_rate=0.0, num_classes=2)
        params = make_head_params(cfg, 1, seed=0, zero=True)
        params["head.fc1.w"].data[...] = 1.0
        params["head.fc2.w"].data[...] = [[0.0, 60.0]]
        probs = mlp_forward(Tensor(np.ones((1, 1))), params, cfg, training=False)
        p0 = 1.0 / (1.0 + math.exp(60.0))
        assert abs(probs.data[0, 0] - p0) < 1e-40
        params.zero_grads()
        loss = kl_loss(probs, np.array([[1.0, 0.0]]), params, LossConfig(lam=0.0))
        assert abs(loss.item() - (60.0 + math.log1p(math.exp(-60.0)))) < 1e-9
        backward(loss)
        grad = params["head.fc2.b"].grad
        assert np.abs(grad - np.array([p0 - 1.0, 1.0 - p0])).max() < 1e-12

    def test_gradient_matches_finite_differences_when_saturated(self):
        cfg = HeadConfig(hidden_width=12, dropout_rate=0.0, num_classes=4)
        params = make_head_params(cfg, 6, seed=18, weight_scale=3.0)
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((8, 6)))
        targets = np.eye(4)[rng.integers(0, 4, size=8)]
        loss_cfg = LossConfig(lam=1e-4)
        probs = mlp_forward(x, params, cfg, training=False).data
        target_p = (probs * targets).sum(axis=1)
        assert (target_p < loss_cfg.epsilon).any()  # some rows saturated

        def loss_fn():
            return kl_loss(mlp_forward(x, params, cfg, training=False),
                           targets, params, loss_cfg)

        result = finite_difference_check(loss_fn, params, n_probes=60, rng=rng)
        assert result.max_rel_error < 1e-4, result.worst()


def graph_ops(root: Tensor) -> list[str]:
    """The op of every tape node reachable from ``root``."""
    ops, seen, stack = [], {id(root)}, [root]
    while stack:
        t = stack.pop()
        if t.node is None:
            continue
        ops.append(t.node.op)
        for inp in t.node.inputs:
            if id(inp) not in seen:
                seen.add(id(inp))
                stack.append(inp)
    return ops


class TestL2Penalty:
    def _params(self, seed=20):
        return make_head_params(HeadConfig(hidden_width=7, num_classes=3), 5, seed=seed)

    def test_one_node_bitwise_equal_to_mul_sum_reference(self):
        params, ref_params = self._params(), self._params()
        c = 0.37 / 2.0
        fused = scale(l2_penalty(params), c)
        assert graph_ops(fused) == ["scale", "l2"]
        total = None
        for _, p in ref_params.items():
            term = mul(p, p).sum()
            total = term if total is None else add(total, term)
        reference = scale(total, c)
        assert fused.data.tobytes() == reference.data.tobytes()
        params.zero_grads()
        ref_params.zero_grads()
        backward(fused)
        backward(reference)
        for (_, p), (_, q) in zip(params.items(), ref_params.items()):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_empty_params_give_untracked_zero(self):
        out = l2_penalty(ModelParams())
        assert out.item() == 0.0 and not out.tracked()

    def test_gradient_matches_finite_differences_when_l2_dominates(self):
        cfg = HeadConfig(hidden_width=6, dropout_rate=0.0, num_classes=3)
        params = make_head_params(cfg, 4, seed=22)
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((4, 4)))
        targets = rng.dirichlet(np.ones(3), size=4)
        loss_cfg = LossConfig(lam=2.0)

        def loss_fn():
            return kl_loss(mlp_forward(x, params, cfg, training=False),
                           targets, params, loss_cfg)

        result = finite_difference_check(loss_fn, params, n_probes=40, rng=rng)
        assert result.max_rel_error < 1e-4, result.worst()

    def test_desk_step_records_no_l2_mul_or_sum_nodes(self):
        cfg = desk_model_config(num_classes=4)
        params = init_params(cfg, "direct", rng=np.random.default_rng(24))
        rng = np.random.default_rng(25)
        images = Tensor(rng.random((6, 12, 12, 3)))
        targets = np.eye(4)[rng.integers(0, 4, size=6)]
        counts = {}
        for lam in (0.0, 1e-4):
            probs = model_forward(images, params, cfg, training=True,
                                  rng=np.random.default_rng(26))
            ops = graph_ops(kl_loss(probs, targets, params, LossConfig(lam=lam)))
            counts[lam] = {op: ops.count(op) for op in ("mul", "sum", "l2", "scale", "add")}
        without, with_l2 = counts[0.0], counts[1e-4]
        assert with_l2["mul"] == without["mul"] and with_l2["sum"] == without["sum"]
        assert with_l2["l2"] == 1 and without["l2"] == 0
        assert with_l2["add"] == without["add"] + 1
