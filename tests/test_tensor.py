"""Tensor operation contracts: forward values, backward rules, serialization.

Expected values marked as oracle-derived were computed with the
independent reference implementations in this file (triple-loop matmul,
finite differences), never with the operations under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.gradcheck import finite_difference_check
from scenekit.params import ModelParams
from scenekit.tensor import (
    AutodiffError,
    NumericError,
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    from_op,
    matmul,
    mul,
    no_grad,
    pool_axis,
    relu,
    scale,
    softmax_last,
    tensor_from_bytes,
    tensor_to_bytes,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop, independent of the production path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestTensorBasics:
    def test_data_length_matches_shape(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert t.data.size == 2 * 3 * 4
        assert t.data.flags["C_CONTIGUOUS"]

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))

    def test_rank_above_four_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_float64_everywhere(self):
        assert Tensor(np.float32(1.5)).data.dtype == np.float64


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(eye, b).data, b.data)

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(out - matmul_oracle(a, b)).max() < 1e-12

    def test_random_sizes_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, k, n = rng.integers(1, 17, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            out = matmul(Tensor(a), Tensor(b)).data
            assert np.abs(out - matmul_oracle(a, b)).max() < 1e-12

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 6))
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            for j in range(3):
                assert np.abs(out[i, j] - matmul_oracle(a[i, j], b[i, j])).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_batch_extent_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    @pytest.mark.parametrize("lead", [(1,), (5,), (7,), (2, 3), (3, 1), (4, 6)])
    def test_shared_weight_gradients_match_batched_sum(self, lead):
        """A rank-2 weight's gradients equal the per-example products, summed."""
        rng = np.random.default_rng(sum(lead) * 31 + len(lead))
        for _ in range(3):
            m, k, n = (int(e) for e in rng.integers(1, 13, size=3))
            a = Tensor(rng.standard_normal((*lead, m, k)), requires_grad=True)
            b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
            g = rng.standard_normal((*lead, m, n))
            ga, gb = matmul(a, b).node.vjp(g)
            axes = tuple(range(len(lead)))
            want_b = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=axes)
            want_a = g @ b.data.T
            assert ga.shape == a.shape and gb.shape == b.shape
            assert np.abs(gb - want_b).max() <= 1e-12 * np.abs(want_b).max()
            assert np.abs(ga - want_a).max() <= 1e-12 * np.abs(want_a).max()


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_last(Tensor([0.0, 0.0])).data
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_analytic_two_thirds(self):
        out = softmax_last(Tensor([math.log(2.0), 0.0])).data
        assert abs(out[0] - 2.0 / 3.0) < 1e-12
        assert abs(out[1] - 1.0 / 3.0) < 1e-12

    def test_large_inputs_do_not_overflow(self):
        out = softmax_last(Tensor([1000.0, 0.0])).data
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            softmax_last(Tensor([np.inf, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_lie_in_unit_interval(self, values):
        out = softmax_last(Tensor(values)).data
        assert abs(out.sum() - 1.0) < 1e-12
        assert (out > 0.0).all() and (out < 1.0 + 1e-15).all()


class TestPoolAxis:
    def test_max_over_axis0(self):
        out = pool_axis(Tensor([[1.0, 3.0], [2.0, 4.0]]), 0, "max")
        assert np.array_equal(out.data, [2.0, 4.0])

    def test_average_over_axis0(self):
        out = pool_axis(Tensor([[1.0, 3.0], [2.0, 4.0]]), 0, "average")
        assert np.array_equal(out.data, [1.5, 3.5])

    def test_constant_idempotence(self):
        const = Tensor(np.full((3, 4), 7.25))
        for mode in ("average", "max"):
            assert np.array_equal(pool_axis(const, 0, mode).data, np.full(4, 7.25))

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            pool_axis(Tensor(np.zeros((2, 2))), 5, "max")

    def test_rank_drops_by_one(self):
        out = pool_axis(Tensor(np.zeros((2, 3, 4))), 1, "average")
        assert out.shape == (2, 4)


class TestConcatSplit:
    def test_shape_arithmetic(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((2, 3)))
        assert concat([a, b], axis=1).shape == (2, 6)

    def test_single_input_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(concat([a], axis=0).data, a.data)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 5, 4))
        joined = concat([Tensor(a), Tensor(b)], axis=1).data
        assert joined[:, :3].tobytes() == a.tobytes()
        assert joined[:, 3:].tobytes() == b.tobytes()

    def test_off_axis_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, n1, n2, axis):
        rng = np.random.default_rng(n1 * 7 + n2)
        shape1 = [3, 3]
        shape2 = [3, 3]
        shape1[axis] = n1
        shape2[axis] = n2
        a = rng.standard_normal(shape1)
        b = rng.standard_normal(shape2)
        joined = concat([Tensor(a), Tensor(b)], axis=axis).data
        pa, pb = np.split(joined, [n1], axis=axis)
        assert np.array_equal(pa, a)
        assert np.array_equal(pb, b)


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(p.sum())
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_grad_of_sum_of_squares(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        backward(mul(p, p).sum())
        assert np.allclose(p.grad, [2.0, 4.0], atol=1e-15)

    def test_gradients_accumulate_across_uses(self):
        p = Tensor([3.0], requires_grad=True)
        backward(add(p, p).sum())  # d/dp (p + p) = 2
        assert p.grad[0] == 2.0

    def test_gradients_accumulate_across_backward_calls(self):
        p = Tensor([1.0], requires_grad=True)
        backward(p.sum())
        backward(p.sum())
        assert p.grad[0] == 2.0

    def test_backward_consumes_the_graph(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        square = mul(p, p)
        loss = square.sum()
        backward(loss)
        assert loss.node is None and square.node is None
        assert np.array_equal(p.grad, [2.0, 4.0])
        with pytest.raises(AutodiffError):
            backward(loss)

    def test_untracked_tensor_rejected(self):
        with pytest.raises(AutodiffError):
            backward(Tensor([1.0]).sum())

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(add(p, p))

    def test_no_grad_suppresses_tracking(self):
        p = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = add(p, p).sum()
        assert out.node is None

    def test_grad_shape_matches_parameter_shape(self):
        p = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        backward(relu(p).sum())
        assert p.grad.shape == (2, 3, 4)

    def test_three_uses_through_views_get_three_gradients(self):
        # add hands g itself to both inputs and the view op a view of it,
        # so accumulating in place would scale the shared array.
        def view(x, shape):
            return from_op("view", (x,), x.data.reshape(shape),
                           lambda g: (g.reshape(x.shape),))

        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = np.random.default_rng(4).standard_normal((2, 3))
        viewed = view(view(p, (3, 2)), (2, 3))
        assert np.shares_memory(viewed.data, p.data)
        twice = add(p, viewed)
        backward(mul(add(twice, p), Tensor(w)).sum())
        assert np.array_equal(p.grad, 3.0 * w)

    def test_vjp_upstream_gradient_is_left_unchanged(self):
        seen = []

        def vjp(g):
            seen.append((g, g.copy()))
            return g, g

        p = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        out = from_op("pair", (p, p), p.data * 2.0, vjp)
        backward(mul(out, Tensor([3.0, 4.0, 5.0])).sum())
        (g, before), = seen
        assert np.array_equal(g, before)
        assert np.array_equal(p.grad, [6.0, 8.0, 10.0])


def _op_gradcheck(build, shapes, seed, n_probes=20):
    """Finite-difference check for a single op under random inputs."""
    rng = np.random.default_rng(seed)
    params = ModelParams()
    tensors = [params.add(f"x{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]
    weight_cache = {}

    def loss_fn():
        out = build(*tensors)
        if out.shape not in weight_cache:
            weight_cache[out.shape] = np.random.default_rng(seed + 1).standard_normal(out.shape)
        return mul(out, Tensor(weight_cache[out.shape])).sum()

    result = finite_difference_check(loss_fn, params, n_probes=n_probes, rng=rng)
    assert result.max_rel_error < 1e-6, result.worst()


class TestGradientRulesAgainstFiniteDifferences:
    def test_add_broadcast_bias(self):
        _op_gradcheck(lambda a, b: add(a, b), [(3, 4), (4,)], seed=10)

    def test_mul(self):
        _op_gradcheck(lambda a, b: mul(a, b), [(3, 4), (3, 4)], seed=11)

    def test_scale(self):
        _op_gradcheck(lambda a: scale(a, -2.5), [(3, 4)], seed=12)

    def test_relu(self):
        _op_gradcheck(lambda a: relu(a), [(4, 5)], seed=13)

    def test_matmul(self):
        _op_gradcheck(lambda a, b: matmul(a, b), [(3, 4), (4, 5)], seed=14)

    def test_matmul_batched(self):
        _op_gradcheck(lambda a, b: matmul(a, b), [(2, 3, 4), (2, 4, 5)], seed=15)

    def test_matmul_mixed_rank(self):
        _op_gradcheck(lambda a, b: matmul(a, b), [(2, 3, 4), (4, 5)], seed=16)

    def test_matmul_rank4_by_rank2(self):
        _op_gradcheck(lambda a, b: matmul(a, b), [(2, 3, 4, 5), (5, 3)], seed=23)

    def test_softmax_last(self):
        _op_gradcheck(lambda a: softmax_last(a), [(3, 5)], seed=17)

    def test_pool_average(self):
        _op_gradcheck(lambda a: pool_axis(a, 1, "average"), [(3, 4, 2)], seed=18)

    def test_pool_max_away_from_ties(self):
        _op_gradcheck(lambda a: pool_axis(a, 1, "max"), [(3, 4, 2)], seed=19)

    def test_concat(self):
        _op_gradcheck(lambda a, b: concat([a, b], axis=1), [(2, 3), (2, 4)], seed=20)


class TestMaxPoolTieBreak:
    def test_gradient_goes_to_first_maximal_element(self):
        p = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        backward(pool_axis(p, 1, "max").sum())
        assert np.array_equal(p.grad, [[1.0, 0.0, 0.0]])


class TestSerialization:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 3, 4), (2, 1, 3, 2)])
    def test_round_trip_bit_exact(self, shape):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal(shape)
        arr[(0,) * len(shape)] = -0.0  # sign of zero must survive
        blob = tensor_to_bytes(arr)
        out, consumed = tensor_from_bytes(blob)
        assert consumed == len(blob)
        assert out.tobytes() == arr.tobytes()
        assert out.shape == arr.shape

    def test_records_are_self_delimiting(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(4.0)
        blob = tensor_to_bytes(a) + tensor_to_bytes(b)
        first, offset = tensor_from_bytes(blob)
        second, end = tensor_from_bytes(blob, offset)
        assert end == len(blob)
        assert np.array_equal(first, a)
        assert np.array_equal(second, b)

    def test_truncation_detected(self):
        blob = tensor_to_bytes(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValueError, match="truncated"):
            tensor_from_bytes(blob[:-4])
