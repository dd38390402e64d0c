"""ModelParams: one flat buffer for the values and one for the gradients."""

import numpy as np

from scenekit.params import ModelParams

SHAPES = {"a": (3, 4), "b": (5,), "c": (2, 1, 3), "d": (1,)}


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    params = ModelParams()
    for name, shape in SHAPES.items():
        params.add(name, rng.standard_normal(shape))
    return params


def assert_packed(params):
    data, grad = params.flat()
    assert data.size == grad.size == sum(t.data.size for _, t in params.items())
    for _, t in params.items():
        assert np.shares_memory(t.data, data)
        assert np.shares_memory(t.grad, grad)
    assert np.array_equal(data, np.concatenate([t.data.ravel() for _, t in params.items()]))


def test_pack_keeps_values_and_grads_set_before_it():
    params = make_params()
    before = {n: t.data.copy() for n, t in params.items()}
    params["b"].grad[...] = 7.0
    assert_packed(params)
    for n, t in params.items():
        assert np.array_equal(t.data, before[n])
    assert np.array_equal(params["b"].grad, np.full(5, 7.0))
    assert not params["a"].grad.any()


def test_add_after_pack_repacks_everything():
    params = make_params()
    params.flat()
    params["a"].data[0, 0] = 42.0
    params["c"].grad[...] = 3.0
    late = params.add("late", np.arange(4.0))
    assert params["late"] is late
    assert_packed(params)
    assert params["a"].data[0, 0] == 42.0
    assert np.array_equal(params["c"].grad, np.full((2, 1, 3), 3.0))
    assert np.array_equal(late.data, np.arange(4.0))


def test_writes_through_a_view_reach_the_buffer():
    params = make_params()
    data, grad = params.flat()
    params["b"].data -= 1.0
    params["d"].grad[...] = 5.0
    assert data[12:17].tolist() == params["b"].data.tolist()
    assert grad[-1] == 5.0
    params.zero_grads()
    assert not grad.any()


def test_copy_is_packed_and_independent():
    params = make_params()
    params.flat()
    params["a"].grad[...] = 1.0
    clone = params.copy()
    assert_packed(clone)
    src_data, src_grad = params.flat()
    for (n, t), (_, u) in zip(params.items(), clone.items()):
        assert np.array_equal(t.data, u.data)
        assert not np.shares_memory(u.data, src_data)
        assert not np.shares_memory(u.grad, src_grad)
        assert not u.grad.any()
    clone["a"].data[...] = 0.0
    clone.flat()[1][...] = 9.0
    assert params["a"].data.any()
    assert not params["b"].grad.any()


def test_copy_of_unpacked_params_does_not_alias_them():
    params = make_params()
    clone = params.copy()
    clone["b"].data[...] = 0.0
    assert params["b"].data.any()


def test_views_follow_insertion_order_and_shapes():
    params = make_params()
    views = params.views(np.arange(float(params.flat()[0].size)))
    assert [v.shape for v in views] == list(SHAPES.values())
    assert views[1].tolist() == [12.0, 13.0, 14.0, 15.0, 16.0]
