"""Convolution and backbone contracts, checked against a naive oracle."""

import numpy as np
import pytest

from scenekit.backbone import BackboneConfig, ConvStage, backbone_forward, conv2d, param_shapes
from scenekit.gradcheck import finite_difference_check
from scenekit.model import desk_model_config, init_params
from scenekit.params import ModelParams
from scenekit.tensor import ShapeError, Tensor, mul


def conv_oracle(x: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """Six nested loops, nothing shared with the production kernel."""
    b, w, h, c_in = x.shape
    k = kernel.shape[0]
    c_out = kernel.shape[3]
    w_out = (w - k) // stride + 1
    h_out = (h - k) // stride + 1
    out = np.zeros((b, w_out, h_out, c_out))
    for n in range(b):
        for i in range(w_out):
            for j in range(h_out):
                for di in range(k):
                    for dj in range(k):
                        for ci in range(c_in):
                            out[n, i, j, :] += (
                                x[n, i * stride + di, j * stride + dj, ci]
                                * kernel[di, dj, ci, :])
    return out


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.arange(12.0).reshape(1, 2, 2, 3)
        kernel = np.zeros((1, 1, 3, 3))
        for c in range(3):
            kernel[0, 0, c, c] = 1.0
        out = conv2d(Tensor(x), Tensor(kernel), stride=1)
        assert np.array_equal(out.data, x)

    def test_all_ones_kernel_sums_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        kernel = np.ones((2, 2, 1, 1))
        out = conv2d(Tensor(x), Tensor(kernel), stride=1)
        assert out.shape == (1, 1, 1, 1)
        assert out.data.reshape(()) == 10.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_random_against_six_loop_oracle(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((2, 6, 5, 3))
        kernel = rng.standard_normal((2, 2, 3, 4))
        out = conv2d(Tensor(x), Tensor(kernel), stride=stride).data
        assert np.abs(out - conv_oracle(x, kernel, stride)).max() < 1e-12

    def test_output_extent_formula(self):
        x = Tensor(np.zeros((1, 7, 7, 1)))
        kernel = Tensor(np.zeros((3, 3, 1, 2)))
        assert conv2d(x, kernel, stride=2).shape == (1, 3, 3, 2)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError, match="larger"):
            conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((3, 3, 1, 1))), 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((2, 2, 3, 1))), 1)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_finite_differences(self, stride):
        rng = np.random.default_rng(17 + stride)
        params = ModelParams()
        x = params.add("x", rng.standard_normal((2, 5, 5, 2)))
        kernel = params.add("k", rng.standard_normal((2, 2, 2, 3)))
        weights = Tensor(rng.standard_normal((2, 2, 2, 3)) if stride == 2
                         else rng.standard_normal((2, 4, 4, 3)))

        def loss_fn():
            return mul(conv2d(x, kernel, stride), weights).sum()

        result = finite_difference_check(loss_fn, params, n_probes=30, rng=rng)
        assert result.max_rel_error < 1e-6, result.worst()


class TestBackboneForward:
    def test_desk_config_shape_on_32px(self):
        cfg = BackboneConfig()  # three 2x2 stride-2 stages, 32 channels out
        rng = np.random.default_rng(0)
        params = ModelParams()
        for name, shape in param_shapes(cfg):
            params.add(name, rng.standard_normal(shape) * 0.1)
        out = backbone_forward(Tensor(rng.random((2, 32, 32, 3))), params, cfg)
        assert out.shape == (2, 4, 4, 32)
        assert cfg.spatial_output(32) == 4

    def test_zero_input_zero_bias_gives_zero_map(self):
        cfg = BackboneConfig(stages=(ConvStage(4, 2, 2),))
        rng = np.random.default_rng(1)
        params = ModelParams()
        params.add("backbone.s0.kernel", rng.standard_normal((2, 2, 3, 4)))
        params.add("backbone.s0.bias", np.zeros(4))
        out = backbone_forward(Tensor(np.zeros((2, 8, 8, 3))), params, cfg)
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_identical_images_give_identical_slices(self):
        cfg = BackboneConfig(stages=(ConvStage(4, 2, 2), ConvStage(6, 2, 2)))
        rng = np.random.default_rng(2)
        params = ModelParams()
        for name, shape in param_shapes(cfg):
            params.add(name, rng.standard_normal(shape) * 0.3)
        img = rng.random((8, 8, 3))
        batch = np.stack([img, img, img])
        out = backbone_forward(Tensor(batch), params, cfg).data
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], out[2])

    def test_incompatible_input_size_rejected(self):
        cfg = BackboneConfig()
        params = ModelParams()
        for name, shape in param_shapes(cfg):
            params.add(name, np.zeros(shape))
        with pytest.raises(ShapeError):
            backbone_forward(Tensor(np.zeros((1, 3, 3, 3))), params, cfg)

    def test_non_square_input_rejected(self):
        cfg = BackboneConfig()
        params = ModelParams()
        with pytest.raises(ShapeError, match="square"):
            backbone_forward(Tensor(np.zeros((1, 8, 6, 3))), params, cfg)


class TestInitParams:
    def test_direct_init_statistics(self):
        # Enough parameters that the sample mean and variance are tight.
        cfg = desk_model_config(num_classes=45, hidden_width=1024)
        params = init_params(cfg, "direct", rng=np.random.default_rng(123))
        values = np.concatenate([t.data.reshape(-1) for t in params.tensors()])
        assert values.size >= 100_000
        assert abs(values.mean()) < 0.01
        assert abs(values.var() - 0.1) < 0.01

    def test_transfer_copies_backbone_bit_exact(self, tmp_path):
        from scenekit.checkpoint import Checkpoint

        cfg = desk_model_config(num_classes=4)
        rng = np.random.default_rng(5)
        source_params = init_params(cfg, "direct", rng=rng)
        source = Checkpoint(model=cfg, params=source_params)
        fresh = init_params(cfg, "transfer", source=source, rng=np.random.default_rng(6))
        for name, t in fresh.items():
            if name.startswith(("backbone.", "attn.")):
                assert t.data.tobytes() == source_params[name].data.tobytes(), name
            else:
                assert not np.array_equal(t.data, source_params[name].data), name

    def test_transfer_requires_source(self):
        cfg = desk_model_config(num_classes=4)
        with pytest.raises(ValueError, match="source checkpoint"):
            init_params(cfg, "transfer", rng=np.random.default_rng(0))

    def test_transfer_shape_mismatch_names_tensor(self):
        from scenekit.checkpoint import Checkpoint

        small = desk_model_config(num_classes=4)
        big = desk_model_config(
            num_classes=4,
            backbone=BackboneConfig(stages=(ConvStage(8, 2, 2), ConvStage(32, 2, 2),
                                            ConvStage(32, 2, 2))))
        source = Checkpoint(model=small,
                            params=init_params(small, "direct",
                                               rng=np.random.default_rng(1)))
        with pytest.raises(ShapeError, match="backbone.s0.kernel"):
            init_params(big, "transfer", source=source, rng=np.random.default_rng(2))
