"""Augmentation contracts: rotation group, crop/erase geometry, mixup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.augment import (
    LabeledBatch,
    _mix_group,
    center_crop,
    erase_batch,
    mixup_expand,
    random_crop,
    random_erase,
    rotate,
)
from scenekit.data import Dataset, DatasetError, one_hot


def visual(rows):
    """Build a [W, H, 3] image from visual row-major pixel values."""
    arr = np.array(rows, dtype=np.float64).T  # rows are y, columns are x
    return np.repeat(arr[:, :, None], 3, axis=2)


def rand_image(rng, w=8, h=8):
    return rng.random((w, h, 3))


class TestRotate:
    def test_clockwise_quarter_turn(self):
        img = visual([[0.1, 0.2],
                      [0.3, 0.4]])
        expected = visual([[0.3, 0.1],
                           [0.4, 0.2]])
        assert np.array_equal(rotate(img, 90), expected)

    def test_half_turn_is_involution(self):
        img = rand_image(np.random.default_rng(0))
        assert np.array_equal(rotate(rotate(img, 180), 180), img)

    def test_quarter_turn_four_times_is_identity(self):
        img = rand_image(np.random.default_rng(1))
        out = img
        for _ in range(4):
            out = rotate(out, 90)
        assert out.tobytes() == img.tobytes()

    def test_90_plus_270_is_identity(self):
        img = rand_image(np.random.default_rng(2), w=5, h=7)
        assert np.array_equal(rotate(rotate(img, 90), 270), img)

    def test_dimensions_swap_for_quarter_turns(self):
        img = rand_image(np.random.default_rng(3), w=4, h=6)
        assert rotate(img, 90).shape == (6, 4, 3)
        assert rotate(img, 270).shape == (6, 4, 3)
        assert rotate(img, 180).shape == (4, 6, 3)

    def test_pixel_multiset_preserved(self):
        img = rand_image(np.random.default_rng(4))
        for angle in (90, 180, 270):
            assert np.array_equal(np.sort(rotate(img, angle).reshape(-1)),
                                  np.sort(img.reshape(-1)))

    def test_other_angles_rejected(self):
        img = rand_image(np.random.default_rng(5))
        for angle in (0, 45, 360, -90):
            with pytest.raises(ValueError):
                rotate(img, angle)


class TestExpandRotations:
    def test_dataset_quadruples_per_class(self):
        rng = np.random.default_rng(6)
        images = np.stack([rand_image(rng, 4, 4) for _ in range(1400)])
        ds = Dataset(("a", "b"), images, np.repeat([0, 1], 700))
        out = ds.expand_rotations()
        assert out.class_counts() == [2800, 2800]

    def test_label_histogram_scales_by_four(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 1, 1, 2, 0])
        ds = Dataset(("a", "b", "c"), rng.random((5, 4, 4, 3)), labels)
        out = ds.expand_rotations()
        assert len(out) == 20
        assert out.class_counts() == [4 * n for n in ds.class_counts()]

    def test_empty_dataset(self):
        empty = Dataset(("a",), np.zeros((0, 4, 4, 3)), np.zeros(0, dtype=np.int64))
        images, labels = empty.expand_rotations().to_arrays()
        assert images.shape == (0, 4, 4, 3)
        assert len(labels) == 0

    def test_rotations_carry_original_label(self):
        rng = np.random.default_rng(8)
        img = rand_image(rng, 4, 4)
        ds = Dataset(("a", "b", "c", "d"), img[None], np.array([3]))
        out_images, out_labels = ds.expand_rotations().to_arrays()
        assert list(out_labels) == [3, 3, 3, 3]
        assert np.array_equal(out_images[0], img)
        assert np.array_equal(out_images[1], rotate(img, 90))
        assert np.array_equal(out_images[2], rotate(img, 180))
        assert np.array_equal(out_images[3], rotate(img, 270))

    def test_each_original_followed_by_its_turns(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 1, 1, 2, 0])
        ds = Dataset(("a", "b", "c"), rng.random((5, 4, 4, 3)), labels)
        images, out_labels = ds.expand_rotations().to_arrays()
        assert images.shape == (20, 4, 4, 3)
        for i, img in enumerate(ds.images):
            assert np.array_equal(images[4 * i], img)
            for k, angle in enumerate((90, 180, 270), start=1):
                assert np.array_equal(images[4 * i + k], rotate(img, angle))
            assert list(out_labels[4 * i:4 * i + 4]) == [labels[i]] * 4

    def test_non_square_images_rejected(self):
        ds = Dataset(("a",), np.zeros((2, 4, 6, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(DatasetError, match="square"):
            ds.expand_rotations()


class TestRandomCrop:
    def test_256_to_246(self):
        rng = np.random.default_rng(9)
        batch = rng.random((1, 256, 256, 3))
        assert random_crop(batch, 10, rng).shape == (1, 246, 246, 3)

    def test_offsets_cover_inclusive_range(self):
        rng = np.random.default_rng(10)
        batch = rng.random((200, 32, 32, 3))
        out = random_crop(batch, 10, rng)
        assert out.shape == (200, 22, 22, 3)
        offsets = set()
        for i in range(200):
            found = None
            for ox in range(11):
                for oy in range(11):
                    if np.array_equal(out[i], batch[i, ox:ox + 22, oy:oy + 22]):
                        found = (ox, oy)
                        break
                if found:
                    break
            assert found is not None, f"crop {i} is not a contiguous window"
            offsets.add(found)
        xs = {o[0] for o in offsets}
        ys = {o[1] for o in offsets}
        assert xs == set(range(11)), "x offsets must cover 0..10"
        assert ys == set(range(11)), "y offsets must cover 0..10"

    def test_zero_reduction_is_identity(self):
        rng = np.random.default_rng(11)
        batch = rng.random((3, 8, 8, 3))
        assert np.array_equal(random_crop(batch, 0, rng), batch)

    def test_reduction_too_large_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            random_crop(rng.random((1, 8, 8, 3)), 8, rng)

    def test_center_crop_deterministic(self):
        batch = np.random.default_rng(13).random((2, 16, 16, 3))
        a = center_crop(batch, 4)
        b = center_crop(batch, 4)
        assert a.shape == (2, 12, 12, 3)
        assert np.array_equal(a, b)


class TestRandomErase:
    def test_erases_exactly_size_squared_pixels(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            img = rng.uniform(0.1, 1.0, size=(12, 9, 3))
            out = random_erase(img, 4, rng)
            changed = np.any(out != img, axis=2)
            assert changed.sum() == 16
            xs, ys = np.where(changed)
            assert xs.max() - xs.min() == 3 and ys.max() - ys.min() == 3
            assert np.all(out[xs.min():xs.min() + 4, ys.min():ys.min() + 4] == 0.0)

    def test_block_is_contiguous_2x2_on_4x4(self):
        rng = np.random.default_rng(15)
        img = np.full((4, 4, 3), 0.5)
        out = random_erase(img, 2, rng)
        changed = np.any(out != img, axis=2)
        assert changed.sum() == 4

    def test_size_zero_is_identity(self):
        rng = np.random.default_rng(16)
        img = rng.random((6, 6, 3))
        assert np.array_equal(random_erase(img, 0, rng), img)

    def test_size_too_large_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            random_erase(rng.random((6, 6, 3)), 7, rng)

    def test_untouched_pixels_bit_identical(self):
        rng = np.random.default_rng(18)
        img = rng.uniform(0.1, 1.0, size=(10, 10, 3))
        out = random_erase(img, 3, rng)
        untouched = np.all(out == img, axis=2)
        assert out[untouched].tobytes() == img[untouched].tobytes()


class TestMixup:
    def _batch(self, rng, n=32, w=6):
        images = rng.random((n, w, w, 3))
        labels = one_hot(rng.integers(0, 4, size=n), 4)
        return LabeledBatch(images, labels)

    def test_batch_32_becomes_96(self):
        rng = np.random.default_rng(20)
        out = mixup_expand(self._batch(rng), rng)
        assert out.size == 96

    def test_originals_lead_the_output(self):
        rng = np.random.default_rng(21)
        batch = self._batch(rng)
        out = mixup_expand(batch, rng)
        assert np.array_equal(out.images[:32], batch.images)
        assert np.array_equal(out.labels[:32], batch.labels)

    def test_lambda_one_reproduces_first_partner(self):
        rng = np.random.default_rng(22)
        batch = self._batch(rng, n=8)
        images, labels = _mix_group(batch, np.ones(8), rng)
        assert np.array_equal(images, batch.images)
        assert np.array_equal(labels, batch.labels)

    def test_one_hot_convex_combination(self):
        # Seed 3's first 2-element permutation is the swap, so each row
        # mixes with the other: lambda 0.3 gives (0.3, 0.7) exactly.
        images = np.zeros((2, 4, 4, 3))
        images[1] = 1.0
        labels = np.eye(2)
        batch = LabeledBatch(images, labels)
        mixed_images, mixed_labels = _mix_group(
            batch, np.array([0.3, 0.3]), np.random.default_rng(3))
        assert np.allclose(mixed_labels[0], [0.3, 0.7], atol=1e-15)
        assert np.allclose(mixed_images[0], 0.7, atol=1e-15)

    def test_label_rows_sum_to_one(self):
        rng = np.random.default_rng(23)
        out = mixup_expand(self._batch(rng), rng)
        assert np.abs(out.labels.sum(axis=1) - 1.0).max() < 1e-12
        assert out.labels.min() >= 0.0

    def test_mixed_pixels_stay_in_unit_interval(self):
        rng = np.random.default_rng(24)
        out = mixup_expand(self._batch(rng), rng)
        assert out.images.min() >= 0.0
        assert out.images.max() <= 1.0

    def test_batch_of_one_rejected(self):
        rng = np.random.default_rng(25)
        batch = LabeledBatch(rng.random((1, 4, 4, 3)), one_hot(np.array([0]), 2))
        with pytest.raises(ValueError, match="at least 2"):
            mixup_expand(batch, rng)

    def test_unnormalized_labels_rejected(self):
        rng = np.random.default_rng(26)
        batch = LabeledBatch(rng.random((4, 4, 4, 3)), np.full((4, 2), 0.9))
        with pytest.raises(ValueError, match="summing to 1"):
            mixup_expand(batch, rng)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stream_bit_reproducible_for_fixed_seed(self, seed):
        base = np.random.default_rng(99)
        batch = self._batch(base, n=6, w=4)
        a = mixup_expand(batch, np.random.default_rng(seed))
        b = mixup_expand(batch, np.random.default_rng(seed))
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


class TestEraseBatch:
    def test_each_image_erased_independently(self):
        rng = np.random.default_rng(27)
        batch = rng.uniform(0.1, 1.0, size=(16, 10, 10, 3))
        out = erase_batch(batch, 3, rng)
        for i in range(16):
            changed = np.any(out[i] != batch[i], axis=2)
            assert changed.sum() == 9
