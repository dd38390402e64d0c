"""Product fusion against a brute-force oracle, plus the accuracy metric."""

import numpy as np
import pytest

from scenekit.fusion import (
    FusionInput,
    accuracy,
    format_fusion_report,
    load_probability_matrix,
    predict_label,
    prod_fuse,
    save_probability_matrix,
)


def brute_force_fuse(matrices):
    """Direct product rule, elementwise, no log-space tricks."""
    n = len(matrices)
    out = np.ones_like(matrices[0])
    for mat in matrices:
        out = out * mat
    return out / n


def random_fusion_input(rng, n_models, examples, classes):
    mats = [rng.dirichlet(np.ones(classes), size=examples) for _ in range(n_models)]
    return FusionInput(mats)


class TestProdFuse:
    def test_single_model_is_exact_identity(self):
        rng = np.random.default_rng(0)
        mat = rng.dirichlet(np.ones(5), size=7)
        fused = prod_fuse(FusionInput([mat]))
        assert fused.tobytes() == mat.tobytes()

    def test_two_model_scalar_example(self):
        p1 = np.array([[0.6, 0.4]])
        p2 = np.array([[0.5, 0.5]])
        fused = prod_fuse(FusionInput([p1, p2]))
        assert np.allclose(fused, [[0.15, 0.10]], atol=1e-15)

    def test_self_fusion_preserves_argmax(self):
        rng = np.random.default_rng(1)
        mat = rng.dirichlet(np.ones(45), size=30)
        for n in (2, 3, 4):
            fused = prod_fuse(FusionInput([mat] * n))
            assert np.array_equal(predict_label(fused), predict_label(mat))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            c = int(rng.integers(2, 46))
            e = int(rng.integers(1, 8))
            fusion = random_fusion_input(rng, n, e, c)
            fused = prod_fuse(fusion)
            oracle = brute_force_fuse(fusion.probabilities)
            assert np.allclose(fused, oracle, rtol=1e-12, atol=1e-300)
            assert np.array_equal(predict_label(fused), predict_label(oracle))

    def test_permutation_invariant_in_model_order(self):
        rng = np.random.default_rng(3)
        fusion = random_fusion_input(rng, 4, 10, 6)
        reversed_input = FusionInput(list(reversed(fusion.probabilities)))
        assert np.allclose(prod_fuse(fusion), prod_fuse(reversed_input), rtol=1e-12)

    def test_log_space_agrees_with_direct_product_above_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            mats = [np.clip(rng.dirichlet(np.ones(10), size=5), 1e-6, None)
                    for _ in range(3)]
            mats = [m / m.sum(axis=1, keepdims=True) for m in mats]
            fused = prod_fuse(FusionInput(mats))
            direct = brute_force_fuse(mats)
            assert np.array_equal(predict_label(fused), predict_label(direct))

    def test_underflow_does_not_zero_out(self):
        # Tiny probabilities across many models would underflow a naive
        # repeated product of tiny floats; the log-space path keeps argmax.
        tiny = np.full((1, 45), 1e-8)
        tiny[0, 7] = 1.0 - 44e-8
        fused = prod_fuse(FusionInput([tiny] * 4))
        assert predict_label(fused)[0] == 7

    def test_normalized_view_sums_to_one(self):
        rng = np.random.default_rng(5)
        fusion = random_fusion_input(rng, 3, 6, 4)
        normalized = prod_fuse(fusion, normalized=True)
        assert np.abs(normalized.sum(axis=1) - 1.0).max() < 1e-12

    def test_mismatched_extents_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            FusionInput([np.full((2, 3), 1 / 3), np.full((2, 4), 0.25)])

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FusionInput([np.full((2, 4), 0.3)])

    def test_negative_entries_rejected(self):
        bad = np.array([[1.2, -0.2]])
        with pytest.raises(ValueError, match="negative"):
            FusionInput([bad])


class TestPredictLabel:
    def test_simple_argmax(self):
        assert predict_label(np.array([[0.1, 0.7, 0.2]]))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        assert predict_label(np.array([[0.5, 0.5]]))[0] == 0
        assert predict_label(np.array([[0.2, 0.4, 0.4]]))[0] == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            predict_label(np.array([[np.nan, 0.5]]))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 100.0

    def test_none_correct(self):
        assert accuracy(np.array([1, 2, 0]), np.array([0, 1, 2])) == 0.0

    def test_three_of_four(self):
        assert accuracy(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 0])) == 75.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0, 1]))


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(5), size=4)
        ids = [f"class_a/{i}" for i in range(4)]
        path = tmp_path / "probs.txt"
        save_probability_matrix(probs, path, ids=ids)
        loaded, loaded_ids = load_probability_matrix(path)
        assert loaded_ids == ids
        assert np.array_equal(loaded, probs)  # repr round-trips float64

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_probability_matrix(path)


class TestReport:
    def test_table_shape(self):
        report = format_fusion_report([
            {"pooling": "Max + Average", "networks": "netA", "acc": 93.6},
            {"pooling": "Average", "networks": "netA + netB", "acc": 94.3},
        ])
        lines = report.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("Pooling layers")
        assert lines[1].startswith("Networks")
        assert lines[2].startswith("Acc.(%)")
        assert "93.6" in lines[2] and "94.3" in lines[2]
