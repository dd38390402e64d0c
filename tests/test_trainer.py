"""Trainer mechanics: optimizer rules, batch assembly, determinism."""

import numpy as np
import pytest

from scenekit.backbone import BackboneConfig, ConvStage
from scenekit.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from scenekit.data import one_hot
from scenekit.model import desk_model_config
from scenekit.params import ModelParams
from scenekit.synthetic import four_class_dataset
from scenekit.trainer import (
    EpochRecord,
    OptimizerState,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    evaluate,
    load_history,
    optimizer_step,
    save_history,
    train,
    training_batches,
)

SMALL_BACKBONE = BackboneConfig(stages=(ConvStage(8, 2, 2), ConvStage(12, 2, 2)))


def small_model(num_classes=4):
    return desk_model_config(num_classes=num_classes, backbone=SMALL_BACKBONE,
                             hidden_width=16, num_heads=2, key_dim=4)


def small_train_cfg(**overrides):
    defaults = dict(strategy="direct", epochs=2, seed=0, batch_size=8,
                    crop_reduction=2, erase_size=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestOptimizerStep:
    def _params(self, value=1.0, grad=0.0):
        params = ModelParams()
        t = params.add("w", np.full(3, value))
        t.grad[...] = grad
        return params, t

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params, t = self._params(value=2.0, grad=0.0)
        optimizer_step(params, OptimizerState(), small_train_cfg())
        assert np.array_equal(t.data, np.full(3, 2.0))

    def test_adam_first_step_hand_evaluated(self):
        # g=1, lr=1e-3: mhat=1, vhat=1, step = -1e-3 / (1 + 1e-8).
        params, t = self._params(value=0.0, grad=1.0)
        cfg = small_train_cfg(learning_rate=1e-3)
        optimizer_step(params, OptimizerState(), cfg)
        expected = -1e-3 * (1.0 / (1.0 + 1e-8))
        assert np.abs(t.data - expected).max() < 1e-18

    def test_non_finite_gradient_rejected(self):
        params, t = self._params(grad=np.nan)
        with pytest.raises(TrainingDivergedError, match="w"):
            optimizer_step(params, OptimizerState(), small_train_cfg())

    def test_fresh_state_has_no_moments(self):
        state = OptimizerState()
        assert state.first_moment == {} and state.second_moment == {}
        params, _ = self._params(grad=1.0)
        optimizer_step(params, state, small_train_cfg())
        assert list(state.first_moment) == list(state.second_moment) == ["w"]

    def test_three_steps_bitwise_equal_to_per_tensor_loop(self):
        rng = np.random.default_rng(21)
        shapes = {"a": (4, 3), "zero": (5,), "b": (2, 2, 2), "c": (1,)}
        params, oracle = ModelParams(), {}
        for name, shape in shapes.items():
            values = rng.standard_normal(shape)
            params.add(name, values)
            oracle[name] = values.copy()
        cfg = small_train_cfg(learning_rate=3e-3)
        state = OptimizerState()
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        b1, b2, lr = cfg.beta1, cfg.beta2, cfg.effective_learning_rate
        for t in (1, 2, 3):
            for name, shape in shapes.items():
                g = np.zeros(shape) if name == "zero" else rng.standard_normal(shape)
                params[name].grad[...] = g
                # Textbook Adam, one tensor at a time, with its own temporaries.
                m[name] += (1.0 - b1) * (g - m[name])
                v[name] += (1.0 - b2) * (g * g - v[name])
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                oracle[name] -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
            optimizer_step(params, state, cfg)
            assert state.step == t
            for name in shapes:
                assert params[name].data.tobytes() == oracle[name].tobytes()
                assert state.first_moment[name].tobytes() == m[name].tobytes()
                assert state.second_moment[name].tobytes() == v[name].tobytes()


class TestTrainingBatches:
    def _streams(self, seed=0):
        ss = np.random.SeedSequence(seed).spawn(4)
        return [np.random.default_rng(s) for s in ss]

    def test_batch_triples_from_32_to_96(self):
        rng = np.random.default_rng(1)
        images = rng.random((64, 12, 12, 3))
        labels = one_hot(rng.integers(0, 4, size=64), 4)
        cfg = TrainConfig(strategy="direct", batch_size=32, crop_reduction=2,
                          erase_size=3, epochs=1)
        batches = list(training_batches(images, labels, cfg, *self._streams()))
        assert len(batches) == 2
        for batch in batches:
            assert batch.size == 96
            assert batch.images.shape[1:] == (10, 10, 3)

    def test_remainder_below_two_dropped(self):
        rng = np.random.default_rng(2)
        images = rng.random((9, 8, 8, 3))
        labels = one_hot(rng.integers(0, 2, size=9), 2)
        cfg = TrainConfig(strategy="direct", batch_size=8, crop_reduction=0,
                          erase_size=2, epochs=1)
        batches = list(training_batches(images, labels, cfg, *self._streams()))
        assert [b.size for b in batches] == [24]

    def test_remainder_of_two_kept(self):
        rng = np.random.default_rng(3)
        images = rng.random((10, 8, 8, 3))
        labels = one_hot(rng.integers(0, 2, size=10), 2)
        cfg = TrainConfig(strategy="direct", batch_size=8, crop_reduction=0,
                          erase_size=2, epochs=1)
        batches = list(training_batches(images, labels, cfg, *self._streams()))
        assert [b.size for b in batches] == [24, 6]

    def test_stream_reproducible(self):
        rng = np.random.default_rng(4)
        images = rng.random((16, 8, 8, 3))
        labels = one_hot(rng.integers(0, 4, size=16), 4)
        cfg = TrainConfig(strategy="direct", batch_size=8, crop_reduction=1,
                          erase_size=2, epochs=1)
        a = list(training_batches(images, labels, cfg, *self._streams(7)))
        b = list(training_batches(images, labels, cfg, *self._streams(7)))
        for ba, bb in zip(a, b):
            assert ba.images.tobytes() == bb.images.tobytes()
            assert ba.labels.tobytes() == bb.labels.tobytes()


class TestTrain:
    def _dataset(self, per_class=6):
        return four_class_dataset(per_class=per_class, size=12, seed=3).expand_rotations()

    def test_zero_epochs_returns_initialized_checkpoint(self):
        ds = self._dataset()
        cfg = small_model()
        a, hist_a = train(ds, cfg, small_train_cfg(epochs=0))
        b, hist_b = train(ds, cfg, small_train_cfg(epochs=0))
        assert len(hist_a) == 0
        assert checkpoint_bytes(a) == checkpoint_bytes(b)
        trained, _ = train(ds, cfg, small_train_cfg(epochs=1))
        assert checkpoint_bytes(trained) != checkpoint_bytes(a)

    def test_same_seed_bit_identical_checkpoint_and_history(self):
        ds = self._dataset()
        cfg = small_model()
        a, hist_a = train(ds, cfg, small_train_cfg(epochs=2, seed=5))
        b, hist_b = train(ds, cfg, small_train_cfg(epochs=2, seed=5))
        assert checkpoint_bytes(a) == checkpoint_bytes(b)
        for ra, rb in zip(hist_a.records, hist_b.records):
            assert (ra.epoch, ra.loss, ra.train_acc, ra.val_acc) == \
                   (rb.epoch, rb.loss, rb.train_acc, rb.val_acc)

    def test_different_seed_differs(self):
        ds = self._dataset()
        cfg = small_model()
        a, _ = train(ds, cfg, small_train_cfg(epochs=1, seed=1))
        b, _ = train(ds, cfg, small_train_cfg(epochs=1, seed=2))
        assert checkpoint_bytes(a) != checkpoint_bytes(b)

    def test_dataset_smaller_than_one_batch_rejected(self):
        ds = four_class_dataset(per_class=1, size=12, seed=3)
        with pytest.raises(ValueError, match="smaller than one batch"):
            train(ds, small_model(), small_train_cfg(batch_size=32))

    def test_non_finite_gradient_names_parameter_step_and_epoch(self, monkeypatch):
        steps_per_epoch = 11  # this dataset's training split in batches of 8

        def poisoned_step(params, state, cfg):
            if state.step == steps_per_epoch + 1:  # epoch 2's second update
                params["head.fc2.b"].grad[1] = np.nan
            optimizer_step(params, state, cfg)

        monkeypatch.setattr("scenekit.trainer.optimizer_step", poisoned_step)
        with pytest.raises(TrainingDivergedError) as info:
            train(self._dataset(), small_model(), small_train_cfg(epochs=3))
        assert str(info.value) == (f"epoch 2: non-finite gradient in 'head.fc2.b' "
                                   f"at step {steps_per_epoch + 2}")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr 1e100 overflows on purpose
    def test_divergence_aborts_with_diagnostic(self):
        ds = self._dataset()
        cfg = small_model()
        bad = small_train_cfg(epochs=50, learning_rate=1e100)
        with pytest.raises(TrainingDivergedError):
            train(ds, cfg, bad)

    def test_transfer_never_mutates_source_file(self, tmp_path):
        ds = self._dataset()
        cfg = small_model()
        source_ckpt, _ = train(ds, cfg, small_train_cfg(epochs=1))
        path = tmp_path / "source.ckpt"
        save_checkpoint(source_ckpt, path)
        before = path.read_bytes()
        loaded = load_checkpoint(path)
        train(ds, cfg, small_train_cfg(epochs=1, strategy="transfer"), source=loaded)
        assert path.read_bytes() == before

    def test_history_invariants(self):
        ds = self._dataset()
        ckpt, hist = train(ds, small_model(), small_train_cfg(epochs=3))
        assert [r.epoch for r in hist.records] == [1, 2, 3]
        for r in hist.records:
            assert np.isfinite(r.loss)
            assert 0.0 <= r.train_acc <= 100.0
            assert 0.0 <= r.val_acc <= 100.0
            assert r.seconds >= 0.0
        assert ckpt.metadata["epochs"] == 3

    def test_val_target_stops_early(self):
        ds = self._dataset(per_class=10)
        cfg = small_model()
        tc = small_train_cfg(epochs=500, val_acc_target=30.0)
        _, hist = train(ds, cfg, tc)
        assert len(hist) < 500
        assert hist.records[-1].val_acc >= 30.0

    def test_class_count_mismatch_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="classes"):
            train(ds, small_model(num_classes=7), small_train_cfg())

    def test_patience_needs_a_validation_split(self):
        # Without validation rows val_acc is NaN and never improves, so
        # patience would stop every run after patience + 1 epochs.
        with pytest.raises(ValueError, match="patience"):
            small_train_cfg(patience=3, val_fraction=0.0)
        assert small_train_cfg(patience=3).patience == 3


class TestEvaluate:
    def test_accuracy_bounds_and_probs_shape(self):
        ds = four_class_dataset(per_class=4, size=12, seed=5)
        images, labels = ds.to_arrays()
        cfg = small_model()
        ckpt, _ = train(ds.expand_rotations(), cfg, small_train_cfg(epochs=1))
        probs, acc = evaluate(ckpt.params, cfg, images, labels, crop_reduction=2)
        assert probs.shape == (len(labels), 4)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        assert 0.0 <= acc <= 100.0


class TestHistoryFile:
    def _history(self):
        return TrainHistory([
            EpochRecord(1, 12.5, 30.0, 25.0, 1.25),
            EpochRecord(2, 8.75, 55.5, 50.0, 1.5),
        ])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "history.txt"
        save_history(self._history(), path, log_timing=True)
        loaded = load_history(path)
        assert loaded.records == self._history().records

    def test_timing_zeroed_by_default_for_reproducibility(self, tmp_path):
        path = tmp_path / "history.txt"
        save_history(self._history(), path)
        loaded = load_history(path)
        assert all(r.seconds == 0.0 for r in loaded.records)
        assert loaded.records[0].loss == 12.5

    def test_epochs_to_val_target(self):
        hist = self._history()
        assert hist.epochs_to_val_target(40.0) == 2
        assert hist.epochs_to_val_target(10.0) == 1
        assert hist.epochs_to_val_target(99.0) is None
