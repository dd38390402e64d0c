"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. The training criteria (6-8) run CPU-scale synthetic
benchmarks and dominate the runtime; they are marked ``slow``, so
``pytest -m "not slow"`` skips them.
"""

import math
import time

import numpy as np
import pytest

from scenekit.attention import AttentionConfig, attention_pool, param_shapes as attn_shapes
from scenekit.augment import LabeledBatch, mixup_expand, rotate
from scenekit.backbone import BackboneConfig, ConvStage
from scenekit.cli import main as cli_main
from scenekit.data import one_hot, split, write_dataset_tree
from scenekit.fusion import FusionInput, accuracy, format_fusion_report, predict_label, prod_fuse
from scenekit.gradcheck import finite_difference_check
from scenekit.head import HeadConfig, LossConfig, kl_loss
from scenekit.model import (
    ModelConfig,
    desk_model_config,
    gradcheck_model_config,
    init_params,
    model_forward,
)
from scenekit.params import ModelParams
from scenekit.synthetic import (
    FINETUNE_SPECS,
    PRETRAIN_SPECS,
    constant_class_dataset,
    four_class_dataset,
    make_texture_dataset,
)
from scenekit.tensor import Tensor
from scenekit.trainer import TrainConfig, evaluate, train

SMALL_BACKBONE = BackboneConfig(stages=(ConvStage(16, 2, 2), ConvStage(32, 2, 2)))


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_full_network_gradient_check():
    rng = np.random.default_rng(101)
    model_cfg = gradcheck_model_config()
    params = init_params(model_cfg, "direct", rng=rng)
    images = Tensor(rng.random((4, 8, 8, 3)))
    targets = rng.dirichlet(np.ones(3), size=4)

    def loss_fn():
        probs = model_forward(images, params, model_cfg, training=False)
        return kl_loss(probs, targets, params, model_cfg.loss)

    start = time.perf_counter()
    result = finite_difference_check(loss_fn, params, n_probes=100, rng=rng, h=1e-5)
    elapsed = time.perf_counter() - start
    _criterion(1, f"100-probe full-network gradcheck: max rel err "
                  f"{result.max_rel_error:.3e} < 1e-4 in {elapsed:.1f}s < 60s",
               result.max_rel_error < 1e-4 and elapsed < 60.0)


def test_criterion_2_augmentation_contracts():
    ds = four_class_dataset(per_class=10, size=12, seed=2)
    expanded = ds.expand_rotations()
    quadrupled = expanded.class_counts() == [4 * n for n in ds.class_counts()]

    rng = np.random.default_rng(22)
    identity = True
    for _ in range(1000):
        img = rng.random((6, 6, 3))
        out = img
        for _ in range(4):
            out = rotate(out, 90)
        if out.tobytes() != img.tobytes():
            identity = False
            break

    batch = LabeledBatch(rng.random((32, 8, 8, 3)),
                         one_hot(rng.integers(0, 5, size=32), 5))
    mixed = mixup_expand(batch, rng)
    mixup_ok = (mixed.size == 96
                and np.abs(mixed.labels.sum(axis=1) - 1.0).max() < 1e-12)

    _criterion(2, "rotation quadrupling, rotate-90 4x bit-identity on 1000 "
                  "images, mixup 32 -> 96 with unit label rows",
               quadrupled and identity and mixup_ok)


def test_criterion_3_attention_pool_shape_and_structure():
    rng = np.random.default_rng(33)
    shapes_ok = True
    for _ in range(50):
        b = int(rng.integers(1, 4))
        w = int(rng.integers(1, 6))
        h = int(rng.integers(1, 6))
        c = int(rng.integers(2, 12))
        cfg = AttentionConfig(num_heads=int(rng.integers(1, 4)),
                              key_dim=int(rng.integers(1, 6)),
                              stream_pool_mode=("average", "max")[int(rng.integers(2))])
        params = ModelParams()
        for name, shape in attn_shapes(cfg, c):
            params.add(name, rng.standard_normal(shape) * 0.3)
        out = attention_pool(Tensor(rng.standard_normal((b, w, h, c))), cfg, params)
        if out.shape != (b, 2 * c):
            shapes_ok = False
            break

    cfg = AttentionConfig(num_heads=2, key_dim=4)
    c = 8
    params = ModelParams()
    for name, shape in attn_shapes(cfg, c):
        params.add(name, rng.standard_normal(shape) * 0.3)
    fmap = Tensor(rng.standard_normal((3, 4, 5, c)))
    before = attention_pool(fmap, cfg, params).data.copy()
    for name, t in params.items():
        if name.startswith("attn.h."):
            t.data[...] = 0.0
    after = attention_pool(fmap, cfg, params).data
    structure_ok = (np.array_equal(before[:, :c], after[:, :c])
                    and not np.array_equal(before[:, c:], after[:, c:]))

    _criterion(3, "output width 2C on 50 random shapes; zeroing one stream "
                  "perturbs only its half", shapes_ok and structure_ok)


def test_criterion_4_fusion_oracle():
    rng = np.random.default_rng(44)
    agree = True
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        c = int(rng.integers(2, 46))
        e = int(rng.integers(1, 6))
        mats = [rng.dirichlet(np.ones(c), size=e) for _ in range(n)]
        fused = prod_fuse(FusionInput(mats))
        oracle = np.ones_like(mats[0])
        for mat in mats:
            oracle = oracle * mat
        oracle /= n
        if not np.array_equal(predict_label(fused), predict_label(oracle)):
            agree = False
            break

    mat = rng.dirichlet(np.ones(45), size=64)
    self_ok = all(
        np.array_equal(predict_label(prod_fuse(FusionInput([mat] * n))),
                       predict_label(mat))
        for n in (1, 2, 3, 4))

    _criterion(4, "prod fusion matches brute-force oracle on 1000 cases; "
                  "self-fusion never changes argmax", agree and self_ok)


def test_criterion_5_loss_sanity():
    probs = Tensor(np.array([[0.25, 0.75], [0.6, 0.4]]))
    zero = kl_loss(probs, probs.data.copy(), ModelParams(), LossConfig(lam=0.0)).item()
    ln2 = kl_loss(Tensor(np.array([[0.5, 0.5]])), np.array([[1.0, 0.0]]),
                  ModelParams(), LossConfig(lam=0.0)).item()
    _criterion(5, f"KL(y, y) = {zero:.2e} within 1e-12; KL((1,0), (.5,.5)) "
                  f"= {ln2:.9f} hits ln 2 within 1e-9",
               abs(zero) < 1e-12 and abs(ln2 - math.log(2.0)) < 1e-9)


@pytest.mark.slow
def test_criterion_6_desk_scale_training():
    start = time.perf_counter()
    dataset = four_class_dataset(per_class=40, size=16, seed=7).expand_rotations()
    model_cfg = desk_model_config(num_classes=4, backbone=SMALL_BACKBONE)
    train_cfg = TrainConfig(strategy="direct", epochs=150, seed=0, batch_size=16,
                            crop_reduction=2, erase_size=3)
    ckpt, history = train(dataset, model_cfg, train_cfg)
    images, labels = dataset.to_arrays()
    _, train_acc = evaluate(ckpt.params, model_cfg, images, labels, crop_reduction=2)
    elapsed = time.perf_counter() - start
    _criterion(6, f"synthetic 4-class training: {train_acc:.1f}% >= 95% within "
                  f"{len(history)} <= 200 epochs in {elapsed:.0f}s < 600s",
               train_acc >= 95.0 and len(history) <= 200 and elapsed < 600.0)


@pytest.mark.slow
def test_criterion_7_transfer_learning_trend():
    head = HeadConfig(hidden_width=4096, dropout_rate=0.0, num_classes=4)
    base = desk_model_config(num_classes=4, backbone=SMALL_BACKBONE)
    model_cfg = ModelConfig(backbone=base.backbone, attention=base.attention,
                            head=head, loss=base.loss, pool="attention")

    pretrain = make_texture_dataset(PRETRAIN_SPECS, 60, 16, seed=11,
                                    noise=0.25).expand_rotations()
    pre_cfg = desk_model_config(num_classes=6, backbone=SMALL_BACKBONE)
    source, _ = train(pretrain, pre_cfg,
                      TrainConfig(strategy="direct", epochs=120, seed=1,
                                  batch_size=16, crop_reduction=2, erase_size=3))

    finetune = make_texture_dataset(FINETUNE_SPECS, 12, 16, seed=13, noise=0.25,
                                    jitter=0.2).expand_rotations()
    cap = 300
    wins = 0
    details = []
    for seed in range(5):
        epochs = {}
        for strategy in ("direct", "transfer"):
            cfg = TrainConfig(strategy=strategy, epochs=cap, seed=seed,
                              batch_size=8, crop_reduction=2, erase_size=3,
                              val_fraction=0.25, val_acc_target=90.0)
            _, history = train(finetune, model_cfg, cfg,
                               source=source if strategy == "transfer" else None)
            epochs[strategy] = history.epochs_to_val_target(90.0)
        transfer_e = epochs["transfer"] if epochs["transfer"] is not None else cap + 1
        direct_e = epochs["direct"] if epochs["direct"] is not None else cap + 1
        if epochs["transfer"] is not None and transfer_e < direct_e:
            wins += 1
        details.append(f"seed {seed}: transfer {epochs['transfer']} vs "
                       f"direct {epochs['direct']}")
    _criterion(7, "transfer reaches 90% val in strictly fewer epochs in >= 4/5 "
                  f"seeds ({wins}/5: {'; '.join(details)})", wins >= 4)


@pytest.mark.slow
def test_criterion_8_ensemble_report(capsys):
    backbone_a = SMALL_BACKBONE
    backbone_b = BackboneConfig(stages=(ConvStage(12, 3, 1), ConvStage(24, 2, 2),
                                        ConvStage(24, 2, 2)))
    dataset = four_class_dataset(per_class=20, size=16, seed=7)
    train_ds, test_ds = split(dataset, 0.5, seed=0)
    test_images, test_labels = test_ds.to_arrays()

    matrices = {}
    for bb_name, bb in (("netA", backbone_a), ("netB", backbone_b)):
        for mode in ("max", "average"):
            model_cfg = desk_model_config(num_classes=4, backbone=bb, pool_mode=mode)
            cfg = TrainConfig(strategy="direct", epochs=40, seed=3, batch_size=16,
                              crop_reduction=2, erase_size=3)
            ckpt, _ = train(train_ds.expand_rotations(), model_cfg, cfg)
            probs, _ = evaluate(ckpt.params, model_cfg, test_images, test_labels,
                                crop_reduction=2)
            matrices[(bb_name, mode)] = probs

    def acc_of(mats):
        fused = prod_fuse(FusionInput(list(mats)))
        return accuracy(predict_label(fused), test_labels)

    columns = [
        {"pooling": "Max + Average", "networks": "netA",
         "acc": acc_of([matrices[("netA", "max")], matrices[("netA", "average")]])},
        {"pooling": "Max + Average", "networks": "netB",
         "acc": acc_of([matrices[("netB", "max")], matrices[("netB", "average")]])},
        {"pooling": "Average", "networks": "netA + netB",
         "acc": acc_of([matrices[("netA", "average")], matrices[("netB", "average")]])},
        {"pooling": "Max + Average", "networks": "netA + netB",
         "acc": acc_of(list(matrices.values()))},
    ]
    report = format_fusion_report(columns)
    with capsys.disabled():
        print("\n" + report, end="")

    single = matrices[("netA", "average")]
    single_acc = accuracy(predict_label(single), test_labels)
    identical_acc = accuracy(
        predict_label(prod_fuse(FusionInput([single, single, single]))), test_labels)
    report_ok = (len(report.strip().splitlines()) == 3
                 and all(f"{c['acc']:.1f}" in report for c in columns))
    _criterion(8, "4-way ensemble report produced (accuracies reported, not "
                  f"asserted); identical-ensemble acc {identical_acc:.1f} == "
                  f"single-model acc {single_acc:.1f} exactly",
               report_ok and identical_acc == single_acc)


def test_criterion_9_train_determinism(tmp_path):
    data_dir = tmp_path / "data"
    write_dataset_tree(four_class_dataset(per_class=4, size=12, seed=5), data_dir)
    config = tmp_path / "desk.cfg"
    config.write_text(
        "[backbone]\nstages = 8:2:2, 12:2:2\n\n"
        "[attention]\nnum_heads = 2\nkey_dim = 4\n\n"
        "[head]\nhidden_width = 16\n\n"
        "[train]\nepochs = 2\nbatch_size = 8\ncrop_reduction = 2\nerase_size = 3\n")
    blobs = {}
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["train", "--data", str(data_dir), "--config", str(config),
                         "--seed", "11", "--out", str(out), "--quiet"])
        assert code == 0
        blobs[name] = ((out / "checkpoint.ckpt").read_bytes(),
                       (out / "history.txt").read_bytes())
    _criterion(9, "two `train` runs with identical config and seed produce "
                  "byte-identical checkpoints and histories",
               blobs["run1"] == blobs["run2"])


def test_criterion_10_split_protocol():
    dataset = constant_class_dataset(45, 700, size=2)
    train_20, test_80 = split(dataset, 0.2, seed=0)
    train_10, test_90 = split(dataset, 0.1, seed=0)
    ok = (train_20.class_counts() == [140] * 45
          and test_80.class_counts() == [560] * 45
          and train_10.class_counts() == [70] * 45
          and test_90.class_counts() == [630] * 45)
    _criterion(10, "45x700 tree: 0.2 -> 140/560 and 0.1 -> 70/630 per class", ok)
