"""The benchmark's workloads: inputs made from a seed, one round, run checks.

Every workload runs rounds of the same pipeline, the paper's: train()
some models, round-trip each checkpoint through save_checkpoint /
load_checkpoint, run ``scenekit eval`` on a held-out PPM tree, and
``scenekit fuse`` the eval outputs. The workloads differ in the model
and data, and so in which layers do the work; README.md says why each
one was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from scenekit import checkpoint as ckpt_mod
from scenekit import cli
from scenekit import trainer as trainer_mod
from scenekit.attention import AttentionConfig
from scenekit.augment import center_crop
from scenekit.backbone import BackboneConfig, ConvStage
from scenekit.checkpoint import Checkpoint, checkpoint_bytes
from scenekit.data import Dataset, load_dataset, one_hot, write_dataset_tree
from scenekit.head import HeadConfig, kl_loss
from scenekit.model import ModelConfig, desk_model_config, init_params, model_forward
from scenekit.params import ModelParams
from scenekit.synthetic import (
    FINETUNE_SPECS,
    PRETRAIN_SPECS,
    TextureSpec,
    four_class_dataset,
    make_texture_dataset,
)
from scenekit.tensor import Tensor, backward, no_grad
from scenekit.trainer import OptimizerState, TrainConfig, evaluate, optimizer_step, train, training_batches

SMALL_BACKBONE = BackboneConfig(stages=(ConvStage(16, 2, 2), ConvStage(32, 2, 2)))
CKPT_REPEATS = 5
FUSE_REPEATS = 3


def sub_seed(seed: int, *keys: int) -> int:
    """An independent 32-bit seed for each (workload seed, purpose) pair."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def scene_specs() -> dict[str, TextureSpec]:
    """45 rotation-invariant texture classes, one per NWPU-RESISC45 class."""
    specs = {f"stripes{i:02d}": TextureSpec("stripes", frequency=1.5 + 0.5 * i,
                                            angle_random=True) for i in range(15)}
    specs.update({f"checker{i:02d}": TextureSpec("checker", scale=2 + i) for i in range(12)})
    specs.update({f"blobs{i:02d}": TextureSpec("blobs", blob_count=2 + 2 * i) for i in range(10)})
    specs.update({f"plain{i:02d}": TextureSpec("plain", level=0.15 + 0.1 * i) for i in range(8)})
    return specs


@dataclass
class Workload:
    name: str
    train_data: Dataset           # passed to train() as is
    model_cfg: ModelConfig
    train_cfg: TrainConfig        # seed is replaced per trained model
    models_per_round: int
    eval_tree: Path               # PPM tree that `scenekit eval` reads
    eval_images: np.ndarray       # the generated images, before PPM encoding
    eval_labels: np.ndarray
    members: list[Path] = field(default_factory=list)  # fixed checkpoints to eval;
                                                        # empty: eval the round's models
    source: Checkpoint | None = None
    loss_check: bool = False      # final-epoch loss below the first epoch's
    val_margin: float | None = None  # mean val accuracy >= chance + margin

    def steps_per_train(self) -> int:
        """Optimizer steps one train() call should take, from the split sizes.

        Every round plans its operations with this count; run_round checks
        it against the batches train() actually draws.
        """
        cfg = self.train_cfg
        n_train = sum(n - math.floor(cfg.val_fraction * n + 0.5)
                      for n in self.train_data.class_counts())
        full, rest = divmod(n_train, cfg.batch_size)
        return cfg.epochs * (full + (rest >= 2))


def _eval_tree(dataset: Dataset, root: Path) -> tuple[Path, np.ndarray, np.ndarray]:
    write_dataset_tree(dataset, root)
    images, labels = dataset.to_arrays()
    return root, images, labels


def desk_train(seed: int, work: Path) -> Workload:
    """Criterion 6's data and model, two direct-trained models per round."""
    data = four_class_dataset(per_class=40, size=16, seed=sub_seed(seed, 1))
    tree = _eval_tree(four_class_dataset(per_class=40, size=16, seed=sub_seed(seed, 2)),
                      work / "eval_data")
    return Workload(
        "desk_train", data.expand_rotations(),
        desk_model_config(num_classes=4, backbone=SMALL_BACKBONE),
        TrainConfig(strategy="direct", epochs=6, batch_size=16, crop_reduction=2,
                    erase_size=3),
        2, *tree, loss_check=True, val_margin=10.0)


def wide_head_train(seed: int, work: Path) -> Workload:
    """Criterion 7's transfer fine-tune with the 4096-wide head."""
    pretrain = make_texture_dataset(PRETRAIN_SPECS, 10, 16, seed=sub_seed(seed, 3),
                                    noise=0.25).expand_rotations()
    source, _ = train(pretrain, desk_model_config(num_classes=6, backbone=SMALL_BACKBONE),
                      TrainConfig(strategy="direct", epochs=2, seed=sub_seed(seed, 4),
                                  batch_size=16, crop_reduction=2, erase_size=3))
    ckpt_mod.save_checkpoint(source, work / "source.ckpt")
    source = ckpt_mod.load_checkpoint(work / "source.ckpt")
    base = desk_model_config(num_classes=4, backbone=SMALL_BACKBONE)
    model_cfg = ModelConfig(backbone=base.backbone, attention=base.attention,
                            head=HeadConfig(hidden_width=4096, dropout_rate=0.0,
                                            num_classes=4),
                            loss=base.loss)
    finetune = make_texture_dataset(FINETUNE_SPECS, 12, 16, seed=sub_seed(seed, 1),
                                    noise=0.25, jitter=0.2)
    tree = _eval_tree(make_texture_dataset(FINETUNE_SPECS, 48, 16, seed=sub_seed(seed, 2),
                                           noise=0.25, jitter=0.2), work / "eval_data")
    return Workload(
        "wide_head_train", finetune.expand_rotations(), model_cfg,
        TrainConfig(strategy="transfer", epochs=4, batch_size=8, crop_reduction=2,
                    erase_size=3, val_fraction=0.25),
        2, *tree, source=source, loss_check=True)


def _member(cfg: ModelConfig, seed: int, calibration: np.ndarray) -> Checkpoint:
    """A seeded full-scale model whose logits have standard deviation ~2.

    At the direct init (variance 0.1) the 4096-wide head saturates its
    softmax, so most probabilities are exactly 0 and every fused product
    ties. Scaling the last layer keeps the ensemble's outputs informative.
    """
    params = init_params(cfg, "direct", rng=np.random.default_rng(seed))
    with no_grad():
        logits = model_forward(Tensor(calibration), params, cfg).logits.data
    scale = 2.0 / logits.std()
    for name in ("head.fc2.w", "head.fc2.b"):
        params[name].data *= scale
    return Checkpoint(model=cfg, params=params, metadata={"seed": seed})


def ensemble_eval(seed: int, work: Path) -> Workload:
    """Full-scale PROD fusion of three models over 720 images in 45 classes."""
    specs = scene_specs()
    eval_set = make_texture_dataset(specs, 16, 64, seed=sub_seed(seed, 2))
    tree = _eval_tree(eval_set, work / "eval_data")
    members = []
    for i, mode in enumerate(("average", "average", "max")):
        cfg = ModelConfig(attention=AttentionConfig(stream_pool_mode=mode),
                          head=HeadConfig(num_classes=45))
        path = work / f"member{i}.ckpt"
        ckpt_mod.save_checkpoint(_member(cfg, sub_seed(seed, 5, i), tree[1][::45]), path)
        members.append(path)
    source = ckpt_mod.load_checkpoint(members[0])
    # The fine-tune uses the root README's full-scale [train] settings
    # (batch 32, crop 10, erase 20) for one epoch, by transfer from member 0.
    return Workload(
        "ensemble_eval", make_texture_dataset(specs, 2, 64, seed=sub_seed(seed, 1)),
        source.model,
        TrainConfig(strategy="transfer", epochs=1, batch_size=32, crop_reduction=10,
                    erase_size=20, val_fraction=0.5),
        1, *tree, members=members, source=source)


WORKLOADS = {f.__name__: f for f in (desk_train, wide_head_train, ensemble_eval)}


# --- one round ----------------------------------------------------------------

@dataclass
class Meter:
    """What the timed operations of a set of rounds measured."""

    rounds: int = 0
    round_seconds: float = 0.0
    train_rates: list[float] = field(default_factory=list)  # examples/s per train()
    epoch_seconds: list[float] = field(default_factory=list)
    save_ms: list[float] = field(default_factory=list)
    load_ms: list[float] = field(default_factory=list)
    eval_rates: list[float] = field(default_factory=list)   # images/s per eval command
    fuse_seconds: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Medians over the operations, so a burst of machine noise moves them less."""
        return {
            "train_examples_per_s": (float(np.median(self.train_rates)), "examples/s"),
            "epoch_s": (float(np.median(self.epoch_seconds)), "s"),
            "ckpt_save_ms": (float(np.median(self.save_ms)), "ms"),
            "ckpt_load_ms": (float(np.median(self.load_ms)), "ms"),
            "eval_images_per_s": (float(np.median(self.eval_rates)), "images/s"),
            "fuse_s": (float(np.median(self.fuse_seconds)), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def max_rss_mb() -> float:
    """The process's resident-set high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def counted_batches():
    """Counts the batches and examples train() draws from training_batches.

    Yields [batches, examples]; the examples are post-mixup, as trained on.
    """
    counts = [0, 0]
    original = trainer_mod.training_batches

    def counting(*args, **kwargs):
        for batch in original(*args, **kwargs):
            counts[0] += 1
            counts[1] += len(batch.images)
            yield batch

    trainer_mod.training_batches = counting
    try:
        yield counts
    finally:
        trainer_mod.training_batches = original


class OperationFailed(RuntimeError):
    pass


@dataclass
class RoundResult:
    attempted: int
    failed: int
    problems: list[str]
    model: Checkpoint | None = None   # the last model the round trained
    val_accs: list[float] = field(default_factory=list)


def _cli(args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise OperationFailed(f"scenekit {args[0]} exited with {code}")


def _params(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in ckpt.params.items()}


def run_round(wl: Workload, seed: int, index: int, work: Path, meter: Meter,
              span) -> RoundResult:
    """One round; ``span(name)`` is a context manager the tracer may fill.

    The round trains its models, round-trips each checkpoint
    CKPT_REPEATS times, runs one eval per model (or member) and the
    fuse FUSE_REPEATS times: the millisecond-scale operations repeat so
    that their medians rest on enough samples. With fixed members the
    evals and fuses come first and the peak RSS is taken before the
    first fine-tune, so it is the inference peak. An operation that
    raises counts as failed, and so does every operation after it in the
    round, which then ends.
    """
    steps = wl.steps_per_train()
    n_evals = len(wl.members) or wl.models_per_round
    result = RoundResult(attempted=wl.models_per_round * (steps + CKPT_REPEATS) + n_evals
                         + FUSE_REPEATS, failed=0, problems=[])
    done = 0  # operations that succeeded, a train() call counting its steps

    def train_models() -> list[Path]:
        nonlocal done
        trained = []
        for m in range(wl.models_per_round):
            cfg = replace(wl.train_cfg, seed=sub_seed(seed, 10, index, m))
            t0 = time.perf_counter()
            with counted_batches() as counts, span("trainer.train"):
                ckpt, history = train(wl.train_data, wl.model_cfg, cfg, source=wl.source)
            meter.train_rates.append(counts[1] / (time.perf_counter() - t0))
            meter.epoch_seconds += [r.seconds for r in history.records]
            done += steps
            if counts[0] != steps:
                result.problems.append(f"train() drew {counts[0]} batches, the split sizes "
                                       f"give {steps} steps")
            if wl.loss_check:
                result.problems += checks.check_loss_falls([r.loss for r in history.records])
            result.val_accs.append(history.records[-1].val_acc)

            path = work / f"model{m}.ckpt"
            for rep in range(CKPT_REPEATS):
                t0 = time.perf_counter()
                ckpt_mod.save_checkpoint(ckpt, path)
                t1 = time.perf_counter()
                loaded = ckpt_mod.load_checkpoint(path)
                t2 = time.perf_counter()
                meter.save_ms.append(1e3 * (t1 - t0))
                meter.load_ms.append(1e3 * (t2 - t1))
                done += 1
                if rep == 0:
                    result.problems += checks.check_roundtrip(
                        _params(ckpt), _params(loaded), checkpoint_bytes(ckpt),
                        checkpoint_bytes(loaded))
            trained.append(path)
            result.model = loaded
        return trained

    def eval_and_fuse(models: list[Path]) -> None:
        nonlocal done
        probs_files, matrices = [], []
        for i, path in enumerate(models):
            out = work / f"eval{i}"
            t0 = time.perf_counter()
            with span("cli.eval"):
                _cli(["eval", "--data", str(wl.eval_tree), "--from", str(path),
                      "--out", str(out)])
            meter.eval_rates.append(len(wl.eval_labels) / (time.perf_counter() - t0))
            done += 1
            _, probs = checks.read_matrix((out / "probs.txt").read_text())
            _, labels = checks.read_labels((out / "labels.txt").read_text())
            reported = json.loads((out / "manifest.json").read_text())["settings"]["accuracy"]
            result.problems += checks.check_eval(probs, labels, wl.eval_labels, reported)
            probs_files.append(str(out / "probs.txt"))
            matrices.append(probs)

        out = work / "fused"
        for _ in range(FUSE_REPEATS):
            t0 = time.perf_counter()
            with span("cli.fuse"):
                _cli(["fuse", "--probs", *probs_files, "--labels",
                      str(work / "eval0" / "labels.txt"), "--out", str(out)])
            meter.fuse_seconds.append(time.perf_counter() - t0)
            done += 1
        _, fused = checks.read_matrix((out / "fused.txt").read_text())
        reported = json.loads((out / "manifest.json").read_text())["settings"]["fused_accuracy"]
        result.problems += checks.check_fuse(matrices, wl.eval_labels, fused, reported)

    t_round = time.perf_counter()
    try:
        if wl.members:
            eval_and_fuse(wl.members)
            if not meter.peak_rss_mb:
                meter.peak_rss_mb = max_rss_mb()
            train_models()
        else:
            eval_and_fuse(train_models())
            meter.peak_rss_mb = max_rss_mb()
    except Exception as exc:  # a failed operation is counted, not fatal
        result.failed = result.attempted - done
        result.problems.append(f"round {index}: an operation failed after {done} of "
                               f"{result.attempted} succeeded: {exc!r}")
    meter.rounds += 1
    meter.round_seconds += time.perf_counter() - t_round
    return result


# --- run-level checks -----------------------------------------------------------

def one_batch(wl: Workload, seed: int):
    """The first augmented training batch train() would see under ``seed``."""
    images, labels = wl.train_data.to_arrays()
    rngs = [np.random.default_rng(sub_seed(seed, 20, k)) for k in range(4)]
    return next(training_batches(images, one_hot(labels, wl.train_data.num_classes),
                                 wl.train_cfg, *rngs))


def loss_of(params: ModelParams, cfg: ModelConfig, images: np.ndarray,
          targets: np.ndarray):
    probs = model_forward(Tensor(images), params, cfg, training=False)
    return probs, kl_loss(probs, targets, params, cfg.loss)


def central_differences(params: ModelParams, cfg: ModelConfig, images: np.ndarray,
                        targets: np.ndarray, rng: np.random.Generator, probes: int
                        ) -> list[tuple[str, int, float, list[float]]]:
    """backward() gradients next to central differences on random entries.

    Each entry gets one difference per step in checks.GRAD_STEPS.
    """
    params.zero_grads()
    backward(loss_of(params, cfg, images, targets)[1])
    tensors = list(params.items())
    records = []
    for _ in range(probes):
        name, t = tensors[int(rng.integers(len(tensors)))]
        flat = t.data.reshape(-1)
        idx = int(rng.integers(flat.size))
        saved = flat[idx]
        numeric = []
        with no_grad():
            for h in checks.GRAD_STEPS:
                flat[idx] = saved + h
                f_plus = loss_of(params, cfg, images, targets)[1].item()
                flat[idx] = saved - h
                f_minus = loss_of(params, cfg, images, targets)[1].item()
                numeric.append((f_plus - f_minus) / (2.0 * h))
        flat[idx] = saved
        records.append((name, idx, float(t.grad.reshape(-1)[idx]), numeric))
    return records


def adam_record(params: ModelParams, state: OptimizerState, step: int,
                model_cfg: ModelConfig, cfg: TrainConfig, images: np.ndarray,
                targets: np.ndarray) -> tuple:
    """One optimizer_step on the batch's gradients, as checks.check_adam's arguments.

    Copies the parameters, gradients and moments before the step and the
    parameters and moments after it; ``step`` is the update's 1-based count.
    """
    params.zero_grads()
    backward(loss_of(params, model_cfg, images, targets)[1])
    before = {n: t.data.copy() for n, t in params.items()}
    grads = {n: t.grad.copy() for n, t in params.items()}
    m0 = {n: state.first_moment.get(n, np.zeros_like(a)).copy() for n, a in before.items()}
    v0 = {n: state.second_moment.get(n, np.zeros_like(a)).copy() for n, a in before.items()}
    optimizer_step(params, state, cfg)
    return (before, grads, m0, v0, step, cfg.effective_learning_rate, cfg.beta1, cfg.beta2,
            cfg.adam_epsilon, {n: t.data.copy() for n, t in params.items()},
            {n: a.copy() for n, a in state.first_moment.items()},
            {n: a.copy() for n, a in state.second_moment.items()})


def adam_problems(wl: Workload, model: Checkpoint, seed: int) -> list[str]:
    """Two optimizer_step calls, each against a numpy Adam update."""
    params = model.params.copy()
    state = OptimizerState()
    problems = []
    for step in (1, 2):
        batch = one_batch(wl, sub_seed(seed, 21, step))
        problems += checks.check_adam(*adam_record(params, state, step, wl.model_cfg,
                                                   wl.train_cfg, batch.images, batch.labels))
    return problems


def run_checks(wl: Workload, seed: int, model: Checkpoint) -> list[str]:
    """Checks made once per run, on ``model`` (the last one trained) and the inputs."""
    problems = []
    rng = np.random.default_rng(sub_seed(seed, 30))
    crop = wl.train_cfg.crop_reduction
    # Reference forward: the trained model on training images, and each
    # fixed ensemble member on its eval images.
    images, labels = wl.train_data.to_arrays()
    pick = rng.choice(len(labels), size=4, replace=False)
    cases = [(model, center_crop(images[pick], crop), labels[pick])]
    epick = rng.choice(len(wl.eval_labels), size=4, replace=False)
    members = [ckpt_mod.load_checkpoint(p) for p in wl.members]
    cases += [(m, wl.eval_images[epick], wl.eval_labels[epick]) for m in members]
    for ckpt, imgs, labs in cases:
        targets = one_hot(labs, ckpt.model.head.num_classes)
        with no_grad():
            probs, loss = loss_of(ckpt.params, ckpt.model, imgs, targets)
        problems += checks.check_forward(ckpt.model.to_dict(), _params(ckpt), imgs, targets,
                                         probs.data, loss.item())

    problems += adam_problems(wl, model, seed)

    # Central differences and batch sizes on a model with moderate logits:
    # the trained one, or the first member (the fine-tune head saturates).
    ref = members[0] if members else model
    gimgs, glabs = cases[-1][1][:2], cases[-1][2][:2]
    problems += checks.check_gradients(central_differences(
        ref.params.copy(), ref.model, gimgs, one_hot(glabs, ref.model.head.num_classes),
        rng, probes=6))

    if wl.train_cfg.strategy == "transfer":
        init = init_params(wl.model_cfg, "transfer", source=wl.source,
                           rng=np.random.default_rng(sub_seed(seed, 31)))
        problems += checks.check_transfer_init(_params(wl.source),
                                               {n: t.data for n, t in init.items()})

    decoded, _ = load_dataset(wl.eval_tree).to_arrays()
    problems += checks.check_ppm(decoded, wl.eval_images)

    eval_crop = ref.metadata.get("train_config", {}).get("crop_reduction", 0)
    a, b = (evaluate(ref.params, ref.model, decoded[:40], wl.eval_labels[:40],
                     crop_reduction=eval_crop, batch_size=size)[0] for size in (64, 7))
    problems += checks.check_batch_invariance(a, b)
    return problems
