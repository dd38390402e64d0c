"""Command-line surface tying the pipeline together.

Subcommands: train, eval, fuse, split, augment-preview, gradcheck, plot.
Every run that produces artifacts also writes a manifest.json capturing
the resolved settings, seeds, and output digests needed to re-run it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .augment import LabeledBatch, mixup_expand, random_crop, random_erase, rotate
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigBundle, ConfigError
from .data import (
    Dataset,
    DatasetError,
    load_dataset,
    one_hot,
    scan_tree,
    split,
    split_indices,
    write_ppm,
)
from .files import TableError, read_table, write_atomic
from .fusion import (
    FusionInput,
    accuracy,
    format_fusion_report,
    load_probability_matrix,
    predict_label,
    prod_fuse,
    save_probability_matrix,
)
from .gradcheck import finite_difference_check
from .head import kl_loss
from .model import gradcheck_model_config, init_params, model_forward
from .plot import history_svg
from .tensor import Tensor
from .trainer import evaluate, load_history, save_history, train


def write_manifest(out_dir: Path, command: str, settings: dict,
                   inputs: dict, outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "settings": settings,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs},
    }
    path = out_dir / "manifest.json"
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _bundle_from_args(args) -> ConfigBundle:
    """The config file's values, overridden by each flag whose dest is ``section.key``."""
    bundle = ConfigBundle(args.config)
    for dest, value in vars(args).items():
        if "." in dest:
            bundle.override(*dest.split("."), value)
    return bundle


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    bundle = _bundle_from_args(args)
    dataset = load_dataset(args.data)
    if args.train_fraction is not None:
        dataset, _ = split(dataset, args.train_fraction, args.split_seed)
    dataset = dataset.expand_rotations()
    model_cfg = bundle.model_config(num_classes=dataset.num_classes)
    train_cfg = bundle.train_config()
    source = None
    if train_cfg.strategy == "transfer":
        if args.source is None:
            raise ConfigError("--from CHECKPOINT is required for the transfer strategy")
        source = load_checkpoint(args.source)
    out = _out_dir(args)
    ckpt, history = train(dataset, model_cfg, train_cfg, source=source,
                          progress=not args.quiet)
    ckpt_path = out / "checkpoint.ckpt"
    hist_path = out / "history.txt"
    save_checkpoint(ckpt, ckpt_path)
    save_history(history, hist_path, log_timing=args.log_timing)
    write_manifest(out, "train",
                   {"config": bundle.resolved(), "train_fraction": args.train_fraction,
                    "split_seed": args.split_seed, "log_timing": args.log_timing},
                   {"data": args.data, "from": args.source or ""},
                   [ckpt_path, hist_path])
    if history.records:
        last = history.records[-1]
        print(f"done: {len(history)} epochs, final loss {last.loss:.4f}, "
              f"train {last.train_acc:.2f}%, val {last.val_acc:.2f}%")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _subset_for_eval(args) -> Dataset:
    dataset = load_dataset(args.data)
    if args.train_fraction is not None:
        train_ds, test_ds = split(dataset, args.train_fraction, args.split_seed)
        return {"train": train_ds, "test": test_ds}[args.subset]
    return dataset


def _example_ids(dataset: Dataset) -> list[str]:
    """``class/k`` for the k-th row of each class, one id per row."""
    ids = [""] * len(dataset)
    for name, rows in zip(dataset.class_names, dataset.class_rows()):
        for i, row in enumerate(rows):
            ids[row] = f"{name}/{i}"
    return ids


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.source)
    dataset = _subset_for_eval(args)
    images, labels = dataset.to_arrays()
    crop = args.crop_reduction
    if crop is None:
        crop = ckpt.metadata.get("train_config", {}).get("crop_reduction", 0)
    probs, acc = evaluate(ckpt.params, ckpt.model, images, labels,
                          crop_reduction=crop, batch_size=args.batch_size)
    print(f"accuracy: {acc:.2f}% on {images.shape[0]} images")
    out = _out_dir(args)
    ids = _example_ids(dataset)
    probs_path = out / "probs.txt"
    labels_path = out / "labels.txt"
    save_probability_matrix(probs, probs_path, ids=ids)
    write_atomic(labels_path, "\n".join(f"{i} {l}" for i, l in zip(ids, labels)) + "\n")
    write_manifest(out, "eval",
                   {"crop_reduction": crop, "subset": args.subset,
                    "train_fraction": args.train_fraction, "split_seed": args.split_seed,
                    "accuracy": acc},
                   {"data": args.data, "from": args.source},
                   [probs_path, labels_path])
    return 0


def _load_labels_file(path: Path) -> tuple[list[str], np.ndarray]:
    rows = read_table(path, (str, int))
    return [row[0] for row in rows], np.array([row[1] for row in rows], dtype=np.int64)


def cmd_fuse(args) -> int:
    matrices, names, id_lists = [], [], []
    for path in args.probs:
        mat, ids = load_probability_matrix(path)
        matrices.append(mat)
        names.append(Path(path).parent.name or Path(path).stem)
        id_lists.append((path, ids))
    if args.labels:
        ids, labels = _load_labels_file(args.labels)
        id_lists.append((args.labels, ids))
    for path, ids in id_lists[1:]:
        if ids != id_lists[0][1]:
            raise TableError(f"example ids in {path} differ from those in {args.probs[0]}; "
                             f"rows must refer to the same examples in the same order")
    try:
        fusion = FusionInput(matrices, model_ids=names)
    except ValueError as exc:
        raise TableError(f"cannot fuse {' '.join(map(str, args.probs))}: {exc}") from exc
    fused = prod_fuse(fusion, normalized=args.normalized)
    out = _out_dir(args)
    fused_path = out / "fused.txt"
    save_probability_matrix(fused, fused_path, ids=id_lists[0][1])
    outputs = [fused_path]
    settings = {"normalized": args.normalized, "models": names}
    if args.labels:
        columns = []
        for name, mat in zip(names, matrices):
            columns.append({"pooling": "-", "networks": name,
                            "acc": accuracy(predict_label(mat), labels)})
        columns.append({"pooling": "PROD", "networks": " + ".join(names),
                        "acc": accuracy(predict_label(fused), labels)})
        report = format_fusion_report(columns)
        report_path = out / "report.txt"
        write_atomic(report_path, report)
        outputs.append(report_path)
        print(report, end="")
        settings["fused_accuracy"] = columns[-1]["acc"]
    write_manifest(out, "fuse", settings,
                   {f"probs{i}": p for i, p in enumerate(args.probs)}, outputs)
    return 0


def cmd_split(args) -> int:
    root = Path(args.data)
    classes = scan_tree(root)
    memberships = split_indices([len(files) for _, files in classes],
                                args.train_fraction, np.random.default_rng(args.seed))
    out = _out_dir(args)
    train_path, test_path = out / "train.txt", out / "test.txt"
    for path, side in ((train_path, 0), (test_path, 1)):
        write_atomic(path, "".join(f"{files[i].relative_to(root)}\n"
                                   for (_, files), rows in zip(classes, memberships)
                                   for i in rows[side]))
    write_manifest(out, "split",
                   {"train_fraction": args.train_fraction, "seed": args.seed},
                   {"data": args.data}, [train_path, test_path])
    counts = [(len(tr), len(te)) for tr, te in memberships]
    print(f"split {len(counts)} classes; first class: "
          f"{counts[0][0]} train / {counts[0][1]} test")
    return 0


def cmd_augment_preview(args) -> int:
    dataset = load_dataset(args.data)
    rng = np.random.default_rng(args.seed)
    out = _out_dir(args)
    images, labels = dataset.to_arrays()
    count = min(args.count, images.shape[0])
    outputs = []
    for i in range(count):
        img = images[i]
        stem = f"example{i:02d}"
        variants = {
            "original": img,
            "rot90": rotate(img, 90),
            "rot180": rotate(img, 180),
            "rot270": rotate(img, 270),
            "cropped": random_crop(img[None], min(args.crop, img.shape[0] - 1), rng)[0],
            "erased": random_erase(img, min(args.erase, img.shape[0]), rng),
        }
        for name, var in variants.items():
            path = out / f"{stem}_{name}.ppm"
            write_ppm(var, path)
            outputs.append(path)
    if count >= 2:
        batch = LabeledBatch(images[:count],
                             one_hot(labels[:count], dataset.num_classes))
        mixed = mixup_expand(batch, rng)
        for j in range(count, min(2 * count, mixed.size)):
            path = out / f"mixup{j - count:02d}.ppm"
            write_ppm(mixed.images[j], path)
            outputs.append(path)
    write_manifest(out, "augment-preview",
                   {"seed": args.seed, "count": count,
                    "crop": args.crop, "erase": args.erase},
                   {"data": args.data}, outputs)
    print(f"wrote {len(outputs)} preview images to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    model_cfg = gradcheck_model_config(pool=args.pool, pool_mode=args.pool_mode)
    params = init_params(model_cfg, "direct", rng=rng)
    images = Tensor(rng.random((args.batch, args.image_size, args.image_size, 3)))
    targets = rng.dirichlet(np.ones(3), size=args.batch)

    def loss_fn():
        probs = model_forward(images, params, model_cfg, training=False)
        return kl_loss(probs, targets, params, model_cfg.loss)

    result = finite_difference_check(loss_fn, params, n_probes=args.probes, rng=rng)
    worst = result.worst()
    print(f"probed {args.probes} parameters: max relative error {result.max_rel_error:.3e}")
    print(f"worst: {worst.name}[{worst.index}] analytic {worst.analytic:.6e} "
          f"numeric {worst.numeric:.6e}")
    if result.max_rel_error >= args.threshold:
        print(f"FAIL: exceeds threshold {args.threshold:g}", file=sys.stderr)
        return 1
    print(f"OK: below threshold {args.threshold:g}")
    return 0


def cmd_plot(args) -> int:
    history = load_history(args.history)
    out = _out_dir(args)
    svg_path = out / "curves.svg"
    write_atomic(svg_path, history_svg(history))
    write_manifest(out, "plot", {}, {"history": args.history}, [svg_path])
    print(f"wrote {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenekit",
        description="Scene classification: augmentation, attention pooling, "
                    "training strategies, PROD fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p, data=True):
        if data:
            p.add_argument("--data", required=True, help="dataset root directory")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a model")
    common_io(p)
    p.add_argument("--config", type=Path, default=None, help="config file")
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--strategy", choices=("direct", "transfer"), dest="train.strategy")
    p.add_argument("--from", dest="source", default=None,
                   help="source checkpoint for transfer learning")
    p.add_argument("--pool", choices=("attention", "avg", "max"), dest="model.pool")
    p.add_argument("--pool-mode", choices=("average", "max"), dest="attention.stream_pool_mode")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--learning-rate", type=float, dest="train.learning_rate")
    p.add_argument("--crop-reduction", type=int, dest="train.crop_reduction")
    p.add_argument("--erase-size", type=int, dest="train.erase_size")
    p.add_argument("--num-heads", type=int, dest="attention.num_heads")
    p.add_argument("--key-dim", type=int, dest="attention.key_dim")
    p.add_argument("--hidden-width", type=int, dest="head.hidden_width")
    p.add_argument("--train-fraction", type=float, default=None,
                   help="optional split applied before training")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--log-timing", action="store_true",
                   help="record wall-clock seconds in history.txt "
                        "(breaks byte-reproducibility)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common_io(p)
    p.add_argument("--from", dest="source", required=True, help="checkpoint path")
    p.add_argument("--train-fraction", type=float, default=None)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--subset", choices=("train", "test"), default="test")
    p.add_argument("--crop-reduction", type=int, default=None,
                   help="override the center-crop (default: training value)")
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="PROD-fuse probability matrices")
    p.add_argument("--probs", nargs="+", required=True, help="probability matrix files")
    p.add_argument("--labels", default=None, help="labels file for accuracy reporting")
    p.add_argument("--normalized", action="store_true",
                   help="renormalize fused scores for reporting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("split", help="write train/test membership lists")
    common_io(p)
    p.add_argument("--train-fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("augment-preview", help="write before/after augmentation images")
    common_io(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--crop", type=int, default=10)
    p.add_argument("--erase", type=int, default=20)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", choices=("attention", "avg", "max"), default="attention")
    p.add_argument("--pool-mode", choices=("average", "max"), default="average")
    p.add_argument("--image-size", type=int, default=8)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plot", help="emit accuracy/loss curves as SVG")
    p.add_argument("--history", required=True, help="history.txt from train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input ends it with one ``error:`` line on stderr, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, ConfigError, DatasetError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
