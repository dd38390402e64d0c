"""End-to-end CLI runs on a tiny synthetic dataset tree."""

import json

import numpy as np
import pytest

from scenekit.cli import main
from scenekit.data import load_dataset, write_dataset_tree
from scenekit.fusion import load_probability_matrix
from scenekit.synthetic import four_class_dataset
from scenekit.trainer import load_history

CONFIG_TEXT = """\
[backbone]
stages = 8:2:2, 12:2:2

[attention]
num_heads = 2
key_dim = 4

[head]
hidden_width = 16

[train]
epochs = 2
batch_size = 8
crop_reduction = 2
erase_size = 3
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_dataset_tree(four_class_dataset(per_class=4, size=12, seed=2), root)
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "desk.cfg"
    path.write_text(CONFIG_TEXT)
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir, config_file):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(data_dir), "--config", str(config_file),
                 "--seed", "3", "--out", str(out), "--quiet"])
    assert code == 0
    return out


class TestTrainCommand:
    def test_artifacts_written(self, trained_dir):
        assert (trained_dir / "checkpoint.ckpt").exists()
        assert (trained_dir / "history.txt").exists()
        assert (trained_dir / "manifest.json").exists()

    def test_history_has_one_line_per_epoch(self, trained_dir):
        history = load_history(trained_dir / "history.txt")
        assert len(history) == 2

    def test_manifest_lists_outputs_with_digests(self, trained_dir):
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert set(manifest["outputs"]) == {"checkpoint.ckpt", "history.txt"}
        for digest in manifest["outputs"].values():
            assert len(digest) == 64
        assert manifest["settings"]["config"]["train"]["seed"] == "3"

    def test_flag_overrides_config(self, data_dir, config_file, tmp_path):
        out = tmp_path / "override"
        code = main(["train", "--data", str(data_dir), "--config", str(config_file),
                     "--epochs", "1", "--out", str(out), "--quiet"])
        assert code == 0
        assert len(load_history(out / "history.txt")) == 1

    def test_transfer_requires_source(self, data_dir, config_file, tmp_path):
        code = main(["train", "--data", str(data_dir), "--config", str(config_file),
                     "--strategy", "transfer", "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2


class TestEvalCommand:
    def test_probs_and_labels_written(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--data", str(data_dir),
                     "--from", str(trained_dir / "checkpoint.ckpt"),
                     "--out", str(out)])
        assert code == 0
        probs, ids = load_probability_matrix(out / "probs.txt")
        ds = load_dataset(data_dir)
        assert probs.shape == (len(ds), ds.num_classes)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        labels = (out / "labels.txt").read_text().strip().splitlines()
        assert len(labels) == len(ids)

    def test_split_subset(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "eval_test"
        code = main(["eval", "--data", str(data_dir),
                     "--from", str(trained_dir / "checkpoint.ckpt"),
                     "--train-fraction", "0.5", "--subset", "test",
                     "--out", str(out)])
        assert code == 0
        probs, _ = load_probability_matrix(out / "probs.txt")
        assert probs.shape[0] == 8  # half of 16 images


class TestFuseCommand:
    def test_fuse_two_models_with_report(self, data_dir, trained_dir, tmp_path):
        eval_dir = tmp_path / "e1"
        main(["eval", "--data", str(data_dir),
              "--from", str(trained_dir / "checkpoint.ckpt"), "--out", str(eval_dir)])
        out = tmp_path / "fused"
        code = main(["fuse", "--probs", str(eval_dir / "probs.txt"),
                     str(eval_dir / "probs.txt"),
                     "--labels", str(eval_dir / "labels.txt"),
                     "--out", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert report.startswith("Pooling layers")
        fused, _ = load_probability_matrix(out / "fused.txt")
        single, _ = load_probability_matrix(eval_dir / "probs.txt")
        assert np.array_equal(fused.argmax(axis=1), single.argmax(axis=1))

    def test_fused_rows_keep_example_ids(self, data_dir, trained_dir, tmp_path):
        eval_dir = tmp_path / "e1"
        main(["eval", "--data", str(data_dir),
              "--from", str(trained_dir / "checkpoint.ckpt"), "--out", str(eval_dir)])
        out = tmp_path / "fused"
        # Normalized, so that the fused matrix is itself a valid fuse input.
        assert main(["fuse", "--probs", str(eval_dir / "probs.txt"),
                     str(eval_dir / "probs.txt"), "--normalized", "--out", str(out)]) == 0
        _, fused_ids = load_probability_matrix(out / "fused.txt")
        _, eval_ids = load_probability_matrix(eval_dir / "probs.txt")
        assert fused_ids == eval_ids
        code = main(["fuse", "--probs", str(out / "fused.txt"), str(eval_dir / "probs.txt"),
                     "--labels", str(eval_dir / "labels.txt"),
                     "--out", str(tmp_path / "refused")])
        assert code == 0

    @pytest.mark.parametrize("swapped", ["probs.txt", "labels.txt"])
    def test_rows_in_another_order_rejected(self, data_dir, trained_dir, tmp_path,
                                            capsys, swapped):
        eval_dir = tmp_path / "e1"
        main(["eval", "--data", str(data_dir),
              "--from", str(trained_dir / "checkpoint.ckpt"), "--out", str(eval_dir)])
        other = tmp_path / "e2"
        other.mkdir()
        for name in ("probs.txt", "labels.txt"):
            lines = (eval_dir / name).read_text().splitlines()
            if name == swapped:
                first = 1 if lines[0].startswith("#") else 0
                lines[first], lines[first + 1] = lines[first + 1], lines[first]
            (other / name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "fused"
        code = main(["fuse", "--probs", str(eval_dir / "probs.txt"), str(other / "probs.txt"),
                     "--labels", str(other / "labels.txt"), "--out", str(out)])
        assert code == 2
        assert str(other / swapped) in capsys.readouterr().err
        assert not (out / "fused.txt").exists()


class TestBadInput:
    """Every command reports bad input as one ``error:`` line and exit code 2."""

    def _assert_one_error_line(self, capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for fragment in fragments:
            assert fragment in err

    @pytest.mark.parametrize("command", [
        ["train", "--epochs", "1", "--quiet"],
        ["eval", "--from", "CKPT"],
        ["augment-preview"],
    ])
    def test_empty_class_directory(self, trained_dir, config_file, tmp_path, capsys,
                                   command):
        root = tmp_path / "tree"
        write_dataset_tree(four_class_dataset(per_class=2, size=12, seed=2), root)
        (root / "empty").mkdir()
        args = [str(trained_dir / "checkpoint.ckpt") if a == "CKPT" else a for a in command]
        if command[0] == "train":
            args += ["--config", str(config_file)]
        code = main([*args, "--data", str(root), "--out", str(tmp_path / "out")])
        assert code == 2
        self._assert_one_error_line(capsys, "empty", "no images")

    def test_config_without_section_header(self, data_dir, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = 2\n")
        code = main(["train", "--data", str(data_dir), "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        self._assert_one_error_line(capsys, str(path), "no section headers")

    def test_damaged_checkpoint(self, data_dir, trained_dir, tmp_path, capsys):
        path = tmp_path / "cut.ckpt"
        path.write_bytes((trained_dir / "checkpoint.ckpt").read_bytes()[:-20])
        code = main(["eval", "--data", str(data_dir), "--from", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        self._assert_one_error_line(capsys, str(path), "digest")

    def test_missing_checkpoint(self, data_dir, tmp_path, capsys):
        path = tmp_path / "nothere.ckpt"
        code = main(["eval", "--data", str(data_dir), "--from", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        self._assert_one_error_line(capsys, str(path), "cannot read")

    def test_fuse_different_class_counts(self, tmp_path, capsys):
        two, three = tmp_path / "two.txt", tmp_path / "three.txt"
        two.write_text("a/0 0.25 0.75\na/1 0.5 0.5\n")
        three.write_text("a/0 0.2 0.3 0.5\na/1 0.1 0.1 0.8\n")
        out = tmp_path / "out"
        assert main(["fuse", "--probs", str(two), str(three), "--out", str(out)]) == 2
        self._assert_one_error_line(capsys, str(two), str(three), "shape")
        assert not (out / "fused.txt").exists()

    def test_refuse_unnormalised_output(self, data_dir, trained_dir, tmp_path, capsys):
        eval_dir, out = tmp_path / "e1", tmp_path / "fused"
        main(["eval", "--data", str(data_dir),
              "--from", str(trained_dir / "checkpoint.ckpt"), "--out", str(eval_dir)])
        probs = str(eval_dir / "probs.txt")
        assert main(["fuse", "--probs", probs, probs, "--out", str(out)]) == 0
        capsys.readouterr()
        fused = str(out / "fused.txt")
        assert main(["fuse", "--probs", fused, probs, "--out", str(tmp_path / "again")]) == 2
        self._assert_one_error_line(capsys, fused, "sum to 1")

    @pytest.mark.parametrize("command", [
        ["split", "--train-fraction", "1.5"],
        ["train", "--train-fraction", "0", "--quiet"],
        ["eval", "--from", "CKPT", "--train-fraction", "0"],
    ])
    def test_fraction_out_of_range(self, data_dir, trained_dir, tmp_path, capsys, command):
        args = [str(trained_dir / "checkpoint.ckpt") if a == "CKPT" else a for a in command]
        with pytest.raises(SystemExit) as info:
            main([*args, "--data", str(data_dir), "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        self._assert_one_error_line(capsys, "--train-fraction", "(0, 1)")

    def test_batch_larger_than_training_split(self, data_dir, config_file, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir), "--config", str(config_file),
                     "--batch-size", "64", "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        self._assert_one_error_line(capsys, "smaller than one batch of 64")

    def test_ragged_probability_file(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text("a/0 0.5 0.5\na/1 1.0\n")
        code = main(["fuse", "--probs", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        self._assert_one_error_line(capsys, f"{path}:2:")


class TestSplitCommand:
    def test_membership_lists(self, data_dir, tmp_path):
        out = tmp_path / "split"
        code = main(["split", "--data", str(data_dir), "--train-fraction", "0.25",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        train_lines = (out / "train.txt").read_text().strip().splitlines()
        test_lines = (out / "test.txt").read_text().strip().splitlines()
        assert len(train_lines) == 4  # 1 of 4 per class
        assert len(test_lines) == 12
        assert not set(train_lines) & set(test_lines)

    def test_empty_class_directory_rejected(self, data_dir, tmp_path, capsys):
        root = tmp_path / "tree"
        write_dataset_tree(four_class_dataset(per_class=2, size=4, seed=2), root)
        (root / "empty").mkdir()
        code = main(["split", "--data", str(root), "--train-fraction", "0.5",
                     "--out", str(tmp_path / "split")])
        assert code == 2
        assert "no images" in capsys.readouterr().err

    def test_same_seed_same_membership(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["split", "--data", str(data_dir), "--train-fraction", "0.5",
                  "--seed", "9", "--out", str(out)])
            outs.append((out / "train.txt").read_text())
        assert outs[0] == outs[1]


class TestAugmentPreviewCommand:
    def test_writes_previews(self, data_dir, tmp_path):
        out = tmp_path / "preview"
        code = main(["augment-preview", "--data", str(data_dir), "--seed", "4",
                     "--count", "2", "--crop", "2", "--erase", "3",
                     "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "example00_original.ppm" in names
        assert "example00_rot90.ppm" in names
        assert "example00_erased.ppm" in names
        assert "mixup00.ppm" in names
        assert "manifest.json" in names


class TestGradcheckCommand:
    def test_passes_threshold(self, capsys):
        code = main(["gradcheck", "--probes", "25", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out


class TestPlotCommand:
    def test_svg_written(self, trained_dir, tmp_path):
        out = tmp_path / "plots"
        code = main(["plot", "--history", str(trained_dir / "history.txt"),
                     "--out", str(out)])
        assert code == 0
        svg = (out / "curves.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
