"""PPM codec, dataset ingestion, splits, and checkpoint persistence."""

import numpy as np
import pytest

from scenekit.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from scenekit.data import (
    Dataset,
    DatasetError,
    decode_ppm,
    encode_ppm,
    load_dataset,
    split,
    split_indices,
    write_dataset_tree,
    write_ppm,
)
from scenekit.model import desk_model_config, init_params
from scenekit.synthetic import constant_class_dataset, four_class_dataset


class TestPpmCodec:
    def test_round_trip_quantized_exactly(self):
        rng = np.random.default_rng(0)
        img = np.round(rng.random((7, 5, 3)) * 255.0) / 255.0
        out = decode_ppm(encode_ppm(img))
        assert out.shape == img.shape
        assert np.array_equal(out, img)

    def test_header_comments_skipped(self):
        img = np.zeros((2, 2, 3))
        blob = encode_ppm(img)
        commented = blob.replace(b"P6\n", b"P6\n# a comment line\n", 1)
        assert np.array_equal(decode_ppm(commented), img)

    def test_dimensions_parsed_as_width_height(self):
        img = np.zeros((4, 2, 3))  # 4 wide, 2 tall
        blob = encode_ppm(img)
        assert b"4 2" in blob.split(b"\n", 3)[1] + b" " + blob.split(b"\n", 3)[1]
        assert decode_ppm(blob).shape == (4, 2, 3)

    def test_truncated_payload_rejected(self):
        blob = encode_ppm(np.zeros((4, 4, 3)))
        with pytest.raises(DatasetError, match="truncated"):
            decode_ppm(blob[:-5])

    def test_wrong_magic_rejected(self):
        with pytest.raises(DatasetError, match="P6"):
            decode_ppm(b"P3\n2 2\n255\n" + b"\x00" * 12)

    def test_pixel_values_scaled_to_unit_interval(self):
        raster = bytes(range(12))
        blob = b"P6\n2 2\n255\n" + raster
        img = decode_ppm(blob)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img[0, 0, 0] == 0.0
        assert abs(img[1, 1, 2] - 11 / 255) < 1e-15


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(DatasetError, match="labels"):
            Dataset(("a",), np.zeros((3, 2, 2, 3)), np.zeros(2, dtype=np.int64))

    def test_labels_out_of_range_rejected(self):
        for bad in (2, -1):
            with pytest.raises(DatasetError, match="range"):
                Dataset(("a", "b"), np.zeros((2, 2, 2, 3)), np.array([0, bad]))

    def test_images_must_be_rank_four(self):
        with pytest.raises(DatasetError, match=r"\[N, W, H, C\]"):
            Dataset(("a",), np.zeros((2, 2, 3)), np.zeros(2, dtype=np.int64))

    def test_arrays_are_read_only_and_shared(self):
        ds = four_class_dataset(per_class=2, size=4)
        images, labels = ds.to_arrays()
        assert images is ds.images and labels is ds.labels
        with pytest.raises(ValueError):
            ds.images[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1


class TestLoadDataset:
    def _write_tree(self, root, classes=("forest", "lake"), counts=(3, 4), size=6):
        rng = np.random.default_rng(1)
        for name, count in zip(classes, counts):
            d = root / name
            d.mkdir(parents=True)
            for i in range(count):
                write_ppm(rng.random((size, size, 3)), d / f"img{i}.ppm")

    def test_loads_classes_in_sorted_order(self, tmp_path):
        self._write_tree(tmp_path, classes=("zulu", "alpha"), counts=(2, 2))
        ds = load_dataset(tmp_path)
        assert ds.class_names == ("alpha", "zulu")
        assert ds.class_counts() == [2, 2]

    def test_single_class_single_image(self, tmp_path):
        (tmp_path / "only").mkdir()
        write_ppm(np.zeros((4, 4, 3)), tmp_path / "only" / "a.ppm")
        ds = load_dataset(tmp_path)
        assert len(ds) == 1

    def test_empty_class_directory_rejected(self, tmp_path):
        self._write_tree(tmp_path)
        (tmp_path / "empty").mkdir()
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(tmp_path)

    def test_corrupt_file_names_path(self, tmp_path):
        self._write_tree(tmp_path)
        bad = tmp_path / "forest" / "bad.ppm"
        bad.write_bytes(b"not a ppm")
        with pytest.raises(DatasetError, match="bad.ppm"):
            load_dataset(tmp_path)

    def test_inconsistent_dimensions_rejected(self, tmp_path):
        self._write_tree(tmp_path, size=6)
        write_ppm(np.zeros((5, 5, 3)), tmp_path / "forest" / "odd.ppm")
        with pytest.raises(DatasetError, match="shape"):
            load_dataset(tmp_path)

    def test_round_trip_through_tree(self, tmp_path):
        ds = four_class_dataset(per_class=3, size=8)
        write_dataset_tree(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.class_names == ds.class_names
        assert loaded.class_counts() == ds.class_counts()


class TestSplit:
    def test_benchmark_fractions_on_45x700(self):
        ds = constant_class_dataset(45, 700, size=2)
        train, test = split(ds, 0.2, seed=0)
        assert train.class_counts() == [140] * 45
        assert test.class_counts() == [560] * 45
        train, test = split(ds, 0.1, seed=0)
        assert train.class_counts() == [70] * 45
        assert test.class_counts() == [630] * 45

    def test_same_seed_identical_membership(self):
        memberships_a = split_indices([10, 7, 13], 0.3, np.random.default_rng(42))
        memberships_b = split_indices([10, 7, 13], 0.3, np.random.default_rng(42))
        for (ta, ea), (tb, eb) in zip(memberships_a, memberships_b):
            assert np.array_equal(ta, tb)
            assert np.array_equal(ea, eb)

    def test_different_seed_differs(self):
        a = split_indices([50], 0.5, np.random.default_rng(1))[0][0]
        b = split_indices([50], 0.5, np.random.default_rng(2))[0][0]
        assert not np.array_equal(a, b)

    def test_disjoint_and_exhaustive(self):
        for train_idx, test_idx in split_indices([17, 9], 0.4, np.random.default_rng(3)):
            joined = np.concatenate([train_idx, test_idx])
            assert len(np.unique(joined)) == len(joined)
            assert set(joined.tolist()) == set(range(len(joined)))

    def test_at_least_one_train_item(self):
        (train_idx, _), = split_indices([6], 0.01, np.random.default_rng(4))
        assert len(train_idx) == 1

    def test_floor_is_a_parameter(self):
        (held, kept), = split_indices([6], 0.01, np.random.default_rng(4), min_first=0)
        assert len(held) == 0 and len(kept) == 6
        (held, kept), = split_indices([6], 0.0, np.random.default_rng(4), min_first=0)
        assert len(held) == 0 and len(kept) == 6

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            split_indices([10], 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            split_indices([10], 1.0, np.random.default_rng(0), min_first=0)


class TestCheckpoint:
    def _checkpoint(self, seed=0):
        cfg = desk_model_config(num_classes=3, hidden_width=8)
        params = init_params(cfg, "direct", rng=np.random.default_rng(seed))
        return Checkpoint(model=cfg, params=params,
                          metadata={"seed": seed, "epochs": 0, "final": {}})

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = self._checkpoint()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tensors_round_trip_bit_exact(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.params.names() == ckpt.params.names()
        for name, t in ckpt.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes()
        assert loaded.metadata == ckpt.metadata

    def test_payload_tamper_detected(self, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(self._checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(self._checkpoint(), path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        import hashlib

        path = tmp_path / "f.ckpt"
        blob = checkpoint_bytes(self._checkpoint())
        body = blob[:-8].replace(b"scenekit-checkpoint 1", b"scenekit-checkpoint 9", 1)
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_model_config_round_trips(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "g.ckpt"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).model == ckpt.model

    @pytest.mark.parametrize("damage", [
        {"drop": "tensors"}, {"drop": "model"}, {"drop": "metadata"},
        {"pool": "bogus"},  # ModelConfig.from_dict rejects it
    ])
    def test_header_missing_or_bad_field_rejected(self, tmp_path, damage):
        import hashlib
        import json

        blob = checkpoint_bytes(self._checkpoint())[:-8]
        magic, length, rest = blob.split(b"\n", 2)
        header = json.loads(rest[:int(length)])
        if "drop" in damage:
            del header[damage["drop"]]
        else:
            header["model"]["pool"] = damage["pool"]
        encoded = json.dumps(header).encode()
        body = b"%s\n%d\n%s%s" % (magic, len(encoded), encoded, rest[int(length):])
        path = tmp_path / "bad.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(CheckpointError, match="bad.ckpt: malformed header"):
            load_checkpoint(path)

    def test_header_with_concat_axis_loads(self, tmp_path):
        # Files written before concat_axis was removed carry it in the header.
        import hashlib

        ckpt = self._checkpoint()
        blob = checkpoint_bytes(ckpt)[:-8]
        magic, length, rest = blob.split(b"\n", 2)
        header = rest[:int(length)].replace(b'"attention":{', b'"attention":{"concat_axis":"channel",')
        assert header != rest[:int(length)]
        body = b"%s\n%d\n%s%s" % (magic, len(header), header, rest[int(length):])
        path = tmp_path / "h.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        loaded = load_checkpoint(path)
        assert loaded.model == ckpt.model
        assert loaded.params["head.fc2.w"].data.tobytes() == ckpt.params["head.fc2.w"].data.tobytes()
