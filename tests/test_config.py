"""Config types: dict round trips and the config-file reader, both derived
from the dataclass fields."""

from pathlib import Path

import pytest

from scenekit.attention import AttentionConfig
from scenekit.backbone import BackboneConfig, ConvStage
from scenekit.config import KNOWN_KEYS, ConfigBundle, ConfigError
from scenekit.head import HeadConfig, LossConfig
from scenekit.model import ModelConfig, desk_model_config
from scenekit.trainer import TrainConfig

DESK_DICT = {
    "backbone": {"stages": [[16, 2, 2], [32, 2, 2], [32, 2, 2]]},
    "attention": {"num_heads": 4, "key_dim": 16, "stream_pool_mode": "average"},
    "head": {"hidden_width": 128, "dropout_rate": 0.2, "num_classes": 4},
    "loss": {"lam": 0.0001, "epsilon": 1e-12},
    "pool": "attention",
}

FULL_SCALE_DICT = {
    "backbone": {"stages": [[16, 2, 2], [32, 2, 2], [32, 2, 2]]},
    "attention": {"num_heads": 16, "key_dim": 128, "stream_pool_mode": "average"},
    "head": {"hidden_width": 4096, "dropout_rate": 0.2, "num_classes": 45},
    "loss": {"lam": 0.0001, "epsilon": 1e-12},
    "pool": "attention",
}

TRAIN_DICT = {
    "strategy": "direct",
    "learning_rate": 0.0003,
    "batch_size": 32,
    "epochs": 10,
    "seed": 0,
    "crop_reduction": 10,
    "erase_size": 20,
    "val_fraction": 0.1,
    "patience": 5,
    "val_acc_target": None,
}


class TestToDict:
    def test_desk_model(self):
        assert desk_model_config(num_classes=4).to_dict() == DESK_DICT

    def test_full_scale_model(self):
        assert ModelConfig().to_dict() == FULL_SCALE_DICT

    def test_train_config(self):
        assert TrainConfig(patience=5, learning_rate=3e-4).to_dict() == TRAIN_DICT

    def test_key_order_follows_fields(self):
        assert list(ModelConfig().to_dict()) == list(FULL_SCALE_DICT)
        assert list(TrainConfig().to_dict()) == list(TRAIN_DICT)


class TestFromDict:
    @pytest.mark.parametrize("cfg", [
        BackboneConfig(stages=(ConvStage(6, 3, 1), ConvStage(8, 2, 2))),
        AttentionConfig(num_heads=2, key_dim=4, stream_pool_mode="max"),
        HeadConfig(hidden_width=16, dropout_rate=0.0, num_classes=3),
        LossConfig(lam=0.0, epsilon=1e-9),
        TrainConfig(val_fraction=0.0, crop_reduction=0, erase_size=0),
        ModelConfig(pool="max"),
        desk_model_config(num_classes=4),
        TrainConfig(),
        TrainConfig(strategy="transfer", learning_rate=1e-3, patience=2,
                    val_acc_target=90.0),
    ])
    def test_round_trip(self, cfg):
        assert type(cfg).from_dict(cfg.to_dict()) == cfg

    def test_values_cast_by_field_type(self):
        d = dict(DESK_DICT,
                 head={"hidden_width": 128.0, "dropout_rate": "0.2", "num_classes": "4"})
        cfg = ModelConfig.from_dict(d)
        assert cfg == desk_model_config(num_classes=4)
        assert type(cfg.head.hidden_width) is int

    def test_legacy_concat_axis_ignored(self):
        # Older checkpoint headers carry these three fields, all since removed.
        legacy = dict(FULL_SCALE_DICT, zero_init_biases=False,
                      backbone=dict(FULL_SCALE_DICT["backbone"], in_channels=3),
                      attention=dict(FULL_SCALE_DICT["attention"], concat_axis="channel"))
        assert ModelConfig.from_dict(legacy) == ModelConfig()

    def test_missing_field_rejected(self):
        with pytest.raises(KeyError):
            HeadConfig.from_dict({"hidden_width": 8, "num_classes": 3})


class TestConfigBundle:
    def test_no_file_gives_dataclass_defaults(self):
        bundle = ConfigBundle()
        assert bundle.model_config(num_classes=7) == ModelConfig(head=HeadConfig(num_classes=7))
        assert bundle.train_config() == TrainConfig()

    def test_file_values_parsed_by_field_type(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "[backbone]\nstages = 8:3:1, 12:2:2\n"
            "[attention]\nnum_heads = 2\nstream_pool_mode = max\n"
            "[loss]\nlambda = 0.5\n"
            "[model]\npool = max\n"
            "[train]\nlearning_rate = none\npatience = 4\nval_acc_target =\n")
        bundle = ConfigBundle(path)
        model = bundle.model_config()
        assert model.backbone.stages == (ConvStage(8, 3, 1), ConvStage(12, 2, 2))
        assert model.attention == AttentionConfig(num_heads=2, stream_pool_mode="max")
        assert model.loss.lam == 0.5
        assert model.pool == "max"
        assert model.head.num_classes == 45
        train = bundle.train_config()
        assert train.learning_rate is None and train.val_acc_target is None
        assert train.patience == 4

    def test_num_classes_argument_wins_over_file(self):
        bundle = ConfigBundle()
        bundle.override("head", "num_classes", 9)
        assert bundle.model_config().head.num_classes == 9
        assert bundle.model_config(num_classes=3).head.num_classes == 3

    def test_override_reaches_config(self):
        bundle = ConfigBundle()
        bundle.override("train", "learning_rate", 0.01)
        bundle.override("head", "hidden_width", 32)
        assert bundle.train_config().learning_rate == 0.01
        assert bundle.model_config().head.hidden_width == 32

    @pytest.mark.parametrize("section, key, raw", [
        ("train", "epochs", "ten"),
        ("model", "pool", "bogus"),  # parses, then ModelConfig rejects it
        ("backbone", "stages", "8:2"),
        ("train", "patience", "x"),
        ("train", "batch_size", "1"),  # parses, then TrainConfig rejects it
    ])
    def test_bad_value_rejected(self, section, key, raw):
        bundle = ConfigBundle()
        bundle.override(section, key, raw)
        build = bundle.train_config if section == "train" else bundle.model_config
        with pytest.raises(ConfigError):
            build()

    def test_unknown_keys_rejected(self, tmp_path):
        assert "lambda" in KNOWN_KEYS["loss"] and "lam" not in KNOWN_KEYS["loss"]
        assert "concat_axis" not in KNOWN_KEYS["attention"]
        with pytest.raises(ConfigError):
            ConfigBundle().override("attention", "concat_axis", "channel")
        path = tmp_path / "typo.cfg"
        path.write_text("[head]\nhidden_wdth = 8\n")
        with pytest.raises(ConfigError, match="hidden_wdth"):
            ConfigBundle(path)

    @pytest.mark.parametrize("text", [
        "[mixup]\nbeta_alpha = 0.3\n",
        "[train]\noptimizer = sgd\n",
        "[train]\nerase_fill = 0.5\n",
        "[model]\nzero_init_biases = yes\n",
        "[backbone]\nin_channels = 1\n",
    ])
    def test_removed_settings_rejected(self, tmp_path, text):
        path = tmp_path / "old.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown"):
            ConfigBundle(path)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        bundle = ConfigBundle(path)
        assert bundle.model_config() == ModelConfig()
        assert bundle.train_config() == TrainConfig(epochs=50)

    def test_file_without_section_header_rejected(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text("epochs = 3\n")
        with pytest.raises(ConfigError, match="no section headers") as info:
            ConfigBundle(path)
        assert "\n" not in str(info.value)
