"""Plain-text configuration files and flag overrides.

Files use INI-style sections mirroring the config types, e.g.::

    [backbone]
    stages = 16:2:2, 32:2:2, 32:2:2

    [train]
    strategy = direct
    epochs = 50

Every command-line flag overrides its config key. Unknown sections or
keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import typing
from pathlib import Path

from .attention import AttentionConfig
from .backbone import BackboneConfig, ConvStage
from .configdict import ConfigDict, field_types, optional_inner
from .head import HeadConfig, LossConfig
from .model import ModelConfig
from .trainer import TrainConfig

SECTIONS: dict[str, type] = {
    "backbone": BackboneConfig,
    "attention": AttentionConfig,
    "head": HeadConfig,
    "loss": LossConfig,
    "model": ModelConfig,
    "train": TrainConfig,
}
FILE_KEYS = {("loss", "lam"): "lambda"}  # (section, field) -> key, where they differ


class ConfigError(ValueError):
    pass


def _parse_stages(text: str) -> tuple[ConvStage, ...]:
    stages = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ConfigError(f"stage {part.strip()!r} must be channels:kernel:stride")
        stages.append(ConvStage(int(fields[0]), int(fields[1]), int(fields[2])))
    if not stages:
        raise ConfigError("backbone stages list is empty")
    return tuple(stages)


def _parser(tp) -> typing.Callable[[str], typing.Any]:
    if typing.get_origin(tp) is tuple:
        return _parse_stages
    inner = optional_inner(tp)
    if inner is not None:
        parse = _parser(inner)
        return lambda text: None if text.strip().lower() in ("", "none") else parse(text)
    return tp


def _section_fields(section: str) -> dict[str, tuple[str, typing.Any]]:
    """File key -> (field name, type) for each field that is not a nested config."""
    return {FILE_KEYS.get((section, name), name): (name, tp)
            for name, tp in field_types(SECTIONS[section]).items()
            if not (isinstance(tp, type) and issubclass(tp, ConfigDict))}


KNOWN_KEYS = {section: _section_fields(section) for section in SECTIONS}


def read_config_file(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(Path(path).read_text(), source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        out[section] = {}
        for key, value in parser.items(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            out[section][key] = value
    return out


class ConfigBundle:
    """Merged view of a config file plus command-line overrides.

    An unset key takes its config type's default, so an empty bundle
    gives the full-scale ``ModelConfig`` and ``TrainConfig`` defaults.
    """

    def __init__(self, file_path: Path | None = None):
        self.values: dict[str, dict[str, str]] = (
            read_config_file(file_path) if file_path else {})

    def override(self, section: str, key: str, value) -> None:
        if value is None:
            return
        if section not in KNOWN_KEYS or key not in KNOWN_KEYS[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        self.values.setdefault(section, {})[key] = str(value)

    def _build(self, section: str, **fixed):
        """The section's config from its set keys; ``fixed`` fields win."""
        kwargs = {}
        for key, (name, tp) in KNOWN_KEYS[section].items():
            raw = self.values.get(section, {}).get(key)
            if raw is None or name in fixed:
                continue
            try:
                kwargs[name] = _parser(tp)(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        try:
            return SECTIONS[section](**kwargs, **fixed)
        except ValueError as exc:  # the config type's own checks
            raise ConfigError(f"[{section}] {exc}") from exc

    def model_config(self, num_classes: int | None = None) -> ModelConfig:
        head = ({} if num_classes is None else {"num_classes": num_classes})
        return self._build(
            "model", backbone=self._build("backbone"), attention=self._build("attention"),
            head=self._build("head", **head), loss=self._build("loss"))

    def train_config(self) -> TrainConfig:
        return self._build("train")

    def resolved(self) -> dict:
        return {section: dict(keys) for section, keys in sorted(self.values.items())}
