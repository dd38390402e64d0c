"""Dict round trips for the frozen config dataclasses, derived from their fields.

Every config type (trunk, attention, head, loss, model, training)
lists its fields once, in its dataclass; ``to_dict``/``from_dict`` and
the config-file reader work from that list. This module imports nothing
from scenekit, so every config module can use it.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing


class ConfigError(ValueError):
    """A setting, or a pair of settings and inputs, that cannot be run."""


@functools.cache
def field_types(cls: type) -> dict[str, typing.Any]:
    """Field name -> resolved annotation, in declaration order.

    Annotations are strings under ``from __future__ import annotations``;
    resolving them costs far more than a ``from_dict`` call, so it is done
    once per class.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def optional_inner(tp) -> typing.Any | None:
    """``X`` when ``tp`` is ``X | None``, else None."""
    if isinstance(tp, types.UnionType):
        inner = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(inner) == 1:
            return inner[0]
    return None


def _loader(tp) -> typing.Callable:
    if isinstance(tp, type) and issubclass(tp, ConfigDict):
        return tp.from_dict
    if typing.get_origin(tp) is tuple:  # tuple[Item, ...], stored as field-value lists
        item = typing.get_args(tp)[0]
        return lambda rows: tuple(item(*row) for row in rows)
    inner = optional_inner(tp)
    if inner is not None:
        load = _loader(inner)
        return lambda value: None if value is None else load(value)
    return tp


@functools.cache
def _loaders(cls: type) -> tuple[tuple[str, typing.Callable], ...]:
    return tuple((name, _loader(tp)) for name, tp in field_types(cls).items())


def _dump(value):
    if isinstance(value, ConfigDict):
        return value.to_dict()
    if isinstance(value, tuple):
        return [[getattr(item, name) for name in field_types(type(item))] for item in value]
    return value


class ConfigDict:
    """Mixin: ``to_dict``/``from_dict`` for a dataclass, one key per field.

    Nested configs become nested dicts and a tuple of small dataclasses
    (the backbone stages) a list of field-value lists. ``from_dict`` casts
    each value by its field's type, needs every field and ignores other
    keys, such as the ``concat_axis`` that older checkpoints carry.
    """

    def to_dict(self) -> dict:
        return {name: _dump(getattr(self, name)) for name in field_types(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{name: load(d[name]) for name, load in _loaders(cls)})
