"""Named collections of trainable parameter tensors."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor


class ModelParams:
    """Ordered mapping from parameter name to a gradient-tracked Tensor.

    Insertion order is the canonical serialization order, so it must be
    deterministic for a given model configuration.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def copy(self) -> "ModelParams":
        out = ModelParams()
        for name, t in self._params.items():
            out.add(name, t.data.copy())
        return out
