"""Named collections of trainable parameter tensors.

The parameters of a collection live in one contiguous float64 buffer for
the values and one for the gradients. Each parameter's ``data`` and
``grad`` are reshaped views into them, so a whole-model operation (Adam,
the L2 term, zeroing the gradients) is a few ufuncs over two flat arrays.
The views contract: write through ``t.data`` and ``t.grad`` (``t.data -=
...``, ``t.grad[...] = ...``), never rebind them, or the tensor leaves
the buffer.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor


class ModelParams:
    """Ordered mapping from parameter name to a gradient-tracked Tensor.

    Insertion order is the canonical serialization order, so it must be
    deterministic for a given model configuration. It is also the order
    of the tensors inside the flat buffers.

    The buffers are packed on first use (:meth:`flat`), not on
    :meth:`add`: a checkpoint load or an evaluation never pays for the
    copy. An :meth:`add` after packing re-packs at the next use, keeping
    every value and gradient.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        self._flat = None
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

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The (values, gradients) buffers, packing the parameters into them first
        if an :meth:`add` came after the last pack."""
        if self._flat is None:
            size = sum(t.data.size for t in self._params.values())
            data, grad = np.empty(size), np.empty(size)
            for t, d, g in zip(self._params.values(), self.views(data), self.views(grad)):
                d[...] = t.data
                g[...] = t.grad
                t.data, t.grad = d, g
            self._flat = data, grad
        return self._flat

    def views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """``buffer``, a flat array laid out like :meth:`flat`'s, cut into one
        view per parameter, shaped like it and in insertion order."""
        out, start = [], 0
        for t in self._params.values():
            out.append(buffer[start:start + t.data.size].reshape(t.shape))
            start += t.data.size
        return out

    def zero_grads(self) -> None:
        self.flat()[1].fill(0.0)

    def copy(self) -> "ModelParams":
        """Independent parameters with the same values, packed, gradients zero."""
        out = ModelParams()
        for name, t in self._params.items():
            out.add(name, t.data)
        out.flat()  # the pack copies each value into the new buffer
        return out
