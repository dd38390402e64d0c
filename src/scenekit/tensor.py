"""Dense float64 tensors with reverse-mode differentiation.

Every operation computes a forward value and, when gradient tracking is
active, records a tape node holding a vector-Jacobian closure. Calling
:func:`backward` on a scalar result walks the tape in reverse topological
order and accumulates gradients into every tracked leaf tensor.
"""

from __future__ import annotations

import contextlib
import struct
from typing import Callable, Sequence

import numpy as np

MAX_RANK = 4


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """An operation received or produced non-finite values it cannot accept."""


class AutodiffError(RuntimeError):
    """Misuse of the tape, e.g. backward through an untracked tensor."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class TapeNode:
    """One recorded operation: inputs plus the backward (VJP) rule.

    ``vjp(grad_out)`` returns one gradient array per input, aligned with
    ``inputs``; entries may be None for inputs that need no gradient.
    Forward values needed by the rule are captured in the closure.
    """

    __slots__ = ("op", "inputs", "vjp")

    def __init__(self, op: str, inputs: tuple["Tensor", ...],
                 vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.op = op
        self.inputs = inputs
        self.vjp = vjp


class Tensor:
    """Dense N-dimensional float64 array, row-major, rank <= 4.

    Leaf tensors created with ``requires_grad=True`` are parameters: after
    :func:`backward` their ``grad`` holds dLoss/dParam (accumulated
    additively across calls until :meth:`zero_grad`).
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # asarray with order="C", not ascontiguousarray: the latter
        # silently promotes rank-0 arrays to rank 1.
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"all extents must be >= 1, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = np.zeros_like(arr) if requires_grad else None
        self.node: TapeNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def tracked(self) -> bool:
        """True when this tensor participates in gradient computation."""
        return self.requires_grad or self.node is not None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def sum(self) -> "Tensor":
        return tensor_sum(self)


def from_op(op: str, inputs: Sequence[Tensor], data: np.ndarray,
            vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Wrap a forward result, registering a tape node when tracking is on.

    Extension point for modules adding fused operations (convolution,
    KL divergence): they supply the forward array and the VJP closure.
    A VJP may return ``g`` itself or views of it, but must never write
    into ``g`` or into an array it has returned: :func:`backward` keeps
    returned arrays as they are and may hand one to several consumers.
    """
    out = Tensor(data)
    if _grad_enabled and any(t.tracked() for t in inputs):
        out.node = TapeNode(op, tuple(inputs), vjp)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcast axes so ``grad`` matches ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_addable(a: Tensor, b: Tensor, op: str) -> None:
    # Only suffix-style broadcasting is supported: equal shapes, a scalar
    # side, or one shape equal to a trailing slice of the other.
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if big[len(big) - len(small):] == small:
        return
    raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_addable(a, b, "add")

    def vjp(g: np.ndarray):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return from_op("add", (a, b), a.data + b.data, vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; same restricted broadcasting as add."""
    _check_addable(a, b, "mul")
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return from_op("mul", (a, b), ad * bd, vjp)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g: np.ndarray):
        return (g * c,)

    return from_op("scale", (x,), x.data * c, vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def vjp(g: np.ndarray):
        return (g * mask,)

    return from_op("relu", (x,), np.where(mask, x.data, 0.0), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, batched over leading axes.

    Leading extents must agree exactly, or one operand has none (rank 2).
    """
    sa, sb = a.shape, b.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner extents disagree between {sa} and {sb}")
    if len(sa) > 2 and len(sb) > 2 and sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul: batch extents disagree between {sa} and {sb}")
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray):
        ga = gb = None
        if a.tracked():
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa)
        if b.tracked() and len(sa) > 2 and len(sb) == 2:
            # A weight shared across leading axes: fold them into rows, so
            # its gradient is one GEMM, not a batch of products summed after.
            gb = ad.reshape(-1, sb[0]).T @ g.reshape(-1, sb[1])
        elif b.tracked():
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)
        return ga, gb

    return from_op("matmul", (a, b), ad @ bd, vjp)


def softmax_last(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilised by max subtraction."""
    if x.shape[-1] < 1:
        raise ShapeError("softmax_last needs a non-empty last axis")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax_last received non-finite input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: np.ndarray):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return from_op("softmax_last", (x,), out, vjp)


def pool_axis(x: Tensor, axis: int, mode: str) -> Tensor:
    """Reduce one axis by mean or maximum; output rank drops by one.

    Max-pooling routes the gradient to the first maximal element along
    the axis, which keeps backward deterministic on ties.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"pool_axis: axis {axis} invalid for shape {x.shape}")
    axis = axis % x.ndim
    xd = x.data
    if mode == "average":
        n = xd.shape[axis]

        def vjp(g: np.ndarray):
            return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

        return from_op("pool_avg", (x,), xd.mean(axis=axis), vjp)
    if mode == "max":
        idx = np.expand_dims(np.argmax(xd, axis=axis), axis)

        def vjp(g: np.ndarray):
            gx = np.zeros_like(xd)
            np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis=axis)
            return (gx,)

        return from_op("pool_max", (x,), xd.max(axis=axis), vjp)
    raise ValueError(f"pool_axis: unknown mode {mode!r}")


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; all other extents must match."""
    if not xs:
        raise ShapeError("concat of an empty list")
    first = xs[0].shape
    if not -len(first) <= axis < len(first):
        raise ShapeError(f"concat: axis {axis} invalid for shape {first}")
    axis = axis % len(first)
    for t in xs[1:]:
        s = t.shape
        if len(s) != len(first) or any(
                i != axis and s[i] != first[i] for i in range(len(first))):
            raise ShapeError(f"concat: off-axis extents differ between {first} and {s}")
    sizes = [t.shape[axis] for t in xs]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g: np.ndarray):
        return np.split(g, offsets, axis=axis)

    return from_op("concat", tuple(xs), np.concatenate([t.data for t in xs], axis=axis), vjp)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """A view of ``x`` when its data is contiguous; no op writes its output."""
    old = x.shape

    def vjp(g: np.ndarray):
        return (g.reshape(old),)

    return from_op("reshape", (x,), x.data.reshape(shape), vjp)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def vjp(g: np.ndarray):
        return (np.transpose(g, inverse),)

    # Tensor stores row-major data, so it copies this view once.
    return from_op("transpose", (x,), np.transpose(x.data, axes), vjp)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a rank-0 tensor."""
    shape = x.shape

    def vjp(g: np.ndarray):
        return (np.full(shape, float(g)),)

    return from_op("sum", (x,), np.asarray(x.data.sum()), vjp)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS; returns nodes with inputs before outputs.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if id(inp) not in seen:
                    stack.append((inp, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dParam into every tracked leaf reachable from ``loss``.

    ``loss`` must be a single-element tensor produced under grad tracking
    (or itself a tracked leaf). Gradients add across repeated parameter
    uses and across successive backward calls.
    """
    if not loss.tracked():
        raise AutodiffError("backward called on an untracked tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for t in reversed(_topo_order(loss)):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g.reshape(t.data.shape)
        if t.node is None:
            continue
        for inp, gi in zip(t.node.inputs, t.node.vjp(g)):
            if gi is None or not inp.tracked():
                continue
            # Never in place: gi may be a view of g, or an array another
            # input also received (from_op's contract).
            prev = grads.get(id(inp))
            grads[id(inp)] = gi if prev is None else prev + gi


# --- binary serialization -------------------------------------------------
#
# Record layout: rank as u64 little-endian, then each extent as u64
# little-endian, then the elements as float64 little-endian in row-major
# order. Used inside checkpoints.

def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64, order="C")
    header = struct.pack("<Q", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + arr.astype("<f8").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one record starting at ``offset``; returns (array, next offset)."""
    if len(buf) < offset + 8:
        raise ValueError("tensor record truncated in rank field")
    (rank,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    if rank > MAX_RANK:
        raise ValueError(f"tensor record rank {rank} exceeds maximum {MAX_RANK}")
    if len(buf) < offset + 8 * rank:
        raise ValueError("tensor record truncated in extents")
    shape = struct.unpack_from(f"<{rank}Q", buf, offset)
    offset += 8 * rank
    count = 1
    for e in shape:
        count *= e
    nbytes = 8 * count
    if len(buf) < offset + nbytes:
        raise ValueError("tensor record truncated in payload")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).reshape(shape)
    return data.astype(np.float64, copy=True), offset + nbytes
