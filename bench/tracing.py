"""Spans around scenekit's public functions, recorded from outside the program.

``Tracer.install()`` replaces each function listed in ``TRACED`` in the
module namespace its callers look it up in, with a wrapper that records
a span (name, start, end, parent) in memory; ``uninstall()`` puts the
originals back. A layer's self time is its span's duration minus the
time its child spans cover. The backward pass is one ``backward`` call,
so per-layer backward times come from ``layer_backward_ms``, which runs
each layer alone on a cut graph.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from scenekit import checkpoint, cli, model, params, tensor, trainer
from scenekit.attention import attention_pool
from scenekit.backbone import backbone_forward
from scenekit.head import kl_loss, l2_penalty, mlp_forward
from scenekit.model import ModelConfig

# (module, attribute, span name). Each entry patches the namespace the
# caller resolves the name in, so cli.evaluate and trainer.evaluate are
# separate entries.
TRACED = [
    (trainer, "model_forward", "model.forward"),
    (trainer, "kl_loss", "head.loss"),
    (trainer, "backward", "tensor.backward"),
    (trainer, "optimizer_step", "trainer.optimizer"),
    (trainer, "evaluate", "trainer.evaluate"),
    (params.ModelParams, "zero_grads", "params.zero_grads"),
    (model, "backbone_forward", "backbone.forward"),
    (model, "attention_pool", "attention.forward"),
    (model, "mlp_forward", "head.forward"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (cli, "load_checkpoint", "checkpoint.load"),
    (cli, "evaluate", "eval.evaluate"),
    (cli, "load_dataset", "data.load_dataset"),
    (cli, "save_probability_matrix", "fusion.save_probs"),
    (cli, "load_probability_matrix", "fusion.load_probs"),
    (cli, "prod_fuse", "fusion.prod_fuse"),
    (cli, "write_manifest", "cli.manifest"),
]

# Per-layer metric -> span whose median self time it reports.
SELF_TIME_METRICS = {
    "augment.batch_ms": "augment.batch",
    "backbone.forward_ms": "backbone.forward",
    "attention.forward_ms": "attention.forward",
    "head.forward_ms": "head.forward",
    "head.loss_ms": "head.loss",
    "tensor.backward_ms": "tensor.backward",
    "trainer.optimizer_ms": "trainer.optimizer",
    "params.zero_grads_ms": "params.zero_grads",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "data.load_dataset_ms": "data.load_dataset",
    "fusion.save_probs_ms": "fusion.save_probs",
    "fusion.load_probs_ms": "fusion.load_probs",
    "fusion.prod_fuse_ms": "fusion.prod_fuse",
    "cli.manifest_ms": "cli.manifest",
}

# Tape ops one training step records on every workload.
STEP_OPS = ("add", "concat", "conv2d", "kl_div_logits", "matmul", "mul", "pool_avg",
            "relu", "reshape", "scale", "softmax_last", "sum", "transpose")


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        now = time.perf_counter()
        while self._stack:  # also closes spans an exception left open
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def _top(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A training step runs from zero_grads to the end of optimizer_step.
            if name == "params.zero_grads" and self._top() == "trainer.train":
                self.begin("trainer.step")
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                if name == "trainer.optimizer" and self._top() == "trainer.step":
                    self.end(self._stack[-1])
        return traced

    def _wrap_batches(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self.begin("augment.batch")
                try:
                    item = next(items)
                except StopIteration:
                    self.spans[index][0] = "augment.exhausted"
                    return
                finally:
                    self.end(index)
                yield item
        return traced

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        original = trainer.training_batches
        self._saved.append((trainer, "training_batches", original))
        trainer.training_batches = self._wrap_batches(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self time in ms of each closed span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            if end is not None:
                out.setdefault(name, []).append(1e3 * (end - start - child))
        return out

    def durations(self, name: str) -> list[float]:
        return [1e3 * (e - s) for n, s, e, _ in self.spans if n == name and e is not None]


def count_nodes(loss: tensor.Tensor) -> Counter:
    """Tape nodes reachable from ``loss``, by op, walking ``node.inputs``."""
    counts: Counter = Counter()
    seen = {id(loss)}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.node is None:
            continue
        counts[t.node.op] += 1
        for inp in t.node.inputs:
            if id(inp) not in seen:
                seen.add(id(inp))
                stack.append(inp)
    return counts


def _seed_node(out: tensor.Tensor, rng: np.random.Generator) -> tensor.Tensor:
    """A scalar whose backward hands a fixed random gradient to ``out``."""
    grad = rng.standard_normal(out.shape)
    return tensor.from_op("seed", (out,), np.asarray(0.0), lambda g: (grad,))


def layer_backward_ms(cfg: ModelConfig, model_params: params.ModelParams,
                      images: np.ndarray, rng: np.random.Generator,
                      reps: int) -> dict[str, float]:
    """Median backward ms of each layer run alone at a training batch's shapes.

    Each layer's input is a fresh leaf that needs a gradient, as the layer
    below would in training, and its output gets a random upstream gradient.
    """
    fmap = backbone_forward(tensor.Tensor(images), model_params, cfg.backbone)
    feats = attention_pool(fmap, cfg.attention, model_params)
    graphs = {
        "backbone.backward_ms": lambda: _seed_node(
            backbone_forward(tensor.Tensor(images), model_params, cfg.backbone), rng),
        "attention.backward_ms": lambda: _seed_node(attention_pool(
            tensor.Tensor(fmap.data, requires_grad=True), cfg.attention, model_params), rng),
        "head.backward_ms": lambda: _seed_node(mlp_forward(
            tensor.Tensor(feats.data, requires_grad=True), model_params, cfg.head,
            training=True, rng=rng).logits, rng),
        "head.l2_backward_ms": lambda: tensor.scale(l2_penalty(model_params),
                                                    cfg.loss.lam / 2.0),
    }
    out = {}
    for metric, build in graphs.items():
        times = []
        for _ in range(reps):
            root = build()
            model_params.zero_grads()
            t0 = time.perf_counter()
            tensor.backward(root)
            times.append(1e3 * (time.perf_counter() - t0))
        out[metric] = float(np.median(times))
    return out


def step_nodes(cfg: ModelConfig, model_params: params.ModelParams, batch,
               rng: np.random.Generator) -> dict[str, float]:
    """Tape node counts of one training step's loss, in total and by op."""
    probs = model.model_forward(tensor.Tensor(batch.images), model_params, cfg,
                                training=True, rng=rng)
    counts = count_nodes(kl_loss(probs, batch.labels, model_params, cfg.loss))
    out = {"tensor.nodes_per_step": float(sum(counts.values()))}
    out.update({f"tensor.nodes.{op}": float(counts[op]) for op in STEP_OPS})
    return out
