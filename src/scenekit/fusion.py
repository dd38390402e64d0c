"""PROD late fusion of per-model class probabilities, plus accuracy.

The fused score for class c is (1/N) * prod_n p_nc per example. Scores
are not renormalized (the product rule does not normalize); a
normalized view exists for reporting only. Products run in log space
with a 1e-30 floor so many-model, many-class fusions cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .files import TableError, read_table, write_atomic

UNDERFLOW_FLOOR = 1e-30


@dataclass
class FusionInput:
    """Aligned [examples, C] probability matrices from N models."""

    probabilities: list[np.ndarray]
    model_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.probabilities:
            raise ValueError("FusionInput needs at least one probability matrix")
        if not self.model_ids:
            self.model_ids = [f"model{i}" for i in range(len(self.probabilities))]
        if len(self.model_ids) != len(self.probabilities):
            raise ValueError("model_ids and probability matrices differ in count")
        shape = self.probabilities[0].shape
        for i, mat in enumerate(self.probabilities):
            if mat.ndim != 2 or mat.shape != shape:
                raise ValueError(
                    f"matrix {self.model_ids[i]} has shape {mat.shape}, expected {shape}")
            if mat.min() < 0.0:
                raise ValueError(f"matrix {self.model_ids[i]} has negative entries")
            off = np.abs(mat.sum(axis=1) - 1.0).max()
            if off > 1e-6:
                raise ValueError(
                    f"matrix {self.model_ids[i]} rows must sum to 1 (off by {off:.3g})")

    @property
    def num_models(self) -> int:
        return len(self.probabilities)


def prod_fuse(inputs: FusionInput, normalized: bool = False) -> np.ndarray:
    """Per-class product of the N models' probabilities, scaled by 1/N."""
    n = inputs.num_models
    if n == 1:
        fused = inputs.probabilities[0].copy()
    else:
        stack = np.stack(inputs.probabilities)
        logs = np.log(np.maximum(stack, UNDERFLOW_FLOOR)).sum(axis=0)
        fused = np.exp(logs) / n
    if normalized:
        fused = fused / fused.sum(axis=1, keepdims=True)
    return fused


def predict_label(scores: np.ndarray) -> np.ndarray:
    """Row argmax; ties resolve to the lowest class index."""
    scores = np.asarray(scores)
    if not np.isfinite(scores).all():
        raise ValueError("predict_label: scores must be finite")
    return scores.argmax(axis=-1)


def accuracy(predicted: np.ndarray, true_labels: np.ndarray) -> float:
    """Percentage of matching labels."""
    predicted = np.asarray(predicted)
    true_labels = np.asarray(true_labels)
    if predicted.shape != true_labels.shape:
        raise ValueError(f"label arrays differ: {predicted.shape} vs {true_labels.shape}")
    if predicted.size == 0:
        raise ValueError("accuracy of an empty label set is undefined")
    return 100.0 * float((predicted == true_labels).mean())


# --- probability matrix files ----------------------------------------------
#
# A table (see files.py) with one row per example: the example id, then
# C probabilities.

def save_probability_matrix(probs: np.ndarray, path: Path,
                            ids: list[str] | None = None) -> None:
    probs = np.asarray(probs)
    ids = ids or [str(i) for i in range(probs.shape[0])]
    lines = [f"# columns: id then {probs.shape[1]} class probabilities"]
    for ex_id, row in zip(ids, probs):
        lines.append(ex_id + " " + " ".join(repr(float(v)) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def load_probability_matrix(path: Path) -> tuple[np.ndarray, list[str]]:
    rows = read_table(path, (str,), float)
    if not rows:
        raise TableError(f"{path}: no probability rows found")
    return np.array([values for _, values in rows]), [ex_id for ex_id, _ in rows]


def format_fusion_report(columns: list[dict]) -> str:
    """Text table in the shape of the pooling/network/accuracy comparison.

    Each column dict carries 'pooling', 'networks', and 'acc' keys.
    """
    headers = ["Pooling layers", "Networks", "Acc.(%)"]
    rows = [
        [c["pooling"] for c in columns],
        [c["networks"] for c in columns],
        [f"{c['acc']:.1f}" for c in columns],
    ]
    col_widths = [max(len(rows[r][c]) for r in range(3)) for c in range(len(columns))]
    label_width = max(len(h) for h in headers)
    lines = []
    for label, row in zip(headers, rows):
        cells = [row[c].ljust(col_widths[c]) for c in range(len(columns))]
        lines.append(f"{label.ljust(label_width)} | " + " | ".join(cells))
    return "\n".join(lines) + "\n"
