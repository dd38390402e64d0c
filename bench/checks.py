"""Correctness and property checks, against plain-numpy recomputations.

Nothing here calls scenekit: each check takes the program's outputs and
the inputs they came from, recomputes what it can with numpy alone, and
returns a list of problems (empty when the check passes). The
``selfcheck.py`` script shows that every check fails on a perturbed
output.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances. Float64 results that differ only in summation order agree
# to ~1e-15 relative; each bound sits far above that and far below the
# perturbations selfcheck.py applies (1e-6 relative and up).
FORWARD_RTOL = 1e-9
FORWARD_ATOL = 1e-12
ADAM_RTOL = 1e-10
GRAD_TOL = 1e-4          # relative error of backward vs central differences
GRAD_FLOOR = 1e-3        # denominator floor, as in scenekit.gradcheck
GRAD_STEPS = (1e-5, 1e-6)  # a ReLU or max kink within one step skews that difference
ROW_SUM_TOL = 1e-9
BATCH_RTOL = 1e-12
BATCH_ATOL = 1e-15
FUSION_FLOOR = 1e-30     # the floor scenekit.fusion documents for PROD
FUSE_RTOL = 1e-9


def _close(name: str, got, want, rtol: float, atol: float, scale=None) -> list[str]:
    """|got - want| <= atol + rtol * scale, elementwise; scale defaults to |want|."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    err = np.abs(got - want)
    allowed = atol + rtol * (np.abs(want) if scale is None else scale)
    bad = err > allowed
    if bad.any():
        worst = np.unravel_index(int(np.argmax(err - allowed)), err.shape)
        return [f"{name}: {int(bad.sum())} entries differ from the reference, "
                f"worst at {worst}: {got[worst]!r} vs {want[worst]!r}"]
    return []


# --- reference forward pass -------------------------------------------------

def ref_conv_relu(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                  stride: int) -> np.ndarray:
    """Valid cross-correlation, one explicit window per output pixel, then ReLU."""
    b, w, h, _ = x.shape
    k = kernel.shape[0]
    w_out, h_out = (w - k) // stride + 1, (h - k) // stride + 1
    out = np.empty((b, w_out, h_out, kernel.shape[3]))
    for i in range(w_out):
        for j in range(h_out):
            window = x[:, i * stride:i * stride + k, j * stride:j * stride + k, :]
            out[:, i, j, :] = np.tensordot(window, kernel, axes=([1, 2, 3], [0, 1, 2]))
    return np.maximum(out + bias, 0.0)


def _pool(x: np.ndarray, axis: int, mode: str) -> np.ndarray:
    return x.mean(axis=axis) if mode == "average" else x.max(axis=axis)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ref_attention(seq: np.ndarray, p: dict, prefix: str, heads: int,
                  dim: int) -> np.ndarray:
    """Multihead self-attention over [B, L, C], one head at a time."""
    contexts = []
    for hd in range(heads):
        cols = slice(hd * dim, (hd + 1) * dim)
        q, k, v = (seq @ p[f"{prefix}.w{kind}"][:, cols] + p[f"{prefix}.b{kind}"][cols]
                   for kind in "qkv")
        weights = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dim))
        contexts.append(weights @ v)
    return np.concatenate(contexts, axis=-1) @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def ref_logits(cfg: dict, p: dict, images: np.ndarray) -> np.ndarray:
    """Logits [B, K] of the model described by ``ModelConfig.to_dict()``."""
    x = images
    for i, (_, _, stride) in enumerate(cfg["backbone"]["stages"]):
        x = ref_conv_relu(x, p[f"backbone.s{i}.kernel"], p[f"backbone.s{i}.bias"], stride)
    att = cfg["attention"]
    mode, heads, dim = att["stream_pool_mode"], att["num_heads"], att["key_dim"]
    width = _pool(ref_attention(_pool(x, 2, mode), p, "attn.w", heads, dim), 1, mode)
    height = _pool(ref_attention(_pool(x, 1, mode), p, "attn.h", heads, dim), 1, mode)
    feats = np.concatenate([width, height], axis=1)
    hidden = np.maximum(feats @ p["head.fc1.w"] + p["head.fc1.b"], 0.0)
    return hidden @ p["head.fc2.w"] + p["head.fc2.b"]


def ref_loss(logits: np.ndarray, targets: np.ndarray, p: dict, lam: float) -> float:
    """Batch-summed KL(target || softmax(logits)) plus (lam / 2) * sum of p^2."""
    y = targets
    y_log_y = np.where(y > 0.0, y * np.log(np.where(y > 0.0, y, 1.0)), 0.0)
    kl = float((y_log_y - y * _log_softmax(logits)).sum())
    return kl + lam / 2.0 * sum(float((a * a).sum()) for a in p.values())


def check_forward(cfg: dict, p: dict, images: np.ndarray, targets: np.ndarray,
                  probs: np.ndarray, loss: float) -> list[str]:
    """``model_forward`` probabilities and ``kl_loss`` value vs the reference."""
    logits = ref_logits(cfg, p, images)
    problems = _close("model_forward probabilities", probs, _softmax(logits),
                      FORWARD_RTOL, FORWARD_ATOL)
    return problems + _close("kl_loss", loss, ref_loss(logits, targets, p, cfg["loss"]["lam"]),
                             FORWARD_RTOL, 0.0)


# --- optimizer ---------------------------------------------------------------

def check_adam(before: dict, grads: dict, m0: dict, v0: dict, step: int,
               lr: float, beta1: float, beta2: float, eps: float,
               after: dict, m1: dict, v1: dict) -> list[str]:
    """One Adam update (textbook form) vs the program's parameters and moments.

    Each entry is compared on the scale of the terms that formed it, so
    a first moment that nearly cancels is not held to a relative bound.
    """
    problems = []
    for name, p in before.items():
        g = grads[name]
        m = beta1 * m0[name] + (1.0 - beta1) * g
        v = beta2 * v0[name] + (1.0 - beta2) * g * g
        update = lr * (m / (1.0 - beta1 ** step)) / (np.sqrt(v / (1.0 - beta2 ** step)) + eps)
        problems += _close(f"adam first moment {name}", m1[name], m, ADAM_RTOL, 0.0,
                           beta1 * np.abs(m0[name]) + (1.0 - beta1) * np.abs(g))
        problems += _close(f"adam second moment {name}", v1[name], v, ADAM_RTOL, 0.0)
        problems += _close(f"adam parameters {name}", after[name], p - update, ADAM_RTOL,
                           0.0, np.abs(p) + np.abs(update))
    return problems


# --- gradients ----------------------------------------------------------------

def check_gradients(probes: list[tuple[str, int, float, list[float]]]) -> list[str]:
    """(name, index, analytic, central differences) records within GRAD_TOL.

    An entry passes when the difference at any of GRAD_STEPS agrees: a
    kink of ReLU or max pooling lying within one step of the probed point
    skews that step's difference, while a wrong gradient misses them all.
    """
    problems = []
    for name, idx, analytic, numeric in probes:
        rel = min(abs(analytic - n) / max(abs(analytic), abs(n), GRAD_FLOOR) for n in numeric)
        if not rel < GRAD_TOL:
            problems.append(f"backward {name}[{idx}] = {analytic!r}, central "
                            f"differences {numeric!r} (relative error {rel:.3g})")
    return problems


# --- training properties -----------------------------------------------------

def check_loss_falls(losses: list[float]) -> list[str]:
    """Final-epoch mean loss below the first epoch's."""
    if len(losses) < 2 or not losses[-1] < losses[0]:
        return [f"loss did not fall over the epochs: {losses}"]
    return []


def check_above_chance(val_accs: list[float], num_classes: int, margin: float) -> list[str]:
    """Mean final validation accuracy (percent) at least chance + margin."""
    chance = 100.0 / num_classes
    mean = float(np.mean(val_accs))
    if not mean >= chance + margin:
        return [f"mean validation accuracy {mean:.2f}% is not {margin:g} points "
                f"above chance ({chance:.2f}%) over {len(val_accs)} models"]
    return []


def check_transfer_init(source: dict, init: dict) -> list[str]:
    """Trunk tensors copied bit for bit; every head tensor freshly drawn."""
    problems = []
    for name, a in init.items():
        same = name in source and source[name].tobytes() == a.tobytes()
        if name.startswith("head.") and same:
            problems.append(f"transfer init copied head tensor {name}")
        if not name.startswith("head.") and not same:
            problems.append(f"transfer init changed trunk tensor {name}")
    return problems


def check_roundtrip(saved: dict, loaded: dict, saved_bytes: bytes,
                    loaded_bytes: bytes) -> list[str]:
    """Loaded parameters equal the saved ones, and so do their serializations."""
    problems = []
    if list(saved) != list(loaded):
        problems.append("checkpoint round trip changed the tensor list")
    for name in saved:
        if name in loaded and saved[name].tobytes() != loaded[name].tobytes():
            problems.append(f"checkpoint round trip changed tensor {name}")
    if saved_bytes != loaded_bytes:
        problems.append("checkpoint_bytes differ after a round trip")
    return problems


# --- eval and fusion outputs --------------------------------------------------

def read_matrix(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a probability file: '#' comments, then 'id p1 ... pK' rows."""
    ids, rows = [], []
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split()
            ids.append(fields[0])
            rows.append([float(v) for v in fields[1:]])
    return ids, np.array(rows)


def read_labels(text: str) -> tuple[list[str], np.ndarray]:
    pairs = [line.split() for line in text.splitlines() if line.strip()]
    return [i for i, _ in pairs], np.array([int(l) for _, l in pairs])


def check_prob_rows(probs: np.ndarray) -> list[str]:
    """Every row finite, non-negative and summing to 1."""
    if probs.ndim != 2 or probs.shape[0] == 0:
        return [f"probability matrix has shape {probs.shape}"]
    if not np.isfinite(probs).all():
        return ["probability matrix has non-finite entries"]
    if probs.min() < 0.0:
        return ["probability matrix has negative entries"]
    off = np.abs(probs.sum(axis=1) - 1.0)
    if off.max() > ROW_SUM_TOL:
        return [f"{int((off > ROW_SUM_TOL).sum())} probability rows do not sum to 1 "
                f"(worst off by {off.max():.3g})"]
    return []


def check_eval(probs: np.ndarray, labels: np.ndarray, want_labels: np.ndarray,
               reported_acc: float) -> list[str]:
    """Eval output rows, its labels file, and the accuracy it reported."""
    problems = check_prob_rows(probs)
    if labels.shape != want_labels.shape or not np.array_equal(labels, want_labels):
        return problems + ["eval labels file does not match the dataset's labels"]
    if len(probs) != len(labels):
        return problems + ["eval wrote a different number of rows than labels"]
    acc = 100.0 * float((probs.argmax(axis=1) == labels).mean())
    if abs(acc - reported_acc) > 1e-9:
        problems.append(f"eval reported accuracy {reported_acc}%, its rows give {acc}%")
    return problems


def check_batch_invariance(a: np.ndarray, b: np.ndarray) -> list[str]:
    return _close("evaluate at two batch sizes", a, b, BATCH_RTOL, BATCH_ATOL)


def check_ppm(decoded: np.ndarray, generated: np.ndarray) -> list[str]:
    """Decoded pixels equal round(255 x) / 255 of the generated images."""
    want = np.round(np.clip(generated, 0.0, 1.0) * 255.0) / 255.0
    if decoded.shape != want.shape:
        return [f"decoded images {decoded.shape} vs generated {want.shape}"]
    bad = int((decoded != want).sum())
    return [f"{bad} decoded PPM values differ from round(255 x) / 255"] if bad else []


def brute_force_fuse(matrices: list[np.ndarray]) -> np.ndarray:
    """(1/N) * prod_n max(p_n, floor), one elementwise product at a time."""
    out = np.ones_like(matrices[0])
    for mat in matrices:
        out = out * np.maximum(mat, FUSION_FLOOR)
    return out / len(matrices)


def check_fuse(matrices: list[np.ndarray], labels: np.ndarray, fused: np.ndarray,
               reported_acc: float) -> list[str]:
    """Fused scores vs a brute-force product; reported accuracy vs their argmax.

    Scores within FUSE_RTOL of the product can only pick a class that ties
    the row's best to rounding, so the argmax needs no check of its own.
    """
    problems = _close("fused scores", fused, brute_force_fuse(matrices), FUSE_RTOL, 0.0)
    acc = 100.0 * float((fused.argmax(axis=1) == labels).mean())
    if abs(acc - reported_acc) > 1e-9:
        problems.append(f"fuse reported accuracy {reported_acc}%, its argmax gives {acc}%")
    return problems
