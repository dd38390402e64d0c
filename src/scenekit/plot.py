"""Accuracy and loss curves as standalone SVG, no plotting dependency."""

from __future__ import annotations

from .trainer import TrainHistory

_PANEL_W, _PANEL_H = 560, 200
_MARGIN = 48


def _polyline(points: list[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>')


def _panel(values_by_name: dict[str, list[float]], epochs: list[int],
           y_top: float, y_label: str, offset_y: int, colors: dict[str, str]) -> list[str]:
    x0, y0 = _MARGIN, offset_y
    inner_w, inner_h = _PANEL_W - 2 * _MARGIN, _PANEL_H - 40
    max_epoch = max(epochs) if epochs else 1
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#999"/>',
        f'<text x="{x0 - 38}" y="{y0 + 12}" font-size="11">{y_top:g}</text>',
        f'<text x="{x0 - 38}" y="{y0 + inner_h}" font-size="11">0</text>',
        f'<text x="{x0}" y="{y0 + inner_h + 16}" font-size="11">epoch 1..{max_epoch}</text>',
        f'<text x="{x0 + inner_w - 60}" y="{y0 + 12}" font-size="11">{y_label}</text>',
    ]
    for name, values in values_by_name.items():
        pts = []
        for epoch, v in zip(epochs, values):
            fx = x0 + inner_w * ((epoch - 1) / max(1, max_epoch - 1) if max_epoch > 1 else 0.5)
            fy = y0 + inner_h * (1.0 - min(max(v / y_top, 0.0), 1.0) if y_top else 1.0)
            pts.append((fx, fy))
        parts.append(_polyline(pts, colors[name]))
        parts.append(f'<text x="{x0 + 6}" y="{y0 + 14 + 14 * list(values_by_name).index(name)}" '
                     f'font-size="11" fill="{colors[name]}">{name}</text>')
    return parts


def history_svg(history: TrainHistory) -> str:
    """Two stacked panels: loss on top, train/val accuracy below."""
    epochs = [r.epoch for r in history.records]
    losses = [r.loss for r in history.records]
    train_acc = [r.train_acc for r in history.records]
    val_acc = [r.val_acc for r in history.records]
    height = 2 * _PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" '
        f'height="{height}" viewBox="0 0 {_PANEL_W} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    loss_top = max(losses) * 1.05 if losses else 1.0
    parts += _panel({"loss": losses}, epochs, loss_top, "training loss", 20,
                    {"loss": "#c0392b"})
    parts += _panel({"train": train_acc, "val": val_acc}, epochs, 100.0,
                    "accuracy %", _PANEL_H + 20,
                    {"train": "#2980b9", "val": "#27ae60"})
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
