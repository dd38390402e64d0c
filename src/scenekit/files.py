"""Atomic file writes, and the whitespace table that history, probability
and label files share. This module imports nothing from scenekit."""

from __future__ import annotations

import os
from pathlib import Path


class TableError(ValueError):
    """An unreadable table file, or a row that does not fit the table."""


def read_table(path: Path, columns: tuple, rest=None) -> list[list]:
    """Rows of whitespace-separated fields, skipping blank and '#' lines. ``columns`` converts
    the leading fields; ``rest``, if given, the others, as one list that ends each row."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TableError(f"{path}: cannot read: {exc}") from exc
    rows, width = [], None
    for number, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if width is None:
            width = max(len(fields), len(columns) + 1) if rest else len(columns)
        if len(fields) != width:
            raise TableError(f"{path}:{number}: {len(fields)} fields, expected {width}")
        try:
            row = [convert(field) for convert, field in zip(columns, fields)]
            rows.append(row + [list(map(rest, fields[len(columns):]))] if rest else row)
        except ValueError as exc:
            raise TableError(f"{path}:{number}: {exc}") from exc
    return rows


def write_atomic(path: Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8) by renaming a temporary written
    beside it, as ``os.replace`` stays within one file system; no reader sees a part."""
    tmp = Path(f"{path}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:  # mode from the umask, as write_text's; truncates nothing
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
