"""Checkpoint persistence: model config, parameters, training metadata.

File layout: a magic+version line, a decimal header-length line, a JSON
header (model config, metadata, tensor name order), the tensor records
in header order, and a trailing 8-byte digest (leading bytes of SHA-256
over everything before it). Round trips are byte-exact.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .files import write_atomic
from .model import ModelConfig
from .params import ModelParams
from .tensor import tensor_from_bytes, tensor_to_bytes

MAGIC = b"scenekit-checkpoint"
FORMAT_VERSION = 1
DIGEST_BYTES = 8
PREAMBLE = re.compile(re.escape(MAGIC) + rb" (\d+)\n(\d+)\n")  # version, header length


class CheckpointError(RuntimeError):
    """Malformed, truncated, tampered, or version-mismatched checkpoint."""


@dataclass
class Checkpoint:
    model: ModelConfig
    params: ModelParams
    metadata: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    header = {
        "model": ckpt.model.to_dict(),
        "metadata": ckpt.metadata,
        "tensors": ckpt.params.names(),
    }
    header_json = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts = [MAGIC + b" %d\n" % ckpt.version, b"%d\n" % len(header_json), header_json]
    parts += [tensor_to_bytes(t.data) for _, t in ckpt.params.items()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return b"".join([*parts, digest.digest()[:DIGEST_BYTES]])


def save_checkpoint(ckpt: Checkpoint, path: Path) -> None:
    write_atomic(path, checkpoint_bytes(ckpt))


def load_checkpoint(path: Path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc}") from exc
    end = len(raw) - DIGEST_BYTES  # the body is raw[:end]; it is never copied
    if end < 0:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    body = memoryview(raw)[:end]
    if hashlib.sha256(body).digest()[:DIGEST_BYTES] != raw[end:]:
        raise CheckpointError(f"{path}: digest mismatch, file corrupt or tampered")
    preamble = PREAMBLE.match(raw, 0, end)
    if preamble is None:
        raise CheckpointError(f"{path}: no checkpoint magic, format version and header length")
    version, header_len = int(preamble[1]), int(preamble[2])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}")
    pos = preamble.end() + header_len
    if end < pos:
        raise CheckpointError(f"{path}: truncated inside header")
    try:
        header = json.loads(raw[preamble.end():pos])
        names, metadata = list(header["tensors"]), header["metadata"]
        model = ModelConfig.from_dict(header["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc

    params = ModelParams()
    for name in names:
        try:
            data, pos = tensor_from_bytes(body, pos)
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor {name!r}: {exc}") from exc
        params.add(name, data)
    if pos != end:
        raise CheckpointError(f"{path}: {end - pos} unexpected trailing bytes")
    return Checkpoint(model=model, params=params, metadata=metadata, version=version)
