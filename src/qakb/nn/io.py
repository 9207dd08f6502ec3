"""Model snapshots: a parameter table plus a JSON sidecar.

A model snapshot is two files.  The ``.nn`` file (magic ``NNQA1``) is a
little-endian table of named float64 arrays — per entry a
length-prefixed UTF-8 name, the rank, the dims as uint32, then the raw
C-order data.  Its ``.meta.json`` sidecar holds the model's ``kind`` and
what is needed to rebuild it (vocabulary, config, ...).

:func:`save_model` and :func:`load_model` handle both files for any model
class that gives a ``kind`` class attribute, a ``meta()`` payload, a
``from_meta(meta)`` constructor and ``parameters()``.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct

import numpy as np

from qakb.errors import ParseError, ShapeMismatch
from qakb.nn.tensor import Tensor

MODEL_MAGIC = b"NNQA1"


def meta_path(path: str) -> str:
    return path + ".meta.json"


def read_model_meta(path: str, kind: str) -> dict:
    """The sidecar of a snapshot; ParseError when it is not a JSON object,
    ValueError when it describes another kind of model."""
    with open(meta_path(path), "rb") as fh:
        raw = fh.read()
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ParseError(f"{meta_path(path)}: not JSON ({exc})", 1) from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path(path)}: not a JSON object", 1)
    if meta.get("kind") != kind:
        raise ValueError(
            f"model at {path} is a {meta.get('kind')!r}, expected {kind!r}"
        )
    return meta


def save_params(params: dict[str, Tensor], path: str) -> None:
    """Write a named parameter table; entries are sorted for stable bytes."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            # ascontiguousarray would widen 0-d params to (1,); keep the
            # recorded rank faithful so restore can check exact shapes.
            data = np.asarray(params[name].data, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


def load_params(path: str) -> dict[str, np.ndarray]:
    """Read a table written by :func:`save_params`; ParseError when the
    bytes are not one or name a parameter twice."""
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)
    magic = buf.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise ParseError(f"bad model header {magic!r}", 1)
    out: dict[str, np.ndarray] = {}
    try:
        (count,) = struct.unpack("<I", buf.read(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", buf.read(2))
            name = buf.read(name_len).decode("utf-8")
            if name in out:
                raise ParseError(f"parameter {name!r} appears twice", 1)
            (ndim,) = struct.unpack("<B", buf.read(1))
            shape = tuple(
                struct.unpack("<I", buf.read(4))[0] for _ in range(ndim)
            )
            size = math.prod(shape)
            if size * 8 > len(data) - buf.tell():
                raise ParseError(f"truncated data for parameter {name!r}", 1)
            raw = buf.read(size * 8)
            try:
                arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
            except ValueError as exc:  # over 64 dims, or a zero-size shape
                # whose other dims overflow numpy's size
                raise ParseError(
                    f"bad shape {shape} for parameter {name!r}", 1
                ) from exc
            out[name] = arr.copy()
    except (struct.error, UnicodeDecodeError) as exc:
        raise ParseError(f"truncated or garbled snapshot ({exc})", 1) from exc
    return out


def restore_params(params: dict[str, Tensor], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into live tensors; ShapeMismatch unless the
    snapshot holds exactly the model's parameters, each in its shape."""
    missing = sorted(set(params) - set(loaded))
    if missing:
        raise ShapeMismatch(f"snapshot lacks parameters: {missing}")
    unexpected = sorted(set(loaded) - set(params))
    if unexpected:
        raise ShapeMismatch(f"snapshot holds parameters the model lacks: "
                            f"{unexpected}")
    for name, tensor in params.items():
        arr = loaded[name]
        if arr.shape != tensor.data.shape:
            raise ShapeMismatch(
                f"parameter {name!r}: snapshot shape {arr.shape}, "
                f"model shape {tensor.data.shape}"
            )
        tensor.data[...] = arr


def save_model(model, path: str) -> None:
    """Write a model's parameters to ``path`` and its sidecar beside it,
    creating the directory if need be."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_params(model.parameters(), path)
    meta = {"kind": model.kind, **model.meta()}
    with open(meta_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")))


def load_model(cls, path: str):
    """The model of class ``cls`` saved at ``path`` by :func:`save_model`.

    ParseError when either file is not a snapshot or the sidecar lacks a
    field or holds one of the wrong type, ValueError when the sidecar
    names another kind or an invalid config, ShapeMismatch when the
    parameters do not fit the model the sidecar describes.
    """
    meta = read_model_meta(path, cls.kind)
    try:
        model = cls.from_meta(meta)
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(
            f"{meta_path(path)}: malformed payload ({exc!r})", 1) from exc
    restore_params(model.parameters(), load_params(path))
    return model
