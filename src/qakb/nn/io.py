"""Model snapshots: a parameter table plus a JSON sidecar.

A model snapshot is two files.  The ``.nn`` file is a
:data:`qakb.container.MODEL` container (magic ``NNQA3``, checksummed)
of named float64 arrays, one per parameter (a recurrent cell's ``W``,
``U`` and ``b`` whole).  Its ``.meta.json`` sidecar holds the model's
``kind`` and what is needed to rebuild it (vocabulary, config, ...).

:func:`save_model` and :func:`load_model` handle both files for any
:class:`Model` subclass that gives a ``kind`` class attribute and a
``layout(meta)`` classmethod, the one place that states a model's parts.
``layout`` reads the payload's vocabulary, config and variant and
returns the model's plain fields (its ``cfg``, a matcher's ``name``, a
joint model's ``variant`` and the sidecar ``payload`` itself, vocabulary
as the table's tokens) and its parts, in order.  A part is one tuple
``(attribute, layer class, name, *args)``, whose ``args`` every layer
reads alike: ``shapes(name, *args)``, ``draw(rng, name, *args)`` and the
constructor ``layer(params, name, *args)`` (see :mod:`qakb.nn.layers`).
One routine, ``_build``, serves :func:`load_model` and
:func:`new_model`: it sets the plain fields and each part, built from a
table of arrays, so a model's ``parameters()`` are its parts' in layout
order and its ``meta()`` is the payload.  A load reads the sidecar and
its layout first, then the table in one pass, checks that the table
names exactly the parts' parameters, each in its shape, and builds every
part around the table's arrays: it draws no random number and copies no
array again.  :func:`new_model`, which training calls, has each part
draw its arrays from a generator, in order.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from qakb import container
from qakb.errors import ParseError, ShapeMismatch
from qakb.nn.tensor import Tensor


def meta_path(path: str) -> str:
    return path + ".meta.json"


def read_model_meta(path: str, kind: str) -> dict:
    """The sidecar of a snapshot; ParseError when it is not a JSON object
    or nests too deep to decode, ValueError when it describes another kind
    of model."""
    with open(meta_path(path), "rb", buffering=0) as fh:
        raw = fh.read()
    try:
        meta = json.loads(raw.decode("utf-8"))
    # UnicodeDecodeError, JSONDecodeError, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{meta_path(path)}: not JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path(path)}: not a JSON object")
    if meta.get("kind") != kind:
        raise ValueError(
            f"model at {path} is a {meta.get('kind')!r}, expected {kind!r}"
        )
    return meta


def save_params(params: dict[str, Tensor], path: str) -> None:
    """Write a named parameter table, a :data:`container.MODEL` container
    of float64 arrays with no fields, entries sorted for stable bytes."""
    container.write(path, container.MODEL, {}, {
        name: np.asarray(params[name].data, dtype="<f8")
        for name in sorted(params)})


def load_params(path: str) -> dict[str, np.ndarray]:
    """Read a table written by :func:`save_params`: each parameter one
    owned, writable, aligned array; ParseError when the file is not a
    model container (see :func:`container.read`)."""
    return container.read(path, container.MODEL)[1]


def check_params(shapes: dict[str, tuple[int, ...]],
                 loaded: dict[str, np.ndarray]) -> None:
    """ShapeMismatch unless a loaded table holds exactly the parameters
    that ``shapes`` names, each in its shape."""
    for names, what in ((set(shapes) - set(loaded), "lacks parameters"),
                        (set(loaded) - set(shapes),
                         "holds parameters the model lacks")):
        if names:
            raise ShapeMismatch(f"snapshot {what}: {sorted(names)}")
    for name, shape in shapes.items():
        if loaded[name].shape != shape:
            raise ShapeMismatch(f"parameter {name!r}: snapshot shape "
                                f"{loaded[name].shape}, model shape {shape}")


class Model:
    """A model built by :func:`load_model` or :func:`new_model` from its
    class's layout."""

    def parameters(self) -> dict[str, Tensor]:
        """Every part's parameters, by name, in layout order."""
        return {key: p for part in self.parts
                for key, p in part.parameters().items()}

    def meta(self) -> dict:
        """The snapshot sidecar's payload."""
        return self.payload


def _build(cls, fields: dict, parts: list[tuple], arrays):
    """The model of class ``cls`` with the plain ``fields`` and the
    ``parts`` its ``layout`` gives, each part built from
    ``arrays(layer, name, *args)``, a table that holds the part's
    arrays."""
    model = cls.__new__(cls)
    vars(model).update(fields, parts=[])
    for attribute, layer, *args in parts:
        part = layer(arrays(layer, *args), *args)
        setattr(model, attribute, part)
        model.parts.append(part)
    return model


def save_model(model: Model, path: str) -> None:
    """Write a model's parameters to ``path`` and its sidecar beside it,
    creating the directory if need be."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_params(model.parameters(), path)
    meta = {"kind": model.kind, **model.meta()}
    with open(meta_path(path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")))


# a model whose parameters need more bytes than a 64-bit process can
# address (x86-64's 47-bit user space) cannot be built
MAX_MODEL_BYTES = 2 ** 47


def load_model(cls, path: str):
    """The model of class ``cls`` saved at ``path`` by :func:`save_model`,
    built from the arrays the table holds.

    ParseError when either file is not a snapshot or the sidecar lacks a
    field, holds one of the wrong type or describes a model too large to
    build, ValueError when the sidecar names another kind or an invalid
    config, ShapeMismatch when the parameters do not fit the model the
    sidecar describes.  The sidecar is checked before the table is read.
    """
    meta = read_model_meta(path, cls.kind)
    try:
        fields, parts = cls.layout(meta)
        shapes = {name: shape for _, layer, *args in parts
                  for name, shape in layer.shapes(*args).items()}
        size = 8 * sum(math.prod(shape) for shape in shapes.values())
        if size > MAX_MODEL_BYTES:
            raise MemoryError(f"its parameters need {size} bytes")
    except (KeyError, TypeError, IndexError, MemoryError) as exc:
        raise ParseError(
            f"{meta_path(path)}: malformed payload ({exc!r})") from exc
    params = load_params(path)
    check_params(shapes, params)
    return _build(cls, fields, parts, lambda *part: params)


def new_model(cls, meta: dict, rng: np.random.Generator):
    """A new model of class ``cls`` for the ``meta()`` payload ``meta``,
    as training starts it: each part of its layout draws its arrays from
    ``rng`` in order."""
    return _build(cls, *cls.layout(meta),
                  lambda layer, *args: layer.draw(rng, *args))
