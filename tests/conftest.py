"""Shared fixtures: a small hand-built knowledge base used across
modules, a view of one gate's weights in a recurrent cell, and a graph
op that only tests build."""

import numpy as np
import pytest

from qakb.kb import Fact, build_kb
from qakb.nn.tensor import _make, as_tensor


@pytest.fixture()
def tiny_kb():
    """A handful of entities including a same-label pair ("germany").

    m.017hzy7 is a musical recording named "germany" (out-degree 1);
    m.0345h is the country with the same alias (out-degree 3), so the
    pair exercises every disambiguation path.
    """
    facts = [
        Fact("m.02mjmr", "/people/person/place_of_birth", "m.02hrh0_"),
        Fact("m.01hmylb", "/music/album/album_content_type", "m.06vw6v"),
        Fact("m.01hmylb", "/music/album/artist", "m.0p8h3"),
        Fact("m.017hzy7", "/music/recording/releases", "m.0rel01"),
        Fact("m.0345h", "/location/country/capital", "m.0k3p"),
        Fact("m.0345h", "/location/location/contains", "m.0cont1"),
        Fact("m.0345h", "/location/country/official_language", "m.04306rv"),
    ]
    alias_pairs = [
        ("m.02mjmr", "barack obama"),
        ("m.02mjmr", "obama"),
        ("m.02hrh0_", "honolulu"),
        ("m.01hmylb", "harder ..... faster"),
        ("m.017hzy7", "germany"),
        ("m.0345h", "germany"),
        ("m.0k3p", "berlin"),
    ]
    type_pairs = [
        ("m.017hzy7", "musical recording"),
        ("m.0345h", "country"),
        ("m.02mjmr", "us president"),
        ("m.01hmylb", "musical album"),
    ]
    return build_kb(facts, alias_pairs, type_pairs)


def gate_block(cell, kind, gate, array=None):
    """Gate ``gate``'s block of a recurrent cell's ``kind`` of weight
    ("W", "U" or "b") as a writable view, shaped [h, d], [h, h] or [h].
    ``array`` is the parameter's data unless given, for example its
    gradient."""
    h = cell.hidden_dim
    k = cell.gates.index(gate)
    if array is None:
        array = getattr(cell, kind).data
    if kind == "W":
        return array[:, k * h:(k + 1) * h].T
    return array[k * h:(k + 1) * h]


def stack_rows(rows):
    """Stack 1-D tensors into a matrix, one per row, as a graph node."""
    tensors = [as_tensor(r) for r in rows]
    data = np.stack([t.data for t in tensors], axis=0)

    def backward(out):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(out.grad[i])

    return _make(data, tensors, backward)
