"""Snapshot readers: any bytes either load or raise a QAKBError."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qakb.errors import ParseError, QAKBError
from qakb.kb import SNAPSHOT_MAGIC, load_kb
from qakb.nn.io import MODEL_MAGIC, load_params, read_model_meta, save_params
from qakb.nn.tensor import param

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)

# payloads shaped roughly like a KB snapshot, so the fuzz reaches past
# the JSON decoder into the record layout
kb_payloads = st.fixed_dictionaries(
    {"facts": json_values, "aliases": json_values, "types": json_values},
    optional={"extra_entities": json_values},
)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "snapshot"


def _loads_or_rejects(reader, path, data: bytes, *args):
    path.write_bytes(data)
    try:
        reader(str(path), *args)
    except QAKBError:
        pass


class TestLoadKb:
    @settings(deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes(self, path, data):
        _loads_or_rejects(load_kb, path, SNAPSHOT_MAGIC + data)
        _loads_or_rejects(load_kb, path, data)

    @settings(deadline=None)
    @given(json_values | kb_payloads)
    def test_random_payloads(self, path, payload):
        blob = zlib.compress(json.dumps(payload).encode("utf-8"))
        _loads_or_rejects(load_kb, path, SNAPSHOT_MAGIC + blob)


class TestLoadParams:
    @settings(deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes(self, path, data):
        _loads_or_rejects(load_params, path, MODEL_MAGIC + data)
        _loads_or_rejects(load_params, path, data)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=200), st.binary(max_size=8))
    def test_damaged_real_snapshot(self, path, cut, noise):
        save_params({"a.w": param(np.arange(6.0).reshape(2, 3)),
                     "b": param(np.asarray(1.5))}, str(path))
        data = path.read_bytes()
        _loads_or_rejects(load_params, path, data[:cut] + noise
                          + data[cut + len(noise):])

    def test_zero_size_shape_too_big_for_numpy(self, path):
        """A shape with a zero dimension passes the length check, but its
        other dimensions multiply past what numpy can index."""
        save_params({"a.w": param(np.arange(6.0).reshape(2, 3)),
                     "b": param(np.asarray(1.5))}, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:11] + b"\x00\x00\x00\x08" + data[15:])
        with pytest.raises(ParseError, match="bad shape"):
            load_params(str(path))


class TestReadModelMeta:
    @staticmethod
    def _reads_or_rejects(path, data: bytes):
        (path.parent / (path.name + ".meta.json")).write_bytes(data)
        try:
            read_model_meta(str(path), "e2e")
        except QAKBError:
            pass
        except ValueError as exc:  # a well-formed sidecar of another kind
            assert "expected 'e2e'" in str(exc)

    @settings(deadline=None)
    @given(st.binary(max_size=200))
    def test_random_bytes(self, path, data):
        self._reads_or_rejects(path, data)

    @settings(deadline=None)
    @given(json_values)
    def test_random_json(self, path, value):
        self._reads_or_rejects(path, json.dumps(value).encode("utf-8"))
