"""Snapshot readers: any bytes either load or raise a QAKBError, and a
KB snapshot loads to what ingestion builds from the same records."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qakb.errors import MalformedId, ParseError, QAKBError
from qakb.kb import (SNAPSHOT_MAGIC, EntityRecord, Fact, build_kb, load_kb,
                     save_kb)
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


# snapshot payloads whose every field is a string: ids in canonical and
# other spellings (one that no spelling rule accepts), aliases unstripped,
# mixed-case or repeated, and an id typed twice with different labels
_ids = st.sampled_from([
    "m.01", "m.02", "m.0a_b", "M.01", "m/02", " m.01 ",
    "www.freebase.com/m/0a_b", "<http://rdf.freebase.com/ns/m.02>",
    "m 0 1",
])
_texts = st.sampled_from(["germany", " Germany ", "GERMANY", "film", "",
                          " ", "the beatles", "The  Beatles"])
string_payloads = st.fixed_dictionaries(
    {"facts": st.lists(st.lists(_ids | _texts, min_size=3, max_size=3),
                       max_size=6),
     "aliases": st.lists(st.tuples(_ids, st.lists(_texts, max_size=3))
                         .map(list), max_size=4),
     "types": st.lists(st.tuples(_ids, _texts).map(list), max_size=4)},
    optional={"extra_entities": st.lists(_ids | _texts, max_size=3)},
)


def _build_kb_route(payload: dict):
    """What the snapshot reader returned before it built records itself:
    the payload's records fed through :func:`build_kb`."""
    facts = [Fact(s, r, o) for s, r, o in payload["facts"]]
    alias_pairs = [(e, a) for e, aliases in payload["aliases"]
                   for a in aliases]
    kb = build_kb(facts, alias_pairs, [tuple(p) for p in payload["types"]])
    for mid in payload.get("extra_entities", ()):
        if mid not in kb.entities:
            kb.entities[mid] = EntityRecord(id=mid)
    return kb


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
        path.write_bytes(SNAPSHOT_MAGIC + zlib.compress(
            json.dumps(payload).encode("utf-8")))
        try:
            kb = load_kb(str(path))
        except QAKBError:
            return
        # a field of another JSON type is rejected, not loaded
        for fact in kb.facts:
            assert all(type(v) is str
                       for v in (fact.subject, fact.relation, fact.object))
        for mid, rec in kb.entities.items():
            assert type(mid) is str and type(rec.id) is str
            assert all(type(alias) is str for alias in rec.aliases)
            assert rec.notable_type is None or type(rec.notable_type) is str

    @settings(deadline=None, max_examples=300)
    @given(string_payloads)
    def test_equals_the_build_kb_route(self, path, payload):
        path.write_bytes(SNAPSHOT_MAGIC + zlib.compress(
            json.dumps(payload).encode("utf-8")))
        try:
            want = _build_kb_route(payload)
        except MalformedId:
            with pytest.raises(ParseError, match="m 0 1"):
                load_kb(str(path))
            return
        got = load_kb(str(path))
        assert got.facts == want.facts
        assert list(got.entities) == list(want.entities)
        assert got.entities == want.entities
        assert list(got.by_subject.items()) == list(want.by_subject.items())

    def test_loaded_facts_are_frozen_facts(self, path):
        facts = [Fact("m.01", "/a/b", "m.02"), Fact("m.02", "/a/c", "m.01")]
        save_kb(build_kb(facts, [], []), str(path))
        loaded = load_kb(str(path)).facts
        assert loaded == facts
        for got, want in zip(loaded, facts):
            assert type(got) is Fact
            assert hash(got) == hash(want) and repr(got) == repr(want)
            with pytest.raises(AttributeError):
                got.subject = "m.03"


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
