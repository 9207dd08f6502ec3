"""Snapshot readers: any bytes either load or raise a QAKBError, and a
KB snapshot loads back to the KB it was saved from."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qakb.errors import ParseError, QAKBError
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

_KB_FIELDS = ("entities", "relations", "subjects", "predicates", "objects",
              "aliases", "types")
# what replaces a field: any JSON value, or an array of near-miss items
_field_junk = json_values | st.lists(
    st.integers(min_value=-2, max_value=6) | st.booleans()
    | st.text(max_size=2) | st.lists(st.integers(0, 3) | st.text(max_size=2),
                                     max_size=3),
    max_size=6)


@st.composite
def kb_payloads(draw):
    """A KB snapshot payload with columns of matching length and indices
    in range (entity ids may repeat), then at most one field replaced by
    junk, so the fuzz reaches every check and, past them, the build."""
    ids = draw(st.lists(st.text(max_size=3), max_size=4))
    relations = draw(st.lists(st.text(max_size=3), max_size=3))
    n = draw(st.integers(0, 5)) if ids and relations else 0

    def column(refs):
        return draw(st.lists(st.integers(0, len(refs) - 1),
                             min_size=n, max_size=n)) if n else []

    def entries(values):
        return draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), values)
                             .map(list), max_size=3)) if ids else []

    payload = {
        "entities": ids,
        "relations": relations,
        "subjects": column(ids),
        "predicates": column(relations),
        "objects": column(ids),
        "aliases": entries(st.lists(st.text(max_size=3), max_size=2)),
        "types": entries(st.text(max_size=3)),
    }
    field = draw(st.sampled_from((None,) + _KB_FIELDS))
    if field is not None:
        payload[field] = draw(_field_junk)
    return payload


# records of the kinds ingestion meets: ids in canonical and other
# spellings, aliases unstripped, mixed-case or repeated, and an id typed
# twice with different labels
_ids = st.sampled_from([
    "m.01", "m.02", "m.0a_b", "M.01", "m/02", " m.01 ",
    "www.freebase.com/m/0a_b", "<http://rdf.freebase.com/ns/m.02>",
])
_texts = st.sampled_from(["germany", " Germany ", "GERMANY", "film", "",
                          " ", "the beatles", "The  Beatles"])
_records = st.tuples(
    st.lists(st.builds(Fact, _ids | _texts, _texts | st.just("/r/a"),
                       _ids | _texts), max_size=6),
    st.lists(st.tuples(_ids, _texts), max_size=6),
    st.lists(st.tuples(_ids, _texts), max_size=4),
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

    @settings(deadline=None, max_examples=300)
    @given(json_values | kb_payloads())
    def test_random_payloads(self, path, payload):
        path.write_bytes(SNAPSHOT_MAGIC + zlib.compress(
            json.dumps(payload).encode("utf-8")))
        try:
            kb = load_kb(str(path))
        except QAKBError:
            return
        # a field of another JSON type or an index out of range is
        # rejected, not loaded
        for fact in kb.facts:
            assert all(type(v) is str
                       for v in (fact.subject, fact.relation, fact.object))
        assert len(kb.entities) == len(payload["entities"])
        for mid, rec in kb.entities.items():
            assert type(mid) is str and type(rec) is EntityRecord
            assert type(rec.aliases) is tuple
            assert all(type(alias) is str for alias in rec.aliases)
            assert rec.notable_type is None or type(rec.notable_type) is str
        # and what loads saves and loads again unchanged
        save_kb(kb, str(path))
        again = load_kb(str(path))
        assert again.facts == kb.facts
        assert list(again.entities.items()) == list(kb.entities.items())
        assert list(again.by_subject.items()) == list(kb.by_subject.items())

    @settings(deadline=None, max_examples=300)
    @given(_records)
    def test_round_trips_what_build_kb_builds(self, path, records):
        """``load_kb(save_kb(kb))`` is ``kb`` for a KB built from records
        that need canonical ids, stripping, lowercasing, deduplication and
        a type conflict resolved."""
        facts, alias_pairs, type_pairs = records
        kb = build_kb(facts, alias_pairs, type_pairs)
        save_kb(kb, str(path))
        got = load_kb(str(path))
        assert got.facts == kb.facts
        assert list(got.entities) == list(kb.entities)
        assert got.entities == kb.entities
        assert list(got.by_subject.items()) == list(kb.by_subject.items())

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
