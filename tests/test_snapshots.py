"""Snapshot readers: any bytes either load or raise a ParseError, every
single-byte change and every cut of a snapshot is a ParseError, and a KB
snapshot loads back to the KB it was saved from."""

import json
import zlib

import numpy as np
import pytest
from conftest import (KB_COLUMNS, KB_STRINGS, param, rewrite_header,
                      write_kb_snapshot)
from hypothesis import example, given, settings, strategies as st

from qakb import container
from qakb.datagen import type_inventory
from qakb.errors import ParseError, QAKBError
from qakb.kb import (EntityRecord, Fact, _in_first_use_order, aliases_of,
                     build_kb, facts_of, load_kb, lookup_objects,
                     notable_type, out_degree, primary_alias, relations_of,
                     save_kb)
from qakb.nn.io import load_params, read_model_meta, save_params

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)

@st.composite
def kb_snapshots(draw):
    """The fields and columns of a KB snapshot: random entity ids,
    relations, facts, and alias and type entries, all in range and with
    no entity twice; then at most one fault (an int or a string replaced,
    an entity id or entry repeated, a list replaced by any JSON, or a
    column dropped, made two-dimensional or of another dtype), so the
    fuzz reaches every check and, past them, the build."""
    ids = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
    relations = draw(st.lists(st.text(max_size=3), max_size=3))
    n = draw(st.integers(0, 5)) if ids and relations else 0

    def column(size, length):
        return draw(st.lists(st.integers(0, size - 1), min_size=length,
                             max_size=length)) if size else []

    def entries():
        return draw(st.lists(st.integers(0, len(ids) - 1), max_size=3,
                             unique=True)) if ids else []

    aliased = entries()
    counts = draw(st.lists(st.integers(1, 3), min_size=len(aliased),
                           max_size=len(aliased)))
    typed = entries()
    texts = st.lists(st.text(max_size=3), min_size=sum(counts),
                     max_size=sum(counts))
    snap = {"entities": ids, "relations": relations,
            "subjects": column(len(ids), n),
            "predicates": column(len(relations), n),
            "objects": column(len(ids), n),
            "aliased": aliased, "alias_counts": counts, "typed": typed,
            "aliases": draw(texts),
            "labels": draw(st.lists(st.text(max_size=3),
                                    min_size=len(typed),
                                    max_size=len(typed)))}
    fault = draw(st.sampled_from((None, "int", "string", "repeat", "list",
                                  "column")))
    keys = {"int": KB_COLUMNS, "string": KB_STRINGS,
            "repeat": ("entities", "aliased", "typed")}.get(fault, ())
    keys = [key for key in keys if len(snap[key]) > (fault == "repeat")]
    if keys:
        items = snap[draw(st.sampled_from(keys))]
        at = draw(st.integers(0, len(items) - 1))
        items[at] = (draw(st.integers(-2, 6)) if fault == "int"
                     else draw(json_values) if fault == "string"
                     else items[at - 1])
    elif fault == "list":
        snap[draw(st.sampled_from(KB_STRINGS))] = draw(json_values)
    elif fault == "column":
        key = draw(st.sampled_from(KB_COLUMNS))
        snap[key] = draw(st.sampled_from((
            None, np.asarray(snap[key], "<f8"),
            np.asarray(snap[key], "<i4").reshape(1, -1))))
        if snap[key] is None:
            del snap[key]
    return snap


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


# an id that no KB here holds: fuzzed ids have at most three characters,
# and no record spells this one
_ABSENT = "m.absent"


def _reads(kb, mid):
    """Every per-entity accessor's answer for ``mid``, ``lookup_objects``
    for each of the KB's relations."""
    return (relations_of(kb, mid), out_degree(kb, mid), aliases_of(kb, mid),
            notable_type(kb, mid), primary_alias(kb, mid), facts_of(kb, mid),
            [lookup_objects(kb, mid, rel) for rel in kb.relations])


def _assert_same_reads(got, want):
    """``got`` and ``want`` have the same distinct relations and type
    inventory and give every accessor the same answer for each entity id
    and for one id neither holds; and ``want``'s accessors agree with its
    whole-KB views.  Each entity's reads of ``want`` are made once and
    serve both checks."""
    assert got.relations == want.relations == list(
        dict.fromkeys(fact.relation for fact in want.facts))
    assert type_inventory(got) == type_inventory(want)
    assert _ABSENT not in want.entities
    assert _reads(got, _ABSENT) == _reads(want, _ABSENT)
    for mid, rec in want.entities.items():
        reads = _reads(want, mid)
        assert _reads(got, mid) == reads
        facts = [want.facts[i] for i in want.by_subject.get(mid, ())]
        assert reads == (
            sorted({f.relation for f in facts}), len(facts), rec.aliases,
            rec.notable_type, rec.aliases[0] if rec.aliases else mid, facts,
            [list(dict.fromkeys(f.object for f in facts if f.relation == rel))
             for rel in want.relations])
        assert all(type(fact) is Fact for fact in reads[5])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "snapshot"


def _loads_or_rejects(reader, path, data: bytes, *args):
    path.write_bytes(data)
    try:
        reader(str(path), *args)
    except ParseError:
        pass


def _checksummed(data: bytes) -> bytes:
    """``data`` and the CRC-32 that a container ends with."""
    return data + zlib.crc32(data).to_bytes(4, "little")


class TestLoadKb:
    @settings(deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes(self, path, data):
        """Any bytes, after the magic or not, and with a checksum that
        matches them or not, load or raise a ParseError."""
        magic = container.KB.magic
        _loads_or_rejects(load_kb, path, magic + data)
        _loads_or_rejects(load_kb, path, _checksummed(magic + data))
        _loads_or_rejects(load_kb, path, data)

    @settings(deadline=None, max_examples=300)
    @given(kb_snapshots())
    def test_random_payloads(self, path, snap):
        write_kb_snapshot(path, snap)
        try:
            kb = load_kb(str(path))
        except ParseError:
            return
        # an index out of range or a string of another JSON type is
        # rejected, not loaded
        for fact in kb.facts:
            assert all(type(v) is str
                       for v in (fact.subject, fact.relation, fact.object))
        assert list(kb.entities) == snap["entities"]
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
        _assert_same_reads(again, kb)

    @settings(deadline=None, max_examples=300)
    @given(_records)
    # a repeated (relation, object) fact, a relation held twice with two
    # objects, and a relation the subject lacks
    @example(([Fact("m.01", "/r/a", "m.02"), Fact("m.01", "/r/b", "m.02"),
               Fact("m.01", "/r/a", "m.03"), Fact("m.01", "/r/a", "m.02"),
               Fact("m.02", "/r/c", "m.01")], [], []))
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
        _assert_same_reads(got, kb)

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


def _first_use_rule(relations, predicates):
    """The first-use check as a dict over the predicate list: the
    relations are distinct and the column first uses 0, 1, 2 ... up to
    the last of them."""
    return (len(set(relations)) == len(relations)
            and list(dict.fromkeys(predicates)) == list(range(len(relations))))


@st.composite
def relation_columns(draw):
    """Relation names, some repeated, and a predicate column in range of
    them, empty at times; half the columns are relabelled by first use,
    so both answers of the check come up, and the rest keep their drawn
    order, unused relations and all."""
    relations = draw(st.lists(st.sampled_from(["/a", "/b", "/c", "/d", "/e"]),
                              max_size=5))
    predicates = draw(st.lists(st.integers(0, len(relations) - 1),
                               max_size=12)) if relations else []
    if draw(st.booleans()):
        first = {p: i for i, p in enumerate(dict.fromkeys(predicates))}
        predicates = [first[p] for p in predicates]
    return relations, predicates


class TestFirstUseOrder:
    @given(relation_columns())
    @example(([], []))
    @example((["/a"], []))
    @example((["/a", "/b", "/c"], [0, 1, 0, 2, 1]))
    @example((["/a", "/b"], [1, 0]))
    @example((["/a", "/b"], [0, 0]))
    @example((["/a", "/a"], [0, 1]))
    @example((["/a", "/b", "/c"], [0, 2, 1]))
    def test_matches_the_dict_rule(self, column):
        """Empty columns, unused relations, repeated relation names and
        first uses out of order get the answer of the dict rule."""
        relations, predicates = column
        assert _in_first_use_order(
            relations, np.array(predicates, np.int32)) == \
            _first_use_rule(relations, predicates)


def _small_kb():
    """A KB of three facts, two entities with aliases and one typed."""
    return build_kb([Fact("m.01", "/a/b", "m.02"), Fact("m.02", "/a/c", "m.01"),
                     Fact("m.01", "/a/c", "m.03")],
                    [("m.01", "one"), ("m.02", "two"), ("m.02", "deux")],
                    [("m.01", "thing")])


def _small_params():
    return {"a.w": param(np.arange(6.0).reshape(2, 3)),
            "b": param(np.asarray(1.5))}


# dims and offsets that are not one: negative, past numpy's size, not
# integers
_NOT_DIMS = st.sampled_from([-1, 2 ** 62, 2 ** 70, 1.5, True, "2", None])


@st.composite
def param_headers(draw):
    """A model container's header as JSON text and its directory's names:
    a directory whose names may repeat, each entry with a dtype of this
    kind, the other or none, a shape and an offset in the block, past it
    or not integers, or an entry of another shape; and fields that may
    not be an object."""
    dims = st.integers(0, 3) | _NOT_DIMS
    entry = st.tuples(st.sampled_from(["<f8", "<f8", "<f8", "<i4", 8]),
                      st.lists(st.integers(0, 3), max_size=3) | dims,
                      st.sampled_from([0, 8, 16, 40]) | _NOT_DIMS).map(list)
    entries = draw(st.lists(st.tuples(st.sampled_from("abcd"),
                                      entry | entry | json_values),
                            max_size=3, unique_by=lambda e: e[0]))
    if entries and draw(st.integers(0, 4)) == 0:
        entries.append(entries[0])
    fields = draw(st.just({}) | st.just({}) | json_values)
    directory = ",".join(f"{json.dumps(name)}:{json.dumps(value)}"
                         for name, value in entries)
    return (f'{{"arrays":{{{directory}}},"fields":{json.dumps(fields)}}}'
            .encode("utf-8"), [name for name, _ in entries])


class TestLoadParams:
    @settings(deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes(self, path, data):
        """Any bytes, after the magic or not, and with a checksum that
        matches them or not, load or raise a ParseError."""
        magic = container.MODEL.magic
        _loads_or_rejects(load_params, path, magic + data)
        _loads_or_rejects(load_params, path, _checksummed(magic + data))
        _loads_or_rejects(load_params, path, data)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=200), st.binary(max_size=8))
    def test_damaged_real_snapshot(self, path, cut, noise):
        save_params(_small_params(), str(path))
        data = path.read_bytes()
        _loads_or_rejects(load_params, path, data[:cut] + noise
                          + data[cut + len(noise):])

    @settings(deadline=None, max_examples=50)
    @given(param_headers())
    def test_random_directories(self, path, header):
        """A table whose header holds any directory and fields, behind a
        checksum that matches, loads or raises a ParseError; one that
        loads names no parameter twice, and each of its arrays is an
        owned, writable, aligned float64 copy of the block's bytes at its
        offset."""
        text, names = header
        save_params(_small_params(), str(path))
        rewrite_header(path, text)
        try:
            got = load_params(str(path))
        except ParseError:
            return
        assert len(set(names)) == len(names) == len(got)
        data = path.read_bytes()
        start = 9 + len(text) + -(9 + len(text)) % 8
        for name, (_, _, offset) in json.loads(text)["arrays"].items():
            arr = got[name]
            assert arr.dtype == np.dtype("<f8") and arr.base is None
            assert arr.flags.writeable and arr.flags.aligned
            assert arr.tobytes() == data[start + offset:
                                         start + offset + arr.nbytes]

    def test_zero_size_shape_too_big_for_numpy(self, path):
        """A shape with a zero dimension takes no bytes of the block, but
        its other dimensions multiply past what numpy can index."""
        save_params(_small_params(), str(path))
        rewrite_header(path, b'{"arrays":{"a.w":["<f8",[0,4611686018427387904,'
                             b'4611686018427387904],0]},"fields":{}}')
        with pytest.raises(ParseError, match="array is too big"):
            load_params(str(path))


class TestContainer:
    @pytest.mark.parametrize("kind", ["kb", "nn"])
    def test_every_byte_change_and_cut_is_a_parse_error(self, path, kind):
        """Every single-byte change (an XOR with 0xFF) and every cut of a
        small KB snapshot and of a small model table raises a
        ParseError."""
        if kind == "kb":
            save_kb(_small_kb(), str(path))
            reader = load_kb
        else:
            save_params(_small_params(), str(path))
            reader = load_params
        data = path.read_bytes()
        reader(str(path))
        for at in range(len(data)):
            path.write_bytes(data[:at] + bytes([data[at] ^ 0xFF])
                             + data[at + 1:])
            with pytest.raises(ParseError):
                reader(str(path))
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ParseError):
                reader(str(path))

    def test_a_file_of_the_other_kind_is_named(self, path):
        save_params(_small_params(), str(path))
        with pytest.raises(ParseError, match=r"^holds a model parameter "
                           r"table \(NNQA3\), not a KB snapshot$"):
            load_kb(str(path))
        save_kb(_small_kb(), str(path))
        with pytest.raises(ParseError, match=r"^holds a KB snapshot "
                           r"\(KBQA4\), not a model parameter table$"):
            load_params(str(path))

    @pytest.mark.parametrize("text", [
        b'{"arrays":{},"fields":{"entities":[],"entities":[]}}',
        b'{"arrays":{},"arrays":{},"fields":{}}'])
    def test_a_name_given_twice_is_a_parse_error(self, path, text):
        """JSON would keep the last of two values of one name; the
        header's objects may not hold one twice."""
        save_kb(_small_kb(), str(path))
        rewrite_header(path, text)
        with pytest.raises(ParseError, match="given twice"):
            load_kb(str(path))

    def test_writes_each_arrays_bytes_where_its_entry_says(self, path):
        """The writer lays out the header, the zero padding, each array
        at an 8-byte-aligned offset and the checksum as the container's
        docstring says."""
        arrays = {"odd": np.arange(3, dtype="<i4"),
                  "grid": np.arange(4, dtype="<i4").reshape(2, 2)}
        container.write(str(path), container.KB, {"x": [1]}, arrays)
        data = path.read_bytes()
        size = int.from_bytes(data[5:9], "little")
        header = json.loads(data[9:9 + size])
        assert data[:5] == b"KBQA4" and header == {
            "arrays": {"odd": ["<i4", [3], 0], "grid": ["<i4", [2, 2], 16]},
            "fields": {"x": [1]}}
        start = 9 + size + -(9 + size) % 8
        assert data[9 + size:start] == bytes(start - 9 - size)
        assert data[start:-4] == (arrays["odd"].tobytes() + bytes(4)
                                  + arrays["grid"].tobytes())
        assert data[-4:] == zlib.crc32(data[:-4]).to_bytes(4, "little")


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
