"""Knowledge-base parsing, construction and lookup behaviour."""

import gc
import string
import sys
import types
from pathlib import Path

import pytest
from conftest import serialize_ntriples_line, serialize_triples_tsv
from hypothesis import given, settings, strategies as st

from qakb.aliasindex import build_index
from qakb.errors import MalformedId, ParseError
from qakb.kb import (
    EntityRecord,
    Fact,
    _strip_id_prefix,
    NTObject,
    aliases_of,
    build_kb,
    canonicalize_mid,
    canonicalize_relation,
    facts_of,
    load_kb,
    lookup_objects,
    notable_type,
    out_degree,
    parse_ntriples,
    parse_ntriples_line,
    parse_triples_tsv,
    parse_type_lines,
    primary_alias,
    relations_of,
    save_kb,
)


class TestCanonicalizeMid:
    def test_site_prefixed_slash_form(self):
        assert canonicalize_mid("www.freebase.com/m/02mjmr") == "m.02mjmr"

    def test_already_canonical(self):
        assert canonicalize_mid("m.017hzy7") == "m.017hzy7"

    def test_uppercase_slash_form(self):
        assert canonicalize_mid("M/02HRH0_") == "m.02hrh0_"

    def test_full_iri(self):
        raw = "http://rdf.freebase.com/ns/m.017hzy7"
        assert canonicalize_mid(raw) == "m.017hzy7"

    def test_angle_bracketed_iri(self):
        assert canonicalize_mid("<https://rdf.freebase.com/ns/m.0k3p>") == "m.0k3p"

    @pytest.mark.parametrize("bad", ["", "   ", "http://host/", "<>"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedId):
            canonicalize_mid(bad)

    @given(
        st.text(
            alphabet=string.ascii_letters + string.digits + "/._",
            min_size=1,
            max_size=30,
        )
    )
    def test_idempotent(self, raw):
        """Canonicalizing twice equals canonicalizing once."""
        try:
            once = canonicalize_mid(raw)
        except MalformedId:
            return
        assert canonicalize_mid(once) == once
        assert "/" not in once


def _general_canonicalize_mid(raw):
    """The canonicalisation every id took before the canonical-form
    shortcut."""
    out = _strip_id_prefix(raw).replace("/", ".").lower()
    if not out or any(c.isspace() for c in out):
        raise MalformedId(f"cannot canonicalize entity id {raw!r}")
    return out


_ID_TEXT = st.text(
    alphabet=string.ascii_lowercase + string.digits + "_./:<> "
    + "ABMZ" + "\u00e9\u0130\u212a\u00a0\u3000",
    max_size=24,
)


class TestCanonicalizeMidShortcut:
    @given(st.one_of(
        _ID_TEXT,
        st.tuples(st.sampled_from(["", "<", "http://h/", "HTTPS://x.y/ns/",
                                   "www.freebase.com/", "ns/", "/", " "]),
                  _ID_TEXT,
                  st.sampled_from(["", ">", "/", " ", "\n"]))
        .map("".join),
    ))
    def test_same_result_or_error_as_general_path(self, raw):
        try:
            expected = _general_canonicalize_mid(raw)
        except MalformedId:
            with pytest.raises(MalformedId):
                canonicalize_mid(raw)
            return
        assert canonicalize_mid(raw) == expected


def _scanner_strip_id_prefix(raw):
    """:func:`_strip_id_prefix` as a loop over schemes and two
    ``startswith`` checks, before it became one pattern."""
    s = raw.strip()
    if s.startswith("<") and s.endswith(">") and len(s) >= 2:
        s = s[1:-1]
    lower = s.lower()
    for scheme in ("http://", "https://"):
        if lower.startswith(scheme):
            s = s[len(scheme):]
            slash = s.find("/")
            s = s[slash + 1:] if slash >= 0 else ""
            lower = s.lower()
            break
    if lower.startswith("www.freebase.com/"):
        s = s[len("www.freebase.com/"):]
        lower = s.lower()
    if lower.startswith("ns/"):
        s = s[len("ns/"):]
    return s.strip("/")


class TestStripIdPrefixReference:
    # prefixes in mixed case, cut short or with letters that only a
    # Unicode case fold (long s, Kelvin sign, dotted I) equates with them
    @given(st.lists(st.sampled_from([
        "http://", "https://", "HtTpS://", "HTTP://", "http:/", "https:",
        "www.freebase.com/", "WWW.FreeBase.com/", "www.freebase.com",
        "ns/", "NS/", "ns", "n\u017f/", "http\u017f://", "\u212a", "\u0130",
        "<", ">", " ", "\t", "/", "host", "rdf.freebase.com", "m.01",
        "m/0A", "film.film",
    ]), max_size=8).map("".join))
    def test_same_result_as_the_scanner(self, raw):
        assert _strip_id_prefix(raw) == _scanner_strip_id_prefix(raw)


class TestCanonicalizeRelation:
    def test_site_prefixed(self):
        got = canonicalize_relation("www.freebase.com/people/person/place_of_birth")
        assert got == "/people/person/place_of_birth"

    def test_dotted_iri_form(self):
        raw = "http://rdf.freebase.com/ns/common.topic.notable_types"
        assert canonicalize_relation(raw) == "/common/topic/notable_types"

    def test_idempotent_on_canonical(self):
        rel = "/music/album/album_content_type"
        assert canonicalize_relation(rel) == rel

    def test_leading_slash_enforced(self):
        assert canonicalize_relation("a/b/c").startswith("/")


class TestParseTriplesTsv:
    def test_single_fact(self):
        facts = parse_triples_tsv(
            ["m.01hmylb\t/music/album/album_content_type\tm.06vw6v\n"]
        )
        assert facts == [
            Fact("m.01hmylb", "/music/album/album_content_type", "m.06vw6v")
        ]

    def test_empty_stream(self):
        assert parse_triples_tsv([]) == []

    def test_multi_object_expansion(self):
        facts = parse_triples_tsv(["m.a\t/r/r/r\tm.b m.c\n"])
        assert len(facts) == 2
        assert facts[0] == Fact("m.a", "/r/r/r", "m.b")
        assert facts[1] == Fact("m.a", "/r/r/r", "m.c")

    def test_raw_dump_spellings_are_canonicalized(self):
        line = (
            "www.freebase.com/m/04whkz5\t"
            "www.freebase.com/book/written_work/subjects\t"
            "www.freebase.com/m/01cj3p\n"
        )
        (fact,) = parse_triples_tsv([line])
        assert fact == Fact("m.04whkz5", "/book/written_work/subjects", "m.01cj3p")

    def test_blank_lines_skipped(self):
        facts = parse_triples_tsv(["\n", "m.a\t/r\tm.b\n", "   \n"])
        assert len(facts) == 1

    def test_too_few_fields_raises_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_triples_tsv(["m.a\t/r\tm.b\n", "m.a\t/r\n"])
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("objects", ["", " ", "  \t"])
    def test_blank_object_raises_with_line_number(self, objects):
        """A line whose object field holds no id is an error, not a line
        that yields no fact."""
        with pytest.raises(ParseError) as exc:
            parse_triples_tsv(["m.a\t/r\tm.b\n",
                               f"m.01\t/a/b\t{objects}\n"])
        assert exc.value.line_no == 2

    def test_round_trip(self):
        lines = [
            "m.a\t/r/one\tm.b m.c\n",
            "m.d\t/r/two\tm.e\n",
        ]
        facts = parse_triples_tsv(lines)
        again = parse_triples_tsv(serialize_triples_tsv(facts).splitlines(True))
        assert again == facts


class TestParseNtriples:
    def test_three_iri_statement(self):
        line = (
            "<http://rdf.freebase.com/ns/m.017hzy7> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.0kpv11> ."
        )
        subject, predicate, obj = parse_ntriples_line(line)
        assert subject.endswith("m.017hzy7")
        assert predicate.endswith("common.topic.notable_types")
        assert not obj.is_literal
        assert obj.value.endswith("m.0kpv11")

    def test_comment_and_blank_yield_none(self):
        assert parse_ntriples_line("# comment") is None
        assert parse_ntriples_line("   ") is None

    def test_literal_unescaping(self):
        (_, _, obj) = parse_ntriples_line('<a> <b> "Say \\"hi\\"" .')
        assert obj.is_literal
        assert obj.value == 'Say "hi"'

    def test_language_tag(self):
        (_, _, obj) = parse_ntriples_line('<a> <b> "Musical Recording"@en .')
        assert obj.lang == "en"
        assert obj.value == "Musical Recording"

    @pytest.mark.parametrize(
        "bad",
        [
            "<a> <b> <c",
            "<a> <b> <c>",
            '<a> <b> "open .',
            "<a> <b> .",
            "not-an-iri <b> <c> .",
        ],
    )
    def test_malformed_statements(self, bad):
        with pytest.raises(ParseError):
            parse_ntriples_line(bad)

    def test_round_trip(self):
        cases = [
            ("s1", "p1", NTObject("o1", is_literal=False)),
            ("s2", "p2", NTObject('has "quotes" and \\ and \n and \t', True, "en")),
            ("s3", "p3", NTObject("plain text", True, None)),
        ]
        for triple in cases:
            line = serialize_ntriples_line(*triple)
            assert parse_ntriples_line(line.rstrip("\n")) == triple


_SCANNER_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


def _scanner_parse_ntriples_line(line, line_no=1):
    """:func:`parse_ntriples_line` as a character scanner, before it
    matched each part by pattern; only its messages differ."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None

    def skip_ws(pos):
        while pos < len(line) and line[pos] in " \t":
            pos += 1
        return pos

    def scan_iri(pos):
        end = line.find(">", pos + 1)
        if end < 0:
            raise ParseError("unterminated IRI", line_no)
        return line[pos + 1:end], end + 1

    def scan_literal(pos):
        chars = []
        i = pos + 1
        while i < len(line):
            c = line[i]
            if c == "\\":
                if i + 1 >= len(line) or line[i + 1] not in _SCANNER_ESCAPES:
                    raise ParseError(f"bad escape at column {i + 1}", line_no)
                chars.append(_SCANNER_ESCAPES[line[i + 1]])
                i += 2
            elif c == '"':
                i += 1
                lang = None
                if i < len(line) and line[i] == "@":
                    j = i + 1
                    while j < len(line) and (line[j].isalnum()
                                             or line[j] == "-"):
                        j += 1
                    lang = line[i + 1:j]
                    i = j
                return "".join(chars), lang, i
            else:
                chars.append(c)
                i += 1
        raise ParseError("unterminated literal", line_no)

    pos = skip_ws(0)
    parts = []
    for slot in ("subject", "predicate"):
        if pos >= len(line) or line[pos] != "<":
            raise ParseError(f"expected IRI in {slot} position", line_no)
        iri, pos = scan_iri(pos)
        parts.append(iri)
        pos = skip_ws(pos)
    if pos >= len(line):
        raise ParseError("missing object", line_no)
    if line[pos] == "<":
        iri, pos = scan_iri(pos)
        obj = NTObject(iri, is_literal=False)
    elif line[pos] == '"':
        text, lang, pos = scan_literal(pos)
        obj = NTObject(text, is_literal=True, lang=lang)
    else:
        raise ParseError("object must be an IRI or a literal", line_no)
    pos = skip_ws(pos)
    if pos >= len(line) or line[pos] != ".":
        raise ParseError("missing terminal '.'", line_no)
    trailing = line[pos + 1:].strip()
    if trailing:
        raise ParseError(f"unexpected trailing content {trailing!r}", line_no)
    return parts[0], parts[1], obj


def _parse_outcome(parse_line, lines):
    """The triples of ``lines``, or the line number of the first
    ParseError, reading them as :func:`parse_ntriples` does."""
    triples = []
    for line_no, line in enumerate(lines, start=1):
        try:
            triple = parse_line(line.rstrip("\n").rstrip("\r"), line_no)
        except ParseError as exc:
            return exc.line_no
        if triple is not None:
            triples.append(triple)
    return triples


# characters that matter to the grammar, and some that only look as if
# they might: a vertical tab, a no-break space, a non-ASCII letter
_nt_chars = st.text(alphabet='<>"\\@. \t#anétN1_-\x0b\u00a0\u00c9',
                    max_size=12)
_nt_iri = _nt_chars.map(lambda s: "<" + s.replace(">", "") + ">")
_nt_escapes = ['\\"', "\\\\", "\\n", "\\t"]


def _nt_statements(ws, text_pieces, langs, terminals):
    """Statements whose spacing, literal text, language tag and ending
    are drawn from the given choices."""
    literal = st.tuples(
        st.lists(st.sampled_from(text_pieces), max_size=6).map("".join),
        st.sampled_from(langs),
    ).map(lambda p: '"' + p[0] + '"' + p[1])
    ws = st.sampled_from(ws)
    return st.tuples(
        ws, _nt_iri, ws, _nt_iri, ws, _nt_iri | literal, ws,
        st.sampled_from(terminals),
    ).map("".join)


_nt_good_statement = _nt_statements(
    ["", " ", "\t", " \t "],
    ["a", "É", " ", "<", ">", "@", ".", "#"] + _nt_escapes,
    ["", "@", "@en", "@fr-CA", "@é1", "@-"],
    [".", ". ", ".\u00a0\x0b"])
_nt_noisy_statement = _nt_statements(
    ["", " ", "\x0b", "\u00a0"],
    ["a", "\\x", "\\", '"'] + _nt_escapes,
    ["", "@e_n", "@en.", "@ en"],
    ["", ". x", "..", ".#"])
_nt_line = st.one_of(
    _nt_good_statement,
    _nt_noisy_statement,
    _nt_chars,
    st.lists(_nt_good_statement | _nt_chars, max_size=3).map("".join),
    st.sampled_from(["", "  ", "# note", " \t# note <a>", "\x0b"]),
)


class TestParseNtriplesReference:
    @settings(max_examples=300)
    @given(st.lists(_nt_line, min_size=1, max_size=5))
    def test_same_outcome_as_the_scanner(self, lines):
        """The same triples, or a ParseError on the same line."""
        want = _parse_outcome(_scanner_parse_ntriples_line, lines)
        try:
            got = list(parse_ntriples(lines))
        except ParseError as exc:
            assert exc.line_no == want
            return
        assert got == want

    @pytest.mark.parametrize("line, part, column", [
        ("  x <b> <c> .", "an IRI subject", 1),
        ("<a b c .", "an IRI subject", 1),
        ("<a> b <c> .", "an IRI predicate", 4),
        ('<a> <b> "open .', "an IRI or a literal object", 8),
        ('<a> <b> "bad \\q" .', "an IRI or a literal object", 8),
        ("<a> <b> <c>", "a terminal '.'", 12),
        ("<a> <b> <c> . x", "a terminal '.'", 12),
    ])
    def test_names_the_part_and_column(self, line, part, column):
        with pytest.raises(ParseError) as exc:
            parse_ntriples_line(line, 3)
        assert str(exc.value) == f"line 3: expected {part} at column {column}"


class TestTypeIngestion:
    def test_tsv_direct_pairs(self):
        pairs = parse_type_lines(["m.017hzy7\tmusical recording\n"])
        assert pairs == [("m.017hzy7", "musical recording")]

    def test_ntriples_join(self):
        """Type assignment and type name join through the shared type id."""
        lines = [
            "<http://rdf.freebase.com/ns/m.017hzy7> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.0kpv11> .",
            '<http://rdf.freebase.com/ns/m.0kpv11> '
            '<http://rdf.freebase.com/ns/type.object.name> "Musical Recording"@en .',
        ]
        assert parse_type_lines(lines) == [
            ("m.017hzy7", "musical recording")
        ]

    def test_unnamed_type_id_dropped(self):
        lines = [
            "<http://rdf.freebase.com/ns/m.x> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.unnamed> .",
        ]
        assert parse_type_lines(lines) == []

    def test_blank_labels_dropped(self):
        """A blank label or type name leaves its entity untyped, as a blank
        alias is dropped."""
        pairs = parse_type_lines(["m.0a1\t   \n", "m.0a2\tfilm\n"])
        assert pairs == [("m.0a2", "film")]
        lines = [
            "<http://rdf.freebase.com/ns/m.x> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.t> .",
            '<http://rdf.freebase.com/ns/m.t> '
            '<http://rdf.freebase.com/ns/type.object.name> "" .',
        ]
        assert parse_type_lines(lines) == []


def _reloaded(kb, tmp_path):
    path = str(tmp_path / "kb.qakb")
    save_kb(kb, path)
    return load_kb(path)


class TestBuildKb:
    def test_out_degree_counts_facts(self):
        facts = [Fact("m.x", f"/r/{i}", f"m.o{i}") for i in range(3)]
        kb = build_kb(facts)
        assert out_degree(kb, "m.x") == 3

    def test_object_only_entity_has_degree_zero(self):
        kb = build_kb([Fact("m.x", "/r/a", "m.y")])
        assert out_degree(kb, "m.y") == 0
        assert kb.entities["m.y"].aliases == ()

    def test_entities_without_alias_or_type_share_one_record(self, tmp_path):
        kb = build_kb([Fact("m.x", "/r/a", "m.y"), Fact("m.z", "/r/a", "m.w")],
                      alias_pairs=[("m.x", "ex"), ("m.v", " ")],
                      type_pairs=[("m.w", "thing")])
        for again in (kb, _reloaded(kb, tmp_path)):
            bare = [again.entities[m] for m in ("m.y", "m.z", "m.v")]
            assert bare == [EntityRecord()] * 3
            assert bare[0] is bare[1] is bare[2]
            assert again.entities["m.x"] == EntityRecord(("ex",))
            assert again.entities["m.w"] == EntityRecord((), "thing")

    def test_unknown_entity_degree_zero(self, tiny_kb):
        assert out_degree(tiny_kb, "m.nope") == 0

    def test_type_lookup(self, tiny_kb):
        assert notable_type(tiny_kb, "m.017hzy7") == "musical recording"

    def test_duplicate_types_last_write_wins(self):
        kb = build_kb([], type_pairs=[("m.x", "first"), ("m.x", "second")])
        assert notable_type(kb, "m.x") == "second"

    def test_aliases_deduplicated(self):
        kb = build_kb([], alias_pairs=[("m.x", "Foo"), ("m.x", "foo")])
        assert kb.entities["m.x"].aliases == ("foo",)

    def test_primary_alias_falls_back_to_id(self, tiny_kb):
        assert primary_alias(tiny_kb, "m.02mjmr") == "barack obama"
        assert primary_alias(tiny_kb, "m.06vw6v") == "m.06vw6v"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["m.a", "m.b", "m.c", "m.d"]),
                st.sampled_from(["/r/x", "/r/y", "/r/z"]),
                st.sampled_from(["m.a", "m.b", "m.e"]),
            ),
            max_size=40,
        )
    )
    def test_degree_sum_equals_fact_count(self, raw):
        """Sum of out-degrees over all entities equals the number of facts."""
        kb = build_kb([Fact(*t) for t in raw])
        assert sum(out_degree(kb, e) for e in kb.entities) == len(kb.facts)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["m.a", "m.b", "m.c"]),
                st.sampled_from(["/r/x", "/r/y", "/r/z", "/r/w"]),
                st.sampled_from(["m.p", "m.q"]),
            ),
            max_size=40,
        )
    )
    def test_relations_of_matches_brute_force(self, raw):
        """relations_of agrees with a direct scan over the fact list."""
        facts = [Fact(*t) for t in raw]
        kb = build_kb(facts)
        for entity in kb.entities:
            expected = sorted({f.relation for f in facts if f.subject == entity})
            assert relations_of(kb, entity) == expected


def _record_route_build_kb(facts, alias_pairs=(), type_pairs=()):
    """:func:`build_kb` as it was before it made records in one pass: one
    ``record()`` call per fact subject, fact object, alias pair and type
    pair, each filling a mutable ``[aliases, type]`` pair that becomes an
    :class:`EntityRecord` at the end."""
    fact_list = list(facts)
    entities = {}
    by_subject = {}

    def record(mid):
        rec = entities.get(mid)
        if rec is None:
            rec = entities[mid] = [[], None]
        return rec

    for idx, fact in enumerate(fact_list):
        record(fact.subject)
        by_subject.setdefault(fact.subject, []).append(idx)
        record(fact.object)
    for mid, alias in alias_pairs:
        rec = record(canonicalize_mid(mid))
        alias = alias.strip().lower()
        if alias and alias not in rec[0]:
            rec[0].append(alias)
    for mid, label in type_pairs:
        record(canonicalize_mid(mid))[1] = label
    return fact_list, {mid: EntityRecord(tuple(aliases), label)
                       for mid, (aliases, label) in entities.items()}, \
        by_subject


# ids in canonical and other spellings, one that no spelling rule accepts,
# and some that no fact uses; texts unstripped, mixed-case or blank
_fact_ids = st.sampled_from(["m.01", "m.02", "m.03", "M.01", "m/02"])
_pair_ids = _fact_ids | st.sampled_from([
    "m.04", " m.01 ", "www.freebase.com/m/03",
    "<http://rdf.freebase.com/ns/m.05>", "m 0 1"])
_texts = st.sampled_from(["acme", " Acme ", "ACME", "film", "Film", "", " ",
                          "the  beatles"])


class TestBuildKbReference:
    @given(
        st.lists(st.builds(Fact, _fact_ids, st.sampled_from(["/r/a", "/r/b"]),
                           _fact_ids), max_size=8),
        st.lists(st.tuples(_pair_ids, _texts), max_size=6),
        st.lists(st.tuples(_pair_ids, _texts), max_size=4),
    )
    def test_equals_the_record_route(self, facts, alias_pairs, type_pairs):
        """Same facts, entity order, records, ``by_subject`` order and
        MalformedId as one ``record()`` call per id."""
        try:
            want_facts, want_entities, want_rows = _record_route_build_kb(
                facts, alias_pairs, type_pairs)
        except MalformedId as exc:
            with pytest.raises(MalformedId) as got:
                build_kb(facts, alias_pairs, type_pairs)
            assert str(got.value) == str(exc)
            return
        kb = build_kb(facts, alias_pairs, type_pairs)
        assert kb.facts == want_facts
        assert list(kb.entities) == list(want_entities)
        assert kb.entities == want_entities
        assert list(kb.by_subject.items()) == list(want_rows.items())


class TestQueries:
    def test_relations_sorted(self, tiny_kb):
        rels = relations_of(tiny_kb, "m.0345h")
        assert rels == sorted(rels)
        assert "/location/country/capital" in rels

    def test_fig_example_relation_present(self, tiny_kb):
        assert "/music/album/album_content_type" in relations_of(
            tiny_kb, "m.01hmylb"
        )

    def test_lookup_objects_answer(self, tiny_kb):
        got = lookup_objects(tiny_kb, "m.02mjmr", "/people/person/place_of_birth")
        assert got == ["m.02hrh0_"]

    def test_lookup_objects_unknown(self, tiny_kb):
        assert lookup_objects(tiny_kb, "m.nope", "/r") == []


class TestSnapshot:
    def test_round_trip(self, tiny_kb, tmp_path):
        path = str(tmp_path / "kb.bin")
        save_kb(tiny_kb, path)
        again = load_kb(path)
        assert again.facts == tiny_kb.facts
        assert set(again.entities) == set(tiny_kb.entities)
        for mid, rec in tiny_kb.entities.items():
            other = again.entities[mid]
            assert other.aliases == rec.aliases
            assert other.notable_type == rec.notable_type
            assert out_degree(again, mid) == out_degree(tiny_kb, mid)

    def test_byte_stability(self, tiny_kb, tmp_path):
        """Saving the same KB twice produces identical bytes."""
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_kb(tiny_kb, a)
        save_kb(load_kb(a), b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE!")
        with pytest.raises(ParseError):
            load_kb(str(path))


def _module_of(obj) -> str:
    """The module that defines a function, or else ``obj``'s type."""
    if isinstance(obj, types.FunctionType):
        return obj.__module__
    return type(obj).__module__


def _read_everything(kb):
    """Read every whole-KB view of ``kb``, its alias index (a walk of the
    aliased column), and every accessor (through the by-subject arrays)
    for each of its entities and for one id it does not hold."""
    assert kb.facts and kb.entities and kb.by_subject
    assert build_index(kb).exact
    for mid in [*kb.entities, "m.absent"]:
        for relation in relations_of(kb, mid):
            lookup_objects(kb, mid, relation)
        out_degree(kb, mid)
        aliases_of(kb, mid)
        notable_type(kb, mid)
        primary_alias(kb, mid)
        facts_of(kb, mid)


class TestNoReferenceCycle:
    """Running each command with the cyclic collector paused rests on no
    ``qakb`` object sitting in a reference cycle; no command reads the
    whole-KB views, so this checks them and every accessor directly."""

    @pytest.mark.parametrize("route", ["build_kb", "load_kb"])
    def test_freed_by_reference_counting(self, tiny_kb, tmp_path, route):
        """Whatever was read of it, a KB is referred to by nothing but its
        one name, so deleting that frees it, and the cyclic collector then
        finds no ``qakb`` object to free."""
        facts = tiny_kb.facts
        alias_pairs = [(mid, alias) for mid, rec in tiny_kb.entities.items()
                       for alias in rec.aliases]
        type_pairs = [(mid, rec.notable_type)
                      for mid, rec in tiny_kb.entities.items()
                      if rec.notable_type is not None]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            kb = build_kb(facts, alias_pairs, type_pairs)
            if route == "load_kb":
                kb = _reloaded(kb, tmp_path)
            _read_everything(kb)
            # the name ``kb`` and getrefcount's own argument
            assert sys.getrefcount(kb) == 2
            del kb
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert [obj for obj in gc.garbage
                    if _module_of(obj).startswith("qakb")] == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()
            if enabled:
                gc.enable()
