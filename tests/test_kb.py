"""Knowledge-base parsing, construction and lookup behaviour."""

import string
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qakb.errors import MalformedId, ParseError
from qakb.kb import (
    Fact,
    _strip_id_prefix,
    NTObject,
    build_kb,
    canonicalize_mid,
    canonicalize_relation,
    load_kb,
    lookup_objects,
    notable_type,
    out_degree,
    parse_ntriples_line,
    parse_triples_tsv,
    parse_type_lines,
    primary_alias,
    relations_of,
    save_kb,
    serialize_ntriples_line,
    serialize_triples_tsv,
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


class TestTypeIngestion:
    def test_tsv_direct_pairs(self):
        data = parse_type_lines(["m.017hzy7\tmusical recording\n"])
        assert data.resolve() == [("m.017hzy7", "musical recording")]

    def test_ntriples_join(self):
        """Type assignment and type name join through the shared type id."""
        lines = [
            "<http://rdf.freebase.com/ns/m.017hzy7> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.0kpv11> .",
            '<http://rdf.freebase.com/ns/m.0kpv11> '
            '<http://rdf.freebase.com/ns/type.object.name> "Musical Recording"@en .',
        ]
        assert parse_type_lines(lines).resolve() == [
            ("m.017hzy7", "musical recording")
        ]

    def test_unnamed_type_id_dropped(self):
        lines = [
            "<http://rdf.freebase.com/ns/m.x> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.unnamed> .",
        ]
        assert parse_type_lines(lines).resolve() == []


class TestBuildKb:
    def test_out_degree_counts_facts(self):
        facts = [Fact("m.x", f"/r/{i}", f"m.o{i}") for i in range(3)]
        kb = build_kb(facts)
        assert out_degree(kb, "m.x") == 3

    def test_object_only_entity_has_degree_zero(self):
        kb = build_kb([Fact("m.x", "/r/a", "m.y")])
        assert out_degree(kb, "m.y") == 0
        assert kb.entities["m.y"].aliases == []

    def test_unknown_entity_degree_zero(self, tiny_kb):
        assert out_degree(tiny_kb, "m.nope") == 0

    def test_type_lookup(self, tiny_kb):
        assert notable_type(tiny_kb, "m.017hzy7") == "musical recording"

    def test_duplicate_types_last_write_wins(self):
        kb = build_kb([], type_pairs=[("m.x", "first"), ("m.x", "second")])
        assert notable_type(kb, "m.x") == "second"

    def test_aliases_deduplicated(self):
        kb = build_kb([], alias_pairs=[("m.x", "Foo"), ("m.x", "foo")])
        assert kb.entities["m.x"].aliases == ["foo"]

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
        assert sum(r.out_degree for r in kb.entities.values()) == len(kb.facts)

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
            assert other.out_degree == rec.out_degree

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
