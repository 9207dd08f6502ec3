"""Training-set generation: span labels, relation pairs, negative pools."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qakb import datagen
from qakb.aliasindex import build_index, retrieve_question_candidates
from qakb.datagen import (
    build_drr,
    build_negative_pools,
    build_relation_domains,
    gen_predicate_negatives,
    gen_relation_pairs,
    gen_subject_negatives,
    gen_type_pairs,
    label_entity_span,
    label_questions,
    levenshtein,
    make_question,
    parse_questions_tsv,
    read_labeled_questions,
    read_matcher_pairs,
    serialize_questions_tsv,
    type_inventory,
    write_labeled_questions,
    write_matcher_pairs,
)
from qakb.errors import LabelFailure, ParseError
from qakb.evalharness import SyntheticSpec, generate_synthetic
from qakb.kb import Fact, build_kb


def _oracle_lev(a: str, b: str) -> int:
    @functools.lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0),
            ("abc", "", 3),
            ("kitten", "sitting", 3),
            ("album", "albums", 1),
            ("flaw", "lawn", 2),
            ("same", "same", 0),
        ],
    )
    def test_known_values(self, a, b, d):
        assert levenshtein(a, b) == d

    @given(st.text(max_size=7), st.text(max_size=7))
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == _oracle_lev(a, b)

    @settings(deadline=None)
    @given(st.text(alphabet="ab xé世\U0001f600", max_size=80),
           st.text(alphabet="ab xé世\U0001f600", max_size=80))
    def test_long_strings_match_oracle(self, a, b):
        """Past 64 characters the bit vectors are wider than a 64-bit
        word; code points outside ASCII index the same way."""
        assert levenshtein(a, b) == _oracle_lev(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_word_boundary_lengths(self, n):
        a = "ab" * n
        assert levenshtein(a[:n], a[1:n + 1]) == 2
        assert levenshtein("x" * n, "") == n
        assert levenshtein("x" * n, "x" * (n - 1) + "y") == 1

    @given(st.text(max_size=7), st.text(max_size=7))
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def _q(text, subject="m.x", relation="/r/r/r", obj="m.y"):
    return make_question(text, Fact(subject, relation, obj))


class TestLabelEntitySpan:
    def test_exact_one_gram(self):
        got = label_entity_span(_q("where was obama born ?"), ["obama"])
        assert got.tags == ("c", "c", "e", "c", "c")

    def test_plural_mismatch_still_selected(self):
        got = label_entity_span(_q("which albums did she make ?"), ["album"])
        assert got.tags[1] == "e"
        assert got.span_tokens() == ["albums"]

    def test_whole_question_minus_one_token(self):
        got = label_entity_span(_q("play harder ..... faster"),
                                ["harder ..... faster"])
        assert got.tags == ("c", "e", "e", "e")

    def test_tie_prefers_longer_gram(self):
        # both "new york" and "new york city" are aliases; distance 0 each
        got = label_entity_span(
            _q("mayor of new york city now"), ["new york city", "new york"]
        )
        assert got.span_tokens() == ["new", "york", "city"]

    def test_no_overlap_fails(self):
        with pytest.raises(LabelFailure):
            label_entity_span(_q("xx yy"), ["qq"])

    def test_single_token_question_fails(self):
        with pytest.raises(LabelFailure):
            label_entity_span(_q("obama"), ["obama"])

    def test_no_aliases_fails(self):
        with pytest.raises(LabelFailure):
            label_entity_span(_q("where was obama born ?"), [])

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(["ab", "cd", "ef", "gh", "abc"]),
                 min_size=2, max_size=8),
        st.lists(st.sampled_from(["ab", "cd cd", "xyz", "gh abc"]),
                 min_size=1, max_size=3),
    )
    def test_choice_is_optimal_and_deterministic(self, tokens, aliases):
        """The chosen span attains the global minimum distance, preferring
        longer grams then earlier positions, and repeats identically."""
        q = _q(" ".join(tokens))
        try:
            first = label_entity_span(q, aliases)
        except LabelFailure:
            return
        assert first == label_entity_span(q, aliases)
        span = first.span_tokens()
        chosen = " ".join(span)
        chosen_best = min(levenshtein(chosen, a.lower()) for a in aliases)
        n = len(q.tokens)
        for length in range(1, n):
            for start in range(0, n - length + 1):
                gram = " ".join(q.tokens[start:start + length])
                for alias in aliases:
                    d = levenshtein(gram, alias.lower())
                    assert d >= chosen_best
                    if d == chosen_best:
                        assert length <= len(span)

    def test_batch_counts_drops(self, tiny_kb):
        questions = [
            make_question("where was barack obama born ?",
                          Fact("m.02mjmr", "/people/person/place_of_birth",
                               "m.02hrh0_")),
            make_question("zz qq ww",
                          Fact("m.02mjmr", "/people/person/place_of_birth",
                               "m.02hrh0_")),
        ]
        labeled, dropped = label_questions(questions, tiny_kb)
        assert len(labeled) == 1 and dropped == 1


class TestRelationDomains:
    def test_first_segment(self):
        table = build_relation_domains(
            ["/music/album/genre", "/people/person/place_of_birth"]
        )
        assert table.domain_of["/music/album/genre"] == "music"
        assert table.domain_of["/people/person/place_of_birth"] == "people"

    def test_members_grouped_sorted(self):
        table = build_relation_domains(
            ["/music/b/x", "/music/a/y", "/film/c/z"]
        )
        assert table.members["music"] == ["/music/a/y", "/music/b/x"]
        assert table.members["film"] == ["/film/c/z"]


class TestRelationPairs:
    def setup_method(self):
        rels = [f"/music/album/{x}" for x in ("genre", "artist", "label",
                                              "release", "content")]
        self.table = build_relation_domains(rels)
        self.q = _q("what genre is x ?", relation="/music/album/genre")

    def test_counts_with_triplication(self):
        pairs = gen_relation_pairs(self.q, "/music/album/genre", self.table)
        assert len(pairs) == 4 + 3
        assert sum(tag for _, _, tag in pairs) == 3

    def test_singleton_domain(self):
        table = build_relation_domains(["/tv/show/host"])
        pairs = gen_relation_pairs(self.q, "/tv/show/host", table)
        assert len(pairs) == 3
        assert all(tag == 1 for _, _, tag in pairs)

    def test_tags_binary_and_domain_covered(self):
        pairs = gen_relation_pairs(self.q, "/music/album/genre", self.table)
        assert {tag for _, _, tag in pairs} <= {0, 1}
        negatives = {rel for _, rel, tag in pairs if tag == 0}
        domain = set(self.table.members["music"]) - {"/music/album/genre"}
        assert negatives == domain

    def test_positive_multiplicity_exactly_three(self):
        pairs = gen_relation_pairs(self.q, "/music/album/genre", self.table)
        positives = [p for p in pairs if p[2] == 1]
        assert len(positives) == 3
        assert all(p[1] == "/music/album/genre" for p in positives)


class TestTypePairs:
    def test_gold_type_triplicated_with_distractors(self, tiny_kb):
        index = build_index(tiny_kb)
        q = make_question(
            "how was germany released ?",
            Fact("m.017hzy7", "/music/recording/releases", "m.0rel01"),
        )
        cands = retrieve_question_candidates(index, q.text)
        pairs = gen_type_pairs(q, tiny_kb, cands, type_inventory(tiny_kb))
        positives = [p for p in pairs if p[2] == 1]
        assert len(positives) == 3
        assert all(p[1] == "musical recording" for p in positives)
        negative_texts = {p[1] for p in pairs if p[2] == 0}
        assert "country" in negative_texts
        assert "musical recording" not in negative_texts

    def test_untyped_gold_yields_nothing(self, tiny_kb):
        q = make_question("where is berlin ?",
                          Fact("m.0k3p", "/r/r/r", "m.x"))
        assert gen_type_pairs(q, tiny_kb, [], type_inventory(tiny_kb)) == []

    def test_inventory_sorted_and_distinct(self, tiny_kb):
        assert type_inventory(tiny_kb) == [
            "country", "musical album", "musical recording", "us president",
        ]

    def test_pads_from_inventory_in_order(self, tiny_kb):
        q = make_question("who is obama ?",
                          Fact("m.02mjmr", "/r/r/r", "m.x"))
        pairs = gen_type_pairs(q, tiny_kb, [], ["b", "us president", "a"])
        assert [p[1] for p in pairs if p[2] == 0] == ["b", "a"]


def _count_levenshtein(monkeypatch):
    """Count calls of ``datagen.levenshtein``; the returned one-item list
    holds the running total."""
    calls = [0]
    real = datagen.levenshtein

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(datagen, "levenshtein", counting)
    return calls


class TestDrr:
    def test_three_relation_example(self):
        d = build_drr(["a", "ab", "xyz"])
        assert d["a"] == ["ab", "xyz"]

    def test_key_never_in_own_list(self):
        d = build_drr(["/r/a", "/r/b", "/r/c"])
        for key, ranked in d.items():
            assert key not in ranked
            assert len(ranked) == 2

    def test_truncation(self):
        rels = [f"/r/{i:04d}" for i in range(30)]
        d = build_drr(rels, truncate_above=10, keep=5)
        assert all(len(v) == 5 for v in d.values())

    @settings(deadline=None, max_examples=25)
    @given(st.sets(st.text(alphabet="abcd/", min_size=1, max_size=6),
                   min_size=2, max_size=12))
    def test_matches_brute_force_sort(self, rels):
        d = build_drr(rels)
        for key in rels:
            expected = sorted(
                (r for r in rels if r != key),
                key=lambda r: (_oracle_lev(key, r), r),
            )
            assert d[key] == expected

    @settings(deadline=None, max_examples=40)
    @given(st.sets(st.tuples(st.sampled_from(["/synth/fact/", "/synth/fa/",
                                              "/people/person/"]),
                             st.text(alphabet="ab_/", max_size=4),
                             st.sampled_from(["", "/name", "_of"])),
                   min_size=2, max_size=10),
           st.booleans())
    def test_prefix_heavy_matches_oracle(self, parts, truncate):
        """Shared prefixes and suffixes are stripped before the distance;
        the lists must still be the all-pairs sort, cut or not."""
        rels = {"".join(p) for p in parts}
        keep = 3
        d = (build_drr(rels, truncate_above=1, keep=keep) if truncate
             else build_drr(rels))
        assert set(d) == rels
        for key in rels:
            expected = sorted(
                (r for r in rels if r != key),
                key=lambda r: (_oracle_lev(key, r), r),
            )
            assert d[key] == (expected[:keep] if truncate else expected)

    @settings(deadline=None, max_examples=40)
    @given(st.sets(st.text(alphabet="ab/", min_size=1, max_size=5),
                   min_size=1, max_size=10),
           st.sets(st.text(alphabet="ab/", min_size=1, max_size=5),
                   max_size=6),
           st.booleans())
    def test_keys_select_rows_of_full_dictionary(self, rels, keys, truncate):
        """Rows asked for by key equal the full dictionary's rows; keys
        that are not relations get none, and truncation still counts
        every relation."""
        keys = keys | set(list(rels)[:2])
        kwargs = {"truncate_above": 3, "keep": 2} if truncate else {}
        full = build_drr(rels, **kwargs)
        assert build_drr(rels, keys=keys, **kwargs) == {
            k: full[k] for k in keys if k in rels
        }

    def test_no_keys_no_rows(self):
        assert build_drr(["/r/a", "/r/b"], keys=[]) == {}
        assert build_drr(["/r/a", "/r/b"], keys=["/r/zz"]) == {}

    def test_each_pair_computed_once(self, monkeypatch):
        rels = [f"/r/x{i}" for i in range(9)]
        calls = _count_levenshtein(monkeypatch)
        build_drr(rels)
        assert calls[0] == 9 * 8 // 2
        calls[0] = 0
        build_drr(rels, keys=rels[:3])
        assert calls[0] == 3 * 8 - 3


def _pool_kb():
    """Sixty relations spread over subjects; m.s1/m.s2 share a label."""
    facts = [Fact("m.s1", f"/d/x/r{i:03d}", f"m.o{i}") for i in range(3)]
    facts += [Fact("m.hub", f"/d/y/r{i:03d}", f"m.p{i}") for i in range(60)]
    alias_pairs = [
        ("m.s1", "acme"), ("m.s2", "acme"),
        ("m.b1", "acme corp"), ("m.b2", "beta"), ("m.b3", "gamma"),
        ("m.hub", "hub"),
    ]
    return build_kb(facts, alias_pairs=alias_pairs)


class TestSubjectNegatives:
    def setup_method(self):
        self.kb = _pool_kb()
        self.index = build_index(self.kb)
        self.q = make_question(
            "what does acme beta gamma do ?",
            Fact("m.s1", "/d/x/r000", "m.o0"),
        )
        self.cands = retrieve_question_candidates(self.index, self.q.text)

    def test_gold_and_same_label_excluded(self):
        rng = np.random.default_rng(0)
        pool = gen_subject_negatives(self.q, self.cands, self.kb, rng)
        assert "m.s1" not in pool
        assert "m.s2" not in pool

    def test_padded_to_target_by_resampling(self):
        rng = np.random.default_rng(0)
        pool = gen_subject_negatives(self.q, self.cands, self.kb, rng)
        assert len(pool) == 5
        assert set(pool) <= {"m.b1", "m.b2", "m.b3"}

    def test_enough_survivors_kept_unpadded(self):
        kb = build_kb([], alias_pairs=[("m.g", "gold")] + [
            (f"m.n{i}", f"neg{i}") for i in range(7)
        ])
        index = build_index(kb)
        q = make_question(
            "neg0 neg1 neg2 neg3 neg4 neg5 neg6 ?",
            Fact("m.g", "/r/r/r", "m.o"),
        )
        cands = retrieve_question_candidates(index, q.text)
        pool = gen_subject_negatives(q, cands, kb, np.random.default_rng(1))
        assert len(pool) == 7

    def test_empty_when_no_candidates(self):
        pool = gen_subject_negatives(
            self.q, [], self.kb, np.random.default_rng(0)
        )
        assert pool == []


class TestPredicateNegatives:
    def test_natural_then_dictionary(self):
        kb = _pool_kb()
        d_rr = build_drr({f.relation for f in kb.facts})
        q = make_question("what ?", Fact("m.s1", "/d/x/r000", "m.o0"))
        pool = gen_predicate_negatives(q, kb, d_rr)
        assert len(pool) == 50
        assert pool[0] == "/d/x/r001" and pool[1] == "/d/x/r002"
        assert "/d/x/r000" not in pool

    def test_gold_never_in_pool(self):
        kb = _pool_kb()
        d_rr = build_drr({f.relation for f in kb.facts})
        for i in range(3):
            q = make_question("what ?", Fact("m.s1", f"/d/x/r{i:03d}", "m.o"))
            assert q.gold.relation not in gen_predicate_negatives(q, kb, d_rr)

    def test_small_universe_allowed(self):
        kb = build_kb([Fact("m.a", "/r/a/b", "m.b")])
        d_rr = build_drr({"/r/a/b"})
        q = make_question("what ?", Fact("m.a", "/r/a/b", "m.b"))
        assert gen_predicate_negatives(q, kb, d_rr) == []


class TestNegativePools:
    def _assert_pools_use_full_dictionary(self, kb, questions, seed=3):
        pools = build_negative_pools(questions, kb, build_index(kb), seed)
        full = build_drr({f.relation for f in kb.facts})
        assert pools.predicate_pools == [
            gen_predicate_negatives(q, kb, full) for q in questions
        ]
        assert set(pools.d_rr) == (
            {q.gold.relation for q in questions} & set(full)
        )

    def test_tiny_kb_matches_full_dictionary(self, tiny_kb):
        questions = [make_question(f"what about {f.subject} ?", f)
                     for f in tiny_kb.facts[:4]]
        questions.append(make_question(
            "who is obama ?", Fact("m.02mjmr", "/not/in/kb", "m.x")))
        self._assert_pools_use_full_dictionary(tiny_kb, questions)

    def test_synthetic_kb_matches_full_dictionary(self):
        kb, train, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_entities=40, n_relations=32))
        assert len({f.relation for f in kb.facts}) >= 30
        self._assert_pools_use_full_dictionary(kb, train[:12])

    def test_distance_calls_scale_with_gold_relations(self, monkeypatch):
        kb, train, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_entities=40, n_relations=32))
        questions = train[:12]
        n_rels = len({f.relation for f in kb.facts})
        k = len({q.gold.relation for q in questions})
        index = build_index(kb)
        calls = _count_levenshtein(monkeypatch)
        build_negative_pools(questions, kb, index, seed=3)
        assert 0 < calls[0] <= k * (n_rels - 1)

    def test_deterministic_and_gold_free(self):
        kb = _pool_kb()
        index = build_index(kb)
        questions = [
            make_question("what does acme do ?", Fact("m.s1", "/d/x/r000", "m.o0")),
            make_question("where is hub ?", Fact("m.hub", "/d/y/r000", "m.p0")),
        ]
        a = build_negative_pools(questions, kb, index, seed=7)
        b = build_negative_pools(questions, kb, index, seed=7)
        assert a.subject_pools == b.subject_pools
        assert a.predicate_pools == b.predicate_pools
        for q, spool, ppool in zip(questions, a.subject_pools, a.predicate_pools):
            assert q.gold.subject not in spool
            assert q.gold.relation not in ppool


class TestQuestionFiles:
    def test_parse_and_round_trip(self):
        lines = [
            "www.freebase.com/m/04whkz5\twww.freebase.com/book/written_work"
            "/subjects\twww.freebase.com/m/01cj3p\t"
            "what is the book e about ?\n"
        ]
        (q,) = parse_questions_tsv(lines)
        assert q.gold.subject == "m.04whkz5"
        assert q.gold.relation == "/book/written_work/subjects"
        assert q.tokens[0] == "what"
        again = parse_questions_tsv(serialize_questions_tsv([q]).splitlines(True))
        assert again == [q]

    def test_short_line_rejected(self):
        with pytest.raises(ParseError):
            parse_questions_tsv(["m.a\t/r\tm.b\n"])

    def test_blank_object_rejected_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_questions_tsv([
                "m.a\t/r\tm.b\twhat is r of a\n",
                "m.0g001\t/synth/fact/x\t \twhat is x of y\n"])
        assert exc.value.line_no == 2

    def test_labeled_file_round_trip(self, tmp_path):
        items = [label_entity_span(_q("where was obama born ?"), ["obama"])]
        path = str(tmp_path / "tags.tsv")
        write_labeled_questions(path, items)
        assert read_labeled_questions(path) == items

    def test_matcher_pairs_round_trip(self, tmp_path):
        pairs = [("q one ?", "/r/a/b", 1), ("q one ?", "/r/a/c", 0)]
        path = str(tmp_path / "pairs.tsv")
        write_matcher_pairs(path, pairs)
        assert read_matcher_pairs(path) == pairs

    @pytest.mark.parametrize("read, text", [
        (read_labeled_questions, "who is obama\tc c e\n"),
        (read_labeled_questions, ""),
        (read_matcher_pairs, "q one ?\t/r/a/b\t1\n"),
        (read_matcher_pairs, "\nquestion\ttext\ttag\n"),
    ])
    def test_missing_header_is_parse_error_at_line_1(self, tmp_path, read,
                                                      text):
        """A file without the writer's header line loses no row to it."""
        path = tmp_path / "data.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match="expected the header") as exc:
            read(str(path))
        assert exc.value.line_no == 1
