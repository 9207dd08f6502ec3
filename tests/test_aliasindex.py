"""Tokenizer, n-gram pruning and candidate retrieval behaviour."""

import string

import numpy as np
import pytest
from conftest import write_kb_snapshot
from hypothesis import given, settings, strategies as st

from qakb.aliasindex import (
    MAX_NGRAM,
    AliasIndex,
    all_ngrams,
    build_index,
    extract_ngrams,
    find_run,
    retrieve_candidates,
    retrieve_question_candidates,
    tokenize,
)
from qakb.kb import Fact, KnowledgeBase, build_kb, load_kb, save_kb


def _tokenizing_build_index(kb):
    """The index as it was built before its one-token shortcut, with every
    alias tokenized: (exact, gram_to_entities, entity_aliases), where
    every gram of every alias, the alias itself included, has a bucket
    and every aliased entity lists its aliases."""
    exact, gram_to_entities, entity_aliases = {}, {}, {}
    for mid in sorted(mid for mid, rec in kb.entities.items()
                      if rec.aliases):
        normed = []
        for alias in kb.entities[mid].aliases:
            tokens = tokenize(alias)
            norm = " ".join(tokens)
            if not norm or norm in normed:
                continue
            normed.append(norm)
            bucket = exact.setdefault(norm, [])
            if not bucket or bucket[-1] != mid:
                bucket.append(mid)
            for gram in (all_ngrams(tokens) if len(tokens) > 1
                         else (norm,)):
                gbucket = gram_to_entities.setdefault(gram, [])
                if not gbucket or gbucket[-1] != mid:
                    gbucket.append(mid)
        if normed:
            entity_aliases[mid] = normed
    return exact, gram_to_entities, entity_aliases


# aliases unnormalized, as a snapshot may hold them
_raw_aliases = st.sampled_from(
    ["", "a", "ab", "a b", "b a b", "A", "Ab", "a.", ".a", "a.b", "...",
     "?", "a, b", "x y z", "a\u00a0b", "a\u2003", "\tb", "0", "é", "É",
     "Σ", "ς", "İ", "o'neil", "a-b"]) | st.text(
    alphabet="abAB .!'-\u00a0\u2003\téÉΣς0", max_size=8)


def _oracle_index(kb):
    """The three dicts of :func:`_tokenizing_build_index`, built with
    list-membership checks for every bucket."""
    exact, grams, entity_aliases = {}, {}, {}
    for mid in sorted(kb.entities):
        normed = []
        for alias in kb.entities[mid].aliases:
            norm = " ".join(tokenize(alias))
            if not norm or norm in normed:
                continue
            normed.append(norm)
            bucket = exact.setdefault(norm, [])
            if mid not in bucket:
                bucket.append(mid)
            for gram in all_ngrams(norm.split()):
                gbucket = grams.setdefault(gram, [])
                if mid not in gbucket:
                    gbucket.append(mid)
        if normed:
            entity_aliases[mid] = normed
    return exact, grams, entity_aliases


def _lookup(index, gram):
    """The entities a lookup of ``gram`` reaches, deduplicated and
    sorted."""
    return sorted(set(index.exact.get(gram, ()))
                  | set(index.partial.get(gram, ())))


def _assert_same_lookups(kb, oracle, queries):
    """``build_index(kb)`` answers as the three dicts of ``oracle`` do.

    Its ``exact`` equals the oracle's; a lookup of every gram of every
    alias, and of every gram of each query, reaches the entities of the
    oracle's gram bucket; and both retrieve functions return, field for
    field, what they return over an index that stores every gram and
    every entity's aliases and tries grams of every length.  Returns
    that index."""
    exact, grams, entity_aliases = oracle
    index = build_index(kb)
    assert index.exact == exact
    full = AliasIndex(exact, grams, entity_aliases, MAX_NGRAM)
    probes = {gram for norm in exact for gram in all_ngrams(norm.split())}
    for query in queries:
        probes.update(all_ngrams(tokenize(query)))
        assert (retrieve_candidates(index, tokenize(query))
                == retrieve_candidates(full, tokenize(query)))
        assert (retrieve_question_candidates(index, query)
                == retrieve_question_candidates(full, query))
    for gram in probes:
        assert _lookup(index, gram) == grams.get(gram, [])
    return index


def _ordered(index):
    """An index's fields with each dict as its items in order."""
    return (list(index.exact.items()), list(index.partial.items()),
            list(index.entity_aliases.items()), index.longest)


def _round_trip(kb, path):
    """``kb`` saved as a snapshot and loaded back."""
    save_kb(kb, str(path))
    return load_kb(str(path))


# queries over the aliases' characters: runs of words, some punctuated
_queries = st.lists(st.text(alphabet="abxyz AB.!?'-", max_size=14),
                    max_size=4)


def _reference_tokenize(text):
    """The tokenizer before its fast path: edge punctuation peeled one
    character at a time."""
    punct = set(string.punctuation)
    tokens = []
    for chunk in text.lower().split():
        if all(c in punct for c in chunk):
            tokens.append(chunk)
            continue
        leading = []
        while chunk and chunk[0] in punct:
            leading.append(chunk[0])
            chunk = chunk[1:]
        trailing = []
        while chunk and chunk[-1] in punct:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


# ASCII punctuation, Unicode whitespace, non-ASCII punctuation (which is
# not peeled) and letters whose case mapping changes their length
_token_chars = st.sampled_from(
    list(string.punctuation) + [" ", "\t", "\n", "\u00a0", "\u2003",
                                "\u201c", "\u201d", "\u00ab", "\u2026",
                                "\u00bf", "a", "Z", "0", "\u00c9", "\u0130",
                                "\u00df", "\u03a3"])


class TestTokenize:
    @settings(max_examples=500)
    @given(st.text(_token_chars, max_size=30) | st.text(max_size=30))
    def test_matches_reference(self, text):
        assert tokenize(text) == _reference_tokenize(text)

    def test_punctuation_run_stays_whole(self):
        got = tokenize("Which genre of album is harder ..... faster?")
        assert got == [
            "which", "genre", "of", "album", "is",
            "harder", ".....", "faster", "?",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercasing(self):
        assert tokenize("Obama") == ["obama"]

    def test_leading_punctuation_peeled(self):
        assert tokenize('"quoted"') == ['"', "quoted", '"']

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_deterministic(self):
        text = "Who wrote Jane-Eyre, and when?"
        assert tokenize(text) == tokenize(text)


def _oracle_ngrams(tokens, max_n=3):
    """Quadratic reference: enumerate, then drop contained grams."""
    grams = set()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i:i + n]))

    def contained(inner, outer):
        return len(inner) < len(outer) and any(
            outer[i:i + len(inner)] == inner
            for i in range(len(outer) - len(inner) + 1)
        )

    kept = {g for g in grams if not any(contained(g, o) for o in grams)}
    return {" ".join(g) for g in kept}


def _pruned_ngrams(tokens):
    """:func:`extract_ngrams` as it was before it built the longest grams
    directly: every 1..MAX_NGRAM gram, less those a longer one contains,
    sorted longest-first, then by token tuple."""
    grams = set()
    for n in range(1, MAX_NGRAM + 1):
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i:i + n]))
    kept = [g for g in grams
            if not any(other != g and find_run(other, g) is not None
                       for other in grams)]
    kept.sort(key=lambda g: (-len(g), g))
    return [" ".join(g) for g in kept]


class TestExtractNgrams:
    def test_single_token(self):
        assert extract_ngrams(["a"]) == ["a"]

    def test_pair_collapses(self):
        assert set(extract_ngrams(["a", "b"])) == {"a b"}

    def test_four_tokens(self):
        assert set(extract_ngrams(["a", "b", "c", "d"])) == {"a b c", "b c d"}

    def test_empty(self):
        assert extract_ngrams([]) == []

    @given(st.lists(st.sampled_from("abcde"), max_size=12))
    def test_matches_quadratic_oracle(self, tokens):
        assert set(extract_ngrams(tokens)) == _oracle_ngrams(tokens)

    @given(st.lists(st.sampled_from("abcd"), max_size=12))
    def test_no_gram_contains_another(self, tokens):
        """Pruned output never keeps a gram inside a longer kept gram."""
        out = [tuple(g.split()) for g in extract_ngrams(tokens)]
        for g in out:
            for other in out:
                if g is other or len(g) >= len(other):
                    continue
                for i in range(len(other) - len(g) + 1):
                    assert other[i:i + len(g)] != g

    @given(st.lists(st.sampled_from(["a", "b", "ab", "é", ""]),
                    max_size=9))
    def test_equals_the_pruning_pass(self, tokens):
        """The same grams in the same order as enumerating 1..MAX_NGRAM
        grams and dropping each one a longer gram contains."""
        assert extract_ngrams(tokens) == _pruned_ngrams(tokens)

    def test_all_ngrams_unpruned(self):
        assert all_ngrams(["a", "b"]) == ["a", "b", "a b"]


class TestFindRun:
    @pytest.mark.parametrize("tokens, run, start", [
        (("a", "b", "c"), ("b", "c"), 1),
        # the first occurrence, with a list and a tuple compared
        (["a", "b", "a", "b"], ("a", "b"), 0),
        # the whole sequence
        (("a", "b"), ["a", "b"], 0),
        (("a", "b"), ("b", "a"), None),
        # longer than the tokens
        (("a",), ("a", "a"), None),
    ])
    def test_first_start_or_none(self, tokens, run, start):
        assert find_run(tokens, run) == start


@pytest.fixture()
def tiny_index(tiny_kb):
    return build_index(tiny_kb)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("index") / "kb.qakb"


class TestBuildIndex:
    def test_exact_key_present(self, tiny_index):
        assert tiny_index.exact["barack obama"] == ["m.02mjmr"]

    def test_shared_alias_bucket(self, tiny_index):
        assert sorted(tiny_index.exact["germany"]) == ["m.017hzy7", "m.0345h"]

    def test_gram_keys_cover_full_alias(self, tiny_index):
        """Every gram of an alias, the whole alias included, looks the
        entity up; the whole alias is held by ``exact`` alone."""
        for gram in ("barack", "obama", "barack obama"):
            assert "m.02mjmr" in _lookup(tiny_index, gram)
        assert "barack obama" not in tiny_index.partial

    def test_empty_kb(self):
        idx = build_index(build_kb([]))
        assert idx.exact == {} and idx.partial == {}
        assert idx.entity_aliases == {} and idx.longest == 0

    @given(st.lists(
        st.tuples(st.sampled_from(["m.b", "m.a", "m.c", "m.d"]),
                  st.sampled_from(["a", "a b", "b a b", "a a", "A  b", "a b!",
                                   "x y z", "y z", "?", "b a b a"])),
        max_size=14), _queries)
    def test_matches_membership_oracle(self, path, pairs, queries):
        """Shared aliases, grams repeated inside one mid's aliases and
        aliases equal after normalisation are looked up and retrieved as
        through the list-membership build's buckets, from the built KB
        and from its snapshot loaded back."""
        kb = build_kb([], alias_pairs=pairs + pairs[:3])
        oracle = _oracle_index(kb)
        index = _assert_same_lookups(kb, oracle, queries)
        loaded = _assert_same_lookups(_round_trip(kb, path), oracle, queries)
        assert _ordered(loaded) == _ordered(index)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from(["m.b", "m.a", "m.c", "m.d"]),
                              st.lists(_raw_aliases, max_size=4)),
                    max_size=8), _queries)
    def test_matches_the_tokenizing_build(self, path, records, queries):
        """Aliases as a loaded snapshot may hold them (capitals, edge
        punctuation, Unicode whitespace, several words, repeats, only
        punctuation), one plain alias or several of any kind, under
        entities in any order and between entities with none, are looked
        up and retrieved as through the buckets that tokenizing every
        alias gives, from the KB and from its snapshot loaded back."""
        aliases = {mid: tuple(names) for mid, names in records}
        ids = list(aliases)
        kb = KnowledgeBase(
            ids, dict(zip(ids, range(len(ids)))), list(aliases.values()),
            np.array([p for p, names in enumerate(aliases.values()) if names],
                     np.int32),
            [None] * len(ids), [], *np.zeros((3, 0), np.int32))
        oracle = _tokenizing_build_index(kb)
        index = _assert_same_lookups(kb, oracle, queries)
        loaded = _assert_same_lookups(_round_trip(kb, path), oracle, queries)
        assert _ordered(loaded) == _ordered(index)

    def test_aliased_column_in_any_order(self, path):
        """A snapshot that lists its aliased entities descending loads to
        the KB of its ascending twin: the same index, walked in KB order
        (``partial`` buckets and ``entity_aliases`` in position order),
        and the same bytes when saved again."""
        entities = ["m.d", "m.b", "m.c", "m.a", "m.e"]
        by_position = {0: ["new york city"], 1: ["york", "Yorkshire"],
                       3: ["new york times"], 4: ["york"]}
        kbs = []
        for aliased in ([4, 3, 1, 0], [0, 1, 3, 4]):
            write_kb_snapshot(path, {
                "entities": entities, "relations": [], "subjects": [],
                "predicates": [], "objects": [], "aliased": aliased,
                "alias_counts": [len(by_position[p]) for p in aliased],
                "typed": [], "labels": [],
                "aliases": [a for p in aliased for a in by_position[p]]})
            kbs.append(load_kb(str(path)))
        descending, twin = kbs
        assert descending.aliased.tolist() == [0, 1, 3, 4]
        index = build_index(descending)
        assert _ordered(index) == _ordered(build_index(twin))
        assert index.exact["york"] == ["m.b", "m.e"]
        assert index.partial["new york"] == ["m.d", "m.a"]
        assert list(index.entity_aliases) == ["m.d", "m.a"]
        saved = []
        for kb in kbs:
            save_kb(kb, str(path))
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_walks_in_kb_order(self, path):
        """``build_kb`` places the entities of the facts before the alias
        pairs' order would, and the index still lists ``partial`` buckets
        and ``entity_aliases`` in KB order, as from the loaded KB."""
        kb = build_kb([Fact("m.b", "/r", "m.a")], alias_pairs=[
            ("m.a", "new york"), ("m.b", "new jersey")])
        assert kb.aliased.tolist() == [0, 1]
        index = build_index(kb)
        assert index.partial["new"] == ["m.b", "m.a"]
        assert list(index.entity_aliases) == ["m.b", "m.a"]
        assert _ordered(build_index(_round_trip(kb, path))) == _ordered(index)

    def test_alias_longer_than_any_gram(self):
        """A five-token alias is an exact key but no gram: its runs of up
        to three tokens find it, and ``longest`` stays at three."""
        idx = build_index(build_kb([], alias_pairs=[
            ("m.a", "the new york times company")]))
        assert idx.exact == {"the new york times company": ["m.a"]}
        assert "the new york times company" not in idx.partial
        assert idx.partial["new york times"] == ["m.a"]
        assert idx.longest == MAX_NGRAM
        (cand,) = retrieve_candidates(idx, tokenize("new york"))
        assert cand.matched_alias == "the new york times company"
        assert (cand.n_i, cand.l_i, cand.c_i) == (2, 5, 1)
        (cand,) = retrieve_question_candidates(
            idx, "who runs the new york times company ?")
        assert (cand.n_i, cand.l_i) == (3, 5)

    def test_one_partial_gram_through_two_aliases(self):
        """An entity whose two aliases share a gram is in that gram's
        bucket once, and matches its shorter alias."""
        idx = build_index(build_kb([], alias_pairs=[
            ("m.a", "new york times"), ("m.a", "new york city"),
            ("m.b", "york")]))
        assert idx.partial["new york"] == ["m.a"]
        assert idx.partial["york"] == ["m.a"]
        assert idx.entity_aliases == {"m.a": ["new york times",
                                              "new york city"]}
        got = retrieve_candidates(idx, tokenize("new york"))
        assert [(c.id, c.matched_alias) for c in got] == [
            ("m.a", "new york city")]

    @pytest.mark.parametrize("aliases, longest", [
        ([], 0),
        ([("m.a", "alpha"), ("m.b", "beta"), ("m.b", "\u00c9t\u00e9")], 1),
        ([("m.a", "alpha"), ("m.b", "alpha beta gamma")], 3),
    ])
    def test_longest(self, aliases, longest):
        assert build_index(build_kb([], alias_pairs=aliases)).longest == \
            longest

    def test_every_alias_reachable_via_exact(self, tiny_kb, tiny_index):
        for mid, rec in tiny_kb.entities.items():
            for alias in rec.aliases:
                assert mid in tiny_index.exact[" ".join(alias.split())]


class TestRetrieveCandidates:
    def test_exact_single(self, tiny_index):
        (cand,) = retrieve_candidates(tiny_index, tokenize("barack obama"))
        assert cand.id == "m.02mjmr"
        assert (cand.n_i, cand.l_i, cand.c_i) == (2, 2, 1)
        assert cand.score == 1.0

    def test_exact_shared_bucket_scores(self, tiny_index):
        cands = retrieve_candidates(tiny_index, tokenize("germany"))
        assert [c.id for c in cands] == ["m.017hzy7", "m.0345h"]
        assert all(c.score == pytest.approx(0.5) for c in cands)
        assert all(c.c_i == 2 for c in cands)

    def test_exact_dominates_fallback(self):
        """When an exact alias exists, partial-gram entities never appear."""
        kb = build_kb(
            [],
            alias_pairs=[("m.a", "new york"), ("m.b", "new york city")],
        )
        idx = build_index(kb)
        got = retrieve_candidates(idx, tokenize("new york"))
        assert [c.id for c in got] == ["m.a"]

    def test_fallback_weighting(self):
        kb = build_kb([], alias_pairs=[("m.a", "alpha beta gamma")])
        idx = build_index(kb)
        (cand,) = retrieve_candidates(idx, tokenize("alpha beta"))
        # span gram "alpha beta" (2 words) hit a 3-word alias, lone candidate
        assert (cand.n_i, cand.l_i, cand.c_i) == (2, 3, 1)
        assert cand.score == pytest.approx(2 / 3)
        assert cand.matched_alias == "alpha beta gamma"

    def test_fallback_four_candidates_sixth(self):
        """Two-word gram, three-word aliases, four retrieved entities."""
        aliases = [(f"m.c{i}", f"alpha beta word{i}") for i in range(4)]
        idx = build_index(build_kb([], alias_pairs=aliases))
        got = retrieve_candidates(idx, tokenize("alpha beta"))
        assert len(got) == 4
        for c in got:
            assert (c.n_i, c.l_i, c.c_i) == (2, 3, 4)
            assert c.score == pytest.approx(1 / 6)

    def test_no_match(self, tiny_index):
        assert retrieve_candidates(tiny_index, tokenize("zzz qqq")) == []

    def test_empty_span(self, tiny_index):
        assert retrieve_candidates(tiny_index, tokenize("   ")) == []

    def test_text_is_a_type_error(self, tiny_index):
        """Text would be read character by character; it is refused."""
        with pytest.raises(TypeError):
            retrieve_candidates(tiny_index, "germany")

    def test_scores_recomputable(self, tiny_index):
        for span in ("germany", "barack", "harder ..... faster", "obama usa"):
            for c in retrieve_candidates(tiny_index, tokenize(span)):
                assert c.score == pytest.approx(c.n_i / (c.l_i * c.c_i))

    def test_deterministic(self, tiny_index):
        a = retrieve_candidates(tiny_index, tokenize("germany album harder"))
        b = retrieve_candidates(tiny_index, tokenize("germany album harder"))
        assert a == b

    def test_sorted_by_score_then_id(self):
        kb = build_kb(
            [],
            alias_pairs=[
                ("m.long", "one two three"),
                ("m.x2", "one"),
                ("m.x1", "one"),
            ],
        )
        idx = build_index(kb)
        got = retrieve_candidates(idx, tokenize("one two"))
        scores = [c.score for c in got]
        assert scores == sorted(scores, reverse=True)
        ties = [c.id for c in got if c.score == pytest.approx(1 / 3)]
        assert ties == sorted(ties)


class TestQuestionLevelRetrieval:
    def test_alias_inside_question_found(self, tiny_index):
        got = retrieve_question_candidates(tiny_index, "where was barack obama born ?")
        assert got and got[0].id == "m.02mjmr"
        assert got[0].n_i == 2

    def test_same_label_pair_both_retrieved(self, tiny_index):
        got = retrieve_question_candidates(tiny_index, "how was germany released ?")
        ids = {c.id for c in got}
        assert {"m.017hzy7", "m.0345h"} <= ids

    def test_long_question_still_hits_two_token_alias(self, tiny_index):
        """Pruning on the question side must not hide short aliases."""
        q = "in which city of the united states was barack obama born then ?"
        ids = {c.id for c in retrieve_question_candidates(tiny_index, q)}
        assert "m.02mjmr" in ids

    def test_empty_question(self, tiny_index):
        assert retrieve_question_candidates(tiny_index, "") == []
