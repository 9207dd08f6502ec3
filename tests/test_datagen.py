"""Training-set generation: span labels, relation pairs, negative pools."""

import functools
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import span_tokens

from qakb import datagen
from qakb.aliasindex import build_index, retrieve_question_candidates
from qakb.datagen import (
    DRR_KEEP,
    DRR_TRUNCATE_ABOVE,
    LabeledQuestion,
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
    relation_domain,
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


def _text_codes(texts):
    """``texts`` as a zero-padded [text, character] array of code points,
    and their lengths: the inputs of :func:`_oracle_rows`."""
    width = max(max(map(len, texts), default=0), 1)
    codes = np.array([[ord(c) for c in t] + [0] * (width - len(t))
                      for t in texts], dtype=np.int64).reshape(-1, width)
    return codes, np.array([len(t) for t in texts])


def _oracle_rows(key, codes, lens):
    """The edit distance from ``key`` to each text of :func:`_text_codes`,
    by the plain Wagner-Fischer DP: one row per text, stepped one
    character of ``key`` at a time.  A row holds ``D[i][j] - j``, so an
    insertion along it costs nothing and the row is a running minimum of
    its deletion and (mis)match candidates.  Columns past a text's end
    never feed earlier ones, so the zero padding is harmless."""
    row = np.zeros((len(codes), codes.shape[1] + 1), dtype=np.int32)
    mismatch = {}  # per key character: 0 where a text matches it, else 1
    for i, ch in enumerate(key, 1):
        if ch not in mismatch:
            mismatch[ch] = (codes != ord(ch)).astype(np.int32)
        best = np.empty_like(row)
        best[:, 0] = i
        # D[i-1][j] + 1 - j, and D[i-1][j-1] + mismatch - j
        np.minimum(row[:, 1:] + 1, row[:, :-1] + mismatch[ch] - 1,
                   out=best[:, 1:])
        row = np.minimum.accumulate(best, axis=1)
    return row[np.arange(len(codes)), lens] + lens


def _oracle_sort(key, rels, codes):
    """``rels`` other than ``key``, by (edit distance to ``key``, name);
    ``codes`` is ``_text_codes(rels)``."""
    dist = _oracle_rows(key, *codes).tolist()
    return [r for _, r in sorted(zip(dist, rels)) if r != key]


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

    @given(st.text(max_size=7), st.lists(st.text(max_size=7), min_size=1,
                                         max_size=4))
    def test_row_oracle_matches_recursive_oracle(self, key, texts):
        """The array Wagner-Fischer the grid tests use as their reference
        agrees with the recursive definition."""
        assert (_oracle_rows(key, *_text_codes(texts)).tolist()
                == [_oracle_lev(key, t) for t in texts])


def _q(text, subject="m.x", relation="/r/r/r", obj="m.y"):
    return make_question(text, Fact(subject, relation, obj))


def _full_search_label(q, entity_aliases):
    """``label_entity_span`` by the full search alone: every gram against
    every alias, the least (distance, -length, start, alias index) wins."""
    tokens = q.tokens
    n = len(tokens)
    aliases = [a.strip().lower() for a in entity_aliases if a.strip()]
    if n < 2 or not aliases:
        raise LabelFailure(
            f"cannot label {q.text!r}: need at least 2 tokens and 1 alias"
        )
    spans = [(start, start + length) for length in range(1, n)
             for start in range(0, n - length + 1)]
    codes = _text_codes([" ".join(tokens[lo:hi]) for lo, hi in spans])
    best = None
    for alias_i, alias in enumerate(aliases):
        dists = _oracle_rows(alias, *codes).tolist()
        for (lo, hi), dist in zip(spans, dists):
            key = (dist, lo - hi, lo, alias_i)
            if best is None or key < best[0]:
                best = key, (lo, hi), alias
    (dist, _, _, _), (lo, hi), alias = best
    if dist >= max(len(" ".join(tokens[lo:hi])), len(alias)):
        raise LabelFailure(
            f"no plausible span for alias {alias!r} in {q.text!r}"
        )
    return LabeledQuestion(
        tokens=tokens,
        tags=tuple("e" if lo <= i < hi else "c" for i in range(n)))


def _label_outcome(label, q, aliases):
    """``label(q, aliases)``, or the message of the LabelFailure it
    raises."""
    try:
        return label(q, aliases)
    except LabelFailure as exc:
        return f"LabelFailure: {exc}"


@st.composite
def _long_and_wide_questions(draw):
    """(question words, aliases): words of up to 40 characters, with
    non-ASCII and non-BMP letters and repeats, or of a and b alone, so
    that long grams differ from one another by a few edits; each alias a
    run of the words, that run with one letter changed, or a string
    sharing no character with the question."""
    word = st.one_of(st.sampled_from(["ab", "é世", "\U0001F600a", "abé世" * 4,
                                      "b\U0001F600" * 9]),
                     st.text(alphabet="ab", min_size=10, max_size=40))
    words = draw(st.lists(word, min_size=2, max_size=6))
    n = len(words)
    run = st.tuples(st.integers(0, n - 1), st.integers(1, n)).map(
        lambda sl: " ".join(words[sl[0]:sl[0] + sl[1]]))
    misspelt = st.tuples(run, st.integers(0, 200),
                         st.sampled_from("xé\U0001F601")).map(
        lambda e: (e[0][:e[1] % len(e[0])] + e[2]
                   + e[0][e[1] % len(e[0]) + 1:]))
    foreign = st.text(alphabet="xyzq", min_size=1, max_size=5)
    return words, draw(st.lists(st.one_of(misspelt, run, foreign),
                                min_size=1, max_size=3))


class TestLabelEntitySpan:
    def test_exact_one_gram(self):
        got = label_entity_span(_q("where was obama born ?"), ["obama"])
        assert got.tags == ("c", "c", "e", "c", "c")

    def test_plural_mismatch_still_selected(self):
        got = label_entity_span(_q("which albums did she make ?"), ["album"])
        assert got.tags[1] == "e"
        assert span_tokens(got) == ["albums"]

    def test_whole_question_minus_one_token(self):
        got = label_entity_span(_q("play harder ..... faster"),
                                ["harder ..... faster"])
        assert got.tags == ("c", "e", "e", "e")

    def test_tie_prefers_longer_gram(self):
        # both "new york" and "new york city" are aliases; distance 0 each
        got = label_entity_span(
            _q("mayor of new york city now"), ["new york city", "new york"]
        )
        assert span_tokens(got) == ["new", "york", "city"]

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
        span = span_tokens(first)
        chosen = " ".join(span)
        chosen_best = min(_oracle_lev(chosen, a.lower()) for a in aliases)
        n = len(q.tokens)
        spans = [(start, start + length) for length in range(1, n)
                 for start in range(0, n - length + 1)]
        codes = _text_codes([" ".join(q.tokens[lo:hi]) for lo, hi in spans])
        for alias in aliases:
            dists = _oracle_rows(alias.lower(), *codes).tolist()
            for (lo, hi), d in zip(spans, dists):
                assert d >= chosen_best
                if d == chosen_best:
                    assert hi - lo <= len(span)

    def test_verbatim_alias_computes_no_distance(self, monkeypatch):
        """An exact alias computes no grid; a misspelt one computes one
        grid of every gram against every alias."""
        calls = _count_distance_rows(monkeypatch)
        got = label_entity_span(_q("who founded the acme co ?"),
                                ["acme", "the acme co"])
        assert span_tokens(got) == ["the", "acme", "co"]
        assert calls[0] == 0
        got = label_entity_span(_q("who founded the akme co ?"),
                                ["acme", "acme co"])
        assert span_tokens(got) == ["akme", "co"]
        assert calls[0] == 1

    @pytest.mark.parametrize("text, aliases", [
        # repeated aliases
        ("who is ab ab cd", ["cd", "ab", "ab", "cd"]),
        # an alias that occurs twice
        ("ab cd ef ab cd", ["ef", "ab cd"]),
        # one alias inside a longer one, in either order
        ("mayor of new york city now", ["new york", "new york city"]),
        ("mayor of new york city now", ["new york city", "new york"]),
        # no exact match
        ("who wrote harry potter", ["hary potter", "harry poter"]),
        # aliases are stripped and lower-cased before matching
        ("where is ab cd", ["  AB Cd ", "ab"]),
        # rejected: no shared character, one token, no usable alias
        ("xx yy", ["qq"]),
        ("obama", ["obama"]),
        ("where was obama born", ["  ", ""]),
    ])
    def test_same_as_full_search(self, text, aliases):
        q = _q(text)
        assert (_label_outcome(label_entity_span, q, aliases)
                == _label_outcome(_full_search_label, q, aliases))

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.sampled_from(["ab", "abc", "b", "ba", "cd", "?"]),
                    max_size=7),
           st.data())
    def test_same_as_full_search_on_random_questions(self, words, data):
        """The exact-match shortcut labels every question as the full
        search does, and rejects the same ones with the same message."""
        q = _q(" ".join(words))
        alias = st.one_of(
            st.lists(st.sampled_from(["ab", "abc", "b", "ba", "cd", "xy"]),
                     min_size=1, max_size=3).map(" ".join),
            st.text(alphabet="abcxy ?", max_size=6))
        if q.tokens:
            # a run of the question's own tokens, so exact matches abound
            n = len(q.tokens)
            alias |= st.tuples(st.integers(0, n - 1),
                               st.integers(1, n)).map(
                lambda sl: " ".join(q.tokens[sl[0]:sl[0] + sl[1]]))
        alias |= alias.map(lambda a: f" {a.upper()} ")
        aliases = data.draw(st.lists(alias, max_size=5))
        assert (_label_outcome(label_entity_span, q, aliases)
                == _label_outcome(_full_search_label, q, aliases))

    @settings(deadline=None, max_examples=60)
    @given(_long_and_wide_questions())
    # one letter off two equal 4-grams of 83 characters, two pattern words
    @example((["abé世" * 5] * 5, [" ".join(["abé世" * 5] * 4)[:-1] + "x"]))
    # a misspelt 2-gram of 67 characters among long grams of a and b,
    # whose distances differ by a few edits
    @example((["bbaababbaaabbbbabbbbababababbbabbabbbb",
               "aababbaabbbabbbaaabababbabab", "aabbabaaabbbbba",
               "babaaabababb"],
              ["bbaababbaaabbbbabbbbababababbbabxabbbb "
               "aababbaabbbabbbaaabababbabab"]))
    # equal-length grams tie ("ab" twice), and so do the aliases
    @example((["ab", "ab", "é世"], ["abx", "aby"]))
    # no character shared with a non-BMP question: rejected
    @example((["\U0001F600a", "é世"], ["xyz", "q"]))
    def test_same_as_full_search_on_long_and_wide_questions(self, case):
        """Grams past 64 characters chain two pattern words; non-ASCII and
        non-BMP letters, ties between equal-length grams and between
        aliases, and aliases sharing no character with the question all
        label (or reject) as the full search does."""
        words, aliases = case
        q = _q(" ".join(words))
        assert (_label_outcome(label_entity_span, q, aliases)
                == _label_outcome(_full_search_label, q, aliases))

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
        assert relation_domain("/music/album/genre") == "music"
        domains = build_relation_domains(
            ["/music/album/genre", "/people/person/place_of_birth"]
        )
        assert domains == {"music": ["/music/album/genre"],
                           "people": ["/people/person/place_of_birth"]}

    def test_members_grouped_sorted(self):
        domains = build_relation_domains(
            ["/music/b/x", "/music/a/y", "/film/c/z"]
        )
        assert domains["music"] == ["/music/a/y", "/music/b/x"]
        assert domains["film"] == ["/film/c/z"]


def _written(tmp_path, groups):
    """``groups`` as :func:`write_matcher_pairs` writes them, read back
    as (question, text, tag) pairs."""
    path = str(tmp_path / "pairs.tsv")
    count = write_matcher_pairs(path, groups)
    pairs = read_matcher_pairs(path)
    assert count == len(pairs)
    return pairs


class TestRelationPairs:
    def setup_method(self):
        rels = [f"/music/album/{x}" for x in ("genre", "artist", "label",
                                              "release", "content")]
        self.table = build_relation_domains(rels)
        self.q = _q("what genre is x ?", relation="/music/album/genre")

    def test_counts_with_triplication(self, tmp_path):
        group = gen_relation_pairs(self.q, "/music/album/genre", self.table)
        assert group[:2] == (self.q.text, "/music/album/genre")
        assert len(group[2]) == 4
        pairs = _written(tmp_path, [group])
        assert len(pairs) == 4 + 3
        assert sum(tag for _, _, tag in pairs) == 3

    def test_singleton_domain(self, tmp_path):
        table = build_relation_domains(["/tv/show/host"])
        group = gen_relation_pairs(self.q, "/tv/show/host", table)
        assert group == (self.q.text, "/tv/show/host", [])
        pairs = _written(tmp_path, [group])
        assert pairs == [(self.q.text, "/tv/show/host", 1)] * 3

    def test_tags_binary_and_domain_covered(self, tmp_path):
        group = gen_relation_pairs(self.q, "/music/album/genre", self.table)
        pairs = _written(tmp_path, [group])
        assert {tag for _, _, tag in pairs} <= {0, 1}
        negatives = [rel for _, rel, tag in pairs if tag == 0]
        domain = [r for r in self.table["music"] if r != "/music/album/genre"]
        assert negatives == group[2] == domain

    def test_positive_multiplicity_exactly_three(self, tmp_path):
        group = gen_relation_pairs(self.q, "/music/album/genre", self.table)
        positives = [p for p in _written(tmp_path, [group]) if p[2] == 1]
        assert len(positives) == 3
        assert all(p[1] == "/music/album/genre" for p in positives)


class TestTypePairs:
    def test_gold_type_triplicated_with_distractors(self, tiny_kb, tmp_path):
        index = build_index(tiny_kb)
        q = make_question(
            "how was germany released ?",
            Fact("m.017hzy7", "/music/recording/releases", "m.0rel01"),
        )
        cands = retrieve_question_candidates(index, q.text)
        group = gen_type_pairs(q, tiny_kb, cands, type_inventory(tiny_kb))
        assert group[:2] == (q.text, "musical recording")
        pairs = _written(tmp_path, [group])
        positives = [p for p in pairs if p[2] == 1]
        assert len(positives) == 3
        assert all(p[1] == "musical recording" for p in positives)
        negative_texts = {p[1] for p in pairs if p[2] == 0}
        assert "country" in negative_texts
        assert "musical recording" not in negative_texts

    def test_untyped_gold_yields_nothing(self, tiny_kb):
        q = make_question("where is berlin ?",
                          Fact("m.0k3p", "/r/r/r", "m.x"))
        assert gen_type_pairs(q, tiny_kb, [], type_inventory(tiny_kb)) is None

    def test_inventory_sorted_and_distinct(self, tiny_kb):
        assert type_inventory(tiny_kb) == [
            "country", "musical album", "musical recording", "us president",
        ]

    def test_pads_from_inventory_in_order(self, tiny_kb):
        q = make_question("who is obama ?",
                          Fact("m.02mjmr", "/r/r/r", "m.x"))
        group = gen_type_pairs(q, tiny_kb, [], ["b", "us president", "a"])
        assert group == (q.text, "us president", ["b", "a"])


def _count_distance_rows(monkeypatch):
    """Count calls of ``datagen._distance_rows``; the returned one-item
    list holds the running total."""
    calls = [0]
    real = datagen._distance_rows

    def counting(patterns, texts):
        calls[0] += 1
        return real(patterns, texts)

    monkeypatch.setattr(datagen, "_distance_rows", counting)
    return calls


def _spy_distance_rows(monkeypatch):
    """Record the (patterns, texts) shape of every distance block
    ``datagen._distance_rows`` yields; returns the list it fills."""
    blocks = []
    real = datagen._distance_rows

    def spying(patterns, texts):
        for block, dist in real(patterns, texts):
            assert dist.shape == (len(block), len(texts))
            blocks.append(dist.shape)
            yield block, dist

    monkeypatch.setattr(datagen, "_distance_rows", spying)
    return blocks


@contextmanager
def _drr_limits(truncate_above, keep):
    """Within the block, ``build_drr`` cuts each row to the nearest
    ``keep`` above ``truncate_above`` relations."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datagen, "DRR_TRUNCATE_ABOVE", truncate_above)
        mp.setattr(datagen, "DRR_KEEP", keep)
        yield


_CHARS = st.sampled_from("ab/_\u00e9\u4e2d\U0001F600")


@st.composite
def _relation_sets(draw):
    """(relations, keys): 1-7 relations whose bodies are 0-200 characters
    long, often 63, 64, 65, 128 or 129, from an alphabet with non-ASCII
    and non-BMP characters; a prefix and a suffix shared by all; at
    times one relation extending another; keys among them and not."""
    length = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128, 129, 200]),
                       st.integers(0, 200))
    bodies = draw(st.lists(
        length.flatmap(lambda n: st.text(_CHARS, min_size=n, max_size=n)),
        min_size=1, max_size=6))
    if draw(st.booleans()):
        bodies.append(bodies[0] + draw(st.text(_CHARS, min_size=1,
                                               max_size=70)))
    prefix = draw(st.text(_CHARS, max_size=8))
    suffix = draw(st.text(_CHARS, max_size=8))
    rels = {prefix + body + suffix for body in bodies}
    keys = draw(st.sets(st.sampled_from(sorted(rels)), min_size=1))
    keys |= draw(st.sets(st.text(_CHARS, max_size=4), max_size=2))
    return rels, keys


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
        with _drr_limits(10, 5):
            d = build_drr(rels)
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
        with _drr_limits(1, keep) if truncate else nullcontext():
            d = build_drr(rels)
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
        with _drr_limits(3, 2) if truncate else nullcontext():
            full = build_drr(rels)
            assert build_drr(rels, keys=keys) == {
                k: full[k] for k in keys if k in rels
            }

    def test_no_keys_no_rows(self):
        assert build_drr(["/r/a", "/r/b"], keys=[]) == {}
        assert build_drr(["/r/a", "/r/b"], keys=["/r/zz"]) == {}

    def test_only_key_rows_computed(self, monkeypatch):
        rels = [f"/r/x{i}" for i in range(9)]
        blocks = _spy_distance_rows(monkeypatch)
        build_drr(rels)
        assert blocks == [(9, 9)]
        blocks.clear()
        build_drr(rels, keys=rels[:3] + ["/r/zz"])
        assert blocks == [(3, 9)]
        blocks.clear()
        build_drr(rels, keys=["/r/zz"])
        assert blocks == []

    @settings(deadline=None, max_examples=60)
    @given(_relation_sets(), st.booleans())
    @example(({"/p/" + c * n + "/s" for c, n in
               zip("ab\u00e9\u4e2d\U0001F600x", (63, 64, 65, 128, 129, 0))}
              | {"/p/" + "a" * 63 + "b/s"},
              {"/p/" + "a" * 63 + "/s", "/p//s", "/p/zz/s", "nope"}),
             False)
    # the shared prefix and suffix overlap in "/r"
    @example(({"/r", "/r/r", "/r/r/r"}, {"/r", "/r/r", "/r/r/r"}), False)
    def test_array_pass_matches_brute_force(self, case, truncate):
        """Every row equals the (edit distance, name) sort of the other
        relations by the Wagner-Fischer oracle, across the 64-character
        word boundaries, non-ASCII text, shared affixes, prefix relations
        and single relations."""
        rels, keys = case
        with _drr_limits(1, 3) if truncate else nullcontext():
            d = build_drr(rels, keys=keys)
        assert set(d) == keys & rels
        rels = sorted(rels)
        codes = _text_codes(rels)
        for key, row in d.items():
            expected = _oracle_sort(key, rels, codes)
            assert row == (expected[:3] if truncate else expected)

    def test_truncated_rows_in_blocks(self, monkeypatch):
        """Above DRR_TRUNCATE_ABOVE relations each row is the nearest
        DRR_KEEP; a block budget of one cell puts each key in its own
        block and gives the same rows."""
        rng = np.random.default_rng(11)
        rels = set()
        while len(rels) < 2100:
            n = int(rng.integers(1, 90))
            rels.add("/synth/" + "".join(rng.choice(list("abcd\u00e9/"), n)))
        rels = sorted(rels)
        keys = [rels[0], max(rels, key=len), rels[1500]]
        assert len(rels) > DRR_TRUNCATE_ABOVE and len(keys[1]) > 64 + 7
        whole = build_drr(rels, keys=keys)
        blocks = _spy_distance_rows(monkeypatch)
        monkeypatch.setattr(datagen, "DRR_BLOCK_CELLS", 1)
        assert build_drr(rels, keys=keys) == whole
        assert blocks == [(1, 2100)] * 3
        codes = _text_codes(rels)
        for key in keys:
            assert whole[key] == _oracle_sort(key, rels, codes)[:DRR_KEEP]


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
        pool = gen_subject_negatives(
            self.q, self.cands, self.kb,
            functools.partial(np.random.default_rng, 0))
        assert "m.s1" not in pool
        assert "m.s2" not in pool

    def test_padded_to_target_by_resampling(self):
        pool = gen_subject_negatives(
            self.q, self.cands, self.kb,
            functools.partial(np.random.default_rng, 0))
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
        pool = gen_subject_negatives(
            q, cands, kb, functools.partial(np.random.default_rng, 1))
        assert len(pool) == 7

    def test_empty_when_no_candidates(self):
        pool = gen_subject_negatives(
            self.q, [], self.kb, functools.partial(np.random.default_rng, 0)
        )
        assert pool == []


    def test_generator_made_only_to_pad(self, monkeypatch):
        """``build_negative_pools`` makes a question's generator only when
        its subject pool needs padding, and pads as a generator made for
        every question would."""
        golds = ["m.s1", "m.b2", "m.b1", "m.hub", "m.b3"]
        questions = [make_question(text, Fact(gold, "/d/x/r000", "m.o0"))
                     for text, gold in zip(
                         ["what does acme beta gamma do ?"] * 3
                         + ["what is hub ?", "what does gamma do ?"], golds)]
        made = []
        default_rng = np.random.default_rng

        def recording(seed):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        pools = build_negative_pools(questions, self.kb, self.index, seed=7)
        monkeypatch.undo()
        eager = [gen_subject_negatives(
            q, retrieve_question_candidates(self.index, q.tokens), self.kb,
            lambda rng=np.random.default_rng(7 ^ i): rng)
            for i, q in enumerate(questions)]
        assert pools.subject_pools == eager
        # a padded pool repeats a survivor; the rest are empty here
        padded = [i for i, pool in enumerate(eager)
                  if pool and len(set(pool)) < len(pool)]
        assert padded == [0, 1, 2]
        assert [] in eager
        assert made == [7 ^ i for i in padded]


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

    def test_rows_computed_are_gold_relations(self, monkeypatch):
        kb, train, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_entities=40, n_relations=32))
        questions = train[:12]
        n_rels = len({f.relation for f in kb.facts})
        k = len({q.gold.relation for q in questions})
        index = build_index(kb)
        blocks = _spy_distance_rows(monkeypatch)
        build_negative_pools(questions, kb, index, seed=3)
        assert 0 < k < n_rels
        assert blocks == [(k, n_rels)]

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
        groups = [("q one ?", "/r/a/b", ["/r/a/c", "/r/a/d"]),
                  ("q two ?", "/r/a/c", []),
                  ("q one ?", "/r/a/d", ["/r/a/b"])]
        assert _written(tmp_path, groups) == (
            [("q one ?", "/r/a/b", 1)] * 3
            + [("q one ?", "/r/a/c", 0), ("q one ?", "/r/a/d", 0)]
            + [("q two ?", "/r/a/c", 1)] * 3
            + [("q one ?", "/r/a/d", 1)] * 3 + [("q one ?", "/r/a/b", 0)])
        assert (tmp_path / "pairs.tsv").read_text().splitlines()[:5] == [
            "question\ttext\ttag", "q one ?\t/r/a/b\t1",
            "q one ?\t/r/a/b\t1", "q one ?\t/r/a/b\t1",
            "q one ?\t/r/a/c\t0"]
        assert _written(tmp_path, []) == []

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
