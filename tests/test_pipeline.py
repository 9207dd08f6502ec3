"""Tagger, matcher, and ranking-strategy tests for the staged QA stack."""

import json
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from conftest import (assert_fused_bits, composed_binary_ce,
                      finite_diff_check, fresh, param)

import qakb.aliasindex
import qakb.nn.layers
import qakb.nn.tensor
import qakb.pipeline
from qakb.aliasindex import build_index, retrieve_candidates, tokenize
from qakb.datagen import LabeledQuestion, label_questions
from qakb.errors import EmptyTrainingSet, NoCandidates, NoRelation
from qakb.evalharness import (SyntheticSpec, answer_record,
                              generate_synthetic, predict)
from qakb.kb import Fact, build_kb, notable_type, out_degree, relations_of
from qakb.nn.config import TrainConfig
from qakb.nn.layers import dropout_mask, recurrent
from qakb.nn.losses import loss_binary_ce, loss_categorical_ce
from qakb.nn.optim import fit
from qakb.nn.io import load_model, save_model
from qakb.nn.tensor import (Tensor, concat, gather_rows, reshape,
                            softmax_rows, tsum)
from qakb.pipeline import (
    STRATEGIES,
    MatchEncodings,
    MatcherModel,
    PipelineModels,
    PipelineStrategy,
    TaggerModel,
    context_fields,
    matcher_tokens,
    spans,
    tag_question,
    train_matcher,
    train_tagger,
)


class SpanOracleTagger:
    """Tags a fixed token set as entity text; everything else is context."""

    def __init__(self, entity_tokens):
        self.entity_tokens = set(entity_tokens)

    def forward(self, tokens):
        return np.array(
            [[0.0, 1.0] if tok in self.entity_tokens else [1.0, 0.0]
             for tok in tokens],
            dtype=float,
        ).reshape(len(tokens), 2)


def _prediction(strategy, question, models, kb, index):
    """The prediction of a fresh strategy object."""
    return PipelineStrategy(strategy, models, kb, index).prediction(question)


class TableMatcher:
    """Deterministic scores from a (question, text) lookup."""

    def __init__(self, table, default=0.0):
        self.table = dict(table)
        self.default = default

    def score(self, question, text, encodings, tokens):
        return float(self.table.get((question, text), self.default))


def _alone(model, question, text):
    """``model``'s score of one pair as a fresh session of its own gives
    it: both sides encoded afresh."""
    return model.score(question, text, MatchEncodings((model,)),
                       tokenize(question))


def _ambiguous_kb():
    """Two entities share the alias "acme"; m.0g01 has the larger
    out-degree (9 vs 2) and a distinct notable type."""
    facts = [
        Fact("m.0a01", "/d/x/founded", "m.objA"),
        Fact("m.0a01", "/d/x/ceo", "m.objB"),
        Fact("m.0g01", "/d/x/founded", "m.objC"),
    ]
    facts += [Fact("m.0g01", f"/d/x/r{i}", f"m.obj{i}") for i in range(8)]
    facts.append(Fact("m.0bbb", "/d/y/color", "m.objD"))
    aliases = [("m.0a01", "acme"), ("m.0g01", "acme"), ("m.0bbb", "beta corp")]
    types = [("m.0a01", "film"), ("m.0g01", "musical recording")]
    return build_kb(facts, aliases, types)


def _models(tagger_tokens, rel_table, rel_default=0.1, type_table=None,
            type_default=0.0):
    type_matcher = None
    if type_table is not None:
        type_matcher = TableMatcher(type_table, default=type_default)
    return PipelineModels(
        tagger=SpanOracleTagger(tagger_tokens),
        relation_matcher=TableMatcher(rel_table, default=rel_default),
        type_matcher=type_matcher,
    )


class TestSpans:
    def test_single_run(self):
        lab = LabeledQuestion(("a", "b", "c", "d"), ("c", "e", "e", "c"))
        assert spans(lab) == ["b c"]

    def test_all_context_is_empty(self):
        lab = LabeledQuestion(("a", "b"), ("c", "c"))
        assert spans(lab) == []

    def test_two_runs(self):
        lab = LabeledQuestion(("a", "b", "c"), ("e", "c", "e"))
        assert spans(lab) == ["a", "c"]

    def test_all_entity(self):
        lab = LabeledQuestion(("x", "y"), ("e", "e"))
        assert spans(lab) == ["x y"]

    def test_empty(self):
        assert spans(LabeledQuestion((), ())) == []


class TestMatcherTokens:
    def test_relation_path_splits_on_slash(self):
        assert matcher_tokens("/music/album/genre") == ["music", "album", "genre"]

    def test_plain_text_tokenizes(self):
        assert matcher_tokens("musical recording") == ["musical", "recording"]

    def test_punctuation_alias(self):
        assert matcher_tokens("harder ..... faster") == ["harder", ".....", "faster"]


class TestTaggerTraining:
    def test_empty_raises(self):
        with pytest.raises(EmptyTrainingSet):
            train_tagger([], TrainConfig())

    def test_overfit_single_example(self):
        data = [LabeledQuestion(("where", "was", "obama", "born"),
                                ("c", "c", "e", "c"))]
        cfg = TrainConfig(seed=3, epochs=200, batch_size=1, hidden_size=8,
                          embed_dim=8, learning_rate=0.01)
        model, curve = train_tagger(data, cfg)
        lab = tag_question(model, list(data[0].tokens))
        assert lab.tags == data[0].tags
        assert len(curve) == 200

    def test_loss_decreases_on_synthetic_set(self):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(30)]
        data = []
        for _ in range(200):
            n = int(rng.integers(4, 9))
            toks = tuple(str(t) for t in rng.choice(vocab, size=n))
            start = int(rng.integers(0, n - 1))
            length = int(rng.integers(1, min(3, n - start) + 1))
            tags = tuple(
                "e" if start <= i < start + length else "c" for i in range(n)
            )
            data.append(LabeledQuestion(toks, tags))
        cfg = TrainConfig(seed=42, epochs=3, batch_size=32, hidden_size=8,
                          embed_dim=8)
        _, curve = train_tagger(data, cfg)
        assert curve[-1] < curve[0]


class TestTagQuestion:
    def _model(self):
        cfg = TrainConfig(hidden_size=6, embed_dim=6)
        return fresh(TaggerModel, ["where", "was", "obama", "born"], cfg,
                     np.random.default_rng(11))

    def test_tags_align_with_tokens(self):
        lab = tag_question(self._model(), tokenize("where was obama born"))
        assert len(lab.tags) == len(lab.tokens) == 4
        assert set(lab.tags) <= {"c", "e"}

    def test_deterministic(self):
        model = self._model()
        first = tag_question(model, tokenize("where was obama born"))
        second = tag_question(model, tokenize("where was obama born"))
        assert first == second

    def test_text_is_a_type_error(self):
        """Text would be tagged character by character; it is refused."""
        with pytest.raises(TypeError):
            tag_question(self._model(), "obama born")

    def test_empty_question(self):
        lab = tag_question(self._model(), tokenize(""))
        assert lab.tokens == () and lab.tags == ()


class TestMatcherTraining:
    def _keyword_pairs(self):
        pairs = []
        for i in range(4):
            qa = f"what is the genre of item{i}"
            qb = f"who was born in place{i}"
            pairs.append((qa, "/music/album/genre", 1))
            pairs.append((qa, "/people/person/place_of_birth", 0))
            pairs.append((qb, "/people/person/place_of_birth", 1))
            pairs.append((qb, "/music/album/genre", 0))
        return pairs

    def test_empty_raises(self):
        with pytest.raises(EmptyTrainingSet):
            train_matcher([], TrainConfig())

    def test_keyword_pairs_auc(self):
        pairs = self._keyword_pairs()
        cfg = TrainConfig(seed=42, epochs=30, batch_size=4, hidden_size=8,
                          embed_dim=8, learning_rate=0.01)
        model, curve = train_matcher(pairs, cfg)
        pos = [_alone(model, q, t) for q, t, tag in pairs if tag == 1]
        neg = [_alone(model, q, t) for q, t, tag in pairs if tag == 0]
        wins = sum(
            1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg
        )
        auc = wins / (len(pos) * len(neg))
        assert auc > 0.9
        assert curve[-1] < curve[0]

    def test_score_is_a_pure_function(self):
        cfg = TrainConfig(hidden_size=6, embed_dim=6)
        model = fresh(MatcherModel, ["a", "b", "genre"], cfg,
                      np.random.default_rng(5))
        first = _alone(model, "a b", "/music/album/genre")
        second = _alone(model, "a b", "/music/album/genre")
        assert first == second

    def test_scores_inside_unit_interval(self):
        cfg = TrainConfig(hidden_size=6, embed_dim=6)
        model = fresh(MatcherModel, ["a", "b"], cfg, np.random.default_rng(5))
        for text in ("/d/x/r", "a", "b a"):
            s = _alone(model, "a b", text)
            assert 0.0 < s < 1.0


class TestPredictPQA:
    def test_unique_candidate_returns_gold(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "what color is beta corp"
        models = _models({"beta", "corp"}, {(q, "/d/y/color"): 0.8})
        p = _prediction("p-qa", q, models, kb, index)
        assert (p.entity, p.relation) == ("m.0bbb", "/d/y/color")
        assert p.s_t is None and p.s == p.s_r == 0.8

    def test_same_label_picks_first_candidate(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models({"acme"}, {(q, "/d/x/founded"): 0.9})
        p = _prediction("p-qa", q, models, kb, index)
        assert p.relation == "/d/x/founded"
        assert p.entity == "m.0a01"

    def test_equal_scores_pick_lexicographic_relation(self):
        kb = build_kb(
            [Fact("m.0x", "/d/x/b", "m.o1"), Fact("m.0x", "/d/x/a", "m.o2")],
            [("m.0x", "widget")],
        )
        index = build_index(kb)
        models = _models({"widget"}, {}, rel_default=0.5)
        p = _prediction("p-qa", "about widget", models, kb, index)
        assert p.relation == "/d/x/a"

    def test_all_context_falls_back_to_question_grams(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models(set(), {(q, "/d/x/founded"): 0.9})
        p = _prediction("p-qa", q, models, kb, index)
        assert p.entity == "m.0a01" and p.relation == "/d/x/founded"

    def test_unmatchable_question_raises(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        models = _models({"qqq"}, {})
        with pytest.raises(NoCandidates):
            _prediction("p-qa", "qqq zzz", models, kb, index)

    def test_empty_question_raises(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        models = _models(set(), {})
        with pytest.raises(NoCandidates):
            _prediction("p-qa", "", models, kb, index)

    def test_candidate_without_facts_raises_no_relation(self):
        kb = build_kb(
            [Fact("m.0x", "/d/x/r", "m.o1")],
            [("m.0x", "widget"), ("m.ghost", "ghost")],
        )
        index = build_index(kb)
        models = _models({"ghost"}, {})
        with pytest.raises(NoRelation):
            _prediction("p-qa", "about ghost", models, kb, index)

    def test_trace_structure(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models({"acme"}, {(q, "/d/x/founded"): 0.9})
        p = _prediction("p-qa", q, models, kb, index)
        assert p.trace["spans"] == ["acme"]
        ids = [c[0] for c in p.trace["candidates"]]
        assert ids == ["m.0a01", "m.0g01"]
        assert p.trace["relations"][0] == ["/d/x/founded", 0.9]
        # [id, relation, s_r, s_t, out-degree, retrieval score]; p-qa
        # consults no type, and both holders tie on everything but the id
        assert p.trace["ranked"] == [
            [entity, "/d/x/founded", 0.9, None, degree, score]
            for (entity, score), degree in zip(p.trace["candidates"], (2, 9))]


class TestPredictPQAOut:
    def test_out_degree_selects_gold(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models({"acme"}, {(q, "/d/x/founded"): 0.9})
        baseline = _prediction("p-qa", q, models, kb, index)
        ranked = _prediction("p-qa-out", q, models, kb, index)
        assert baseline.entity == "m.0a01"
        assert ranked.entity == "m.0g01"
        assert ranked.relation == baseline.relation == "/d/x/founded"

    def test_singleton_matches_baseline(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "what color is beta corp"
        models = _models({"beta", "corp"}, {(q, "/d/y/color"): 0.8})
        baseline = _prediction("p-qa", q, models, kb, index)
        ranked = _prediction("p-qa-out", q, models, kb, index)
        assert (ranked.entity, ranked.relation) == (
            baseline.entity, baseline.relation
        )

    def test_equal_out_degrees_use_retrieval_score(self):
        kb = build_kb(
            [Fact("m.0zz1", "/d/x/r", "m.o1"), Fact("m.0aa1", "/d/x/r", "m.o2")],
            [("m.0zz1", "big acme corp"), ("m.0aa1", "very big acme corp")],
        )
        index = build_index(kb)
        q = "who runs acme corp"
        models = _models({"acme", "corp"}, {}, rel_default=0.5)
        p = _prediction("p-qa-out", q, models, kb, index)
        # both hold the relation with out-degree 1; "acme corp" scores
        # 2/(3*2) against the shorter alias and 2/(4*2) against the longer
        assert p.entity == "m.0zz1"


class TestPredictPQAType:
    def test_type_resolves_same_label(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models(
            {"acme"},
            {(q, "/d/x/founded"): 0.9},
            type_table={(q, "musical recording"): 0.9, (q, "film"): 0.1},
        )
        p = _prediction("p-qa-type", q, models, kb, index)
        assert p.entity == "m.0g01"
        assert p.relation == "/d/x/founded"
        assert p.s == p.s_t + p.s_r
        assert p.s_t == 0.9

    def test_missing_type_contributes_zero(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "what color is beta corp"
        models = _models({"beta", "corp"}, {(q, "/d/y/color"): 0.8},
                         type_table={}, type_default=0.7)
        p = _prediction("p-qa-type", q, models, kb, index)
        assert p.entity == "m.0bbb"
        assert p.s_t == 0.0
        assert p.s == p.s_r

    def test_each_candidate_keeps_its_own_best_relation(self):
        kb = build_kb(
            [Fact("m.0c1", "/d/x/r1", "m.o1"), Fact("m.0c2", "/d/x/r2", "m.o2")],
            [("m.0c1", "rho"), ("m.0c2", "rho")],
            [("m.0c1", "t one"), ("m.0c2", "t two")],
        )
        index = build_index(kb)
        q = "about rho"
        models = _models(
            {"rho"},
            {(q, "/d/x/r1"): 0.9, (q, "/d/x/r2"): 0.7},
            type_table={(q, "t two"): 0.5},
        )
        p = _prediction("p-qa-type", q, models, kb, index)
        assert (p.entity, p.relation) == ("m.0c2", "/d/x/r2")
        assert p.s == pytest.approx(1.2)

    def test_pairs_in_trace_are_sorted(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models(
            {"acme"},
            {(q, "/d/x/founded"): 0.9},
            type_table={(q, "musical recording"): 0.9, (q, "film"): 0.1},
        )
        p = _prediction("p-qa-type", q, models, kb, index)
        scores = [s_t + s_r for _, _, s_r, s_t, _, _ in p.trace["ranked"]]
        assert scores == sorted(scores, reverse=True)
        assert p.s == scores[0]

    def test_requires_type_matcher(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        models = _models({"acme"}, {})
        typed = [s for s in STRATEGIES if "type" in context_fields(s)]
        assert typed == ["p-qa-type", "p-qa-out-type", "p-qa-type-out"]
        for strategy in typed:
            with pytest.raises(ValueError, match="type matcher"):
                PipelineStrategy(strategy, models, kb, index)


class TestPredictCombo:
    def _acme_models(self, q, type_table, type_default=0.0):
        return _models({"acme"}, {(q, "/d/x/founded"): 0.9},
                       type_table=type_table, type_default=type_default)

    def test_degrees_separate_type_never_applies(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = self._acme_models(
            q, {(q, "film"): 0.95, (q, "musical recording"): 0.05}
        )
        p = _prediction("p-qa-out-type", q, models, kb, index)
        assert p.entity == "m.0g01"

    def test_type_first_overrides_degree(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = self._acme_models(
            q, {(q, "film"): 0.95, (q, "musical recording"): 0.05}
        )
        p = _prediction("p-qa-type-out", q, models, kb, index)
        assert p.entity == "m.0a01"

    def test_degree_tie_broken_by_type(self):
        facts = [
            Fact("m.0a01", "/d/x/founded", "m.objA"),
            Fact("m.0a01", "/d/x/ceo", "m.objB"),
            Fact("m.0g01", "/d/x/founded", "m.objC"),
            Fact("m.0g01", "/d/x/hq", "m.objE"),
        ]
        kb = build_kb(
            facts,
            [("m.0a01", "acme"), ("m.0g01", "acme")],
            [("m.0a01", "film"), ("m.0g01", "musical recording")],
        )
        index = build_index(kb)
        q = "who founded acme"
        models = self._acme_models(
            q, {(q, "musical recording"): 0.9, (q, "film"): 0.1}
        )
        p = _prediction("p-qa-out-type", q, models, kb, index)
        assert p.entity == "m.0g01"
        assert p.s == p.s_t + p.s_r

    def test_type_tie_broken_by_degree(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = self._acme_models(q, {}, type_default=0.3)
        p = _prediction("p-qa-type-out", q, models, kb, index)
        assert p.entity == "m.0g01"

    def test_single_holder_orders_agree(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "what color is beta corp"
        models = _models({"beta", "corp"}, {(q, "/d/y/color"): 0.8},
                         type_table={}, type_default=0.6)
        first = _prediction("p-qa-out-type", q, models, kb, index)
        second = _prediction("p-qa-type-out", q, models, kb, index)
        assert (first.entity, first.relation, first.s) == (
            second.entity, second.relation, second.s
        )

    @pytest.mark.parametrize("strategy, numbers", [
        ("p-qa", 3), ("p-qa-out", 3), ("p-qa-out-type", 4),
        ("p-qa-type-out", 4)])
    def test_holder_rows_carry_type_only_when_consulted(self, strategy,
                                                        numbers):
        """Each ranked row holds s_r, out-degree and retrieval score, and
        s_t only when the strategy consults the type."""
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = self._acme_models(q, {(q, "film"): 0.7})
        p = _prediction(strategy, q, models, kb, index)
        rows = p.trace["ranked"]
        assert sorted(row[0] for row in rows) == ["m.0a01", "m.0g01"]
        assert [sum(v is not None for v in row[2:]) for row in rows] == (
            [numbers] * 2)
        assert (p.s_t is None) == (numbers == 3)

    def test_unknown_order_raises(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        models = _models({"acme"}, {}, type_table={})
        with pytest.raises(ValueError):
            PipelineStrategy("p-qa-typefirst", models, kb, index)


_RANK_RELATIONS = ("/d/x/a", "/d/x/b", "/d/x/c")
# few distinct scores, so relation, type and summed scores often tie
_RANK_SCORES = st.sampled_from((0.25, 0.5, 0.75))


@st.composite
def _ranking_cases(draw):
    """Up to five entities whose aliases hold the span "acme corp", each
    with up to three relations (none, for some) of one or two facts each,
    so out-degrees often tie, and an optional notable type.  An alias
    equal to the span ties every retrieval score; longer ones score by
    their length.  Then a score per relation and per type label."""
    facts, aliases, types = [], [], []
    for i in range(draw(st.integers(1, 5))):
        entity = f"m.0e{i}"
        aliases.append((entity, draw(st.sampled_from(
            ("acme corp", "big acme corp", "acme corp inc",
             "the big acme corp")))))
        for rel in draw(st.lists(st.sampled_from(_RANK_RELATIONS),
                                 max_size=3, unique=True)):
            facts += [Fact(entity, rel, f"m.0o{i}{k}")
                      for k in range(draw(st.integers(1, 2)))]
        label = draw(st.sampled_from((None, "film", "song")))
        if label is not None:
            types.append((entity, label))
    rel_scores = {r: draw(_RANK_SCORES) for r in _RANK_RELATIONS}
    type_scores = {label: draw(_RANK_SCORES) for label in ("film", "song")}
    return build_kb(facts, aliases, types), rel_scores, type_scores


def _reference_answer(strategy, kb, cands, rel_scores, type_scores):
    """(entity, relation, s_r, s_t, s) by the two rules the strategies
    were first written as: p-qa-type sorts each candidate's best own
    relation by type + relation score, then out-degree; the others take
    the best relation overall and sort its holders by the context fields
    in turn.  Both end on retrieval score, then id."""
    scores = {r: rel_scores[r] for c in cands for r in relations_of(kb, c.id)}
    if not scores:
        raise NoRelation("no relations")

    def type_of(cand):
        label = notable_type(kb, cand.id)
        return 0.0 if label is None else type_scores[label]

    def best_of(relations):
        return min(relations, key=lambda r: (-scores[r], r))

    if strategy == "p-qa-type":
        pairs = [(c, best_of(relations_of(kb, c.id)), type_of(c))
                 for c in cands if relations_of(kb, c.id)]
        pairs.sort(key=lambda e: (-(e[2] + scores[e[1]]),
                                  -out_degree(kb, e[0].id), -e[0].score,
                                  e[0].id))
        top, best, s_t = pairs[0]
        return top.id, best, scores[best], s_t, s_t + scores[best]
    fields = context_fields(strategy)
    best = best_of(scores)
    context = {"out_degree": lambda c: out_degree(kb, c.id), "type": type_of}
    holders = sorted((c for c in cands if best in relations_of(kb, c.id)),
                     key=lambda c: (*(-context[f](c) for f in fields),
                                    -c.score, c.id))
    s_r = scores[best]
    s_t = type_of(holders[0]) if "type" in fields else None
    return holders[0].id, best, s_r, s_t, s_r if s_t is None else s_t + s_r


class TestRankEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_ranking_cases())
    def test_every_strategy_matches_its_reference_rule(self, case):
        """The one sort over (candidate, best relation) rows answers as
        the holders rule and the pairs rule did, for every strategy."""
        kb, rel_scores, type_scores = case
        q = "who x acme corp"
        models = _models(
            {"acme", "corp"}, {(q, r): s for r, s in rel_scores.items()},
            type_table={(q, label): s for label, s in type_scores.items()})
        index = build_index(kb)
        cands = retrieve_candidates(index, ["acme", "corp"])
        assert cands  # every alias holds the span
        for strategy in STRATEGIES:
            try:
                expect = _reference_answer(strategy, kb, cands, rel_scores,
                                           type_scores)
            except NoRelation:
                with pytest.raises(NoRelation):
                    _prediction(strategy, q, models, kb, index)
                continue
            p = _prediction(strategy, q, models, kb, index)
            assert (p.entity, p.relation, p.s_r, p.s_t, p.s) == expect


class TestPredictDispatcher:
    def test_names_map_to_strategies(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "who founded acme"
        models = _models(
            {"acme"},
            {(q, "/d/x/founded"): 0.9},
            type_table={(q, "musical recording"): 0.9, (q, "film"): 0.1},
        )
        assert _prediction("p-qa", q, models, kb, index).entity == "m.0a01"
        assert _prediction("p-qa-out", q, models, kb, index).entity == "m.0g01"
        assert _prediction("p-qa-type", q, models, kb, index).entity == "m.0g01"
        for combo in ("p-qa-out-type", "p-qa-type-out"):
            p = _prediction(combo, q, models, kb, index)
            assert (p.entity, p.relation) == ("m.0g01", "/d/x/founded")
            assert p.s == p.s_t + p.s_r == 1.8

    def test_unknown_strategy_raises(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        models = _models({"acme"}, {})
        with pytest.raises(ValueError):
            PipelineStrategy("p-qa-x", models, kb, index)
        with pytest.raises(ValueError):
            context_fields("p-qa-x")


class RecordingMatcher(TableMatcher):
    """A :class:`TableMatcher` that records the arguments of every call."""

    def __init__(self, table, default=0.0):
        super().__init__(table, default)
        self.calls = []

    def score(self, *args):
        self.calls.append(args)
        return super().score(*args)


class TestMatcherCallForm:
    def test_every_matcher_gets_the_session_encodings_and_tokens(self):
        """Both matcher slots are called one way, ``score(question, text,
        encodings, tokens)``, with the session's encodings and the
        question's tokens: once per relation and once per typed
        candidate."""
        kb = _ambiguous_kb()
        q = "who founded acme"
        matcher = RecordingMatcher({(q, "/d/x/founded"): 0.9})
        models = PipelineModels(tagger=SpanOracleTagger({"acme"}),
                                relation_matcher=matcher,
                                type_matcher=matcher)
        session = PipelineStrategy("p-qa-out-type", models, kb,
                                   build_index(kb))
        assert session.answer(q)[:2] == ("m.0g01", "/d/x/founded")
        relations = ["/d/x/ceo", "/d/x/founded",
                     *(f"/d/x/r{i}" for i in range(8))]
        assert sorted(call[1] for call in matcher.calls) == sorted(
            [*relations, "film", "musical recording"])
        for call in matcher.calls:
            assert len(call) == 4
            question, _, encodings, tokens = call
            assert question == q
            assert encodings is session.encodings
            assert list(tokens) == tokenize(q)


class TestSession:
    """A strategy object reused over a stream of questions predicts exactly
    as fresh objects and the uncached matcher do, bit for bit, while
    encoding each KB text once."""

    @pytest.fixture(scope="class")
    def stack(self):
        kb, train, test = generate_synthetic(
            SyntheticSpec(seed=4, n_entities=12, collision_rate=0.4))
        qs = train + test
        cfg = TrainConfig(epochs=2, batch_size=4, hidden_size=6, embed_dim=6,
                          seed=3)
        tagger, _ = train_tagger(label_questions(qs, kb)[0], cfg)
        rng = np.random.default_rng(5)
        vocab = sorted({t for q in qs for t in tokenize(q.text)}
                       | {t for f in kb.facts
                          for t in matcher_tokens(f.relation)}
                       | {t for e in kb.entities.values() if e.notable_type
                          for t in tokenize(e.notable_type)})
        models = PipelineModels(
            tagger=tagger,
            relation_matcher=fresh(MatcherModel, vocab, cfg, rng,
                                   name="relation"),
            type_matcher=fresh(MatcherModel, vocab, cfg, rng, name="type"),
        )
        questions = [q.text for q in qs] + ["zzz qqq"]
        return kb, build_index(kb), models, questions

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_reused_session_matches_one_shot(self, stack, strategy):
        kb, index, models, questions = stack
        session = PipelineStrategy(strategy, models, kb, index)
        for _ in range(2):
            for q in questions:
                try:
                    expect = _prediction(strategy, q, models, kb, index)
                except (NoCandidates, NoRelation) as exc:
                    with pytest.raises(type(exc)):
                        session.prediction(q)
                    continue
                got = session.prediction(q)
                assert got == expect  # trace included
                for rel, s_r in got.trace["relations"]:
                    # a fresh session of the matcher alone
                    assert s_r == _alone(models.relation_matcher, q, rel)

    def test_each_text_encoded_once(self, stack, monkeypatch):
        """Each KB text is encoded once per session, by its own matcher,
        and each question in one recurrent run that serves both
        matchers."""
        kb, index, models, questions = stack
        session = PipelineStrategy("p-qa-type", models, kb, index)
        calls, runs = [], []
        encode = MatcherModel.encode
        forward = qakb.nn.layers.recurrent_forward

        def counting(self, tokens):
            calls.append((self.name, tuple(tokens)))
            return encode(self, tokens)

        def counting_run(cells, *args):
            runs.append(tuple(cells))
            return forward(cells, *args)

        monkeypatch.setattr(MatcherModel, "encode", counting)
        monkeypatch.setattr(qakb.nn.layers, "recurrent_forward", counting_run)
        rel, typ = models.relation_matcher, models.type_matcher
        both = (rel.fwd, rel.bwd, typ.fwd, typ.bwd)
        question_tokens = {tuple(tokenize(q)) for q in questions}
        for rounds in range(2):
            calls.clear()
            runs.clear()
            asked = 0
            for q in questions:
                try:
                    session.prediction(q)
                    asked += 1
                except NoCandidates:
                    pass
            texts = [c for c in calls if c[1] not in question_tokens]
            assert texts == calls  # no question goes through encode
            assert len(texts) == len(set(texts))
            if rounds:
                assert texts == []
            # one question run per question, serving both matchers; every
            # other matcher run is one text's
            assert runs.count(both) == asked
            matcher_runs = [r for r in runs if set(r) <= set(both)]
            assert len(matcher_runs) == asked + len(texts)

    def test_shared_question_run_scores_as_each_matcher_alone(self, stack):
        """Both matchers' scores in a session equal, bit for bit, each
        matcher's own ``score`` in a fresh session of its own."""
        kb, index, models, questions = stack
        session = PipelineStrategy("p-qa-type", models, kb, index)
        seen = 0
        for q in questions:
            try:
                rows = session.prediction(q).trace["ranked"]
            except (NoCandidates, NoRelation):
                continue
            for entity, rel, s_r, s_t, _, _ in rows:
                assert s_r == _alone(models.relation_matcher, q, rel)
                label = kb.entities[entity].notable_type
                if label is not None:
                    seen += 1
                    assert s_t == _alone(models.type_matcher, q, label)
        assert seen

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_tokenize_per_warm_prediction(self, stack, strategy,
                                              monkeypatch):
        """Once the KB texts are encoded, a prediction tokenizes only its
        question, once, for the tagger, the retrieval and both matchers."""
        kb, index, models, questions = stack
        session = PipelineStrategy(strategy, models, kb, index)
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        for module in (qakb.aliasindex, qakb.pipeline):
            monkeypatch.setattr(module, "tokenize", counting)

        def ask(q):
            try:
                session.prediction(q)
            except (NoCandidates, NoRelation):
                pass

        for q in questions:
            ask(q)
        for q in questions:
            calls.clear()
            ask(q)
            assert calls == [q]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_answering_makes_no_tensor(self, stack, strategy, cold,
                                       monkeypatch):
        """A session answers, cold or warm, without making a single
        Tensor: no graph node, no wrapper of an array."""
        kb, index, models, questions = stack
        session = PipelineStrategy(strategy, models, kb, index)

        def ask_all():
            for q in questions:
                try:
                    session.prediction(q)
                except (NoCandidates, NoRelation):
                    pass

        if not cold:
            ask_all()
        made = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        ask_all()
        assert not made

    def test_new_session_sees_weight_change(self, stack):
        kb, index, models, questions = stack
        q = questions[0]
        before = _prediction("p-qa", q, models, kb, index)
        vectors = models.relation_matcher.embedding.vectors
        saved = vectors.data.copy()
        try:
            vectors.data += 0.5
            after = _prediction("p-qa", q, models, kb, index)
        finally:
            vectors.data[...] = saved
        assert after.trace["relations"] != before.trace["relations"]


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


# token lists of ragged lengths, with out-of-vocabulary words, and empty
_ARRAY_VOCAB = ["where", "was", "obama", "born", "d", "x", "founded"]
_ARRAY_TEXTS = [["obama"], ["where", "was", "obama", "born"], ["zyzzyva"],
                ["obama", "qq", "born", "where", "was", "obama", "x"], []]


class TestArrayForwards:
    """Answering's array forwards give the bits of graph references built
    from the training ops."""

    cfg = TrainConfig(hidden_size=6, embed_dim=5)

    def test_tagger_forward(self):
        model = fresh(TaggerModel, _ARRAY_VOCAB, self.cfg,
                      np.random.default_rng(11))
        for tokens in _ARRAY_TEXTS:
            got = model.forward(tokens)
            assert type(got) is np.ndarray
            states = recurrent((model.fwd, model.bwd),
                               model.embedding.embed(tokens), None,
                               (False, True), "states")
            want = softmax_rows(model.head(states))
            assert _bits(got) == _bits(want.data), tokens
            assert got.shape == (len(tokens), 2)

    def test_matcher_encode_and_score(self):
        model = fresh(MatcherModel, _ARRAY_VOCAB, self.cfg,
                      np.random.default_rng(12), name="relation")
        graph = {}
        for tokens in _ARRAY_TEXTS:
            got = model.encode(tokens)
            assert type(got) is np.ndarray
            graph[tuple(tokens)] = recurrent(
                (model.fwd, model.bwd), model.embedding.embed(tokens), None,
                (False, True), "last")
            assert _bits(got) == _bits(graph[tuple(tokens)].data), tokens
        for q in _ARRAY_TEXTS:
            for t in _ARRAY_TEXTS:
                joint = concat([graph[tuple(q)], graph[tuple(t)]])
                want = model.head(model.hidden(joint))
                got = _alone(model, " ".join(q), " ".join(t))
                assert _bits(got) == _bits(want.data[0]), (q, t)


class TestAnswerRecord:
    def test_record_round_trips_as_json(self):
        kb = _ambiguous_kb()
        index = build_index(kb)
        q = "what color is beta corp"
        models = _models({"beta", "corp"}, {(q, "/d/y/color"): 0.8})
        strategy = PipelineStrategy("p-qa", models, kb, index)
        record = json.loads(answer_record(strategy, q))
        assert record["question"] == q
        assert record["entity"] == "m.0bbb"
        assert record["relation"] == "/d/y/color"
        assert record["objects"] == ["m.objD"]
        assert record["strategy"] == "p-qa"
        assert record["scores"]["s_r"] == 0.8
        assert "s_t" not in record["scores"]

    def test_no_answer_records_name_the_error(self):
        kb = build_kb([Fact("m.0a01", "/d/x/r", "m.objA")],
                      [("m.0a01", "acme"), ("m.0ghost", "ghost")])
        strategy = PipelineStrategy("p-qa", _models({"ghost"}, {}), kb,
                                    build_index(kb))
        for q, error in (("zzz", "no_candidates"),
                         ("about ghost", "no_relation")):
            assert json.loads(answer_record(strategy, q)) == {
                "question": q, "error": error}
            assert predict(strategy, q) is None


class TestPersistence:
    def _tagger(self):
        cfg = TrainConfig(hidden_size=6, embed_dim=6)
        return fresh(TaggerModel, ["where", "was", "obama", "born"], cfg,
                     np.random.default_rng(9))

    def _matcher(self):
        cfg = TrainConfig(hidden_size=6, embed_dim=6)
        return fresh(MatcherModel, ["who", "founded", "acme", "d", "x"], cfg,
                     np.random.default_rng(9), name="relmatcher")

    def test_tagger_round_trip(self, tmp_path):
        model = self._tagger()
        path = str(tmp_path / "tagger.nn")
        save_model(model, path)
        clone = load_model(TaggerModel, path)
        toks = ["where", "was", "obama", "born"]
        assert np.array_equal(model.forward(toks), clone.forward(toks))
        assert tag_question(model, toks) == tag_question(clone, toks)

    def test_matcher_round_trip(self, tmp_path):
        model = self._matcher()
        path = str(tmp_path / "rel.nn")
        save_model(model, path)
        clone = load_model(MatcherModel, path)
        assert clone.name == "relmatcher"
        assert _alone(model, "who founded acme", "/d/x/founded") == _alone(
            clone, "who founded acme", "/d/x/founded")

    def test_kind_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "rel.nn")
        save_model(self._matcher(), path)
        with pytest.raises(ValueError):
            load_model(TaggerModel, path)
        save_model(self._tagger(), path)
        with pytest.raises(ValueError):
            load_model(MatcherModel, path)

    def test_snapshots_are_byte_stable(self, tmp_path):
        model = self._matcher()
        first = str(tmp_path / "one.nn")
        second = str(tmp_path / "two.nn")
        save_model(model, first)
        save_model(model, second)
        for a, b in ((first, second),
                     (first + ".meta.json", second + ".meta.json")):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()


# ---------------------------------------------------------------------------
# Batched training against the per-example path it replaced
# ---------------------------------------------------------------------------

def _tagger_example_loss(model, q):
    """One question's loss as it was computed before batching: its own
    [T, d] BiLSTM run, head and mean over its tokens."""
    states = recurrent((model.fwd, model.bwd),
                       model.embedding.embed(list(q.tokens)), None,
                       (False, True), "states")
    return loss_categorical_ce(softmax_rows(model.head(states)),
                               [1 if tag == "e" else 0 for tag in q.tags])


def _matcher_example_loss(model, question, text, tag, rng):
    """One pair's loss as it was computed before batching: each side
    encoded on its own, in train mode with the pair's own dropout mask."""
    def encode(tokens):
        return recurrent((model.fwd, model.bwd),
                         model.embedding.embed(list(tokens)), None,
                         (False, True), "last")

    joint = concat([encode(tokenize(question)), encode(matcher_tokens(text))])
    if model.cfg.dropout_p > 0.0:
        joint = joint * dropout_mask(joint.shape, model.cfg.dropout_p, rng)
    return loss_binary_ce(reshape(model.head(model.hidden(joint)), ()), tag)


def _sum(losses):
    return sum(losses[1:], losses[0])


# ragged lengths, a question repeated across examples, an unknown token
_TAGGED = [
    LabeledQuestion(("who", "founded", "acme", "corp"), ("c", "c", "e", "e")),
    LabeledQuestion(("acme",), ("e",)),
    LabeledQuestion(("what", "color", "is", "beta", "corp", "today"),
                    ("c", "c", "c", "e", "e", "c")),
    LabeledQuestion(("who", "founded", "acme", "corp"), ("c", "c", "e", "e")),
    LabeledQuestion(("where", "is", "gamma"), ("c", "c", "e")),
]

# a question repeated across pairs, a text shared by pairs, ragged
# lengths, and a question that tokenizes to nothing
_PAIRS = [
    ("who founded acme corp", "/business/company/founders", 1),
    ("who founded acme corp", "/music/album/genre", 0),
    ("", "/music/album/genre", 0),
    ("what genre is it", "/music/album/genre", 1),
    ("who founded acme corp", "musical recording", 0),
    ("what genre is it", "film", 1),
    ("acme", "/business/company/founders", 1),
]

_CFG = TrainConfig(seed=7, epochs=1, batch_size=3, hidden_size=5,
                   embed_dim=4, dropout_p=0.3, learning_rate=0.01)


def _tagger():
    vocab = sorted({tok for q in _TAGGED[:-1] for tok in q.tokens})
    return fresh(TaggerModel, vocab, _CFG, np.random.default_rng(3))


def _matcher():
    vocab = sorted({tok for q, t, _ in _PAIRS[:-1]
                    for tok in tokenize(q) + matcher_tokens(t)})
    return fresh(MatcherModel, vocab, _CFG, np.random.default_rng(3))


def _pair_tokens(pairs):
    return [(tokenize(q), matcher_tokens(t)) for q, t, _ in pairs]


def _composed_matcher_loss(model, pairs, tags, rng):
    """:meth:`MatcherModel.loss` built as it was before its pair scoring
    and loss became one node: gather, concat, dropout, dense, reshape,
    cross-entropy and sum nodes after the one padded encoding."""
    texts = {}
    sides = np.array([[texts.setdefault(tuple(toks), len(texts))
                       for toks in pair] for pair in pairs])
    encoded = model.encode_texts(list(texts))
    joint = concat([gather_rows(encoded, sides[:, 0]),
                    gather_rows(encoded, sides[:, 1])], axis=-1)
    if model.cfg.dropout_p > 0.0:
        joint = joint * dropout_mask(joint.shape, model.cfg.dropout_p, rng)
    scores = reshape(model.head(model.hidden(joint)), (len(pairs),))
    return tsum(composed_binary_ce(scores, tags))


def _gradients(model, loss_fn):
    """The loss and every parameter's gradient of ``loss_fn()``."""
    params = model.parameters()
    for p in params.values():
        p.grad = None
    total = loss_fn()
    total.backward()
    return float(total.data), {k: None if p.grad is None else p.grad.copy()
                               for k, p in params.items()}


def _assert_grads_match(batched, oracle):
    assert batched.keys() == oracle.keys()
    for k, g in oracle.items():
        if g is None:
            assert batched[k] is None, k
            continue
        assert np.abs(batched[k] - g).max() <= 1e-12 * np.abs(g).max(), k


def _per_example_train(kind, data, cfg):
    """train_tagger or train_matcher with every loss from the per-example
    path; returns the model, the loss curve and the generator both drew
    from."""
    rng = np.random.default_rng(cfg.seed)
    if kind == "tagger":
        model = fresh(TaggerModel, sorted({tok for q in data
                                           for tok in q.tokens}), cfg, rng)

        def batch_loss(batch):
            return _sum([_tagger_example_loss(model, data[i])
                         for i in batch]), len(batch)
    else:
        model = fresh(MatcherModel, sorted({tok for q, t, _ in data
                                            for tok in tokenize(q)
                                            + matcher_tokens(t)}), cfg, rng)

        def batch_loss(batch):
            return _sum([_matcher_example_loss(model, *data[i], rng)
                         for i in batch]), len(batch)

    curve = fit(model.parameters(), len(data), batch_loss, cfg, rng, kind)
    return model, curve, rng


class TestBatchedTraining:
    """One optimizer step encodes its distinct token sequences once, in
    one padded run, and gives the per-example path's loss, gradients and
    generator stream."""

    def test_tagger_gradients_match_per_example_oracle(self):
        model = _tagger()
        loss, grads = _gradients(model, lambda: model.loss(_TAGGED))
        o_loss, o_grads = _gradients(model, lambda: _sum(
            [_tagger_example_loss(model, q) for q in _TAGGED]))
        assert loss == pytest.approx(o_loss, rel=1e-12)
        _assert_grads_match(grads, o_grads)
        assert grads["tagger.fwd.W"] is not None

    def test_matcher_gradients_match_per_example_oracle(self):
        model = _matcher()
        rng, o_rng = np.random.default_rng(5), np.random.default_rng(5)
        tags = [tag for *_, tag in _PAIRS]
        loss, grads = _gradients(
            model, lambda: model.loss(_pair_tokens(_PAIRS), tags, rng))
        o_loss, o_grads = _gradients(model, lambda: _sum(
            [_matcher_example_loss(model, *pair, o_rng) for pair in _PAIRS]))
        assert rng.random() == o_rng.random()
        assert loss == pytest.approx(o_loss, rel=1e-12)
        _assert_grads_match(grads, o_grads)
        assert grads["matcher.fwd.W"] is not None

    @pytest.mark.parametrize("dropout_p", [0.3, 0.0])
    def test_pair_loss_node_has_the_composed_ops_bits(self, dropout_p):
        """The loss and every parameter's gradient equal, bit for bit,
        those of the nodes the pair scoring and loss were made of: with
        and without dropout, a text several pairs use, and one token
        sequence that is a question of one pair and the text of
        another."""
        vocab = sorted({tok for q, t, _ in _PAIRS[:-1]
                        for tok in tokenize(q) + matcher_tokens(t)})
        model = fresh(MatcherModel, vocab, replace(_CFG, dropout_p=dropout_p),
                      np.random.default_rng(3))
        pairs = _PAIRS + [("film", "/music/album/genre", 0),
                          ("what genre is it", "film", 0)]
        tokens, tags = _pair_tokens(pairs), [tag for *_, tag in pairs]
        assert_fused_bits(
            lambda: model.loss(tokens, tags, np.random.default_rng(5)),
            lambda: _composed_matcher_loss(model, tokens, tags,
                                           np.random.default_rng(5)),
            list(model.parameters().values()), 1.0 / len(pairs))

    @pytest.mark.parametrize("dropout_p", [0.3, 0.0])
    def test_pair_loss_node_gradcheck(self, dropout_p):
        """The node's gradients of the encoded rows and of the hidden
        and output layers match central differences, a row used by
        several pairs and on both sides included."""
        model = fresh(MatcherModel, ["a"], replace(_CFG, dropout_p=dropout_p),
                      np.random.default_rng(3))
        rng = np.random.default_rng(89)
        encoded = param(rng.normal(size=(4, 2 * _CFG.hidden_size)))
        sides = np.array([[0, 1], [0, 2], [3, 1], [1, 0], [2, 2]])
        tags = [1, 0, 1, 0, 0]
        params = [encoded, model.hidden.weight, model.hidden.bias,
                  model.head.weight, model.head.bias]
        assert finite_diff_check(
            lambda: model.pair_loss(encoded, sides, tags,
                                    np.random.default_rng(5)),
            params) < 1e-4

    @pytest.mark.parametrize("kind", ["tagger", "matcher"])
    def test_epoch_matches_per_example_training(self, kind, monkeypatch):
        data = _TAGGED if kind == "tagger" else _PAIRS
        o_model, o_curve, o_rng = _per_example_train(kind, data, _CFG)
        made = []
        default_rng = np.random.default_rng

        def recording(*args):
            made.append(default_rng(*args))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        train = train_tagger if kind == "tagger" else train_matcher
        model, curve = train(data, _CFG)
        monkeypatch.undo()
        assert made[0].random() == o_rng.random()
        assert curve == pytest.approx(o_curve, rel=1e-12)
        for k, p in model.parameters().items():
            assert_allclose(p.data, o_model.parameters()[k].data,
                            rtol=1e-9, atol=1e-12, err_msg=k)

    @pytest.mark.parametrize("rows", [[1], [0, 2, 3]])
    def test_tagger_loss_finite_diff(self, rows):
        model = _tagger()
        questions = [_TAGGED[i] for i in rows]
        params = list(model.parameters().values())
        assert finite_diff_check(lambda: model.loss(questions), params) < 1e-4

    @pytest.mark.parametrize("rows", [[0], [2, 3, 4]])
    def test_matcher_loss_finite_diff(self, rows):
        model = _matcher()
        pairs = [_PAIRS[i] for i in rows]
        params = list(model.parameters().values())
        # the same masks on every call, so the loss is a function
        assert finite_diff_check(
            lambda: model.loss(_pair_tokens(pairs), [t for *_, t in pairs],
                               np.random.default_rng(9)), params) < 1e-4

    def test_matcher_encodes_each_distinct_sequence_once(self, monkeypatch):
        runs = []
        encode_texts = MatcherModel.encode_texts

        def counted(self, texts):
            runs.append([tuple(t) for t in texts])
            return encode_texts(self, texts)

        monkeypatch.setattr(MatcherModel, "encode_texts", counted)
        train_matcher(_PAIRS, TrainConfig(epochs=1, batch_size=len(_PAIRS),
                                          hidden_size=4, embed_dim=4))
        (texts,) = runs
        assert len(texts) == len(set(texts))
        assert set(texts) == {tuple(toks) for pair in _pair_tokens(_PAIRS)
                              for toks in pair}

    def test_matcher_tokenizes_each_distinct_string_once(self,
                                                         monkeypatch):
        """A question is tokenized once however many candidate texts it
        is paired with, and a type label once however many questions it
        is paired with; every pair gets the tokens a per-row
        tokenization gives."""
        calls, seen = [], []
        loss = MatcherModel.loss

        def counting(text):
            calls.append(text)
            return tokenize(text)

        def recording(self, pairs, tags, rng):
            seen.append(list(pairs))
            return loss(self, pairs, tags, rng)

        def one_batch(params, n, batch_loss_fn, cfg, rng, name):
            batch_loss_fn(np.arange(n))
            return []

        monkeypatch.setattr(qakb.pipeline, "tokenize", counting)
        monkeypatch.setattr(MatcherModel, "loss", recording)
        monkeypatch.setattr(qakb.pipeline, "fit", one_batch)
        train_matcher(_PAIRS, _CFG)
        monkeypatch.undo()
        labels = {t for _, t, _ in _PAIRS if not t.startswith("/")}
        assert labels and len({q for q, _, _ in _PAIRS}) < len(_PAIRS)
        assert Counter(calls) == (Counter({q for q, _, _ in _PAIRS})
                                  + Counter(labels))
        assert seen == [[(tuple(q), tuple(t))
                         for q, t in _pair_tokens(_PAIRS)]]

    def test_graph_nodes_per_question_step(self, monkeypatch):
        """A deterministic count, so un-batching training, or building
        the matcher's pair scoring and loss from small nodes again, fails
        here even where timings are too noisy to tell (the per-example
        path made 33 nodes per question-step here, the composed pair
        scoring 1.46).  A matcher step makes 4 nodes: the embedding
        gather, the recurrent run, the pair loss and the scaling of the
        loss by one over the batch's count."""
        kb, train, _ = generate_synthetic(SyntheticSpec(seed=4,
                                                        n_entities=12))
        tagged = label_questions(train, kb)[0]
        relations = sorted({f.relation for f in kb.facts})
        pairs = [(q.text, rel, int(rel == q.gold.relation))
                 for q in train for rel in relations]
        made = [0]
        make = qakb.nn.tensor._make

        def counting(*args):
            made[0] += 1
            return make(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("qakb") and getattr(module, "_make",
                                                   None) is make:
                monkeypatch.setattr(module, "_make", counting)
        cfg = TrainConfig(epochs=1, hidden_size=4, embed_dim=4)
        train_tagger(tagged, cfg)
        train_matcher(pairs, cfg)
        assert made[0] / (len(tagged) + len(pairs)) <= 0.5
        made[0] = 0
        train_matcher(pairs[:cfg.batch_size], cfg)
        assert made[0] == 4
