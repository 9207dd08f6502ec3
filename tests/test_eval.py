"""Tests for evaluation, the error taxonomy, and the synthetic benchmark."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from conftest import fresh, span_tokens

from qakb.aliasindex import build_index, tokenize
from qakb.datagen import make_question, serialize_questions_tsv
from qakb.e2e import E2EModel, E2EStrategy, VARIANTS, train_e2e
from qakb.datagen import NegativePools
from qakb.errors import EmptyEvalSet, NoCandidates
from qakb.evalharness import (
    ERROR_CLASSES,
    EvalReport,
    OracleMatcher,
    SyntheticSpec,
    _BLOCK,
    _Draws,
    classify_error,
    default_templates,
    evaluate,
    generate_synthetic,
    oracle_models,
    predict,
    report_write,
)
from qakb.kb import Fact, build_kb, out_degree, save_kb
from qakb.nn.config import TrainConfig
from qakb.pipeline import MatchEncodings, PipelineStrategy, tag_question


def twin_kb(twin_type="song", twin_extra_facts=0):
    """Gold m.0g1 and twin m.0a1 share the label "acme"."""
    facts = [
        Fact("m.0g1", "/d/x/r", "m.0o1"),
        Fact("m.0g1", "/d/x/s", "m.0o2"),
        Fact("m.0a1", "/d/x/r", "m.0o3"),
        Fact("m.0b9", "/d/y/t", "m.0o4"),
    ]
    for k in range(twin_extra_facts):
        facts.append(Fact("m.0a1", f"/d/z/f{k}", f"m.0of{k}"))
    return build_kb(
        facts,
        [("m.0g1", "acme"), ("m.0a1", "acme"), ("m.0b9", "other corp")],
        [("m.0g1", "song"), ("m.0a1", twin_type)],
    )


GOLD = Fact("m.0g1", "/d/x/r", "m.0o1")


class TestClassifyError:
    def test_correct(self):
        kb = twin_kb()
        assert classify_error(kb, GOLD, ("m.0g1", "/d/x/r")) is None

    def test_wrong_predicate(self):
        kb = twin_kb()
        assert classify_error(kb, GOLD, ("m.0g1", "/d/x/s")) == "wrong_predicate"

    def test_wrong_subject(self):
        kb = twin_kb()
        assert classify_error(kb, GOLD, ("m.0b9", "/d/x/r")) == "wrong_subject"
        assert classify_error(kb, GOLD, ("m.0b9", "/d/y/t")) == "wrong_subject"

    def test_no_prediction(self):
        kb = twin_kb()
        assert classify_error(kb, GOLD, None) == "no_candidates"

    def test_same_label_without_context_fields(self):
        kb = twin_kb()  # degrees differ (2 vs 1), types equal
        assert classify_error(kb, GOLD, ("m.0a1", "/d/x/r")) == \
            "same_label_entity"

    def test_identical_context_is_indistinguishable(self):
        kb = twin_kb(twin_extra_facts=1)  # both degree 2, both "song"
        assert out_degree(kb, "m.0g1") == out_degree(kb, "m.0a1")
        for fields in ((), ("out_degree",), ("type", "out_degree")):
            assert classify_error(kb, GOLD, ("m.0a1", "/d/x/r"), fields) == \
                "indistinguishable"

    def test_exhausted_strategy_context_is_ambiguity(self):
        kb = twin_kb(twin_type="film", twin_extra_facts=1)  # degrees equal
        assert classify_error(kb, GOLD, ("m.0a1", "/d/x/r"),
                              ("out_degree",)) == "ambiguity"

    def test_unused_distinguishing_context_stays_same_label(self):
        kb = twin_kb()  # degree gap exists
        assert classify_error(kb, GOLD, ("m.0a1", "/d/x/r"),
                              ("out_degree",)) == "same_label_entity"
        kb2 = twin_kb(twin_type="film")
        assert classify_error(kb2, GOLD, ("m.0a1", "/d/x/r"),
                              ("type",)) == "same_label_entity"

    def test_every_outcome_is_one_bucket(self):
        kb = twin_kb()
        entities = list(kb.entities) + ["m.0zz"]
        relations = ["/d/x/r", "/d/x/s", "/d/y/t"]
        outcomes = [None] + [(e, r) for e in entities for r in relations]
        for fields in ((), ("out_degree",), ("type",)):
            for predicted in outcomes:
                err = classify_error(kb, GOLD, predicted, fields)
                assert err is None or err in ERROR_CLASSES


class _FixedStrategy:
    """Answers from a mapping question text -> (entity, relation) | None."""

    def __init__(self, answers, context_fields=()):
        self.answers = answers
        self.context_fields = context_fields

    def answer(self, question):
        if self.answers.get(question) is None:
            raise NoCandidates(question)
        return (*self.answers[question], {})


class TestEvaluate:
    def _dataset(self):
        kb = twin_kb()
        qs = [
            make_question("who made acme", Fact("m.0g1", "/d/x/r", "m.0o1")),
            make_question("what is acme", Fact("m.0g1", "/d/x/s", "m.0o2")),
            make_question("who made other corp",
                          Fact("m.0b9", "/d/y/t", "m.0o4")),
        ]
        return kb, qs

    def test_all_gold_oracle(self):
        kb, qs = self._dataset()
        gold = _FixedStrategy({q.text: (q.gold.subject, q.gold.relation)
                               for q in qs})
        rep = evaluate(gold, qs, kb)
        assert rep.n == 3
        assert rep.accuracy == 1.0
        assert all(v == 0 for v in rep.error_counts.values())

    def test_counts_partition_questions(self):
        kb, qs = self._dataset()
        mixed = _FixedStrategy({
            qs[0].text: ("m.0a1", "/d/x/r"),
            qs[1].text: ("m.0g1", "/d/x/s"),
            # third question: no answer
        })
        rep = evaluate(mixed, qs, kb)
        assert round(rep.accuracy * rep.n) + sum(rep.error_counts.values()) \
            == rep.n
        assert rep.error_counts["same_label_entity"] == 1
        assert rep.error_counts["no_candidates"] == 1
        assert_allclose(rep.accuracy, 1 / 3)

    def test_empty_dataset_raises(self):
        kb, _ = self._dataset()
        with pytest.raises(EmptyEvalSet):
            evaluate(_FixedStrategy({}), [], kb)

    def test_all_error_keys_present(self):
        kb, qs = self._dataset()
        rep = evaluate(_FixedStrategy({}), qs, kb)
        assert set(rep.error_counts) == set(ERROR_CLASSES)
        assert rep.error_counts["no_candidates"] == 3


def _oracle_score(matcher, question, text):
    """``matcher.score`` as a session calls it; an oracle session holds
    no recurrent matcher."""
    return matcher.score(question, text, MatchEncodings(()),
                         tokenize(question))


class TestOracleStages:
    def _setup(self):
        spec = SyntheticSpec(seed=5, n_entities=12, collision_rate=0.25)
        kb, train, test = generate_synthetic(spec)
        return kb, train + test, oracle_models(train + test, kb)

    def test_tagger_marks_alias_span(self):
        kb, dataset, models = self._setup()
        for q in dataset:
            labels = tag_question(models.tagger, tokenize(q.text))
            span = " ".join(span_tokens(labels))
            assert span == kb.entities[q.gold.subject].aliases[0]

    def test_tagger_unknown_question_is_all_context(self):
        _, _, models = self._setup()
        labels = tag_question(models.tagger, tokenize("never seen before"))
        assert set(labels.tags) == {"c"}

    def test_relation_matcher_scores(self):
        _, dataset, models = self._setup()
        q = dataset[0]
        rel = models.relation_matcher
        assert _oracle_score(rel, q.text, q.gold.relation) == 1.0
        assert _oracle_score(rel, q.text, "/synth/link/near") == 0.0
        assert _oracle_score(rel, "unknown?", q.gold.relation) == 0.0

    def test_type_matcher_scores(self):
        kb, dataset, models = self._setup()
        q = dataset[0]
        gold_type = kb.entities[q.gold.subject].notable_type
        assert _oracle_score(models.type_matcher, q.text, gold_type) == 1.0
        assert _oracle_score(models.type_matcher, q.text,
                             "not a type") == 0.0

    def test_type_matcher_handles_untyped_gold(self):
        matcher = OracleMatcher({"q": None})
        assert _oracle_score(matcher, "q", "anything") == 0.0


class TestSyntheticGenerator:
    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(seed=9, n_entities=20, collision_rate=0.3)
        kb1, tr1, te1 = generate_synthetic(spec)
        kb2, tr2, te2 = generate_synthetic(spec)
        p1, p2 = str(tmp_path / "kb1"), str(tmp_path / "kb2")
        save_kb(kb1, p1)
        save_kb(kb2, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
        assert serialize_questions_tsv(tr1) == serialize_questions_tsv(tr2)
        assert serialize_questions_tsv(te1) == serialize_questions_tsv(te2)

    @pytest.mark.parametrize("entities, relations",
                             [(8000, 1), (2, 7999), (4000, 4001)])
    def test_more_entities_and_relations_than_words_is_rejected(
            self, entities, relations):
        """Each entity and relation takes one of the 8,000 coined words;
        a spec needing more would redraw forever."""
        with pytest.raises(ValueError, match="the 8000 coined words"):
            SyntheticSpec(seed=1, n_entities=entities, n_relations=relations)
        SyntheticSpec(seed=1, n_entities=entities - 1, n_relations=relations)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(seed=1, n_entities=10))
        b = generate_synthetic(SyntheticSpec(seed=2, n_entities=10))
        assert serialize_questions_tsv(a[1]) != serialize_questions_tsv(b[1])

    def test_collision_pairs_with_degree_gap(self):
        spec = SyntheticSpec(seed=1, n_entities=60, collision_rate=0.3,
                             twin_outdegree_gap=True)
        kb, _, _ = generate_synthetic(spec)
        twins = sorted(e for e in kb.entities if e.startswith("m.0a"))
        assert len(twins) >= 9
        for twin in twins:
            gold = "m.0g" + twin[4:]
            assert twin < gold  # id order favors the twin on ties
            assert out_degree(kb, gold) > out_degree(kb, twin)
            assert set(kb.entities[twin].aliases) & \
                set(kb.entities[gold].aliases)

    def test_questions_bind_alias_verbatim(self):
        kb, train, test = generate_synthetic(SyntheticSpec(seed=4,
                                                           n_entities=25))
        for q in train + test:
            alias = kb.entities[q.gold.subject].aliases[0]
            assert alias in tokenize(q.text)

    def test_split_sizes_and_disjointness(self):
        kb, train, test = generate_synthetic(
            SyntheticSpec(seed=4, n_entities=60, test_fraction=0.2)
        )
        assert len(test) == 12 and len(train) == 48
        texts = {q.text for q in train} | {q.text for q in test}
        assert len(texts) == 60

    def test_no_collisions_make_reranking_a_no_op(self):
        spec = SyntheticSpec(seed=3, n_entities=20, collision_rate=0.0)
        kb, train, test = generate_synthetic(spec)
        dataset = train + test
        models = oracle_models(dataset, kb)
        index = build_index(kb)
        base = PipelineStrategy("p-qa", models, kb, index)
        ranked = PipelineStrategy("p-qa-out", models, kb, index)
        for q in dataset:
            assert predict(base, q.text) == predict(ranked, q.text)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, n_entities=0)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, collision_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, test_fraction=1.0)

    def test_default_templates_carry_relation_word(self):
        t = default_templates(["/synth/fact/waldo"])
        assert all("<alias>" in body for body in t["/synth/fact/waldo"])
        assert all("waldo" in body for body in t["/synth/fact/waldo"])


# 3 * 2**30 rejects a quarter of all outputs; 2**32 takes each as it is.
_BOUNDS = (2, 3, 8, 20, 2**31 + 1, 3 * 2**30, 2**32)


class TestDraws:
    """``_Draws`` gives the numbers of one ``rng.integers(0, n)`` call per
    draw and, after ``rewind``, leaves the generator where those calls
    would have left it."""

    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 2**32 - 1),
           pattern=st.lists(st.sampled_from(_BOUNDS), min_size=1,
                            max_size=20),
           count=st.integers(0, 3 * _BLOCK))
    @example(seed=0, pattern=[3 * 2**30, 20], count=3 * _BLOCK)
    @example(seed=1, pattern=[2], count=0)
    def test_same_numbers_and_state_as_one_call_per_draw(
            self, seed, pattern, count):
        bounds = [pattern[i % len(pattern)] for i in range(count)]
        per_call = np.random.default_rng(seed)
        blocked = np.random.default_rng(seed)
        draws = _Draws(blocked)
        assert [draws.below(n) for n in bounds] == \
            [int(per_call.integers(0, n)) for n in bounds]
        draws.rewind()
        assert blocked.bit_generator.state == per_call.bit_generator.state
        draws.rewind()  # nothing drawn since: the state stays
        assert blocked.bit_generator.state == per_call.bit_generator.state
        assert blocked.permutation(50).tolist() == \
            per_call.permutation(50).tolist()

    def test_rewind_with_nothing_drawn_leaves_the_state(self):
        rng = np.random.default_rng(5)
        rng.integers(0, 7)  # a buffered half of a 64-bit output
        before = rng.bit_generator.state
        _Draws(rng).rewind()
        assert rng.bit_generator.state == before


class TestDirectionalClaims:
    def _run(self, spec, strategies):
        kb, train, test = generate_synthetic(spec)
        dataset = train + test
        models = oracle_models(dataset, kb)
        index = build_index(kb)
        return {
            name: evaluate(PipelineStrategy(name, models, kb, index),
                           dataset, kb)
            for name in strategies
        }

    def test_outdegree_gap_resolved_by_reranking(self):
        reports = self._run(
            SyntheticSpec(seed=1, n_entities=60, collision_rate=0.3,
                          twin_outdegree_gap=True),
            ("p-qa", "p-qa-out"),
        )
        assert reports["p-qa-out"].error_counts["same_label_entity"] == 0
        assert reports["p-qa"].error_counts["same_label_entity"] > 0
        assert reports["p-qa-out"].accuracy > reports["p-qa"].accuracy

    def test_type_distinct_resolved_by_type_matching(self):
        reports = self._run(
            SyntheticSpec(seed=2, n_entities=40, collision_rate=0.3,
                          twin_outdegree_gap=False, twin_type_distinct=True),
            ("p-qa", "p-qa-out", "p-qa-type"),
        )
        assert reports["p-qa-type"].error_counts["same_label_entity"] == 0
        assert reports["p-qa-type"].accuracy == 1.0
        # out-degree is identical between twins here, so that strategy's
        # misses are ambiguity, not plain same-label errors
        assert reports["p-qa-out"].error_counts["ambiguity"] > 0
        assert reports["p-qa-out"].error_counts["same_label_entity"] == 0

    def test_identical_twins_are_indistinguishable(self):
        reports = self._run(
            SyntheticSpec(seed=3, n_entities=40, collision_rate=0.25,
                          twin_outdegree_gap=False, twin_type_distinct=False),
            ("p-qa", "p-qa-out", "p-qa-type"),
        )
        for rep in reports.values():
            assert rep.error_counts["indistinguishable"] > 0
            assert rep.error_counts["same_label_entity"] == 0


class TestE2EStrategyAdapter:
    def test_predict_and_context_fields(self):
        kb = build_kb(
            [Fact("m.0a1", "/music/recording/artist", "m.0b1")],
            [("m.0a1", "yesterday")],
            [("m.0a1", "musical recording")],
        )
        qs = [make_question("who sings yesterday", kb.facts[0])]
        pools = NegativePools(subject_pools=[[]],
                              predicate_pools=[["/d/x/r"]])
        cfg = TrainConfig(epochs=1, batch_size=1, hidden_size=4, embed_dim=4,
                          char_dim=3, max_len=6)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"], cfg)
        strat = E2EStrategy(model, kb, build_index(kb))
        assert strat.context_fields == ()
        assert predict(strat, "who sings yesterday") == \
            ("m.0a1", "/music/recording/artist")
        assert predict(strat, "zzz") is None

    def test_context_fields_follow_variant(self):
        kb = build_kb([Fact("m.0a1", "/a/b/c", "m.0b1")], [("m.0a1", "x")])
        idx = build_index(kb)
        cases = {
            "qa-s": (),
            "qa-t-wt": ("type",),
            "qa-t-mwt": ("type",),
        }
        cfg = TrainConfig(hidden_size=4, embed_dim=4, char_dim=3, max_len=6)

        def strategy(variant, out_degree_sort=False):
            model = fresh(E2EModel, ["x"], cfg, np.random.default_rng(0),
                          variant=variant)
            return E2EStrategy(model, kb, idx, out_degree_sort)

        for name, expect in cases.items():
            assert strategy(VARIANTS[name]).context_fields == expect
        ods = strategy(VARIANTS["qa-t-mwt"], out_degree_sort=True)
        assert ods.context_fields == ("out_degree", "type")


class TestReportWrite:
    def _reports(self):
        counts = {cls: 0 for cls in ERROR_CLASSES}
        counts_b = dict(counts, same_label_entity=18)
        return {
            "p-qa": EvalReport(n=60, accuracy=0.7, error_counts=counts_b),
            "p-qa-out": EvalReport(n=60, accuracy=1.0, error_counts=counts),
        }

    def test_json_round_trip(self, tmp_path):
        reports = self._reports()
        json_path, _ = report_write(reports, str(tmp_path))
        loaded = json.loads(Path(json_path).read_text())
        assert loaded == {name: asdict(rep) for name, rep in
                          reports.items()}

    def test_table_formats_one_decimal(self, tmp_path):
        _, txt_path = report_write(self._reports(), str(tmp_path))
        text = Path(txt_path).read_text()
        assert "30.0%" in text
        assert "70.0%" in text
        assert "100.0%" in text
        assert text.splitlines()[0].startswith("Approach")

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(EmptyEvalSet):
            report_write({}, str(tmp_path))
