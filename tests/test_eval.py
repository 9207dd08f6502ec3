"""Tests for evaluation, the error taxonomy, and the synthetic benchmark."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qakb.aliasindex import build_index, tokenize
from qakb.datagen import make_question, serialize_questions_tsv
from qakb.e2e import E2EModel, VARIANTS, train_e2e, variant_from_name
from qakb.datagen import NegativePools
from qakb.errors import EmptyEvalSet
from qakb.evalharness import (
    ERROR_CLASSES,
    E2EStrategy,
    EvalReport,
    OracleMatcher,
    PipelineStrategy,
    SyntheticSpec,
    classify_error,
    default_templates,
    evaluate,
    generate_synthetic,
    oracle_models,
    report_write,
)
from qakb.kb import Fact, build_kb, out_degree, save_kb
from qakb.nn import TrainConfig
from qakb.pipeline import tag_question


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

    def predict(self, question):
        return self.answers.get(question)


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
        assert rep.wall_time_s >= 0.0

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


class TestOracleStages:
    def _setup(self):
        spec = SyntheticSpec(seed=5, n_entities=12, collision_rate=0.25)
        kb, train, test = generate_synthetic(spec)
        return kb, train + test, oracle_models(train + test, kb)

    def test_tagger_marks_alias_span(self):
        kb, dataset, models = self._setup()
        for q in dataset:
            labels = tag_question(models.tagger, q.text)
            span = " ".join(labels.span_tokens())
            assert span == kb.entities[q.gold.subject].aliases[0]

    def test_tagger_unknown_question_is_all_context(self):
        _, _, models = self._setup()
        labels = tag_question(models.tagger, "never seen before")
        assert set(labels.tags) == {"c"}

    def test_relation_matcher_scores(self):
        _, dataset, models = self._setup()
        q = dataset[0]
        assert models.relation_matcher.score(q.text, q.gold.relation) == 1.0
        assert models.relation_matcher.score(q.text, "/synth/link/near") == 0.0
        assert models.relation_matcher.score("unknown?", q.gold.relation) == 0.0

    def test_type_matcher_scores(self):
        kb, dataset, models = self._setup()
        q = dataset[0]
        gold_type = kb.entities[q.gold.subject].notable_type
        assert models.type_matcher.score(q.text, gold_type) == 1.0
        assert models.type_matcher.score(q.text, "not a type") == 0.0

    def test_type_matcher_handles_untyped_gold(self):
        matcher = OracleMatcher({"q": None})
        assert matcher.score("q", "anything") == 0.0


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
            assert base.predict(q.text) == ranked.predict(q.text)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, n_entities=0)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, collision_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, test_fraction=1.0)

    def test_template_without_placeholder_rejected(self):
        spec = SyntheticSpec(seed=1, n_entities=4, n_relations=1,
                             templates={"/synth/fact/x": ["no placeholder"]})
        with pytest.raises(ValueError):
            generate_synthetic(spec)

    def test_default_templates_carry_relation_word(self):
        t = default_templates(["/synth/fact/waldo"])
        assert all("<alias>" in body for body in t["/synth/fact/waldo"])
        assert all("waldo" in body for body in t["/synth/fact/waldo"])


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
        pools = NegativePools(d_rr={}, subject_pools=[[]],
                              predicate_pools=[["/d/x/r"]])
        cfg = TrainConfig(epochs=1, batch_size=1, hidden_size=4, embed_dim=4,
                          char_dim=3, max_len=6)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"], cfg)
        strat = E2EStrategy(model, VARIANTS["qa-t"], kb, build_index(kb))
        assert strat.context_fields == ()
        assert strat.predict("who sings yesterday") == \
            ("m.0a1", "/music/recording/artist")
        assert strat.predict("zzz") is None

    def test_context_fields_follow_variant(self):
        kb = build_kb([Fact("m.0a1", "/a/b/c", "m.0b1")], [("m.0a1", "x")])
        idx = build_index(kb)
        cases = {
            "qa-s": (),
            "qa-t-wt": ("type",),
            "qa-t-mwt": ("type",),
        }
        cfg = TrainConfig(hidden_size=4, embed_dim=4, char_dim=3, max_len=6)

        def strategy(variant):
            model = E2EModel(["x"], cfg, variant, np.random.default_rng(0))
            return E2EStrategy(model, variant, kb, idx)

        for name, expect in cases.items():
            assert strategy(VARIANTS[name]).context_fields == expect
        ods = strategy(variant_from_name("qa-t-mwt", out_degree_sort=True))
        assert ods.context_fields == ("out_degree", "type")


class TestReportWrite:
    def _reports(self, wall=0.5):
        counts = {cls: 0 for cls in ERROR_CLASSES}
        counts_b = dict(counts, same_label_entity=18)
        return {
            "p-qa": EvalReport(n=60, accuracy=0.7, error_counts=counts_b,
                               wall_time_s=wall),
            "p-qa-out": EvalReport(n=60, accuracy=1.0, error_counts=counts,
                                   wall_time_s=wall),
        }

    def test_json_round_trip(self, tmp_path):
        reports = self._reports()
        json_path, _ = report_write(reports, str(tmp_path))
        loaded = json.loads(Path(json_path).read_text())
        assert loaded == {name: rep.to_dict() for name, rep in
                          reports.items()}

    def test_table_formats_one_decimal(self, tmp_path):
        _, txt_path = report_write(self._reports(), str(tmp_path))
        text = Path(txt_path).read_text()
        assert "30.0%" in text
        assert "70.0%" in text
        assert "100.0%" in text
        assert text.splitlines()[0].startswith("Approach")

    def test_wall_time_does_not_change_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        j1, t1 = report_write(self._reports(wall=0.1), str(d1))
        j2, t2 = report_write(self._reports(wall=99.9), str(d2))
        assert Path(j1).read_bytes() == Path(j2).read_bytes()
        assert Path(t1).read_bytes() == Path(t2).read_bytes()

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(EmptyEvalSet):
            report_write({}, str(tmp_path))
