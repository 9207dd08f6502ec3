"""Accuracy and error-taxonomy evaluation, plus a seeded synthetic
micro-benchmark for exercising the disambiguation strategies.

A run is scored by exact match on the (entity id, relation) pair.  Misses
are sorted into one error class each:

* ``no_candidates`` — the strategy produced no prediction at all;
* ``wrong_predicate`` — right entity, wrong relation;
* ``wrong_subject`` — an entity that shares no label with the target;
* ``same_label_entity`` — an entity with the target's label but another
  id, where the knowledge base held context that could have separated
  the two;
* ``ambiguity`` — a same-label miss where every piece of context the
  strategy consulted was identical between the twins;
* ``indistinguishable`` — a same-label miss where type and out-degree
  both agree, so no context could resolve it.

The synthetic generator plants same-label twins at a configurable rate
and controls whether out-degree or notable type separates them, which
makes the directional claims about the strategies checkable in seconds.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from qakb.aliasindex import find_run, tokenize
from qakb.datagen import QuestionInstance, make_question
from qakb.errors import EmptyEvalSet, NoCandidates, NoRelation
from qakb.kb import (Fact, KnowledgeBase, aliases_of, build_kb,
                     lookup_objects, notable_type, out_degree, primary_alias)
from qakb.pipeline import MatchEncodings, PipelineModels

logger = logging.getLogger(__name__)

ERROR_CLASSES = (
    "same_label_entity",
    "wrong_subject",
    "wrong_predicate",
    "ambiguity",
    "indistinguishable",
    "no_candidates",
)

@dataclass
class EvalReport:
    """Outcome counts for one strategy over one question set."""

    n: int
    accuracy: float
    error_counts: dict[str, int]
    wall_time_s: float

    def to_dict(self) -> dict:
        """JSON payload; wall time is run metadata and stays out so that
        identical runs serialize identically."""
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "error_counts": dict(self.error_counts),
        }


def classify_error(kb: KnowledgeBase, gold: Fact,
                   predicted: Optional[tuple[str, str]],
                   context_fields: Sequence[str] = ()) -> Optional[str]:
    """The error class for one prediction, or None when it is correct.

    ``context_fields`` names the disambiguation context the strategy
    consulted ("out_degree", "type"); a same-label miss where all of it
    agreed between the twins counts as ambiguity rather than a plain
    same-label error.
    """
    if predicted is None:
        return "no_candidates"
    entity, relation = predicted
    if entity == gold.subject:
        return None if relation == gold.relation else "wrong_predicate"
    if set(aliases_of(kb, entity)).isdisjoint(aliases_of(kb, gold.subject)):
        return "wrong_subject"
    same_type = notable_type(kb, entity) == notable_type(kb, gold.subject)
    same_degree = out_degree(kb, entity) == out_degree(kb, gold.subject)
    if same_type and same_degree:
        return "indistinguishable"
    matched = {"type": same_type, "out_degree": same_degree}
    if context_fields and all(matched[f] for f in context_fields):
        return "ambiguity"
    return "same_label_entity"


def evaluate(strategy, dataset: Sequence[QuestionInstance],
             kb: KnowledgeBase) -> EvalReport:
    """Score a strategy on a question set.

    ``strategy`` needs what :func:`predict` calls and a ``context_fields``
    attribute naming the context it uses.
    """
    if not dataset:
        raise EmptyEvalSet("no questions to evaluate")
    start = time.perf_counter()
    outputs = [predict(strategy, q.text) for q in dataset]
    counts = {cls: 0 for cls in ERROR_CLASSES}
    correct = 0
    for q, predicted in zip(dataset, outputs):
        err = classify_error(kb, q.gold, predicted, strategy.context_fields)
        if err is None:
            correct += 1
        else:
            counts[err] += 1
    return EvalReport(
        n=len(dataset),
        accuracy=correct / len(dataset),
        error_counts=counts,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Answering through a strategy: a PipelineStrategy, which calls each matcher
# as ``score(question, text, encodings, tokens)``, or an E2EStrategy, which
# answers as its model's variant, ``out_degree_sort`` its one answer-time
# switch.  ``answer(question)`` gives ``(entity, relation, scores)`` or
# raises NoCandidates or NoRelation, ``label`` is the ``(key, name)`` pair
# naming it in an answer record, and ``kb`` is the knowledge base it
# answers from.
# ---------------------------------------------------------------------------

def predict(strategy, question: str) -> Optional[tuple[str, str]]:
    """``(entity, relation)``, or None when there is no answer."""
    try:
        entity, relation, _ = strategy.answer(question)
    except (NoCandidates, NoRelation):
        return None
    return entity, relation


def answer_record(strategy, question: str) -> str:
    """One JSON line: the answer with its objects and scores, or the error
    that stopped it."""
    try:
        entity, relation, scores = strategy.answer(question)
    except (NoCandidates, NoRelation) as exc:
        error = ("no_candidates" if isinstance(exc, NoCandidates)
                 else "no_relation")
        return json.dumps({"question": question, "error": error},
                          sort_keys=True)
    key, name = strategy.label
    return json.dumps({
        "question": question,
        "entity": entity,
        "relation": relation,
        "objects": lookup_objects(strategy.kb, entity, relation),
        "scores": scores,
        key: name,
    }, sort_keys=True)


# ---------------------------------------------------------------------------
# Oracle stages
# ---------------------------------------------------------------------------

class OracleTagger:
    """Tags the gold subject's alias span in questions it has seen."""

    def __init__(self, spans_by_question: dict[tuple[str, ...], list[str]]):
        self.spans_by_question = spans_by_question

    def forward(self, tokens: Sequence[str]) -> np.ndarray:
        labels = np.zeros((len(tokens), 2))
        labels[:, 0] = 1.0
        span = self.spans_by_question.get(tuple(tokens))
        if span:
            start = find_run(tokens, span)
            if start is not None:
                labels[start:start + len(span)] = (0.0, 1.0)
        return labels


class OracleMatcher:
    """Scores a question's gold text (its relation, or its subject's
    notable type) 1.0 and every other text 0.0."""

    def __init__(self, gold_by_question: dict[str, Optional[str]]):
        self.gold_by_question = gold_by_question

    def score(self, question: str, text: str, encodings: MatchEncodings,
              tokens: Sequence[str]) -> float:
        """A matcher's call form; the session's ``encodings`` and the
        question's ``tokens``, which a recurrent matcher reads, are
        ignored."""
        gold = self.gold_by_question.get(question)
        return 1.0 if gold is not None and gold == text else 0.0


def oracle_models(dataset: Sequence[QuestionInstance],
                  kb: KnowledgeBase) -> PipelineModels:
    """Perfect stages keyed by the gold facts, for isolating the ranking
    strategies from model quality."""
    spans: dict[tuple[str, ...], list[str]] = {}
    relations: dict[str, str] = {}
    types: dict[str, Optional[str]] = {}
    for q in dataset:
        tokens = tuple(tokenize(q.text))
        for alias in aliases_of(kb, q.gold.subject):
            alias_tokens = tokenize(alias)
            if alias_tokens and find_run(tokens, alias_tokens) is not None:
                spans[tokens] = alias_tokens
                break
        relations[q.text] = q.gold.relation
        types[q.text] = notable_type(kb, q.gold.subject)
    return PipelineModels(
        tagger=OracleTagger(spans),
        relation_matcher=OracleMatcher(relations),
        type_matcher=OracleMatcher(types),
    )


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

_SYLLABLES = ("ba", "de", "ki", "lo", "mu", "na", "po", "ra", "su", "ti",
              "ve", "zo", "fa", "ge", "hi", "jo", "ku", "le", "my", "wu")

_TYPE_WORDS = ("album", "person", "city", "film", "team", "language",
               "book", "river")

_FILLER_RELATIONS = ("/synth/link/related", "/synth/link/seen_with",
                     "/synth/link/near")


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of one generated benchmark."""

    seed: int
    n_entities: int = 60
    n_relations: int = 6
    collision_rate: float = 0.3
    twin_outdegree_gap: bool = True
    twin_type_distinct: bool = False
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.n_entities <= 0 or self.n_relations <= 0:
            raise ValueError("entity and relation counts must be positive")
        # every relation and every entity takes one coined word
        words = len(_SYLLABLES) ** 3
        if self.n_entities + self.n_relations > words:
            raise ValueError(f"{self.n_entities} entities and "
                             f"{self.n_relations} relations need more than "
                             f"the {words} coined words")
        if not 0.0 <= self.collision_rate <= 1.0:
            raise ValueError(f"collision rate {self.collision_rate} outside [0, 1]")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError(f"test fraction {self.test_fraction} outside [0, 1)")


_BLOCK = 4096  # raw outputs fetched from the generator at a time


class _Draws:
    """The numbers ``rng.integers(0, n)`` would give, one call per draw,
    read from blocks of the generator's raw 32-bit outputs.

    For ``2 <= n <= 2**32`` numpy makes each value from 32-bit outputs
    ``u`` by Lemire's multiply-and-reject (arXiv:1805.10941): ``m = u *
    n``, draw the next output while the low 32 bits of ``m`` are below
    ``2**32 % n``, return ``m >> 32``.  :meth:`below` applies that rule
    on Python ints (numpy's ``uint32 * int`` would overflow).  ``n = 1``
    spends no output in numpy, so it must not come here.  :meth:`rewind`
    must run before the generator is used directly again.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.saved: Optional[dict] = None  # the state before ``block``
        self.block: list[int] = []
        self.pos = 0

    def below(self, n: int) -> int:
        """One draw in ``[0, n)``, for ``2 <= n <= 2**32``."""
        threshold = (1 << 32) % n
        while True:
            if self.pos == len(self.block):
                self.saved = self.rng.bit_generator.state
                self.block = self.rng.integers(0, 1 << 32, size=_BLOCK,
                                               dtype=np.uint32).tolist()
                self.pos = 0
            m = self.block[self.pos] * n
            self.pos += 1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def rewind(self) -> None:
        """Leave the generator just after the last output spent, where the
        per-call draws would have left it."""
        if self.saved is not None:
            self.rng.bit_generator.state = self.saved
            self.rng.integers(0, 1 << 32, size=self.pos, dtype=np.uint32)
        self.saved, self.block, self.pos = None, [], 0


def _coin_word(draws: _Draws, taken: set[str]) -> str:
    n = len(_SYLLABLES)
    while True:
        word = (_SYLLABLES[draws.below(n)] + _SYLLABLES[draws.below(n)]
                + _SYLLABLES[draws.below(n)])
        if word not in taken:
            taken.add(word)
            return word


def default_templates(relations: Sequence[str]) -> dict[str, list[str]]:
    out = {}
    for rel in relations:
        word = rel.rsplit("/", 1)[-1]
        out[rel] = [
            f"what is the {word} of <alias>",
            f"which {word} does <alias> have",
        ]
    return out


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[KnowledgeBase, list[QuestionInstance], list[QuestionInstance]]:
    """Build (kb, train split, test split) for a spec, deterministically.

    Every entity gets one gold fact and one question whose text contains
    the entity's alias verbatim.  The first ``collision_rate`` share of
    entities get a same-label twin holding the same relation; twin ids
    sort before gold ids, so a strategy that ignores context picks the
    twin on ties.
    """
    rng = np.random.default_rng(spec.seed)
    draws = _Draws(rng)
    taken: set[str] = set()
    relations = [f"/synth/fact/{_coin_word(draws, taken)}"
                 for _ in range(spec.n_relations)]
    templates = default_templates(relations)

    n_collide = int(spec.collision_rate * spec.n_entities)
    facts: list[Fact] = []
    alias_pairs: list[tuple[str, str]] = []
    type_pairs: list[tuple[str, str]] = []
    gold_facts: list[Fact] = []

    def add_fillers(entity: str, tag: str, count: int) -> None:
        for k in range(count):
            rel = _FILLER_RELATIONS[k % len(_FILLER_RELATIONS)]
            facts.append(Fact(entity, rel, f"m.0f{tag}{k}"))

    for i in range(spec.n_entities):
        gold_id = f"m.0g{i:03d}"
        alias = _coin_word(draws, taken)
        relation = relations[i % spec.n_relations]
        type_word = _TYPE_WORDS[draws.below(len(_TYPE_WORDS))]
        gold = Fact(gold_id, relation, f"m.0obj{i:03d}")
        facts.append(gold)
        gold_facts.append(gold)
        alias_pairs.append((gold_id, alias))
        type_pairs.append((gold_id, type_word))

        if i < n_collide:
            twin_id = f"m.0a{i:03d}"
            facts.append(Fact(twin_id, relation, f"m.0xobj{i:03d}"))
            alias_pairs.append((twin_id, alias))
            if spec.twin_type_distinct:
                other = _TYPE_WORDS[
                    (_TYPE_WORDS.index(type_word) + 1) % len(_TYPE_WORDS)
                ]
                type_pairs.append((twin_id, other))
            else:
                type_pairs.append((twin_id, type_word))
            twin_extra = draws.below(2)
            add_fillers(twin_id, f"a{i:03d}", twin_extra)
            if spec.twin_outdegree_gap:
                gold_extra = twin_extra + 1 + draws.below(2)
            else:
                gold_extra = twin_extra
            add_fillers(gold_id, f"g{i:03d}", gold_extra)
        else:
            add_fillers(gold_id, f"g{i:03d}", draws.below(3))

    kb = build_kb(facts, alias_pairs, type_pairs)

    questions: list[QuestionInstance] = []
    for gold in gold_facts:
        bodies = templates[gold.relation]
        body = bodies[draws.below(len(bodies))]
        text = body.replace("<alias>", primary_alias(kb, gold.subject))
        questions.append(make_question(text, gold))

    n_test = int(spec.test_fraction * len(questions))
    draws.rewind()
    order = rng.permutation(len(questions))
    test_idx = sorted(int(j) for j in order[:n_test])
    train_idx = sorted(int(j) for j in order[n_test:])
    train = [questions[j] for j in train_idx]
    test = [questions[j] for j in test_idx]
    logger.debug("synthetic seed %d: %d facts, %d collisions, %d/%d split",
                 spec.seed, len(facts), n_collide, len(train), len(test))
    return kb, train, test


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def report_write(reports: dict[str, EvalReport],
                 out_dir: str) -> tuple[str, str]:
    """Write ``report.json`` and an aligned ``report.txt`` table.

    Returns the two paths.  Byte-stable for identical reports: wall time
    is excluded and key order is fixed.
    """
    if not reports:
        raise EmptyEvalSet("no reports to write")
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    txt_path = os.path.join(out_dir, "report.txt")
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")

    name_w = max(len("Approach"), *(len(n) for n in reports))
    header = (f"{'Approach':<{name_w}}  {'same-label-error%':>17}  "
              f"{'Accuracy':>8}")
    lines = [header, "-" * len(header)]
    for name in sorted(reports):
        rep = reports[name]
        same = 100.0 * rep.error_counts["same_label_entity"] / rep.n
        acc = 100.0 * rep.accuracy
        lines.append(f"{name:<{name_w}}  {same:>16.1f}%  {acc:>7.1f}%")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return json_path, txt_path
