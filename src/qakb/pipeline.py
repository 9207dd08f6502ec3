"""Staged question answering over a knowledge base.

A bidirectional-LSTM tagger marks each question token as entity text
(``e``) or context (``c``); the detected span is looked up in the alias
index to produce candidate entities; a bidirectional-GRU matcher scores
the question against each candidate relation (and, optionally, against
notable-type labels).  Ranking strategies then combine matcher scores
with entity out-degree and type context to select one (entity, relation)
answer per question.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from qakb.aliasindex import (
    AliasIndex,
    CandidateEntity,
    relation_tokens,
    retrieve_candidates,
    retrieve_question_candidates,
    tokenize,
)
from qakb.datagen import LabeledQuestion, MatcherPair
from qakb.errors import EmptyTrainingSet, NoCandidates, NoRelation
from qakb.kb import KnowledgeBase, notable_type, out_degree, relations_of
from qakb.nn.config import TrainConfig
from qakb.nn.io import Model, new_model
from qakb.nn.layers import (Dense, EmbeddingTable, GRUCell, LSTMCell,
                            dropout_mask, recurrent, recurrent_forward,
                            table_tokens)
from qakb.nn.losses import (binary_ce_backward, binary_ce_forward,
                            loss_categorical_ce)
from qakb.nn.optim import fit
from qakb.nn.tensor import (
    Tensor,
    _make,
    gather_rows,
    reshape,
    row_sums,
    softmax_forward,
    softmax_rows,
)

TAG_ORDER = ("c", "e")


def matcher_tokens(text: str) -> list[str]:
    """Token sequence for matcher input; relation paths split on '/'."""
    return relation_tokens(text) if text.startswith("/") else tokenize(text)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class TaggerModel(Model):
    """Bidirectional LSTM with a per-token softmax over (c, e)."""

    kind = "tagger"

    def forward_batch(self, seqs: Sequence[Sequence[str]]) -> Tensor:
        """Per-token class probabilities of every token of every sequence,
        in order, shape [sum of lengths, 2]; column 1 is 'e'.  The BiLSTM
        runs once over the sequences as one padded batch, whose states
        each have the bits of :meth:`forward`'s; the head's rows share its
        product."""
        inputs, lengths = self.embedding.embed_padded(seqs)
        states = recurrent((self.fwd, self.bwd), inputs, lengths,
                           (False, True), "states")
        B, T = inputs.shape[:2]
        rows = reshape(states, (B * T, states.shape[-1]))
        if lengths.sum() < B * T:  # drop the padding
            rows = gather_rows(rows, np.flatnonzero(np.arange(T)
                                                    < lengths[:, None]))
        return softmax_rows(self.head(rows))

    def forward(self, tokens: Sequence[str]) -> np.ndarray:
        """Per-token class probabilities on arrays, shape [T, 2]: the
        one-sequence case of :meth:`forward_batch`, run on the [T, d]
        sequence, which needs no padding; no tokens give [0, 2]."""
        rows = self.embedding.rows(tokens)
        states, _ = recurrent_forward((self.fwd, self.bwd), (rows, rows),
                                      np.array([len(rows)]), (False, True),
                                      "states")
        return softmax_forward(self.head.forward(states))

    def loss(self, questions: Sequence[LabeledQuestion]) -> Tensor:
        """Summed loss of tagged questions, one padded run over them all;
        each question's loss is the mean over its own tokens."""
        return loss_categorical_ce(
            self.forward_batch([q.tokens for q in questions]),
            [int(tag == "e") for q in questions for tag in q.tags],
            [len(q.tags) for q in questions])

    @classmethod
    def layout(cls, meta: dict) -> tuple[dict, list[tuple]]:
        """The plain fields and the parts, in order, of the model the
        :meth:`meta` payload ``meta`` describes (see
        :mod:`qakb.nn.io`)."""
        cfg = TrainConfig(**meta["config"])
        tokens = table_tokens(meta["vocab"])
        E, H = cfg.embed_dim, cfg.hidden_size
        payload = {"name": "tagger", "vocab": tokens, "config": asdict(cfg)}
        return {"cfg": cfg, "payload": payload}, [
            ("embedding", EmbeddingTable, "tagger.embedding", tokens, E),
            ("fwd", LSTMCell, "tagger.fwd", E, H),
            ("bwd", LSTMCell, "tagger.bwd", E, H),
            ("head", Dense, "tagger.head", 2 * H, 2, "none")]


class MatcherModel(Model):
    """Shared bidirectional GRU over question and candidate text.

    Both sequences run through the same recurrent encoder; the two final
    states are concatenated and passed through a fully connected layer,
    then a sigmoid output unit whose value is used directly as the
    matching score.  The hidden layer is what lets the score depend on
    the question-text interaction rather than on each side separately.

    A training step builds four graph nodes: the embedding gather and
    the recurrent run of :meth:`encode_texts`, the :meth:`pair_loss`
    node that scores every pair and sums their cross-entropies, and
    the optimizer loop's scaling of that sum.  Answering builds none
    (:meth:`encode`, :meth:`score`).
    """

    kind = "matcher"

    def encode_texts(self, texts: Sequence[Sequence[str]]) -> Tensor:
        """[B, 2h] encodings of token sequences: the last states of both
        GRU directions, as one padded batch, whose row ``k`` has the bits
        of ``encode(texts[k])``; an empty sequence encodes as zeros."""
        inputs, lengths = self.embedding.embed_padded(texts)
        return recurrent((self.fwd, self.bwd), inputs, lengths,
                         (False, True), "last")

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """One token sequence's [2h] encoding on arrays: the one-row case
        of :meth:`encode_texts`, run on the [T, d] sequence, which needs
        no padding."""
        rows = self.embedding.rows(tokens)
        last, _ = recurrent_forward((self.fwd, self.bwd), (rows, rows),
                                    np.array([len(rows)]), (False, True),
                                    "last")
        return last

    def loss(self, pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
             tags: Sequence[int], rng: np.random.Generator) -> Tensor:
        """Summed binary cross-entropy of train-mode scores of (question
        tokens, text tokens) pairs against their 0/1 ``tags``.

        Each distinct token sequence, question or text, is encoded once
        in one padded run, and its gradient sums over every pair that
        uses it; then :meth:`pair_loss` scores the pairs.
        """
        texts: dict[tuple[str, ...], int] = {}
        sides = np.array([[texts.setdefault(tuple(toks), len(texts))
                           for toks in pair] for pair in pairs])
        return self.pair_loss(self.encode_texts(list(texts)), sides, tags,
                              rng)

    def pair_loss(self, encoded: Tensor, sides: np.ndarray,
                  tags: Sequence[int], rng: np.random.Generator) -> Tensor:
        """Summed binary cross-entropy of the train-mode scores of pairs
        of rows of the [m, 2h] ``encoded``, pair ``i`` joining rows
        ``sides[i]`` (question, text), against their 0/1 ``tags``.

        One graph node: its forward puts each pair's two rows side by
        side, multiplies them by a dropout mask with one row per pair
        (nothing is drawn from ``rng`` when ``dropout_p`` is 0), runs
        the hidden and output layers over all pairs and sums each pair's
        :func:`~qakb.nn.losses.binary_ce_forward`.  Its backward gives
        ``encoded`` and the layers' weights the gradients that the
        gather, concat, dropout, dense, reshape, cross-entropy and sum
        nodes it replaces would, with their expressions and in their
        order, so every bit is theirs.
        """
        n = len(sides)
        joint = encoded.data[sides].reshape(n, -1)
        mask = None
        if self.cfg.dropout_p > 0.0:
            mask = dropout_mask(joint.shape, self.cfg.dropout_p, rng)
            joint = joint * mask
        hidden, head = self.hidden, self.head
        hid = hidden.forward(joint)
        out = head.forward(hid)
        losses, saved = binary_ce_forward(out.reshape(n), tags)

        def backward(node: Tensor) -> None:
            d_scores = binary_ce_backward(node.grad, saved)
            d_hid, *d_head = head.backward(hid, out,
                                           d_scores.reshape(out.shape))
            d_joint, *d_hidden = hidden.backward(joint, hid, d_hid)
            if encoded.requires_grad:
                if mask is not None:
                    d_joint = d_joint * mask
                # each side's rows summed apart, as its own gather did,
                # by one pass over the pairs' (question, text) halves
                m = len(encoded.data)
                sums = row_sums(sides + [0, m], d_joint.reshape(n, 2, -1),
                                2 * m)
                encoded.accumulate(sums[:m] + sums[m:])
            for param, grad in zip((head.weight, head.bias, hidden.weight,
                                    hidden.bias), (*d_head, *d_hidden)):
                if param.requires_grad:
                    param.accumulate(grad)

        return _make(losses.sum(), (encoded, hidden.weight, hidden.bias,
                                    head.weight, head.bias), backward)

    def score(self, question: str, text: str, encodings: MatchEncodings,
              tokens: Sequence[str]) -> float:
        """Match score of one pair, on arrays: the question, of
        ``tokens``, and the text come from an answering session's
        ``encodings``, which hold this matcher, so each side is encoded
        once."""
        joint = np.concatenate([encodings.question(self, question, tokens),
                                encodings.texts[self](text)])
        return float(self.head.forward(self.hidden.forward(joint))[0])

    @classmethod
    def layout(cls, meta: dict) -> tuple[dict, list[tuple]]:
        """As :meth:`TaggerModel.layout`."""
        cfg, name = TrainConfig(**meta["config"]), meta["name"]
        if type(name) is not str:
            raise TypeError("a matcher's name must be a string")
        tokens = table_tokens(meta["vocab"])
        E, H = cfg.embed_dim, cfg.hidden_size
        payload = {"name": name, "vocab": tokens, "config": asdict(cfg)}
        return {"cfg": cfg, "name": name, "payload": payload}, [
            ("embedding", EmbeddingTable, f"{name}.embedding", tokens, E),
            ("fwd", GRUCell, f"{name}.fwd", E, H),
            ("bwd", GRUCell, f"{name}.bwd", E, H),
            ("hidden", Dense, f"{name}.hidden", 4 * H, H, "relu"),
            ("head", Dense, f"{name}.head", H, 1, "sigmoid")]


class MatchEncodings:
    """The encodings of an answering session's recurrent matchers.

    The question is encoded for every matcher in one recurrent run per
    hidden size (:func:`~qakb.nn.layers.recurrent_forward`): the GRU
    pairs of matchers of one size step side by side, so two matchers cost
    one run, with the bits each would get alone.  Only the
    latest question's encodings are kept.  Relation paths and type labels
    are encoded on first use and kept for the session by
    :func:`functools.cache`, per matcher and keyed by their raw text, so
    a text seen before is neither tokenized nor encoded again; memory is
    bounded by the KB's texts however many questions arrive.
    """

    def __init__(self, matchers: Sequence[MatcherModel]):
        self.matchers = tuple(dict.fromkeys(matchers))
        # looked up on each miss, so a wrapper put on the matcher's encode
        # after the session was built still sees every miss
        self.texts = {m: cache(lambda text, m=m: m.encode(
            tuple(matcher_tokens(text)))) for m in self.matchers}
        self._question: Optional[tuple[str, dict]] = None

    def question(self, matcher: MatcherModel, question: str,
                 tokens: Sequence[str]) -> np.ndarray:
        """``matcher``'s encoding of the question, whose tokens are
        ``tokens``."""
        if self._question is None or self._question[0] != question:
            sizes: dict[int, list[MatcherModel]] = {}
            for m in self.matchers:
                sizes.setdefault(m.fwd.hidden_dim, []).append(m)
            vecs = {}
            for ms in sizes.values():
                last, _ = recurrent_forward(
                    [c for m in ms for c in (m.fwd, m.bwd)],
                    [x for m in ms for x in [m.embedding.rows(tokens)] * 2],
                    np.array([len(tokens)]), (False, True) * len(ms), "last")
                vecs.update(zip(ms, last.reshape(len(ms), -1)))
            self._question = (question, vecs)
        return self._question[1][matcher]


@dataclass
class PipelineModels:
    """The trained stages used by the prediction strategies.

    Any objects with the same call surface work here, which is how the
    evaluation harness substitutes oracles: the tagger needs
    ``forward(tokens)`` to give a [T, 2] ndarray of probabilities and
    each matcher needs ``score(question, text, encodings, tokens) ->
    float``, called with the session's :class:`MatchEncodings` and the
    question's tokens.
    """

    tagger: TaggerModel
    relation_matcher: MatcherModel
    type_matcher: Optional[MatcherModel] = None


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_tagger(data: Sequence[LabeledQuestion],
                 cfg: TrainConfig) -> tuple[TaggerModel, list[float]]:
    """Fit the span tagger; returns the model and per-epoch mean losses."""
    if not data:
        raise EmptyTrainingSet("no labeled questions to train on")
    rng = np.random.default_rng(cfg.seed)
    vocab = sorted({tok for q in data for tok in q.tokens})
    model = new_model(TaggerModel, {"name": "tagger", "vocab": vocab,
                                    "config": asdict(cfg)}, rng)

    def batch_loss(batch: np.ndarray) -> tuple[Tensor, int]:
        return model.loss([data[i] for i in batch]), len(batch)

    curve = fit(model.parameters(), len(data), batch_loss, cfg, rng,
                "tagger")
    return model, curve


def train_matcher(pairs: Sequence[MatcherPair], cfg: TrainConfig,
                  name: str = "matcher") -> tuple[MatcherModel, list[float]]:
    """Fit a binary semantic matcher on (question, text, tag) pairs."""
    if not pairs:
        raise EmptyTrainingSet("no matcher pairs to train on")
    rng = np.random.default_rng(cfg.seed)
    # a question has a pair per candidate text and a text a pair per
    # question it is asked of, so each distinct string is tokenized once
    questions = {q: tuple(tokenize(q)) for q in {q for q, _, _ in pairs}}
    texts = {t: tuple(matcher_tokens(t)) for t in {t for _, t, _ in pairs}}
    seqs = [(questions[question], texts[text]) for question, text, _ in pairs]
    vocab = sorted({tok for toks in (*questions.values(), *texts.values())
                    for tok in toks})
    model = new_model(MatcherModel, {"name": name, "vocab": vocab,
                                     "config": asdict(cfg)}, rng)
    tags = np.array([tag for _, _, tag in pairs])

    def batch_loss(batch: np.ndarray) -> tuple[Tensor, int]:
        # the weights hold still until the optimizer step, so the step's
        # pairs are scored as one batch
        return (model.loss([seqs[i] for i in batch], tags[batch], rng),
                len(batch))

    curve = fit(model.parameters(), len(pairs), batch_loss, cfg, rng, name)
    return model, curve


# ---------------------------------------------------------------------------
# Tagging and span extraction
# ---------------------------------------------------------------------------

def tag_question(model, question: Sequence[str]) -> LabeledQuestion:
    """Argmax tag per token of a question given as its tokens.  A ``str``
    is a TypeError, not a run of characters."""
    if isinstance(question, str):
        raise TypeError("tag_question takes a question's tokens, not text")
    tokens = list(question)
    probs = model.forward(tokens)
    tags = tuple(TAG_ORDER[int(i)] for i in np.argmax(probs, axis=1))
    return LabeledQuestion(tokens=tuple(tokens), tags=tags)


def spans(labels: LabeledQuestion) -> list[str]:
    """Maximal runs of 'e'-tagged tokens, each joined by single spaces."""
    out: list[str] = []
    current: list[str] = []
    for tok, tag in zip(labels.tokens, labels.tags):
        if tag == "e":
            current.append(tok)
        elif current:
            out.append(" ".join(current))
            current = []
    if current:
        out.append(" ".join(current))
    return out


# ---------------------------------------------------------------------------
# Prediction strategies
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    """One answer with its score decomposition and ranking trace."""

    entity: str
    relation: str
    s_r: float
    s_t: Optional[float]
    s: float
    trace: dict = field(default_factory=dict)


def _question_candidates(
    session: "PipelineStrategy", question: str, tokens: list[str]
) -> tuple[list[CandidateEntity], list[str]]:
    """Detected-span candidates, falling back to whole-question grams.

    The fallback covers both an all-context tagging (no spans) and spans
    that match nothing in the index.  Raises NoCandidates when both come
    up empty.
    """
    labeled = tag_question(session.models.tagger, tokens)
    span_list = spans(labeled)
    merged: dict[str, CandidateEntity] = {}
    for span_text in span_list:
        # a span is its tokens joined by single spaces, and no token
        # holds whitespace
        for cand in retrieve_candidates(session.index, span_text.split()):
            prev = merged.get(cand.id)
            if prev is None or cand.score > prev.score:
                merged[cand.id] = cand
    cands = sorted(merged.values(), key=lambda c: (-c.score, c.id))
    if not cands:
        cands = retrieve_question_candidates(session.index, tokens)
    if not cands:
        raise NoCandidates(f"no candidate entities for {question!r}")
    return cands, span_list


class _Row(NamedTuple):
    """A candidate paired with its best-scoring own relation; ``s_t`` is
    0 for an untyped entity and None when the strategy does not consult
    the type."""

    cand: CandidateEntity
    relation: str
    s_r: float
    s_t: Optional[float]
    out_degree: int


def _rank(session: "PipelineStrategy", question: str,
          tokens: list[str]) -> Prediction:
    """Pair each candidate that has relations with its best own relation
    (ties by name), sort the rows by the strategy's key, then retrieval
    score and id, and answer with the first.

    A holder of the best relation overall has it as its own best, so a
    key that starts with ``(-s_r, relation)`` ranks exactly those holders
    first and orders them by the context after it.
    """
    kb, models, encodings = session.kb, session.models, session.encodings
    uses_type = "type" in session.context_fields
    cands, span_list = _question_candidates(session, question, tokens)
    owned = [(c, relations_of(kb, c.id)) for c in cands]
    rel_scores = {r: models.relation_matcher.score(question, r, encodings,
                                                   tokens)
                  for r in sorted({r for _, rels in owned for r in rels})}
    if not rel_scores:
        raise NoRelation(f"no relations for candidates of {question!r}")
    rows = []
    for cand, rels in owned:
        if rels:
            best = min(rels, key=lambda r: (-rel_scores[r], r))
            label = notable_type(kb, cand.id)
            s_t = (None if not uses_type else 0.0 if label is None
                   else models.type_matcher.score(question, label, encodings,
                                                  tokens))
            rows.append(_Row(cand, best, rel_scores[best], s_t,
                             out_degree(kb, cand.id)))
    key = _RANKINGS[session.name][1]
    rows.sort(key=lambda row: (*key(row), -row.cand.score, row.cand.id))
    top = rows[0]
    trace = {
        "spans": list(span_list),
        "candidates": [[c.id, c.score] for c in cands],
        "relations": sorted(([r, s] for r, s in rel_scores.items()),
                            key=lambda item: (-item[1], item[0])),
        "ranked": [[row.cand.id, row.relation, row.s_r, row.s_t,
                    row.out_degree, row.cand.score] for row in rows],
    }
    return Prediction(entity=top.cand.id, relation=top.relation, s_r=top.s_r,
                      s_t=top.s_t,
                      s=top.s_r if top.s_t is None else top.s_t + top.s_r,
                      trace=trace)


# Each strategy's context besides the matcher scores, as eval's error
# classes count it (a strategy that consults "type" needs the type
# matcher), and its sort key over ranked rows.  The key of every strategy
# but p-qa-type starts with the best relation and breaks ties among its
# holders by the context, in order; p-qa-type sums the type and relation
# scores and breaks ties by out-degree, which it does not count as
# consulted context.
_RANKINGS: dict[str, tuple[tuple[str, ...], Callable[[_Row], tuple]]] = {
    "p-qa": ((), lambda r: (-r.s_r, r.relation)),
    "p-qa-out": (("out_degree",),
                 lambda r: (-r.s_r, r.relation, -r.out_degree)),
    "p-qa-type": (("type",), lambda r: (-(r.s_t + r.s_r), -r.out_degree)),
    "p-qa-out-type": (("out_degree", "type"),
                      lambda r: (-r.s_r, r.relation, -r.out_degree, -r.s_t)),
    "p-qa-type-out": (("type", "out_degree"),
                      lambda r: (-r.s_r, r.relation, -r.s_t, -r.out_degree)),
}

STRATEGIES = tuple(_RANKINGS)


def context_fields(strategy: str) -> tuple[str, ...]:
    """The context a strategy consults besides the matcher scores:
    ``"out_degree"``, ``"type"``, both or neither."""
    try:
        return _RANKINGS[strategy][0]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None


class PipelineStrategy:
    """One ranking strategy, named as on the CLI, over one set of stages:
    answers a stream of questions as one session, on arrays, making no
    Tensor.

    The session's :class:`MatchEncodings`, which every matcher's
    ``score`` is given, hold the recurrent matchers the strategy
    consults, and only those: the relation matcher, and the type matcher
    when the strategy consults the type.  Each encodes a relation path or
    type label once per session, and one recurrent run per question
    encodes the question for all of them, so a session must not outlive
    a change to the models' weights.  An unknown strategy, or one
    that consults the type without a type matcher, raises ValueError when
    the object is built.
    """

    def __init__(self, name: str, models: PipelineModels, kb: KnowledgeBase,
                 index: AliasIndex):
        self.context_fields = context_fields(name)
        uses_type = "type" in self.context_fields
        if uses_type and models.type_matcher is None:
            raise ValueError(f"{name} requires a type matcher")
        self.name, self.label = name, ("strategy", name)
        self.models, self.kb, self.index = models, kb, index
        consulted = ((models.relation_matcher, models.type_matcher)
                     if uses_type else (models.relation_matcher,))
        self.encodings = MatchEncodings([m for m in consulted
                                         if isinstance(m, MatcherModel)])

    def prediction(self, question: str) -> Prediction:
        """The answer with its score decomposition and ranking trace.
        The question is tokenized once, for every stage."""
        return _rank(self, question, tokenize(question))

    def answer(self, question: str) -> tuple[str, str, dict[str, float]]:
        """``(entity, relation, scores)``; NoCandidates or NoRelation when
        there is no answer."""
        p = self.prediction(question)
        scores = {"s_r": p.s_r, "s": p.s}
        if p.s_t is not None:
            scores["s_t"] = p.s_t
        return p.entity, p.relation, scores
