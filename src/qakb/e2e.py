"""End-to-end question answering over a fact store.

Questions, subject labels, and relation paths are encoded into one
semantic space by a weight-shared recurrent encoder; facts are ranked by
cosine similarity between the question vector and each fact's subject
and predicate vectors.  Two scoring heads are supported: a single weight
vector over the concatenated similarities, or per-channel coefficients
trained with margin losses (optionally with a third question-type
channel).  Notable-type text and entity out-degree can be folded in to
separate same-label subjects.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from qakb.aliasindex import (AliasIndex, relation_tokens,
                             retrieve_question_candidates, tokenize)
from qakb.datagen import NegativePools, QuestionInstance
from qakb.errors import EmptySequence, EmptyTrainingSet, NoCandidates
from qakb.kb import Fact, KnowledgeBase, notable_type, out_degree, primary_alias
from qakb.nn import (
    Dense,
    EmbeddingTable,
    EncodeCache,
    GRUCell,
    LSTMCell,
    OOV_TOKEN,
    TrainConfig,
    cosine,
    fit,
    run_recurrent,
    self_attention,
)
from qakb.nn.layers import dropout_mask, padded_indices
from qakb.nn.losses import loss_hinge_qas
from qakb.nn.tensor import (
    Tensor,
    concat,
    gather_rows,
    no_grad,
    pad_rows,
    param,
    reshape,
    stack_rows,
    tsum,
)

logger = logging.getLogger(__name__)

SCORE_TIE_TOL = 1e-9


def subject_text(kb: KnowledgeBase, entity: str, type_in_label: bool) -> str:
    """The text standing in for a subject: its primary alias, optionally
    prefixed with the notable type ("musical recording germany")."""
    alias = primary_alias(kb, entity)
    if type_in_label:
        label = notable_type(kb, entity)
        if label is not None:
            return f"{label} {alias}"
    return alias


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E2EVariant:
    """Mechanism switches for the end-to-end model."""

    qas_head: bool = False
    char_level: bool = False
    self_attention: bool = False
    type_in_label: bool = False
    type_as_task: bool = False
    out_degree_sort: bool = False

    def __post_init__(self) -> None:
        if self.type_in_label and self.type_as_task:
            raise ValueError(
                "type_in_label and type_as_task are mutually exclusive"
            )

    @property
    def head_mode(self) -> str:
        if self.qas_head:
            return "qas"
        return "qat_type" if self.type_as_task else "qat"


VARIANTS = {
    "qa-s": E2EVariant(qas_head=True),
    "qa-t": E2EVariant(),
    "qa-t-w": E2EVariant(char_level=True),
    "qa-t-ws": E2EVariant(char_level=True, self_attention=True),
    "qa-t-wt": E2EVariant(char_level=True, type_in_label=True),
    "qa-t-swt": E2EVariant(char_level=True, self_attention=True,
                           type_in_label=True),
    "qa-t-mwt": E2EVariant(char_level=True, type_as_task=True),
    "qa-t-mwst": E2EVariant(char_level=True, self_attention=True,
                            type_as_task=True),
}


def variant_from_name(name: str, out_degree_sort: bool = False) -> E2EVariant:
    try:
        base = VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}") from None
    return replace(base, out_degree_sort=out_degree_sort)


def variant_name(variant: E2EVariant) -> str:
    """The name a variant goes by, ignoring the answer-time out-degree
    sort; ValueError when no named variant has its switches."""
    base = replace(variant, out_degree_sort=False)
    for name, known in VARIANTS.items():
        if known == base:
            return name
    raise ValueError(f"no named variant has the switches {asdict(base)}")


def _describe(variant: E2EVariant) -> str:
    """A variant's name, or its switches when no named variant has them."""
    try:
        return variant_name(variant)
    except ValueError:
        return str(asdict(replace(variant, out_degree_sort=False)))


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

CharRows = Callable[[str], Tensor]  # a word's char-GRU summary, [h]


class WordEncoder:
    """Word-table rows, optionally extended with a char-GRU summary.

    With char mode on, each word's character sequence runs through a GRU
    and the last state is concatenated onto the word vector, so unknown
    words that share the out-of-vocabulary row still get distinct
    encodings from their spelling.
    """

    def __init__(self, word_table: EmbeddingTable,
                 char_table: Optional[EmbeddingTable],
                 char_gru: Optional[GRUCell]):
        self.word_table = word_table
        self.char_table = char_table
        self.char_gru = char_gru

    @classmethod
    def build(cls, tokens: Sequence[str], cfg: TrainConfig,
              rng: np.random.Generator, char_level: bool) -> "WordEncoder":
        word_table = EmbeddingTable.random(list(tokens), cfg.embed_dim, rng)
        if not char_level:
            return cls(word_table, None, None)
        chars = sorted({ch for tok in tokens if tok != OOV_TOKEN for ch in tok})
        char_table = EmbeddingTable.random(chars, cfg.char_dim, rng)
        char_gru = GRUCell(cfg.char_dim, cfg.char_dim, rng, name="e2e.char_gru")
        return cls(word_table, char_table, char_gru)

    @property
    def char_level(self) -> bool:
        return self.char_gru is not None

    @property
    def dim(self) -> int:
        extra = self.char_gru.hidden_dim if self.char_level else 0
        return self.word_table.dim + extra

    def encode_words(self, words: Sequence[str],
                     char_rows: Optional[CharRows] = None) -> Tensor:
        """[W, d] rows for the words: word-table rows, with char mode each
        followed by the char-GRU's last state over the word's characters.
        The words run as one padded batch, unless ``char_rows`` is given:
        then each word's char part is ``char_rows(word)``."""
        vecs = self.word_table.embed(list(words))
        if not self.char_level:
            return vecs
        if char_rows is None:
            chars, lengths = self.char_table.embed_padded(words)
            _, last = run_recurrent(self.char_gru, chars, lengths=lengths)
        else:
            last = stack_rows([char_rows(word) for word in words])
        return concat([vecs, last], axis=1)

    def char_summary(self, word: str) -> Tensor:
        """The char-GRU's [h] last state over one word's characters, run
        on that word alone.  A batched run rounds differently in the last
        bits, so this is what answering caches: a word's summary does not
        depend on the words it is asked with."""
        _, last = run_recurrent(self.char_gru, self.char_table.embed(list(word)))
        return last

    def parameters(self) -> dict[str, Tensor]:
        params = {"e2e.words": self.word_table.vectors}
        if self.char_level:
            params["e2e.chars"] = self.char_table.vectors
            params.update(self.char_gru.parameters())
        return params


class SharedEncoder:
    """One LSTM + dense stack reused for subjects, questions, predicates."""

    def __init__(self, input_dim: int, cfg: TrainConfig,
                 rng: np.random.Generator, self_attention_enabled: bool):
        self.lstm = LSTMCell(input_dim, cfg.hidden_size, rng, name="e2e.lstm")
        self.self_attention_enabled = self_attention_enabled
        self.max_len = cfg.max_len
        self.dropout_p = cfg.dropout_p
        self.dense = Dense(cfg.max_len * cfg.hidden_size, cfg.hidden_size,
                           rng, activation="relu", name="e2e.dense")

    def parameters(self) -> dict[str, Tensor]:
        params = dict(self.lstm.parameters())
        params.update(self.dense.parameters())
        return params


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

SUBJECT, PREDICATE, TYPE = range(3)  # scoring-head channels


class ScoringHead:
    """Combines per-channel cosine similarities into fact scores.

    Each channel (subject, predicate and, for ``qat_type``, type) has one
    trained weight: the two entries of ``W`` for ``qas``, else ``w_a``,
    ``w_b`` and ``w_c``.  :meth:`scores` is the one routine that turns
    cosines into scores, for training's hinge terms and for answering.
    """

    def __init__(self, mode: str):
        if mode not in ("qas", "qat", "qat_type"):
            raise ValueError(f"unknown head mode {mode!r}")
        self.mode = mode
        if mode == "qas":
            self.W = param(np.ones(2))
        else:
            self.w_a = param(np.asarray(1.0))
            self.w_b = param(np.asarray(1.0))
            if mode == "qat_type":
                self.w_c = param(np.asarray(1.0))

    def scores(self, cos: Tensor, channels: Sequence[int],
               rows: np.ndarray) -> Tensor:
        """One score per row of the index matrix ``rows``: the cosines
        that row indexes, each scaled by the weight of its channel
        ``channels[k]``, added left to right."""
        if self.mode == "qas":
            weights = self.W
        else:
            weights = stack_rows([self.w_a, self.w_b] + (
                [self.w_c] if self.mode == "qat_type" else []))
        scaled = gather_rows(weights, channels) * cos
        return tsum(gather_rows(scaled, rows), axis=1)

    def hinge_total(self, cos: Tensor, channels: Sequence[int],
                    pos: np.ndarray, neg: np.ndarray, gamma: float) -> Tensor:
        """Summed margin loss of hinge terms over a vector of cosines: a
        term scores each side by :meth:`scores` of its row of ``pos`` or
        ``neg`` and adds max(0, S_neg + gamma - S_pos)."""
        sides = reshape(self.scores(cos, channels, np.concatenate([pos, neg])),
                        (2, len(pos)))
        s_pos, s_neg = gather_rows(sides, 0), gather_rows(sides, 1)
        return tsum(loss_hinge_qas(s_pos, s_neg, gamma))

    def parameters(self) -> dict[str, Tensor]:
        if self.mode == "qas":
            return {"e2e.head.W": self.W}
        params = {"e2e.head.w_a": self.w_a, "e2e.head.w_b": self.w_b}
        if self.mode == "qat_type":
            params["e2e.head.w_c"] = self.w_c
        return params


class E2EModel:
    """Word encoder, shared sequence encoder, and scoring head."""

    kind = "e2e"

    def __init__(self, vocab: Sequence[str], cfg: TrainConfig,
                 variant: E2EVariant, rng: np.random.Generator):
        self.cfg = cfg
        self.variant = variant
        self.words = WordEncoder.build(vocab, cfg, rng, variant.char_level)
        self.encoder = SharedEncoder(self.words.dim, cfg, rng,
                                     variant.self_attention)
        self.head = ScoringHead(variant.head_mode)

    def encode_texts(self, texts: Sequence[Sequence[str]],
                     char_rows: Optional[CharRows] = None) -> Tensor:
        """[B, h] encodings of token sequences, as one padded batch.

        Each distinct word is encoded once, its char part from
        ``char_rows`` when given (see :meth:`WordEncoder.encode_words`);
        the shared LSTM runs once over all rows with their own lengths
        (then self-attention over each row's own states); each row's
        states are truncated or zero-padded to max_len, flattened, and
        passed through the dense layer.
        """
        if not texts or not all(texts):
            raise EmptySequence("cannot encode an empty token sequence")
        se = self.encoder
        words: dict[str, int] = {}
        idx, lengths = padded_indices(
            [[words.setdefault(tok, len(words)) for tok in text]
             for text in texts])
        inputs = gather_rows(self.words.encode_words(list(words), char_rows),
                             idx)
        states, _ = run_recurrent(se.lstm, inputs, lengths=lengths)
        if se.self_attention_enabled:
            states = self_attention(states, lengths)
        flat = reshape(pad_rows(states, se.max_len),
                       (len(texts), se.max_len * se.lstm.hidden_dim))
        return se.dense(flat)

    def encode_text(self, tokens: Sequence[str],
                    char_rows: Optional[CharRows] = None) -> Tensor:
        """One token sequence's encoding: the one-row case of
        :meth:`encode_texts`."""
        return gather_rows(self.encode_texts([tokens], char_rows), 0)

    def parameters(self) -> dict[str, Tensor]:
        params = dict(self.words.parameters())
        params.update(self.encoder.parameters())
        params.update(self.head.parameters())
        return params

    def meta(self) -> dict:
        """The snapshot sidecar's payload (see :mod:`qakb.nn.io`)."""
        return {"vocab": list(self.words.word_table.vocab),
                "config": asdict(self.cfg),
                "variant": asdict(self.variant)}

    @classmethod
    def from_meta(cls, meta: dict) -> "E2EModel":
        """An untrained model of the shape :meth:`meta` describes."""
        return cls(meta["vocab"], TrainConfig(**meta["config"]),
                   E2EVariant(**meta["variant"]), np.random.default_rng(0))


@dataclass
class FactScore:
    """A candidate fact with its per-channel and combined scores."""

    fact: Fact
    s_qs: float
    s_qp: float
    s_qt: Optional[float]
    combined: float


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _PoolSampler:
    """Draws without replacement, reshuffling once a pool is exhausted."""

    def __init__(self, items: Sequence[str], rng: np.random.Generator):
        self.items = list(items)
        self.rng = rng
        self.order: list[int] = []

    def draw(self) -> Optional[str]:
        if not self.items:
            return None
        if not self.order:
            self.order = list(self.rng.permutation(len(self.items)))
        return self.items[self.order.pop()]


def _training_vocab(dataset: Sequence[QuestionInstance],
                    kb: KnowledgeBase) -> list[str]:
    """Every token of the questions, aliases, notable types and relation
    paths, sorted; each distinct type and relation is split once."""
    toks: set[str] = set()
    for q in dataset:
        toks.update(q.tokens)
    types = set()
    for rec in kb.entities.values():
        for alias in rec.aliases:
            toks.update(tokenize(alias))
        types.add(rec.notable_type)
    types.discard(None)
    for label in types:
        toks.update(tokenize(label))
    for relation in {fact.relation for fact in kb.facts}:
        toks.update(relation_tokens(relation))
    return sorted(toks)


class _StepBatch:
    """One optimizer step's questions, planned before any text is encoded.

    :meth:`add` plans a question's loss and draws its dropout masks right
    away, one per use of a text in the order the per-question loss reads
    them, so the generator's stream is the one encoding each use on its
    own would draw.  :meth:`loss` then encodes the step's distinct texts
    once, as one batch, applies each use's own mask, takes every cosine
    in one row-wise pass and sums the hinge terms.
    """

    def __init__(self, model: E2EModel, kb: KnowledgeBase,
                 rng: np.random.Generator):
        self.model, self.kb, self.rng = model, kb, rng
        self.texts: dict[tuple[str, ...], int] = {}
        self.use_text: list[int] = []           # the text of each use
        self.masks: list[np.ndarray] = []       # per question, a row per use
        self.pairs: list[tuple[int, int]] = []  # (question use, other use)
        self.channels: list[int] = []           # each pair's head channel
        self.pos: list[tuple[int, ...]] = []    # each term's pairs, per side
        self.neg: list[tuple[int, ...]] = []
        self.questions = 0

    def add(self, q: QuestionInstance, neg_subject: Optional[str],
            neg_pred: Optional[str]) -> bool:
        """Plan one question's loss; False when no channel is usable,
        though its masks are drawn all the same."""
        model, kb = self.model, self.kb
        uses: list[tuple[str, ...]] = []
        pairs: list[tuple[int, int]] = []

        def cos(tokens: Sequence[str], channel: int) -> int:
            uses.append(tuple(tokens))
            pairs.append((len(uses) - 1, channel))
            return len(pairs) - 1

        def subject(entity: str) -> int:
            return cos(tokenize(subject_text(
                kb, entity, model.variant.type_in_label)), SUBJECT)

        def relation(rel: str) -> int:
            return cos(relation_tokens(rel), PREDICATE)

        uses.append(q.tokens)
        pos_s, pos_p = subject(q.gold.subject), relation(q.gold.relation)
        neg_s = None if neg_subject is None else subject(neg_subject)
        neg_p = None if neg_pred is None else relation(neg_pred)
        terms = []
        if model.head.mode == "qas":
            if neg_s is not None or neg_p is not None:
                terms.append(((pos_s, pos_p),
                              (pos_s if neg_s is None else neg_s,
                               pos_p if neg_p is None else neg_p)))
        else:
            if neg_s is not None:
                terms.append(((pos_s,), (neg_s,)))
            if neg_p is not None:
                terms.append(((pos_p,), (neg_p,)))
            if model.head.mode == "qat_type" and neg_subject is not None:
                t_pos = notable_type(kb, q.gold.subject)
                t_neg = notable_type(kb, neg_subject)
                if t_pos is not None and t_neg is not None:
                    terms.append(((cos(tokenize(t_pos), TYPE),),
                                  (cos(tokenize(t_neg), TYPE),)))
        p = model.cfg.dropout_p
        mask = (dropout_mask((len(uses), model.cfg.hidden_size), p, self.rng)
                if p > 0.0 else None)
        if not terms:
            return False
        first_use, first_pair = len(self.use_text), len(self.pairs)
        self.use_text += [self.texts.setdefault(t, len(self.texts))
                          for t in uses]
        if mask is not None:
            self.masks.append(mask)
        self.pairs += [(first_use, first_use + u) for u, _ in pairs]
        self.channels += [channel for _, channel in pairs]
        self.pos += [tuple(first_pair + k for k in side) for side, _ in terms]
        self.neg += [tuple(first_pair + k for k in side) for _, side in terms]
        self.questions += 1
        return True

    def loss(self) -> Optional[Tensor]:
        """The summed loss of the usable questions; None if there are none."""
        if not self.questions:
            return None
        used = gather_rows(self.model.encode_texts(list(self.texts)),
                           self.use_text)
        if self.masks:
            used = used * np.concatenate(self.masks)
        left, right = np.array(self.pairs).T
        return self.model.head.hinge_total(
            cosine(gather_rows(used, left), gather_rows(used, right)),
            self.channels, np.array(self.pos), np.array(self.neg),
            self.model.cfg.gamma)


def train_e2e(dataset: Sequence[QuestionInstance], kb: KnowledgeBase,
              pools: NegativePools, variant: E2EVariant,
              cfg: TrainConfig) -> tuple[E2EModel, list[float]]:
    """Fit an end-to-end model; returns it with per-epoch mean losses."""
    if not dataset:
        raise EmptyTrainingSet("no questions to train on")
    rng = np.random.default_rng(cfg.seed)
    model = E2EModel(_training_vocab(dataset, kb), cfg, variant, rng)
    subj_samplers = [_PoolSampler(p, rng) for p in pools.subject_pools]
    pred_samplers = [_PoolSampler(p, rng) for p in pools.predicate_pools]
    skipped = 0

    def batch_loss(batch: np.ndarray) -> tuple[Optional[Tensor], int]:
        nonlocal skipped
        # the weights hold still until the optimizer step, so each
        # distinct text is encoded once per step and its gradient sums
        # over every use
        step = _StepBatch(model, kb, rng)
        for i in batch:
            if not step.add(
                    dataset[i],
                    subj_samplers[i].draw() if i < len(subj_samplers) else None,
                    pred_samplers[i].draw() if i < len(pred_samplers) else None):
                skipped += 1
        return step.loss(), step.questions

    curve = fit(model.parameters(), len(dataset), batch_loss, cfg, rng, "e2e")
    if skipped:
        logger.info("skipped %d question steps with no usable channel", skipped)
    return model, curve


# ---------------------------------------------------------------------------
# Answering
# ---------------------------------------------------------------------------

class E2EStrategy:
    """One model answering a stream of questions graph-free, as one
    session.

    A question's candidate facts are scored together: their subject,
    relation and type texts' cosines against the question vector in one
    row-wise :func:`cosine`, then one call to the head's
    :meth:`ScoringHead.scores`, the routine training scores through.
    The question is tokenized once, for the retrieval and the encoder.
    Encodings of subject labels, relation paths and type labels are filled
    on first use and kept for the session, keyed by their raw text, so a
    text seen before is not tokenized again; question encodings are not
    kept.  With char mode every encode takes each word's char part from
    :meth:`char_row`, which keeps the summaries of vocabulary words, so a
    warm session runs no char-GRU.  Memory is bounded by the KB's texts
    plus the vocabulary.  A session must not outlive a change to the
    model's weights.  ``variant`` must be the model's own, except for the
    answer-time ``out_degree_sort``; ValueError otherwise.
    """

    def __init__(self, model: E2EModel, variant: E2EVariant,
                 kb: KnowledgeBase, index: AliasIndex):
        if (replace(variant, out_degree_sort=False)
                != replace(model.variant, out_degree_sort=False)):
            raise ValueError(
                f"variant {_describe(variant)} does not match the model, "
                f"which was trained as {_describe(model.variant)}"
            )
        self.model, self.variant = model, variant
        self.kb, self.index = kb, index
        self.context_fields = tuple(
            field for field, used in (
                ("out_degree", variant.out_degree_sort),
                ("type", variant.type_in_label or variant.type_as_task))
            if used)
        # char summaries of vocabulary words, filled on first use
        self.summaries: dict[str, Tensor] = {}

        # looked up on each miss, so a wrapper put on the model's
        # encode_text after the session was built still sees every miss
        def encode(tokens: tuple[str, ...]) -> Tensor:
            return self.model.encode_text(tokens, self.char_row)

        # subject labels and type labels, and relation paths
        self.labels = EncodeCache(encode, tokenize)
        self.relations = EncodeCache(encode, relation_tokens)

    def char_row(self, word: str) -> Tensor:
        """The word's :meth:`WordEncoder.char_summary`, kept for the
        session when the word is in the model's vocabulary; an
        out-of-vocabulary word's is run afresh on every use."""
        vec = self.summaries.get(word)
        if vec is None:
            words = self.model.words
            vec = words.char_summary(word)
            if word in words.word_table.vocab:
                self.summaries[word] = vec
        return vec

    @cached_property
    def label(self) -> tuple[str, str]:
        """``("variant", name)``, looked up when first a record needs it."""
        return "variant", variant_name(self.variant)

    def answer(self, question: str) -> tuple[str, str, dict[str, float]]:
        """The top fact as ``(subject, relation, scores)``; NoCandidates
        when there is no answer."""
        top = self.top(question)[0]
        scores = {"s_qs": top.s_qs, "s_qp": top.s_qp,
                  "combined": top.combined}
        if top.s_qt is not None:
            scores["s_qt"] = top.s_qt
        return top.fact.subject, top.fact.relation, scores

    def top(self, question: str, k: int = 1) -> list[FactScore]:
        """Top-k candidate facts, highest combined score first."""
        kb, variant = self.kb, self.variant
        tokens = tokenize(question)
        cands = retrieve_question_candidates(self.index, tokens)
        if not cands:
            raise NoCandidates(f"no candidate entities for {question!r}")
        facts = [kb.facts[i] for cand in cands
                 for i in kb.by_subject.get(cand.id, ())]
        if not facts:
            raise NoCandidates(f"candidates for {question!r} hold no facts")
        channels = ([SUBJECT, PREDICATE, TYPE] if variant.type_as_task
                    else [SUBJECT, PREDICATE])
        with no_grad():
            q_vec = self.model.encode_text(tokens, self.char_row)
            # each fact's channel encodings in channel order; an untyped
            # subject has no type text and its type cosine is 0
            vecs: list[Optional[Tensor]] = []
            for fact in facts:
                vecs.append(self.labels(subject_text(
                    kb, fact.subject, variant.type_in_label)))
                vecs.append(self.relations(fact.relation))
                if variant.type_as_task:
                    label = notable_type(kb, fact.subject)
                    vecs.append(None if label is None else self.labels(label))
            live = [i for i, vec in enumerate(vecs) if vec is not None]
            cos = np.zeros(len(vecs))
            encoded = stack_rows([vecs[i] for i in live])
            question_rows = Tensor(np.broadcast_to(q_vec.data, encoded.shape))
            cos[live] = cosine(question_rows, encoded).data
            combined = self.model.head.scores(
                Tensor(cos), channels * len(facts),
                np.arange(len(vecs)).reshape(len(facts), len(channels))).data
        scored = [
            FactScore(fact=fact, s_qs=float(c[SUBJECT]),
                      s_qp=float(c[PREDICATE]),
                      s_qt=float(c[TYPE]) if variant.type_as_task else None,
                      combined=float(total))
            for fact, c, total in zip(
                facts, cos.reshape(len(facts), len(channels)), combined)
        ]
        scored.sort(key=lambda fs: (-fs.combined, fs.fact.subject,
                                    fs.fact.relation, fs.fact.object))
        if variant.out_degree_sort:
            top = scored[0].combined
            tied = [fs for fs in scored if fs.combined >= top - SCORE_TIE_TOL]
            rest = scored[len(tied):]
            tied.sort(key=lambda fs: -out_degree(kb, fs.fact.subject))
            scored = tied + rest
        return scored[:k]


def answer(model: E2EModel, kb: KnowledgeBase, index: AliasIndex,
           question: str, variant: E2EVariant, k: int = 1) -> list[FactScore]:
    """Top-k candidate facts for one question, from a fresh session."""
    return E2EStrategy(model, variant, kb, index).top(question, k)

