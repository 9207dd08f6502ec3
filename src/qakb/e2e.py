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
from typing import Iterable, Optional, Sequence

import numpy as np

from qakb.aliasindex import (AliasIndex, build_index, relation_tokens,
                             retrieve_question_candidates, tokenize)
from qakb.datagen import NegativePools, QuestionInstance, type_inventory
from qakb.errors import (EmptySequence, EmptyTrainingSet, NoCandidates,
                         NoRelation)
from qakb.kb import (Fact, KnowledgeBase, facts_of, notable_type, out_degree,
                     primary_alias)
from qakb.nn.config import TrainConfig
from qakb.nn.io import Model, new_model
from qakb.nn.layers import (OOV_TOKEN, Dense, EmbeddingTable, GRUCell,
                            LSTMCell, attention_forward, cosine_backward,
                            cosine_forward, dropout_mask,
                            padded_indices, recurrent, recurrent_forward,
                            self_attention, table_tokens)
from qakb.nn.optim import fit
from qakb.nn.tensor import (
    Tensor,
    _make,
    concat,
    gather_rows,
    pad_rows,
    reshape,
    row_sums,
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


def variant_name(variant: E2EVariant) -> str:
    """The name a variant goes by, ignoring the answer-time out-degree
    sort; ValueError when no named variant has its switches."""
    base = replace(variant, out_degree_sort=False)
    for name, known in VARIANTS.items():
        if known == base:
            return name
    raise ValueError(f"no named variant has the switches {asdict(base)}")


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

def char_vocab(words: Iterable[str]) -> list[str]:
    """The characters a char table has rows for: those of ``words`` but
    the unknown token, sorted."""
    return sorted(set("".join(filter(OOV_TOKEN.__ne__, words))))


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

SUBJECT, PREDICATE, TYPE = range(3)  # scoring-head channels


class ScoringHead:
    """Combines per-channel cosine similarities into fact scores.

    Each channel (subject, predicate and, for ``qat_type``, type) has one
    trained weight, its entry of the vector ``W``.  :meth:`combine` turns
    cosines into scores on arrays, for answering and for the forward of
    training's loss node (:meth:`_StepBatch.head_loss`).
    """

    def __init__(self, params: dict[str, np.ndarray], name: str,
                 mode: str):
        """The head ``name`` of ``mode`` holding the weights of
        ``params``, which have the :meth:`shapes`, without copying them."""
        if mode not in ("qas", "qat", "qat_type"):
            raise ValueError(f"unknown head mode {mode!r}")
        self.name, self.mode = name, mode
        self.W = Tensor(params[f"{name}.W"], requires_grad=True)

    @staticmethod
    def shapes(name: str, mode: str) -> dict[str, tuple[int, ...]]:
        """The shape of the weights of a head of ``mode``, by name."""
        return {f"{name}.W": (3 if mode == "qat_type" else 2,)}

    @classmethod
    def draw(cls, rng: np.random.Generator, name: str,
             mode: str) -> dict[str, np.ndarray]:
        """Every channel weight 1.0; nothing is drawn."""
        return {key: np.ones(shape)
                for key, shape in cls.shapes(name, mode).items()}

    def combine(self, cos: np.ndarray, channels: Sequence[int],
                rows: np.ndarray) -> np.ndarray:
        """One score per row of the index matrix ``rows``: the cosines
        that row indexes, each scaled by the weight of its channel
        ``channels[k]``, added left to right."""
        return (self.W.data[channels] * cos)[rows].sum(axis=1)

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.W": self.W}


class E2EModel(Model):
    """Word rows, one LSTM + dense stack shared by questions, subject
    labels and relation paths, and scoring head.

    A word's row is its word-table row.  With char mode on, each word's
    character sequence also runs through a GRU, and the last state is
    concatenated onto the word vector, so unknown words that share the
    out-of-vocabulary row still get distinct encodings from their
    spelling.
    """

    kind = "e2e"

    def encode_words(self, words: Sequence[str]) -> Tensor:
        """[W, d] rows for the words: word-table rows, with char mode each
        followed by the char-GRU's last state over the word's characters,
        every word on its own slot, so its char part has the bits of
        :meth:`char_summaries`."""
        vecs = self.words.embed(list(words))
        if not self.variant.char_level:
            return vecs
        chars, lengths = self.chars.embed_padded(words)
        last = recurrent((self.char_gru,), chars, lengths, (False,), "last")
        return concat([vecs, last], axis=1)

    def char_summaries(self, words: Sequence[str]) -> np.ndarray:
        """[W, h] char-GRU last states, one per non-empty word, over its
        characters, on arrays: one run with each word on its own slot (see
        :func:`~qakb.nn.layers.recurrent_forward`), so a word's summary
        has the bits of :func:`~qakb.nn.layers.recurrent` over that word's
        character rows alone, whatever words it runs with."""
        idx, lengths = padded_indices([self.chars.indices(word)
                                       for word in words])
        last, _ = recurrent_forward(
            (self.char_gru,), (self.chars.vectors.data[idx][:, None],),
            lengths, (False,), "last")
        return last[:, 0]

    def encode_texts(self, texts: Sequence[Sequence[str]]) -> Tensor:
        """[B, h] encodings of token sequences, as one padded batch whose
        texts each run on their own slot, so row ``k`` has the bits of
        ``encode_text(texts, {})[k]``, whatever texts it is encoded with.

        Each distinct word is encoded once (see :meth:`encode_words`);
        the shared LSTM runs once over all rows with their own lengths
        (then self-attention over each row's own states); each row's
        states are truncated or zero-padded to max_len, flattened, and
        passed through the dense layer as a stack of [1, max_len * h]
        rows.
        """
        if not texts or not all(texts):
            raise EmptySequence("cannot encode an empty token sequence")
        words: dict[str, int] = {}
        idx, lengths = padded_indices(
            [[words.setdefault(tok, len(words)) for tok in text]
             for text in texts])
        inputs = gather_rows(self.encode_words(list(words)), idx)
        states = recurrent((self.lstm,), inputs, lengths, (False,),
                           "states")
        if self.variant.self_attention:
            states = self_attention(states, lengths)
        max_len, h = self.cfg.max_len, self.lstm.hidden_dim
        flat = reshape(pad_rows(states, max_len),
                       (len(texts), 1, max_len * h))
        return reshape(self.dense(flat), (len(texts), h))

    def encode_text(self, texts: Sequence[tuple[str, ...]],
                    summaries: dict[str, np.ndarray]) -> np.ndarray:
        """[K, h] encodings of K token sequences on arrays, building no
        graph: row ``k`` has the bits of row ``k`` of ``encode_texts(
        texts)``, and of row 0 of ``encode_text([texts[k]], {})``,
        whatever texts it is encoded with, the same text again included.

        Each layer runs once for all the texts, each text, and each word,
        on its own leading-axis slot, so every product is the one the text
        would get alone.  ``summaries`` holds the char summaries of
        vocabulary words met so far, a session's or a new dict.  With char
        mode, the char-GRU runs once over the distinct words it lacks
        (:meth:`char_summaries`), and those of vocabulary words are added.
        The texts run longest first: the LSTM once, one slot per text, for
        the longest text's steps; self-attention over each text's states
        (:func:`~qakb.nn.layers.attention_forward`, the texts of one
        length stacked); then each text's states are truncated or
        zero-padded to max_len and go through the dense layer as a stack
        of [1, max_len * h] rows.  EmptySequence for no texts or an empty
        one, and TypeError for a text given as a string.
        """
        if not texts or not all(texts):
            raise EmptySequence("cannot encode an empty token sequence")
        if any(isinstance(text, str) for text in texts):
            raise TypeError("a text is a sequence of tokens, not a string")
        order = sorted(range(len(texts)), key=lambda i: -len(texts[i]))
        words: dict[str, int] = {}
        idx, lengths = padded_indices(
            [[words.setdefault(tok, len(words)) for tok in texts[i]]
             for i in order])
        rows = self.words.rows(list(words))
        if self.variant.char_level:
            rows = np.concatenate(
                [rows, self._char_part(list(words), summaries)], axis=1)
        states, _ = recurrent_forward((self.lstm,), (rows[idx][:, None],),
                                      lengths, (False,), "states")
        states = states[:, 0]
        if self.variant.self_attention:
            states, _ = attention_forward(states, lengths)
        (K, T), max_len, h = idx.shape, self.cfg.max_len, self.lstm.hidden_dim
        flat = np.zeros((K, max_len, h))
        flat[:, :T] = states[:, :max_len]
        encoded = self.dense.forward(flat.reshape(K, 1, max_len * h))[:, 0]
        if order != sorted(order):
            encoded[order] = encoded.copy()
        return encoded

    def _char_part(self, words: list[str],
                   summaries: dict[str, np.ndarray]) -> np.ndarray:
        """The [W, h] char parts of distinct words, as :meth:`encode_text`
        takes them from ``summaries`` and fills it."""
        fresh = [word for word in words if word not in summaries]
        ran = dict(zip(fresh, self.char_summaries(fresh))) if fresh else {}
        vocab = self.words.vocab
        summaries.update((word, vec) for word, vec in ran.items()
                         if word in vocab)
        return np.array([ran[word] if word in ran else summaries[word]
                         for word in words])

    @classmethod
    def layout(cls, meta: dict) -> tuple[dict, list[tuple]]:
        """As :meth:`qakb.pipeline.TaggerModel.layout`."""
        cfg = TrainConfig(**meta["config"])
        variant = E2EVariant(**meta["variant"])
        words = table_tokens(meta["vocab"])
        E, C, H = cfg.embed_dim, cfg.char_dim, cfg.hidden_size
        parts = [("words", EmbeddingTable, "e2e.words", words, E)]
        if variant.char_level:
            chars = table_tokens(char_vocab(words))
            parts += [("chars", EmbeddingTable, "e2e.chars", chars, C),
                      ("char_gru", GRUCell, "e2e.char_gru", C, C)]
        width = E + (C if variant.char_level else 0)
        parts += [("lstm", LSTMCell, "e2e.lstm", width, H),
                  ("dense", Dense, "e2e.dense", cfg.max_len * H, H, "relu"),
                  ("head", ScoringHead, "e2e.head", variant.head_mode)]
        payload = {"vocab": words, "config": asdict(cfg),
                   "variant": asdict(variant)}
        return {"cfg": cfg, "variant": variant, "payload": payload}, parts


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


def _training_vocab(dataset: Sequence[QuestionInstance], kb: KnowledgeBase,
                    index: Optional[AliasIndex] = None) -> list[str]:
    """Every token of the questions, aliases, notable types and relation
    paths, sorted; each distinct type and relation is split once.  The
    alias tokens are read off the exact keys of ``index``, the KB's alias
    index (built here when not given): each key is an alias's tokens
    joined by single spaces, and no token holds whitespace.  When no key
    has two tokens (``index.longest`` below 2), the keys are the tokens
    and are not split again."""
    if index is None:
        index = build_index(kb)
    toks: set[str] = set()
    for q in dataset:
        toks.update(q.tokens)
    toks.update(index.exact if index.longest < 2
                else " ".join(index.exact).split())
    for label in type_inventory(kb):
        toks.update(tokenize(label))
    for relation in kb.relations:
        toks.update(relation_tokens(relation))
    return sorted(toks)


class _StepBatch:
    """One optimizer step's questions, planned before any text is encoded.

    :meth:`add` plans a question's loss and draws its dropout masks right
    away, one per use of a text in the order the per-question loss reads
    them, so the generator's stream is the one encoding each use on its
    own would draw.  :meth:`loss` then encodes the step's distinct texts
    once, as one batch, and :meth:`head_loss` turns their encodings into
    the summed hinge terms as one graph node, so a step builds the
    encoder's nodes, that one and the optimizer loop's scaling.
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
        in_label = model.variant.type_in_label
        # each other text a pair joins with the question, with its head
        # channel: pair k is use k + 1, use 0 being the question
        others = [(SUBJECT, tokenize(subject_text(kb, q.gold.subject,
                                                  in_label))),
                  (PREDICATE, relation_tokens(q.gold.relation))]
        neg_s = neg_p = None
        if neg_subject is not None:
            neg_s = len(others)
            others.append((SUBJECT, tokenize(subject_text(kb, neg_subject,
                                                          in_label))))
        if neg_pred is not None:
            neg_p = len(others)
            others.append((PREDICATE, relation_tokens(neg_pred)))
        terms = []  # each term's pairs, positive side and negative side
        if model.head.mode == "qas":
            if len(others) > 2:
                terms.append(((0, 1), (0 if neg_s is None else neg_s,
                                       1 if neg_p is None else neg_p)))
        else:
            if neg_s is not None:
                terms.append(((0,), (neg_s,)))
            if neg_p is not None:
                terms.append(((1,), (neg_p,)))
            if model.head.mode == "qat_type" and neg_subject is not None:
                t_pos = notable_type(kb, q.gold.subject)
                t_neg = notable_type(kb, neg_subject)
                if t_pos is not None and t_neg is not None:
                    terms.append(((len(others),), (len(others) + 1,)))
                    others += [(TYPE, tokenize(t_pos)),
                               (TYPE, tokenize(t_neg))]
        p = model.cfg.dropout_p
        mask = (dropout_mask((1 + len(others), model.cfg.hidden_size), p,
                             self.rng) if p > 0.0 else None)
        if not terms:
            return False
        first_use, first_pair = len(self.use_text), len(self.pairs)
        texts = self.texts
        self.use_text.append(texts.setdefault(q.tokens, len(texts)))
        for channel, tokens in others:
            self.use_text.append(texts.setdefault(tuple(tokens), len(texts)))
            self.channels.append(channel)
        if mask is not None:
            self.masks.append(mask)
        self.pairs += [(first_use, first_use + 1 + k)
                       for k in range(len(others))]
        self.pos += [tuple(first_pair + k for k in side) for side, _ in terms]
        self.neg += [tuple(first_pair + k for k in side) for _, side in terms]
        self.questions += 1
        return True

    def loss(self) -> Optional[Tensor]:
        """The summed loss of the usable questions; None if there are none."""
        if not self.questions:
            return None
        return self.head_loss(self.model.encode_texts(list(self.texts)))

    def head_loss(self, encoded: Tensor) -> Tensor:
        """The summed hinge terms of the planned questions over
        ``encoded``, the [m, h] encodings of the step's distinct texts,
        as one graph node whose parents are ``encoded`` and the head's
        ``W``.

        Its forward gathers each use's row and applies the use's mask,
        takes every (question, other) pair's cosine in one row-wise
        :func:`~qakb.nn.layers.cosine_forward`, scores each term's two
        sides by :meth:`ScoringHead.combine` and sums max(0, S_neg +
        gamma - S_pos).  Its backward gives ``encoded`` and ``W`` the
        gradients that the gather, mask, cosine, channel-weight, score
        and hinge nodes it replaces would, with their expressions and in
        their order, every row sum by :func:`~qakb.nn.tensor.row_sums`,
        so every bit is theirs.
        """
        W, gamma = self.model.head.W, self.model.cfg.gamma
        use_text, channels = np.array(self.use_text), np.array(self.channels)
        rows = np.array(self.pos + self.neg)
        left, right = np.array(self.pairs).T
        used = encoded.data[use_text]
        mask = np.concatenate(self.masks) if self.masks else None
        if mask is not None:
            used = used * mask
        x, y = used[left], used[right]
        cos, saved = cosine_forward(x, y)
        weights = W.data[channels]
        s_pos, s_neg = np.split(self.model.head.combine(cos, channels, rows),
                                2)
        margin = s_neg + s_pos * -1.0 + gamma

        def backward(out: Tensor) -> None:
            d_neg = (np.broadcast_to(out.grad, margin.shape)
                     * (margin > 0.0).astype(np.float64))
            d_scores = np.concatenate([d_neg * -1.0, d_neg])
            d_scaled = row_sums(rows, np.broadcast_to(d_scores[:, None],
                                                      rows.shape), len(cos))
            if W.requires_grad:
                W.accumulate_rows(channels, d_scaled * cos)
            if not encoded.requires_grad:
                return
            d_x, d_y = cosine_backward(d_scaled * weights, x, y, cos, saved)
            # a use is the left side of its pairs (a question) or the
            # right (another text), never both, so one pass sums each
            # side's rows as its own gather did
            d_used = row_sums(np.concatenate([left, right]),
                              np.concatenate([d_x, d_y]), len(used))
            if mask is not None:
                d_used = d_used * mask
            encoded.accumulate_rows(use_text, d_used)

        return _make(np.maximum(margin, 0.0).sum(), (encoded, W), backward)


def train_e2e(dataset: Sequence[QuestionInstance], kb: KnowledgeBase,
              pools: NegativePools, variant: E2EVariant, cfg: TrainConfig,
              index: Optional[AliasIndex] = None
              ) -> tuple[E2EModel, list[float]]:
    """Fit an end-to-end model; returns it with per-epoch mean losses.
    ``index`` is the KB's alias index, built here when not given.
    ``pools`` holds one subject and one predicate pool per question,
    ValueError otherwise.  EmptyTrainingSet when no question has a
    negative in either: no step would have a loss to train on."""
    if not dataset:
        raise EmptyTrainingSet("no questions to train on")
    if not (len(pools.subject_pools) == len(pools.predicate_pools)
            == len(dataset)):
        raise ValueError(f"{len(dataset)} questions need one subject and "
                         "one predicate pool each")
    if not any(pools.subject_pools) and not any(pools.predicate_pools):
        raise EmptyTrainingSet("no question has a negative subject or "
                               "relation to train against")
    rng = np.random.default_rng(cfg.seed)
    model = new_model(E2EModel, {"vocab": _training_vocab(dataset, kb, index),
                                 "config": asdict(cfg),
                                 "variant": asdict(variant)}, rng)
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
            if not step.add(dataset[i], subj_samplers[i].draw(),
                            pred_samplers[i].draw()):
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
    """One model answering a stream of questions on arrays, as one
    session: answering makes no :class:`~qakb.nn.tensor.Tensor`.

    A question's candidate facts are scored together: their subject,
    relation and type texts' cosines against the question vector in one
    row-wise :func:`~qakb.nn.layers.cosine_forward`, then one call to
    :meth:`ScoringHead.combine`, the array form of the routine training
    scores through.  Every encoding is :meth:`E2EModel.encode_text`'s
    array, with the bits of the graph path.
    The question is tokenized once, for the retrieval and the encoder.
    Encodings of subject labels, relation paths and type labels are kept
    for the session in one dict, :attr:`encodings`, keyed by ``(kind,
    raw text)``, kind 0 for a label and 1 for a relation path, so a text
    seen before is not tokenized again; question encodings are not kept.
    Each answer makes one :meth:`E2EModel.encode_text` call: its question,
    then the texts of every key the dict lacks, which runs each layer
    once for all of them, one slot per text, and the dict takes the rows
    back.  That call takes each word's char part from :attr:`summaries`,
    which keeps those of vocabulary words, so a warm session runs no
    char-GRU.  A text's encoding has the bits of encoding it alone, so an
    answer does not depend on what the session has encoded before.
    Memory is bounded by the KB's texts plus the vocabulary.  A session
    must not outlive a change to the model's weights.  The session
    answers as the model's own variant; ``out_degree_sort`` is its one
    answer-time switch.
    """

    def __init__(self, model: E2EModel, kb: KnowledgeBase, index: AliasIndex,
                 out_degree_sort: bool = False):
        variant = replace(model.variant, out_degree_sort=out_degree_sort)
        self.model, self.variant = model, variant
        self.kb, self.index = kb, index
        self.context_fields = tuple(
            field for field, used in (
                ("out_degree", variant.out_degree_sort),
                ("type", variant.type_in_label or variant.type_as_task))
            if used)
        # char summaries of vocabulary words, filled on first use
        self.summaries: dict[str, np.ndarray] = {}
        # encodings of labels (0, text) and relation paths (1, path)
        self.encodings: dict[tuple[int, str], np.ndarray] = {}

    @cached_property
    def label(self) -> tuple[str, str]:
        """``("variant", name)``, looked up when first a record needs it."""
        return "variant", variant_name(self.variant)

    def answer(self, question: str) -> tuple[str, str, dict[str, float]]:
        """The top fact as ``(subject, relation, scores)``; see :meth:`top`
        for the errors."""
        top = self.top(question)[0]
        scores = {"s_qs": top.s_qs, "s_qp": top.s_qp,
                  "combined": top.combined}
        if top.s_qt is not None:
            scores["s_qt"] = top.s_qt
        return top.fact.subject, top.fact.relation, scores

    def top(self, question: str, k: int = 1) -> list[FactScore]:
        """Top-k candidate facts, highest combined score first.
        NoCandidates when retrieval finds no entity, and NoRelation when
        the entities it finds hold no facts, as in the pipeline."""
        kb, variant = self.kb, self.variant
        tokens = tokenize(question)
        cands = retrieve_question_candidates(self.index, tokens)
        if not cands:
            raise NoCandidates(f"no candidate entities for {question!r}")
        facts = [fact for cand in cands for fact in facts_of(kb, cand.id)]
        if not facts:
            raise NoRelation(f"candidates for {question!r} hold no facts")
        channels = ([SUBJECT, PREDICATE, TYPE] if variant.type_as_task
                    else [SUBJECT, PREDICATE])
        # each fact's channel texts in channel order, as (0, label) or
        # (1, relation path); an untyped subject has no type text and its
        # type cosine is 0
        keys: list[Optional[tuple[int, str]]] = []
        for fact in facts:
            keys.append((0, subject_text(kb, fact.subject,
                                         variant.type_in_label)))
            keys.append((1, fact.relation))
            if variant.type_as_task:
                label = notable_type(kb, fact.subject)
                keys.append(None if label is None else (0, label))
        cache, split = self.encodings, (tokenize, relation_tokens)
        new = list(dict.fromkeys(key for key in keys
                                 if key is not None and key not in cache))
        encoded = self.model.encode_text(
            [tuple(tokens)] + [tuple(split[kind](text)) for kind, text in new],
            self.summaries)
        # copies, so the cache does not keep the question's row alive
        cache.update(zip(new, encoded[1:].copy()))
        live = [i for i, key in enumerate(keys) if key is not None]
        cos = np.zeros(len(keys))
        # a contiguous question block: ufuncs over a broadcast view walk
        # it row by row, which costs more than the copy
        cos[live], _ = cosine_forward(encoded[0][None].repeat(len(live), 0),
                                      np.array([cache[keys[i]]
                                                for i in live]))
        combined = self.model.head.combine(
            cos, channels * len(facts),
            np.arange(len(keys)).reshape(len(facts), len(channels)))
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
