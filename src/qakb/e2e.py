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
from typing import Callable, Iterable, Optional, Sequence

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
                            LSTMCell, attention_forward, cosine,
                            cosine_forward, dropout_mask, length_groups,
                            padded_indices, recurrent, recurrent_forward,
                            self_attention, table_tokens)
from qakb.nn.losses import loss_hinge_qas
from qakb.nn.optim import fit
from qakb.nn.tensor import (
    Tensor,
    concat,
    gather_rows,
    pad_rows,
    reshape,
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

# a word's [h] char-GRU summary
CharRows = Callable[[str], np.ndarray]


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
    trained weight, its entry of the vector ``W``.  :meth:`scores` turns
    cosines into scores for training's hinge terms, as graph nodes, and
    :meth:`combine` does the same on arrays for answering.
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

    def scores(self, cos: Tensor, channels: Sequence[int],
               rows: np.ndarray) -> Tensor:
        """One score per row of the index matrix ``rows``: the cosines
        that row indexes, each scaled by the weight of its channel
        ``channels[k]``, added left to right."""
        scaled = gather_rows(self.W, channels) * cos
        return tsum(gather_rows(scaled, rows), axis=1)

    def combine(self, cos: np.ndarray, channels: Sequence[int],
                rows: np.ndarray) -> np.ndarray:
        """:meth:`scores` on arrays, for answering: the same numpy
        operations in the same order, so the same bits."""
        return (self.W.data[channels] * cos)[rows].sum(axis=1)

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

    def encode_words(self, words: Sequence[str],
                     char_rows: Optional[CharRows] = None) -> Tensor:
        """[W, d] rows for the words: word-table rows, with char mode each
        followed by the char-GRU's last state over the word's characters.
        The words run as one padded batch, unless ``char_rows`` is given:
        then each word's char part is ``char_rows(word)``."""
        vecs = self.words.embed(list(words))
        if not self.variant.char_level:
            return vecs
        if char_rows is None:
            chars, lengths = self.chars.embed_padded(words)
            last = recurrent((self.char_gru,), chars, lengths, (False,),
                             "last")
        else:
            last = np.stack([char_rows(word) for word in words])
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

    def char_summary(self, word: str) -> np.ndarray:
        """One word's [h] :meth:`char_summaries`: the char part that
        :meth:`encode_text` gives the word, and so the ``char_rows`` with
        which :meth:`encode_texts` gives its bits."""
        return self.char_summaries([word])[0]

    def encode_texts(self, texts: Sequence[Sequence[str]],
                     char_rows: Optional[CharRows] = None) -> Tensor:
        """[B, h] encodings of token sequences, as one padded batch.

        Each distinct word is encoded once, its char part from
        ``char_rows`` when given (see :meth:`encode_words`);
        the shared LSTM runs once over all rows with their own lengths
        (then self-attention over each row's own states); each row's
        states are truncated or zero-padded to max_len, flattened, and
        passed through the dense layer.
        """
        if not texts or not all(texts):
            raise EmptySequence("cannot encode an empty token sequence")
        words: dict[str, int] = {}
        idx, lengths = padded_indices(
            [[words.setdefault(tok, len(words)) for tok in text]
             for text in texts])
        inputs = gather_rows(self.encode_words(list(words), char_rows), idx)
        states = recurrent((self.lstm,), inputs, lengths, (False,),
                           "states")
        if self.variant.self_attention:
            states = self_attention(states, lengths)
        max_len = self.cfg.max_len
        flat = reshape(pad_rows(states, max_len),
                       (len(texts), max_len * self.lstm.hidden_dim))
        return self.dense(flat)

    def encode_text(self, texts: Sequence[tuple[str, ...]],
                    summaries: dict[str, np.ndarray]) -> np.ndarray:
        """[K, h] encodings of K token sequences on arrays, building no
        graph: row ``k`` has the bits of row 0 of ``encode_texts(
        [texts[k]], self.char_summary)``, whatever texts it is encoded
        with, the same text again included.

        Each layer runs once for all the texts, each text, and each word,
        on its own leading-axis slot, so every product is the one the text
        would get alone.  ``summaries`` holds the char summaries of
        vocabulary words met so far, a session's or a new dict.  With char
        mode, the char-GRU runs once over the distinct words it lacks
        (:meth:`char_summaries`), and those of vocabulary words are added.
        The texts run longest first: the LSTM once, one slot per text, for
        the longest text's steps; self-attention over each text's states,
        the texts of one length stacked; then each text's states are
        truncated or zero-padded to max_len and go through the dense layer
        as a stack of [1, max_len * h] rows.  EmptySequence for no texts
        or an empty one, and TypeError for a text given as a string.
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
        (K, T), max_len, h = idx.shape, self.cfg.max_len, self.lstm.hidden_dim
        flat = np.zeros((K, max_len, h))
        if self.variant.self_attention:
            for a, b, n in length_groups(lengths.tolist()):
                flat[a:b, :n] = attention_forward(
                    states[a:b, :n])[0][:, :max_len]
        else:
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
