"""Training-set construction for both answer-producing stacks.

Covers entity-span labelling by edit distance, relation pairs grouped by
relation domain, the edit-distance relation dictionary, and the per
question subject/predicate negative pools for the joint ranker.

Edit distance is Myers' bit-parallel algorithm in Hyyrö's form:
:func:`levenshtein` runs it on Python ints for one pair (span labelling),
and :func:`build_drr` runs the same word operations on uint64 arrays for
every key-by-relation pair at once.  Matcher pairs are made and written
one question at a time, as (question, positive, negatives) groups.
"""

from __future__ import annotations

import io
import logging
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from qakb.aliasindex import (
    AliasIndex,
    CandidateEntity,
    retrieve_question_candidates,
    tokenize,
)
from qakb.errors import LabelFailure, ParseError
from qakb.kb import (
    Fact,
    KnowledgeBase,
    aliases_of,
    canonicalize_mid,
    canonicalize_relation,
    relations_of,
    tsv_rows,
)

log = logging.getLogger(__name__)

SUBJECT_POOL_SIZE = 5
PREDICATE_POOL_SIZE = 50
TYPE_NEGATIVES = 10
POSITIVE_COPIES = 3
DRR_TRUNCATE_ABOVE = 2000
DRR_KEEP = 200
DRR_BLOCK_CELLS = 1 << 15


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute, cost 1).

    Myers' bit-vector algorithm in Hyyrö's edit-distance form: bit ``i``
    of ``pv``/``mv`` says the column delta at row ``i`` of the DP matrix
    is +1/-1, and one column costs a few word operations.  The longer
    string is the bit-vector side, so Python ints cover any length, and
    the loop runs over the shorter one.
    """
    if len(a) < len(b):
        a, b = b, a
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1
    pv, mv, score = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # row 0 grows by one per column, so a +1 enters at the bottom
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (mask & ~(xv | ph))
        mv = ph & xv
    return score


# ---------------------------------------------------------------------------
# Questions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QuestionInstance:
    text: str
    gold: Fact
    tokens: tuple[str, ...]


def make_question(text: str, gold: Fact) -> QuestionInstance:
    return QuestionInstance(text=text, gold=gold, tokens=tuple(tokenize(text)))


def parse_questions_tsv(lines: Iterable[str]) -> list[QuestionInstance]:
    """Parse ``subject<TAB>relation<TAB>object<TAB>question`` lines; the
    gold object is the object field's first id (ParseError when blank)."""
    out: list[QuestionInstance] = []
    for line_no, fields in tsv_rows(lines, 4):
        objects = fields[2].split()
        if not objects:
            raise ParseError("no object id", line_no)
        gold = Fact(
            canonicalize_mid(fields[0]),
            canonicalize_relation(fields[1]),
            canonicalize_mid(objects[0]),
        )
        out.append(make_question(fields[3], gold))
    return out


def serialize_questions_tsv(questions: Iterable[QuestionInstance]) -> str:
    return "".join(
        f"{q.gold.subject}\t{q.gold.relation}\t{q.gold.object}\t{q.text}\n"
        for q in questions
    )


# ---------------------------------------------------------------------------
# Entity-span labelling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LabeledQuestion:
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def span_tokens(self) -> list[str]:
        return [t for t, tag in zip(self.tokens, self.tags) if tag == "e"]


def label_entity_span(
    q: QuestionInstance, entity_aliases: Sequence[str]
) -> LabeledQuestion:
    """Mark the question tokens best matching an alias as the entity span.

    Every 1..(n-1)-gram of the question is compared to every alias by
    character edit distance; the minimum-distance gram wins (ties prefer
    longer grams, then earlier positions, then earlier aliases).  If even
    the best pair shares no characters — distance at least the longer
    string's length — the question is rejected.

    A gram equal to an alias has distance 0, which no pair beats, so the
    longest, then earliest such gram is that minimum and is taken without
    computing any distance; the full gram-by-alias search runs only when
    no gram equals an alias.
    """
    tokens = q.tokens
    n = len(tokens)
    aliases = [a.strip().lower() for a in entity_aliases if a.strip()]
    if n < 2 or not aliases:
        raise LabelFailure(
            f"cannot label {q.text!r}: need at least 2 tokens and 1 alias"
        )
    alias_set = set(aliases)
    for length in range(n - 1, 0, -1):
        for start in range(0, n - length + 1):
            if " ".join(tokens[start:start + length]) in alias_set:
                return _span_labels(tokens, start, start + length)
    best: Optional[tuple[int, int, int, int]] = None  # (dist, -len, start, alias_i)
    best_span: Optional[tuple[int, int]] = None
    best_alias = ""
    for length in range(1, n):
        for start in range(0, n - length + 1):
            gram = " ".join(tokens[start:start + length])
            for alias_i, alias in enumerate(aliases):
                dist = levenshtein(gram, alias)
                key = (dist, -length, start, alias_i)
                if best is None or key < best:
                    best = key
                    best_span = (start, start + length)
                    best_alias = alias
    assert best is not None and best_span is not None
    gram_text = " ".join(tokens[best_span[0]:best_span[1]])
    if best[0] >= max(len(gram_text), len(best_alias)):
        raise LabelFailure(
            f"no plausible span for alias {best_alias!r} in {q.text!r}"
        )
    return _span_labels(tokens, *best_span)


def _span_labels(tokens: tuple[str, ...], start: int,
                 end: int) -> LabeledQuestion:
    """``tokens`` with ``start:end`` tagged "e" and the rest "c"."""
    tags = tuple("e" if start <= i < end else "c" for i in range(len(tokens)))
    return LabeledQuestion(tokens=tokens, tags=tags)


def label_questions(
    questions: Iterable[QuestionInstance], kb: KnowledgeBase
) -> tuple[list[LabeledQuestion], int]:
    """Label a batch against each gold subject's aliases; count the drops."""
    labeled: list[LabeledQuestion] = []
    dropped = 0
    for q in questions:
        rec = kb.entities.get(q.gold.subject)
        aliases = rec.aliases if rec is not None else []
        try:
            labeled.append(label_entity_span(q, aliases))
        except LabelFailure:
            dropped += 1
    if dropped:
        log.info("dropped %d questions with no labelable span", dropped)
    return labeled, dropped


# ---------------------------------------------------------------------------
# Relation domains and matcher pairs
# ---------------------------------------------------------------------------

def relation_domain(relation: str) -> str:
    """First path segment: "/music/album/genre" -> "music"."""
    return relation.lstrip("/").split("/", 1)[0]


def build_relation_domains(relations: Iterable[str]) -> dict[str, list[str]]:
    """Each domain's relations, sorted."""
    members: dict[str, list[str]] = {}
    for rel in sorted(set(relations)):
        members.setdefault(relation_domain(rel), []).append(rel)
    return members


MatcherPair = tuple[str, str, int]
# one question's matcher pairs: (question, positive, negatives)
PairGroup = tuple[str, str, list[str]]


def gen_relation_pairs(
    q: QuestionInstance, gold_relation: str, domains: dict[str, list[str]]
) -> PairGroup:
    """The gold relation against every other relation of its domain
    (``domains`` as from :func:`build_relation_domains`)."""
    members = domains.get(relation_domain(gold_relation), [gold_relation])
    return q.text, gold_relation, [r for r in members if r != gold_relation]


def type_inventory(kb: KnowledgeBase) -> list[str]:
    """Every notable type label in the KB, sorted."""
    return sorted(
        {
            rec.notable_type
            for rec in kb.entities.values()
            if rec.notable_type is not None
        }
    )


def gen_type_pairs(
    q: QuestionInstance,
    kb: KnowledgeBase,
    candidates: Sequence[CandidateEntity],
    inventory: Sequence[str],
) -> Optional[PairGroup]:
    """Question-type pairs: the gold subject's type against distractor types.

    Negatives are the notable types of the other retrieved candidates,
    padded from ``inventory`` (:func:`type_inventory` of ``kb``).  A
    question whose gold subject has no type yields None.
    """
    gold_rec = kb.entities.get(q.gold.subject)
    if gold_rec is None or gold_rec.notable_type is None:
        return None
    gold_type = gold_rec.notable_type
    negatives: list[str] = []
    for cand in candidates:
        rec = kb.entities.get(cand.id)
        if rec is None or rec.notable_type is None:
            continue
        if rec.notable_type != gold_type and rec.notable_type not in negatives:
            negatives.append(rec.notable_type)
    if len(negatives) < TYPE_NEGATIVES:
        for label in inventory:
            if len(negatives) >= TYPE_NEGATIVES:
                break
            if label != gold_type and label not in negatives:
                negatives.append(label)
    return q.text, gold_type, negatives[:TYPE_NEGATIVES]


# ---------------------------------------------------------------------------
# Relation dictionary and negative pools
# ---------------------------------------------------------------------------

def build_drr(
    relations: Iterable[str],
    truncate_above: int = DRR_TRUNCATE_ABOVE,
    keep: int = DRR_KEEP,
    keys: Optional[Iterable[str]] = None,
) -> dict[str, list[str]]:
    """Per relation, the other relations sorted by ascending edit distance.

    Above ``truncate_above`` relations each list is cut to the nearest
    ``keep`` neighbours; only a few dozen are ever consumed per question.
    ``keys`` limits the result to the rows of those relations (keys not
    among ``relations`` get none), so k rows cost a k x len(relations)
    grid; each row is the same as in the full dictionary.

    The distances come from one array pass of :func:`_distance_rows`
    over the relations stripped of the prefix and suffix all of them
    share (``/synth/`` on synthetic KBs), which leaves every distance
    unchanged.  Each key is a bit-vector pattern of 64-bit words; a key
    longer than 64 characters chains its words with carries.  Key rows
    go in blocks of at most :data:`DRR_BLOCK_CELLS` grid words (but at
    least one key), so memory stays bounded on a KB with thousands of
    relations.
    """
    rels = sorted(set(relations))
    stop = keep + 1 if len(rels) > truncate_above else None
    wanted = set(rels if keys is None else keys)
    rows = [i for i, rel in enumerate(rels) if rel in wanted]
    names = np.array(rels, dtype=object)
    out: dict[str, list[str]] = {}
    for block, dist in _distance_rows(_strip_shared_affixes(rels), rows):
        # stable, so ties stay in name order; the key is the only
        # relation at distance 0 and comes first
        ranked = np.argsort(dist, axis=1, kind="stable")[:, 1:stop]
        out.update(zip(names[block].tolist(), names[ranked].tolist()))
    return out


def _strip_shared_affixes(texts: list[str]) -> list[str]:
    """``texts`` without the prefix, then the suffix, that all of them
    share; neither changes the edit distance of any pair."""
    lo = len(os.path.commonprefix(texts))
    texts = [t[lo:] for t in texts]
    hi = len(os.path.commonprefix([t[::-1] for t in texts]))
    return [t[:len(t) - hi] for t in texts]


_WORD = 64
_ONES = np.uint64(2**_WORD - 1)


def _distance_rows(
    texts: Sequence[str], rows: Sequence[int]
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Edit distances from ``texts[r]``, for each r in ``rows``, to every
    text: yields ``(block, dist)`` with ``dist[b, j]`` equal to
    ``levenshtein(texts[block[b]], texts[j])``, block after block of rows.

    The word operations of :func:`levenshtein`, each run once over a
    whole [text x row] grid of uint64 words.  The row texts are the
    bit-vector patterns (``words`` words each, pattern row ``i`` in bit
    ``i % 64`` of word ``i // 64``); the loop steps over the characters
    of all texts at once, longest text first, so that the texts still
    running are a leading slice of the grid.  Word ``w + 1`` takes the
    horizontal delta out of word ``w``'s top row as its carry in; with
    one word, which covers every pattern of up to 64 characters, no
    carry is computed.  Pattern bits above a row's length are extra DP
    rows, which never feed lower ones, so they run unmasked, and each
    distance is read at the end: the text's length plus the vertical
    deltas of the pattern's own rows.
    """
    if not rows:
        return
    lens = np.array([len(t) for t in texts])
    steps = int(lens.max())
    words = -(-int(lens[rows].max()) // _WORD) or 1
    # one zero-padded row of UCS-4 code points per text
    codes = np.array(texts, dtype=f"U{max(steps, 1)}")
    alphabet = np.array(sorted({*map(ord, "".join(texts))}), np.uint32)
    chars = np.searchsorted(alphabet, codes.view(np.uint32)).reshape(
        len(texts), -1)
    order = np.argsort(-lens, kind="stable")
    text_lens = lens[order]
    # at step t, the texts longer than t: a leading slice of ``order``
    running = np.searchsorted(-text_lens, -np.arange(steps))
    step_chars = np.ascontiguousarray(chars[order].T)
    symbols = np.arange(len(alphabet))[:, None]
    per_block = max(1, DRR_BLOCK_CELLS // (len(texts) * words))
    for start in range(0, len(rows), per_block):
        block = list(rows[start:start + per_block])
        peq = np.zeros((words, len(alphabet), len(block)), np.uint64)
        for i in range(min(steps, words * _WORD)):
            bit = np.uint64(1 << i % _WORD)
            peq[i // _WORD] |= np.where(chars[block, i] == symbols, bit,
                                        np.uint64(0))
        pv = np.full((words, len(texts), len(block)), _ONES)
        mv = np.zeros_like(pv)
        for t in range(steps):
            k = running[t]
            step = step_chars[t, :k]
            # row 0 grows by one per column, so a +1 enters word 0
            carry_p, carry_m = 1, 0
            for w in range(words):
                p, m = pv[w, :k], mv[w, :k]
                eq = peq[w][step]
                xv = eq | m
                if w:
                    eq |= carry_m
                xh = eq & p
                xh += p
                xh ^= p
                xh |= eq
                ph = xh | p
                ph ^= _ONES
                ph |= m
                mh = p & xh
                if w + 1 < words:
                    next_p, next_m = ph >> (_WORD - 1), mh >> (_WORD - 1)
                ph <<= 1
                ph |= carry_p
                mh <<= 1
                if w:
                    mh |= carry_m
                np.bitwise_or(xv, ph, out=p)
                p ^= _ONES
                p |= mh
                np.bitwise_and(ph, xv, out=m)
                if w + 1 < words:
                    carry_p, carry_m = next_p, next_m
        masks = np.array(
            [[(1 << min(max(n - _WORD * w, 0), _WORD)) - 1
              for n in lens[block].tolist()] for w in range(words)],
            dtype=np.uint64,
        )[:, None, :]
        dist = np.empty((len(block), len(texts)), dtype=np.int64)
        dist[:, order] = (text_lens[:, None] + _popcount(pv & masks)
                          - _popcount(mv & masks)).T
        yield block, dist


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each cell of a [word, text, row] uint64 array, summed
    over its words."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1)
    return bits.reshape(*words.shape, _WORD).sum(axis=(0, 3), dtype=np.int64)


def gen_subject_negatives(
    q: QuestionInstance,
    candidates: Sequence[CandidateEntity],
    kb: KnowledgeBase,
    rng: np.random.Generator,
) -> list[str]:
    """Negative subjects: same-label candidates (and the gold) excluded.

    When fewer than SUBJECT_POOL_SIZE distinct negatives survive the
    filter the pool is padded by resampling the survivors, so the gold's
    label never leaks into its own negatives.
    """
    gold = q.gold.subject
    filtered: list[str] = []
    for cand in candidates:
        if cand.id == gold or cand.id in filtered:
            continue
        if aliases_of(kb, cand.id) & aliases_of(kb, gold):
            continue
        filtered.append(cand.id)
    if not filtered:
        return []
    if len(filtered) >= SUBJECT_POOL_SIZE:
        return filtered
    pool = list(filtered)
    while len(pool) < SUBJECT_POOL_SIZE:
        pool.append(filtered[int(rng.integers(len(filtered)))])
    return pool


def gen_predicate_negatives(
    q: QuestionInstance,
    kb: KnowledgeBase,
    d_rr: dict[str, list[str]],
) -> list[str]:
    """Negative predicates: the subject's other relations, then dictionary
    neighbours of the gold relation, up to PREDICATE_POOL_SIZE."""
    gold_rel = q.gold.relation
    pool = [r for r in relations_of(kb, q.gold.subject) if r != gold_rel]
    for rel in d_rr.get(gold_rel, ()):
        if len(pool) >= PREDICATE_POOL_SIZE:
            break
        if rel != gold_rel and rel not in pool:
            pool.append(rel)
    return pool[:PREDICATE_POOL_SIZE]


@dataclass(slots=True)
class NegativePools:
    subject_pools: list[list[str]] = field(default_factory=list)
    predicate_pools: list[list[str]] = field(default_factory=list)


def build_negative_pools(
    questions: Sequence[QuestionInstance],
    kb: KnowledgeBase,
    index: AliasIndex,
    seed: int,
) -> NegativePools:
    """All per-question pools; each question gets its own derived seed.

    The relation dictionary holds only the rows of the gold relations,
    the only ones :func:`gen_predicate_negatives` reads.
    """
    d_rr = build_drr(
        {f.relation for f in kb.facts},
        keys={q.gold.relation for q in questions},
    )
    pools = NegativePools()
    for i, q in enumerate(questions):
        rng = np.random.default_rng(seed ^ i)
        candidates = retrieve_question_candidates(index, q.tokens)
        pools.subject_pools.append(
            gen_subject_negatives(q, candidates, kb, rng)
        )
        pools.predicate_pools.append(
            gen_predicate_negatives(q, kb, d_rr)
        )
    return pools


# ---------------------------------------------------------------------------
# Emitted training-set files
# ---------------------------------------------------------------------------

LABELED_HEADER = "tokens\ttags"
PAIRS_HEADER = "question\ttext\ttag"


def _tsv_rows(path: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated fields) of each non-blank line of a
    file whose first line is ``header``; any other first line, or none,
    is a ParseError at line 1."""
    with io.open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.rstrip("\r\n") != header:
            raise ParseError(f"expected the header {header!r}", 1)
        for line_no, line in enumerate(fh, start=2):
            if line.strip():
                yield line_no, line.rstrip("\n").split("\t")


def write_labeled_questions(path: str, items: Iterable[LabeledQuestion]) -> None:
    with io.open(path, "w", encoding="utf-8") as fh:
        fh.write(LABELED_HEADER + "\n")
        for item in items:
            fh.write(f"{' '.join(item.tokens)}\t{' '.join(item.tags)}\n")


def read_labeled_questions(path: str) -> list[LabeledQuestion]:
    out: list[LabeledQuestion] = []
    for line_no, fields in _tsv_rows(path, LABELED_HEADER):
        if len(fields) != 2:
            raise ParseError("expected tokens<TAB>tags", line_no)
        tokens = tuple(fields[0].split())
        tags = tuple(fields[1].split())
        if len(tokens) != len(tags):
            raise ParseError("token/tag length mismatch", line_no)
        unknown = sorted(set(tags) - {"c", "e"})
        if unknown:
            raise ParseError(f"unknown tags {unknown}; expected c or e",
                             line_no)
        out.append(LabeledQuestion(tokens=tokens, tags=tags))
    return out


def write_matcher_pairs(path: str, groups: Iterable[PairGroup]) -> int:
    """Write each group's pairs and return how many there were.

    A group's positive is tagged 1 and written POSITIVE_COPIES times,
    then each negative is tagged 0.  The lines of one group are built as
    one string and written with one call, so a question costs one write,
    not one per pair, and the file is never held whole.
    """
    count = 0
    with io.open(path, "w", encoding="utf-8") as fh:
        fh.write(PAIRS_HEADER + "\n")
        for question, positive, negatives in groups:
            head = question + "\t"
            text = f"{head}{positive}\t1\n" * POSITIVE_COPIES
            if negatives:
                text += head + f"\t0\n{head}".join(negatives) + "\t0\n"
            fh.write(text)
            count += POSITIVE_COPIES + len(negatives)
    return count


def read_matcher_pairs(path: str) -> list[MatcherPair]:
    out: list[MatcherPair] = []
    for line_no, fields in _tsv_rows(path, PAIRS_HEADER):
        if len(fields) != 3 or fields[2] not in ("0", "1"):
            raise ParseError("expected question<TAB>text<TAB>0|1", line_no)
        out.append((fields[0], fields[1], int(fields[2])))
    return out
