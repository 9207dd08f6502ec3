"""Training-set construction for both answer-producing stacks.

Covers entity-span labelling by edit distance, relation pairs grouped by
relation domain, the edit-distance relation dictionary, and the per
question subject/predicate negative pools for the joint ranker.

Edit distance has one routine, :func:`_distance_rows`, which runs
Myers' bit-parallel algorithm in Hyyrö's form over a whole grid of pairs
at once: a question's grams against its subject's aliases in span
labelling, key relations against all relations in :func:`build_drr`.
Matcher pairs are made and written one question at a time, as
(question, positive, negatives) groups.
"""

from __future__ import annotations

import io
import logging
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    notable_type,
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
    gold object is the object field's first id.  A blank object field, or
    a question with no tokens, is a ParseError."""
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
        q = make_question(fields[3], gold)
        if not q.tokens:
            raise ParseError("no question text", line_no)
        out.append(q)
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
    longest, then earliest, such gram is that minimum and is taken
    without computing any distance.  A gram of k tokens holds k - 1
    single spaces, so only grams as long as some alias can equal one,
    and only those are tried.  Otherwise one :func:`_distance_rows` grid
    scores every gram (as a pattern, longest first, then earliest)
    against every alias (as a text), and its first minimum in row-major
    order is the least (distance, -length, start, alias) pair.
    """
    tokens = q.tokens
    n = len(tokens)
    aliases = [a.strip().lower() for a in entity_aliases if a.strip()]
    if n < 2 or not aliases:
        raise LabelFailure(
            f"cannot label {q.text!r}: need at least 2 tokens and 1 alias"
        )
    alias_set = set(aliases)
    # the whole question is never the span
    lengths = {a.count(" ") + 1 for a in aliases} - {n}
    for length in sorted(lengths, reverse=True):
        for start in range(n - length + 1):
            if " ".join(tokens[start:start + length]) in alias_set:
                return _span_labels(tokens, start, start + length)
    spans: list[tuple[int, int]] = []
    grams: list[str] = []
    for length in range(n - 1, 0, -1):
        for start in range(0, n - length + 1):
            spans.append((start, start + length))
            grams.append(" ".join(tokens[start:start + length]))
    dist = np.concatenate([d for _, d in _distance_rows(grams, aliases)])
    gram_i, alias_i = divmod(int(dist.argmin()), len(aliases))
    alias = aliases[alias_i]
    if dist[gram_i, alias_i] >= max(len(grams[gram_i]), len(alias)):
        raise LabelFailure(
            f"no plausible span for alias {alias!r} in {q.text!r}"
        )
    return _span_labels(tokens, *spans[gram_i])


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
        aliases = aliases_of(kb, q.gold.subject)
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
    labels = set(kb.labels)
    labels.discard(None)
    return sorted(labels)


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
    gold_type = notable_type(kb, q.gold.subject)
    if gold_type is None:
        return None
    negatives: list[str] = []
    for cand in candidates:
        label = notable_type(kb, cand.id)
        if label is not None and label != gold_type \
                and label not in negatives:
            negatives.append(label)
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
    keys: Optional[Iterable[str]] = None,
) -> dict[str, list[str]]:
    """Per relation, the other relations sorted by ascending edit distance.

    Above ``DRR_TRUNCATE_ABOVE`` relations each list is cut to its
    ``DRR_KEEP`` nearest; only a few dozen are ever consumed per question.
    ``keys`` limits the result to the rows of those relations (keys not
    among ``relations`` get none), so k rows cost a k x len(relations)
    grid; each row is the same as in the full dictionary.

    The distances come from one :func:`_distance_rows` grid of the key
    relations against all relations, stripped of the prefix and suffix
    they share (``/synth/`` on synthetic KBs), which changes no distance.
    """
    rels = sorted(set(relations))
    stop = DRR_KEEP + 1 if len(rels) > DRR_TRUNCATE_ABOVE else None
    wanted = set(rels if keys is None else keys)
    rows = [i for i, rel in enumerate(rels) if rel in wanted]
    names = np.array(rels, dtype=object)
    stripped = _strip_shared_affixes(rels)
    out: dict[str, list[str]] = {}
    for block, dist in _distance_rows([stripped[i] for i in rows], stripped):
        # stable, so ties stay in name order; the key is the only
        # relation at distance 0 and comes first
        ranked = np.argsort(dist, axis=1, kind="stable")[:, 1:stop]
        out.update(zip((rels[rows[b]] for b in block),
                       names[ranked].tolist()))
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


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute, cost 1)
    of one pair, as a one-cell :func:`_distance_rows` grid."""
    (_, dist), = _distance_rows([a], [b])
    return int(dist[0, 0])


def _distance_rows(
    patterns: Sequence[str], texts: Sequence[str]
) -> Iterator[tuple[range, np.ndarray]]:
    """Edit distances from every pattern to every text: yields
    ``(block, dist)``, block after block of pattern indices, with
    ``dist[b, j]`` the distance of ``patterns[block[b]]`` and ``texts[j]``.

    The one edit-distance routine: Myers' bit-parallel algorithm in
    Hyyrö's form, each word operation run once over a [text x pattern]
    grid of uint64 words.  :func:`build_drr` passes its key relations as
    patterns and every relation as texts; :func:`label_entity_span`
    passes a question's grams as patterns and its aliases, the shorter
    side, as texts.  Patterns are bit vectors (row ``i`` in bit
    ``i % 64`` of word ``i // 64``), and word ``w + 1`` takes the
    horizontal delta out of word ``w``'s top row as its carry in.  The
    loop steps over the characters of all texts at once, longest first,
    so the texts still running are a leading slice of the grid.  Pattern
    bits above a pattern's length are extra DP rows, which never feed
    lower ones, so they run unmasked until each distance is read: the
    text's length plus the vertical deltas of the pattern's own rows.
    Patterns go in blocks of at least one, whose words times the texts
    plus alphabet symbols are at most :data:`DRR_BLOCK_CELLS`, which
    bounds memory on a KB with thousands of relations.
    """
    if not patterns:
        return
    lens = np.array([len(t) for t in texts])
    pattern_lens = np.array([len(p) for p in patterns])
    steps = int(lens.max())
    words = -(-int(pattern_lens.max()) // _WORD) or 1
    alphabet = np.array(sorted({*map(ord, "".join(texts))}), np.uint32)
    # one zero-padded row of UCS-4 code points per string; text
    # characters become alphabet indices, pattern characters stay code
    # points, so one absent from every text matches nothing
    pattern_codes = np.array(patterns, dtype=f"U{words * _WORD}").view(
        np.uint32).reshape(len(patterns), -1)
    codes = np.array(texts, dtype=f"U{max(steps, 1)}")
    chars = np.searchsorted(alphabet, codes.view(np.uint32)).reshape(
        len(texts), -1)
    order = np.argsort(-lens, kind="stable")
    text_lens = lens[order]
    # at step t, the texts longer than t: a leading slice of ``order``
    running = np.searchsorted(-text_lens, -np.arange(steps)).tolist()
    step_chars = np.ascontiguousarray(chars[order].T)
    symbols = alphabet[:, None]
    # numpy scalars: a Python int operand costs a conversion per call
    one, top = np.uint64(1), np.uint64(_WORD - 1)
    per_block = max(
        1, DRR_BLOCK_CELLS // ((len(texts) + len(alphabet)) * words))
    for start in range(0, len(patterns), per_block):
        block = range(start, min(start + per_block, len(patterns)))
        # bit i of peq[w, s, b]: character 64 w + i of pattern b is s
        match = pattern_codes[block.start:block.stop, None, :] == symbols
        peq = np.ascontiguousarray(
            np.packbits(match, axis=-1, bitorder="little").view("<u8")
            .transpose(2, 1, 0), dtype=np.uint64)
        pv = np.full((words, len(texts), len(block)), _ONES)
        mv = np.zeros_like(pv)
        for t in range(steps):
            k = running[t]
            step = step_chars[t, :k]
            # row 0 grows by one per column, so a +1 enters word 0
            carry_p, carry_m = one, 0
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
                    next_p, next_m = ph >> top, mh >> top
                ph <<= one
                ph |= carry_p
                mh <<= one
                if w:
                    mh |= carry_m
                np.bitwise_or(xv, ph, out=p)
                p ^= _ONES
                p |= mh
                np.bitwise_and(ph, xv, out=m)
                if w + 1 < words:
                    carry_p, carry_m = next_p, next_m
        # bit i of masks[w, 0, b]: row 64 w + i is one of pattern b's own
        own = (np.arange(words * _WORD)
               < pattern_lens[block.start:block.stop, None])
        masks = np.packbits(own, axis=-1, bitorder="little").view(
            "<u8").T[:, None, :]
        dist = np.empty((len(block), len(texts)), dtype=np.int64)
        dist[:, order] = (text_lens[:, None] + _popcount(pv & masks)
                          - _popcount(mv & masks)).T
        yield block, dist


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each cell of a [word, text, pattern] uint64 array,
    summed over its words."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1)
    return bits.reshape(*words.shape, _WORD).sum(axis=(0, 3), dtype=np.int64)


def gen_subject_negatives(
    q: QuestionInstance,
    candidates: Sequence[CandidateEntity],
    kb: KnowledgeBase,
    make_rng: Callable[[], np.random.Generator],
) -> list[str]:
    """Negative subjects: same-label candidates (and the gold) excluded.

    When fewer than SUBJECT_POOL_SIZE distinct negatives survive the
    filter the pool is padded by resampling the survivors with the
    generator ``make_rng()`` makes, called only for padding, so the
    gold's label never leaks into its own negatives.
    """
    gold = q.gold.subject
    filtered: list[str] = []
    for cand in candidates:
        if cand.id == gold or cand.id in filtered:
            continue
        if not set(aliases_of(kb, cand.id)).isdisjoint(aliases_of(kb, gold)):
            continue
        filtered.append(cand.id)
    if not filtered:
        return []
    if len(filtered) >= SUBJECT_POOL_SIZE:
        return filtered
    pool, rng = list(filtered), make_rng()
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
    """All per-question pools; each question gets its own derived seed,
    whose generator is made only for a subject pool that needs padding.

    The relation dictionary holds only the rows of the gold relations,
    the only ones :func:`gen_predicate_negatives` reads.
    """
    d_rr = build_drr(
        kb.relations,
        keys={q.gold.relation for q in questions},
    )
    pools = NegativePools()
    for i, q in enumerate(questions):
        candidates = retrieve_question_candidates(index, q.tokens)
        pools.subject_pools.append(gen_subject_negatives(
            q, candidates, kb, partial(np.random.default_rng, seed ^ i)))
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
        for line_no, fields in tsv_rows(fh, 1):
            yield line_no + 1, fields


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
