"""Training-set construction for both answer-producing stacks.

Covers entity-span labelling by edit distance, relation pairs grouped by
relation domain, the edit-distance relation dictionary, and the per
question subject/predicate negative pools for the joint ranker.
"""

from __future__ import annotations

import io
import logging
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


def gen_relation_pairs(
    q: QuestionInstance, gold_relation: str, domains: dict[str, list[str]]
) -> list[MatcherPair]:
    """One pair per same-domain relation (``domains`` as from
    :func:`build_relation_domains`); the positive appears three times."""
    members = domains.get(relation_domain(gold_relation), [gold_relation])
    pairs: list[MatcherPair] = [(q.text, gold_relation, 1)] * POSITIVE_COPIES
    pairs.extend((q.text, rel, 0) for rel in members if rel != gold_relation)
    return pairs


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
) -> list[MatcherPair]:
    """Question-type pairs: the gold subject's type against distractor types.

    Negatives are the notable types of the other retrieved candidates,
    padded from ``inventory`` (:func:`type_inventory` of ``kb``); the
    positive is triplicated like the relation pairs.  Questions whose
    gold subject has no type yield no pairs.
    """
    gold_rec = kb.entities.get(q.gold.subject)
    if gold_rec is None or gold_rec.notable_type is None:
        return []
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
    pairs: list[MatcherPair] = [(q.text, gold_type, 1)] * POSITIVE_COPIES
    pairs.extend((q.text, label, 0) for label in negatives[:TYPE_NEGATIVES])
    return pairs


# ---------------------------------------------------------------------------
# Relation dictionary and negative pools
# ---------------------------------------------------------------------------

def _trimmed_levenshtein(a: str, b: str) -> int:
    """:func:`levenshtein` after stripping the common prefix and suffix,
    which leave the distance unchanged; relation paths of one domain share
    long ones."""
    n = min(len(a), len(b))
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    return levenshtein(a[lo:len(a) - hi], b[lo:len(b) - hi])


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
    among ``relations`` get none), so k rows cost about k * len(relations)
    distances; each row is the same as in the full dictionary.
    """
    rels = sorted(set(relations))
    limit = keep if len(rels) > truncate_above else None
    wanted = set(rels if keys is None else keys)
    rows = [i for i, rel in enumerate(rels) if rel in wanted]
    slot = {i: r for r, i in enumerate(rows)}
    dist = np.zeros((len(rows), len(rels)), dtype=np.int32)
    for r, i in enumerate(rows):
        a = rels[i]
        for j, b in enumerate(rels):
            # s is b's own row (len(rows) if it has none): s == r is the
            # key itself, and an earlier row s < r already holds the pair
            s = slot.get(j, len(rows))
            if s <= r:
                continue
            d = _trimmed_levenshtein(a, b)
            dist[r, j] = d
            if s < len(rows):
                dist[s, i] = d
    out: dict[str, list[str]] = {}
    for r, i in enumerate(rows):
        # stable, so ties stay in name order; the key is the only
        # relation at distance 0 and comes first
        ranked = np.argsort(dist[r], kind="stable")[1:]
        out[rels[i]] = [rels[j] for j in ranked[:limit]]
    return out


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


def write_matcher_pairs(path: str, pairs: Iterable[MatcherPair]) -> None:
    with io.open(path, "w", encoding="utf-8") as fh:
        fh.write(PAIRS_HEADER + "\n")
        for question, text, tag in pairs:
            fh.write(f"{question}\t{text}\t{tag}\n")


def read_matcher_pairs(path: str) -> list[MatcherPair]:
    out: list[MatcherPair] = []
    for line_no, fields in _tsv_rows(path, PAIRS_HEADER):
        if len(fields) != 3 or fields[2] not in ("0", "1"):
            raise ParseError("expected question<TAB>text<TAB>0|1", line_no)
        out.append((fields[0], fields[1], int(fields[2])))
    return out
