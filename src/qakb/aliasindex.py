"""N-gram inverted index over entity aliases and candidate retrieval.

Retrieval is exact-first: if the query span equals a full alias the exact
bucket wins outright.  Otherwise the span's pruned n-grams are unioned
against the gram index and every hit is weighted by

    score_i = n_i / (l_i * c_i)

where ``n_i`` is the word count of the longest gram that retrieved the
entity, ``l_i`` the word count of the matched alias and ``c_i`` the size
of the retrieved candidate set.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional

from qakb.kb import KnowledgeBase

_PUNCT = set(string.punctuation)
MAX_NGRAM = 3  # longest gram, in tokens, that indexing and retrieval use


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, peeling edge punctuation.

    Leading/trailing ASCII punctuation characters become tokens of their
    own ("faster?" -> ["faster", "?"]), but a chunk consisting entirely
    of punctuation stays whole (“.....” is one token).
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if all(c in _PUNCT for c in chunk):
            tokens.append(chunk)
            continue
        leading: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            leading.append(chunk[0])
            chunk = chunk[1:]
        trailing: list[str] = []
        while chunk and chunk[-1] in _PUNCT:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def _contains_contiguous(outer: tuple[str, ...], inner: tuple[str, ...]) -> bool:
    if len(inner) >= len(outer):
        return False
    return any(
        outer[i:i + len(inner)] == inner
        for i in range(len(outer) - len(inner) + 1)
    )


def extract_ngrams(tokens: list[str]) -> list[str]:
    """All contiguous 1..MAX_NGRAM grams, with contained grams pruned.

    A gram survives only if it is not a contiguous token run inside some
    longer gram of the same set.  Result is sorted longest-first, then
    lexicographically, for determinism.
    """
    grams: set[tuple[str, ...]] = set()
    for n in range(1, MAX_NGRAM + 1):
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i:i + n]))
    kept = [
        g for g in grams
        if not any(_contains_contiguous(other, g) for other in grams)
    ]
    kept.sort(key=lambda g: (-len(g), g))
    return [" ".join(g) for g in kept]


def all_ngrams(tokens: list[str]) -> list[str]:
    """All contiguous 1..MAX_NGRAM grams without pruning (deduplicated)."""
    seen: list[str] = []
    have: set[str] = set()
    for n in range(1, MAX_NGRAM + 1):
        for i in range(len(tokens) - n + 1):
            gram = " ".join(tokens[i:i + n])
            if gram not in have:
                have.add(gram)
                seen.append(gram)
    return seen


@dataclass(frozen=True, slots=True)
class CandidateEntity:
    """A retrieved entity with its weighting components."""

    id: str
    matched_alias: str
    n_i: int
    l_i: int
    c_i: int
    score: float


@dataclass(slots=True)
class AliasIndex:
    exact: dict[str, list[str]]
    gram_to_entities: dict[str, list[str]]
    # alias token-joined form per entity, needed to recover matched_alias
    entity_aliases: dict[str, list[str]]


def _norm_alias(alias: str) -> str:
    return " ".join(tokenize(alias))


def build_index(kb: KnowledgeBase) -> AliasIndex:
    """Index every alias under its full string and all of its n-grams.

    The alias side is deliberately unpruned: pruning belongs to the query
    side only, otherwise a two-word query gram could never reach a
    three-word alias.
    """
    exact: dict[str, list[str]] = {}
    gram_to_entities: dict[str, list[str]] = {}
    entity_aliases: dict[str, list[str]] = {}
    for mid in sorted(kb.entities):
        rec = kb.entities[mid]
        if not rec.aliases:
            continue
        normed: list[str] = []
        for alias in rec.aliases:
            norm = _norm_alias(alias)
            if not norm or norm in normed:
                continue
            normed.append(norm)
            # mids arrive sorted and each finishes before the next, so a
            # mid already in a bucket is its last entry
            bucket = exact.setdefault(norm, [])
            if not bucket or bucket[-1] != mid:
                bucket.append(mid)
            for gram in all_ngrams(norm.split()):
                gbucket = gram_to_entities.setdefault(gram, [])
                if not gbucket or gbucket[-1] != mid:
                    gbucket.append(mid)
        if normed:
            entity_aliases[mid] = normed
    return AliasIndex(exact, gram_to_entities, entity_aliases)


def _matched_alias_for(index: AliasIndex, entity: str, gram: str) -> str:
    """The shortest alias of ``entity`` containing ``gram`` as a token run."""
    target = tuple(gram.split())
    best: Optional[str] = None
    for alias in index.entity_aliases.get(entity, ()):
        toks = tuple(alias.split())
        if target != toks and not _contains_contiguous(toks, target):
            continue
        if best is None or (len(toks), alias) < (len(best.split()), best):
            best = alias
    return best if best is not None else gram


def _score_gram_hits(
    index: AliasIndex, hits: dict[str, str]
) -> list[CandidateEntity]:
    """Weight each (entity -> longest matching gram) hit and sort."""
    c_i = len(hits)
    out: list[CandidateEntity] = []
    for entity, gram in hits.items():
        alias = _matched_alias_for(index, entity, gram)
        n_i = len(gram.split())
        l_i = len(alias.split())
        out.append(
            CandidateEntity(entity, alias, n_i, l_i, c_i, n_i / (l_i * c_i))
        )
    out.sort(key=lambda c: (-c.score, c.id))
    return out


def _best_gram(current: Optional[str], gram: str) -> str:
    """Longer gram wins; equal lengths break lexicographically."""
    if current is None:
        return gram
    return min(current, gram, key=lambda g: (-len(g.split()), g))


def retrieve_candidates(index: AliasIndex, span_text: str) -> list[CandidateEntity]:
    """Candidates for a detected entity span, exact matches first.

    Exact hits short-circuit the n-gram fallback entirely; the fallback
    unions all entities reached by the span's pruned grams.
    """
    tokens = tokenize(span_text)
    if not tokens:
        return []
    norm = " ".join(tokens)
    exact_bucket = index.exact.get(norm, [])
    if exact_bucket:
        n = len(tokens)
        c = len(exact_bucket)
        cands = [
            CandidateEntity(mid, norm, n, n, c, n / (n * c))
            for mid in exact_bucket
        ]
        cands.sort(key=lambda cand: (-cand.score, cand.id))
        return cands
    hits: dict[str, str] = {}
    for gram in extract_ngrams(tokens):
        for entity in index.gram_to_entities.get(gram, ()):
            hits[entity] = _best_gram(hits.get(entity), gram)
    return _score_gram_hits(index, hits)


def retrieve_question_candidates(
    index: AliasIndex, question_text: str
) -> list[CandidateEntity]:
    """Candidates drawn from every n-gram of a whole question.

    Used when no entity span is available: all (unpruned) question grams
    are tried against the index, so any alias occurring anywhere in the
    question surfaces its entities.  Weighting is as in span fallback.
    """
    tokens = tokenize(question_text)
    hits: dict[str, str] = {}
    for gram in all_ngrams(tokens):
        for entity in index.gram_to_entities.get(gram, ()):
            hits[entity] = _best_gram(hits.get(entity), gram)
    return _score_gram_hits(index, hits)
