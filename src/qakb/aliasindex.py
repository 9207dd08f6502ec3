"""N-gram inverted index over entity aliases and candidate retrieval.

Retrieval is exact-first: if the query span equals a full alias the exact
bucket wins outright.  Otherwise the span's pruned n-grams are unioned
against the gram index and every hit is weighted by

    score_i = n_i / (l_i * c_i)

where ``n_i`` is the word count of the longest gram that retrieved the
entity, ``l_i`` the word count of the matched alias and ``c_i`` the size
of the retrieved candidate set.

The index holds each alias once, as its norm (its tokens joined by
single spaces).  A lookup of gram ``g`` reads ``exact[g]``, the entities
with that norm, and ``partial[g]``, those holding ``g`` as a shorter run
of a multi-token norm; a one-token norm has no shorter run.  Only an
entity with a multi-token norm keeps its norms in ``entity_aliases``: any
other is reached only through a gram equal to one of its norms, which is
then the matched alias.  Question retrieval tries no gram longer than
``longest``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from qakb.kb import KnowledgeBase

_PUNCT = string.punctuation
MAX_NGRAM = 3  # longest gram, in tokens, that indexing and retrieval use


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, peeling edge punctuation.

    Leading/trailing ASCII punctuation characters become tokens of their
    own ("faster?" -> ["faster", "?"]), but a chunk consisting entirely
    of punctuation stays whole (“.....” is one token).
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        core = chunk.strip(_PUNCT)
        if core == chunk or not core:
            tokens.append(chunk)
            continue
        lead = len(chunk) - len(chunk.lstrip(_PUNCT))
        tokens.extend(chunk[:lead])
        tokens.append(core)
        tokens.extend(chunk[lead + len(core):])
    return tokens


def relation_tokens(relation: str) -> list[str]:
    """A relation path's tokens: its non-empty ``/`` segments."""
    return [seg for seg in relation.split("/") if seg]


def find_run(tokens: Sequence[str], run: Sequence[str]) -> Optional[int]:
    """The start of ``run``'s first occurrence as consecutive items of
    ``tokens``, or None when it does not occur."""
    run = tuple(run)
    for start in range(len(tokens) - len(run) + 1):
        if tuple(tokens[start:start + len(run)]) == run:
            return start
    return None


def extract_ngrams(tokens: list[str]) -> list[str]:
    """All contiguous 1..MAX_NGRAM grams, with contained grams pruned.

    What survives is exactly the distinct ``min(len(tokens), MAX_NGRAM)``
    grams: every shorter gram lies inside one of them, and none lies
    inside another of the same length.  Result is sorted by token tuple,
    for determinism.
    """
    n = min(len(tokens), MAX_NGRAM)
    if not n:
        return []
    grams = {tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)}
    return [" ".join(g) for g in sorted(grams)]


def all_ngrams(tokens: Sequence[str], longest: int = MAX_NGRAM) -> list[str]:
    """All contiguous 1..``longest`` grams without pruning, deduplicated,
    shorter grams first."""
    grams = dict.fromkeys(tokens)
    for n in range(2, longest + 1):
        grams.update(dict.fromkeys(" ".join(tokens[i:i + n])
                                   for i in range(len(tokens) - n + 1)))
    return list(grams)


class CandidateEntity(NamedTuple):
    """A retrieved entity with its weighting components."""

    id: str
    matched_alias: str
    n_i: int
    l_i: int
    c_i: int
    score: float


@dataclass(slots=True)
class AliasIndex:
    # every norm -> its entities' ids, sorted
    exact: dict[str, list[str]]
    # every 1..MAX_NGRAM-token run inside a multi-token norm, less that
    # norm itself -> the entities holding it, in KB order
    partial: dict[str, list[str]]
    # the norms of each entity that has a multi-token one
    entity_aliases: dict[str, list[str]]
    # the most tokens in any norm, capped at MAX_NGRAM; 0 without norms
    longest: int


def build_index(kb: KnowledgeBase) -> AliasIndex:
    """Index every alias under its full string and all of its n-grams.

    The alias side is deliberately unpruned: pruning belongs to the query
    side only, otherwise a two-word query gram could never reach a
    three-word alias.  Only the aliased entities are walked
    (``kb.aliased``), once, in the KB's order, and only the exact buckets
    of two or more entities are sorted.
    """
    exact: dict[str, list[str]] = {}
    partial: dict[str, list[str]] = {}
    entity_aliases: dict[str, list[str]] = {}
    shared: list[list[str]] = []  # exact buckets of two or more mids
    multi: list[tuple[str, str, list[str]]] = []  # (mid, norm, tokens)
    ids, all_aliases = kb.ids, kb.aliases
    # a memoryview's items are Python ints, not numpy scalars
    for p in memoryview(kb.aliased):
        aliases = all_aliases[p]
        mid = ids[p]
        # lowercase ASCII letters and digits make one token that tokenize
        # would return unchanged, so it is not called; an entity with one
        # such alias has no other norm to repeat it
        if len(aliases) == 1:
            alias = aliases[0]
            if alias.isascii() and alias.isalnum() and alias.islower():
                bucket = exact.setdefault(alias, [])
                if bucket:
                    shared.append(bucket)
                bucket.append(mid)
                continue
        normed: list[str] = []
        for alias in aliases:
            if alias.isascii() and alias.isalnum() and alias.islower():
                norm = alias
            else:
                tokens = tokenize(alias)
                norm = " ".join(tokens)
                if len(tokens) > 1:
                    multi.append((mid, norm, tokens))
                    # normed fills in as this loop goes on
                    entity_aliases[mid] = normed
            if not norm or norm in normed:
                continue
            normed.append(norm)
            bucket = exact.setdefault(norm, [])
            bucket.append(mid)
            if len(bucket) > 1:
                shared.append(bucket)
    for bucket in shared:
        bucket.sort()
    # a mid's grams arrive together, so a mid already in a bucket is its
    # last entry
    for mid, norm, tokens in multi:
        for gram in all_ngrams(tokens):
            if gram != norm:
                bucket = partial.setdefault(gram, [])
                if not bucket or bucket[-1] != mid:
                    bucket.append(mid)
    longest = max((len(tokens) for _, _, tokens in multi), default=1)
    return AliasIndex(exact, partial, entity_aliases,
                      min(longest, MAX_NGRAM) if exact else 0)


def _matched_alias_for(index: AliasIndex, entity: str, gram: str) -> str:
    """The shortest alias of ``entity`` containing ``gram`` as a token run
    (``gram`` itself for an entity outside ``entity_aliases``)."""
    target = tuple(gram.split())
    best: Optional[str] = None
    for alias in index.entity_aliases.get(entity, ()):
        toks = tuple(alias.split())
        if find_run(toks, target) is None:
            continue
        if best is None or (len(toks), alias) < (len(best.split()), best):
            best = alias
    return best if best is not None else gram


def _gram_candidates(index: AliasIndex,
                     grams: Sequence[str]) -> list[CandidateEntity]:
    """Every entity that some gram looks up, weighted by its longest
    matching gram, sorted."""
    hits: dict[str, str] = {}
    for table in (index.exact, index.partial):
        for gram in grams:
            for entity in table.get(gram, ()):
                hits[entity] = _best_gram(hits.get(entity), gram)
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


def retrieve_candidates(index: AliasIndex, span: Sequence[str]
                        ) -> list[CandidateEntity]:
    """Candidates for a detected entity span, given as its tokens, exact
    matches first.  A ``str`` is a TypeError, not a run of characters.

    Exact hits short-circuit the n-gram fallback entirely; the fallback
    unions all entities reached by the span's pruned grams.
    """
    if isinstance(span, str):
        raise TypeError("retrieve_candidates takes a span's tokens, not text")
    tokens = list(span)
    if not tokens:
        return []
    norm = " ".join(tokens)
    exact_bucket = index.exact.get(norm, [])
    if exact_bucket:
        # one score for all, and the bucket is sorted by id
        n = len(tokens)
        c = len(exact_bucket)
        return [CandidateEntity(mid, norm, n, n, c, n / (n * c))
                for mid in exact_bucket]
    return _gram_candidates(index, extract_ngrams(tokens))


def retrieve_question_candidates(
    index: AliasIndex, question: Union[str, Sequence[str]]
) -> list[CandidateEntity]:
    """Candidates drawn from every n-gram of a whole question, given as
    text or as its tokens; ``perfbench/run.py`` passes the text (see
    ROADMAP item 16).

    Used when no entity span is available: all (unpruned) question grams
    are tried against the index, so any alias occurring anywhere in the
    question surfaces its entities.  Weighting is as in span fallback.
    """
    tokens = tokenize(question) if isinstance(question, str) else question
    return _gram_candidates(index, all_ngrams(tokens, index.longest))
