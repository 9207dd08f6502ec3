"""Triple-store knowledge base: parsing, construction and lookups.

The knowledge base is built once from three inputs (a facts file, an alias
file and a notable-type file) and is read-only afterwards.  All
entity ids are canonicalized to the dotted lowercase form ``m.xxxxx`` and
all relations to slash-separated lowercase paths ``/a/b/c`` on the way in,
so the rest of the package never sees raw dump spellings.

In memory a knowledge base is the columns its snapshot holds (see
:class:`KnowledgeBase`): building or loading one makes those columns and
no per-fact or per-entity object, and loading makes them in bulk passes,
with no Python loop over every entity or every fact.  The accessors
(:func:`relations_of`, :func:`facts_of` and the rest) read only the one
entity they are asked about, its facts through :func:`facts_of`; the
first fact read sorts the fact columns by subject, as int arrays.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import is_not, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from qakb import container
from qakb.errors import MalformedId, ParseError

log = logging.getLogger(__name__)

# The predicate (canonical form) that assigns notable types in N-Triples.
_TYPE_ASSIGN_RELATION = "/common/topic/notable_types"

# An id spelled only with these characters has no prefix, slash, capital or
# space, so canonicalize_mid returns it unchanged.
_CANONICAL_MID = re.compile(r"[0-9a-z_.]+")


# ---------------------------------------------------------------------------
# Identifier canonicalization
# ---------------------------------------------------------------------------

# ``http(s)://host/``, ``www.freebase.com/`` and ``ns/``, each optional, in
# any ASCII case (``str.lower`` folds no other letter onto these).
_ID_PREFIX = re.compile(
    r"(?:https?://[^/]*(?:/|\Z))?(?:www\.freebase\.com/)?(?:ns/)?",
    re.IGNORECASE | re.ASCII)


def _strip_id_prefix(raw: str) -> str:
    """Remove ``<...>``, the :data:`_ID_PREFIX` and outer slashes, leaving
    the bare dump-local id."""
    s = raw.strip()
    if s.startswith("<") and s.endswith(">") and len(s) >= 2:
        s = s[1:-1]
    return s[_ID_PREFIX.match(s).end():].strip("/")


def canonicalize_mid(raw: str) -> str:
    """Normalize an entity id to the dotted lowercase form, e.g. ``m.02mjmr``.

    Accepts the spellings found in the common dump formats: bare ids
    ("m.02mjmr"), slash ids ("m/02mjmr"), site-prefixed ids
    ("www.freebase.com/m/02mjmr") and full IRIs
    ("http://rdf.freebase.com/ns/m.02mjmr").  Idempotent on its own output.
    """
    if _CANONICAL_MID.fullmatch(raw):
        return raw
    out = _strip_id_prefix(raw).replace("/", ".").lower()
    if not out or any(c.isspace() for c in out):
        raise MalformedId(f"cannot canonicalize entity id {raw!r}")
    return out


def canonicalize_relation(raw: str) -> str:
    """Normalize a relation to a slash path, e.g. ``/people/person/place_of_birth``.

    Handles the slash form used by TSV dumps ("www.freebase.com/people/...")
    and the dotted form used inside IRIs ("people.person.place_of_birth").
    Idempotent on its own output.
    """
    s = _strip_id_prefix(raw).replace(".", "/").lower()
    s = s.strip("/")
    if not s or any(c.isspace() for c in s):
        raise MalformedId(f"cannot canonicalize relation {raw!r}")
    return "/" + s


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class Fact(NamedTuple):
    """One (subject, relation, object) triple."""

    subject: str
    relation: str
    object: str


class EntityRecord(NamedTuple):
    """Everything the engine knows about one entity, beyond its facts;
    the entity's id is its key in :attr:`KnowledgeBase.entities`."""

    aliases: tuple[str, ...] = ()
    notable_type: Optional[str] = None


# The record of every entity with no alias and no type, shared: records
# are immutable, so one object stands for all of them.
_NO_RECORD = EntityRecord()


def _records(cls: type, *columns: Iterable) -> Iterator:
    """``cls`` named tuples made field by field from ``columns``:
    ``tuple.__new__`` builds each from its field tuple in C, as the named
    tuple's own constructor does after a Python-level call."""
    return map(tuple.__new__, repeat(cls), zip(*columns))


class KnowledgeBase:
    """A knowledge base held as the columns of its snapshot.

    ``ids`` are the entity ids by position and ``position`` maps each id
    back; ``aliases`` and ``labels`` hold each position's aliases (``()``
    for none) and notable type label (None for none), and ``aliased`` is
    the int32 column of the positions with aliases, ascending, so a walk
    over the aliased entities skips the rest in bulk.  ``subjects``,
    ``predicates`` and ``objects`` are int32 fact columns: an entity
    position, an index into ``relations`` (the distinct relations, in
    order of first use) and an entity position.  Read an entity through
    the accessors below, which read only that entity's rows.

    ``rows``, ``facts``, ``entities`` and ``by_subject`` are built on
    first read: the by-subject index (see :attr:`rows`); the facts in
    order; each entity's :class:`EntityRecord` in position order (the
    shared ``_NO_RECORD`` for an entity with no alias and no type); and
    each subject's fact indices in fact order, subjects in order of first
    fact.  The last three are whole-KB views for tests and the benchmark.
    """

    __slots__ = ("ids", "position", "aliases", "aliased", "labels",
                 "relations", "subjects", "predicates", "objects", "_rows",
                 "_facts", "_entities", "_by_subject")

    def __init__(self, ids: list[str], position: dict[str, int],
                 aliases: list[tuple[str, ...]], aliased: np.ndarray,
                 labels: list[Optional[str]], relations: list[str],
                 subjects: np.ndarray, predicates: np.ndarray,
                 objects: np.ndarray):
        self.ids, self.position = ids, position
        self.aliases, self.aliased, self.labels = aliases, aliased, labels
        self.relations = relations
        self.subjects, self.predicates, self.objects = \
            subjects, predicates, objects
        self._rows = self._facts = self._entities = self._by_subject = None

    @property
    def rows(self) -> tuple[memoryview, memoryview, memoryview]:
        """``(starts, predicates, objects)``: the facts grouped by subject
        by one stable argsort of the subject column, so in fact order
        within each, as each one's index into ``relations`` and object
        position.  The facts of position p are the rows ``starts[p]`` to
        ``starts[p + 1]``.  Each is a memoryview of an int array, whose
        items read as Python ints, so an accessor converts only its own
        entity's rows.  :func:`facts_of` and :func:`out_degree` read
        ``kb._rows or kb.rows``, which skips this call once the index is
        built."""
        if self._rows is None:
            order = np.argsort(self.subjects, kind="stable")
            starts = np.zeros(len(self.ids) + 1, np.intp)
            np.cumsum(np.bincount(self.subjects, minlength=len(self.ids)),
                      out=starts[1:])
            self._rows = (memoryview(starts),
                          memoryview(self.predicates[order]),
                          memoryview(self.objects[order]))
        return self._rows

    @property
    def facts(self) -> list[Fact]:
        if self._facts is None:
            ids, relations = self.ids, self.relations
            self._facts = list(_records(
                Fact, map(ids.__getitem__, self.subjects.tolist()),
                map(relations.__getitem__, self.predicates.tolist()),
                map(ids.__getitem__, self.objects.tolist())))
        return self._facts

    @property
    def entities(self) -> dict[str, EntityRecord]:
        if self._entities is None:
            self._entities = dict(zip(self.ids, (
                EntityRecord(names, label)
                if names or label is not None else _NO_RECORD
                for names, label in zip(self.aliases, self.labels))))
        return self._entities

    @property
    def by_subject(self) -> dict[str, list[int]]:
        if self._by_subject is None:
            rows: dict[str, list[int]] = {}
            for idx, subject in enumerate(self.subjects.tolist()):
                rows.setdefault(self.ids[subject], []).append(idx)
            self._by_subject = rows
        return self._by_subject


# ---------------------------------------------------------------------------
# TSV facts format
# ---------------------------------------------------------------------------

def tsv_rows(lines: Iterable[str],
             n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """The 1-based line number and tab-separated fields of each non-blank
    line; ParseError for a line with fewer than ``n_fields``."""
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < n_fields:
            raise ParseError(f"expected {n_fields} tab-separated fields, "
                             f"got {len(fields)}", line_no)
        yield line_no, fields


def parse_triples_tsv(stream: Iterable[str]) -> list[Fact]:
    """Parse ``subject<TAB>relation<TAB>objects`` lines into facts.

    The object field holds one or more space-separated ids (ParseError
    when it is blank); a line expands into one fact per object.  Blank
    lines are skipped and input order is preserved.
    """
    facts: list[Fact] = []
    for line_no, fields in tsv_rows(stream, 3):
        subject = canonicalize_mid(fields[0])
        relation = canonicalize_relation(fields[1])
        objects = fields[2].split()
        if not objects:
            raise ParseError("no object id", line_no)
        for obj in objects:
            facts.append(Fact(subject, relation, canonicalize_mid(obj)))
    return facts


# ---------------------------------------------------------------------------
# Simplified N-Triples format
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NTObject:
    """Object position of an N-Triples statement: an IRI or a literal."""

    value: str
    is_literal: bool = False
    lang: Optional[str] = None


_IRI = r"<([^>]*)>"
# a literal's text, then an optional tag of letters, digits and "-"
_LITERAL = r'"((?:[^"\\]|\\["\\nt])*)"(?:@((?:[^\W_]|-)*))?'
_LITERAL_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# A statement's parts in order, each matched after any spaces or tabs.
_NT_PARTS = tuple(
    (part, re.compile(r"[ \t]*(?:" + body + ")")) for part, body in (
        ("an IRI subject", _IRI),
        ("an IRI predicate", _IRI),
        ("an IRI or a literal object", _IRI + "|" + _LITERAL),
        ("a terminal '.'", r"\.\s*\Z"),
    ))
_ESCAPE = re.compile(r"\\(.)")


def parse_ntriples_line(
    line: str, line_no: int = 1
) -> Optional[tuple[str, str, NTObject]]:
    """Parse one statement of the simplified N-Triples grammar.

    Grammar: ``<IRI> <IRI> (<IRI> | "literal"(@lang)?) .`` with ``\\"``,
    ``\\\\``, ``\\n`` and ``\\t`` escapes inside literals; spaces and tabs
    may precede each part and any whitespace may follow the ``.``.  The
    first part that does not match is a ParseError ``expected <part> at
    column C``.  Comment lines (starting with ``#``) and blank lines yield
    ``None``.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    groups, pos = [], 0
    for part, pattern in _NT_PARTS:
        match = pattern.match(line, pos)
        if match is None:
            raise ParseError(f"expected {part} at column {pos + 1}", line_no)
        groups += match.groups()
        pos = match.end()
    subject, predicate, iri, text, lang = groups
    if text is None:
        return subject, predicate, NTObject(iri)
    text = _ESCAPE.sub(lambda m: _LITERAL_ESCAPES[m[1]], text)
    return subject, predicate, NTObject(text, is_literal=True, lang=lang)


def parse_ntriples(stream: Iterable[str]) -> Iterator[tuple[str, str, NTObject]]:
    """Parse a whole stream, skipping comments/blanks, with line numbers."""
    for line_no, line in enumerate(stream, start=1):
        triple = parse_ntriples_line(line.rstrip("\n").rstrip("\r"), line_no)
        if triple is not None:
            yield triple


# ---------------------------------------------------------------------------
# Notable-type ingestion
# ---------------------------------------------------------------------------

def parse_type_lines(lines: Iterable[str]) -> list[tuple[str, str]]:
    """(id, label) pairs from a notable-type file in either supported format.

    TSV lines are ``mid<TAB>label``, parsed as alias lines are.  N-Triples
    input (auto-detected by a ``<`` opening the first line that is neither
    blank nor a ``#`` comment) holds type assignments (IRI objects) and
    type names (literal objects); each assignment is joined with its type
    id's name, in file order, and one whose type id has no name is dropped
    with a warning.  A name's whitespace runs (an escaped tab or newline
    included) fold to single spaces.  A blank label or name is dropped, so
    its entity stays untyped.
    """
    buffered = list(lines)
    first = next((s for s in map(str.strip, buffered)
                  if s and not s.startswith("#")), "")
    if not first.startswith("<"):
        return parse_alias_lines(buffered)
    names: dict[str, str] = {}
    assignments: list[tuple[str, str]] = []
    for subject, predicate, obj in parse_ntriples(buffered):
        if obj.is_literal:
            name = " ".join(obj.value.split()).lower()
            if name and obj.lang in (None, "en"):
                names[canonicalize_mid(subject)] = name
        else:
            relation = canonicalize_relation(predicate)
            if relation != _TYPE_ASSIGN_RELATION:
                log.debug("ignoring non-type predicate %s", relation)
                continue
            assignments.append((canonicalize_mid(subject),
                                canonicalize_mid(obj.value)))
    pairs = [(entity, names[type_id]) for entity, type_id in assignments
             if type_id in names]
    if len(pairs) < len(assignments):
        log.warning("dropped %d type assignments with unnamed type ids",
                    len(assignments) - len(pairs))
    return pairs


def parse_alias_lines(lines: Iterable[str]) -> list[tuple[str, str]]:
    """Parse ``mid<TAB>alias`` lines into (id, lowercased alias) pairs."""
    pairs: list[tuple[str, str]] = []
    for _, fields in tsv_rows(lines, 2):
        alias = fields[1].strip().lower()
        if alias:
            pairs.append((canonicalize_mid(fields[0]), alias))
    return pairs


# ---------------------------------------------------------------------------
# Construction and queries
# ---------------------------------------------------------------------------

_SUBJECT_AND_OBJECT = itemgetter(0, 2)
_INT32 = np.dtype("<i4")


def build_kb(
    facts: Iterable[Fact],
    alias_pairs: Iterable[tuple[str, str]] = (),
    type_pairs: Iterable[tuple[str, str]] = (),
) -> KnowledgeBase:
    """Assemble the immutable knowledge base from parsed records.  Entity
    ids are ordered as first seen: per fact the subject, then the object;
    then the alias and type pairs' canonicalized ids.  Aliases are
    stripped and lowercased, blank or repeated ones dropped; duplicate
    type pairs resolve last-write-wins, with a warning when they differ."""
    fact_list = list(facts)
    entity_ids = dict.fromkeys(
        chain.from_iterable(map(_SUBJECT_AND_OBJECT, fact_list)))
    aliases: dict[str, list[str]] = {}
    for mid, alias in alias_pairs:
        mid = canonicalize_mid(mid)
        entity_ids.setdefault(mid)
        alias = alias.strip().lower()
        if alias:
            names = aliases.setdefault(mid, [])
            if alias not in names:
                names.append(alias)
    types: dict[str, str] = {}
    for mid, label in type_pairs:
        mid = canonicalize_mid(mid)
        entity_ids.setdefault(mid)
        old = types.get(mid)
        if old is not None and old != label:
            log.warning("entity %s has conflicting notable types %r / %r; "
                        "keeping the latter", mid, old, label)
        types[mid] = label
    ids = list(entity_ids)
    position = dict(zip(ids, count()))
    subjects, names, objects = (zip(*fact_list) if fact_list
                                else ((), (), ()))
    relations, predicates = _relation_column(names)
    aliased = _column(map(position.__getitem__, aliases))
    return KnowledgeBase(
        ids, position,
        _spread(len(ids), aliased, map(tuple, aliases.values()), ()),
        _ascending(aliased),
        _spread(len(ids), _column(map(position.__getitem__, types)),
                types.values(), None),
        relations, _column(map(position.__getitem__, subjects)), predicates,
        _column(map(position.__getitem__, objects)))


def _column(ints: Iterable[int]) -> np.ndarray:
    """``ints`` as an int32 column."""
    return np.fromiter(ints, _INT32)


def _relation_column(names: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct relations of ``names`` in order of first use, and the
    column of each name's index among them."""
    relations = list(dict.fromkeys(names))
    return relations, _column(map(dict(zip(relations, count())).__getitem__,
                                  names))


def _ascending(column: np.ndarray) -> np.ndarray:
    """``column`` sorted ascending.  It takes the stable argsort that
    :attr:`KnowledgeBase.rows` runs, not ``np.sort``, whose numpy code
    is otherwise never run and adds about 256 KB to a command's RSS."""
    return column[np.argsort(column, kind="stable")]


def _spread(n: int, at: np.ndarray, values: Iterable, blank) -> list:
    """A list of ``n`` items: ``values`` at the positions ``at``, in step,
    and ``blank`` everywhere else."""
    items = np.empty(n, object)
    items.fill(blank)
    items[at] = np.fromiter(values, object, len(at))
    return items.tolist()


def facts_of(kb: KnowledgeBase, entity: str) -> list[Fact]:
    """The facts whose subject is ``entity``, in fact order."""
    facts: list[Fact] = []
    p = kb.position.get(entity)
    if p is None:
        return facts
    starts, predicates, objects = kb._rows or kb.rows
    relations, ids = kb.relations, kb.ids
    for i in range(starts[p], starts[p + 1]):
        # tuple.__new__ builds the Fact in C, as in _records
        facts.append(tuple.__new__(
            Fact, (entity, relations[predicates[i]], ids[objects[i]])))
    return facts


def relations_of(kb: KnowledgeBase, entity: str) -> list[str]:
    """Distinct outgoing relations of an entity, sorted lexicographically."""
    return sorted({f.relation for f in facts_of(kb, entity)})


def lookup_objects(kb: KnowledgeBase, entity: str, relation: str) -> list[str]:
    """Objects of all (entity, relation, ·) facts, deduplicated, in fact order."""
    return list(dict.fromkeys(f.object for f in facts_of(kb, entity)
                              if f.relation == relation))


def out_degree(kb: KnowledgeBase, entity: str) -> int:
    """Number of stored facts whose subject is ``entity`` (0 if unknown)."""
    p = kb.position.get(entity)
    if p is None:
        return 0
    starts = (kb._rows or kb.rows)[0]
    return starts[p + 1] - starts[p]


def aliases_of(kb: KnowledgeBase, entity: str) -> tuple[str, ...]:
    """An entity's aliases in their order (empty if unknown); two
    entities share a label when these intersect."""
    p = kb.position.get(entity)
    return () if p is None else kb.aliases[p]


def notable_type(kb: KnowledgeBase, entity: str) -> Optional[str]:
    p = kb.position.get(entity)
    return None if p is None else kb.labels[p]


def primary_alias(kb: KnowledgeBase, entity: str) -> str:
    """First alias of an entity, falling back to the id itself."""
    names = aliases_of(kb, entity)
    return names[0] if names else entity


# ---------------------------------------------------------------------------
# Binary snapshot
# ---------------------------------------------------------------------------

# A snapshot's fields, lists of strings, and its int32 columns.
_STRINGS = ("entities", "relations", "aliases", "labels")
_COLUMNS = ("subjects", "predicates", "objects", "aliased", "alias_counts",
            "typed")


def save_kb(kb: KnowledgeBase, path: str) -> None:
    """Write a :data:`container.KB` snapshot, byte-stable for a given KB.
    Its fields are the :data:`_STRINGS` (relations in order of first use,
    aliases entity by entity); its arrays are the :data:`_COLUMNS`, each
    of entity positions or relation indices but the alias counts."""
    names = list(map(kb.aliases.__getitem__, kb.aliased.tolist()))
    has_label = list(map(is_not, kb.labels, repeat(None)))
    container.write(path, container.KB, dict(zip(_STRINGS, (
        kb.ids, kb.relations, list(chain.from_iterable(names)),
        list(compress(kb.labels, has_label))))), dict(zip(_COLUMNS, (
            kb.subjects, kb.predicates, kb.objects, kb.aliased,
            _column(map(len, names)), _column(compress(count(), has_label))))))


def _ill_typed(what: str) -> ParseError:
    return ParseError(f"truncated or garbled snapshot, ill-typed: {what}")


def load_kb(path: str) -> KnowledgeBase:
    """Read a snapshot written by :func:`save_kb`, checked in bulk passes;
    ParseError when it is not a KB container or holds a list or column
    missing, mistyped or out of step with its partners, an index out of
    range, an alias count below 1 or counts not summing to the aliases,
    or an entity id or entry given twice."""
    fields, columns = container.read(path, container.KB)
    strings = list(map(fields.get, _STRINGS))
    if fields.keys() != set(_STRINGS) or columns.keys() != set(_COLUMNS) \
            or any(type(items) is not list for items in strings):
        raise _ill_typed(f"not the lists {', '.join(_STRINGS)} and the "
                         f"columns {', '.join(_COLUMNS)}")
    try:  # JSON makes no str subclass, so this is exactly a type check
        "".join(map("".join, strings))
    except TypeError as exc:
        raise _ill_typed("an item of a list is not a string") from exc
    ids, relations, alias_strings, labels = strings
    subjects, predicates, objects, aliased, alias_counts, typed = \
        map(columns.get, _COLUMNS)
    if any(column.ndim != 1 for column in columns.values()) or not (
            len(subjects) == len(predicates) == len(objects)
            and len(aliased) == len(alias_counts) and len(typed) == len(labels)):
        raise _ill_typed("the fact columns, the alias entries and counts, or "
                         "the type entries and labels are not in step")
    n_ids = len(ids)
    for column, n_refs, what in ((subjects, n_ids, "subjects"),
                                 (predicates, len(relations), "predicates"),
                                 (objects, n_ids, "objects"),
                                 (aliased, n_ids, "aliased entities"),
                                 (typed, n_ids, "typed entities")):
        if column.size and (column.min() < 0 or column.max() >= n_refs):
            raise _ill_typed(f"an index of {what} is out of range "
                             f"({n_refs} to index)")
    if aliased.size and alias_counts.min() < 1:
        raise _ill_typed("an alias count is below 1")
    if alias_counts.sum(dtype=np.int64) != len(alias_strings):
        raise _ill_typed(f"the alias counts do not sum to "
                         f"{len(alias_strings)}")
    position = dict(zip(ids, count()))
    if len(position) != n_ids:
        raise _ill_typed("an entity id is listed twice")
    if aliased.size and np.bincount(aliased).max() > 1:
        raise _ill_typed("an entity has two alias entries")
    if typed.size and np.bincount(typed).max() > 1:
        raise _ill_typed("an entity has two type entries")
    if not _in_first_use_order(relations, predicates):
        relations, predicates = _relation_column(
            list(map(relations.__getitem__, predicates.tolist())))
    if len(alias_strings) == len(aliased):  # one alias each, as synth writes
        alias_tuples = zip(alias_strings)
    else:
        ends = np.cumsum(alias_counts, dtype=np.int64).tolist()
        alias_tuples = map(tuple, map(alias_strings.__getitem__,
                                      map(slice, [0] + ends[:-1], ends)))
    return KnowledgeBase(
        ids, position, _spread(n_ids, aliased, alias_tuples, ()),
        _ascending(aliased), _spread(n_ids, typed, labels, None),
        relations, subjects, predicates, objects)


def _in_first_use_order(relations: list[str], predicates: np.ndarray) -> bool:
    """Whether ``relations`` are distinct and the predicate column uses
    each of them, first in their order, as :func:`_relation_column` makes
    them; a snapshot that :func:`save_kb` did not write may hold others.
    One pass decides it: the running maximum of the column never skips
    an index exactly when each fact's index is at most one past every
    index before it, so the first uses count up from 0, and it must
    reach every relation."""
    if len(set(relations)) != len(relations):
        return False
    counts = np.bincount(np.maximum.accumulate(predicates))
    return len(counts) == len(relations) and (
        not relations or bool(counts.min() > 0))
