"""Triple-store knowledge base: parsing, construction and lookups.

The knowledge base is built once from three inputs (a facts file, an alias
file and a notable-type file) and is read-only afterwards.  All
entity ids are canonicalized to the dotted lowercase form ``m.xxxxx`` and
all relations to slash-separated lowercase paths ``/a/b/c`` on the way in,
so the rest of the package never sees raw dump spellings.
"""

from __future__ import annotations

import json
import logging
import re
import zlib
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from qakb.errors import MalformedId, ParseError

log = logging.getLogger(__name__)

SNAPSHOT_MAGIC = b"KBQA2"

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


@dataclass(slots=True)
class KnowledgeBase:
    facts: list[Fact]
    entities: dict[str, EntityRecord]
    by_subject: dict[str, list[int]]


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


def serialize_triples_tsv(facts: Iterable[Fact]) -> str:
    """Render facts back to the TSV format, one fact per line."""
    return "".join(f"{f.subject}\t{f.relation}\t{f.object}\n" for f in facts)


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


def serialize_ntriples_line(subject: str, predicate: str, obj: NTObject) -> str:
    """Render one statement; inverse of :func:`parse_ntriples_line`."""
    if obj.is_literal:
        text = obj.value.replace("\\", "\\\\").replace('"', '\\"')
        text = text.replace("\n", "\\n").replace("\t", "\\t")
        rendered = f'"{text}"' + (f"@{obj.lang}" if obj.lang else "")
    else:
        rendered = f"<{obj.value}>"
    return f"<{subject}> <{predicate}> {rendered} .\n"


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

_SUBJECT, _SUBJECT_AND_OBJECT = itemgetter(0), itemgetter(0, 2)


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
    return _assemble(fact_list, entity_ids, aliases, types)


def _assemble(facts: list[Fact], entity_ids: Iterable[str],
              aliases: dict[str, Sequence[str]],
              types: dict[str, str]) -> KnowledgeBase:
    """The knowledge base of ``facts`` and of the entities ``entity_ids``,
    in its order.
    ``by_subject`` gets each subject's fact indices in fact order, from
    which :func:`out_degree` counts.  An entity gets a record of its
    aliases and its type from ``aliases`` and ``types``, and the shared
    empty record when neither holds it: the one place that decides what
    a record holds, for :func:`build_kb` and :func:`load_kb` alike."""
    by_subject: dict[str, list[int]] = {}
    for idx, subject in enumerate(map(_SUBJECT, facts)):
        rows = by_subject.get(subject)
        if rows is None:
            by_subject[subject] = [idx]
        else:
            rows.append(idx)
    entities = dict.fromkeys(entity_ids, _NO_RECORD)
    for mid, names in aliases.items():
        entities[mid] = EntityRecord(tuple(names), types.get(mid))
    for mid, label in types.items():
        if mid not in aliases:
            entities[mid] = EntityRecord((), label)
    return KnowledgeBase(facts=facts, entities=entities, by_subject=by_subject)


def relations_of(kb: KnowledgeBase, entity: str) -> list[str]:
    """Distinct outgoing relations of an entity, sorted lexicographically."""
    seen = {kb.facts[i].relation for i in kb.by_subject.get(entity, ())}
    return sorted(seen)


def lookup_objects(kb: KnowledgeBase, entity: str, relation: str) -> list[str]:
    """Objects of all (entity, relation, ·) facts, deduplicated, in fact order."""
    out: list[str] = []
    for i in kb.by_subject.get(entity, ()):
        fact = kb.facts[i]
        if fact.relation == relation and fact.object not in out:
            out.append(fact.object)
    return out


def out_degree(kb: KnowledgeBase, entity: str) -> int:
    """Number of stored facts whose subject is ``entity`` (0 if unknown)."""
    return len(kb.by_subject.get(entity, ()))


def aliases_of(kb: KnowledgeBase, entity: str) -> set[str]:
    """An entity's aliases (empty if unknown); two entities share a label
    when these intersect."""
    rec = kb.entities.get(entity)
    return set(rec.aliases) if rec is not None else set()


def notable_type(kb: KnowledgeBase, entity: str) -> Optional[str]:
    rec = kb.entities.get(entity)
    return rec.notable_type if rec is not None else None


def primary_alias(kb: KnowledgeBase, entity: str) -> str:
    """First alias of an entity, falling back to the id itself."""
    rec = kb.entities.get(entity)
    if rec is not None and rec.aliases:
        return rec.aliases[0]
    return entity


# ---------------------------------------------------------------------------
# Binary snapshot
# ---------------------------------------------------------------------------

def save_kb(kb: KnowledgeBase, path: str) -> None:
    """Write a versioned binary snapshot; byte-stable for a given KB.

    The payload is columnar: every entity id in ``kb.entities`` order,
    the distinct relations in order of first use, the facts as three
    columns of indices into those lists, and ``[entity index, aliases]``
    and ``[entity index, label]`` entries for the entities that have
    aliases or a type.
    """
    index = {mid: i for i, mid in enumerate(kb.entities)}
    subjects, relations, objects = (zip(*kb.facts) if kb.facts
                                    else ((), (), ()))
    relation_ids = list(dict.fromkeys(relations))
    relation_index = {rel: i for i, rel in enumerate(relation_ids)}
    records = [(index[mid], rec) for mid, rec in kb.entities.items()
               if rec is not _NO_RECORD]
    payload = {
        "entities": list(index),
        "relations": relation_ids,
        "subjects": list(map(index.__getitem__, subjects)),
        "predicates": list(map(relation_index.__getitem__, relations)),
        "objects": list(map(index.__getitem__, objects)),
        "aliases": [[i, rec.aliases] for i, rec in records if rec.aliases],
        "types": [[i, rec.notable_type] for i, rec in records
                  if rec.notable_type is not None],
    }
    blob = zlib.compress(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8"),
        level=1,
    )
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(blob)


def _ill_typed(what: str) -> ParseError:
    return ParseError(f"ill-typed snapshot: {what}")


def _array(value: object, what: str) -> list:
    """``value`` if it is a JSON array; ParseError otherwise."""
    if type(value) is not list:
        raise _ill_typed(f"{what} is not an array")
    return value


_JSON_NAMES = {int: "an int", str: "a string", list: "an array"}


def _of_type(values: Iterable, kind: type, what: str) -> None:
    """ParseError unless every item of ``values`` is exactly a ``kind``
    (so a bool is not an int), checked in one pass inside C."""
    if not set(map(type, values)) <= {kind}:
        raise _ill_typed(f"{what} is not {_JSON_NAMES[kind]}")


def _indices(values: list, size: int, what: str) -> list[int]:
    """``values`` if it holds only ints in ``range(size)``; ParseError
    otherwise."""
    _of_type(values, int, what)
    if values and (min(values) < 0 or max(values) >= size):
        raise _ill_typed(f"{what} is out of range ({size} to index)")
    return values


_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def _entries(payload: dict, key: str, size: int) -> tuple[list[int], list]:
    """The entity indices and the values of ``payload[key]``, an array of
    ``[entity index, value]`` entries with no index twice; ParseError
    otherwise."""
    entries = _array(payload[key], key)
    _of_type(entries, list, f"an entry of {key}")
    if not set(map(len, entries)) <= {2}:
        raise _ill_typed(f"an entry of {key} is not an array of 2")
    indices = _indices(list(map(_FIRST, entries)), size,
                       f"an entity index of {key}")
    if len(set(indices)) != len(indices):
        raise _ill_typed(f"an entity has two entries in {key}")
    return indices, list(map(_SECOND, entries))


def _kb_from_payload(payload: dict) -> KnowledgeBase:
    """The knowledge base a snapshot's columns describe, checked in bulk
    passes; ParseError for a field of the wrong JSON type, an index out of
    range, columns of unequal length or an entity id given twice."""
    ids = _array(payload["entities"], "entities")
    _of_type(ids, str, "an entity id")
    relations = _array(payload["relations"], "relations")
    _of_type(relations, str, "a relation")
    columns = []
    for key, refs in (("subjects", ids), ("predicates", relations),
                      ("objects", ids)):
        indices = _indices(_array(payload[key], key), len(refs),
                           f"an index of {key}")
        columns.append(list(map(refs.__getitem__, indices)))
    subjects, predicates, objects = columns
    if not len(subjects) == len(predicates) == len(objects):
        raise _ill_typed("subjects, predicates and objects differ in length")
    alias_of, alias_lists = _entries(payload, "aliases", len(ids))
    _of_type(alias_lists, list, "an alias list")
    _of_type(chain.from_iterable(alias_lists), str, "an alias")
    type_of, labels = _entries(payload, "types", len(ids))
    _of_type(labels, str, "a type label")
    # tuple.__new__ makes each Fact from its field tuple in C, as the
    # named tuple's own constructor does after a Python-level call
    facts = list(map(tuple.__new__, repeat(Fact),
                     zip(subjects, predicates, objects)))
    kb = _assemble(facts, ids,
                   dict(zip(map(ids.__getitem__, alias_of), alias_lists)),
                   dict(zip(map(ids.__getitem__, type_of), labels)))
    if len(kb.entities) != len(ids):
        raise _ill_typed("an entity id is listed twice")
    return kb


def load_kb(path: str) -> KnowledgeBase:
    """Read a snapshot written by :func:`save_kb`; ParseError when the
    bytes are not one, or not one of this format, or when a field has the
    wrong JSON type or an index is out of range."""
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            if magic[:4] == SNAPSHOT_MAGIC[:4]:
                raise ParseError(
                    f"snapshot format {magic.decode('latin-1')} is no longer "
                    f"read (this version reads {SNAPSHOT_MAGIC.decode()}); "
                    "re-create it with `qakb synth` or `qakb ingest`")
            raise ParseError(f"bad snapshot header {magic!r}")
        blob = fh.read()
    try:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
        if type(payload) is not dict:
            raise _ill_typed("the payload is not an object")
        return _kb_from_payload(payload)
    except (zlib.error, ValueError, KeyError) as exc:
        raise ParseError(f"truncated or garbled snapshot ({exc!r})") from exc
