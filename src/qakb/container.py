"""One checksummed file format for KB snapshots and model tables.

A container is a 5-byte magic naming its kind (:data:`KB` or
:data:`MODEL`); the header's byte length, a little-endian uint32; the
header, the UTF-8 JSON object ``{"arrays": directory, "fields": fields}``,
where ``fields`` is the writer's and ``directory`` maps each array's name
to ``[dtype, shape, offset]``; zero bytes up to a multiple of 8, where
the array block starts, and each array's C-order data at its offset in
it, a multiple of 8; and a CRC-32 (``zlib.crc32``) of every byte before
it, a little-endian uint32.
"""

from __future__ import annotations

import json
import zlib
from typing import NamedTuple

import numpy as np

from qakb.errors import ParseError


class Kind(NamedTuple):
    """A container's magic, its arrays' dtype, the noun naming its format,
    what it holds, and how to replace a file of an earlier format."""

    magic: bytes
    dtype: str
    noun: str
    holds: str
    remedy: str


KB = Kind(b"KBQA4", "<i4", "snapshot", "a KB snapshot",
          "re-create it with `qakb synth` or `qakb ingest`")
MODEL = Kind(b"NNQA3", "<f8", "model", "a model parameter table",
             "re-train it with `qakb train-pipeline` or `qakb train-e2e`")

_HEADER_AT = len(KB.magic) + 4


def write(path: str, kind: Kind, fields: dict,
          arrays: dict[str, np.ndarray]) -> None:
    """Write a ``kind`` container of ``fields`` and ``arrays``, in the
    order given, checksumming each piece as it is written."""
    directory, at = {}, 0
    for name, array in arrays.items():
        directory[name] = [array.dtype.str, list(array.shape), at]
        at += array.nbytes + -array.nbytes % 8
    header = json.dumps({"arrays": directory, "fields": fields},
                        separators=(",", ":")).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        for piece in (kind.magic + len(header).to_bytes(4, "little") + header,
                      *map(np.ascontiguousarray, arrays.values())):
            for part in (piece, bytes(-memoryview(piece).nbytes % 8)):
                crc = zlib.crc32(part, crc)
                fh.write(part)
        fh.write(crc.to_bytes(4, "little"))


def _garbled(what: str) -> ParseError:
    return ParseError(f"truncated or garbled snapshot: {what}")


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; ParseError for a name given
    twice, which a plain decode would silently merge."""
    names = [name for name, _ in pairs]
    if len(set(names)) < len(names):
        raise _garbled(f"{max(names, key=names.count)!r} is given twice")
    return dict(pairs)


def read(path: str, kind: Kind) -> tuple[dict, dict[str, np.ndarray]]:
    """The fields and arrays (owned, writable, aligned copies) of the
    ``kind`` container at ``path``; ParseError for another magic, a
    damaged byte or a cut, a name given twice in a JSON object of the
    header, or an array of another dtype or past the end."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    magic = data[:len(kind.magic)]
    other = MODEL if kind is KB else KB
    if magic != kind.magic:
        raise ParseError(
            f"holds {other.holds} ({magic.decode()}), not {kind.holds}"
            if magic == other.magic else
            f"{kind.noun} format {magic.decode('latin-1')} is no longer read "
            f"(this version reads {kind.magic.decode()}); {kind.remedy}"
            if magic[:4] == kind.magic[:4] else
            f"bad {kind.noun} header {magic!r}")
    end = len(data) - 4
    if end < _HEADER_AT or zlib.crc32(memoryview(data)[:end]) != \
            int.from_bytes(data[end:], "little"):
        raise _garbled("the checksum does not match")
    header_end = _HEADER_AT + int.from_bytes(data[len(magic):_HEADER_AT],
                                             "little")
    arrays, block = {}, memoryview(data)[:end]
    try:
        header = json.loads(str(block[_HEADER_AT:header_end], "utf-8"),
                            object_pairs_hook=_unique)
        for name, (dtype, shape, offset) in header["arrays"].items():
            if dtype != kind.dtype or offset < 0:
                raise ValueError(f"array {name!r} is not {kind.dtype} or "
                                 "starts before the array block")
            # numpy checks the shape, and that the data ends in the block
            arrays[name] = np.ndarray(shape, dtype, block, offset + header_end
                                      + -header_end % 8).copy()
        if type(header["fields"]) is not dict:
            raise TypeError("the fields are not an object")
    # ValueError covers JSONDecodeError and UnicodeDecodeError
    except (ValueError, RecursionError, TypeError, KeyError, AttributeError,
            OverflowError) as exc:
        raise _garbled(repr(exc)) from exc
    return header["fields"], arrays
