"""Shared fixtures: a small hand-built knowledge base used across
modules, new layers and models drawn as training draws them, a view of
one gate's weights in a recurrent cell, a leaf tensor and a graph op that
only tests build, the finite-difference gradient check, the bit check of
a fused graph node against the ops it replaces and the composed binary
cross-entropy, joint-model scores and joint-model loss it is checked
against, a labelled question's entity span, one-shot joint-model
answering and its margin-loss reference rules, TSV and N-Triples
writers of facts, and a reader and a writer of KB snapshots' fields and
columns through the container, and a rewriter of a container's
header."""

import json
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from qakb import container
from qakb.e2e import E2EStrategy, ScoringHead
from qakb.kb import Fact, build_kb
from qakb.nn.io import new_model
from qakb.nn.layers import (Dense, EmbeddingTable, GRUCell, cosine,
                            table_tokens)
from qakb.nn.losses import PROB_EPS, loss_hinge_qas
from qakb.nn.tensor import (Tensor, _make, as_tensor, clip, gather_rows, log,
                            reshape, tsum)


@pytest.fixture()
def tiny_kb():
    """A handful of entities including a same-label pair ("germany").

    m.017hzy7 is a musical recording named "germany" (out-degree 1);
    m.0345h is the country with the same alias (out-degree 3), so the
    pair exercises every disambiguation path.
    """
    facts = [
        Fact("m.02mjmr", "/people/person/place_of_birth", "m.02hrh0_"),
        Fact("m.01hmylb", "/music/album/album_content_type", "m.06vw6v"),
        Fact("m.01hmylb", "/music/album/artist", "m.0p8h3"),
        Fact("m.017hzy7", "/music/recording/releases", "m.0rel01"),
        Fact("m.0345h", "/location/country/capital", "m.0k3p"),
        Fact("m.0345h", "/location/location/contains", "m.0cont1"),
        Fact("m.0345h", "/location/country/official_language", "m.04306rv"),
    ]
    alias_pairs = [
        ("m.02mjmr", "barack obama"),
        ("m.02mjmr", "obama"),
        ("m.02hrh0_", "honolulu"),
        ("m.01hmylb", "harder ..... faster"),
        ("m.017hzy7", "germany"),
        ("m.0345h", "germany"),
        ("m.0k3p", "berlin"),
    ]
    type_pairs = [
        ("m.017hzy7", "musical recording"),
        ("m.0345h", "country"),
        ("m.02mjmr", "us president"),
        ("m.01hmylb", "musical album"),
    ]
    return build_kb(facts, alias_pairs, type_pairs)


def dense(rng, in_dim, out_dim, activation="none", name="dense"):
    """A new :class:`Dense` layer, its weight drawn from ``rng``."""
    args = (name, in_dim, out_dim, activation)
    return Dense(Dense.draw(rng, *args), *args)


def rnn_cell(cls, rng, input_dim, hidden_dim, name=None):
    """A new recurrent cell of class ``cls``, its weights drawn from
    ``rng``, named ``"gru"`` or ``"lstm"`` unless ``name`` is given."""
    name = name or ("gru" if cls is GRUCell else "lstm")
    args = (name, input_dim, hidden_dim)
    return cls(cls.draw(rng, *args), *args)


def embedding(rng, tokens, dim):
    """A new embedding table of :func:`table_tokens` of ``tokens``, its
    rows drawn from ``rng``."""
    args = ("t", table_tokens(list(tokens)), dim)
    return EmbeddingTable(EmbeddingTable.draw(rng, *args), *args)


def scoring_head(mode):
    """A new joint-model scoring head of ``mode``, every weight 1.0."""
    return ScoringHead(ScoringHead.draw(None, "e2e.head", mode), "e2e.head",
                       mode)


def fresh(cls, vocab, cfg, rng, variant=None, name=None):
    """A new model of class ``cls`` for ``vocab`` and ``cfg``, drawn from
    ``rng`` as training draws it: a joint model of ``variant``, or a
    tagger or matcher named ``name`` (by default its kind)."""
    meta = {"vocab": list(vocab), "config": asdict(cfg)}
    if variant is not None:
        meta["variant"] = asdict(variant)
    else:
        meta["name"] = name or cls.kind
    return new_model(cls, meta, rng)


def param(data, requires_grad=True):
    """A leaf tensor that collects gradients."""
    return Tensor(np.array(data, dtype=np.float64),
                  requires_grad=requires_grad)


def finite_diff_check(fn, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must rebuild the scalar loss from the live ``params`` on every
    call (so nudged parameter values take effect).  Relative error is
    |a - n| / max(|a| + |n|, 1e-6) per element.
    """
    for p in params:
        p.grad = None
    loss = fn()
    loss.backward()
    analytic = []
    for p in params:
        if p.grad is None:
            analytic.append(None)
        else:
            analytic.append(p.grad.copy())

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = None if grad is None else grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = fn().item()
            flat[i] = saved - eps
            f_minus = fn().item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = 0.0 if gflat is None else gflat[i]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst


def assert_fused_bits(fused, composed, params, weight=None, grads=None):
    """Assert that ``fused()`` and ``composed()``, which build the same
    function of ``params``, one as a fused graph node and one from the
    ops it replaces, give the same bits: their data and, backpropagated
    from ``tsum(out * weight)`` (from ``out`` itself when ``weight`` is
    None), every parameter's gradient.  Before each build the gradients
    are reset to ``grads`` (copies; None each when not given).  Returns
    the bytes of the data."""
    results = []
    for build in (fused, composed):
        for p, g in zip(params, grads or [None] * len(params)):
            p.grad = None if g is None else g.copy()
        out = build()
        (out if weight is None else tsum(out * weight)).backward()
        results.append([out.data.tobytes()] + [
            None if p.grad is None else np.asarray(p.grad).tobytes()
            for p in params])
    assert results[0] == results[1]
    return results[0][0]


def composed_binary_ce(a, y):
    """The binary cross-entropy -[y ln a + (1-y) ln(1-a)] built from the
    clip, log, product, sum and negation nodes that its fused node
    replaced, as the reference of that node's bits."""
    a, y = as_tensor(a), np.asarray(y).astype(np.float64)
    log_a = log(clip(a, PROB_EPS, 1.0))
    log_not_a = log(clip(1.0 - a, PROB_EPS, 1.0))
    return -(y * log_a + (1.0 - y) * log_not_a)


def composed_head_scores(head, cos, channels, rows):
    """One score per row of the index matrix ``rows`` of a joint-model
    scoring ``head``: the cosines ``cos`` that the row indexes, each
    scaled by the weight of its channel, added left to right.  Built from
    the gather, product and sum nodes that its loss node replaced, as the
    reference of ``ScoringHead.combine``'s bits."""
    scaled = gather_rows(head.W, channels) * cos
    return tsum(gather_rows(scaled, rows), axis=1)


def composed_head_loss(step, encoded):
    """The summed hinge terms of a planned joint-model training step over
    ``encoded``, its distinct texts' encodings, built from the gather,
    mask, cosine, channel-weight, score and hinge nodes that
    ``_StepBatch.head_loss`` replaced, as the reference of that node's
    bits."""
    used = gather_rows(encoded, step.use_text)
    if step.masks:
        used = used * np.concatenate(step.masks)
    left, right = np.array(step.pairs).T
    cos = cosine(gather_rows(used, left), gather_rows(used, right))
    pos, neg = np.array(step.pos), np.array(step.neg)
    sides = reshape(composed_head_scores(step.model.head, cos, step.channels,
                                         np.concatenate([pos, neg])),
                    (2, len(pos)))
    return tsum(loss_hinge_qas(gather_rows(sides, 0), gather_rows(sides, 1),
                               step.model.cfg.gamma))


def span_tokens(labeled):
    """The tokens a labelled question tags as its entity span."""
    return [t for t, tag in zip(labeled.tokens, labeled.tags) if tag == "e"]


def answer(model, kb, index, question, k=1, out_degree_sort=False):
    """The joint model's top-k candidate facts for one question, from a
    fresh session."""
    return E2EStrategy(model, kb, index, out_degree_sort).top(question, k)


def serialize_triples_tsv(facts):
    """Render facts back to the TSV format, one fact per line."""
    return "".join(f"{f.subject}\t{f.relation}\t{f.object}\n" for f in facts)


def serialize_ntriples_line(subject, predicate, obj):
    """Render one statement; inverse of ``kb.parse_ntriples_line``."""
    if obj.is_literal:
        text = obj.value.replace("\\", "\\\\").replace('"', '\\"')
        text = text.replace("\n", "\\n").replace("\t", "\\t")
        rendered = f'"{text}"' + (f"@{obj.lang}" if obj.lang else "")
    else:
        rendered = f"<{obj.value}>"
    return f"<{subject}> <{predicate}> {rendered} .\n"


def loss_hinge_qat(ss_pos, ss_neg, sp_pos, sp_neg, gamma):
    """Two-channel margin loss, the reference rule for a two-channel
    ``ScoringHead``: subject and predicate hinges summed."""
    return (loss_hinge_qas(ss_pos, ss_neg, gamma)
            + loss_hinge_qas(sp_pos, sp_neg, gamma))


def loss_hinge_qat_type(ss_pos, ss_neg, sp_pos, sp_neg, st_pos, st_neg,
                        gamma):
    """Three-channel margin loss, adding the type channel's hinge."""
    return (loss_hinge_qat(ss_pos, ss_neg, sp_pos, sp_neg, gamma)
            + loss_hinge_qas(st_pos, st_neg, gamma))


def gate_block(cell, kind, gate, array=None):
    """Gate ``gate``'s block of a recurrent cell's ``kind`` of weight
    ("W", "U" or "b") as a writable view, shaped [h, d], [h, h] or [h].
    ``array`` is the parameter's data unless given, for example its
    gradient."""
    h = cell.hidden_dim
    k = cell.gates.index(gate)
    if array is None:
        array = getattr(cell, kind).data
    if kind == "b":
        return array[k * h:(k + 1) * h]
    return array[:, k * h:(k + 1) * h].T


def stack_rows(rows):
    """Stack 1-D tensors into a matrix, one per row, as a graph node."""
    tensors = [as_tensor(r) for r in rows]
    data = np.stack([t.data for t in tensors], axis=0)

    def backward(out):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(out.grad[i])

    return _make(data, tensors, backward)


def kbqa2_payload(kb) -> bytes:
    """The JSON payload a ``KBQA2`` snapshot of ``kb`` held, zlib aside:
    the entity ids, the distinct relations in order of first use, the
    facts as three index columns, and ``[entity index, aliases]`` and
    ``[entity index, label]`` entries, with sorted keys.  Hashing it pins
    the KB that a snapshot holds, whatever its layout."""
    index = {mid: i for i, mid in enumerate(kb.entities)}
    subjects, relations, objects = (zip(*kb.facts) if kb.facts
                                    else ((), (), ()))
    relation_ids = list(dict.fromkeys(relations))
    relation_index = {rel: i for i, rel in enumerate(relation_ids)}
    payload = {
        "entities": list(index),
        "relations": relation_ids,
        "subjects": list(map(index.__getitem__, subjects)),
        "predicates": list(map(relation_index.__getitem__, relations)),
        "objects": list(map(index.__getitem__, objects)),
        "aliases": [[index[mid], rec.aliases]
                    for mid, rec in kb.entities.items() if rec.aliases],
        "types": [[index[mid], rec.notable_type]
                  for mid, rec in kb.entities.items()
                  if rec.notable_type is not None],
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# A KB snapshot's lists of strings and its int32 columns.
KB_STRINGS = ("entities", "relations", "aliases", "labels")
KB_COLUMNS = ("subjects", "predicates", "objects", "aliased",
              "alias_counts", "typed")


def read_kb_snapshot(path) -> dict:
    """The fields and columns of the KB snapshot at ``path``, read by the
    container's own reader, each column as a list."""
    fields, columns = container.read(str(path), container.KB)
    return {**fields, **{key: column.tolist()
                         for key, column in columns.items()}}


def write_kb_snapshot(path, snap: dict) -> None:
    """Write ``snap`` through the container's own writer as a KB
    snapshot, whatever it holds: each key of :data:`KB_COLUMNS` as an
    array (an int32 one when it is a list), every other key as a
    field."""
    container.write(str(path), container.KB,
                    {k: v for k, v in snap.items() if k not in KB_COLUMNS},
                    {k: np.asarray(v, "<i4") if isinstance(v, list) else v
                     for k, v in snap.items() if k in KB_COLUMNS})


def rewrite_header(path, header: bytes) -> None:
    """Replace the JSON header of the container at ``path`` with
    ``header``, whatever it holds, keeping the magic and the array block,
    and write a checksum that matches, so a reader gets past it."""
    data = path.read_bytes()
    start = 9 + int.from_bytes(data[5:9], "little")
    body = data[:5] + len(header).to_bytes(4, "little") + header
    body += bytes(-len(body) % 8) + data[start + -start % 8:-4]
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
