"""A text has one encoding: training's forward and answering's give it the
same bits, whatever texts it runs with.

Training encodes a step's texts as one padded batch, and answering
encodes one question, or a question and the texts it meets, at a time.
Each sequence sits on its own leading-axis slot in both, so each product
is that sequence's own (see ``tests/test_slots.py``).  Here N random
texts are encoded one at a time, in random blocks and all together,
through training's graph forward (the ``.data`` of its node) and through
answering's array forward, and every row must have the bits of the text
encoded alone.  That holds for both matchers, the tagger's BiLSTM states
and all eight joint-model variants.

Shown with numpy 2.4.6 and OpenBLAS 0.3.31 picking its Haswell kernels
at run time (x86-64); it rests on the stacked products that
``tests/test_slots.py`` checks.
"""

from functools import cache

import numpy as np
import pytest
from conftest import fresh
from hypothesis import given, settings
from hypothesis import strategies as st

from qakb.e2e import VARIANTS, E2EModel
from qakb.nn.config import TrainConfig
from qakb.nn.layers import recurrent, recurrent_forward
from qakb.pipeline import MatcherModel, TaggerModel


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


# vocabulary words, out-of-vocabulary ones (one of out-of-alphabet
# characters), one-letter and long ones
VOCAB = ["who", "sings", "yesterday", "music", "recording", "artist",
         "film", "directed", "by", "country"]
WORDS = VOCAB + ["zyzzyva", "qq", "ÿ€", "a", "recordings",
                 "musicrecordingartist"]
# max_len 4, so texts of more than four tokens are truncated after the
# joint model's LSTM
CFG = TrainConfig(max_len=4)

texts_st = st.lists(st.lists(st.sampled_from(WORDS), min_size=1,
                             max_size=7).map(tuple), min_size=2, max_size=9)


@cache
def _model(kind, name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if kind is E2EModel:
        return fresh(E2EModel, VOCAB, CFG, rng, variant=VARIANTS[name])
    return fresh(kind, VOCAB, CFG, rng, name=name)


def _blocks(n, cuts):
    """``range(n)`` cut into consecutive blocks after each index in
    ``cuts``."""
    ends = sorted({c for c in cuts if 0 < c < n}) + [n]
    return [list(range(a, b)) for a, b in zip([0] + ends[:-1], ends)]


def _ways(draw, texts):
    """The three ways to encode ``texts``: one at a time, in random
    blocks of a random order, and all together."""
    n = len(texts)
    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=n))
    random_blocks = [[order[i] for i in block]
                     for block in _blocks(n, cuts)]
    return [[[i] for i in range(n)], random_blocks, [list(range(n))]]


def _check(texts, ways, alone, *forwards):
    """Every forward, over every way's blocks, gives each text the bits
    ``alone`` gives it."""
    want = [_bits(alone(text)) for text in texts]
    for forward in forwards:
        for blocks in ways:
            got = [None] * len(texts)
            for block in blocks:
                rows = forward([texts[i] for i in block])
                for i, row in zip(block, rows):
                    got[i] = _bits(row)
            assert got == want, (forward, blocks)


@pytest.mark.parametrize("name", sorted(VARIANTS))
@settings(max_examples=4, deadline=None)
@given(texts=texts_st, data=st.data())
def test_joint_model(name, texts, data):
    model = _model(E2EModel, name)
    _check(texts, _ways(data.draw, texts),
           lambda text: model.encode_text([text], {})[0],
           lambda block: model.encode_texts(block).data,
           lambda block: model.encode_text(block, {}))


@pytest.mark.parametrize("name", ["relation", "type"])
@settings(max_examples=6, deadline=None)
@given(texts=texts_st, data=st.data())
def test_matcher(name, texts, data):
    model = _model(MatcherModel, name)
    _check(texts, _ways(data.draw, texts), model.encode,
           lambda block: model.encode_texts(block).data,
           lambda block: [model.encode(text) for text in block])


@settings(max_examples=6, deadline=None)
@given(texts=texts_st, data=st.data())
def test_tagger_states(texts, data):
    """The BiLSTM states of :meth:`TaggerModel.forward_batch` and of
    :meth:`TaggerModel.forward`, over each text's own positions."""
    model = _model(TaggerModel, "tagger")
    cells = (model.fwd, model.bwd)

    def alone(text):
        rows = model.embedding.rows(text)
        return recurrent_forward(cells, (rows, rows), np.array([len(text)]),
                                 (False, True), "states")[0]

    def graph(block):
        inputs, lengths = model.embedding.embed_padded(block)
        states = recurrent(cells, inputs, lengths, (False, True),
                           "states").data
        return [row[:n] for row, n in zip(states, lengths)]

    _check(texts, _ways(data.draw, texts), alone, graph,
           lambda block: [alone(text) for text in block])
