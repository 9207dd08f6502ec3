"""Tests for the end-to-end ranking models."""

import contextlib
import gc
import io
import logging
import sys
import weakref
from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (answer, assert_fused_bits, composed_head_loss,
                      composed_head_scores, finite_diff_check, fresh,
                      gate_block, loss_hinge_qat, loss_hinge_qat_type, param,
                      scoring_head)
from numpy.testing import assert_allclose, assert_array_equal

from qakb.aliasindex import build_index, relation_tokens, tokenize
from qakb.cli import main
from qakb.datagen import NegativePools, make_question
from qakb.e2e import (
    E2EModel,
    E2EStrategy,
    E2EVariant,
    FactScore,
    TYPE,
    VARIANTS,
    _StepBatch,
    _training_vocab,
    char_vocab,
    subject_text,
    train_e2e,
    variant_name,
)
from qakb.errors import (EmptySequence, EmptyTrainingSet, NoCandidates,
                         NoRelation)
from qakb import evalharness
from qakb.evalharness import SyntheticSpec, generate_synthetic
from qakb.kb import Fact, build_kb, notable_type
import qakb.aliasindex
import qakb.e2e
import qakb.nn.layers
import qakb.nn.losses
import qakb.nn.tensor
from qakb.nn.config import TrainConfig
from qakb.nn.layers import OOV_TOKEN, cosine, dropout_mask, recurrent
from qakb.nn.losses import loss_hinge_qas
from qakb.nn.optim import fit
from qakb.nn.tensor import Tensor, as_tensor, gather_rows, pad_rows, tsum
from qakb.nn.io import load_model, save_model
from qakb.pipeline import MatcherModel


def small_cfg(**overrides):
    base = dict(epochs=2, batch_size=2, hidden_size=8, embed_dim=8,
                char_dim=4, max_len=6, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def song_kb():
    facts = [
        Fact("m.0a1", "/music/recording/artist", "m.0b1"),
        Fact("m.0a1", "/music/recording/length", "m.0b2"),
        Fact("m.0c1", "/film/film/genre", "m.0b3"),
        Fact("m.0c1", "/film/film/country", "m.0b4"),
    ]
    return build_kb(
        facts,
        [("m.0a1", "yesterday"), ("m.0c1", "yesterday"),
         ("m.0b1", "the beatles")],
        [("m.0a1", "musical recording"), ("m.0c1", "film")],
    )


def song_training_set(kb):
    qs = [
        make_question("who sings yesterday", kb.facts[0]),
        make_question("how long is yesterday", kb.facts[1]),
        make_question("what genre is yesterday", kb.facts[2]),
        make_question("which country made yesterday", kb.facts[3]),
    ]
    pools = NegativePools(
        subject_pools=[["m.0c1"], ["m.0c1"], ["m.0a1"], ["m.0a1"]],
        predicate_pools=[
            ["/film/film/genre"],
            ["/film/film/country"],
            ["/music/recording/artist"],
            ["/music/recording/length"],
        ],
    )
    return qs, pools


class TestVariants:
    def test_exclusive_type_mechanisms(self):
        with pytest.raises(ValueError):
            E2EVariant(type_in_label=True, type_as_task=True)

    def test_head_modes(self):
        assert E2EVariant(qas_head=True).head_mode == "qas"
        assert E2EVariant().head_mode == "qat"
        assert E2EVariant(type_as_task=True).head_mode == "qat_type"

    def test_named_variants(self):
        assert VARIANTS["qa-s"].qas_head
        assert not VARIANTS["qa-t"].char_level
        assert VARIANTS["qa-t-w"].char_level
        v = VARIANTS["qa-t-swt"]
        assert v.char_level and v.self_attention and v.type_in_label
        m = VARIANTS["qa-t-mwst"]
        assert m.char_level and m.self_attention and m.type_as_task
        assert not any(v.out_degree_sort for v in VARIANTS.values())

    def test_out_degree_flag(self):
        model = fresh(E2EModel, ["yesterday"], small_cfg(),
                      np.random.default_rng(0), variant=VARIANTS["qa-t-w"])
        kb = song_kb()
        v = E2EStrategy(model, kb, build_index(kb), True).variant
        assert v.out_degree_sort and v.char_level
        assert not VARIANTS["qa-t-w"].out_degree_sort


class TestWordEncoder:
    def test_dim_word_only(self):
        m = fresh(E2EModel, ["alpha", "beta"], small_cfg(),
                  np.random.default_rng(0), variant=E2EVariant())
        assert m.lstm.input_dim == small_cfg().embed_dim
        assert m.encode_words(["alpha"]).shape == (1, 8)

    def test_dim_with_chars(self):
        m = fresh(E2EModel, ["alpha", "beta"], small_cfg(),
                  np.random.default_rng(0),
                  variant=E2EVariant(char_level=True))
        cfg = small_cfg()
        assert m.lstm.input_dim == cfg.embed_dim + cfg.char_dim
        assert m.encode_words(["alpha"]).shape == (1, 12)

    def test_char_suffix_is_gru_last_state(self):
        m = fresh(E2EModel, ["a", "bc"], small_cfg(), np.random.default_rng(3),
                  variant=E2EVariant(char_level=True))
        vec = m.encode_words(["a"]).data[0]
        x = m.chars.embed(["a"]).data
        gru = m.char_gru
        # each product beside a zero row, as the run makes it
        xw = (np.concatenate([x, 0 * x]) @ gru.W.data)[:1] + gru.b.data
        (h0,) = gru.initial_state(2)
        (h,), _ = gru.step(xw, (h0[:1],), (h0 @ gru.U.data)[:1])
        assert_array_equal(vec[-gru.hidden_dim:], h[0])

    def test_unknown_words_distinguished_by_spelling(self):
        m = fresh(E2EModel, ["cold", "dark"], small_cfg(),
                  np.random.default_rng(5),
                  variant=E2EVariant(char_level=True))
        cfg = small_cfg()
        a, b = m.encode_words(["adc", "add"]).data
        assert_array_equal(a[:cfg.embed_dim], b[:cfg.embed_dim])
        assert not np.array_equal(a[cfg.embed_dim:], b[cfg.embed_dim:])

    def test_unknown_words_collapse_without_chars(self):
        m = fresh(E2EModel, ["cold", "dark"], small_cfg(),
                  np.random.default_rng(5), variant=E2EVariant())
        a, b = m.encode_words(["abc", "abd"]).data
        assert_array_equal(a, b)

    def test_char_alphabet_skips_oov_marker(self):
        m = fresh(E2EModel, ["ab"], small_cfg(), np.random.default_rng(0),
                  variant=E2EVariant(char_level=True))
        assert "<" not in m.chars.vocab
        assert ">" not in m.chars.vocab
        assert "a" in m.chars.vocab


def _encode_one(model, tokens):
    """One token sequence's [h] array encoding."""
    return model.encode_text([tuple(tokens)], {})[0]


class TestEncodeSequence:
    def test_empty_tokens_raise(self):
        m = fresh(E2EModel, ["a"], small_cfg(), np.random.default_rng(0),
                  variant=E2EVariant())
        for texts in ([], [()], [("a",), ()]):
            for encode in (m.encode_texts, lambda t: m.encode_text(t, {})):
                with pytest.raises(EmptySequence):
                    encode(texts)

    def test_text_given_as_a_string_raises(self):
        m = fresh(E2EModel, ["a"], small_cfg(), np.random.default_rng(0),
                  variant=E2EVariant())
        for texts in (["a"], [("a",), "a b"]):
            for encode in (m.encode_texts, lambda t: m.encode_text(t, {})):
                with pytest.raises(TypeError):
                    encode(texts)

    def test_output_shape(self):
        m = fresh(E2EModel, ["a", "b"], small_cfg(), np.random.default_rng(0),
                  variant=E2EVariant())
        assert _encode_one(m, ["a", "b"]).shape == (small_cfg().hidden_size,)
        assert m.encode_text([("a", "b"), ("b",)], {}).shape == (
            2, small_cfg().hidden_size)

    def test_eval_mode_is_deterministic(self):
        m = fresh(E2EModel, ["a", "b"], small_cfg(dropout_p=0.5),
                  np.random.default_rng(0), variant=E2EVariant())
        assert_array_equal(_encode_one(m, ["a", "b"]),
                           _encode_one(m, ["a", "b"]))

    def test_train_mode_without_dropout_matches_eval(self):
        """At ``dropout_p`` 0 a training step draws no mask, so its
        encodings are the answering ones, up to a padded batch's
        rounding."""
        kb = song_kb()
        qs, pools = song_training_set(kb)
        m = fresh(E2EModel, _training_vocab(qs, kb), small_cfg(dropout_p=0.0),
                  np.random.default_rng(0), variant=E2EVariant())
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        step = _StepBatch(m, kb, rng)
        assert step.add(qs[0], pools.subject_pools[0][0],
                        pools.predicate_pools[0][0])
        assert step.loss() is not None
        assert not step.masks and rng.bit_generator.state == state
        texts = list(step.texts)
        encoded = m.encode_texts(texts).data
        for row, tokens in zip(encoded, texts):
            assert_allclose(row, _encode_one(m, tokens), rtol=1e-12,
                            atol=1e-15)

    def test_truncation_matches_prefix_without_attention(self):
        m = fresh(E2EModel, list("abcdefgh"), small_cfg(max_len=3),
                  np.random.default_rng(2), variant=E2EVariant())
        long = list("abcdefgh")
        assert_array_equal(_encode_one(m, long), _encode_one(m, long[:3]))

    def test_attention_mixes_states_before_truncation(self):
        m = fresh(E2EModel, list("abcdefgh"), small_cfg(max_len=3),
                  np.random.default_rng(2),
                  variant=E2EVariant(self_attention=True))
        long = list("abcdefgh")
        assert not np.array_equal(_encode_one(m, long),
                                  _encode_one(m, long[:3]))

    def test_attention_changes_multi_token_encoding_only(self):
        plain = fresh(E2EModel, ["a", "b"], small_cfg(),
                      np.random.default_rng(4), variant=E2EVariant())
        attn = fresh(E2EModel, ["a", "b"], small_cfg(),
                     np.random.default_rng(4),
                     variant=E2EVariant(self_attention=True))
        for (k, p), (k2, p2) in zip(sorted(plain.parameters().items()),
                                    sorted(attn.parameters().items())):
            assert k == k2
            assert_array_equal(p.data, p2.data)
        assert_array_equal(_encode_one(plain, ["a"]),
                           _encode_one(attn, ["a"]))
        assert not np.array_equal(_encode_one(plain, ["a", "b"]),
                                  _encode_one(attn, ["a", "b"]))


def _bits(a):
    """An array's shape and bytes: equal only for the same bits."""
    a = np.asarray(a)
    return a.shape, a.tobytes()


# a vocabulary, and texts of one token, past max_len (3 here), and with
# out-of-vocabulary words, one of them of out-of-alphabet characters
_ARRAY_VOCAB = ["who", "sings", "yesterday", "music", "recording", "artist"]
_ARRAY_TEXTS = [["yesterday"], ["zyzzyva"], ["who", "sings", "yesterday"],
                ["music", "recording", "artist", "who", "sings", "music"],
                ["who", "zyzzyva", "sings", "qq", "yesterday"],
                ["ÿ€", "music"]]


class TestArrayEncoding:
    """Answering's array path gives the graph path's bits: each text of
    an encode_text call is row 0 of encode_texts over that text alone,
    and its row of encode_texts over all the texts, its char parts cached
    in a session's summaries or not, and a char summary is a graph run
    over the word's characters."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_encode_text_is_row_0_of_encode_texts(self, name):
        variant = VARIANTS[name]
        # the default widths, where a 1-D dense product rounds differently
        model = fresh(E2EModel, _ARRAY_VOCAB, TrainConfig(max_len=3),
                      np.random.default_rng(7), variant=variant)
        summaries = {}
        texts = [tuple(tokens) for tokens in _ARRAY_TEXTS]
        for tokens in texts:
            want = gather_rows(model.encode_texts([tokens]), 0).data
            for kept in ({}, summaries):
                got = model.encode_text([tokens], kept)
                assert type(got) is np.ndarray
                assert _bits(got[0]) == _bits(want), (tokens, kept)
        # all together, cold and warm, and in training's batch: each row
        # as alone
        alone = [model.encode_text([tokens], {})[0] for tokens in texts]
        for together in (model.encode_text(texts, {}),
                         model.encode_text(texts, summaries),
                         model.encode_texts(texts).data):
            assert [_bits(row) for row in together] == [
                _bits(row) for row in alone]
        assert set(summaries) == (
            {w for t in texts for w in t} & set(_ARRAY_VOCAB)
            if variant.char_level else set())
        for kept in ({}, summaries):
            with pytest.raises(EmptySequence):
                model.encode_text([()], kept)

    @pytest.mark.parametrize("name", ["qa-t-w", "qa-t-mwst"])
    def test_encode_text_is_the_session_encoding(self, name):
        """With no summaries kept a text's encoding runs each word's
        char-GRU afresh, with the bits of the summaries a session keeps,
        so the two agree bit for bit; a padded char-GRU run over a text's
        words rounds differently in the last bits, on every question of
        this set."""
        kb, train, test = generate_synthetic(
            SyntheticSpec(seed=1, n_entities=125))
        variant = VARIANTS[name]
        model = fresh(E2EModel, _training_vocab(train, kb), TrainConfig(),
                      np.random.default_rng(1), variant=variant)
        session = E2EStrategy(model, kb, build_index(kb))
        for q in train + test:
            assert _bits(model.encode_text([q.tokens], {})) == _bits(
                model.encode_text([q.tokens], session.summaries)), q.text

    @pytest.mark.parametrize("name", ["qa-t-w", "qa-t-mwst"])
    def test_char_summary_is_a_graph_run(self, name):
        model = fresh(E2EModel, _ARRAY_VOCAB, small_cfg(),
                      np.random.default_rng(8), variant=VARIANTS[name])
        for word in ["a", "yesterday", "zyzzyva", "ÿ€", "recording"]:
            last = recurrent((model.char_gru,), model.chars.embed(list(word)),
                             None, (False,), "last")
            assert _bits(model.char_summaries([word])[0]) == _bits(
                last.data), word

    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_answering_makes_no_tensor(self, cold, monkeypatch):
        """A qa-t-mwst session answers, cold or warm, without making a
        single Tensor: no graph node, no wrapper of an array."""
        kb = song_kb()
        qs, pools = song_training_set(kb)
        variant = VARIANTS["qa-t-mwst"]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg(epochs=1))
        session = E2EStrategy(model, kb, build_index(kb))
        questions = [q.text for q in qs] + ["who zyzzyva sings yesterday"]
        if not cold:
            for q in questions:
                session.answer(q)
        made = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        for q in questions:
            session.answer(q)
        assert not made

    @pytest.mark.parametrize("name", ["qa-t", "qa-t-mwst"])
    def test_dropped_session_is_freed_by_reference_counting(self, name):
        """A session, with its filled caches, sits in no reference cycle:
        with the cyclic GC off, dropping it frees it."""
        kb = song_kb()
        qs, pools = song_training_set(kb)
        variant = VARIANTS[name]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg(epochs=1))
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = E2EStrategy(model, kb, build_index(kb))
            for q in qs:
                session.answer(q.text)
            assert {kind for kind, _ in session.encodings} == {0, 1}
            ref = weakref.ref(session)
            del session
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


# words for slot sets: vocabulary words, out-of-vocabulary ones (one of
# out-of-alphabet characters), one-letter and long ones
_SLOT_WORDS = _ARRAY_VOCAB + ["zyzzyva", "qq", "ÿ€", "a", "recordings",
                              "musicrecordingartist"]


@cache
def _slot_model(name):
    """A fresh model of the variant ``name``, at max_len 3, so texts of
    more than three tokens are truncated after the LSTM."""
    return fresh(E2EModel, _ARRAY_VOCAB, TrainConfig(max_len=3),
                 np.random.default_rng(13), variant=VARIANTS[name])


class TestSlotEncoding:
    """Texts encoded together, each on its own slot, get the bits each
    gets encoded alone, whatever else is in the set and whatever char
    summaries are already kept."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    @settings(max_examples=25, deadline=None)
    @given(texts=st.lists(
               st.lists(st.sampled_from(_SLOT_WORDS), min_size=1,
                        max_size=6).map(tuple), min_size=1, max_size=7),
           kept=st.sets(st.sampled_from(_SLOT_WORDS)))
    def test_together_as_alone(self, name, texts, kept):
        model = _slot_model(name)
        alone = [_bits(model.encode_text([text], {})[0]) for text in texts]
        summaries = (dict(zip(kept, model.char_summaries(list(kept))))
                     if model.variant.char_level and kept else {})
        together = model.encode_text(texts, summaries)
        assert [_bits(row) for row in together] == alone
        assert type(together) is np.ndarray


def _cli(*argv):
    """``qakb argv``'s stdout; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"qakb {' '.join(argv)} exited {code}"
    return out.getvalue()


def test_records_do_not_depend_on_what_was_encoded_before(tmp_path,
                                                          monkeypatch):
    """Every joint-model variant writes the same record bytes for a
    question in a fresh session and in a warm one, in two shuffled
    orders, through ``answer --questions FILE`` and through stdin."""
    bench = tmp_path / "bench"
    _cli("synth", "--seed", "3", "--entities", "40", "--relations", "5",
         "--out", str(bench))
    kb = str(bench / "kb.qakb")
    train = (bench / "train.tsv").read_text(encoding="utf-8").splitlines(True)
    test = (bench / "test.tsv").read_text(encoding="utf-8").splitlines(True)
    train6 = tmp_path / "train6.tsv"
    train6.write_text("".join(train[:6]), encoding="utf-8")
    asked = [line.split("\t")[3].strip() for line in test + train[6:20]]
    asked.append(f"zyzzyva {asked[0]}")  # a word in no vocabulary
    orders = []
    for seed in (0, 1):
        order = list(asked)
        np.random.default_rng(seed).shuffle(order)
        orders.append(order)
    for variant in VARIANTS:
        model = str(tmp_path / f"{variant}.nn")
        _cli("train-e2e", "--kb", kb, "--questions", str(train6),
             "--variant", variant, "--out", model, "--epochs", "1",
             "--seed", "1")
        flags = ["answer", "--kb", kb, "--model", model, "--variant", variant]
        records = {}
        # fresh, then warm: each question's second record is answered by a
        # session that has encoded every question before
        for run, order in enumerate([orders[0], orders[1],
                                     orders[0] + orders[1],
                                     orders[1] + orders[0]]):
            text = "".join(q + "\n" for q in order)
            if run % 2:
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                out = _cli(*flags)
            else:
                path = tmp_path / f"asked{run}.txt"
                path.write_text(text, encoding="utf-8")
                out = _cli(*flags, "--questions", str(path))
            lines = out.splitlines()
            assert len(lines) == len(order)
            for q, line in zip(order, lines):
                records.setdefault(q, set()).add(line)
        assert len(records) == len(asked)
        varied = [q for q, lines in records.items() if len(lines) != 1]
        assert not varied, (variant, varied)


@pytest.mark.parametrize("name", ["qa-t", "qa-t-w", "qa-t-mwst"])
def test_texts_sharing_one_token_tuple_are_cached_once_each(name):
    """A subject label, a type label and a relation path of one token
    tuple, met in one answer, are one cache entry per key, each with the
    bits of encoding it alone, and the records are those of a session
    that met the texts in separate answers."""
    kb = build_kb(
        [Fact("m.x", "/album", "m.o1"), Fact("m.x", "/other", "m.o2"),
         Fact("m.y", "/album", "m.o3"), Fact("m.z", "/other", "m.o4")],
        [("m.x", "album"), ("m.y", "disc"), ("m.z", "record")],
        [("m.x", "album"), ("m.z", "album")])
    model = fresh(E2EModel, ["album", "disc", "other", "record", "what"],
                  small_cfg(), np.random.default_rng(5),
                  variant=VARIANTS[name])
    index = build_index(kb)
    questions = ["what album", "what disc", "what record"]
    together, apart = (E2EStrategy(model, kb, index) for _ in range(2))
    calls = []
    encode = model.encode_text

    def keeping(texts, summaries):
        calls.append(list(texts))
        return encode(texts, summaries)

    model.encode_text = keeping
    # the label "album" and the path "/album" in one answer
    first = evalharness.answer_record(together, questions[0])
    assert {key for key in together.encodings if "album" in key[1]} == {
        (0, "album"), (1, "/album")}
    assert calls[0].count(("album",)) == 2
    model.encode_text = encode
    for key, tokens in (((0, "album"), ("album",)),
                        ((1, "/album"), ("album",))):
        assert _bits(together.encodings[key]) == _bits(
            encode([tokens], {})[0])
    records = [first] + [evalharness.answer_record(together, q)
                         for q in questions[1:]]
    # a session that meets "/album" with "disc", and the label "album"
    # in a later answer
    met = {q: evalharness.answer_record(apart, q)
           for q in questions[1:] + questions[:1]}
    assert records == [met[q] for q in questions]


class TestPadStates:
    """tensor.pad_rows as the shared encoder pads its states to max_len."""

    def test_pads_with_zero_rows(self):
        states = as_tensor(np.arange(6.0).reshape(3, 2))
        out = pad_rows(states, 5)
        assert out.shape == (5, 2)
        assert_array_equal(out.data[:3], states.data)
        assert_array_equal(out.data[3:], np.zeros((2, 2)))

    def test_truncates_to_prefix(self):
        states = as_tensor(np.arange(10.0).reshape(5, 2))
        out = pad_rows(states, 2)
        assert_array_equal(out.data, states.data[:2])

    def test_exact_length_passthrough(self):
        states = as_tensor(np.ones((4, 3)))
        assert pad_rows(states, 4) is states

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=12),
        width=st.integers(min_value=1, max_value=5),
        max_len=st.integers(min_value=1, max_value=12),
    )
    def test_shape_and_content_invariants(self, t, width, max_len):
        rng = np.random.default_rng(t * 100 + width * 10 + max_len)
        states = as_tensor(rng.normal(size=(t, width)))
        out = pad_rows(states, max_len)
        assert out.shape == (max_len, width)
        keep = min(t, max_len)
        assert_array_equal(out.data[:keep], states.data[:keep])
        assert_array_equal(out.data[keep:], np.zeros((max_len - keep, width)))

    def test_gradient_flows_through_padding(self):
        states = param(np.ones((2, 3)))
        out = pad_rows(states, 4)
        tsum(out * 2.0).backward()
        assert_array_equal(states.grad, np.full((2, 3), 2.0))


def _scores(head, cos, channels, rows):
    return list(head.combine(np.array(cos), channels, np.array(rows)))


class TestScoringHead:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            scoring_head("bogus")

    def test_qas_initial_weights_sum_channels(self):
        head = scoring_head("qas")
        assert_allclose(_scores(head, [0.25, 0.5], [0, 1], [[0, 1]]), [0.75],
                        rtol=0, atol=1e-12)

    def test_qat_initial_weights_sum_channels(self):
        head = scoring_head("qat")
        assert_allclose(_scores(head, [0.25, 0.5], [0, 1], [[0, 1]]), [0.75],
                        rtol=0, atol=1e-12)

    def test_qat_weights_scale_channels(self):
        head = scoring_head("qat")
        head.W.data[...] = [2.0, -1.0]
        assert_allclose(_scores(head, [0.25, 0.5], [0, 1], [[0, 1], [0, 0]]),
                        [0.0, 1.0], rtol=0, atol=1e-12)
        assert_allclose(_scores(head, [0.25], [0], [[0]]), [0.5], rtol=0,
                        atol=1e-12)

    def test_qat_type_adds_third_channel(self):
        head = scoring_head("qat_type")
        assert_allclose(_scores(head, [0.2, 0.3, 0.4], [0, 1, 2], [[0, 1, 2]]),
                        [0.9], rtol=0, atol=1e-12)
        with pytest.raises(IndexError):
            _scores(scoring_head("qat"), [0.2, 0.3, 0.4], [0, 1, 2],
                    [[0, 1, 2]])

    def test_scores_add_scaled_channels_left_to_right(self):
        rng = np.random.default_rng(3)
        for mode, width in (("qas", 2), ("qat", 2), ("qat_type", 3)):
            head = scoring_head(mode)
            weights = rng.normal(size=width)
            head.W.data[...] = weights
            cos = rng.uniform(-1.0, 1.0, size=(50, width))
            got = _scores(head, cos.ravel(), list(range(width)) * 50,
                          np.arange(50 * width).reshape(50, width))
            for row_cos, score in zip(cos, got):
                total = float(weights[0]) * float(row_cos[0])
                for w, c in zip(weights[1:], row_cos[1:]):
                    total += float(w) * float(c)
                assert score == total, mode

    def test_combine_has_the_composed_scores_bits(self):
        rng = np.random.default_rng(4)
        for mode, width in (("qas", 2), ("qat", 2), ("qat_type", 3)):
            head = scoring_head(mode)
            head.W.data[...] = rng.normal(size=width)
            cos = rng.uniform(-1.0, 1.0, size=40)
            channels = rng.integers(0, width, size=40)
            rows = rng.integers(0, 40, size=(25, width))
            assert (head.combine(cos, channels, rows).tobytes()
                    == composed_head_scores(head, Tensor(cos), channels,
                                            rows).data.tobytes()), mode

    def test_parameter_names(self):
        for mode, width in (("qas", 2), ("qat", 2), ("qat_type", 3)):
            params = scoring_head(mode).parameters()
            assert list(params) == ["e2e.head.W"]
            assert params["e2e.head.W"].shape == (width,)


class TestSubjectText:
    def test_plain_alias(self):
        kb = song_kb()
        assert subject_text(kb, "m.0a1", False) == "yesterday"

    def test_type_prefixed_label(self):
        kb = build_kb(
            [Fact("m.0x1", "/music/recording/artist", "m.0y1")],
            [("m.0x1", "germany")],
            [("m.0x1", "musical recording")],
        )
        assert subject_text(kb, "m.0x1", True) == "musical recording germany"

    def test_untyped_entity_falls_back_to_alias(self):
        kb = build_kb(
            [Fact("m.0x1", "/music/recording/artist", "m.0y1")],
            [("m.0x1", "germany")],
        )
        assert subject_text(kb, "m.0x1", True) == "germany"


def _fact_score(model, kb, question, fact):
    """The record a fresh session gives ``fact`` among a question's
    answers."""
    session = E2EStrategy(model, kb, build_index(kb))
    (fs,) = [fs for fs in session.top(question, k=99) if fs.fact == fact]
    return fs


class TestScoreFact:
    """A fact's channel and combined scores as answering reports them."""

    def test_channels_and_combination(self):
        kb = song_kb()
        m = fresh(E2EModel, ["yesterday", "music", "recording", "artist"],
                  small_cfg(), np.random.default_rng(9), variant=E2EVariant())
        fs = _fact_score(m, kb, "yesterday", kb.facts[0])
        assert fs.s_qt is None
        assert_allclose(fs.combined, fs.s_qs + fs.s_qp, rtol=0, atol=1e-12)
        q_vec = _encode_one(m, tokenize("yesterday"))
        enc_subj = _encode_one(m, tokenize("yesterday"))
        assert_allclose(fs.s_qs,
                        float(cosine(Tensor(q_vec), Tensor(enc_subj)).data),
                        rtol=0, atol=1e-12)

    def test_identical_texts_score_one(self):
        kb = song_kb()
        m = fresh(E2EModel, ["yesterday", "music", "recording", "artist"],
                  small_cfg(), np.random.default_rng(9), variant=E2EVariant())
        fs = _fact_score(m, kb, "yesterday", kb.facts[0])
        assert abs(np.linalg.norm(_encode_one(m, ["yesterday"]))) > 0
        assert_allclose(fs.s_qs, 1.0, rtol=0, atol=1e-9)

    def test_type_channel_present_for_task_variant(self):
        kb = song_kb()
        variant = VARIANTS["qa-t-mwt"]
        m = fresh(E2EModel, ["yesterday"], small_cfg(),
                  np.random.default_rng(9), variant=variant)
        fs = _fact_score(m, kb, "yesterday", kb.facts[0])
        assert fs.s_qt is not None
        assert_allclose(fs.combined, fs.s_qs + fs.s_qp + fs.s_qt,
                        rtol=0, atol=1e-12)

    def test_untyped_subject_gets_zero_type_score(self, caplog):
        kb = build_kb([Fact("m.0x1", "/a/b/c", "m.0y1")], [("m.0x1", "thing")])
        variant = VARIANTS["qa-t-mwt"]
        m = fresh(E2EModel, ["thing"], small_cfg(), np.random.default_rng(9),
                  variant=variant)
        caplog.set_level(logging.DEBUG, logger="qakb.nn.layers")
        fs = _fact_score(m, kb, "thing", kb.facts[0])
        assert fs.s_qt == 0.0
        assert "zero-norm" not in caplog.text

    def test_relation_scored_by_path_segments(self):
        kb = build_kb([Fact("m.0x1", "/music/recording/artist", "m.0y1")],
                      [("m.0x1", "music recording artist")])
        m = fresh(E2EModel, ["music", "recording", "artist"], small_cfg(),
                  np.random.default_rng(9), variant=E2EVariant())
        fs = _fact_score(m, kb, "music recording artist", kb.facts[0])
        assert_allclose(fs.s_qp, 1.0, rtol=0, atol=1e-9)


class TestWeightSharing:
    def test_one_encoder_serves_all_roles(self):
        kb = song_kb()
        m = fresh(E2EModel, ["yesterday", "music", "recording", "artist",
                             "who", "sings"], small_cfg(),
                  np.random.default_rng(9), variant=E2EVariant())
        before = {
            "question": _encode_one(m, tokenize("who sings yesterday")),
            "subject": _encode_one(m, tokenize("yesterday")),
            "predicate": _encode_one(m, ["music", "recording", "artist"]),
        }
        gate_block(m.lstm, "W", "i")[...] += 0.37
        for role, old in before.items():
            new = _encode_one(m, {
                "question": tokenize("who sings yesterday"),
                "subject": tokenize("yesterday"),
                "predicate": ["music", "recording", "artist"],
            }[role])
            assert not np.array_equal(new, old), role


class TestAnswer:
    def _trained(self, variant_name="qa-t", **cfg_overrides):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        model, _ = train_e2e(qs, kb, pools, VARIANTS[variant_name],
                             small_cfg(**cfg_overrides))
        return model, kb, build_index(kb)

    def test_returns_scored_facts_in_order(self):
        model, kb, index = self._trained()
        out = answer(model, kb, index, "who sings yesterday", k=6)
        assert len(out) == 4
        combined = [fs.combined for fs in out]
        assert combined == sorted(combined, reverse=True)
        assert {fs.fact.subject for fs in out} == {"m.0a1", "m.0c1"}

    def test_k_limits_results(self):
        model, kb, index = self._trained()
        assert len(answer(model, kb, index, "yesterday", k=1)) == 1
        assert len(answer(model, kb, index, "yesterday", k=99)) == 4

    def test_each_head_mode_answers(self):
        for name in ("qa-s", "qa-t", "qa-t-mwt"):
            model, kb, index = self._trained(name)
            out = answer(model, kb, index, "what genre is yesterday", k=1)
            assert len(out) == 1

    def test_unmatchable_question_raises(self):
        model, kb, index = self._trained()
        with pytest.raises(NoCandidates):
            answer(model, kb, index, "zzz qqq")

    def test_factless_candidate_raises(self):
        kb = build_kb(
            [Fact("m.0a1", "/a/b/c", "m.0b1")],
            [("m.0a1", "alpha"), ("m.0b1", "beta")],
        )
        qs = [make_question("alpha", kb.facts[0])]
        pools = NegativePools(subject_pools=[[]],
                              predicate_pools=[["/d/x/r"]])
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"],
                             small_cfg(epochs=1))
        with pytest.raises(NoRelation):
            answer(model, kb, build_index(kb), "beta")

    def test_out_degree_resort_flips_tied_subjects(self):
        facts = [Fact("m.0zz", "/d/x/r", f"m.0o{i}") for i in range(7)]
        facts.append(Fact("m.0aa", "/d/x/r", "m.0o9"))
        kb = build_kb(facts, [("m.0zz", "acme"), ("m.0aa", "acme")])
        qs = [make_question("acme", kb.facts[0])]
        pools = NegativePools(subject_pools=[["m.0aa"]],
                              predicate_pools=[[]])
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"],
                             small_cfg(epochs=1))
        index = build_index(kb)
        base = answer(model, kb, index, "acme", k=8)
        assert len({round(fs.combined, 9) for fs in base}) == 1
        assert base[0].fact.subject == "m.0aa"
        resorted = answer(model, kb, index, "acme", k=8, out_degree_sort=True)
        assert resorted[0].fact.subject == "m.0zz"
        assert all(fs.fact.subject == "m.0zz" for fs in resorted[:7])
        assert resorted[7].fact.subject == "m.0aa"

    def test_out_degree_resort_preserves_untied_top_score(self):
        model, kb, index = self._trained()
        base = answer(model, kb, index, "who sings yesterday", k=6)
        scores = [fs.combined for fs in base]
        assert scores[0] - scores[1] > 1e-6
        resorted = answer(model, kb, index, "who sings yesterday", k=6,
                          out_degree_sort=True)
        assert [fs.fact for fs in resorted] == [fs.fact for fs in base]


def _kb_texts(kb, variant):
    """Every token tuple a session may encode for this KB: subject labels,
    relation paths and type labels."""
    texts = {tuple(tokenize(subject_text(kb, f.subject, variant.type_in_label)))
             for f in kb.facts}
    texts |= {tuple(relation_tokens(f.relation)) for f in kb.facts}
    texts |= {tuple(tokenize(notable_type(kb, f.subject)))
              for f in kb.facts if notable_type(kb, f.subject) is not None}
    return texts


def _cached(session):
    """How many KB-text encodings a session holds."""
    return len(session.encodings)


def _graph_encode(model, tokens):
    """One text's encoding as row 0 of a graph-built ``encode_texts``."""
    return gather_rows(model.encode_texts([tokens]), 0)


def _per_fact_scores(model, kb, question, facts, variant):
    """Each fact scored on its own: every text encoded afresh through the
    graph path (``encode_texts``), one cosine per channel, and the
    weighted channels added left to right in plain floats."""
    weights = [float(w) for w in model.head.W.data]
    q_vec = _graph_encode(model, tokenize(question))

    def cos(tokens):
        return float(cosine(q_vec, _graph_encode(model, tokens)).data)

    out = []
    for fact in facts:
        channels = [cos(tokenize(subject_text(kb, fact.subject,
                                              variant.type_in_label))),
                    cos(relation_tokens(fact.relation))]
        if variant.type_as_task:
            label = notable_type(kb, fact.subject)
            channels.append(0.0 if label is None else cos(tokenize(label)))
        total = weights[0] * channels[0]
        for w, c in zip(weights[1:], channels[1:]):
            total += w * c
        out.append(FactScore(fact=fact, s_qs=channels[0], s_qp=channels[1],
                             s_qt=channels[2] if variant.type_as_task
                             else None, combined=total))
    return out


def _top_or_none(session, question, k=1):
    try:
        return session.top(question, k)
    except NoCandidates:
        return None


class TestSession:
    """A session answers exactly as fresh one-shot calls do, bit for bit,
    while encoding each KB text once."""

    @pytest.fixture(scope="class")
    def synth(self):
        kb, train, test = generate_synthetic(
            SyntheticSpec(seed=2, n_entities=10, collision_rate=0.4))
        index = build_index(kb)
        qs = train + test
        questions = [q.text for q in qs] + ["zzz qqq"]
        pools = NegativePools(
            subject_pools=[[] for _ in qs],
            predicate_pools=[[f.relation for f in kb.facts
                              if f.relation != q.gold.relation][:2]
                             for q in qs])
        return kb, index, qs, pools, questions

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_reused_session_matches_one_shot(self, synth, name):
        kb, index, qs, pools, questions = synth
        model, _ = train_e2e(qs, kb, pools, VARIANTS[name],
                             small_cfg(epochs=1))
        for od in (False, True):
            session = E2EStrategy(model, kb, index, od)
            variant = session.variant
            for _ in range(2):
                for q in questions:
                    try:
                        expect = answer(model, kb, index, q, k=50,
                                        out_degree_sort=od)
                    except NoCandidates:
                        with pytest.raises(NoCandidates):
                            session.top(q, k=50)
                        continue
                    assert session.top(q, k=50) == expect
                    # and equal to the uncached, graph-building path
                    assert expect == _per_fact_scores(
                        model, kb, q, [fs.fact for fs in expect], variant)
            assert 0 < _cached(session) <= len(_kb_texts(kb, variant))

    def test_each_kb_text_encoded_once(self, synth):
        kb, index, qs, pools, questions = synth
        variant = VARIANTS["qa-t-mwst"]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg(epochs=1))
        session = E2EStrategy(model, kb, index)
        calls = []
        encode = model.encode_text

        def counting(texts, *args):
            calls.append(list(texts))
            return encode(texts, *args)

        model.encode_text = counting
        answered = 0
        for q in questions:
            try:
                session.top(q)
                answered += 1
            except NoCandidates:
                pass
        # one call per answered question: the question's text first, then
        # one slot per text the session did not yet keep
        assert len(calls) == answered
        kb_texts = [t for texts in calls for t in texts[1:]]
        assert set(kb_texts) <= _kb_texts(kb, variant)
        assert len(kb_texts) == _cached(session)
        calls.clear()
        for q in questions:
            try:
                session.top(q)
            except NoCandidates:
                pass
        # only the questions themselves
        assert [len(texts) for texts in calls] == [1] * answered

    @pytest.mark.parametrize("name", ["qa-t-mwst", "qa-t-swt"])
    def test_one_tokenize_per_warm_question(self, synth, name, monkeypatch):
        """Once the KB texts are encoded, answering tokenizes only the
        question, once, for the retrieval and the encoder."""
        kb, index, qs, pools, questions = synth
        variant = VARIANTS[name]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg(epochs=1))
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        for module in (qakb.aliasindex, qakb.e2e):
            monkeypatch.setattr(module, "tokenize", counting)
        session = E2EStrategy(model, kb, index)

        def ask(q):
            try:
                session.top(q)
            except NoCandidates:
                pass

        for q in questions:
            ask(q)
        for q in questions:
            calls.clear()
            ask(q)
            assert calls == [q]

    def test_qas_combined_is_the_trained_score(self, synth):
        """qa-s ranks by W[0] * s_qs + W[1] * s_qp, the score its hinge
        is trained on, with no separate dot product."""
        kb, index, qs, pools, questions = synth
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-s"],
                             small_cfg(epochs=1))
        w0, w1 = (float(w) for w in model.head.W.data)
        session = E2EStrategy(model, kb, index)
        checked = 0
        for q in questions:
            try:
                scored = session.top(q, k=50)
            except NoCandidates:
                continue
            for fs in scored:
                assert fs.combined == w0 * fs.s_qs + w1 * fs.s_qp
                checked += 1
        assert checked >= 20

    def test_new_session_sees_weight_change(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        variant = VARIANTS["qa-t"]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg())
        index = build_index(kb)
        q = "who sings yesterday"
        before = E2EStrategy(model, kb, index).top(q, k=4)
        gate_block(model.lstm, "W", "i")[...] += 0.37
        after = E2EStrategy(model, kb, index).top(q, k=4)
        assert after != before
        assert after == answer(model, kb, index, q, k=4)

    def test_answers_record_no_graph(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"], small_cfg())
        session = E2EStrategy(model, kb, build_index(kb))
        encoded = []
        encode = model.encode_text

        def keeping(texts, *args):
            encoded.append(encode(texts, *args))
            return encoded[-1]

        model.encode_text = keeping
        session.top("who sings yesterday")
        # one call: the question, and every KB text the session caches
        (vecs,) = encoded
        assert type(vecs) is np.ndarray
        assert 0 < _cached(session) == len(vecs) - 1
        for vec in session.encodings.values():
            assert type(vec) is np.ndarray

    def test_cache_holds_no_question_row(self):
        """The session caches copies of the KB-text rows an answer
        encodes, so no cached encoding is a view of the array that holds
        a question's encoding, which would keep it alive."""
        kb = song_kb()
        qs, pools = song_training_set(kb)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"], small_cfg())
        session = E2EStrategy(model, kb, build_index(kb))
        encoded = []
        encode = model.encode_text

        def keeping(texts, *args):
            encoded.append(encode(texts, *args))
            return encoded[-1]

        model.encode_text = keeping
        for q in qs:
            session.top(q.text)
        assert _cached(session) > 0
        for vecs in encoded:
            for vec in session.encodings.values():
                assert not np.shares_memory(vec, vecs)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_answers_do_not_depend_on_question_order(self, synth, name):
        kb, index, qs, pools, questions = synth
        model, _ = train_e2e(qs, kb, pools, VARIANTS[name],
                             small_cfg(epochs=1))
        for od in (False, True):
            forward = E2EStrategy(model, kb, index, od)
            backward = E2EStrategy(model, kb, index, od)
            answers = {q: _top_or_none(forward, q, 50) for q in questions}
            for q in reversed(questions):
                assert _top_or_none(backward, q, 50) == answers[q]
            assert sum(a is not None for a in answers.values()) == len(qs)

    @pytest.mark.parametrize("name", ["qa-t-w", "qa-t-mwst"])
    def test_vocabulary_words_cached_once(self, synth, name, monkeypatch):
        kb, index, qs, pools, questions = synth
        model, _ = train_e2e(qs, kb, pools, VARIANTS[name],
                             small_cfg(epochs=1))
        vocab = model.words.vocab
        in_vocab = [q.text for q in qs]
        oov = [f"{text} zyzzyva" for text in in_vocab[:5]]
        assert "zyzzyva" not in vocab
        runs, gru_steps = Counter(), []
        summaries = E2EModel.char_summaries
        step = qakb.nn.layers.GRUCell.step

        def counted_summaries(self, words):
            runs.update(words)
            return summaries(self, words)

        def counted_step(self, *args):
            gru_steps.append(1)
            return step(self, *args)

        monkeypatch.setattr(E2EModel, "char_summaries", counted_summaries)
        monkeypatch.setattr(qakb.nn.layers.GRUCell, "step", counted_step)
        session = E2EStrategy(model, kb, index)
        answered = [q for q in in_vocab + oov
                    if _top_or_none(session, q) is not None]
        oov_uses = sum(q in answered for q in oov)
        # the out-of-vocabulary word runs on every use, every other once
        assert runs["zyzzyva"] == oov_uses >= 3
        assert runs.total() == oov_uses + len(session.summaries)
        assert set(session.summaries) <= set(vocab)
        for word, vec in session.summaries.items():
            assert_array_equal(vec, model.char_summaries([word])[0])
            assert type(vec) is np.ndarray
        gru_steps.clear()
        again = [_top_or_none(session, q) for q in in_vocab]
        assert any(top is not None for top in again)
        assert not gru_steps and runs["zyzzyva"] == oov_uses


class TestSessionVariantGuard:
    def test_only_out_degree_sort_may_differ(self):
        """A session answers as its model's variant; ``out_degree_sort``
        is its one answer-time switch and the only context it adds."""
        kb = song_kb()
        index = build_index(kb)
        for variant in VARIANTS.values():
            model = fresh(E2EModel, ["yesterday"], small_cfg(),
                          np.random.default_rng(0), variant=variant)
            plain = E2EStrategy(model, kb, index)
            assert plain.variant == model.variant == variant
            session = E2EStrategy(model, kb, index, True)
            assert session.variant == replace(variant, out_degree_sort=True)
            assert session.context_fields == ("out_degree",
                                              *plain.context_fields)
            assert not model.variant.out_degree_sort


class TestVariantName:
    def test_round_trips_every_named_variant(self):
        for name in VARIANTS:
            assert variant_name(VARIANTS[name]) == name
            assert variant_name(replace(VARIANTS[name],
                                        out_degree_sort=True)) == name

    def test_unnamed_switches_rejected(self):
        with pytest.raises(ValueError):
            variant_name(E2EVariant(qas_head=True, char_level=True))


class TestTrainE2E:
    def test_empty_dataset_raises(self):
        kb = song_kb()
        with pytest.raises(EmptyTrainingSet):
            train_e2e([], kb, NegativePools(), VARIANTS["qa-t"],
                      small_cfg())

    def test_loss_curve_length(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        _, curve = train_e2e(qs, kb, pools, VARIANTS["qa-t"],
                             small_cfg(epochs=3))
        assert len(curve) == 3

    def test_loss_decreases_on_toy_set(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        _, curve = train_e2e(qs, kb, pools, VARIANTS["qa-t"],
                             small_cfg(epochs=8, learning_rate=0.01, seed=7))
        assert curve[-1] < curve[0]

    def test_qas_weight_vector_moves(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-s"],
                             small_cfg(epochs=3, learning_rate=0.01))
        assert not np.array_equal(model.head.W.data, np.ones(2))

    def test_type_task_weight_moves(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t-mwt"],
                             small_cfg(epochs=3, learning_rate=0.01))
        assert float(model.head.W.data[TYPE]) != 1.0

    def test_empty_pools_raise(self):
        """With no negative anywhere every step would be skipped, and the
        model would come back untrained with a loss curve of zeros."""
        kb = song_kb()
        qs, _ = song_training_set(kb)
        pools = NegativePools(subject_pools=[[] for _ in qs],
                              predicate_pools=[[] for _ in qs])
        with pytest.raises(EmptyTrainingSet, match="no question has a "
                           "negative"):
            train_e2e(qs, kb, pools, VARIANTS["qa-t"], small_cfg(epochs=2))

    @pytest.mark.parametrize("side", ["subject_pools", "predicate_pools"])
    def test_one_pool_per_question_required(self, side):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        short = replace(pools, **{side: getattr(pools, side)[:-1]})
        with pytest.raises(ValueError, match="one predicate pool each"):
            train_e2e(qs, kb, short, VARIANTS["qa-t"], small_cfg(epochs=1))

    def test_single_sided_pools_still_train(self):
        kb = song_kb()
        qs, full = song_training_set(kb)
        pools = NegativePools(subject_pools=[[] for _ in qs],
                              predicate_pools=full.predicate_pools)
        for name in ("qa-s", "qa-t", "qa-t-mwt"):
            _, curve = train_e2e(qs, kb, pools, VARIANTS[name],
                                 small_cfg(epochs=1))
            assert curve[0] > 0.0, name

    def test_same_seed_is_bit_identical(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        m1, c1 = train_e2e(qs, kb, pools, VARIANTS["qa-t-w"], small_cfg())
        m2, c2 = train_e2e(qs, kb, pools, VARIANTS["qa-t-w"], small_cfg())
        assert c1 == c2
        for name, t in m1.parameters().items():
            assert_array_equal(t.data, m2.parameters()[name].data)

    def test_seed_changes_outcome(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        _, c1 = train_e2e(qs, kb, pools, VARIANTS["qa-t"], small_cfg(seed=1))
        _, c2 = train_e2e(qs, kb, pools, VARIANTS["qa-t"], small_cfg(seed=2))
        assert c1 != c2


def _per_text_loss(model, kb, q, neg_subject, neg_pred, cfg, rng):
    """One question's loss as it was computed before batching: every use
    of a text encoded on its own, in train mode with its own dropout mask,
    and the cosines, channel scores and hinges built per question from
    the head's weights."""
    variant, head = model.variant, model.head

    def encode(tokens):
        vec = _graph_encode(model, tokens)
        if cfg.dropout_p > 0.0:
            vec = vec * dropout_mask(vec.shape, cfg.dropout_p, rng)
        return vec

    def enc_subject(entity):
        return encode(tokenize(subject_text(kb, entity, variant.type_in_label)))

    def enc_relation(relation):
        return encode(relation_tokens(relation))

    q_vec = encode(tokenize(q.text))
    pos_s = cosine(q_vec, enc_subject(q.gold.subject))
    pos_p = cosine(q_vec, enc_relation(q.gold.relation))
    if head.mode == "qas":
        if neg_subject is None and neg_pred is None:
            return None
        neg_s = pos_s if neg_subject is None else cosine(
            q_vec, enc_subject(neg_subject))
        neg_p = pos_p if neg_pred is None else cosine(
            q_vec, enc_relation(neg_pred))
        w_s, w_p = gather_rows(head.W, 0), gather_rows(head.W, 1)
        return loss_hinge_qas(w_s * pos_s + w_p * pos_p,
                              w_s * neg_s + w_p * neg_p, cfg.gamma)
    neg_s = None if neg_subject is None else cosine(
        q_vec, enc_subject(neg_subject))
    neg_p = None if neg_pred is None else cosine(q_vec, enc_relation(neg_pred))
    type_pair = None
    if head.mode == "qat_type" and neg_subject is not None:
        t_pos = notable_type(kb, q.gold.subject)
        t_neg = notable_type(kb, neg_subject)
        if t_pos is not None and t_neg is not None:
            type_pair = (cosine(q_vec, encode(tokenize(t_pos))),
                         cosine(q_vec, encode(tokenize(t_neg))))
    w_a, w_b = gather_rows(head.W, 0), gather_rows(head.W, 1)
    if neg_s is not None and neg_p is not None:
        ss = w_a * pos_s, w_a * neg_s
        sp = w_b * pos_p, w_b * neg_p
        if type_pair is not None:
            w_c = gather_rows(head.W, 2)
            st = w_c * type_pair[0], w_c * type_pair[1]
            return loss_hinge_qat_type(*ss, *sp, *st, cfg.gamma)
        return loss_hinge_qat(*ss, *sp, cfg.gamma)
    terms = []
    if neg_s is not None:
        terms.append(loss_hinge_qas(w_a * pos_s, w_a * neg_s, cfg.gamma))
    if neg_p is not None:
        terms.append(loss_hinge_qas(w_b * pos_p, w_b * neg_p, cfg.gamma))
    if type_pair is not None:
        w_c = gather_rows(head.W, 2)
        terms.append(loss_hinge_qas(w_c * type_pair[0], w_c * type_pair[1],
                                    cfg.gamma))
    return sum(terms[1:], terms[0]) if terms else None


def _per_text_train(dataset, kb, pools, variant, cfg):
    """train_e2e with every loss from :func:`_per_text_loss`; returns the
    model, the loss curve and the generator both drew from."""
    from qakb.e2e import _PoolSampler

    rng = np.random.default_rng(cfg.seed)
    model = fresh(E2EModel, _training_vocab(dataset, kb), cfg, rng,
                  variant=variant)
    subj = [_PoolSampler(p, rng) for p in pools.subject_pools]
    pred = [_PoolSampler(p, rng) for p in pools.predicate_pools]

    def batch_loss(batch):
        losses = []
        for i in batch:
            loss = _per_text_loss(model, kb, dataset[i],
                                  subj[i].draw() if i < len(subj) else None,
                                  pred[i].draw() if i < len(pred) else None,
                                  cfg, rng)
            if loss is not None:
                losses.append(loss)
        return (sum(losses[1:], losses[0]) if losses else None), len(losses)

    curve = fit(model.parameters(), len(dataset), batch_loss, cfg, rng, "e2e")
    return model, curve, rng


# every branch of the per-question loss: both negatives, one of them, none
_NEGATIVES = [(0, 0), (None, 0), (0, None), (None, None)]


def _step_gradients(model, kb, qs, pools, cfg, batched):
    """Parameter gradients of one step's summed loss over ``qs`` with the
    negatives of ``_NEGATIVES``, and the generator's next draw."""
    rng = np.random.default_rng(5)
    params = model.parameters()
    for p in params.values():
        p.grad = None
    negs = [(None if s is None else pools.subject_pools[i][s],
             None if p is None else pools.predicate_pools[i][p])
            for i, (s, p) in enumerate(_NEGATIVES)]
    if batched:
        step = _StepBatch(model, kb, rng)
        for q, (s, p) in zip(qs, negs):
            step.add(q, s, p)
        total = step.loss()
    else:
        losses = [_per_text_loss(model, kb, q, s, p, cfg, rng)
                  for q, (s, p) in zip(qs, negs)]
        losses = [loss for loss in losses if loss is not None]
        total = sum(losses[1:], losses[0])
    total.backward()
    grads = {k: None if p.grad is None else p.grad.copy()
             for k, p in params.items()}
    return float(total.data), grads, rng.random()


def _assert_grads_match(batched, oracle):
    assert batched.keys() == oracle.keys()
    for k, g in oracle.items():
        if g is None:
            assert batched[k] is None, k
            continue
        assert np.abs(batched[k] - g).max() <= 1e-12 * np.abs(g).max(), k


def _planned_step(name, dropout_p, negatives=_NEGATIVES + _NEGATIVES[:1] * 2):
    """A joint-model step of ``name`` planned over the song questions,
    then the first two again, with the negatives of ``negatives`` (by
    default every branch of ``_NEGATIVES``, then both negatives twice),
    so the same texts are used by several pairs; and a leaf of random
    encodings of its texts."""
    kb = song_kb()
    qs, pools = song_training_set(kb)
    cfg = small_cfg(dropout_p=dropout_p)
    model = fresh(E2EModel, _training_vocab(qs, kb), cfg,
                  np.random.default_rng(3), variant=VARIANTS[name])
    model.head.W.data[...] = np.random.default_rng(8).normal(
        size=model.head.W.shape)
    step = _StepBatch(model, kb, np.random.default_rng(5))
    negs = [(None if s is None else pools.subject_pools[i % 4][s],
             None if p is None else pools.predicate_pools[i % 4][p])
            for i, (s, p) in enumerate(negatives)]
    for q, (s, p) in zip(qs + qs[:2], negs):
        step.add(q, s, p)
    others = Counter(step.use_text[u] for _, u in step.pairs)
    assert max(others.values()) > 2
    encoded = param(np.random.default_rng(21).normal(
        size=(len(step.texts), cfg.hidden_size)))
    return step, encoded


class TestHeadLoss:
    """The joint model's loss after the encoder is one graph node with
    the bits and the gradients of the nodes it was made of."""

    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["qa-s", "qa-t", "qa-t-mwt"])
    def test_has_the_composed_ops_bits(self, name, dropout_p):
        """The loss and the gradients of the encodings and of the head's
        weights, from none and from earlier gradients."""
        step, encoded = _planned_step(name, dropout_p)
        W = step.model.head.W
        assert step.model.head.mode == VARIANTS[name].head_mode
        assert bool(step.masks) == (dropout_p > 0.0)
        assert_fused_bits(lambda: step.head_loss(encoded),
                          lambda: composed_head_loss(step, encoded),
                          [encoded, W], 0.25)
        rng = np.random.default_rng(2)
        assert_fused_bits(lambda: step.head_loss(encoded),
                          lambda: composed_head_loss(step, encoded),
                          [encoded, W], 0.25,
                          [rng.normal(size=encoded.shape),
                           rng.normal(size=W.shape)])

    @pytest.mark.parametrize("negatives", [[(0, 0)] * 4, [(None, 0)] * 4])
    def test_marks_the_head_rows_the_composed_ops_mark(self, negatives):
        """The head's ``grad_rows``, which Adam reads: in a step with no
        negative subject, and so no type term, the type weight's row is
        not marked."""
        step, encoded = _planned_step("qa-t-mwt", 0.0, negatives)
        W = step.model.head.W
        marked = []
        for build in (lambda: step.head_loss(encoded),
                      lambda: composed_head_loss(step, encoded)):
            W.grad = W.grad_rows = None
            build().backward()
            marked.append(W.grad_rows.tolist())
        assert marked[0] == marked[1]
        assert marked[0][TYPE] == (negatives[0][0] is not None)

    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["qa-s", "qa-t", "qa-t-mwt"])
    def test_gradcheck(self, name, dropout_p):
        step, encoded = _planned_step(name, dropout_p)
        assert finite_diff_check(lambda: step.head_loss(encoded),
                                 [encoded, step.model.head.W]) < 1e-4


class TestBatchedStep:
    """One optimizer step encodes its distinct texts once, as one batch,
    and gives the per-text path's loss, gradients and generator stream."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_gradients_match_per_text_oracle(self, name):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        cfg = small_cfg(dropout_p=0.3)
        model = fresh(E2EModel, _training_vocab(qs, kb), cfg,
                      np.random.default_rng(3), variant=VARIANTS[name])
        loss, grads, draw = _step_gradients(model, kb, qs, pools, cfg, True)
        o_loss, o_grads, o_draw = _step_gradients(model, kb, qs, pools, cfg,
                                                  False)
        assert draw == o_draw
        assert loss == pytest.approx(o_loss, rel=1e-12)
        _assert_grads_match(grads, o_grads)
        assert grads["e2e.lstm.W"] is not None

    @pytest.mark.parametrize("name", ["qa-s", "qa-t", "qa-t-mwst"])
    def test_epoch_matches_per_text_training(self, name, monkeypatch):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        cfg = small_cfg(epochs=1, dropout_p=0.3)
        o_model, o_curve, o_rng = _per_text_train(qs, kb, pools,
                                                  VARIANTS[name], cfg)
        made = []
        default_rng = np.random.default_rng

        def recording(*args):
            made.append(default_rng(*args))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        model, curve = train_e2e(qs, kb, pools, VARIANTS[name], cfg)
        monkeypatch.undo()
        assert made[0].random() == o_rng.random()
        assert curve == pytest.approx(o_curve, rel=1e-12)
        for k, p in model.parameters().items():
            assert_allclose(p.data, o_model.parameters()[k].data,
                            rtol=1e-9, atol=1e-12, err_msg=k)

    def test_unusable_questions_still_draw_their_masks(self):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        cfg = small_cfg(dropout_p=0.3)
        model = fresh(E2EModel, _training_vocab(qs, kb), cfg,
                      np.random.default_rng(3), variant=VARIANTS["qa-t"])
        rng = np.random.default_rng(5)
        step = _StepBatch(model, kb, rng)
        assert not step.add(qs[0], None, None)
        assert step.loss() is None and step.questions == 0
        # the question, its subject and its relation were each masked
        expect = np.random.default_rng(5)
        expect.random((3, cfg.hidden_size))
        assert rng.random() == expect.random()

    @pytest.mark.parametrize("name, nodes", [("qa-s", 9), ("qa-t", 9),
                                             ("qa-t-mwst", 13)])
    def test_graph_nodes_per_question_step(self, name, nodes, monkeypatch):
        """A deterministic count, so un-batching training, or building
        the loss from small nodes again, fails here even where timings
        are too noisy to tell (the per-text path made 107 and 215 nodes
        per question-step here, the composed loss 6 and 7).  A step of
        four questions makes the encoder's nodes (word gather, text
        gather, recurrent run, padding, reshape to a stack of one-row
        slots, dense and reshape back; with char mode also the char
        gather, char-GRU run, concat and self-attention), the loss node
        and the scaling of the loss by one over the count: 2.25 and 3.25
        nodes per question-step."""
        kb = song_kb()
        qs, pools = song_training_set(kb)
        made = [0]
        make = qakb.nn.tensor._make

        def counting(*args):
            made[0] += 1
            return make(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("qakb") and getattr(module, "_make",
                                                          None) is make:
                monkeypatch.setattr(module, "_make", counting)
        assert qakb.e2e._make is counting
        assert qakb.nn.losses._make is counting
        train_e2e(qs, kb, pools, VARIANTS[name],
                  small_cfg(epochs=1, batch_size=len(qs)))
        assert made[0] == nodes


class TestCharReuse:
    """Within one optimizer step each distinct word's char-GRU runs once,
    in one batched run, and the shared summary's gradient sums over all
    its uses."""

    def test_each_distinct_word_runs_once_per_batch(self, monkeypatch):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        runs, uses = [], Counter()
        encode_words = E2EModel.encode_words
        loss = _StepBatch.loss

        def counted_words(self, words):
            runs.append(list(words))
            return encode_words(self, words)

        def counted_loss(self):
            texts = list(self.texts)
            for t in self.use_text:
                uses.update(texts[t])
            return loss(self)

        monkeypatch.setattr(E2EModel, "encode_words", counted_words)
        monkeypatch.setattr(_StepBatch, "loss", counted_loss)
        train_e2e(qs, kb, pools, VARIANTS["qa-t-mwst"],
                  small_cfg(epochs=1, batch_size=len(qs)))
        assert len(runs) == 1
        (words,) = runs
        assert len(words) == len(set(words))
        assert set(words) == set(uses)
        assert sum(uses.values()) > 3 * len(uses)

    @pytest.mark.parametrize("name", ["qa-t-w", "qa-t-mwst"])
    def test_gradients_equal_per_occurrence_encoding(self, name):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        cfg = small_cfg()
        model = fresh(E2EModel, _training_vocab(qs, kb), cfg,
                      np.random.default_rng(3), variant=VARIANTS[name])
        _, shared, _ = _step_gradients(model, kb, qs, pools, cfg, True)
        _, unshared, _ = _step_gradients(model, kb, qs, pools, cfg, False)
        assert shared["e2e.chars"] is not None
        _assert_grads_match(shared, unshared)


def _old_training_vocab(dataset, kb):
    """The vocabulary as built before each distinct label was split once."""
    toks = set()
    for q in dataset:
        toks.update(tokenize(q.text))
    for rec in kb.entities.values():
        for alias in rec.aliases:
            toks.update(tokenize(alias))
        if rec.notable_type is not None:
            toks.update(tokenize(rec.notable_type))
    for fact in kb.facts:
        toks.update(relation_tokens(fact.relation))
    return sorted(toks)


class TestCharVocab:
    @given(st.lists(st.one_of(st.just(OOV_TOKEN),
                              st.text(alphabet="<ov>aé中", max_size=5),
                              st.text(max_size=5)), max_size=12),
           st.data())
    def test_every_character_but_the_unknown_tokens_sorted(self, words,
                                                            data):
        """The sorted characters of the words but the unknown token, as a
        set comprehension over each word finds them: with the unknown
        token's own characters in other words, repeated words and
        characters outside ASCII."""
        words += data.draw(st.lists(st.sampled_from(words), max_size=3)
                           if words else st.just([]))
        assert char_vocab(words) == sorted(
            {ch for tok in words if tok != OOV_TOKEN for ch in tok})
        assert char_vocab(iter(words)) == char_vocab(words)


class TestTrainingVocab:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_equals_walking_every_fact_and_entity(self, seed):
        kb, train, test = generate_synthetic(
            SyntheticSpec(seed=seed, n_entities=80, n_relations=9))
        assert _training_vocab(train, kb) == _old_training_vocab(train, kb)
        assert _training_vocab(test[:3], kb) == _old_training_vocab(test[:3],
                                                                    kb)

    def test_tiny_kb_from_its_index(self, tiny_kb):
        """Alias tokens read off the index's exact keys, here with
        punctuation tokens, equal every alias tokenized again."""
        qs = [make_question("where was obama born?",
                            Fact("m.02mjmr", "/people/person/place_of_birth",
                                 "m.02hrh0_"))]
        index = build_index(tiny_kb)
        for dataset in (qs, []):
            assert _training_vocab(dataset, tiny_kb, index) == \
                _old_training_vocab(dataset, tiny_kb)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_colliding_synth_kb_from_its_index(self, seed):
        kb, train, _ = generate_synthetic(SyntheticSpec(
            seed=seed, n_entities=60, n_relations=7, collision_rate=0.5))
        assert _training_vocab(train, kb, build_index(kb)) == \
            _old_training_vocab(train, kb)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        variant = VARIANTS["qa-t-mwt"]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg())
        path = str(tmp_path / "model.nn")
        save_model(model, path)
        loaded = load_model(E2EModel, path)
        assert loaded.variant == variant
        assert loaded.cfg == model.cfg
        for name, t in model.parameters().items():
            assert_array_equal(loaded.parameters()[name].data, t.data)

    def test_round_trip_answers_match(self, tmp_path):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        variant = VARIANTS["qa-t-ws"]
        model, _ = train_e2e(qs, kb, pools, variant, small_cfg())
        path = str(tmp_path / "model.nn")
        save_model(model, path)
        loaded = load_model(E2EModel, path)
        index = build_index(kb)
        a = answer(model, kb, index, "what genre is yesterday", k=4)
        b = answer(loaded, kb, index, "what genre is yesterday", k=4)
        assert [(fs.fact, fs.combined) for fs in a] == \
            [(fs.fact, fs.combined) for fs in b]

    def test_wrong_kind_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        matcher = fresh(MatcherModel, ["a", "b"], small_cfg(), rng)
        path = str(tmp_path / "model.nn")
        save_model(matcher, path)
        with pytest.raises(ValueError):
            load_model(E2EModel, path)

    def test_save_is_byte_stable(self, tmp_path):
        kb = song_kb()
        qs, pools = song_training_set(kb)
        model, _ = train_e2e(qs, kb, pools, VARIANTS["qa-t"],
                             small_cfg(epochs=1))
        p1, p2 = str(tmp_path / "a.nn"), str(tmp_path / "b.nn")
        save_model(model, p1)
        save_model(model, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
        with open(p1 + ".meta.json", "rb") as f1, \
                open(p2 + ".meta.json", "rb") as f2:
            assert f1.read() == f2.read()
