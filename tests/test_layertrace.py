"""The benchmark's trace hooks still find every ``qakb`` name they wrap.

``perfbench/layertrace.py`` wraps functions and methods by name; one that
a refactor renames or drops zeroes the per-layer metrics that read it.
This catches that in the unit suite instead of only in the benchmark's
own self-check.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

import numpy as np
from conftest import fresh

from qakb.aliasindex import build_index, tokenize
from qakb.e2e import VARIANTS, E2EModel, E2EStrategy
from qakb.evalharness import SyntheticSpec, generate_synthetic
from qakb.nn.config import TrainConfig
from qakb.pipeline import (MatcherModel, PipelineModels, PipelineStrategy,
                           TaggerModel)

LAYERTRACE = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "layertrace.py")


def _load_layertrace(monkeypatch):
    name = "_perfbench_layertrace"
    spec = importlib.util.spec_from_file_location(name, LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    layertrace = _load_layertrace(monkeypatch)
    assert layertrace.TARGETS
    missing = [f"{t.module}.{t.attr}" for t in layertrace.TARGETS
               if layertrace._resolve(t) is None]
    assert missing == []


# the per-layer metrics of the ``answer:pipeline`` root and the targets
# they read, each of which one pipeline answer must pass through
PIPELINE_ANSWER_LAYERS = {"pipeline.tag", "pipeline.match",
                          "pipeline.matcher_encode", "nn.layers.rnn_steps"}
PIPELINE_ANSWER_TARGETS = {
    "qakb.pipeline.tag_question", "qakb.pipeline.MatcherModel.score",
    "qakb.pipeline.MatcherModel.encode", "qakb.nn.layers.LSTMCell.step",
    "qakb.nn.layers.GRUCell.step"}


def test_pipeline_answer_reaches_every_hook(monkeypatch):
    """One ``PipelineStrategy.answer`` calls every name the pipeline's
    answering metrics read.  A fused path that went round one of them
    would leave its metric at 0 without failing anything else."""
    layertrace = _load_layertrace(monkeypatch)
    calls = Counter()
    wrapped = set()
    for target in layertrace.TARGETS:
        if target.layer not in PIPELINE_ANSWER_LAYERS:
            continue
        owner, key, original = layertrace._resolve(target)
        name = f"{target.module}.{target.attr}"
        wrapped.add(name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, key, counting)
    assert wrapped == PIPELINE_ANSWER_TARGETS

    kb, train, _ = generate_synthetic(SyntheticSpec(seed=4, n_entities=12))
    vocab = sorted({t for q in train for t in tokenize(q.text)})
    cfg = TrainConfig(hidden_size=4, embed_dim=4)
    rng = np.random.default_rng(0)
    models = PipelineModels(
        tagger=fresh(TaggerModel, vocab, cfg, rng),
        relation_matcher=fresh(MatcherModel, vocab, cfg, rng, name="relation"),
        type_matcher=fresh(MatcherModel, vocab, cfg, rng, name="type"))
    strategy = PipelineStrategy("p-qa-out-type", models, kb, build_index(kb))
    strategy.answer(train[0].text)
    assert set(calls) == PIPELINE_ANSWER_TARGETS


# the per-layer metrics of an ``answer:qa-t-mwst`` root and the targets
# they read, each of which one joint-model answer must pass through
E2E_ANSWER_TARGETS = {
    "qakb.e2e.E2EModel.encode_text", "qakb.nn.layers.LSTMCell.step",
    "qakb.nn.layers.GRUCell.step",
    "qakb.aliasindex.retrieve_question_candidates"}


def test_e2e_answer_reaches_every_hook(monkeypatch):
    """One ``E2EStrategy.answer`` on a fresh qa-t-mwst session calls every
    name the joint model's answering metrics read.  A function target is
    wrapped in every ``qakb`` module that imported it, as the tracer
    does."""
    layertrace = _load_layertrace(monkeypatch)
    calls = Counter()
    for target in layertrace.TARGETS:
        name = f"{target.module}.{target.attr}"
        if name not in E2E_ANSWER_TARGETS:
            continue
        owner, key, original = layertrace._resolve(target)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, key, counting)
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "qakb":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)

    kb, train, _ = generate_synthetic(
        SyntheticSpec(seed=4, n_entities=12, twin_type_distinct=True))
    vocab = sorted({t for q in train for t in tokenize(q.text)})
    variant = VARIANTS["qa-t-mwst"]
    model = fresh(E2EModel, vocab, TrainConfig(hidden_size=4, embed_dim=4,
                                               char_dim=3, max_len=6),
                  np.random.default_rng(0), variant=variant)
    E2EStrategy(model, kb, build_index(kb)).answer(train[0].text)
    assert set(calls) == E2E_ANSWER_TARGETS
