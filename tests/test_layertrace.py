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

from qakb.aliasindex import build_index, tokenize
from qakb.evalharness import SyntheticSpec, generate_synthetic
from qakb.nn import TrainConfig
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
        tagger=TaggerModel(vocab, cfg, rng),
        relation_matcher=MatcherModel(vocab, cfg, rng, name="relation"),
        type_matcher=MatcherModel(vocab, cfg, rng, name="type"))
    strategy = PipelineStrategy("p-qa-out-type", models, kb, build_index(kb))
    strategy.answer(train[0].text)
    assert set(calls) == PIPELINE_ANSWER_TARGETS
