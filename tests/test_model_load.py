"""Loading a model snapshot builds the model from the arrays it holds.

For the tagger, both matchers and every joint-model variant: a loaded
model holds the saved bits in writable arrays of its own and answers as
the model that was saved; loading draws no random number; a sidecar
that gives another shape than the table holds, or a vocabulary that is
not a list of strings, is refused; and a new model, built from the same
layout, makes the draws it always made.
"""

import contextlib
import hashlib
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import fresh

from qakb import datagen, e2e, pipeline
from qakb.aliasindex import build_index
from qakb.cli import main
from qakb.errors import ShapeMismatch
from qakb.evalharness import answer_record
from qakb.kb import load_kb
from qakb.nn import layers
from qakb.nn.config import TrainConfig
from qakb.nn.io import (load_model, load_params, meta_path,
                       save_model, save_params)
from qakb.nn.tensor import Tensor

CFG = TrainConfig(epochs=1, hidden_size=4, embed_dim=6, char_dim=5,
                  max_len=6, seed=3)
PIPELINE_MODELS = ("tagger", "relation", "type")
MODELS = PIPELINE_MODELS + tuple(e2e.VARIANTS)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The KB, its index, the question texts, every model held in memory
    and its snapshot's path, and the KB snapshot's path, on a small
    synthetic benchmark."""
    root = tmp_path_factory.mktemp("load")
    assert main(["synth", "--seed", "1", "--entities", "14",
                 "--relations", "3", "--out", str(root / "bench")]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--kb", str(root / "bench" / "kb.qakb"),
                     "--questions", str(root / "bench" / "train.tsv"),
                     "--out", str(root / "data")]) == 0
    kb = load_kb(str(root / "bench" / "kb.qakb"))
    index = build_index(kb)
    with open(root / "bench" / "train.tsv", encoding="utf-8") as fh:
        questions = datagen.parse_questions_tsv(fh)
    models = {
        "tagger": pipeline.train_tagger(datagen.read_labeled_questions(
            str(root / "data" / "tagged.tsv")), CFG)[0]}
    for name in ("relation", "type"):
        pairs = datagen.read_matcher_pairs(
            str(root / "data" / f"{name}_pairs.tsv"))
        models[name] = pipeline.train_matcher(pairs, CFG, name=name)[0]
    pools = datagen.build_negative_pools(questions, kb, index, CFG.seed)
    for name, variant in e2e.VARIANTS.items():
        models[name] = e2e.train_e2e(questions, kb, pools, variant, CFG,
                                     index)[0]
    paths = {name: str(root / f"{name}.nn") for name in models}
    for name, model in models.items():
        save_model(model, paths[name])
    return SimpleNamespace(kb=kb, index=index,
                           texts=[q.text for q in questions], models=models,
                           paths=paths, kb_path=str(root / "bench" / "kb.qakb"))


def _cls(name):
    if name == "tagger":
        return pipeline.TaggerModel
    return pipeline.MatcherModel if name in PIPELINE_MODELS else e2e.E2EModel


@pytest.mark.parametrize("name", MODELS)
def test_loaded_parameters_are_the_saved_bits(trained, name):
    model = trained.models[name]
    loaded = load_model(_cls(name), trained.paths[name])
    assert loaded.meta() == model.meta()
    want, got = model.parameters(), loaded.parameters()
    assert list(got) == list(want)
    for key, tensor in got.items():
        arr = tensor.data
        assert arr.dtype == np.float64 and arr.shape == want[key].shape
        assert arr.tobytes() == want[key].data.tobytes(), key
        assert arr.flags.writeable and arr.flags.aligned, key
        assert arr.flags.c_contiguous and arr.base is None, key
        assert tensor.requires_grad, key


@pytest.mark.parametrize("name", MODELS)
def test_layout_shapes_are_the_trained_model_s(trained, name):
    """Each part a sidecar's layout names, built by its layer from arrays
    the layer draws, holds exactly the parameters, by name and shape,
    that its ``shapes`` gives from the same arguments.  The model that
    training builds from the same vocabulary and config has those parts'
    shapes, and its :meth:`parameters` are its own parts', in layout
    order."""
    model = trained.models[name]
    _, parts = type(model).layout({"kind": model.kind, **model.meta()})
    rng = np.random.default_rng(0)
    shapes, own = [], []
    for attribute, layer, *args in parts:
        part = layer(layer.draw(rng, *args), *args)
        want = list(layer.shapes(*args).items())
        assert [(key, p.data.shape)
                for key, p in part.parameters().items()] == want, attribute
        shapes += want
        own += getattr(model, attribute).parameters().items()
    got = list(model.parameters().items())
    assert [(key, p.data.shape) for key, p in got] == shapes
    assert [(key, id(p)) for key, p in got] == [(key, id(p))
                                               for key, p in own]


# A sha256 of each new model's parameter names and bytes, in name order,
# recorded when each model drew its parts in a constructor of its own, and
# re-recorded when recurrent weights U came to be stored as [h, G*h]: the
# same draws, transposed.
DRAW_PINS = {
    "tagger":
        "428a5097040c1ea3d39d9c982b17b2d55fff05e60c33eaf8ae8050123b1f8b04",
    "relation":
        "6401a9c439127a642df95d3726002c4fc9d9483f09020ab5fcf8f3968ec6e9d5",
    "type":
        "182edc634980fc99c8022207d66a891371acb01e0969c840bc0a64d4fa472774",
    "qa-s":
        "dd3b35fd490f320d52735b00ffe358f402a102e114200d9e5acddac4b7f61c09",
    "qa-t":
        "dd3b35fd490f320d52735b00ffe358f402a102e114200d9e5acddac4b7f61c09",
    "qa-t-w":
        "0fc4e2d6515f5691829481a30a0c62f76c4aa9bcf3f067210365b5978dad52d5",
    "qa-t-ws":
        "0fc4e2d6515f5691829481a30a0c62f76c4aa9bcf3f067210365b5978dad52d5",
    "qa-t-wt":
        "0fc4e2d6515f5691829481a30a0c62f76c4aa9bcf3f067210365b5978dad52d5",
    "qa-t-swt":
        "0fc4e2d6515f5691829481a30a0c62f76c4aa9bcf3f067210365b5978dad52d5",
    "qa-t-mwt":
        "93265b1b7682243f37b913c250983fe3eb577c9d40add6741d083f5354a4270d",
    "qa-t-mwst":
        "93265b1b7682243f37b913c250983fe3eb577c9d40add6741d083f5354a4270d",
}


@pytest.mark.parametrize("name", MODELS)
def test_new_model_draws_are_pinned(name):
    """A new model drawn from one seed for a small fixed vocabulary and
    :data:`CFG` holds the :data:`DRAW_PINS` bits.  Drawing makes no BLAS
    call, so the pin holds wherever numpy's ``Generator`` does.  Variants
    of one head and char mode draw alike.  It covers the draw order of
    qa-s, qa-t-w, qa-t-ws, qa-t-wt, qa-t-swt and qa-t-mwt, which
    ``test_trained_bytes`` does not pin."""
    model = fresh(_cls(name), ["acme", "capital", "founded", "germany", "who"],
                  CFG, np.random.default_rng(CFG.seed),
                  variant=e2e.VARIANTS.get(name), name=name)
    params = model.parameters()
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode("utf-8") + params[key].data.tobytes())
    assert h.hexdigest() == DRAW_PINS[name]


def test_loaded_models_answer_alike(trained):
    kb, index, models = trained.kb, trained.index, trained.models

    def records(strategy):
        return [answer_record(strategy, text) for text in trained.texts]

    loaded = {name: load_model(_cls(name), trained.paths[name])
              for name in MODELS}
    for strategy in pipeline.STRATEGIES:
        stages = [pipeline.PipelineModels(*(m[name] for name
                                            in PIPELINE_MODELS))
                  for m in (models, loaded)]
        want, got = (records(pipeline.PipelineStrategy(strategy, s, kb,
                                                       index))
                     for s in stages)
        assert got == want, strategy
    for name in e2e.VARIANTS:
        want, got = (records(e2e.E2EStrategy(m[name], kb, index))
                     for m in (models, loaded))
        assert got == want, name


def test_loading_draws_nothing(trained, monkeypatch):
    """No generator is made and nothing is drawn: ``np.random.default_rng``,
    ``glorot`` and every layer's ``draw`` raise while every model loads.
    (numpy's ``Generator`` type cannot be patched; every draw of a layer
    goes through its ``draw``.)"""
    def no_draw(*args, **kwargs):
        raise AssertionError("a model load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(layers, "glorot", no_draw)
    for layer in (layers.EmbeddingTable, layers.Dense, layers.GRUCell,
                  layers.LSTMCell, e2e.ScoringHead):
        monkeypatch.setattr(layer, "draw", no_draw)
    for name in MODELS:
        load_model(_cls(name), trained.paths[name])


def _edit_sidecar(path, edit):
    with open(meta_path(path), encoding="utf-8") as fh:
        meta = json.load(fh)
    edit(meta)
    with open(meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


@pytest.mark.parametrize("name, embedding", [
    ("tagger", "tagger.embedding"), ("relation", "relation.embedding"),
    ("qa-t", "e2e.words"), ("qa-t-mwst", "e2e.words")])
def test_sidecar_vocabulary_of_another_size_is_refused(trained, tmp_path,
                                                       name, embedding):
    path = str(tmp_path / "m.nn")
    save_model(trained.models[name], path)
    _edit_sidecar(path, lambda meta: meta["vocab"].append("zzz"))
    with pytest.raises(ShapeMismatch, match=f"parameter '{embedding}': "
                                            "snapshot shape"):
        load_model(_cls(name), path)


@pytest.mark.parametrize("name, key", [
    ("tagger", "embed_dim"), ("type", "hidden_size"),
    ("qa-t-w", "char_dim"), ("qa-t", "max_len")])
def test_sidecar_config_of_another_shape_is_refused(trained, tmp_path, name,
                                                    key):
    path = str(tmp_path / "m.nn")
    save_model(trained.models[name], path)
    _edit_sidecar(path, lambda meta: meta["config"].update({key: 7}))
    with pytest.raises(ShapeMismatch, match="snapshot shape"):
        load_model(_cls(name), path)


@pytest.mark.parametrize("flags", [
    ["--pipeline", "{dir}", "--strategy", "p-qa"],
    ["--model", "{dir}/qa-t.nn", "--variant", "qa-t"]])
def test_cli_exits_2_on_a_sidecar_of_another_shape(trained, tmp_path, capsys,
                                                   flags):
    """A snapshot and its sidecar never silently disagree: ``answer``
    exits 2 and names the parameter."""
    for name in ("tagger", "relation", "qa-t"):
        save_model(trained.models[name], str(tmp_path / f"{name}.nn"))
    target = tmp_path / ("qa-t.nn" if "--model" in flags else "relation.nn")
    _edit_sidecar(str(target), lambda meta: meta["vocab"].append("zzz"))
    asked = tmp_path / "q.txt"
    asked.write_text(trained.texts[0] + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["answer", "--kb", trained.kb_path, "--questions", str(asked),
                 *(flag.format(dir=tmp_path) for flag in flags)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {target}: ")
    assert "snapshot shape" in err and "Traceback" not in err


@pytest.mark.parametrize("target, param, flags", [
    ("tagger", "tagger.fwd.U", ["--pipeline", "{dir}", "--strategy", "p-qa"]),
    ("qa-t", "e2e.lstm.U", ["--model", "{dir}/qa-t.nn", "--variant", "qa-t"])])
def test_cli_exits_2_on_a_snapshot_of_the_old_recurrent_layout(
        trained, tmp_path, capsys, target, param, flags):
    """A snapshot written before recurrent weights ``U`` were stored as
    [h, G*h] holds them as [G*h, h]: ``answer`` exits 2, naming the file,
    the parameter and both shapes, and the snapshot must be retrained."""
    for name in ("tagger", "relation", "type", "qa-t"):
        save_model(trained.models[name], str(tmp_path / f"{name}.nn"))
    path = tmp_path / f"{target}.nn"
    params = load_params(str(path))
    save_params({name: Tensor(arr.T.copy() if name.endswith(".U") else arr)
                 for name, arr in params.items()}, str(path))
    asked = tmp_path / "q.txt"
    asked.write_text(trained.texts[0] + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["answer", "--kb", trained.kb_path, "--questions", str(asked),
                 *(flag.format(dir=tmp_path) for flag in flags)])
    out, err = capsys.readouterr()
    h, gh = params[param].shape  # as the model stores it
    assert code == 2 and out == ""
    assert err == (f"error: {path}: parameter '{param}': snapshot shape "
                   f"({gh}, {h}), model shape ({h}, {gh})\n")


@pytest.mark.parametrize("target, edit", [
    ("tagger", lambda meta: meta["vocab"].__setitem__(0, 5)),
    ("relation", lambda meta: meta["vocab"].__setitem__(0, 5)),
    ("qa-t", lambda meta: meta["vocab"].__setitem__(0, 5)),
    ("qa-t", lambda meta: meta.update(vocab="".join(meta["vocab"]))),
    ("relation", lambda meta: meta.update(name=5))],
    ids=["tagger-token", "relation-token", "qa-t-token", "qa-t-string",
         "relation-name"])
def test_cli_exits_2_on_a_malformed_sidecar(trained, tmp_path, capsys,
                                            target, edit):
    """A sidecar whose vocabulary is not a list of strings, or whose
    matcher name is not a string, is refused by ``answer`` with exit 2,
    naming the file: no word falls silently to the unknown row."""
    for name in ("tagger", "relation", "qa-t"):
        save_model(trained.models[name], str(tmp_path / f"{name}.nn"))
    path = str(tmp_path / f"{target}.nn")
    _edit_sidecar(path, edit)
    asked = tmp_path / "q.txt"
    asked.write_text(trained.texts[0] + "\n", encoding="utf-8")
    flags = (["--model", path, "--variant", "qa-t"] if target == "qa-t"
             else ["--pipeline", str(tmp_path), "--strategy", "p-qa"])
    capsys.readouterr()
    code = main(["answer", "--kb", trained.kb_path, "--questions", str(asked),
                 *flags])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {meta_path(path)}: malformed "
                          "payload")
    assert "Traceback" not in err
