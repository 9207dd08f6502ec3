"""Per-layer spans and counts for the traced run.

Hooks wrap public functions and methods of ``qakb`` from outside: a
function is replaced in every ``qakb`` module namespace that holds it, so
the wrapper sits where each caller looks the name up; a method is
replaced on the class that defines it.  Nothing is wrapped unless
:meth:`Tracer.install` is called, and :meth:`Tracer.uninstall` puts every
original back, so the untraced runs that give the end-to-end metrics
never pass through a wrapper.

A span records (id, parent, name, start, end, root label, root id).  The
root is the benchmark's own span around one CLI command, labelled by what
that command is for (``answer:qa-t``, ``train:pipeline`` ...), so counts
and times can be split per stack and per model.  A layer's self time is
its span minus the spans nested directly inside it, scaled to nominal
machine speed by the speed probes of its root command (see ``speed``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

SPAN = "span"
COUNT = "count"


@dataclass(frozen=True)
class Target:
    """A name to wrap: ``attr`` is ``func`` or ``Class.method``."""

    module: str
    attr: str
    layer: str
    kind: str
    observe: Optional[str] = None


TARGETS = (
    Target("qakb.kb", "load_kb", "kb.load_kb", SPAN),
    Target("qakb.kb", "save_kb", "kb.save_kb", SPAN),
    Target("qakb.aliasindex", "build_index", "aliasindex.build_index", SPAN),
    Target("qakb.aliasindex", "retrieve_candidates", "aliasindex.retrieve",
           SPAN),
    Target("qakb.aliasindex", "retrieve_question_candidates",
           "aliasindex.retrieve", SPAN),
    Target("qakb.nn.io", "load_params", "nn.io.load_params", SPAN),
    Target("qakb.nn.io", "save_params", "nn.io.save_params", SPAN),
    Target("qakb.nn.tensor", "Tensor.backward", "nn.tensor.backward", SPAN),
    Target("qakb.nn.optim", "Adam.step", "nn.optim.adam_step", SPAN),
    Target("qakb.datagen", "build_drr", "datagen.build_drr", SPAN),
    Target("qakb.datagen", "label_questions", "datagen.label", SPAN),
    Target("qakb.datagen", "write_labeled_questions", "datagen.write_pairs",
           SPAN),
    Target("qakb.datagen", "write_matcher_pairs", "datagen.write_pairs", SPAN),
    Target("qakb.pipeline", "tag_question", "pipeline.tag", SPAN),
    Target("qakb.pipeline", "MatcherModel.score", "pipeline.match", SPAN),
    Target("qakb.e2e", "E2EModel.encode_text", "e2e.encode", SPAN,
           observe="texts"),
    Target("qakb.nn.tensor", "Tensor.__init__", "nn.tensor.nodes", COUNT,
           observe="init_graph"),
    Target("qakb.nn.tensor", "_make", "nn.tensor.made", COUNT,
           observe="make_graph"),
    Target("qakb.nn.layers", "LSTMCell.step", "nn.layers.rnn_steps", COUNT),
    Target("qakb.nn.layers", "GRUCell.step", "nn.layers.rnn_steps", COUNT),
    Target("qakb.datagen", "levenshtein", "datagen.levenshtein", COUNT),
    Target("qakb.pipeline", "MatcherModel.encode", "pipeline.matcher_encode",
           COUNT),
)

GRAPH_NODES = "nn.tensor.graph_nodes"


def _resolve(target: Target):
    """(owner, key, original) for a target, or None when it is gone."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    head, _, method = target.attr.partition(".")
    obj = getattr(module, head, None)
    if obj is None:
        return None
    if not method:
        return module, head, obj
    if not inspect.isclass(obj):
        return None
    for klass in obj.__mro__:
        if method in vars(klass):
            return klass, method, vars(klass)[method]
    return None


class Tracer:
    """Collects spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.texts: dict[str, Counter] = defaultdict(Counter)
        self._root = "none"
        self._root_sid = -1
        self.root_scale: dict[int, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            owner, key, original = found
            wrapper = self._wrap(original, target)
            if inspect.isclass(owner):
                self._patch(owner, key, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "qakb" or name.startswith("qakb."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        layer = target.layer
        observe = target.observe
        if target.kind == COUNT:
            if observe == "init_graph":
                def wrapper(*args, **kwargs):
                    counts = tracer.counts[tracer._root]
                    counts[layer] += 1
                    backward_fn = (args[4] if len(args) > 4
                                   else kwargs.get("backward_fn"))
                    if backward_fn is not None:
                        counts[GRAPH_NODES] += 1
                    return fn(*args, **kwargs)
            elif observe == "make_graph":
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    if getattr(out, "_backward_fn", None) is not None:
                        tracer.counts[tracer._root][GRAPH_NODES] += 1
                    return out
            else:
                def wrapper(*args, **kwargs):
                    tracer.counts[tracer._root][layer] += 1
                    return fn(*args, **kwargs)
            return functools.wraps(fn)(wrapper)

        def wrapper(*args, **kwargs):
            if observe == "texts":
                tracer.texts[tracer._root][tuple(args[1])] += 1
            sid = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
        return functools.wraps(fn)(wrapper)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None,
                           self._root, self._root_sid])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, label: str):
        """The benchmark's own span around one CLI command; yields its id."""
        saved = self._root, self._root_sid
        self._root = label
        sid = self._open(f"cli.{label.split(':')[0]}")
        self._root_sid = sid
        self.spans[sid][6] = sid
        try:
            yield sid
        finally:
            self._close(sid)
            self._root, self._root_sid = saved

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """(root, layer) -> [calls, inclusive s, self s], nominal speed."""
        child_time = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        for sid, _, name, start, end, root, root_sid in self.spans:
            k = self.root_scale.get(root_sid, 1.0)
            agg = out[(root, name)]
            agg[0] += 1
            agg[1] += (end - start) * k
            agg[2] += (end - start - child_time[sid]) * k
        return dict(out)

    def nesting_errors(self) -> int:
        """Spans that are unclosed or stick out of their parent."""
        bad = 0
        for _, parent, _, start, end, _, _ in self.spans:
            if end is None or end < start:
                bad += 1
            elif parent >= 0:
                p = self.spans[parent]
                if p[4] is None or start < p[3] or end > p[4]:
                    bad += 1
        return bad


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced cycle
# ---------------------------------------------------------------------------

ANSWER_STACKS = ("pipeline", "qa-t", "qa-t-mwst")
ENCODER_STACKS = ("qa-t", "qa-t-mwst")
MODELS = ("pipeline", "qa-t", "qa-t-mwst")


def layer_metrics(tracer: Tracer, questions: int,
                  qsteps: dict[str, int]) -> dict[str, tuple[float, str, list]]:
    """Metric -> (value, unit, layers it reads).

    ``questions`` is the number fed to each traced answer invocation and
    ``qsteps`` the question-steps of each traced training command, both
    known to the benchmark without any hook.
    """
    st = tracer.self_times()
    counts = tracer.counts

    def calls(root: Optional[str], layer: str) -> int:
        return sum(v[0] for (r, n), v in st.items()
                   if n == layer and (root is None or r == root))

    def self_s(root: Optional[str], layer: str) -> float:
        return sum(v[2] for (r, n), v in st.items()
                   if n == layer and (root is None or r == root))

    def per_call_ms(layer: str) -> float:
        return _div(self_s(None, layer) * 1e3, calls(None, layer))

    out: dict[str, tuple[float, str, list]] = {}
    q = questions
    nodes, graph, rnn = "nn.tensor.nodes", GRAPH_NODES, "nn.layers.rnn_steps"
    for stack in ANSWER_STACKS:
        c = counts[f"answer:{stack}"]
        out[f"nn.tensor.nodes_per_q.{stack}"] = (
            _div(c[nodes], q), "count", [nodes])
        out[f"nn.tensor.graph_nodes_per_q.{stack}"] = (
            _div(c[GRAPH_NODES], q), "count", [nodes, "nn.tensor.made"])
        out[f"nn.layers.rnn_steps_per_q.{stack}"] = (
            _div(c[rnn], q), "count", [rnn])
    for stack in ENCODER_STACKS:
        root = f"answer:{stack}"
        texts = tracer.texts[root]
        out[f"e2e.encodes_per_q.{stack}"] = (
            _div(calls(root, "e2e.encode"), q), "count", ["e2e.encode"])
        out[f"e2e.encode_reuse.{stack}"] = (
            _div(sum(texts.values()), len(texts)), "calls/text",
            ["e2e.encode"])
        out[f"e2e.encode_ms_per_q.{stack}"] = (
            _div(self_s(root, "e2e.encode") * 1e3, q), "ms", ["e2e.encode"])
    out["workload.distinct_texts_per_pass"] = (
        float(len(tracer.texts["answer:qa-t"])), "count", ["e2e.encode"])

    pipe = "answer:pipeline"
    matches = calls(pipe, "pipeline.match")
    out["pipeline.tag_ms_per_q"] = (
        _div(self_s(pipe, "pipeline.tag") * 1e3, q), "ms", ["pipeline.tag"])
    out["pipeline.match_calls_per_q"] = (
        _div(matches, q), "count", ["pipeline.match"])
    out["pipeline.encodes_per_match"] = (
        _div(counts[pipe]["pipeline.matcher_encode"], matches), "count",
        ["pipeline.match", "pipeline.matcher_encode"])
    out["pipeline.match_ms_per_q"] = (
        _div(self_s(pipe, "pipeline.match") * 1e3, q), "ms",
        ["pipeline.match"])

    out["aliasindex.retrieve_us_per_q"] = (
        per_call_ms("aliasindex.retrieve") * 1e3, "us",
        ["aliasindex.retrieve"])
    for metric, layer in (("kb.load_kb_ms", "kb.load_kb"),
                          ("aliasindex.build_index_ms",
                           "aliasindex.build_index"),
                          ("nn.io.load_params_ms", "nn.io.load_params"),
                          ("nn.io.save_params_ms", "nn.io.save_params"),
                          ("nn.optim.adam_ms_per_step", "nn.optim.adam_step"),
                          ("kb.save_kb_ms", "kb.save_kb")):
        out[metric] = (per_call_ms(layer), "ms", [layer])

    for model in MODELS:
        root = f"train:{model}"
        steps = qsteps.get(model, 0)
        out[f"nn.tensor.nodes_per_qstep.{model}"] = (
            _div(counts[root][nodes], steps), "count", [nodes])
        out[f"nn.tensor.backward_ms_per_qstep.{model}"] = (
            _div(self_s(root, "nn.tensor.backward") * 1e3, steps), "ms",
            ["nn.tensor.backward"])
        out[f"nn.layers.rnn_steps_per_qstep.{model}"] = (
            _div(counts[root][rnn], steps), "count", [rnn])

    out["datagen.build_drr_s"] = (
        per_call_ms("datagen.build_drr") / 1e3, "s", ["datagen.build_drr"])
    out["datagen.levenshtein_calls"] = (
        float(counts["gen-data:prep"]["datagen.levenshtein"]
              + counts["train:qa-t"]["datagen.levenshtein"]),
        "count", ["datagen.levenshtein"])
    gen_calls = calls("gen-data:prep", "cli.gen-data")
    out["datagen.label_s"] = (
        _div(self_s("gen-data:prep", "datagen.label"), gen_calls), "s",
        ["datagen.label"])
    out["datagen.write_pairs_s"] = (
        _div(self_s("gen-data:prep", "datagen.write_pairs"), gen_calls), "s",
        ["datagen.write_pairs"])
    return out


def per_layer(tracer: Tracer, questions: int, qsteps: dict[str, int],
              cycle: dict, props: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric as {value, unit, n}, and the names of those
    set to 0 because a target they read could not be wrapped."""
    gone = set(tracer.missing)
    gone_layers = {t.layer for t in TARGETS
                   if f"{t.module}.{t.attr}" in gone}
    metrics, missing = {}, []
    for name, (value, unit, layers) in layer_metrics(
            tracer, questions, qsteps).items():
        if gone_layers.intersection(layers):
            missing.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit, "n": 1}
    for name, key, unit in (
            ("e2e.facts_per_q", "facts_per_q", "count"),
            ("aliasindex.cands_per_q", "cands_per_q", "count"),
            ("aliasindex.multi_cand_share", "multi_cand_share", "share"),
            ("workload.kb_relations", "kb_relations", "count"),
            ("workload.pair_lines", "pair_lines", "count")):
        metrics[name] = {"value": float(props.get(key, 0)), "unit": unit,
                         "n": props.get("questions_per_pass", 1)}
    metrics["trace.overhead_ratio"] = {
        "value": _div(cycle.get("traced_s", 0.0), cycle.get("untraced_s", 0)),
        "unit": "ratio", "n": 1}
    metrics["trace.missing_targets"] = {"value": float(len(gone)),
                                        "unit": "count", "n": 1}
    return metrics, missing


def _div(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
