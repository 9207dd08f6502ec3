"""The benchmark's workloads and the round-robin runner that measures them.

Every workload runs the whole CLI workflow on one synthetic benchmark
from ``evalharness.generate_synthetic`` (through ``qakb synth``), in four
kinds of unit:

* ``setup``  - ``synth`` (plus ``gen-data`` where set-up includes it);
* ``prep``   - ``gen-data`` over a capped question file, then
  ``train-e2e --variant qa-t``: data prep plus one seeded training;
* ``train``  - ``train-pipeline`` and ``train-e2e --variant qa-t-mwst``;
* ``answer`` - one pass: a fresh ``answer`` invocation per stack, each fed
  every question on stdin.

The workloads differ in shape and in how often each unit comes round, so
each stresses a different part of the system while every end-to-end
metric stays defined on every workload.  Units run round-robin across
the whole run, never as back-to-back blocks, so a machine that drifts
during a run drifts under every metric alike.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

from cliproc import Invocation, digest, invoke
from speed import scale

STACKS = ("pipeline", "qa-t", "qa-t-mwst")
PIPELINE_STRATEGY = "p-qa-out-type"
TRAIN_FLAGS = ("--epochs", "1", "--seed", "1")
SYNTH_SEED = "1"
COLLISION_RATE = "0.3"


@dataclass(frozen=True)
class Workload:
    """One synthetic benchmark shape and the mix of units run on it.

    ``cycle`` is run round-robin; every cycle holds at least two answer
    passes, so records can be compared across passes and fastest-of-R has
    R >= 2, and every unit that feeds a median at least twice per run
    (``setup`` only where set-up is ``synth``-based).
    ``cycle_s`` is what one cycle costs at nominal speed at the commit
    that defined the workload; a run makes ``round(seconds / cycle_s)``
    cycles, so the same work is measured on every run and both commits.
    """

    name: str
    entities: int
    relations: int
    setup: str            # "answer", "synth" or "synth+gen-data"
    pipeline_cap: int     # train questions behind the train-pipeline data
    prep_cap: int         # train questions gen-data reads in a prep unit
    e2e_cap: int          # train questions train-e2e qa-t reads
    mwst_cap: int         # train questions train-e2e qa-t-mwst reads
    answer_n: int         # questions fed to each answer invocation
    cycle: tuple[str, ...]
    cycle_s: float


WORKLOADS = {
    # Forward-only work: tagger, retrieval, matchers, encoder, cosine.
    "answer": Workload(
        name="answer", entities=125, relations=6, setup="answer",
        pipeline_cap=8, prep_cap=100, e2e_cap=16, mwst_cap=8, answer_n=100,
        cycle=("answer", "prep", "train", "answer", "prep", "train"),
        cycle_s=7.7,
    ),
    # Graph building, backward and Adam: one-epoch seeded training at S.
    "train": Workload(
        name="train", entities=60, relations=6, setup="synth+gen-data",
        pipeline_cap=8, prep_cap=48, e2e_cap=48, mwst_cap=16, answer_n=60,
        cycle=("setup", "train", "prep", "answer",
               "setup", "train", "prep", "answer"),
        cycle_s=6.5,
    ),
    # Data prep at M: snapshot, alias index, span labelling, DRR, pairs.
    "prep-m": Workload(
        name="prep-m", entities=5000, relations=200, setup="synth",
        pipeline_cap=1, prep_cap=500, e2e_cap=32, mwst_cap=4, answer_n=100,
        cycle=("setup", "answer", "prep", "train", "setup", "answer",
               "prep", "train", "setup", "answer"),
        cycle_s=29.0,
    ),
}


class Abort(Exception):
    """A step the rest of the workload depends on failed."""


@dataclass(frozen=True)
class Question:
    subject: str
    relation: str
    obj: str
    text: str


def read_questions(path: str) -> list[Question]:
    """The four-column question TSV that ``synth`` writes."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if len(fields) == 4:
                out.append(Question(*fields))
    return out


def data_lines(path: str) -> int:
    """Examples in a gen-data file: lines after the header."""
    with open(path, encoding="utf-8") as fh:
        return max(sum(1 for line in fh if line.strip()) - 1, 0)


def p90(values: Sequence[float]) -> float:
    """Linear interpolation between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Runner:
    """Runs one workload; keeps samples, failures and reference digests."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 work: str, tracer=None):
        self.wl = workload
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.unit_walls: dict[str, list[float]] = defaultdict(list)
        self.unit_nominal: dict[str, list[float]] = defaultdict(list)
        self._unit_probes: list[float] = []
        # stack -> question -> [(nominal, raw) latency per pass]
        self.latencies: dict[str, dict[str, list[tuple[float, float]]]] = {
            s: defaultdict(list) for s in STACKS}
        self.first_pass: dict[str, dict[str, str]] = {}
        self.correct_answers: dict[str, int] = {}
        self.passes = 0
        self._refs: dict[str, str] = {}
        p = lambda *parts: os.path.join(work, *parts)  # noqa: E731
        self.bench = p("bench")
        self.kb = p("bench", "kb.qakb")
        self.files = {cap: p(f"{cap}.tsv")
                      for cap in ("pipeline", "prep", "e2e", "mwst")}
        self.pipeline_data = p("data", "pipeline")
        self.prep_data = p("data", "prep")
        self.pipeline_models = p("models", "pipeline")
        self.e2e_models = {"qa-t": p("models", "qa-t.nn"),
                           "qa-t-mwst": p("models", "qa-t-mwst.nn")}
        self.questions: list[Question] = []
        self.qsteps: dict[str, int] = {}

    # -- commands ----------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def sample(self, key: str, invs: Sequence[Invocation],
               per: float = 1.0) -> None:
        """One sample of summed command time: nominal, and raw beside it."""
        self.samples[key].append(sum(i.nominal_wall_s for i in invs) * per)
        self.raw[key].append(sum(i.wall_s for i in invs) * per)

    def command(self, label: str, argv: Sequence[str],
                outputs: Sequence[str] = (),
                lines: Optional[Sequence[str]] = None) -> Optional[Invocation]:
        """One CLI command; checks exit code and seeded-repeat digests."""
        self.attempted += 1
        scope = (self.tracer.root(label) if self.tracing
                 else nullcontext())
        with scope as root:
            inv = invoke(argv, lines)
        self._unit_probes.extend(inv.all_probes)
        if root is not None:
            self.tracer.root_scale[root] = scale(inv.all_probes)
        if not inv.ok:
            self.fail(f"{label}: exit {inv.rc}"
                      + (f"\n{inv.error}" if inv.error else ""))
            return None
        if lines is None:
            try:
                found = digest(inv.stdout, expand_files(outputs))
            except OSError as exc:
                self.fail(f"{label}: output unreadable: {exc}")
                return None
            if self._refs.setdefault(label, found) != found:
                self.fail(f"{label}: stdout or written bytes differ from "
                          "the first seeded repeat")
                return None
        return inv

    # -- units -------------------------------------------------------------

    def unit(self, kind: str) -> float:
        """Run one unit; returns its wall time at nominal machine speed."""
        self._unit_probes = []
        start = time.perf_counter()
        getattr(self, f"unit_{kind}")()
        wall = time.perf_counter() - start
        nominal = wall * scale(self._unit_probes)
        self.unit_walls[kind].append(wall)
        self.unit_nominal[kind].append(nominal)
        return nominal

    def unit_setup(self) -> None:
        wl = self.wl
        synth = self.command("synth", [
            "synth", "--seed", SYNTH_SEED, "--entities", str(wl.entities),
            "--relations", str(wl.relations), "--collision-rate",
            COLLISION_RATE, "--out", self.bench,
        ], [self.bench])
        if synth is None:
            raise Abort("synth failed")
        if not self.questions:
            self._write_caps()
        invs = [synth]
        if wl.setup == "synth+gen-data":
            invs.append(self._gen_pipeline_data())
        if wl.setup != "answer":
            self.sample("setup_s", invs)

    def _gen_pipeline_data(self) -> Invocation:
        gen = self.command("gen-data:pipeline", [
            "gen-data", "--kb", self.kb, "--questions",
            self.files["pipeline"], "--out", self.pipeline_data,
        ], [self.pipeline_data])
        if gen is None:
            raise Abort("gen-data for the pipeline failed")
        return gen

    def _write_caps(self) -> None:
        wl = self.wl
        train_path = os.path.join(self.bench, "train.tsv")
        train = read_questions(train_path)
        test = read_questions(os.path.join(self.bench, "test.tsv"))
        caps = {"pipeline": wl.pipeline_cap, "prep": wl.prep_cap,
                "e2e": wl.e2e_cap, "mwst": wl.mwst_cap}
        with open(train_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        for cap, n in caps.items():
            with open(self.files[cap], "w", encoding="utf-8") as fh:
                fh.writelines(lines[:n])
        self.qsteps["qa-t"] = min(wl.e2e_cap, len(train))
        self.qsteps["qa-t-mwst"] = min(wl.mwst_cap, len(train))
        pool = train + test
        stride = max(len(pool) // wl.answer_n, 1)
        self.questions = pool[::stride][:wl.answer_n]

    def unit_prep(self) -> None:
        gen = self.command("gen-data:prep", [
            "gen-data", "--kb", self.kb, "--questions", self.files["prep"],
            "--out", self.prep_data,
        ], [self.prep_data])
        fit = self._train_e2e("qa-t", self.files["e2e"])
        if gen is not None:
            self.sample("prep_s", [gen, fit])

    def unit_train(self) -> None:
        fit = self.command("train:pipeline", [
            "train-pipeline", "--data", self.pipeline_data,
            "--out", self.pipeline_models, *TRAIN_FLAGS,
        ], [self.pipeline_models])
        if fit is None:
            raise Abort("train-pipeline failed")
        examples = sum(data_lines(path)
                       for path in expand_files([self.pipeline_data]))
        self.qsteps["pipeline"] = examples
        self.sample("pipeline.train_ms", [fit], 1e3 / examples)
        self._train_e2e("qa-t-mwst", self.files["mwst"])

    def pair_lines(self) -> int:
        """Matcher pair lines the prep unit's gen-data writes."""
        return sum(data_lines(path) for path in expand_files([self.prep_data])
                   if path.endswith("pairs.tsv"))

    def _train_e2e(self, variant: str, questions: str) -> Invocation:
        out = self.e2e_models[variant]
        fit = self.command(f"train:{variant}", [
            "train-e2e", "--kb", self.kb, "--questions", questions,
            "--variant", variant, "--out", out, *TRAIN_FLAGS,
        ], [out, out + ".meta.json"])
        if fit is None:
            raise Abort(f"train-e2e {variant} failed")
        self.sample(f"{variant}.train_ms", [fit], 1e3 / self.qsteps[variant])
        return fit

    def unit_answer(self) -> None:
        order = list(self.questions)
        self.rng.shuffle(order)
        texts = [q.text for q in order]
        turn = self.passes % len(STACKS)
        startup, startup_raw = 0.0, 0.0
        for stack in STACKS[turn:] + STACKS[:turn]:
            if stack == "pipeline":
                model = ["--pipeline", self.pipeline_models,
                         "--strategy", PIPELINE_STRATEGY]
            else:
                model = ["--model", self.e2e_models[stack],
                         "--variant", stack]
            inv = self.command(f"answer:{stack}",
                               ["answer", "--kb", self.kb, *model], (), texts)
            if inv is None:
                raise Abort(f"answer {stack} failed")
            records = inv.stdout.splitlines()
            if len(records) != len(order) or len(inv.line_in) != len(order):
                raise Abort(f"answer {stack}: {len(records)} records for "
                            f"{len(order)} questions")
            startup += inv.nominal_startup_s
            startup_raw += inv.startup_s
            self._check_records(stack, order, records, inv)
        self.passes += 1
        if self.wl.setup == "answer":
            self.samples["setup_s"].append(startup)
            self.raw["setup_s"].append(startup_raw)

    def _check_records(self, stack: str, order: Sequence[Question],
                       records: Sequence[str], inv: Invocation) -> None:
        """Keep each pass's latencies; records must repeat exactly."""
        first = self.first_pass.get(stack)
        if first is None:
            first = self.first_pass[stack] = {}
            hits = 0
            for q, rec in zip(order, records):
                first[q.text] = rec
                try:
                    answer = json.loads(rec)
                    got = (answer["entity"], answer["relation"])
                except (ValueError, KeyError):
                    self.fail(f"answer {stack}: {rec} for {q.text!r}")
                    continue
                if got == (q.subject, q.relation):
                    if q.obj not in answer.get("objects", ()):
                        self.fail(f"answer {stack}: gold object missing "
                                  f"for {q.text!r}")
                    hits += 1
            self.correct_answers[stack] = hits
        for q, rec, lat, raw in zip(order, records,
                                    inv.nominal_latencies_s(),
                                    inv.latencies_s()):
            self.attempted += 1
            if first[q.text] != rec:
                self.fail(f"answer {stack}: record for {q.text!r} differs "
                          "between passes")
            self.latencies[stack][q.text].append((lat, raw))

    # -- schedules ---------------------------------------------------------

    def prepare(self) -> None:
        """Set-up, pipeline data and the first models, before the clock.

        This is a warm-up: the first command of each kind runs cold, so
        its samples are dropped; it still sets the reference digests."""
        self.unit("setup")
        if self.wl.setup != "synth+gen-data":
            self._gen_pipeline_data()
        self.unit("prep")
        self.unit("train")
        self.samples.clear()
        self.raw.clear()

    def measure(self) -> None:
        """Run whole cycles: ``--seconds`` of work at nominal speed, so a
        slow spell on the host changes a run's wall time, not its work."""
        for _ in range(max(round(self.seconds / self.wl.cycle_s), 1)):
            for kind in self.wl.cycle:
                self.unit(kind)

    def traced_cycle(self) -> dict[str, float]:
        """One of every unit untraced, then traced; nominal time of each."""
        kinds = ("setup", "prep", "train", "answer")
        self.unit("answer")
        plain = {k: self.unit_nominal[k][-1] for k in kinds}
        self.tracer.install()
        self.tracing = True
        try:
            for kind in kinds:
                self.unit(kind)
        finally:
            self.tracing = False
            self.tracer.uninstall()
        traced = {k: self.unit_nominal[k][-1] for k in kinds}
        return {"untraced_s": sum(plain.values()),
                "traced_s": sum(traced.values()),
                **{f"untraced.{k}": v for k, v in plain.items()},
                **{f"traced.{k}": v for k, v in traced.items()}}

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, dict]:
        """Metric -> value (nominal speed), unit, sample count, raw value."""
        out: dict[str, dict] = {}

        def put(name, value, unit, n, raw=None):
            out[name] = {"value": value, "unit": unit, "n": n, "raw": raw}

        for stack in STACKS:
            per_q = self.latencies[stack].values()
            lat = [min(n for n, _ in v) for v in per_q]
            raw = [min(r for _, r in v) for v in per_q]
            for name, stat in (("p50", statistics.median), ("p90", p90)):
                put(f"{stack}.{name}_ms", stat(lat) * 1e3 if lat else 0.0,
                    "ms", len(lat), stat(raw) * 1e3 if raw else None)
            n = len(self.first_pass.get(stack, ()))
            put(f"{stack}.acc",
                self.correct_answers.get(stack, 0) / n if n else 0.0,
                "share", n)
        for key, unit in (("setup_s", "s"), ("prep_s", "s"),
                          ("pipeline.train_ms", "ms"), ("qa-t.train_ms", "ms"),
                          ("qa-t-mwst.train_ms", "ms")):
            values, raw = self.samples.get(key, []), self.raw.get(key, [])
            put(key, statistics.median(values) if values else 0.0, unit,
                len(values), statistics.median(raw) if raw else None)
        return out


def expand_files(paths: Sequence[str]) -> list[str]:
    """Files named, with directories replaced by their files, sorted."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(os.path.join(path, name)
                       for name in sorted(os.listdir(path)))
        else:
            out.append(path)
    return out


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
