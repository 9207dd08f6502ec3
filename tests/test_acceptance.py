"""Acceptance gate: one test per release criterion.

Each test prints exactly one ``criterion N [...]: PASS/FAIL`` line (visible
under ``pytest -s``) and fails with the collected problem list otherwise.
The checks run on seeded synthetic data and brute-force oracles, so the
whole file is deterministic.
"""

import json
import math
import time

import numpy as np
from conftest import (answer, dense, embedding, finite_diff_check, fresh,
                      loss_hinge_qat, loss_hinge_qat_type, param, rnn_cell,
                      serialize_ntriples_line, serialize_triples_tsv)

from qakb import datagen, e2e, evalharness as ev, pipeline
from qakb.aliasindex import build_index, retrieve_candidates, tokenize
from qakb.cli import main
from qakb.kb import (
    Fact,
    NTObject,
    build_kb,
    canonicalize_mid,
    canonicalize_relation,
    parse_ntriples,
    parse_ntriples_line,
    parse_triples_tsv,
)
from qakb.nn.config import TrainConfig
from qakb.nn.layers import (
    GRUCell,
    LSTMCell,
    cosine,
    dropout_mask,
    recurrent,
    self_attention,
)
from qakb.nn.losses import (
    loss_binary_ce,
    loss_categorical_ce,
    loss_hinge_qas,
)
from qakb.nn.tensor import sigmoid, softmax_rows, tsum


def _verdict(num: int, title: str, problems: list[str], detail: str) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"criterion {num} [{title}]: {status} ({detail})")
    assert not problems, f"criterion {num} ({title}): " + "; ".join(problems)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _dense_case(rng: np.random.Generator, activation: str) -> float:
    layer = dense(rng, 3, 2, activation=activation)
    while True:
        x = param(rng.normal(size=(2, 3)))
        pre = x.data @ layer.weight.data.T + layer.bias.data
        if activation != "relu" or np.abs(pre).min() > 1e-3:
            break
    params = list(layer.parameters().values()) + [x]
    return finite_diff_check(lambda: tsum(layer(x)), params)


def _grad_battery(seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0

    table = embedding(rng, ["ba", "de", "ki"], 3)
    w = rng.normal(size=(4, 3))
    worst = max(worst, finite_diff_check(
        lambda: tsum(table.embed(["ba", "ki", "de", "zz"]) * w),
        [table.vectors]))

    for act in ("none", "relu", "sigmoid"):
        worst = max(worst, _dense_case(rng, act))

    gru = rnn_cell(GRUCell, rng, 2, 3)
    x = param(rng.normal(size=(3, 2)))
    worst = max(worst, finite_diff_check(
        lambda: tsum(recurrent((gru,), x, None, (False,), "states")),
        list(gru.parameters().values()) + [x]))

    lstm = rnn_cell(LSTMCell, rng, 2, 2)
    x2 = param(rng.normal(size=(3, 2)))

    def lstm_loss():
        states = recurrent((lstm,), x2, None, (False,), "states")
        last = recurrent((lstm,), x2, None, (False,), "last")
        return tsum(states) + tsum(last * last)

    worst = max(worst, finite_diff_check(
        lstm_loss, list(lstm.parameters().values()) + [x2]))

    fwd = rnn_cell(LSTMCell, rng, 2, 2, "fw")
    bwd = rnn_cell(LSTMCell, rng, 2, 2, "bw")
    x3 = param(rng.normal(size=(3, 2)))

    def bidi_loss():
        states = recurrent((fwd, bwd), x3, None, (False, True), "states")
        last = recurrent((fwd, bwd), x3, None, (False, True), "last")
        return tsum(states) + tsum(last * last)

    worst = max(worst, finite_diff_check(
        bidi_loss, list(fwd.parameters().values())
        + list(bwd.parameters().values()) + [x3]))

    x4 = param(rng.normal(size=(4, 3)))
    w4 = rng.normal(size=(4, 3))
    worst = max(worst, finite_diff_check(
        lambda: tsum(self_attention(x4) * w4), [x4]))

    x5 = param(rng.normal(size=(3, 4)))
    mask_seed = int(rng.integers(1 << 31))
    worst = max(worst, finite_diff_check(
        lambda: tsum(x5 * dropout_mask(x5.shape, 0.4,
                                       np.random.default_rng(mask_seed))),
        [x5]))

    a = param(rng.normal(size=4) + 1.0)
    b = param(rng.normal(size=4) - 1.0)
    worst = max(worst, finite_diff_check(lambda: cosine(a, b), [a, b]))

    z = param(rng.normal(size=(3, 2)))
    gold = [int(g) for g in rng.integers(0, 2, size=3)]
    worst = max(worst, finite_diff_check(
        lambda: loss_categorical_ce(softmax_rows(z), gold), [z]))

    wb = param(np.array(0.3))
    y = int(rng.integers(0, 2))
    worst = max(worst, finite_diff_check(
        lambda: loss_binary_ce(sigmoid(wb), y), [wb]))

    sp, sn = param(np.array(0.2)), param(np.array(0.4))
    worst = max(worst, finite_diff_check(
        lambda: loss_hinge_qas(sp, sn, 0.5), [sp, sn]))
    ss = [param(np.array(v)) for v in (0.1, 0.5, 0.2, 0.4)]
    worst = max(worst, finite_diff_check(
        lambda: loss_hinge_qat(*ss, 0.3), ss))
    st = [param(np.array(v)) for v in (0.1, 0.5, 0.2, 0.4, 0.0, 0.6)]
    worst = max(worst, finite_diff_check(
        lambda: loss_hinge_qat_type(*st, 0.3), st))

    return worst


class TestAcceptance:
    def test_criterion_1_gradient_correctness(self):
        problems = []
        start = time.perf_counter()
        worst = max(_grad_battery(seed) for seed in range(20))
        elapsed = time.perf_counter() - start
        if worst >= 1e-4:
            problems.append(f"max relative error {worst:.3e} >= 1e-4")
        if elapsed >= 30.0:
            problems.append(f"runtime {elapsed:.1f}s >= 30s")
        _verdict(1, "gradient correctness", problems,
                 f"20 seeds, max rel err {worst:.2e}, {elapsed:.1f}s")

    # -----------------------------------------------------------------
    # 2. loss semantics
    # -----------------------------------------------------------------

    def test_criterion_2_loss_semantics(self):
        problems = []
        rng = np.random.default_rng(2)
        bad = 0
        for _ in range(1000):
            sp, sn = rng.uniform(-2, 2, size=2)
            g = float(rng.uniform(0.05, 1.0))
            zero = loss_hinge_qas(sp, sn, g).item() == 0.0
            if zero != (sp - sn >= g):
                bad += 1
        for _ in range(1000):
            ssp, ssn, spp, spn = rng.uniform(-2, 2, size=4)
            g = float(rng.uniform(0.05, 1.0))
            zero = loss_hinge_qat(ssp, ssn, spp, spn, g).item() == 0.0
            if zero != (ssp - ssn >= g and spp - spn >= g):
                bad += 1
        for _ in range(1000):
            s = rng.uniform(-2, 2, size=6)
            g = float(rng.uniform(0.05, 1.0))
            zero = loss_hinge_qat_type(*s, g).item() == 0.0
            want = all(s[2 * i] - s[2 * i + 1] >= g for i in range(3))
            if zero != want:
                bad += 1
        if bad:
            problems.append(f"{bad}/3000 hinge tuples broke the "
                            "zero-iff-margin rule")
        # dyadic values make the margin boundary exact in floats
        if loss_hinge_qas(0.75, 0.25, 0.5).item() != 0.0:
            problems.append("margin-equals-gamma boundary not exactly zero")

        checks = [
            (loss_binary_ce(0.999, 1).item(), -math.log(0.999)),
            (loss_binary_ce(0.5, 0).item(), -math.log(0.5)),
            (loss_categorical_ce(np.array([[0.9, 0.1], [0.4, 0.6]]),
                                 [0, 1]).item(),
             (-math.log(0.9) - math.log(0.6)) / 2.0),
        ]
        for got, want in checks:
            if abs(got - want) >= 1e-9:
                problems.append(f"cross-entropy {got!r} != {want!r}")
        one_hot = np.array([[1.0, 0.0], [0.0, 1.0]])
        perfect = loss_categorical_ce(one_hot, [0, 1]).item()
        if not perfect < 1e-9:
            problems.append(f"perfect one-hot loss {perfect!r} >= 1e-9")
        _verdict(2, "loss semantics", problems,
                 "3000 hinge tuples + hand-computed cross-entropy")

    # -----------------------------------------------------------------
    # 3. retrieval oracle
    # -----------------------------------------------------------------

    _WORDS = ("alpha", "bravo", "cedar", "delta", "ember", "fjord",
              "glade", "harbor", "iris", "juniper", "kelp", "lumen")

    @staticmethod
    def _inside(inner: tuple, outer: tuple) -> bool:
        if len(inner) >= len(outer):
            return False
        return any(outer[j:j + len(inner)] == inner
                   for j in range(len(outer) - len(inner) + 1))

    def _oracle_retrieve(self, aliases_by_mid: dict, tokens: list):
        """Quadratic recomputation of exact-first weighted retrieval."""
        norm = " ".join(tokens)
        exact = sorted(m for m, als in aliases_by_mid.items() if norm in als)
        if exact:
            n, c = len(tokens), len(exact)
            return [(m, norm, n, n, c, n / (n * c)) for m in exact]
        grams = set()
        for n in range(1, 4):
            for i in range(len(tokens) - n + 1):
                grams.add(tuple(tokens[i:i + n]))
        pruned = [g for g in grams
                  if not any(self._inside(g, o) for o in grams)]
        hits: dict = {}
        for mid, als in sorted(aliases_by_mid.items()):
            for g in pruned:
                if not any(tuple(a.split()) == g
                           or self._inside(g, tuple(a.split()))
                           for a in als):
                    continue
                cur = hits.get(mid)
                if cur is None or (-len(g), " ".join(g)) < \
                        (-len(cur), " ".join(cur)):
                    hits[mid] = g
        c = len(hits)
        out = []
        for mid, g in hits.items():
            holders = [a for a in aliases_by_mid[mid]
                       if tuple(a.split()) == g
                       or self._inside(g, tuple(a.split()))]
            alias = min(holders, key=lambda a: (len(a.split()), a))
            n_i, l_i = len(g), len(alias.split())
            out.append((mid, alias, n_i, l_i, c, n_i / (l_i * c)))
        out.sort(key=lambda t: (-t[5], t[0]))
        return out

    def test_criterion_3_retrieval_oracle(self):
        problems = []
        rng = np.random.default_rng(3)
        exact_seen = fallback_seen = 0
        for case in range(500):
            n_ent = int(rng.integers(2, 8))
            aliases_by_mid: dict[str, list[str]] = {}
            facts, pairs = [], []
            for ent in range(n_ent):
                mid = f"m.0c{case}x{ent}"
                als = set()
                for _ in range(int(rng.integers(1, 4))):
                    size = int(rng.integers(1, 5))
                    als.add(" ".join(rng.choice(self._WORDS, size=size)))
                aliases_by_mid[mid] = sorted(als)
                facts.append(Fact(mid, "/syn/has/thing", "m.0obj"))
                pairs.extend((mid, a) for a in sorted(als))
            index = build_index(build_kb(facts, pairs, []))
            if rng.random() < 0.4:
                mids = sorted(aliases_by_mid)
                als = aliases_by_mid[mids[int(rng.integers(len(mids)))]]
                span = als[int(rng.integers(len(als)))]
            else:
                size = int(rng.integers(1, 5))
                span = " ".join(rng.choice(self._WORDS, size=size))
            got = retrieve_candidates(index, tokenize(span))
            want = self._oracle_retrieve(aliases_by_mid, span.split())
            got_rows = [(c.id, c.matched_alias, c.n_i, c.l_i, c.c_i)
                        for c in got]
            if got_rows != [w[:5] for w in want]:
                problems.append(f"case {case}: rows differ for {span!r}")
                continue
            for cand, w in zip(got, want):
                if abs(cand.score - w[5]) > 1e-12:
                    problems.append(f"case {case}: score drift {span!r}")
                    break
            holders = sorted(m for m, als in aliases_by_mid.items()
                             if span in als)
            if holders:
                exact_seen += 1
                if [c.id for c in got] != holders or any(
                        c.n_i != c.l_i or c.matched_alias != span
                        for c in got):
                    problems.append(f"case {case}: exact match did not "
                                    "dominate")
            else:
                fallback_seen += 1
        assert exact_seen > 50 and fallback_seen > 50
        _verdict(3, "retrieval oracle", problems[:5],
                 f"500 micro-cases ({exact_seen} exact, "
                 f"{fallback_seen} fallback)")

    # -----------------------------------------------------------------
    # 4. disambiguation direction
    # -----------------------------------------------------------------

    def test_criterion_4_disambiguation_direction(self):
        problems = []
        details = []
        for seed in (1, 2, 3, 4, 5):
            start = time.perf_counter()
            spec = ev.SyntheticSpec(seed=seed, n_entities=60,
                                    collision_rate=0.3,
                                    twin_outdegree_gap=True)
            kb, train, test = ev.generate_synthetic(spec)
            questions = train + test
            index = build_index(kb)
            models = ev.oracle_models(questions, kb)
            acc = {}
            for name in ("p-qa", "p-qa-out"):
                strat = pipeline.PipelineStrategy(name, models, kb, index)
                report = ev.evaluate(strat, questions, kb)
                acc[name] = report.accuracy
                if name == "p-qa-out":
                    same = report.error_counts.get("same_label_entity", 0)
                    if same:
                        problems.append(
                            f"seed {seed}: p-qa-out same-label errors {same}")
            if not acc["p-qa-out"] > acc["p-qa"]:
                problems.append(f"seed {seed}: out-degree re-ranking did "
                                f"not beat the base strategy ({acc})")

            spec_t = ev.SyntheticSpec(seed=seed, n_entities=60,
                                      collision_rate=0.3,
                                      twin_outdegree_gap=True,
                                      twin_type_distinct=True)
            kb2, tr2, te2 = ev.generate_synthetic(spec_t)
            q2 = tr2 + te2
            strat = pipeline.PipelineStrategy("p-qa-type",
                                              ev.oracle_models(q2, kb2),
                                              kb2, build_index(kb2))
            report = ev.evaluate(strat, q2, kb2)
            same = report.error_counts.get("same_label_entity", 0)
            if same:
                problems.append(f"seed {seed}: p-qa-type same-label "
                                f"errors {same}")
            elapsed = time.perf_counter() - start
            if elapsed >= 60.0:
                problems.append(f"seed {seed}: {elapsed:.1f}s >= 1 min")
            details.append(f"s{seed} {acc['p-qa']:.2f}->"
                           f"{acc['p-qa-out']:.2f}")
        _verdict(4, "disambiguation direction", problems,
                 " ".join(details))

    # -----------------------------------------------------------------
    # 5. end-to-end trainability
    # -----------------------------------------------------------------

    def test_criterion_5_end_to_end_trainability(self):
        problems = []
        wins = 0
        details = []
        for seed in (1, 2, 3, 4, 5):
            spec = ev.SyntheticSpec(seed=seed, n_entities=60,
                                    collision_rate=0.0)
            kb, train, test = ev.generate_synthetic(spec)
            index = build_index(kb)
            cfg = TrainConfig(seed=42, hidden_size=16, epochs=15)
            pools = datagen.build_negative_pools(train, kb, index, cfg.seed)
            held = {}
            for name in ("qa-s", "qa-t"):
                variant = e2e.VARIANTS[name]
                start = time.perf_counter()
                model, _ = e2e.train_e2e(train, kb, pools, variant, cfg)
                elapsed = time.perf_counter() - start
                if elapsed >= 300.0:
                    problems.append(f"seed {seed} {name}: train took "
                                    f"{elapsed:.0f}s >= 5 min")
                strat = e2e.E2EStrategy(model, kb, index)
                train_acc = ev.evaluate(strat, train, kb).accuracy
                if train_acc < 0.90:
                    problems.append(f"seed {seed} {name}: train accuracy "
                                    f"{train_acc:.3f} < 0.90")
                held[name] = ev.evaluate(strat, test, kb).accuracy
            if held["qa-t"] >= held["qa-s"]:
                wins += 1
            details.append(f"s{seed} S={held['qa-s']:.2f} "
                           f"T={held['qa-t']:.2f}")
        if wins < 4:
            problems.append(f"multi-task head won held-out on only "
                            f"{wins}/5 seeds")
        _verdict(5, "end-to-end trainability", problems,
                 f"{wins}/5 held-out wins; " + " ".join(details))

    # -----------------------------------------------------------------
    # 6. mechanism liveness
    # -----------------------------------------------------------------

    @staticmethod
    def _rank_key(fs: e2e.FactScore) -> tuple:
        return (fs.fact.subject, fs.fact.relation, fs.fact.object)

    @staticmethod
    def _score_runs(scores: list[float], tol: float = 1e-9) -> list[tuple]:
        bounds, start = [], 0
        for i in range(1, len(scores)):
            if scores[i - 1] - scores[i] > tol:
                bounds.append((start, i))
                start = i
        bounds.append((start, len(scores)))
        return bounds

    def test_criterion_6_mechanism_liveness(self):
        problems = []
        spec = ev.SyntheticSpec(seed=1, n_entities=60, collision_rate=0.0)
        kb, train, test = ev.generate_synthetic(spec)
        index = build_index(kb)
        cfg = TrainConfig(seed=42, hidden_size=16)
        vocab = e2e._training_vocab(train, kb)
        plain = fresh(e2e.E2EModel, vocab, cfg, np.random.default_rng(42),
                      variant=e2e.VARIANTS["qa-t-w"])
        attn = fresh(e2e.E2EModel, vocab, cfg, np.random.default_rng(42),
                     variant=e2e.VARIANTS["qa-t-ws"])
        pp, pa = plain.parameters(), attn.parameters()
        if sorted(pp) != sorted(pa) or any(
                not np.array_equal(pp[k].data, pa[k].data) for k in pp):
            problems.append("attention toggle changed the initial "
                            "parameters; rankings are not comparable")
        changed = 0
        for q in test:
            ra = answer(plain, kb, index, q.text, k=50)
            rb = answer(attn, kb, index, q.text, k=50)
            if [self._rank_key(f) for f in ra] != \
                    [self._rank_key(f) for f in rb]:
                changed += 1
        if changed == 0:
            problems.append("self-attention changed no test-set ranking")

        type_kb = build_kb(
            [Fact("m.017hzy7", "/music/recording/artist", "m.0x1")],
            [("m.017hzy7", "germany")],
            [("m.017hzy7", "musical recording")],
        )
        label = e2e.subject_text(type_kb, "m.017hzy7", type_in_label=True)
        if label != "musical recording germany":
            problems.append(f"type-in-label built {label!r}")
        if e2e.subject_text(type_kb, "m.017hzy7", type_in_label=False) != \
                "germany":
            problems.append("plain label no longer the bare alias")

        spec_od = ev.SyntheticSpec(seed=1, n_entities=60,
                                   collision_rate=0.3,
                                   twin_outdegree_gap=True)
        kb2, tr2, te2 = ev.generate_synthetic(spec_od)
        index2 = build_index(kb2)
        vocab2 = e2e._training_vocab(tr2, kb2)
        model2 = fresh(e2e.E2EModel, vocab2, cfg, np.random.default_rng(42),
                       variant=e2e.VARIANTS["qa-t"])
        permuted = 0
        for q in tr2 + te2:
            base = answer(model2, kb2, index2, q.text, k=10 ** 6)
            rerank = answer(model2, kb2, index2, q.text, k=10 ** 6,
                            out_degree_sort=True)
            base_keys = [self._rank_key(f) for f in base]
            od_keys = [self._rank_key(f) for f in rerank]
            if sorted(base_keys) != sorted(od_keys):
                problems.append(f"{q.text!r}: re-sort changed membership")
                continue
            if base_keys != od_keys:
                permuted += 1
            drift = max(abs(a.combined - b.combined)
                        for a, b in zip(base, rerank))
            if drift > 2e-9:
                problems.append(f"{q.text!r}: re-sort moved a fact across "
                                f"a score gap of {drift:.2e}")
                continue
            scores = [f.combined for f in base]
            for lo, hi in self._score_runs(scores):
                if set(base_keys[lo:hi]) != set(od_keys[lo:hi]):
                    problems.append(f"{q.text!r}: fact left its score-tie "
                                    "group")
                    break
        _verdict(6, "mechanism liveness", problems[:5],
                 f"attention changed {changed}/{len(test)} rankings; "
                 f"out-degree re-sort permuted {permuted} tie groups")

    # -----------------------------------------------------------------
    # 7. parser conformance
    # -----------------------------------------------------------------

    def test_criterion_7_parser_conformance(self):
        problems = []

        tsv_lines = []
        i = 0
        while len(tsv_lines) < 1000:
            if i % 37 == 0:
                tsv_lines.append("")
            elif i % 11 == 0:
                tsv_lines.append(f"m.0m{i}\t/fix/rel/multi\tm.0a{i} m.0b{i}")
            elif i % 7 == 0:
                tsv_lines.append(f"www.freebase.com/m/0p{i}"
                                 f"\t/fix/rel/r{i % 5}\tm.0o{i}")
            else:
                tsv_lines.append(f"m.0t{i}\t/fix/rel/r{i % 5}\tm.0o{i}")
            i += 1
        facts = parse_triples_tsv(tsv_lines)
        text1 = serialize_triples_tsv(facts)
        facts2 = parse_triples_tsv(text1.splitlines())
        text2 = serialize_triples_tsv(facts2)
        if facts2 != facts:
            problems.append("tsv round-trip changed the fact list")
        if text2.encode() != text1.encode():
            problems.append("tsv serialization is not byte-stable")

        values = ['plain text', 'say "hi"', 'back\\slash', 'tab\there',
                  'line\nbreak']
        nt_lines = []
        i = 0
        while len(nt_lines) < 1000:
            if i % 10 == 0:
                nt_lines.append(f"# checkpoint {i}")
            elif i % 23 == 0:
                nt_lines.append("")
            elif i % 3 == 0:
                obj_value = values[i % len(values)]
                lang = "en" if i % 6 else None
                nt_lines.append(serialize_ntriples_line(
                    f"http://rdf.freebase.com/ns/m.0{i}",
                    "http://rdf.freebase.com/ns/type.object.name",
                    NTObject(obj_value, is_literal=True, lang=lang),
                ).rstrip("\n"))
            else:
                nt_lines.append(
                    f"<http://rdf.freebase.com/ns/m.0{i}> "
                    f"<http://rdf.freebase.com/ns/type.object.type> "
                    f"<http://rdf.freebase.com/ns/m.0k{i}> .")
            i += 1
        triples = list(parse_ntriples(nt_lines))
        text1 = "".join(serialize_ntriples_line(*t) for t in triples)
        triples2 = list(parse_ntriples(text1.splitlines()))
        text2 = "".join(serialize_ntriples_line(*t) for t in triples2)
        if triples2 != triples:
            problems.append("ntriples round-trip changed the triples")
        if text2.encode() != text1.encode():
            problems.append("ntriples serialization is not byte-stable")
        if not any(t[2].is_literal and t[2].value == 'say "hi"'
                   for t in triples):
            problems.append("escaped literal did not survive the fixture")

        if canonicalize_mid("www.freebase.com/m/02mjmr") != "m.02mjmr":
            problems.append("site-prefixed id did not canonicalize")
        if canonicalize_mid("m.017hzy7") != "m.017hzy7":
            problems.append("canonical id is not a fixed point")
        if canonicalize_mid("M/02HRH0_") != "m.02hrh0_":
            problems.append("case/slash id did not canonicalize")
        fig = parse_triples_tsv(
            ["m.01hmylb\t/music/album/album_content_type\tm.06vw6v"])
        if fig != [Fact("m.01hmylb", "/music/album/album_content_type",
                        "m.06vw6v")]:
            problems.append(f"album example parsed to {fig!r}")
        birth = parse_triples_tsv(
            ["www.freebase.com/m/02mjmr\t/people/person/place_of_birth"
             "\twww.freebase.com/m/02hrh0_"])
        if birth != [Fact("m.02mjmr", "/people/person/place_of_birth",
                          "m.02hrh0_")]:
            problems.append(f"birthplace example parsed to {birth!r}")
        nt = parse_ntriples_line(
            "<http://rdf.freebase.com/ns/m.017hzy7> "
            "<http://rdf.freebase.com/ns/common.topic.notable_types> "
            "<http://rdf.freebase.com/ns/m.0kpv11> .")
        if nt is None or nt[2].is_literal:
            problems.append("notable-type statement did not parse as IRIs")
        else:
            ids = (canonicalize_mid(nt[0]), canonicalize_relation(nt[1]),
                   canonicalize_mid(nt[2].value))
            if ids != ("m.017hzy7", "/common/topic/notable_types",
                       "m.0kpv11"):
                problems.append(f"notable-type ids became {ids}")
        esc = parse_ntriples_line('<a> <b> "Say \\"hi\\"" .')
        if esc is None or esc[2].value != 'Say "hi"':
            problems.append("literal escapes did not unescape")

        _verdict(7, "parser conformance", problems,
                 "1000-line tsv + 1000-line ntriples fixtures")

    # -----------------------------------------------------------------
    # 8. determinism smoke
    # -----------------------------------------------------------------

    @staticmethod
    def _run_smoke(root) -> dict[str, bytes]:
        bench = root / "bench"
        data = root / "data"
        models = root / "models"
        assert main(["synth", "--seed", "7", "--out", str(bench),
                     "--entities", "14", "--relations", "3"]) == 0
        kb = str(bench / "kb.qakb")
        assert main(["gen-data", "--kb", kb,
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(data)]) == 0
        assert main(["train-pipeline", "--data", str(data),
                     "--out", str(models), "--seed", "7",
                     "--epochs", "2", "--hidden-size", "6",
                     "--embed-dim", "8"]) == 0
        assert main(["train-e2e", "--kb", kb,
                     "--questions", str(bench / "train.tsv"),
                     "--out", str(models / "e2e.nn"), "--variant", "qa-t",
                     "--seed", "7", "--epochs", "2", "--hidden-size", "6",
                     "--embed-dim", "8", "--max-len", "10"]) == 0
        assert main(["eval", "--kb", kb,
                     "--questions", str(bench / "test.tsv"),
                     "--pipeline", str(models), "--strategy", "p-qa-out",
                     "--out", str(root / "rep_pipeline")]) == 0
        assert main(["eval", "--kb", kb,
                     "--questions", str(bench / "test.tsv"),
                     "--model", str(models / "e2e.nn"), "--variant", "qa-t",
                     "--out", str(root / "rep_e2e")]) == 0
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(root))] = path.read_bytes()
        return out

    def test_criterion_8_determinism_smoke(self, tmp_path, capsys):
        problems = []
        start = time.perf_counter()
        first = self._run_smoke(tmp_path / "run1")
        second = self._run_smoke(tmp_path / "run2")
        if sorted(first) != sorted(second):
            problems.append(f"file sets differ: {sorted(first)} vs "
                            f"{sorted(second)}")
        else:
            diff = [name for name in first if first[name] != second[name]]
            if diff:
                problems.append(f"bytes differ for {diff}")

        micro = tmp_path / "micro"
        micro.mkdir()
        (micro / "facts.tsv").write_text(
            "m.02mjmr\t/people/person/place_of_birth\tm.02hrh0_\n"
            "m.02mjmr\t/people/person/profession\tm.0fj9f\n"
            "m.06w2sn5\t/people/person/place_of_birth\tm.0v_x\n"
            "m.06w2sn5\t/people/person/profession\tm.0g0x\n")
        (micro / "aliases.tsv").write_text(
            "m.02mjmr\tbarack obama\n"
            "m.02hrh0_\thonolulu\n"
            "m.06w2sn5\tjustin bieber\n"
            "m.0fj9f\tpolitician\n"
            "m.0v_x\tlondon\n"
            "m.0g0x\tsinger\n")
        (micro / "types.tsv").write_text(
            "m.02mjmr\tus president\n"
            "m.06w2sn5\tmusical artist\n")
        (micro / "train.tsv").write_text(
            "m.02mjmr\t/people/person/place_of_birth\tm.02hrh0_\t"
            "where was barack obama born\n"
            "m.02mjmr\t/people/person/profession\tm.0fj9f\t"
            "what is the profession of barack obama\n"
            "m.06w2sn5\t/people/person/place_of_birth\tm.0v_x\t"
            "where was justin bieber born\n"
            "m.06w2sn5\t/people/person/profession\tm.0g0x\t"
            "what is the profession of justin bieber\n")
        (micro / "q.txt").write_text("where was obama born\n")
        assert main(["ingest", "--facts", str(micro / "facts.tsv"),
                     "--aliases", str(micro / "aliases.tsv"),
                     "--types", str(micro / "types.tsv"),
                     "--out", str(micro / "kb.qakb")]) == 0
        assert main(["train-e2e", "--kb", str(micro / "kb.qakb"),
                     "--questions", str(micro / "train.tsv"),
                     "--out", str(micro / "model.nn"),
                     "--variant", "qa-t-mwst", "--seed", "42"]) == 0
        capsys.readouterr()
        assert main(["answer", "--kb", str(micro / "kb.qakb"),
                     "--model", str(micro / "model.nn"),
                     "--variant", "qa-t-mwst", "--out-degree-sort",
                     "--questions", str(micro / "q.txt")]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        if record.get("entity") != "m.02mjmr":
            problems.append(f"asked where obama was born, top entity was "
                            f"{record.get('entity')!r}")
        if "m.02hrh0_" not in record.get("objects", []):
            problems.append(f"honolulu missing from answer objects "
                            f"{record.get('objects')!r}")
        elapsed = time.perf_counter() - start
        if elapsed >= 600.0:
            problems.append(f"smoke runtime {elapsed:.0f}s >= 10 min")
        _verdict(8, "determinism smoke", problems,
                 f"two identical runs, {len(first)} files, {elapsed:.0f}s")
