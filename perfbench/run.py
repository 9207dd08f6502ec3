"""Benchmark entry point.

    python3 perfbench/run.py --workload answer --seed 1 --seconds 13 --trace 0

Runs one workload from the root of a source checkout against ``src/qakb``
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with no hook installed; with
``--trace 1`` they are the per-layer ones from one traced cycle.  Details
(sample counts, every sample, workload properties, the environment and,
when traced, the spans) go to ``perfbench/_work/<run>/``.
"""

import os

# One single-threaded process on the machine: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def properties(runner) -> dict:
    """Workload properties, read from the inputs without any hook."""
    from qakb.aliasindex import build_index, retrieve_question_candidates
    from qakb.kb import load_kb

    kb = load_kb(runner.kb)
    index = build_index(kb)
    cands = [retrieve_question_candidates(index, q.text)
             for q in runner.questions]
    n = len(cands)
    return {
        "kb_relations": len({f.relation for f in kb.facts}),
        "kb_entities": len(kb.entities),
        "questions_per_pass": n,
        "multi_cand_share": sum(1 for c in cands if len(c) >= 2) / n,
        "cands_per_q": sum(len(c) for c in cands) / n,
        "facts_per_q": sum(len(kb.by_subject.get(e.id, ()))
                           for c in cands for e in c) / n,
        "pair_lines": runner.pair_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qakb", "cli.py")):
        print(f"error: no qakb sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work",
                        f"{wl.name}-seed{args.seed}-trace{args.trace}")
    workloads.fresh_dir(work)
    env = environment()
    env["load_before"] = loadavg()
    tracer = layertrace.Tracer() if args.trace else None
    runner = workloads.Runner(wl, args.seed, args.seconds, work, tracer)
    started = time.perf_counter()
    cycle = {}
    try:
        runner.prepare()
        if args.trace:
            cycle = runner.traced_cycle()
        else:
            runner.measure()
    except workloads.Abort as exc:
        runner.fail(f"aborted: {exc}")
    env["load_after"] = loadavg()
    env["run_s"] = round(time.perf_counter() - started, 3)
    # Read before ``properties`` runs qakb code outside the CLI.
    rss_mb = peak_rss_mb()

    try:
        props = properties(runner) if runner.questions else {}
    except Exception as exc:  # properties never decide a run's fate
        props = {"error": f"{type(exc).__name__}: {exc}"}

    detail: dict = {"workload": wl.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "env": env, "properties": props,
                    "unit_wall_s": runner.unit_walls,
                    "unit_nominal_s": runner.unit_nominal,
                    "answer_passes": runner.passes,
                    "samples": runner.samples, "failures": runner.failures}
    if args.trace:
        metrics, missing = layertrace.per_layer(
            tracer, len(runner.questions), runner.qsteps, cycle, props)
        detail["trace"] = {"cycle": cycle, "missing_targets": tracer.missing,
                           "missing_metrics": missing,
                           "nesting_errors": tracer.nesting_errors(),
                           "spans": len(tracer.spans),
                           "self_times": _self_table(tracer)}
        write_spans(tracer, os.path.join(work, "spans.jsonl"))
        for name in missing:
            print(f"missing per-layer metric {name}: a wrapped target is "
                  f"gone ({', '.join(tracer.missing)})", file=sys.stderr)
    else:
        metrics = runner.end_to_end()
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB",
                                  "n": 1, "raw": None}
        detail["raw_samples"] = runner.raw
        detail["latencies_ms"] = {
            stack: {q: [round(n * 1e3, 4) for n, _ in v]
                    for q, v in per.items()}
            for stack, per in runner.latencies.items()}
    detail["metrics"] = metrics
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"properties {json.dumps(props, sort_keys=True)}")
    for name, m in sorted(metrics.items()):
        raw = "" if m.get("raw") is None else f" raw {m['raw']:.5f}"
        print(f"  {name:40s} {m['value']:12.5f} {m['unit']:6s} "
              f"n={m['n']}{raw}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }, sort_keys=True))
    return 0


def _self_table(tracer) -> dict:
    return {f"{root} {name}": {"calls": c, "incl_s": round(incl, 6),
                               "self_s": round(own, 6)}
            for (root, name), (c, incl, own)
            in sorted(tracer.self_times().items())}


def write_spans(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
