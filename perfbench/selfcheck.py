"""Self-check for the benchmark.

    python3 perfbench/selfcheck.py          # ~6 min

For every workload in ``BENCHMARK.json`` it makes one short untraced run
and two short traced runs with different seeds, and checks that:

* the last stdout line is the result object with exactly the four keys,
  ``correct`` true and nothing failed;
* every metric named in ``BENCHMARK.json`` is emitted with its unit, as a
  finite number, with a sample count of at least one in ``result.json``;
  end-to-end metrics are never 0;
* traced spans were written, are all closed and nest inside their
  parents (``trace.nesting_errors`` in ``result.json``), and no wrapped
  target is missing;
* count-type per-layer metrics repeat exactly across seeds.

Finally it runs the benchmark in a directory holding only
``BENCHMARK.json`` and the benchmark's files, where it must fail without
printing a result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"ms", "s", "us", "ratio", "MB"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, cwd: str = ROOT,
        script: str = os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return proc


def check_run(bench: dict, workload: str, seed: int, trace: int,
              problems: list[str]) -> dict:
    where = f"{workload} seed {seed} trace {trace}"
    proc = run(workload, seed, trace)
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct\n{proc.stderr}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    work = os.path.join(HERE, "_work", f"{workload}-seed{seed}-trace{trace}")
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        detail = json.load(fh)
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != spec["unit"]:
            problems.append(f"{where}: {spec['name']} unit {got.get('unit')!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{where}: {spec['name']} value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{where}: {spec['name']} is 0")
        if detail["metrics"].get(spec["name"], {}).get("n", 0) < 1:
            problems.append(f"{where}: {spec['name']} has no sample count")
    if trace:
        info = detail["trace"]
        if info["spans"] < 1:
            problems.append(f"{where}: no spans written")
        if info["nesting_errors"]:
            problems.append(f"{where}: {info['nesting_errors']} of "
                            f"{info['spans']} spans do not nest")
        if info["missing_targets"]:
            problems.append(f"{where}: missing wrapped targets "
                            f"{info['missing_targets']}")
    return metrics


def check_bare(problems: list[str]) -> None:
    """Without the sources beside it the benchmark must fail cleanly."""
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("answer", 1, 0, cwd=bare,
               script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append("bare directory: the benchmark did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems: list[str] = []
    count_units = {m["name"] for m in bench["per_layer"]
                   if m["unit"] not in TIME_UNITS}
    for workload in (w["name"] for w in bench["workloads"]):
        check_run(bench, workload, 1, 0, problems)
        first = check_run(bench, workload, 1, 1, problems)
        second = check_run(bench, workload, 2, 1, problems)
        for name in sorted(count_units):
            a, b = first.get(name), second.get(name)
            if a and b and a["value"] != b["value"]:
                problems.append(f"{workload}: count {name} differs across "
                                f"seeds: {a['value']} vs {b['value']}")
        print(f"checked {workload}", flush=True)
    check_bare(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
