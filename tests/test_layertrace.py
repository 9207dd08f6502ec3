"""The benchmark's trace hooks still find every ``qakb`` name they wrap.

``perfbench/layertrace.py`` wraps functions and methods by name; one that
a refactor renames or drops zeroes the per-layer metrics that read it.
This catches that in the unit suite instead of only in the benchmark's
own self-check.
"""

import importlib.util
import pathlib
import sys

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
