"""List the functions under ``src/qakb`` that no command of the full CLI
workflow reaches.

Runs ``tools/workflow_digest.py``'s workflow in-process (every command,
variant and strategy, ``ingest`` and the 5,000-entity workflow) under a
:func:`sys.setprofile` hook that records the code of every Python call.
Then it prints, for each function defined in a module under
``src/qakb`` (found with :mod:`ast`) whose code never ran,
``path:line  name  N`` with N its line count, nested functions included.
A function nested in an unreached one is counted in that one's lines and
not listed again.  A decorated function is matched by the line of its
first decorator, where its code object starts.  The last line gives the
totals.

    python3 tools/reach.py
    python3 tools/reach.py --src ../parent/src

Standard library only; the tree's own ``qakb`` needs numpy.  A command
that exits non-zero stops the run with exit 1, as in the digest.  A run
takes about 9 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
from typing import Optional

Key = tuple[str, int]  # (real path, first line)


def _walk(node: ast.AST, path: str, prefix: str, outer: Optional[Key],
          found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = child.decorator_list
            start = decorators[0].lineno if decorators else child.lineno
            key = (path, start)
            found[key] = (prefix + child.name, child.end_lineno - start + 1,
                          outer)
            _walk(child, path, f"{prefix}{child.name}.<locals>.", key, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, f"{prefix}{child.name}.", outer, found)
        else:
            _walk(child, path, prefix, outer, found)


def functions(package: str) -> dict[Key, tuple[str, int, Optional[Key]]]:
    """Every function defined in the modules under ``package``, by the
    real path of its module and the line its code object starts on: its
    qualified name, its line count and the key of the function it is
    nested in, if any."""
    found: dict = {}
    for dirpath, _, names in os.walk(package):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.realpath(os.path.join(dirpath, name))
                with open(path, encoding="utf-8") as fh:
                    _walk(ast.parse(fh.read(), path), path, "", None, found)
    return found


def reached_codes(src: str) -> set:
    """The code objects of every Python call made while the digest's
    workflow runs on the ``qakb`` of ``src``."""
    codes: set = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.abspath(src), here]
    os.environ["COLUMNS"] = "80"  # as the digest runs
    import workflow_digest

    sys.setprofile(hook)
    try:
        from qakb import e2e, pipeline
        from qakb.cli import main as qakb_main

        with tempfile.TemporaryDirectory(prefix="qakb-reach-") as root:
            w = workflow_digest.Workflow(os.path.realpath(root), qakb_main)
            workflow_digest.run_workflow(w, sorted(e2e.VARIANTS),
                                         pipeline.STRATEGIES)
    finally:
        sys.setprofile(None)
    return codes


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(here, "..", "src"),
                        help="the source tree whose qakb to run "
                             "(default: this checkout's src)")
    args = parser.parse_args()
    package = os.path.realpath(os.path.join(args.src, "qakb"))
    defined = functions(package)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in reached_codes(args.src)}
    unreached = [key for key, (_, _, outer) in sorted(defined.items())
                 if key not in reached and (outer is None or outer in reached)]
    lines = 0
    for path, start in unreached:
        name, size, _ = defined[(path, start)]
        lines += size
        print(f"{os.path.relpath(path, package)}:{start}  {name}  {size}")
    print(f"{len(unreached)} of {len(defined)} functions unreached, "
          f"{lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
