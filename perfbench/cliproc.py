"""Run one ``qakb`` command in this process, the way a user types it.

The benchmark drives the package only through ``qakb.cli.main`` with the
same argument lists a shell user passes.  ``invoke`` swaps in a stdin that
timestamps each line as the CLI takes it and a stdout that timestamps
each record as the CLI finishes writing it, so per-question latency is
measured from the line handed over to the JSON record written.  Each
timing is also given at nominal machine speed (see ``speed``).
"""

from __future__ import annotations

import gc
import hashlib
import io
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Sequence

from qakb import cli
from speed import Sampler, probe, scale


class _Feed:
    """Stand-in stdin: yields the given lines, noting when each is taken."""

    def __init__(self, lines: Sequence[str]):
        self._lines = iter(lines)
        self.times: list[float] = []
        self.probes: list[float] = []

    def __iter__(self) -> "_Feed":
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.probes.append(probe())
        self.times.append(time.perf_counter())
        return line + "\n"


class _Sink(io.TextIOBase):
    """Stand-in stdout: keeps the text, noting when each line completes."""

    def __init__(self):
        super().__init__()
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        if "\n" in text:
            now = time.perf_counter()
            self.times.extend([now] * text.count("\n"))
        self.parts.append(text)
        return len(text)


@dataclass
class Invocation:
    """What one command did: exit code, wall time, output and line clocks."""

    rc: Optional[int]
    wall_s: float
    stdout: str
    start: float
    probes: list[float]
    line_in: list[float] = field(default_factory=list)
    line_out: list[float] = field(default_factory=list)
    line_probes: list[float] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.rc == 0

    @property
    def nominal_wall_s(self) -> float:
        return self.wall_s * scale(self.probes)

    @property
    def startup_s(self) -> float:
        """Invocation to first question read (KB, index and model load)."""
        return self.line_in[0] - self.start

    @property
    def nominal_startup_s(self) -> float:
        return self.startup_s * scale([self.probes[0], self.line_probes[0]])

    def latencies_s(self) -> list[float]:
        """Per line: handed to the CLI until its record was written."""
        return [out - inp for inp, out in zip(self.line_in, self.line_out)]

    def nominal_latencies_s(self) -> list[float]:
        """Each latency scaled by the probes on either side of it: the one
        before its line and the one before the next (or the final one)."""
        after = self.line_probes[1:] + self.probes[-1:]
        return [lat * scale(pair) for lat, pair in
                zip(self.latencies_s(), zip(self.line_probes, after))]

    @property
    def all_probes(self) -> list[float]:
        return self.probes + self.line_probes


def invoke(argv: Sequence[str],
           lines: Optional[Sequence[str]] = None) -> Invocation:
    """Run ``qakb <argv>`` in-process; ``lines`` (if given) is its stdin.

    Garbage from earlier commands is collected before the clock starts so
    every repeat begins from the same heap.  Without ``lines`` the speed
    sampler runs for the whole command and its handler time is taken back
    out of the wall time; with ``lines`` the feed probes before each line
    instead.  An exception that escapes the CLI is recorded as a failed
    invocation rather than propagated.
    """
    sink = _Sink()
    feed = _Feed(lines) if lines is not None else None
    sampler = Sampler() if feed is None else None
    saved_out, saved_in = sys.stdout, sys.stdin
    gc.collect()
    probes = [probe()]
    sys.stdout = sink
    if feed is not None:
        sys.stdin = feed
    error = None
    start = time.perf_counter()
    try:
        with sampler or nullcontext():
            rc: Optional[int] = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not a dead run
        rc = None
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        sys.stdout, sys.stdin = saved_out, saved_in
    if sampler is not None:
        wall -= sampler.overhead_s
        probes.extend(sampler.probes)
    probes.append(probe())
    return Invocation(
        rc=rc, wall_s=wall, stdout="".join(sink.parts),
        start=start, probes=probes,
        line_in=feed.times if feed is not None else [],
        line_out=sink.times,
        line_probes=feed.probes if feed is not None else [],
        error=error,
    )


def digest(stdout: str, paths: Sequence[str]) -> str:
    """Hash of a command's stdout plus the bytes of the files it wrote."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in paths:
        h.update(path.encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
