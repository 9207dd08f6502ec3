"""Timings scaled to a nominal machine speed.

On the shared 2-vCPU VM this benchmark was built on, the same code runs
at two speeds about 2x apart, and the host switches between them every
0.1 s to 30 s.  Raw wall times therefore swing by 1.4x from run to run,
and CPU time tracks wall time, so neither is steady.  What is steady is
the ratio between a timed interval and a fixed reference snippet timed
at the same moment on the same thread:

* between questions, the stdin feed times one snippet just before it
  hands the CLI each line;
* during a whole command, a 10 ms interval timer runs the snippet in a
  signal handler on the main thread, and the handler's own time is taken
  back out of the command's wall time.

A time ``t`` measured while the snippet took ``d`` is reported as
``t * NOMINAL_S / d``: the time the interval would take on this machine
at the speed at which the snippet takes ``NOMINAL_S`` (its time in the
host's fast state).  Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import signal
import time
from typing import Sequence

import numpy as np

NOMINAL_S = 100e-6
TICK_S = 0.01

_A = np.linspace(0.0, 1.0, 16 * 24).reshape(16, 24)
_X = np.linspace(0.0, 1.0, 24)
_S1, _S2 = "/fact/kupoti", "/fact/wubaki"


def probe() -> float:
    """Seconds for the reference snippet.

    Its two halves slow down differently when the host is in its slow
    state, like the two kinds of code the workloads run: small numpy
    products among dict, str and float work (the autodiff models), and a
    pure-Python edit-distance table (span labelling and DRR).  Timed on
    its own, either half leaves the other kind of code 2-5x noisier.
    """
    start = time.perf_counter()
    table = {}
    for i in range(40):
        table[i] = float((_A @ _X)[0]) + i * 0.5
        str(i) + "x"
    prev = list(range(len(_S2) + 1))
    for i, ca in enumerate(_S1, start=1):
        cur = [i]
        for j, cb in enumerate(_S2, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return time.perf_counter() - start


def scale(probes: Sequence[float]) -> float:
    """Factor taking a raw time to nominal speed, given the probes timed
    across it (a time average of the speed, so ``mean(NOMINAL / d)``)."""
    return sum(NOMINAL_S / d for d in probes) / len(probes)


class Sampler:
    """Times the snippet every ``TICK_S`` while active (main thread only).

    ``probes`` are the snippet times; ``overhead_s`` is the handlers' whole
    time, to be taken out of the wall time of the interval they ran in.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.overhead_s = 0.0
        self._saved = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.overhead_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
