"""Speed gauge that puts wall times on a fixed scale.

A benchmark host that shares its cores can change speed by a factor of two in
spells of ten seconds to a few minutes, longer than a run, so the raw wall
times of two runs of the same code can differ by more than any useful bound.
The gauge times a fixed probe (small numpy products, the kind of call the
pipeline makes most) when a repetition starts and then every ``INTERVAL_S``
from a SIGALRM handler in the main thread. ``scale`` takes the probes' own time
out of a wall time and rescales it by ``REFERENCE_S / mean probe time``: the
result is the time the repetition would take on a host where the probe takes
``REFERENCE_S``. The probe runs no qcmoments code, so a change to the program
moves the scaled time as it moves the raw one.

Set-up time is mostly a fresh interpreter importing modules, which that probe
does not track; it is scaled the same way by ``import_probe``, a fresh
interpreter that imports numpy and scipy, timed next to each set-up.
"""
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# probe duration that defines reference speed: about the probe's time on the
# 2-vCPU development host in its faster spells
REFERENCE_S = 0.0025
INTERVAL_S = 0.3
# import_probe's time at reference speed, likewise taken on that host
IMPORT_REFERENCE_S = 0.7


def probe():
    """Seconds taken by a fixed run of 400 small matrix products."""
    start = time.perf_counter()
    a = np.ones((16, 16))
    for _ in range(400):
        a = a @ a * 0.01 + 1.0
    return time.perf_counter() - start


class SpeedGauge:
    """Probes on entry and every ``INTERVAL_S`` inside the ``with`` block."""

    def __enter__(self):
        self.samples = [probe()]
        self.probe_s = 0.0          # probe time spent inside the block
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        seconds = probe()
        self.samples.append(seconds)
        self.probe_s += seconds

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds):
        """Reference seconds for ``seconds`` of wall time in the block."""
        return ((seconds - self.probe_s) * REFERENCE_S
                / statistics.fmean(self.samples))


def import_probe():
    """Seconds a fresh interpreter takes to import numpy and scipy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import numpy, scipy.linalg, scipy.optimize"], check=True)
    return time.perf_counter() - start
