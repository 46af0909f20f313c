"""How fast the host runs, sampled all through a timed section.

The benchmark runs on a few cores of a shared host.  Other tenants' load
slows everything in the machine by up to about 3x, in spells that last from
under a second to many minutes, so raw times of the same code spread wider
from run to run than any change worth detecting.  A fixed calibration
kernel slows down in step with the workload: on a sampled stretch, the ratio
of a discord call to the kernel timed next to it spread 2-3 % (quartiles
over median) while the raw call time spread 7 % and moved by up to 2x.

``Track`` runs the kernel from a SIGALRM handler every PERIOD_S of wall time
while the workload runs, so it samples the host's speed inside long calls as
well as between short ones.  The handler runs in the main thread between
bytecodes, so it never overlaps the workload; its own time is subtracted
from every interval it interrupts.  ``Track.normalized(a, b)`` is the time
the host would have taken for the interval [a, b] when quiet: each piece of
the interval between two samples is divided by the local slowdown, the
median kernel time of the NEAREST samples around it over REF_CHUNK_S.

The kernel uses numpy, scipy and plain Python only, never qdiscord, so a
change to qdiscord cannot move it.  Its mix follows the discord engine's: an
einsum over a grid of measurement angles with elementwise log2, a 4x4
Hermitian eigenproblem, and a short Nelder-Mead run on a scalar Python
objective.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.optimize import minimize

PERIOD_S = 0.05  # one kernel sample per 50 ms of wall time
NEAREST = 7  # samples whose median gives the local slowdown
REF_CHUNK_S = 0.6e-3  # median kernel time on the quiet reference host
WARMUP = 5

_ANGLES = np.linspace(0.0, np.pi, 600)
_RHO4 = np.array(
    [
        [0.4, 0.1 + 0.05j, 0.0, 0.02j],
        [0.1 - 0.05j, 0.3, 0.03, 0.0],
        [0.0, 0.03, 0.2, 0.01],
        [-0.02j, 0.0, 0.01, 0.1],
    ]
).reshape(2, 2, 2, 2)
_X0 = np.array([-1.2, 1.0])


def _rosen(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def kernel():
    """One calibration sample's fixed work."""
    ct, st = np.cos(_ANGLES), np.sin(_ANGLES)
    v = np.stack([ct + 0j, np.exp(1j * _ANGLES) * st], axis=1)
    m = np.einsum("nb,abcd,nd->nac", v.conj(), _RHO4, v, optimize=True)
    p = np.real(m[:, 0, 0] + m[:, 1, 1]) + 1e-3
    acc = float(np.dot(p, np.log2(p)))
    acc += float(np.linalg.eigvalsh(_RHO4.reshape(4, 4))[0])
    res = minimize(_rosen, _X0, method="Nelder-Mead", options={"maxiter": 20})
    return acc + float(res.fun)


class Track:
    """Kernel samples (start, duration), taken on a timer during a section
    and once on entering and leaving it, so there is always one."""

    def __init__(self):
        self.starts, self.durations = [], []
        for _ in range(WARMUP):
            kernel()

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def slowdown(self):
        """Median slowdown over the whole section (1.0 = quiet host)."""
        return statistics.median(self.durations) / REF_CHUNK_S

    def _slowdown_near(self, t):
        i = bisect.bisect(self.starts, t)
        lo = max(0, min(i - NEAREST // 2, len(self.starts) - NEAREST))
        return statistics.median(self.durations[lo : lo + NEAREST]) / REF_CHUNK_S

    def raw(self, a, b):
        """Length of [a, b] without the samples taken inside it."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        inside = zip(self.starts[i:j], self.durations[i:j])
        return (b - a) - sum(min(d, b - s) for s, d in inside)

    def normalized(self, a, b):
        """Quiet-host time of [a, b]: each piece between samples, without
        the samples' own time, divided by the local slowdown."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        cuts = [a] + self.starts[i:j] + [b]
        return sum(
            self.raw(s, e) / self._slowdown_near((s + e) / 2)
            for s, e in zip(cuts, cuts[1:])
        )
