"""Time measured against the machine's own speed, for timing on a shared host.

The virtual machines this benchmark was built on change speed by up to 2x for
seconds to minutes at a time, on both vCPUs at once, with no steal time
reported: every instruction simply runs slower, Python and BLAS alike. Wall
time then measures the host's load as much as the program.

SpeedProbe samples that speed in the measured process itself. A SIGALRM
interval timer interrupts the program every INTERVAL_S; the handler runs a
fixed probe (an interpreter loop, small numpy operations and a 64 x 64
matrix-vector product: the same mix as the workloads) once to warm up and once
timed. The handler's whole time is taken out of the measurement, and each
stretch of program time between two probes is scaled by NOMINAL_PROBE_S over
the probe time at its two ends. The result is reference seconds: the time the
span would have taken at the speed at which the probe takes NOMINAL_PROBE_S.
The probe shares no code with jointmm, so a change to the package cannot move
it; on the machine above the probe slows down by as much as the workloads do,
and pass times that spread by 13-18% in wall time spread by 1-3% in
reference seconds.

Python runs the handler between bytecodes, so inside a long C call the probe
waits for the call to return; the stretch is then longer, not lost.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.1
# about the probe's time in a slow phase of the machine above, so that
# reference seconds read close to wall seconds there
NOMINAL_PROBE_S = 1.2e-3

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((6, 6))
_W = _RNG.standard_normal((64, 64))


def scale(before_s, after_s):
    """Wall seconds to reference seconds, given probe times before and after."""
    return 2.0 * NOMINAL_PROBE_S / (before_s + after_s)


def _probe():
    s = 0.0
    for i in range(1500):
        s += (i & 7) * 0.25
    v = np.ones(6)
    for _ in range(100):
        v = np.maximum(_M @ v, 0.0)
        v = v / (1.0 + float(v.sum()))
    w = np.ones(64)
    for _ in range(40):
        w = _W @ w
        w = w / float(np.abs(w).max())
    return s, v, w


class SpeedProbe:
    """Context manager that samples the machine's speed while it is open.

    sample() takes one sample by hand; reference_seconds(t0, t1) converts a
    span of time.perf_counter() readings taken while the probe was open.

    The timer can fire anywhere, inside sample() and reference_seconds() too:
    a sample is stored with a single list append and read back through a
    single copy of the list, and a sample that would start inside another is
    skipped.
    """

    def __init__(self):
        self.samples = []  # (handler entry, timed probe, handler exit), perf_counter seconds
        self._busy = False
        self._old = None

    @property
    def probe_s(self):
        return [probe for _, probe, _ in list(self.samples)]

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            entered = time.perf_counter()
            _probe()
            start = time.perf_counter()
            _probe()
            end = time.perf_counter()
            self.samples.append((entered, end - start, end))
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer, for a stretch where another process does the work."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def reference_seconds(self, t0, t1):
        """Program time between t0 and t1, handlers taken out, in reference seconds."""
        entered, probe, left = np.asarray(list(self.samples)).T
        inside = np.flatnonzero((entered >= t0) & (left <= t1))
        # speed at each end of each stretch: the probe that bounds it, or the
        # nearest probe outside the span at the two ends of the span
        before = max(np.searchsorted(left, t0, side="right") - 1, 0)
        after = min(np.searchsorted(entered, t1, side="left"), len(probe) - 1)
        bounds = np.concatenate([[before], inside, [after]])
        starts = np.concatenate([[t0], left[inside]])
        ends = np.concatenate([entered[inside], [t1]])
        return float(np.sum((ends - starts) * scale(probe[bounds[:-1]], probe[bounds[1:]])))
