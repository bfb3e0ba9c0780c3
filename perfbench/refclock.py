"""Reference clock: express case and pass times in units of the machine's
current speed.

On a shared VM the speed of the same Python code drifts by well over
the 25% that a regression bound allows, over seconds to minutes, as
other tenants' load comes and goes. So the end-to-end times are also
reported in "ref" units: multiples of the time one fixed block of
stdlib `Fraction` arithmetic takes, the same kind of work that
dominates qrucible's profile. The block is timed just before a case
whenever `EVERY_S` seconds have passed since the last sample, in the
process that runs the case (a pool worker inherits the wrapper through
`fork`). The block shares no code with qrucible, so a change to the
program moves the ref figures and a change of machine speed cancels.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from fractions import Fraction

EVERY_S = 0.25
NEAR_S = 1.0  # a case is measured against the samples this close to it
_XS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(48)]
_EXPECTED = sum(a * b for a in _XS for b in _XS)


def block() -> float:
    """Seconds one reference block takes now."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for a in _XS:
        for b in _XS:
            s = s + a * b
    took = time.perf_counter() - t0
    if s != _EXPECTED:
        raise RuntimeError("reference block computed a wrong sum")
    return took


def install() -> list:
    """Wrap `harness.verify` so each report carries `refclock`: (pid, case
    start, seconds of a reference block timed just before the case, or
    None if no sample was due). Returns patches for `spans.uninstall`."""
    from qrucible import harness

    orig = harness.verify
    last = [0.0]

    @functools.wraps(orig)
    def verify(*args, **kwargs):
        took = None
        if time.perf_counter() - last[0] >= EVERY_S:
            took = block()
            last[0] = time.perf_counter()
        start = time.perf_counter()
        report = orig(*args, **kwargs)
        report.refclock = (os.getpid(), start, took)
        return report

    harness.verify = verify
    return [(harness, "verify", orig)]


def samples(reports) -> list:
    return [r.refclock[2] for r in reports if r.refclock[2] is not None]


def local_units(reports) -> list:
    """For each report, the mean reference block time of the samples
    taken in the same process within NEAR_S of the case (the nearest
    sample if there is none)."""
    taken = [r.refclock for r in reports if r.refclock[2] is not None]
    units = []
    for r in reports:
        pid, start = r.refclock[0], r.refclock[1]
        end = start + r.elapsed_ms / 1000.0
        own = [(t, took) for p, t, took in taken if p == pid]

        def gap(t):
            return max(start - t, t - end, 0.0)

        near = [took for t, took in own if gap(t) <= NEAR_S]
        if not near:
            near = [min(own, key=lambda s: gap(s[0]))[1]]
        units.append(statistics.mean(near))
    return units
