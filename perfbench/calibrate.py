"""A fixed kernel, sampled inside the timed phase, that measures machine speed.

The benchmark's host is a few vCPUs of a shared machine whose speed changes
in bursts of a second or two and in phases of minutes.  A :class:`SpeedProbe`
runs a short kernel from a ``SIGALRM`` handler every ``PERIOD_S`` seconds of
wall time, in the benchmark process itself, so its samples see the same CPU
at the same moments as the repetition around them.  The timed metrics are
scaled by the speed they give (:func:`speed`): they read as seconds on the
reference machine as it was when ``REFERENCE_S`` was measured.

The kernel is the benchmark's own code and never imports ``repro``, so a
change to the library cannot move it.  It has two parts: one-at-a-time
``eigh`` of small symmetric matrices, like PSD projection, and LU
factor/solves, like the KKT systems.  Over repetitions of both workloads
their equal mix tracked the repetition times best of the mixes tried (a
``solve_ivp`` part, closer in code to falsification, swung about 1.7 times
as far as the warm repetitions it sampled).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

#: Mean time of each kernel part, sampled inside a repetition, on the
#: reference machine (2 shared vCPUs, Intel Xeon x86_64, one BLAS thread)
#: when these constants were measured.
REFERENCE_S = {"eigh": 0.0021, "lu": 0.0009}
#: Wall seconds between two samples.
PERIOD_S = 0.25

_RNG = np.random.default_rng(0)
_BLOCKS = [block + block.T for order in (6, 10, 15)
           for block in _RNG.standard_normal((30, order, order))]
_MATRIX = _RNG.standard_normal((150, 150)) + 150.0 * np.eye(150)
_RHS = _RNG.standard_normal(150)


def eigh_part() -> float:
    return sum(float(np.linalg.eigh(block)[0][-1]) for block in _BLOCKS)


def lu_part() -> float:
    factor = scipy.linalg.lu_factor(_MATRIX)
    rhs = _RHS
    for _ in range(20):
        rhs = scipy.linalg.lu_solve(factor, rhs)
        rhs = rhs / np.linalg.norm(rhs)
    return float(rhs.sum())


PARTS = {"eigh": eigh_part, "lu": lu_part}


def kernel_seconds() -> dict:
    """Wall time of each part of the kernel, run once."""
    times = {}
    for name, part in PARTS.items():
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


def speed(samples, names=tuple(PARTS)) -> float:
    """Machine speed relative to the reference, from kernel samples.

    Each part's speed is its reference time over its mean time: a timed
    phase pays for the machine's slow bursts in full, so the kernel's bursts
    are averaged in, not voted out.  The speed is the mean over ``names``.
    """
    return statistics.fmean(
        REFERENCE_S[name] / statistics.fmean(sample[name] for sample in samples)
        for name in names)


class SpeedProbe:
    """Samples the kernel every ``PERIOD_S`` wall seconds while it is entered.

    Each sample is ``(start, seconds, {part: seconds})``.  The handler runs
    between bytecodes of the main thread, so a long C call delays a sample
    but never overlaps it.
    """

    def __init__(self) -> None:
        self.samples = []
        self._previous = None
        kernel_seconds()    # the first calls load code and caches

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        times = kernel_seconds()
        self.samples.append((start, time.perf_counter() - start, times))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> list:
        return [sample for sample in self.samples if start <= sample[0] < end]
