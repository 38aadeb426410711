"""CPU speed calibration for the benchmark's timings.

The 2-core virtual machines this benchmark was sized on change speed by up
to a third for seconds to tens of seconds at a time, as other tenants of
the host come and go.  CPU time tracks wall time there, so no choice of
clock hides it, and medians within one run cannot remove a slow phase that
covers the whole run.  Every timed job is therefore bracketed by a fixed
calibration kernel, and its time is divided by the speed factor measured
just before and just after it.  Scaled times read as seconds at the speed
where the kernel takes ``REFERENCE_S``; raw times are printed alongside.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

#: Kernel time that defines speed factor 1 (about an uncontended run of it
#: on a 2.1 GHz Xeon with Python 3.11).
REFERENCE_S = 0.004


def kernel() -> int:
    """Fixed pure-Python work in the program's style: exact Fraction sums,
    small tuples, a keyed sort, string building and integer arithmetic."""
    total = Fraction(0)
    rows = []
    for k in range(1, 600):
        total += Fraction(k % 7, k % 13 + 1)
        rows.append((total, k, f"x{k}"))
    rows.sort(key=lambda row: row[0])
    acc = 0
    for k in range(18_000):
        acc += k * k % 7
    return acc + len(",".join(row[2] for row in rows))


def speed() -> float:
    """How many times slower than the reference the processor runs now.

    The median of five kernel runs: fewer let single interruptions through.
    """
    times = []
    for _ in range(5):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


def timed_pass(order, run_job) -> tuple[float, float, list[float]]:
    """Run each job once, calibrating before the first and after every job.

    ``run_job(job_id, argv)`` returns the seconds it spent in the program.
    Returns the raw total, the speed-scaled total and each job's factor
    (the mean of the calibrations on either side of it).
    """
    speeds = [speed()]
    raw = scaled = 0.0
    factors = []
    for job_id, argv in enumerate(order):
        elapsed = run_job(job_id, argv)
        speeds.append(speed())
        factors.append((speeds[-2] + speeds[-1]) / 2)
        raw += elapsed
        scaled += elapsed / factors[-1]
    return raw, scaled, factors
