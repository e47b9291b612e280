"""Reference task that measures how fast this machine runs Python right now.

The benchmark's host is shared: over minutes, the same fsskit command can
take anywhere from 1x to 2x its quiet CPU time, because other guests slow
the physical cores (no steal time is booked for it, so CPU time does not
leave it out). `sample()` runs a fixed, fsskit-independent pure-Python task
of the same kind (CSV parsing, dict grouping, sorting) and returns its CPU
seconds. run.py takes one sample before every child process it times and
divides the run's CPU times by the mean sample, so a slow spell of the host
slows both sides of the ratio. Single samples are noisy; the mean of the
tens of samples in one run is not.
"""

from __future__ import annotations

import csv
import io
import time
from collections import defaultdict

# Nominal CPU seconds of one sample. Scaled figures read as CPU seconds on a
# machine where one sample takes this long; on the machine of README.md's
# reference figures a sample took 0.19-0.26 s while those were measured.
REFERENCE_S = 0.2

_TEXT = "".join(f"r{i},F{i % 37},{(i * 0.37) % 101:.6f},{i % 7}\n" for i in range(20000))


def _task() -> int:
    rows = list(csv.reader(io.StringIO(_TEXT)))
    totals: dict[str, float] = defaultdict(float)
    members: dict[str, list] = defaultdict(list)
    for rid, field, value, k in rows:
        v = float(value) * (int(k) + 1)
        totals[field] += v
        members[field].append((v, rid))
    return sum(len(sorted(members[f])) for f in sorted(totals, key=totals.get))


def sample(repeats: int = 4) -> float:
    """CPU seconds (this process) of ``repeats`` runs of the reference task."""
    start = time.process_time()
    for _ in range(repeats):
        _task()
    return time.process_time() - start
