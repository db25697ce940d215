"""Machine-speed reference: a frozen kernel timed next to every measured op.

This benchmark runs on shared machines whose speed drifts by 20-60 % within
minutes as other tenants' load changes, and different kinds of code slow
down by different factors.  Op wall times then spread between runs by more
than any useful regression bound.  Each workload therefore names a kernel
below that does the same kind of work as its hot path: Philox stream set-up
with a sparse Fisher-Yates loop and a fancy-index gather (``draws``),
multinomial weights with a matrix product and quantiles (``bootstrap``),
Bernoulli and with-replacement index draws with set bookkeeping
(``coupling``), or CSV text written and parsed (``text``).  The kernels are
frozen here and never call the library, so a change to the library does not
change them.  The kernel is timed before and after every op (and between
the parts of an op).  Each op's wall time divided by the median slowdown of
the timings around it and its neighbours (see run.py) estimates its time at
reference speed.
"""
from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

_COLUMNS = np.random.default_rng(12345).random((20000, 8))
_OFFSETS = np.arange(0, 20000, 40)
_P200 = np.full(200, 1.0 / 200)


def _draws(k: int) -> float:
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence([k, 7])))
    picks = g.integers(np.arange(200), 2000)
    displaced: dict[int, int] = {}
    order = np.empty(200, dtype=np.int64)
    for j in range(200):
        r = int(picks[j])
        a_j = displaced.get(j, j)
        order[j] = displaced.get(r, r)
        displaced[r] = a_j
    order %= _OFFSETS.size
    pos = np.floor(g.random(200)[:, None] * 4 + 4 * np.arange(10)[None, :]).astype(np.int64)
    y = _COLUMNS[_OFFSETS[order][:, None] + pos].sum(axis=1)
    return float(np.var(y[:, 0], ddof=1)) + float(y.mean(axis=0)[1] / y.mean(axis=0)[2])


def _bootstrap(k: int) -> float:
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence([k, 8])))
    d = g.multinomial(199, _P200, size=40).astype(np.float64)
    t = d @ _COLUMNS[:200]
    lo, hi = np.quantile(t[:, 0] / t[:, 1], [0.025, 0.975])
    return float(np.var(t[:, 0], ddof=1)) + float(hi - lo)


def _coupling(k: int) -> float:
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence([k, 9])))
    be = np.flatnonzero(g.random(2000) < 0.01)
    taken = set(int(i) for i in be)
    extra = [int(c) for c in g.integers(0, 2000, size=40) if int(c) not in taken][:10]
    wr = g.integers(0, 2000, size=50)
    uniq, first, counts = np.unique(wr, return_index=True, return_counts=True)
    x = _COLUMNS[wr, 0]
    return float(np.var(x, ddof=1)) + len(extra) + float(counts[np.argsort(first)][0])


def _text(k: int) -> float:
    # 1,000 rows: a working set of about 0.5 MB, like a slice of frame I/O
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["psu_id", "ssu_id"] + [f"y{j}" for j in range(6)])
    for j in range(1000):
        writer.writerow([j // 40, j % 40] + [repr(float(v)) for v in _COLUMNS[(k * 1000 + j) % 20000, :6]])
    reader = csv.reader(io.StringIO(buf.getvalue()))
    next(reader)
    rows: dict[int, list[tuple[int, list[float]]]] = {}
    seen: set[tuple[int, int]] = set()
    for row in reader:
        psu, ssu = int(row[0]), int(row[1])
        seen.add((psu, ssu))
        rows.setdefault(psu, []).append((ssu, [float(v) for v in row[2:]]))
    return float(np.array([y for v in rows.values() for _, y in v]).sum()) + len(seen)


# kernel -> (function, calls per timing, reference seconds per timing).  A
# reference is a round value near the lower quartile of 200 timings on a
# 2-vCPU x86_64 VM with Python 3.11.7 and numpy 2.4.6.
KERNELS = {
    "draws": (_draws, 20, 0.007),
    "bootstrap": (_bootstrap, 8, 0.005),
    "coupling": (_coupling, 40, 0.0037),
    "text": (_text, 1, 0.015),
}


def kernel_seconds(kernel: str) -> float:
    """Wall seconds of one timing of the kernel."""
    fn, calls, _ = KERNELS[kernel]
    start = time.perf_counter()
    for k in range(calls):
        fn(k)
    return time.perf_counter() - start


def warm_up(kernel: str) -> None:
    """First calls pay numpy's lazy set-up; keep that out of every speed measurement."""
    kernel_seconds(kernel)


def sample(kernel: str, timings: list[float], count: int = 3) -> None:
    """Append a few kernel timings, so that one preempted timing does not count."""
    timings.extend(kernel_seconds(kernel) for _ in range(count))


def slowdown(kernel: str, timings: list[float]) -> float:
    """Machine slowdown for this kind of work (1.0 = reference speed): median timing over reference."""
    return statistics.median(timings) / KERNELS[kernel][2]


class Stopwatch:
    """Wall time of the parts of one op, with kernel timings at every boundary.

    With ``sample_laps=False`` the kernel runs only before the op, so that a
    traced op's spans hold no kernel time.
    """

    def __init__(self, kernel: str, sample_laps: bool = True):
        self.kernel = kernel
        self.sample_laps = sample_laps
        self.laps: dict[str, float] = {}
        self.timings: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        sample(self.kernel, self.timings)
        self._start = time.perf_counter()

    def lap(self, name: str) -> None:
        """Close the current part of the op and start the next."""
        self.laps[name] = time.perf_counter() - self._start
        if self.sample_laps:
            sample(self.kernel, self.timings)
        self._start = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return sum(self.laps.values())
