"""Correctness checks on workload outputs.

Every check returns a list of problems; an empty list means it passed.  The
checks compare outputs with exact population values or exact identities, so
they hold for any correct random stream and do not pin the library's draws.
Checks on Monte Carlo means pool the ops of one run: the pooled standard
error shrinks with the number of ops, which makes a real bias easier to see
while keeping the false-alarm rate at a few checks per run.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

# MC standard errors allowed between a pooled mean and its exact value
Z_MEAN = 4.0
# slack of the one-sided be_si bound, the rule of the library's BoundReport
Z_BOUND = 3.0
# two-sided tolerance of the sir_si census identity lhs = (n_I-1)/(N_I-1)
Z_IDENTITY = 4.0
# separation between neighbouring rows of the pooled decay table
Z_DECAY = 3.0

DECAY_METRICS = ("mean_sq_diff", "abs_s2_diff", "boot_sq_diff")


def pooled(means: Sequence[float], ses: Sequence[float]) -> tuple[float, float]:
    """Mean of k equally sized MC estimates and its standard error."""
    k = len(means)
    if k == 0:
        return math.nan, math.nan
    return float(np.mean(means)), math.sqrt(float(np.sum(np.square(ses)))) / k


def check_mean(label: str, exact: float, means: Sequence[float], ses: Sequence[float],
               z: float = Z_MEAN) -> list[str]:
    """The pooled MC mean lies within z standard errors of the exact value."""
    mean, se = pooled(means, ses)
    if not (math.isfinite(mean) and math.isfinite(se) and se > 0):
        return [f"{label}: pooled mean {mean!r} with se {se!r} is not usable"]
    dev = (mean - exact) / se
    if abs(dev) > z:
        return [f"{label}: pooled mean {mean:.10g} is {dev:+.2f} se from exact {exact:.10g}"]
    return []


def check_positive(values: Mapping[str, float]) -> list[str]:
    """Every value is finite and strictly positive (variances, standard errors)."""
    return [f"{k}: {v!r} is not finite and positive"
            for k, v in values.items() if not (math.isfinite(v) and v > 0)]


def check_finite(values: Mapping[str, float]) -> list[str]:
    return [f"{k}: {v!r} is not finite" for k, v in values.items() if not math.isfinite(v)]


def check_be_si(label: str, lhs: float, se: float, rhs: float, z: float = Z_BOUND) -> list[str]:
    """E(Delta_2^2)/V <= sqrt(1/n_I + 1/(N_I - n_I)) up to z standard errors."""
    if not (math.isfinite(lhs) and math.isfinite(se) and se >= 0):
        return [f"{label}: lhs {lhs!r} or se {se!r} is not finite"]
    if lhs > rhs + z * se:
        return [f"{label}: lhs {lhs:.6g} exceeds bound {rhs:.6g} by {(lhs - rhs) / se:.2f} se"]
    return []


def check_sir_si_identity(label: str, n_i: int, n_psus: int, lhs: Sequence[float],
                          ses: Sequence[float], z: float = Z_IDENTITY) -> list[str]:
    """Census second stage: the pooled sir_si ratio equals (n_I-1)/(N_I-1), two-sided."""
    return check_mean(label, (n_i - 1.0) / (n_psus - 1.0), lhs, ses, z)


def check_decay_order(label: str, rows: Sequence[Mapping[str, float]]) -> list[str]:
    """Each decay metric strictly decreases along the scaling sequence of frames."""
    problems = []
    for metric in DECAY_METRICS:
        vals = [r[metric] for r in rows]
        if not all(math.isfinite(v) for v in vals) or any(
            cur >= prev for prev, cur in zip(vals, vals[1:])
        ):
            problems.append(f"{label} {metric}: {vals} is not strictly decreasing")
    return problems


def check_decay_pooled(label: str, ops: Sequence[Sequence[Mapping[str, float]]],
                       z: float = Z_DECAY) -> list[str]:
    """Pooled over ops, neighbouring decay rows are separated by z standard errors."""
    problems = []
    for metric in DECAY_METRICS:
        cols = [pooled([op[i][metric] for op in ops], [op[i][metric + "_se"] for op in ops])
                for i in range(len(ops[0]))]
        for (prev, se_prev), (cur, se_cur) in zip(cols, cols[1:]):
            if not prev - cur > z * math.hypot(se_prev, se_cur):
                problems.append(
                    f"{label} {metric}: pooled {prev:.6g} -> {cur:.6g} is not a decrease "
                    f"by {z} se"
                )
    return problems


def check_frame_equal(expected, got) -> list[str]:
    """Two frames are identical bit for bit: values, sizes, PSU ids and SSU ids."""
    problems = []
    for name in ("values", "sizes", "psu_ids", "ssu_ids"):
        a = np.asarray(getattr(expected, name))
        b = np.asarray(getattr(got, name))
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"frame {name} differ ({a.dtype}{a.shape} vs {b.dtype}{b.shape})")
    return problems


def check_same_outputs(a: Mapping[str, bytes], b: Mapping[str, bytes]) -> list[str]:
    """Two runs wrote the same files with the same bytes."""
    if sorted(a) != sorted(b):
        return [f"output files differ: {sorted(a)} vs {sorted(b)}"]
    return [f"{name}: bytes differ" for name in sorted(a) if a[name] != b[name]]
