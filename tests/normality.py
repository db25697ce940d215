"""The Anderson-Darling normality screen that criterion 7 applies to bootstrap pivots."""
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormalityScreen:
    statistic: float
    critical: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical


def anderson_darling_normal(values: np.ndarray) -> float:
    """Anderson-Darling statistic against the standard normal (fully specified)."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 8:
        raise ValueError("need at least 8 observations")
    u = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1]))))


def normality_screen(values: np.ndarray, critical: float = 6.0) -> NormalityScreen:
    """Screen a pivot sample for normality.

    The default critical value 6.0 is the asymptotic upper point of the
    fully-specified-normal Anderson-Darling statistic at level 0.001.
    """
    return NormalityScreen(anderson_darling_normal(values), critical)
