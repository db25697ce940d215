"""Population data model: clustered finite populations of PSUs and SSUs.

A :class:`Frame` is an immutable two-level finite population.  Primary
sampling units (PSUs) partition the secondary sampling units (SSUs); every
SSU carries a q-vector of study variables.  Frames are stored columnwise
(one flat ``(N, q)`` value matrix plus PSU sizes) so that sampling engines
can gather values without per-unit Python objects.

The module also ships a synthetic-population generator for a Gaussian
two-level model with analytically calibrated intra-cluster correlation and
cross-variable correlation, and delimited-text ingestion/export.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .rng import substream

__all__ = [
    "Frame",
    "SyntheticConfig",
    "IngestError",
    "calibrate_model",
    "generate_population",
    "ingest_frame",
    "frame_to_csv",
    "population_summary",
    "empirical_icc",
    "empirical_pair_correlation",
]


class IngestError(ValueError):
    """Malformed frame file.  ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _read_only(a: np.ndarray) -> np.ndarray:
    """A non-writable view of ``a``; a write through it raises ValueError."""
    view = a.view()
    view.flags.writeable = False
    return view


class Frame:
    """Immutable two-level population.

    The arrays it exposes are read-only views: a write through them raises
    instead of leaving the cached subtotals, within-PSU variances and
    stratum groups stale.  The views copy nothing, so they share memory
    with the arrays passed in.

    Parameters
    ----------
    values : (N, q) float array
        SSU study variables, rows grouped by PSU in frame order.
    sizes : (N_I,) int array
        Number of SSUs in each PSU; ``sum(sizes) == N``.
    psu_ids, ssu_ids : optional integer labels (defaults: 0..N_I-1 and
        0..N_i-1 within each PSU).
    strata : optional sequence of N_I stratum labels; labels partition the
        PSU list into groups (grouped by first appearance).
    """

    def __init__(
        self,
        values: np.ndarray,
        sizes: np.ndarray,
        psu_ids: np.ndarray | None = None,
        ssu_ids: np.ndarray | None = None,
        strata: Sequence[str] | None = None,
    ):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("values must be a (N, q) matrix with q >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("all y values must be finite")
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("sizes must be a nonempty 1-d array")
        if np.any(sizes < 1):
            raise ValueError("every PSU must contain at least one SSU")
        if int(sizes.sum()) != values.shape[0]:
            raise ValueError("sum(sizes) must equal the number of SSU rows")

        self._values = _read_only(values)
        self._sizes = _read_only(sizes)
        self._offsets = _read_only(np.concatenate(([0], np.cumsum(sizes))))

        n_psus = sizes.size
        if psu_ids is None:
            psu_ids = np.arange(n_psus, dtype=np.int64)
        else:
            psu_ids = np.asarray(psu_ids, dtype=np.int64)
            if psu_ids.shape != (n_psus,):
                raise ValueError("psu_ids must have one entry per PSU")
            if np.unique(psu_ids).size != n_psus:
                raise ValueError("psu_ids must be unique")
        self._psu_ids = _read_only(psu_ids)

        if ssu_ids is None:
            ssu_ids = np.concatenate([np.arange(n, dtype=np.int64) for n in sizes])
        else:
            ssu_ids = np.asarray(ssu_ids, dtype=np.int64)
            if ssu_ids.shape != (values.shape[0],):
                raise ValueError("ssu_ids must have one entry per SSU row")
        for i in range(n_psus):
            seg = ssu_ids[self._offsets[i] : self._offsets[i + 1]]
            if np.unique(seg).size != seg.size:
                raise ValueError(f"duplicate ssu_id within PSU {psu_ids[i]}")
        self._ssu_ids = _read_only(ssu_ids)

        if strata is not None:
            strata = tuple(str(s) for s in strata)
            if len(strata) != n_psus:
                raise ValueError("strata must have one label per PSU")
        self._strata = strata

        self._subtotals: np.ndarray | None = None
        self._within_var: np.ndarray | None = None
        self._groups: dict[str, np.ndarray] | None = None

    # -- basic shape -------------------------------------------------------

    @property
    def n_psus(self) -> int:
        return self._sizes.size

    @property
    def n_ssus(self) -> int:
        return self._values.shape[0]

    @property
    def n_vars(self) -> int:
        return self._values.shape[1]

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def psu_ids(self) -> np.ndarray:
        return self._psu_ids

    @property
    def ssu_ids(self) -> np.ndarray:
        return self._ssu_ids

    @property
    def strata(self) -> tuple[str, ...] | None:
        return self._strata

    # -- derived quantities --------------------------------------------------

    @property
    def subtotals(self) -> np.ndarray:
        """(N_I, q) matrix of PSU subtotals of the study variables."""
        if self._subtotals is None:
            self._subtotals = _read_only(
                np.add.reduceat(self._values, self._offsets[:-1], axis=0)
            )
        return self._subtotals

    @property
    def within_psu_variances(self) -> np.ndarray:
        """(N_I, q) within-PSU dispersions S^2 of the y values (ddof=1).

        PSUs with a single SSU get 0 (no subsampling is possible there).
        """
        if self._within_var is None:
            sums = self.subtotals
            sqsums = np.add.reduceat(self._values**2, self._offsets[:-1], axis=0)
            n = self._sizes[:, None].astype(np.float64)
            ss = sqsums - sums**2 / n
            out = np.zeros_like(ss)
            multi = self._sizes > 1
            out[multi] = ss[multi] / (n[multi] - 1.0)
            self._within_var = _read_only(np.maximum(out, 0.0))
        return self._within_var

    def stratum_psu_indices(self) -> dict[str, np.ndarray]:
        """PSU index arrays per stratum label, labels in first-appearance order."""
        if self._strata is None:
            raise ValueError("frame has no strata")
        if self._groups is None:
            groups: dict[str, list[int]] = {}
            for i, label in enumerate(self._strata):
                groups.setdefault(label, []).append(i)
            self._groups = {
                k: _read_only(np.asarray(v, dtype=np.int64)) for k, v in groups.items()
            }
        return dict(self._groups)


def population_summary(frame: Frame, var_index: int = 0) -> tuple[float, float, float]:
    """Exact total Y, PSU-mean mu_Y and dispersion of the PSU subtotals.

    The dispersion is ``S^2 = (N_I - 1)^{-1} sum_i (Y_i - mu_Y)^2`` over the
    PSU subtotals of variable ``var_index``.  Raises for single-PSU frames,
    where S^2 is undefined.
    """
    if not 0 <= var_index < frame.n_vars:
        raise IndexError(f"var_index {var_index} out of range for q={frame.n_vars}")
    if frame.n_psus < 2:
        raise ValueError("subtotal dispersion is undefined for fewer than 2 PSUs")
    sub = frame.subtotals[:, var_index]
    total = float(sub.sum())
    mu = total / frame.n_psus
    s2 = float(np.sum((sub - mu) ** 2) / (frame.n_psus - 1))
    return total, mu, s2


# ---------------------------------------------------------------------------
# Synthetic populations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration of the Gaussian two-level generator.

    Produces ``2 * len(icc_targets)`` variables: one pair per target.  Pair h
    shares a PSU-level effect ``lam + sigma * v_i`` and an SSU-level common
    shock, calibrated so that the intra-cluster correlation of each variable
    equals ``icc_targets[h]`` and the within-pair correlation equals
    ``pair_corr_target`` in the generating model.
    """

    n_psus: int
    mean_size: float
    size_cv: float
    lam: float
    sigma: float
    icc_targets: tuple[float, ...]
    pair_corr_target: float
    seed: int

    def __post_init__(self):
        if self.n_psus < 1:
            raise ValueError("n_psus must be >= 1")
        if self.mean_size < 2:
            raise ValueError("mean_size must be >= 2")
        if self.size_cv < 0:
            raise ValueError("size_cv must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not self.icc_targets:
            raise ValueError("icc_targets must be nonempty")
        for rho in self.icc_targets:
            calibrate_model(rho, self.pair_corr_target)  # validates feasibility


def calibrate_model(icc_target: float, pair_corr_target: float) -> tuple[float, float]:
    """Solve the generator's moment equations for (rho_h, alpha).

    With c^2 = (1 - rho_h)/rho_h, the model has
    ``ICC = 1 / (1 + c^2 (alpha^2 + 1))`` and pair correlation
    ``(1 + c^2 alpha^2) / (1 + c^2 (alpha^2 + 1))``.  Setting these to the
    targets gives ``(1 - rho_h)/rho_h = (1 - r*)/rho*`` and
    ``alpha = sqrt((r* - rho*)/(1 - r*))``, which hits both targets exactly.
    """
    rho_star, r_star = float(icc_target), float(pair_corr_target)
    if not 0.0 < rho_star < 1.0 or not 0.0 < r_star < 1.0:
        raise ValueError("targets must lie in (0, 1)")
    if rho_star >= r_star:
        raise ValueError(
            f"infeasible calibration: icc_target {rho_star} must be < "
            f"pair_corr_target {r_star}"
        )
    rho_h = rho_star / (rho_star + 1.0 - r_star)
    alpha = math.sqrt((r_star - rho_star) / (1.0 - r_star))
    return rho_h, alpha


def generate_population(cfg: SyntheticConfig) -> Frame:
    """Generate a frame under the two-level Gaussian model.

    PSU sizes are ``round(mean_size * (1 + size_cv * g_i))`` with standard
    normal ``g_i``, clamped to >= 2.  For each pair h of variables,

        y[2h]   = lam_i + c*sigma*(alpha*eps + eta)
        y[2h+1] = lam_i + c*sigma*(alpha*eps + nu)

    with ``lam_i = lam + sigma*v_i`` per PSU, ``c = sqrt((1-rho_h)/rho_h)``
    and independent standard normal (eps, eta, nu) per SSU and per pair.
    Deterministic given ``cfg.seed``.
    """
    rng = substream(cfg.seed, "population")

    if cfg.size_cv == 0:
        sizes = np.full(cfg.n_psus, max(2, round(cfg.mean_size)), dtype=np.int64)
    else:
        g = rng.standard_normal(cfg.n_psus)
        sizes = np.rint(cfg.mean_size * (1.0 + cfg.size_cv * g)).astype(np.int64)
        sizes = np.maximum(sizes, 2)
    n_total = int(sizes.sum())

    v = rng.standard_normal(cfg.n_psus)
    lam_i = cfg.lam + cfg.sigma * v
    lam_ssu = np.repeat(lam_i, sizes)

    values = np.empty((n_total, 2 * len(cfg.icc_targets)), dtype=np.float64)
    for h, rho_star in enumerate(cfg.icc_targets):
        rho_h, alpha = calibrate_model(rho_star, cfg.pair_corr_target)
        scale = math.sqrt((1.0 - rho_h) / rho_h) * cfg.sigma
        eps = rng.standard_normal(n_total)
        eta = rng.standard_normal(n_total)
        nu = rng.standard_normal(n_total)
        values[:, 2 * h] = lam_ssu + scale * (alpha * eps + eta)
        values[:, 2 * h + 1] = lam_ssu + scale * (alpha * eps + nu)

    return Frame(values, sizes)


def empirical_icc(frame: Frame, var_index: int) -> float:
    """One-way ANOVA estimate of the intra-cluster correlation of a variable."""
    y = frame.values[:, var_index]
    sizes = frame.sizes.astype(np.float64)
    n_total = y.size
    k = frame.n_psus
    if k < 2 or n_total <= k:
        raise ValueError("ICC needs >= 2 PSUs and within-PSU replication")
    sums = frame.subtotals[:, var_index]
    means = sums / sizes
    grand = y.mean()
    ssb = float(np.sum(sizes * (means - grand) ** 2))
    ssw = float(np.sum(y**2) - np.sum(sums**2 / sizes))
    msb = ssb / (k - 1)
    msw = ssw / (n_total - k)
    n0 = (n_total - float(np.sum(sizes**2)) / n_total) / (k - 1)
    return (msb - msw) / (msb + (n0 - 1.0) * msw)


def empirical_pair_correlation(frame: Frame, var_a: int, var_b: int) -> float:
    """Pearson correlation of two variables across all SSUs."""
    a = frame.values[:, var_a]
    b = frame.values[:, var_b]
    return float(np.corrcoef(a, b)[0, 1])


# ---------------------------------------------------------------------------
# Delimited-text ingestion / export
# ---------------------------------------------------------------------------

_DEFAULT_SCHEMA = {"psu_id": "psu_id", "ssu_id": "ssu_id", "stratum": "stratum", "y_prefix": "y"}


def _delimiter_for(path: str, delimiter: str | None) -> str:
    if delimiter is not None:
        return delimiter
    return "\t" if str(path).endswith(".tsv") else ","


def ingest_frame(
    path,
    schema: Mapping[str, str] | None = None,
    delimiter: str | None = None,
) -> Frame:
    """Read a frame from a delimited text file with a header row.

    Expected columns: optional stratum, psu_id, ssu_id, and the study
    variables (auto-detected as every column whose name starts with the
    ``y_prefix``, in header order).  ``schema`` may override the column
    names.  Rows are grouped by stratum then psu_id, preserving file order
    within groups; duplicate (psu_id, ssu_id) pairs and malformed rows are
    errors that carry the offending line number.
    """
    sch = dict(_DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(sch)
        if unknown:
            raise ValueError(f"unknown schema keys: {sorted(unknown)}")
        sch.update(schema)

    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=_delimiter_for(path, delimiter))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file", line=1) from None
        header = [h.strip() for h in header]

        def col(name: str) -> int | None:
            try:
                return header.index(sch[name])
            except ValueError:
                return None

        psu_col = col("psu_id")
        ssu_col = col("ssu_id")
        if psu_col is None or ssu_col is None:
            raise IngestError(
                f"header must contain '{sch['psu_id']}' and '{sch['ssu_id']}' columns",
                line=1,
            )
        stratum_col = col("stratum")
        known = {psu_col, ssu_col} | ({stratum_col} if stratum_col is not None else set())
        y_cols = [
            j
            for j, name in enumerate(header)
            if j not in known and name.startswith(sch["y_prefix"])
        ]
        if not y_cols:
            raise IngestError(
                f"no study-variable columns with prefix '{sch['y_prefix']}'", line=1
            )

        # ordered: stratum -> psu -> list of (ssu_id, y-vector)
        psus: dict[tuple[str | None, int], list[tuple[int, list[float]]]] = {}
        seen_ssu: set[tuple[int, int]] = set()
        psu_stratum: dict[int, str | None] = {}
        stratum_order: list[str | None] = []

        for line_no, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"expected {len(header)} fields, got {len(row)}", line=line_no
                )
            try:
                psu_id = int(row[psu_col])
                ssu_id = int(row[ssu_col])
                y = [float(row[j]) for j in y_cols]
            except ValueError as exc:
                raise IngestError(f"malformed row ({exc})", line=line_no) from None
            if not all(math.isfinite(v) for v in y):
                raise IngestError("non-finite y value", line=line_no)
            stratum = row[stratum_col].strip() if stratum_col is not None else None
            if psu_id in psu_stratum and psu_stratum[psu_id] != stratum:
                raise IngestError(
                    f"psu_id {psu_id} appears under two strata", line=line_no
                )
            if (psu_id, ssu_id) in seen_ssu:
                raise IngestError(
                    f"duplicate (psu_id, ssu_id) = ({psu_id}, {ssu_id})", line=line_no
                )
            seen_ssu.add((psu_id, ssu_id))
            psu_stratum.setdefault(psu_id, stratum)
            if stratum not in stratum_order:
                stratum_order.append(stratum)
            psus.setdefault((stratum, psu_id), []).append((ssu_id, y))

    if not psus:
        raise IngestError("file contains no data rows", line=2)

    # group PSUs under strata by first appearance, file order within groups
    ordered_keys: list[tuple[str | None, int]] = []
    for stratum in stratum_order:
        ordered_keys.extend(k for k in psus if k[0] == stratum)

    sizes = np.array([len(psus[k]) for k in ordered_keys], dtype=np.int64)
    psu_ids = np.array([k[1] for k in ordered_keys], dtype=np.int64)
    ssu_ids = np.array(
        [sid for k in ordered_keys for sid, _ in psus[k]], dtype=np.int64
    )
    values = np.array(
        [y for k in ordered_keys for _, y in psus[k]], dtype=np.float64
    )
    strata = None
    if stratum_col is not None:
        strata = [k[0] if k[0] is not None else "" for k in ordered_keys]
    return Frame(values, sizes, psu_ids, ssu_ids, strata)


def frame_to_csv(frame: Frame, path, delimiter: str | None = None) -> None:
    """Write a frame in the same delimited format that ``ingest_frame`` reads."""
    delim = _delimiter_for(path, delimiter)
    q = frame.n_vars
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delim, lineterminator="\n")
        head = ["psu_id", "ssu_id"] + [f"y{j + 1}" for j in range(q)]
        if frame.strata is not None:
            head = ["stratum"] + head
        writer.writerow(head)
        for i in range(frame.n_psus):
            lo, hi = frame.offsets[i], frame.offsets[i + 1]
            for k in range(lo, hi):
                row = [int(frame.psu_ids[i]), int(frame.ssu_ids[k])]
                row += [repr(float(v)) for v in frame.values[k]]
                if frame.strata is not None:
                    row = [frame.strata[i]] + row
                writer.writerow(row)
