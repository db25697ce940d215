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
import io
import itertools
import math
import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Mapping, NamedTuple, Sequence

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


def _first_repeat(psu: np.ndarray, ssu: np.ndarray) -> int:
    """The first row whose (psu, ssu) pair an earlier row holds, or the row count if none does."""
    # a stable sort keeps equal pairs in row order: all but the first repeat one
    order = np.lexsort((ssu, psu))
    psu, ssu = psu[order], ssu[order]
    repeats = order[1:][(psu[1:] == psu[:-1]) & (ssu[1:] == ssu[:-1])]
    return int(repeats.min()) if repeats.size else order.size


class Frame:
    """Immutable two-level population.

    The arrays it exposes are read-only views: a write through them raises
    instead of leaving the cached subtotals, within-PSU variances and
    stratum groups stale.  The views copy nothing, so they share memory
    with the arrays passed in: a write through the caller's own reference
    to those arrays after construction does leave the caches stale, and the
    SYSTEMATIC sample table that the Monte Carlo harness keeps for the frame
    (see :mod:`twostage.montecarlo`).  A copy is not made: on a frame of
    80,000 SSUs and 6 variables it raised a Monte Carlo run's peak memory
    by 1.4 MB.

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
            ssu_ids = np.arange(values.shape[0], dtype=np.int64) - np.repeat(
                self._offsets[:-1], sizes
            )
        else:
            ssu_ids = np.asarray(ssu_ids, dtype=np.int64)
            if ssu_ids.shape != (values.shape[0],):
                raise ValueError("ssu_ids must have one entry per SSU row")
            # the rows are in PSU order: the first repeat lies in the first PSU that has one
            psu_of_row = np.repeat(np.arange(n_psus), sizes)
            repeat = _first_repeat(psu_of_row, ssu_ids)
            if repeat < ssu_ids.size:
                raise ValueError(f"duplicate ssu_id within PSU {psu_ids[psu_of_row[repeat]]}")
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
        for name in ("mean_size", "size_cv", "lam", "sigma"):  # NaN passes every check below
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        for i, rho in enumerate(self.icc_targets):
            try:
                calibrate_model(rho, self.pair_corr_target)  # validates feasibility
            except ValueError as exc:  # name the target at fault
                raise ValueError(str(exc).replace("icc_target", f"icc_targets[{i}]", 1)) from None


def calibrate_model(icc_target: float, pair_corr_target: float) -> tuple[float, float]:
    """Solve the generator's moment equations for (rho_h, alpha).

    With c^2 = (1 - rho_h)/rho_h, the model has
    ``ICC = 1 / (1 + c^2 (alpha^2 + 1))`` and pair correlation
    ``(1 + c^2 alpha^2) / (1 + c^2 (alpha^2 + 1))``.  Setting these to the
    targets gives ``(1 - rho_h)/rho_h = (1 - r*)/rho*`` and
    ``alpha = sqrt((r* - rho*)/(1 - r*))``, which hits both targets exactly.
    """
    rho_star, r_star = float(icc_target), float(pair_corr_target)
    if not 0.0 < r_star < 1.0:
        raise ValueError("pair_corr_target must lie in (0, 1)")
    if not 0.0 < rho_star < 1.0:
        raise ValueError("icc_target must lie in (0, 1)")
    if rho_star >= r_star:
        raise ValueError("icc_target must be < pair_corr_target, "
                         f"got {rho_star} >= {r_star} (infeasible calibration)")
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


def _check_path(path) -> None:
    """Refuse what is not a path: ``open`` would take an int or a bool for a file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise TypeError(f"path must be a str or os.PathLike, got {type(path).__name__}")


def _delimiter_for(path: str, delimiter: str | None) -> str:
    if delimiter is not None:
        return delimiter
    return "\t" if str(path).endswith(".tsv") else ","


# Rows per block of the block reader and of the writer.  A block's rows,
# columns and row strings are Python objects alive at once, so the block size
# bounds the text layer's memory while amortising the per-block numpy calls;
# 2048 rows kept peak memory below the row-at-a-time loop's.  The reader
# reads in blocks only the files that np.loadtxt refuses (see ingest_frame).
_BLOCK_ROWS = 2048

# every character of str(int) and of repr(float) of a finite float: a
# delimiter among them makes csv.writer quote number fields
_NUMBER_CHARS = frozenset("0123456789+-.e")


class _Columns(NamedTuple):
    """Where a frame file's header puts each column."""

    width: int  # fields per row
    psu: int
    ssu: int
    stratum: int | None
    y: list[int]  # study variables, in header order


class _Rows(NamedTuple):
    """Accepted data rows of a frame file, in file order."""

    lines: np.ndarray  # line number: reader row index + 2
    psu: np.ndarray
    ssu: np.ndarray
    codes: np.ndarray  # stratum code, numbered by first appearance
    values: np.ndarray  # (rows, q)


def _is_blank(row: Sequence[str]) -> bool:
    return not any(field.strip() for field in row)


def _convert(convert, fields: Sequence[str]) -> tuple[list, ValueError | None]:
    """``convert`` the fields in order.

    Returns every value and None, or the values before the first field that
    raises ValueError and that error.
    """
    values: list = []
    try:
        values.extend(map(convert, fields))  # keeps the values converted before a raise
    except ValueError as exc:
        return values, exc
    return values, None


def _ids(fields: Sequence[str]) -> tuple[np.ndarray, ValueError | None]:
    """``_convert`` to int64: an id outside the int64 range is also an error."""
    values, exc = _convert(int, fields)
    try:
        return np.array(values, dtype=np.int64), exc
    except OverflowError:
        wide = np.array(values, dtype=object)
        limits = np.iinfo(np.int64)
        first = int(np.flatnonzero((wide < limits.min) | (wide > limits.max))[0])
        return (np.array(values[:first], dtype=np.int64),
                ValueError(f"{values[first]} is outside the int64 range"))


def _codes(strata: Sequence[str], labels: dict[str, int]) -> np.ndarray:
    """Each label's code; ``labels`` maps label to code and gains the new labels."""
    for label in dict.fromkeys(strata):
        labels.setdefault(label, len(labels))
    return np.fromiter(map(labels.__getitem__, strata), np.int64, len(strata))


def _read_block(
    rows: list[list[str]], first_line: int, cols: _Columns, labels: dict[str, int]
) -> tuple[_Rows, IngestError | None]:
    """Parse one block of reader rows a column at a time.

    ``first_line`` is the line number of ``rows[0]``; blank rows are skipped.
    Returns the rows before the block's first bad row and that row's error,
    or all rows and None.  Within a row the checks run in the order field
    count, psu_id, ssu_id, y values in header order, finiteness.  ``labels``
    maps each stratum label to its code and gains the block's new labels.
    """
    width = cols.width
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    keep = lengths == width
    error = None
    for i in np.flatnonzero(~keep & (lengths > 0)):
        if not _is_blank(rows[i]):
            error = IngestError(
                f"expected {width} fields, got {lengths[i]}", line=first_line + int(i)
            )
            keep[i:] = False
            break

    def columns() -> list[tuple[str, ...]]:
        return list(zip(*itertools.compress(rows, keep.tolist()))) or [()] * width

    index = np.flatnonzero(keep)
    fields = columns()
    psu, exc = _ids(fields[cols.psu])
    if exc is not None:
        # int() rejects a blank row of full width: drop every one and parse again
        blank = np.fromiter(map(_is_blank, itertools.compress(rows, keep.tolist())), bool)
        if blank.any():
            keep[index[blank]] = False
            index = index[~blank]
            fields = columns()
            psu, exc = _ids(fields[cols.psu])

    # each later column is parsed only up to the first bad row found so far
    bad = len(psu)
    parsed = [psu]
    for j, convert in [(cols.ssu, _ids)] + [(j, partial(_convert, float)) for j in cols.y]:
        column, column_exc = convert(fields[j][:bad])
        if column_exc is not None:
            bad, exc = len(column), column_exc
        parsed.append(column)
    if exc is not None:
        error = IngestError(f"malformed row ({exc})", line=first_line + int(index[bad]))
    values = np.array([column[:bad] for column in parsed[2:]], dtype=np.float64).T
    nonfinite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if nonfinite.size:
        bad = int(nonfinite[0])
        error = IngestError("non-finite y value", line=first_line + int(index[bad]))

    if cols.stratum is None:
        codes = np.zeros(bad, dtype=np.int64)
    else:
        codes = _codes(fields[cols.stratum][:bad], labels)
    block = _Rows(
        first_line + index[:bad],
        parsed[0][:bad],
        parsed[1][:bad],
        codes,
        values[:bad],
    )
    return block, error


def _first_row_of_psu(rows: _Rows) -> np.ndarray:
    """The position of each row's psu_id's first row.

    Raises the IngestError of the first row whose psu_id an earlier row
    put under another stratum or whose (psu_id, ssu_id) an earlier row
    holds; on one row the strata check comes first.
    """
    n = rows.psu.size
    _, first, inverse = np.unique(rows.psu, return_index=True, return_inverse=True)
    first_row = first[inverse]
    two_strata = np.flatnonzero(rows.codes != rows.codes[first_row])
    at_strata = int(two_strata[0]) if two_strata.size else n
    at_repeat = _first_repeat(rows.psu, rows.ssu)
    if at_strata < n and at_strata <= at_repeat:
        raise IngestError(
            f"psu_id {rows.psu[at_strata]} appears under two strata",
            line=int(rows.lines[at_strata]),
        )
    if at_repeat < n:
        raise IngestError(
            f"duplicate (psu_id, ssu_id) = ({rows.psu[at_repeat]}, {rows.ssu[at_repeat]})",
            line=int(rows.lines[at_repeat]),
        )
    return first_row


def _concat(blocks: list[_Rows]) -> _Rows:
    return _Rows(*(np.concatenate(parts) for parts in zip(*blocks)))


# what a file's data rows give: the rows, the stratum labels in code order
# and each row's _first_row_of_psu
_Read = tuple[_Rows, list[str], np.ndarray]

# ASCII characters that numpy's number parsers skip as whitespace and int()
# and float() refuse
_NOT_PYTHON_SPACE = "\x1c\x1d\x1e\x1f"


class _PlainLines:
    """The lines of ``fh`` for ``np.loadtxt``, read 64 KiB at a time.

    Raises ValueError at the first chunk of lines that numpy could read
    otherwise than ``csv.reader``, ``int`` and ``float``: one that holds a
    non-ASCII character (numpy 2.4 parses "-" and some of those as an int),
    a character of ``_NOT_PYTHON_SPACE``, or a line longer than csv's field
    limit.  ``count`` is the number of non-blank lines read.
    """

    def __init__(self, fh):
        self.fh = fh
        self.count = 0

    def __iter__(self):
        limit = csv.field_size_limit()
        while lines := self.fh.readlines(1 << 16):
            text = "".join(lines)
            if (not text.isascii() or any(c in text for c in _NOT_PYTHON_SPACE)
                    or max(map(len, lines)) > limit):
                raise ValueError("text that numpy reads otherwise")
            self.count += len(lines) - sum(map(lines.count, ("\n", "\r\n", "\r")))
            yield from lines


def _loadtxt_rows(fh, delimiter: str, cols: _Columns) -> _Read | None:
    """The rest of ``fh`` read by one ``np.loadtxt`` call, or None.

    On the text ``_PlainLines`` passes, numpy splits rows, quotes and line
    ends as ``csv.reader`` does, and it reads every id and y value that it
    accepts to the same bits as ``int`` and ``float``.  It refuses some
    spellings that they accept: underscores, Unicode digits, ids outside
    int64, rows of whitespace and unterminated quotes.  It skips blank lines
    without counting them, so it cannot name the line of a bad row.  None,
    and the block reader reads the file, where numpy raises or warns, a row
    spans lines, a y value is non-finite or the rows break a frame rule.
    """
    types = {cols.psu: np.int64, cols.ssu: np.int64, **dict.fromkeys(cols.y, np.float64)}
    # the stratum and unused columns are text
    dtype = np.dtype([(f"c{j}", types.get(j, object)) for j in range(cols.width)])
    lines = _PlainLines(fh)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy only warns on a file with no data rows
            table = np.loadtxt(lines, dtype, delimiter=delimiter, comments=None, quotechar='"',
                               ndmin=1)
    except (TypeError, ValueError, Warning):  # TypeError: numpy refuses the delimiter
        return None
    if table.size != lines.count:  # a quoted line end: a field past csv's limit could span lines
        return None
    values = np.column_stack([table[f"c{j}"] for j in cols.y])
    if not np.isfinite(values).all():
        return None
    labels: dict[str, int] = {}
    if cols.stratum is None:
        codes = np.zeros(table.size, dtype=np.int64)
    else:
        codes = _codes(table[f"c{cols.stratum}"].tolist(), labels)
    # a row's index stands in for its line: an error here goes to the block reader
    rows = _Rows(np.arange(table.size) + 2, table[f"c{cols.psu}"], table[f"c{cols.ssu}"],
                 codes, values)
    try:
        return rows, list(labels), _first_row_of_psu(rows)
    except IngestError:
        return None


def _block_rows(reader, cols: _Columns) -> _Read:
    """Every data row of ``reader``, read ``_BLOCK_ROWS`` at a time.

    Raises the IngestError of the first bad line, a field past csv's limit among them.
    """
    labels: dict[str, int] = {}
    blocks: list[_Rows] = []
    first_line = 2
    while True:
        rows, refused = [], None
        try:
            rows.extend(itertools.islice(reader, _BLOCK_ROWS))  # keeps the rows before a raise
        except csv.Error as exc:
            refused = IngestError(str(exc), line=first_line + len(rows))
        if not rows and refused is None:
            break
        block, error = _read_block(rows, first_line, cols, labels)
        blocks.append(block)
        if (error := error or refused) is not None:
            _first_row_of_psu(_concat(blocks))  # an earlier row's error comes first
            raise error
        first_line += len(rows)
    if not any(block.psu.size for block in blocks):
        raise IngestError("file contains no data rows", line=2)
    rows = _concat(blocks)
    return rows, list(labels), _first_row_of_psu(rows)


def ingest_frame(
    path,
    schema: Mapping[str, str] | None = None,
    delimiter: str | None = None,
) -> Frame:
    """Read a frame from a delimited text file with a header row.

    Expected columns: optional stratum, psu_id, ssu_id, and the study
    variables (auto-detected as every column whose name starts with the
    ``y_prefix``, in header order).  ``schema`` may override the column
    names.  Stratum labels are read verbatim, whitespace included, as
    :func:`frame_to_csv` writes them.  Rows are grouped by stratum then
    psu_id, preserving file order within groups; duplicate (psu_id, ssu_id)
    pairs and malformed rows are errors that carry the offending line
    number.  ``csv.reader`` reads the header and one ``np.loadtxt`` call
    the data rows.  A file that numpy refuses or could read otherwise
    (non-ASCII text among them), or whose rows hold an error, is read again
    in blocks of rows parsed a column at a time by ``int`` and ``float``:
    that reader takes every spelling they take, and its error names the
    first bad line.  Both readers give the same frame.
    """
    _check_path(path)
    sch = dict(_DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(sch)
        if unknown:
            raise ValueError(f"unknown schema keys: {sorted(unknown)}")
        sch.update(schema)

    delim = _delimiter_for(path, delimiter)
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delim)
        try:
            header = next(reader)
        except (StopIteration, csv.Error) as exc:  # csv.Error: a field past csv's limit
            raise IngestError(str(exc) or "empty file", line=1) from None
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

        cols = _Columns(len(header), psu_col, ssu_col, stratum_col, y_cols)
        read = _loadtxt_rows(fh, delim, cols)
        if read is None:
            fh.seek(0)
            next(reader)  # the header
            read = _block_rows(reader, cols)

    rows, labels, first_row = read
    # strata by first appearance, then PSUs by first appearance, then file order
    order = np.lexsort((first_row, rows.codes))
    starts = np.flatnonzero(np.diff(first_row[order], prepend=-1))
    heads = order[starts]
    strata = None
    if stratum_col is not None:
        strata = [labels[code] for code in rows.codes[heads].tolist()]
    return Frame(
        rows.values[order],
        np.diff(starts, append=order.size),
        rows.psu[heads],
        rows.ssu[order],
        strata,
    )


def _csv_field(delimiter: str):
    """A function giving the text csv.writer writes for one field of a row.

    Fields are quoted as if lines ended in "\r\n", so that a lone "\r",
    which csv.reader takes for a line end, is quoted as well as "\n".
    """
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\r\n")

    def field(text: str) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))  # a lone empty field would be written as '""'
        return buf.getvalue()[:-3]

    return field


def frame_to_csv(frame: Frame, path, delimiter: str | None = None) -> None:
    """Write a frame in the same delimited format that ``ingest_frame`` reads.

    The bytes are those of ``csv.writer`` (QUOTE_MINIMAL) writing one row
    per SSU; rows are written in blocks, formatted a column at a time.
    """
    _check_path(path)
    delim = _delimiter_for(path, delimiter)
    field = _csv_field(delim)
    psu_text = np.array(list(map(str, frame.psu_ids.tolist())), dtype=object)
    labels = None
    if frame.strata is not None:
        labels = np.array(list(map(field, frame.strata)), dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delim, lineterminator="\n")
        head = ["psu_id", "ssu_id"] + [f"y{j + 1}" for j in range(frame.n_vars)]
        if labels is not None:
            head = ["stratum"] + head
        writer.writerow(head)
        for lo in range(0, frame.n_ssus, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, frame.n_ssus)
            psu = np.searchsorted(frame.offsets, np.arange(lo, hi), side="right") - 1
            columns = [psu_text[psu].tolist(), list(map(str, frame.ssu_ids[lo:hi].tolist()))]
            columns += [list(map(repr, col)) for col in frame.values[lo:hi].T.tolist()]
            if delim in _NUMBER_CHARS:
                columns = [list(map(field, col)) for col in columns]
            if labels is not None:
                columns.insert(0, labels[psu].tolist())
            fh.write("\n".join(map(delim.join, zip(*columns))) + "\n")
