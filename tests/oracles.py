"""Independent brute-force oracles: exact enumeration of small designs.

These enumerate every possible outcome of a design with its probability and
reduce estimator values to exact means/variances.  They deliberately avoid
the package's sampling code so that estimator tests check against an
independent computation.  The frame text I/O oracles at the end are the
row-at-a-time reader and writer that the block-columnar ones replaced.
"""
import csv
import itertools
import math

import numpy as np


def enum_mean_var(values, weights):
    """Probability-weighted mean and variance of an enumerated estimator."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    assert abs(weights.sum() - 1.0) < 1e-12
    mean = float(np.sum(weights * values))
    var = float(np.sum(weights * (values - mean) ** 2))
    return mean, var


def si_outcomes(n_population, n):
    """All unordered SI samples with their (equal) probabilities."""
    total = math.comb(n_population, n)
    for comb in itertools.combinations(range(n_population), n):
        yield comb, 1.0 / total


def sir_outcomes(n_population, n):
    """All ordered with-replacement draws with their (equal) probabilities."""
    w = 1.0 / n_population**n
    for seq in itertools.product(range(n_population), repeat=n):
        yield seq, w


def be_outcomes(n_population, f):
    """All Bernoulli subsets with probability f^k (1-f)^(N-k)."""
    for bits in itertools.product((0, 1), repeat=n_population):
        subset = tuple(i for i, b in enumerate(bits) if b)
        k = len(subset)
        yield subset, f**k * (1.0 - f) ** (n_population - k)


def ht_si_value(subtotals, sample, n):
    return len(subtotals) / n * sum(subtotals[i] for i in sample)


def hh_sir_value(subtotals, seq):
    return len(subtotals) / len(seq) * sum(subtotals[i] for i in seq)


def ht_be_value(subtotals, subset, n_expected):
    return len(subtotals) / n_expected * sum(subtotals[i] for i in subset)


# ---------------------------------------------------------------------------
# Frame text I/O: the row-at-a-time reader and writer that the block-columnar
# ``twostage.frame.ingest_frame`` / ``frame_to_csv`` must match byte for byte
# and error for error.
# ---------------------------------------------------------------------------

_IO_SCHEMA = {"psu_id": "psu_id", "ssu_id": "ssu_id", "stratum": "stratum", "y_prefix": "y"}


def _io_delimiter(path, delimiter):
    if delimiter is not None:
        return delimiter
    return "\t" if str(path).endswith(".tsv") else ","


def ingest_frame_rows(path, schema=None, delimiter=None):
    """Read a frame one row at a time (the reference for ``ingest_frame``)."""
    from twostage.frame import Frame, IngestError

    sch = dict(_IO_SCHEMA)
    if schema:
        unknown = set(schema) - set(sch)
        if unknown:
            raise ValueError(f"unknown schema keys: {sorted(unknown)}")
        sch.update(schema)

    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=_io_delimiter(path, delimiter))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file", line=1) from None
        header = [h.strip() for h in header]

        def col(name):
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

        psus = {}
        seen_ssu = set()
        psu_stratum = {}
        stratum_order = []

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

    ordered_keys = []
    for stratum in stratum_order:
        ordered_keys.extend(k for k in psus if k[0] == stratum)

    sizes = np.array([len(psus[k]) for k in ordered_keys], dtype=np.int64)
    psu_ids = np.array([k[1] for k in ordered_keys], dtype=np.int64)
    ssu_ids = np.array([sid for k in ordered_keys for sid, _ in psus[k]], dtype=np.int64)
    values = np.array([y for k in ordered_keys for _, y in psus[k]], dtype=np.float64)
    strata = None
    if stratum_col is not None:
        strata = [k[0] if k[0] is not None else "" for k in ordered_keys]
    return Frame(values, sizes, psu_ids, ssu_ids, strata)


def frame_to_csv_rows(frame, path, delimiter=None):
    """Write a frame one row at a time (the reference for ``frame_to_csv``)."""
    delim = _io_delimiter(path, delimiter)
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


def first_duplicate_ssu_psu(offsets, psu_ids, ssu_ids):
    """The psu_id of the first PSU holding a repeated ssu_id, or None (per-PSU loop)."""
    for i in range(len(offsets) - 1):
        seg = ssu_ids[offsets[i] : offsets[i + 1]]
        if np.unique(seg).size != seg.size:
            return psu_ids[i]
    return None
