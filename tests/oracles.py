"""Independent brute-force oracles: exact enumeration of small designs.

These enumerate every possible outcome of a design with its probability and
reduce estimator values to exact means/variances.  They deliberately avoid
the package's sampling code so that estimator tests check against an
independent computation.  The frame text I/O oracles further down are the
row-at-a-time reader and writer that the block-columnar ones replaced, and
the Monte Carlo oracles at the end are the one-replicate-at-a-time loops
that the block engine of ``twostage.montecarlo`` replaced.
"""
import csv
import io
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
    # each row is written with a "\r\n" end, which quotes a field holding a
    # lone "\r", and the end is then rewritten as "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delim, lineterminator="\r\n")

    def write_row(fh, row):
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        fh.write(buf.getvalue()[:-2] + "\n")

    with open(path, "w", newline="") as fh:
        head = ["psu_id", "ssu_id"] + [f"y{j + 1}" for j in range(q)]
        if frame.strata is not None:
            head = ["stratum"] + head
        write_row(fh, head)
        for i in range(frame.n_psus):
            lo, hi = frame.offsets[i], frame.offsets[i + 1]
            for k in range(lo, hi):
                row = [int(frame.psu_ids[i]), int(frame.ssu_ids[k])]
                row += [repr(float(v)) for v in frame.values[k]]
                if frame.strata is not None:
                    row = [frame.strata[i]] + row
                write_row(fh, row)


def first_duplicate_ssu_psu(offsets, psu_ids, ssu_ids):
    """The psu_id of the first PSU holding a repeated ssu_id, or None (per-PSU loop)."""
    for i in range(len(offsets) - 1):
        seg = ssu_ids[offsets[i] : offsets[i + 1]]
        if np.unique(seg).size != seg.size:
            return psu_ids[i]
    return None


# ---------------------------------------------------------------------------
# Monte Carlo replicates: the one-replicate-at-a-time loops and draws that the
# block engine of ``twostage.montecarlo`` must match bit for bit.
# ---------------------------------------------------------------------------


def si_order_loop(n_population, n, rng):
    """Draw-sequential SI sample, one numpy scalar at a time (the reference for ``si_order``)."""
    picks = rng.integers(np.arange(n, dtype=np.int64), n_population)
    displaced = {}
    out = np.empty(n, dtype=np.int64)
    for j in range(n):
        r = int(picks[j])
        a_j = displaced.get(j, j)
        a_r = displaced.get(r, r)
        out[j] = a_r
        displaced[r] = a_j
    return out


def subsample_estimates(frame, columns, psu_indices, method, n0, rng, with_vhat=False):
    """Draw and estimate one PSU batch's second stage in one gather (the unsplit engine)."""
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    sizes = frame.sizes[psu_indices].astype(np.float64)
    k = psu_indices.size
    if method == "SI":
        max_size = int(frame.sizes[psu_indices].max())
        keys = rng.random((k, max_size))
        keys[np.arange(max_size)[None, :] >= sizes[:, None]] = np.inf
        pos = np.argpartition(keys, n0 - 1, axis=1)[:, :n0]
    else:
        a = sizes / n0
        u = rng.random(k) * a
        pos = np.floor(u[:, None] + a[:, None] * np.arange(n0)[None, :]).astype(np.int64)
        pos = np.minimum(pos, (sizes[:, None] - 1).astype(np.int64))
    sel = columns[frame.offsets[psu_indices][:, None] + pos]  # (k, n0, p)
    y_hat = (sizes / n0)[:, None] * sel.sum(axis=1)
    if not with_vhat:
        return y_hat, None
    v_hat = (sizes**2 / n0 * (1.0 - n0 / sizes))[:, None] * sel.var(axis=1, ddof=1)
    return y_hat, v_hat


def _si_draw(ctx, est_columns, rng):
    """One SI replicate's draw: (FirstStageDraw, yhat (n, p), vhat (n, p) or None).

    ``est_columns`` is the (columns, subtotals, slices) of ``estimand_columns``.
    """
    from twostage.designs import FirstStageDraw

    sc = ctx.scenario
    N = ctx.frame.n_psus
    draw = FirstStageDraw(sc.first_stage, si_order_loop(N, sc.first_stage.n_I, rng), N)
    if sc.second_stage == "CENSUS":
        yhat = est_columns[1][draw.order]
        return draw, yhat, (np.zeros_like(yhat) if ctx.need_vhat else None)
    yhat, vhat = subsample_estimates(ctx.frame, est_columns[0], draw.order, sc.second_stage,
                                     sc.n0, rng, with_vhat=ctx.need_vhat)
    return draw, yhat, vhat


def _si_replicate_row(ctx, est_columns, rng, row):
    from twostage import montecarlo as mc
    from twostage.bootstrap import ReplicateSet, multinomial_weights, replicate_se
    from twostage.estimators import TotalEstimand, mean_total, normal_ci, variance_estimate

    sc = ctx.scenario
    n = sc.first_stage.n_I
    N = ctx.frame.n_psus
    draw, yhat, vhat = _si_draw(ctx, est_columns, rng)
    totals = N * yhat.mean(axis=0)
    for e, sl in zip(sc.estimands, ctx.slices):
        theta = float(e.evaluate(totals[None, sl])[0])
        row[ctx.slots[("point", e.label)]] = theta
        if isinstance(e, TotalEstimand) and sc.variance_methods:
            total = mean_total(draw, (yhat[:, sl], None if vhat is None else vhat[:, sl]))
            for vm in sc.variance_methods:
                v = variance_estimate(total, vm)
                row[ctx.slots[("var", e.label, vm)]] = v
                lo, hi = normal_ci(theta, v, sc.ci_alpha)
                fam = f"ci_normal_{mc._FAMILY[vm][2:]}"
                row[ctx.slots[("ci", e.label, fam, "lo")]] = lo
                row[ctx.slots[("ci", e.label, fam, "hi")]] = hi
    if sc.bootstrap is None:
        return
    m = sc.bootstrap.resolve_m(n)
    d_mat = multinomial_weights(rng, sc.bootstrap.replicates, n, m)
    totals_star = (d_mat @ yhat) * (N / m)
    for e, sl in zip(sc.estimands, ctx.slices):
        studentized = sc.studentized and ("ci", e.label, "ci_studentized", "lo") in ctx.slots
        reps = ReplicateSet(
            np.asarray(e.evaluate(totals_star[:, sl]), dtype=np.float64),
            row[ctx.slots[("point", e.label)]],
            replicate_se(d_mat, yhat[:, sl], totals_star[:, sl], N, m, e) if studentized else None,
        )
        mc._write_bootstrap(ctx, row, e.label, reps, "SIMPLIFIED" if studentized else None)


def replicate_rows(ctx, start, end):
    """MC replicate rows start..end-1, one replicate at a time (for ``_replicate_rows``)."""
    from twostage import montecarlo as mc
    from twostage.estimators import estimand_columns

    est_columns = estimand_columns(ctx.frame, ctx.scenario.estimands)
    out = np.full((end - start, ctx.n_slots), np.nan)
    for b in range(start, end):
        rng = ctx.rng_for(b, "mc")
        if ctx.scenario.first_stage.kind == "STRAT_SI":
            mc._strat_replicate_row(ctx, rng, out[b - start])
        else:
            _si_replicate_row(ctx, est_columns, rng, out[b - start])
    return out


def point_rows(ctx, start, end):
    """Reference-run point estimates start..end-1, one sample at a time (for ``_point_rows``)."""
    from twostage.estimators import StratifiedClusterSample, estimand_columns

    sc = ctx.scenario
    est_columns = estimand_columns(ctx.frame, sc.estimands)
    out = np.empty((end - start, len(sc.estimands)))
    for b in range(start, end):
        rng = ctx.rng_for(b, "true")
        if sc.first_stage.kind == "STRAT_SI":
            totals = StratifiedClusterSample.draw(ctx.frame, sc.first_stage.allocations,
                                                  est_columns[1], rng).totals
        else:
            _, yhat, _ = _si_draw(ctx, est_columns, rng)
            totals = ctx.frame.n_psus * yhat.mean(axis=0)
        for j, (e, sl) in enumerate(zip(sc.estimands, ctx.slices)):
            out[b - start, j] = float(e.evaluate(totals[None, sl])[0])
    return out


def si_order_excluding_loop(n_population, n, exclude, rng):
    """The rejection branch of ``si_order_excluding``, one numpy scalar at a time."""
    taken = set(int(i) for i in exclude)
    out = []
    while len(out) < n:
        for c in rng.integers(0, n_population, size=max(16, 2 * (n - len(out)))):
            c = int(c)
            if c in taken:
                continue
            taken.add(c)
            out.append(c)
            if len(out) == n:
                break
    return out
