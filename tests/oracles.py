"""Independent brute-force oracles: exact enumeration of small designs.

These enumerate every possible outcome of a design with its probability and
reduce estimator values to exact means/variances.  They deliberately avoid
the package's sampling code so that estimator tests check against an
independent computation.  The frame text I/O oracles further down are the
row-at-a-time reader and writer that the block-columnar ones replaced, and
the Monte Carlo and coupling oracles at the end are the
one-replicate-at-a-time loops that the block engines of
``twostage.montecarlo`` and ``twostage.coupling`` replaced; the Monte Carlo
loops run on every estimand's columns written out per estimand type and
stacked side by side, repeats included (``stacked_columns``), not on the
library's keyed column builder.
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
            stratum = row[stratum_col] if stratum_col is not None else None
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


def second_stage_rows(frame, psu_indices, method, n0, rng):
    """SSU rows (k, n0) of one SI or SYSTEMATIC sample in every listed PSU, in one key matrix."""
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
    return frame.offsets[psu_indices][:, None] + pos


def subsample_estimates(frame, columns, psu_indices, method, n0, rng, with_vhat=False):
    """Draw and estimate one PSU batch's second stage in one gather (the unsplit engine)."""
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    sizes = frame.sizes[psu_indices].astype(np.float64)
    sel = columns[second_stage_rows(frame, psu_indices, method, n0, rng)]  # (k, n0, p)
    y_hat = (sizes / n0)[:, None] * sel.sum(axis=1)
    if not with_vhat:
        return y_hat, None
    v_hat = (sizes**2 / n0 * (1.0 - n0 / sizes))[:, None] * sel.var(axis=1, ddof=1)
    return y_hat, v_hat


def row_estimates(frame, columns, subtotals, psu_indices, method, n0, rng, with_vhat=False):
    """One first-stage sample's second stage: a census gather, or ``subsample_estimates``.

    A census, and a sample of no PSUs, draw nothing from ``rng``.
    """
    psu_indices = np.asarray(psu_indices, dtype=np.int64)
    if method == "CENSUS" or psu_indices.size == 0:
        y_hat = subtotals[psu_indices]
        return y_hat, (np.zeros_like(y_hat) if with_vhat else None)
    return subsample_estimates(frame, columns, psu_indices, method, n0, rng, with_vhat)


def ssu_columns(estimand, values):
    """An estimand's (N, p) SSU columns, written out per estimand type."""
    from twostage.estimators import CorrelationEstimand, ProportionEstimand, RatioEstimand

    if isinstance(estimand, RatioEstimand):
        return values[:, [estimand.num, estimand.den]]
    if isinstance(estimand, CorrelationEstimand):
        ya, yb = values[:, estimand.a], values[:, estimand.b]
        return np.column_stack([ya, yb, ya**2, yb**2, ya * yb, np.ones_like(ya)])
    if isinstance(estimand, ProportionEstimand):
        ind = (values[:, estimand.var] == estimand.category).astype(np.float64)
        return np.column_stack([ind, np.ones_like(ind)])
    return values[:, [estimand.var]]


def stacked_columns(frame, estimands):
    """Every estimand's columns side by side, repeats included: (columns, subtotals, slices)."""
    blocks = [ssu_columns(e, frame.values) for e in estimands]
    starts = np.concatenate(([0], np.cumsum([b.shape[1] for b in blocks])))
    columns = np.hstack(blocks)
    return (columns, np.add.reduceat(columns, frame.offsets[:-1], axis=0),
            [slice(int(starts[i]), int(starts[i + 1])) for i in range(len(blocks))])


def _si_draw(ctx, est_columns, rng):
    """One SI replicate's draw: (FirstStageDraw, yhat (n, p), vhat (n, p) or None).

    ``est_columns`` is the (columns, subtotals, slices) of ``stacked_columns``.
    """
    from twostage.designs import FirstStageDraw

    sc = ctx.scenario
    N = ctx.frame.n_psus
    draw = FirstStageDraw(sc.first_stage, si_order_loop(N, sc.first_stage.n_I, rng), N)
    yhat, vhat = row_estimates(ctx.frame, est_columns[0], est_columns[1], draw.order,
                               sc.second_stage, sc.n0, rng, with_vhat=ctx.need_vhat)
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
        row[ctx.layout[e.label, "point"]] = theta
        if isinstance(e, TotalEstimand) and sc.variance_methods:
            total = mean_total(draw, (yhat[:, sl], None if vhat is None else vhat[:, sl]))
            for vm in sc.variance_methods:
                v = variance_estimate(total, vm)
                v_family, ci_family = mc._FAMILIES[vm]
                row[ctx.layout[e.label, v_family]] = v
                col = ctx.layout[e.label, ci_family]
                row[col], row[col + 1] = normal_ci(theta, v, sc.ci_alpha)
    if sc.bootstrap is None:
        return
    m = sc.bootstrap.resolve_m(n)
    d_mat = multinomial_weights(rng, sc.bootstrap.replicates, n, m)
    totals_star = (d_mat @ yhat) * (N / m)
    for e, sl in zip(sc.estimands, ctx.slices):
        studentized = (e.label, "ci_studentized") in ctx.layout
        reps = ReplicateSet(
            np.asarray(e.evaluate(totals_star[:, sl]), dtype=np.float64),
            row[ctx.layout[e.label, "point"]],
            replicate_se(d_mat, yhat[:, sl], totals_star[:, sl], N, m, e) if studentized else None,
        )
        mc._write_bootstrap(ctx, row, e.label, reps, "SIMPLIFIED" if studentized else None)


def _strat_draw(ctx, est_columns, rng):
    """One STRAT_SI replicate's draw: per-stratum SI samples in frame stratum order.

    Returns the ``StratifiedClusterSample`` of the sampled PSUs' subtotals and
    the stratified totals sum_l (N_Il / n_l) sum_S y, summed here.
    """
    from twostage.estimators import StratifiedClusterSample

    alloc = ctx.scenario.first_stage.allocations
    n_population, subtotals, totals = {}, {}, 0.0
    for label, psus in ctx.frame.stratum_psu_indices().items():
        n_l = alloc[label]
        y = est_columns[1][psus[si_order_loop(psus.size, n_l, rng)]]
        n_population[label], subtotals[label] = psus.size, y
        totals = totals + psus.size / n_l * y.sum(axis=0)
    return StratifiedClusterSample(n_population, subtotals), totals


def _strat_replicate_row(ctx, est_columns, rng, row):
    from twostage import montecarlo as mc
    from twostage.bootstrap import stratified_proportion_resample
    from twostage.estimators import linearized_values, normal_ci

    sc = ctx.scenario
    (e,) = sc.estimands
    sample, totals = _strat_draw(ctx, est_columns, rng)
    p_hat = float(totals[0] / totals[1])
    row[ctx.layout[e.label, "point"]] = p_hat
    if mc.STRAT_WR in sc.variance_methods:
        v = float(linearized_values(sample, p_hat, totals[1])[0])
        row[ctx.layout[e.label, "v_stwr"]] = v
        col = ctx.layout[e.label, "ci_normal_stwr"]
        row[col], row[col + 1] = normal_ci(p_hat, v, sc.ci_alpha)
    if sc.bootstrap is None:
        return
    reps = stratified_proportion_resample(sample, e, sc.bootstrap, rng=rng,
                                          compute_se=sc.studentized)
    mc._write_bootstrap(ctx, row, e.label, reps, mc.STRAT_WR if sc.studentized else None)


def replicate_rows(ctx, start, end):
    """MC replicate rows start..end-1, one replicate at a time (for ``_replicate_rows``)."""
    from twostage.rng import substream

    est_columns = stacked_columns(ctx.frame, ctx.scenario.estimands)
    write = _si_replicate_row if ctx.scenario.first_stage.kind == "SI" else _strat_replicate_row
    out = np.full((end - start, ctx.width), np.nan)
    for b in range(start, end):
        write(ctx, est_columns, substream(ctx.seed, *ctx.tag, "mc", b), out[b - start])
    return out


def point_rows(ctx, start, end):
    """Reference-run point estimates start..end-1, one sample at a time (for ``_point_rows``)."""
    from twostage.rng import substream

    sc = ctx.scenario
    est_columns = stacked_columns(ctx.frame, sc.estimands)
    out = np.empty((end - start, len(sc.estimands)))
    for b in range(start, end):
        rng = substream(ctx.seed, *ctx.tag, "true", b)
        if sc.first_stage.kind == "STRAT_SI":
            _, totals = _strat_draw(ctx, est_columns, rng)
        else:
            _, yhat, _ = _si_draw(ctx, est_columns, rng)
            totals = ctx.frame.n_psus * yhat.mean(axis=0)
        for j, (e, sl) in enumerate(zip(sc.estimands, ctx.slices)):
            out[b - start, j] = float(e.evaluate(totals[None, sl])[0])
    return out


def si_order_excluding_sets(n_population, n, exclude, rng):
    """``si_order_excluding`` as it was before it built its mask from the array.

    Below 2,048 units and for large excluded shares it builds a Python set of
    the excluded units and a mask through ``np.fromiter``; the draws are the
    same as today's, so the outputs and the errors must be too.
    """
    from twostage.designs import si_order

    excluded = set(np.asarray(exclude, dtype=np.int64).ravel().tolist())
    available = n_population - len(excluded)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not 1 <= n <= available:
        raise ValueError(f"need 1 <= n <= {available} available units, got n={n}")
    if n_population < 2048 or 2 * (len(excluded) + n) > n_population:
        mask = np.ones(n_population, dtype=bool)
        if excluded:
            mask[np.fromiter(excluded, dtype=np.int64)] = False
        candidates = np.flatnonzero(mask)
        return candidates[si_order(candidates.size, n, rng)]
    return np.array(si_order_excluding_loop(n_population, n, list(excluded), rng),
                    dtype=np.int64)


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


# ---------------------------------------------------------------------------
# Coupling verification: the one-replicate-at-a-time loops that the block
# engine of ``twostage.coupling`` must match bit for bit.  Every replicate
# draws from a fresh ``substream`` and builds its coupled draw from
# ``row_estimates``.
# ---------------------------------------------------------------------------


def _coupled_estimates(frame, psu_indices, method, n0, rng, var):
    y_hat, _ = row_estimates(frame, frame.values, frame.subtotals, psu_indices, method, n0, rng)
    return y_hat[:, [var]]


def be_si_delta2(frame, n_I, rng, method, n0, var, mu):
    """sum_SI (Yhat_i - mu) - sum_BE (Yhat_i - mu) of one BE/SI coupled draw."""
    from twostage.designs import si_order, si_order_excluding

    N = frame.n_psus
    be = np.flatnonzero(rng.random(N) < n_I / N).astype(np.int64)
    n_b = be.size
    if n_b == n_I:
        si = be
    elif n_b < n_I:
        si = np.concatenate([be, si_order_excluding(N, n_I - n_b, be, rng)])
    else:
        keep = np.ones(n_b, dtype=bool)
        keep[si_order(n_b, n_b - n_I, rng)] = False
        si = be[keep]
    be_vals = _coupled_estimates(frame, be, method, n0, rng, var)
    if n_b == n_I:
        si_vals = be_vals
    elif n_b < n_I:
        plus_vals = _coupled_estimates(frame, si[n_b:], method, n0, rng, var)
        si_vals = np.concatenate([be_vals, plus_vals], axis=0)
    else:
        si_vals = be_vals[keep]
    return float(si_vals[:, 0].sum() - be_vals[:, 0].sum()) - mu * (si.size - be.size)


def sir_si_values(frame, n_I, rng, method, n0, var):
    """(x, z) of one SIR/SI coupled draw: per-draw estimates, WR and SI side."""
    from twostage.designs import si_order_excluding

    N = frame.n_psus
    wr = rng.integers(0, N, size=n_I).astype(np.int64)
    uniq, first_pos, counts = np.unique(wr, return_index=True, return_counts=True)
    distinct = uniq[np.argsort(first_pos, kind="stable")]
    first_mask = np.zeros(n_I, dtype=bool)
    first_mask[first_pos] = True
    n_d = distinct.size
    complement = (si_order_excluding(N, n_I - n_d, distinct, rng) if n_d < n_I
                  else np.empty(0, dtype=np.int64))
    x_vals = _coupled_estimates(frame, wr, method, n0, rng, var)
    z_vals = x_vals.copy()
    if complement.size:
        z_vals[~first_mask] = _coupled_estimates(frame, complement, method, n0, rng, var)
    return x_vals[:, 0], z_vals[:, 0]


def _exact_vi(frame, method, n0, var):
    from twostage.estimators import si_second_stage_variances

    return np.zeros(frame.n_psus) if method == "CENSUS" else si_second_stage_variances(frame, n0, var)


def _bound_report(check, tag, frame, n_I, replicates, seed, denom, statistic, rhs):
    """The report of statistic(rng)^2 / denom, replicate b on substream (seed, tag, b)."""
    from twostage.coupling import BoundReport
    from twostage.rng import substream

    d2 = np.empty(replicates)
    for b in range(replicates):
        d2[b] = statistic(substream(seed, tag, b)) ** 2
    lhs = float(d2.mean()) / denom
    se = float(d2.std(ddof=1)) / math.sqrt(replicates) / denom
    return BoundReport(check, frame.n_psus, n_I, replicates, lhs, se, rhs).to_dict()


def hajek_bound_loop(frame, n_I, replicates, seed, var=0, method="CENSUS", n0=None):
    """``verify_hajek_bound(...).to_dict()``, one replicate at a time."""
    N = frame.n_psus
    sub = frame.subtotals[:, var]
    mu = float(sub.mean())
    f = n_I / N
    v_i = _exact_vi(frame, method, n0, var)
    denom = f * float(v_i.sum()) + f * (1.0 - f) * float(np.sum((sub - mu) ** 2))
    return _bound_report("be_si", "be-si", frame, n_I, replicates, seed, denom,
                         lambda rng: be_si_delta2(frame, n_I, rng, method, n0, var, mu),
                         math.sqrt(1.0 / n_I + 1.0 / (N - n_I)))


def sir_si_bound_loop(frame, n_I, replicates, seed, var=0, method="CENSUS", n0=None):
    """``verify_sir_si_bound(...).to_dict()``, one replicate at a time."""
    from twostage.designs import DesignSpec
    from twostage.estimators import theoretical_variance

    N = frame.n_psus
    denom = theoretical_variance(frame, DesignSpec("SIR", n_I=n_I),
                                 _exact_vi(frame, method, n0, var), var)

    def wr_minus_si(rng):
        x, z = sir_si_values(frame, n_I, rng, method, n0, var)
        return N * float(x.mean()) - N * float(z.mean())

    return _bound_report("sir_si", "sir-si", frame, n_I, replicates, seed, denom, wr_minus_si,
                         (n_I - 1.0) / (N - 1.0))


def decay_loop(frames, n_I, replicates, seed, m=None, var=0, method="CENSUS", n0=None):
    """The rows of ``verify_decay(...)`` as dicts, one replicate at a time."""
    from twostage.bootstrap import multinomial_weights
    from twostage.rng import substream

    m = n_I if m is None else m
    rows = []
    for fi, fr in enumerate(frames):
        stats = np.empty((replicates, 3))
        for b in range(replicates):
            rng = substream(seed, "decay", fi, b)
            x, z = sir_si_values(fr, n_I, rng, method, n0, var)
            d = multinomial_weights(rng, 1, n_I, m)[0]
            stats[b, 0] = (z.mean() - x.mean()) ** 2
            stats[b, 1] = abs(np.var(z, ddof=1) - np.var(x, ddof=1))
            stats[b, 2] = ((d @ z - d @ x) / m) ** 2
        means = stats.mean(axis=0)
        ses = stats.std(axis=0, ddof=1) / math.sqrt(replicates)
        rows.append({
            "n_psus": fr.n_psus, "n_I": n_I, "m": m,
            "mean_sq_diff": n_I * means[0], "mean_sq_diff_se": n_I * ses[0],
            "abs_s2_diff": means[1], "abs_s2_diff_se": ses[1],
            "boot_sq_diff": m * means[2], "boot_sq_diff_se": m * ses[2],
        })
    return rows
