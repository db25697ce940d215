"""Differential tests of the block engine of the Monte Carlo harness.

``tests/oracles.py`` keeps the one-replicate-at-a-time reference-run and
MC-replicate loops (with the unsplit second-stage engine and the scalar
Fisher-Yates loop, stratum by stratum under STRAT_SI) that
``montecarlo._point_rows`` / ``_replicate_rows`` replaced.  On every
scenario below both must produce the same rows bit for bit, for any span,
any split of it into worker chunks and any reference-run block size.
"""
import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import twostage.designs as designs
import twostage.montecarlo as montecarlo
import twostage.rng as rng_module
from twostage import (
    BootstrapConfig,
    CorrelationEstimand,
    DesignSpec,
    Frame,
    ProportionEstimand,
    RatioEstimand,
    Scenario,
    SyntheticConfig,
    TotalEstimand,
    generate_population,
    substream,
)
from twostage.bootstrap import bootstrap_variance, percentile_ci, resample_wr, studentized_ci
from twostage.designs import second_stage_estimates, si_order, si_order_excluding
from twostage.estimators import estimand_columns, mean_total, variance_estimate

import oracles

BLOCK = montecarlo._BLOCK
ESTIMANDS = (TotalEstimand(0), RatioEstimand(0, 1), CorrelationEstimand(0, 1))


def _population() -> Frame:
    return generate_population(SyntheticConfig(60, 12, 0.1, 20.0, 2.0, (0.2, 0.3), 0.6, seed=5))


def _skewed() -> Frame:
    """39 PSUs of 10-14 SSUs and one of 600: the SI key matrix is 600 wide."""
    rng = np.random.default_rng(9)
    sizes = np.concatenate([rng.integers(10, 15, size=39), [600]]).astype(np.int64)
    values = rng.normal(50.0, 10.0, size=(int(sizes.sum()), 2))
    return Frame(values, sizes)


def _sized(sizes) -> Frame:
    """PSUs of the given sizes holding two normal variables."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return Frame(np.random.default_rng(sizes.size).normal(50.0, 10.0, (int(sizes.sum()), 2)),
                 sizes)


def _stratified(n_strata: int = 3) -> Frame:
    """45 PSUs of 2-5 SSUs with a 0/1 category, dealt into strata s0, s1, ... in turn."""
    rng = np.random.default_rng(3)
    sizes = rng.integers(2, 6, size=45).astype(np.int64)
    cat = (rng.random(int(sizes.sum())) < 0.3).astype(np.float64)
    return Frame(cat[:, None], sizes, strata=[f"s{i % n_strata}" for i in range(45)])


BOOT = BootstrapConfig(replicates=50, seed=0)
CASES = {
    "census": (_population, Scenario(
        DesignSpec("SI", n_I=8), "CENSUS", estimands=ESTIMANDS,
        variance_methods=("UNBIASED", "SIMPLIFIED", "WITH_REPLACEMENT"),
        bootstrap=BOOT, studentized=True)),
    "si-unbiased": (_population, Scenario(
        DesignSpec("SI", n_I=8), "SI", n0=4, estimands=ESTIMANDS,
        variance_methods=("UNBIASED", "SIMPLIFIED"), bootstrap=BOOT, studentized=True)),
    "systematic": (_population, Scenario(
        DesignSpec("SI", n_I=10), "SYSTEMATIC", n0=3, estimands=ESTIMANDS,
        variance_methods=("SIMPLIFIED", "WITH_REPLACEMENT"), bootstrap=BOOT, studentized=True)),
    # a lone one-column estimand: numpy sums each PSU's n0 >= 8 values pairwise
    "one-column": (_population, Scenario(
        DesignSpec("SI", n_I=12), "SYSTEMATIC", n0=9, estimands=(TotalEstimand(1),),
        variance_methods=("SIMPLIFIED",))),
    # three equal columns: gathering one of them would sum it pairwise
    "equal-columns": (_population, Scenario(
        DesignSpec("SI", n_I=12), "SYSTEMATIC", n0=9,
        estimands=(TotalEstimand(1), RatioEstimand(1, 1)), variance_methods=("SIMPLIFIED",))),
    # on a 0/1 variable the indicator and y are equal bit for bit but have
    # distinct keys, so each is gathered on its own
    "equal-bits-distinct-keys": (_stratified, Scenario(
        DesignSpec("SI", n_I=8), "SYSTEMATIC", n0=2,
        estimands=(ProportionEstimand(0, 1.0), TotalEstimand(0)),
        variance_methods=("SIMPLIFIED",), bootstrap=BOOT)),
    "skewed-si": (_skewed, Scenario(
        DesignSpec("SI", n_I=6), "SI", n0=10, estimands=ESTIMANDS,
        variance_methods=("WITH_REPLACEMENT",), bootstrap=BOOT)),
    "skewed-systematic": (_skewed, Scenario(
        DesignSpec("SI", n_I=6), "SYSTEMATIC", n0=10, estimands=ESTIMANDS)),
    # an odd count of 32-bit draws: every row's draws and starts are numpy's own
    "systematic-odd-n_I": (_population, Scenario(
        DesignSpec("SI", n_I=7), "SYSTEMATIC", n0=3, estimands=ESTIMANDS,
        variance_methods=("SIMPLIFIED",), bootstrap=BOOT)),
    # the block resolver at the edges: every PSU of a tiny frame, and a
    # frame above 2,048 PSUs
    "one-psu-frame": (lambda: _sized([5]), Scenario(
        DesignSpec("SI", n_I=1), "SYSTEMATIC", n0=2, estimands=ESTIMANDS)),
    "every-psu-systematic": (lambda: _sized([4, 6]), Scenario(
        DesignSpec("SI", n_I=2), "SYSTEMATIC", n0=3, estimands=ESTIMANDS,
        variance_methods=("SIMPLIFIED",), bootstrap=BOOT)),
    "large-frame-systematic": (lambda: _sized(np.resize([2, 3, 4], 2100)), Scenario(
        DesignSpec("SI", n_I=40), "SYSTEMATIC", n0=2, estimands=ESTIMANDS,
        variance_methods=("SIMPLIFIED",))),
    "point-only-one-psu": (_population, Scenario(
        DesignSpec("SI", n_I=1), "SI", n0=5, estimands=ESTIMANDS)),
    "stratified": (_stratified, Scenario(
        DesignSpec("STRAT_SI", allocations={"s0": 4, "s1": 5, "s2": 3}), "CENSUS",
        estimands=(ProportionEstimand(0, 1.0),), variance_methods=(montecarlo.STRAT_WR,),
        bootstrap=BOOT, studentized=True)),
    # allocations listed out of frame order: rows still hold the strata in frame order
    "stratified-allocations-out-of-order": (_stratified, Scenario(
        DesignSpec("STRAT_SI", allocations={"s2": 3, "s0": 4, "s1": 6}), "CENSUS",
        estimands=(ProportionEstimand(0, 1.0),), variance_methods=(montecarlo.STRAT_WR,),
        bootstrap=BOOT, studentized=True)),
    # stratum s1 is sampled whole (n_l = N_l = 15)
    "stratified-whole-stratum": (_stratified, Scenario(
        DesignSpec("STRAT_SI", allocations={"s0": 3, "s1": 15, "s2": 2}), "CENSUS",
        estimands=(ProportionEstimand(0, 1.0),), variance_methods=(montecarlo.STRAT_WR,),
        bootstrap=BOOT, studentized=True)),
    "stratified-one-stratum": (lambda: _stratified(1), Scenario(
        DesignSpec("STRAT_SI", allocations={"s0": 9}), "CENSUS",
        estimands=(ProportionEstimand(0, 1.0),), variance_methods=(montecarlo.STRAT_WR,),
        bootstrap=BOOT, studentized=True)),
    "stratified-point-only": (_stratified, Scenario(
        DesignSpec("STRAT_SI", allocations={"s0": 1, "s1": 4, "s2": 1}), "CENSUS",
        estimands=(ProportionEstimand(0, 0.0),))),
}
# spans that start and end inside a block, cover exactly one, or straddle two
SPANS = [(0, 2 * BLOCK + 9), (5, BLOCK - 3), (BLOCK - 1, BLOCK + 1), (BLOCK, 2 * BLOCK)]


@pytest.fixture(scope="module", params=sorted(CASES))
def ctx(request):
    make_frame, scenario = CASES[request.param]
    return montecarlo._build_context(make_frame(), scenario, 20261018, ("cell", 3))


def _same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _state(rng: np.random.Generator) -> str:
    """The generator's full state (Philox holds arrays, so compared as text)."""
    return repr(rng.bit_generator.state)


def _count_new_streams(monkeypatch) -> list:
    """Empty this thread's generator pool and record each generator montecarlo makes."""
    made = []
    real = rng_module.new_stream
    monkeypatch.setattr(montecarlo, "new_stream", lambda: made.append(1) or real())
    monkeypatch.setattr(montecarlo, "_POOL", threading.local())
    return made


def test_a_systematic_reference_run_makes_one_generator(monkeypatch):
    """Its rows draw nothing past their starts, so one generator reads every row's stream."""
    made = _count_new_streams(monkeypatch)
    make_frame, scenario = CASES["systematic"]
    montecarlo.approximate_true_variance(make_frame(), scenario, 11)
    assert len(made) == 1


@pytest.mark.parametrize("case", ["census", "stratified"])
def test_a_census_reference_run_makes_one_generator_once(monkeypatch, case):
    """A census draws nothing past the first stage, so one generator reads every row's stream,
    and the next run takes it from the pool."""
    made = _count_new_streams(monkeypatch)
    make_frame, scenario = CASES[case]
    first = montecarlo.approximate_true_variance(make_frame(), scenario, 11)
    assert montecarlo.approximate_true_variance(make_frame(), scenario, 11) == first
    assert len(made) == 1


def _race(run, count: int) -> None:
    """``run(i)`` for i < count, each on its own thread, switching threads every 1 us."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)


def _count_tables(monkeypatch) -> list:
    """Empty the kept tables and record the id of the frame of each table montecarlo builds."""
    built = []
    real = montecarlo.systematic_table
    monkeypatch.setattr(montecarlo, "systematic_table",
                        lambda frame, *args: built.append(id(frame)) or real(frame, *args))
    monkeypatch.setattr(montecarlo, "_TABLES", weakref.WeakKeyDictionary())
    return built


def test_concurrent_runs_in_threads_share_no_generator():
    """Each thread draws on its own pool: a shared one would move one run's streams under
    another's."""
    make_frame, scenario = CASES["si-unbiased"]
    scenario = dataclasses.replace(scenario, true_run=1000)
    frame = make_frame()
    want = montecarlo.approximate_true_variance(frame, scenario, 5)
    got = [None] * 6

    def run(i):
        got[i] = montecarlo.approximate_true_variance(frame, scenario, 5)
    _race(run, len(got))
    assert got == [want] * len(got)


def test_concurrent_systematic_runs_in_threads_build_one_table(monkeypatch):
    """Six threads on one fresh frame: one of them builds its table, and every run has the bits
    of the serial run; a fork run that reads the kept table has them too."""
    built = _count_tables(monkeypatch)
    make_frame, scenario = CASES["systematic"]
    scenario = dataclasses.replace(scenario, true_run=1000)
    want = montecarlo.approximate_true_variance(make_frame(), scenario, 5)
    frame = make_frame()
    got = [None] * 6

    def run(i):
        got[i] = montecarlo.approximate_true_variance(frame, scenario, 5)
    _race(run, len(got))
    assert got == [want] * len(got)
    assert len(built) == 2  # the serial run's frame and the threads' one


def _table_run(frame: Frame, n0: int = 3, estimands=ESTIMANDS) -> tuple:
    """A SYSTEMATIC reference run of 1,000 samples on the frame."""
    scenario = Scenario(DesignSpec("SI", n_I=10), "SYSTEMATIC", n0=n0, estimands=estimands,
                        true_run=1000)
    return montecarlo.approximate_true_variance(frame, scenario, 9)


def test_a_kept_table_is_rebuilt_when_n0_or_the_columns_change(monkeypatch):
    """Every run reads its table of the frame, n0 and column keys; a table kept for another n0
    or other keys is replaced (so n0 = 3 -> 4 -> 3 builds three times), and each result has
    the bits of a run on a fresh frame."""
    built = _count_tables(monkeypatch)
    frame = _population()
    runs = [(3, ESTIMANDS, 1), (3, ESTIMANDS, 1), (4, ESTIMANDS, 2), (3, ESTIMANDS, 3),
            (3, (TotalEstimand(0),), 4), (3, (TotalEstimand(1),), 5), (3, (TotalEstimand(1),), 5),
            (3, (RatioEstimand(1, 1),), 6)]  # a lone key read twice keeps both columns
    for n0, estimands, builds in runs:
        got = _table_run(frame, n0, estimands)
        assert len(built) == builds, (n0, estimands)
        assert got == _table_run(_population(), n0, estimands)
        del built[builds:]  # the fresh frame's build


def test_each_frame_keeps_its_own_table(monkeypatch):
    """Two frames of the same sizes but other values each build and keep their own table, so
    switching A -> B -> A builds twice."""
    built = _count_tables(monkeypatch)
    a = _population()
    b = Frame(a.values + 1.0, a.sizes)
    want = {id(a): _table_run(_population()), id(b): _table_run(Frame(a.values + 1.0, a.sizes))}
    assert want[id(a)] != want[id(b)]
    del built[:]
    for frame in (a, b, a):
        assert _table_run(frame) == want[id(frame)]
    assert built == [id(a), id(b)]


def test_a_dropped_frame_leaves_no_kept_table(monkeypatch):
    _count_tables(monkeypatch)
    frame = _population()
    _table_run(frame)
    table = weakref.ref(montecarlo._TABLES[frame][1])
    del frame
    gc.collect()
    assert len(montecarlo._TABLES) == 0 and table() is None


def _block_rows(ctx) -> tuple[int, ...]:
    """Block rows to walk a reference run in: one, a _BLOCK and the context's own."""
    return 1, BLOCK, ctx.point_rows


@pytest.mark.parametrize("span", SPANS)
def test_point_rows_match_the_replicate_loop(ctx, span):
    want = oracles.point_rows(ctx, *span)
    for rows in _block_rows(ctx):
        _same(montecarlo._point_rows(dataclasses.replace(ctx, point_rows=rows), *span), want)


def test_point_rows_across_a_block_cut_match_the_replicate_loop(ctx):
    """A span from inside one block of each size to inside the next."""
    for rows in _block_rows(ctx):
        span = (max(0, rows - 3), rows + 5)
        _same(montecarlo._point_rows(dataclasses.replace(ctx, point_rows=rows), *span),
              oracles.point_rows(ctx, *span))


def test_the_derived_block_rows():
    """The largest multiple of 64 rows that holds 2^15 first-stage draws, or 64; at most 2,048
    rows, one generator each, under an SI second stage."""
    for n, rows in [(1, 32768), (15, 2176), (16, 2048), (20, 1600), (200, 128), (201, 128),
                    (256, 128), (257, 64), (600, 64), (4096, 64)]:
        for method, n0, want in [("SYSTEMATIC", 3, rows), ("CENSUS", None, rows),
                                 ("SI", 3, min(rows, 2048))]:
            scenario = Scenario(DesignSpec("SI", n_I=n), method, n0=n0)
            assert montecarlo._point_block_rows(scenario) == want
    _, stratified = CASES["stratified"]
    assert montecarlo._point_block_rows(stratified) == 2688  # 12 draws a row


@pytest.mark.parametrize("case", ["systematic", "si-unbiased"])
def test_a_fork_run_equals_the_serial_run(case):
    """At n_I = 40, 2,000 samples make 3 spans of 768-row blocks on 2 fork workers."""
    make_frame, scenario = CASES[case]
    scenario = dataclasses.replace(scenario, first_stage=DesignSpec("SI", n_I=40),
                                   true_run=2000)
    frame = make_frame()
    assert montecarlo._point_block_rows(scenario) == 768
    serial = montecarlo.approximate_true_variance(frame, scenario, 7, threads=1)
    assert montecarlo.approximate_true_variance(frame, scenario, 7, threads=2) == serial


def test_a_fork_run_on_a_kept_table_equals_the_serial_run(monkeypatch):
    """The fork workers of a run that found its table kept read it as the serial run did."""
    built = _count_tables(monkeypatch)
    make_frame, scenario = CASES["systematic"]
    scenario = dataclasses.replace(scenario, first_stage=DesignSpec("SI", n_I=40),
                                   true_run=2000)
    frame = make_frame()
    serial = montecarlo.approximate_true_variance(frame, scenario, 7, threads=1)
    assert montecarlo.approximate_true_variance(frame, scenario, 7, threads=2) == serial
    assert built == [id(frame)]


@pytest.mark.parametrize("span", SPANS)
def test_replicate_rows_match_the_replicate_loop(ctx, span):
    _same(montecarlo._replicate_rows(ctx, *span), oracles.replicate_rows(ctx, *span))


@pytest.mark.parametrize("fn", [montecarlo._point_rows, montecarlo._replicate_rows])
def test_any_split_gives_the_same_rows(ctx, fn):
    end = 2 * BLOCK + 9
    whole = fn(ctx, 0, end)
    for cuts in ([0, 16, 32, 48, 63, 64, 65, 100, end], [0, 1, BLOCK + 7, end]):
        parts = [fn(ctx, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
        _same(np.vstack(parts), whole)


@pytest.mark.parametrize("method, with_vhat", [
    ("SI", False), ("SI", True), ("SYSTEMATIC", False), ("CENSUS", False), ("CENSUS", True)])
@pytest.mark.parametrize("p", [1, 2, 7])
@pytest.mark.parametrize("n0", [1, 3, 8, 10])
@pytest.mark.parametrize("k", [0, 7, 2 * designs._GATHER_ROWS + 5])
def test_second_stage_matches_the_one_gather_engine(method, with_vhat, p, n0, k):
    """Blocks of 1 and 3 rows, each row drawn from its own generator, against the row oracle."""
    frame = _skewed()
    columns = np.random.default_rng(p).normal(size=(frame.n_ssus, p)) * 1e3
    subtotals = np.add.reduceat(columns, frame.offsets[:-1], axis=0)
    with_vhat = with_vhat and n0 > 1
    size = None if method == "CENSUS" else n0  # a census takes no n0
    for rows in (1, 3):
        psus = np.stack([np.resize(np.roll([39, 3, 3, 17, 0, 39, 25], b), k)
                         for b in range(rows)])
        new_rngs = [substream(4, method, p, n0, b) for b in range(rows)]
        old_rngs = [substream(4, method, p, n0, b) for b in range(rows)]
        before = [_state(rng) for rng in new_rngs]
        new = second_stage_estimates(frame, columns, subtotals, psus, method, size, new_rngs,
                                     with_vhat=with_vhat)
        old = [oracles.row_estimates(frame, columns, subtotals, row, method, size, rng,
                                     with_vhat=with_vhat) for row, rng in zip(psus, old_rngs)]
        _same(new[0], np.stack([y for y, _ in old]).reshape(rows, k, p))
        if with_vhat:
            _same(new[1], np.stack([v for _, v in old]).reshape(rows, k, p))
        else:
            assert new[1] is None
        after = [_state(rng) for rng in new_rngs]
        assert after == [_state(rng) for rng in old_rngs]
        if method == "CENSUS" or k == 0:
            assert after == before  # nothing drawn


@pytest.mark.parametrize("n_population, n", [(1, 1), (5, 5), (200, 37), (2000, 200)])
def test_si_order_matches_the_scalar_loop(n_population, n):
    for rep in range(3):
        _same(si_order(n_population, n, substream(6, n_population, rep)),
              oracles.si_order_loop(n_population, n, substream(6, n_population, rep)))


def test_si_order_excluding_rejection_branch_is_unchanged():
    """N >= 2048 with a small excluded share draws by rejection, in several batches here."""
    exclude = substream(8, "exclude").permutation(2048)[:500]
    for rep in range(3):
        out = si_order_excluding(2048, 500, exclude, substream(8, "rej", rep))
        assert out.tolist() == oracles.si_order_excluding_loop(2048, 500, exclude,
                                                               substream(8, "rej", rep))
        assert len(set(out.tolist()) | set(exclude.tolist())) == 1000


def _three_variables() -> Frame:
    """PSUs of 1-9 SSUs: two normal variables and a category coded 0, 1 or 2."""
    rng = np.random.default_rng(12)
    sizes = rng.integers(1, 10, size=50).astype(np.int64)
    n = int(sizes.sum())
    return Frame(np.column_stack([rng.normal(50.0, 10.0, (n, 2)), rng.integers(0, 3, n)]),
                 sizes)


@pytest.mark.parametrize("estimands, n_columns", [
    ((CorrelationEstimand(0, 1), CorrelationEstimand(0, 2)), 9),  # share y_0, y_0^2 and 1
    ((ProportionEstimand(2, 1.0), CorrelationEstimand(0, 1)), 7),  # share the count column
    ((TotalEstimand(1), TotalEstimand(1)), 2),  # a lone key keeps every column
], ids=["two-correlations", "proportion-and-correlation", "repeated-lone-total"])
def test_estimand_columns_hold_each_definition_once(estimands, n_columns):
    frame = _three_variables()
    y = frame.values
    one = np.ones(frame.n_ssus)
    definitions = {
        TotalEstimand: lambda e: [y[:, e.var]],
        CorrelationEstimand: lambda e: [y[:, e.a], y[:, e.b], y[:, e.a] ** 2, y[:, e.b] ** 2,
                                        y[:, e.a] * y[:, e.b], one],
        ProportionEstimand: lambda e: [np.where(y[:, e.var] == e.category, 1.0, 0.0), one],
    }
    columns, subtotals, index, slices = estimand_columns(frame, estimands)
    assert columns.flags.c_contiguous and columns.shape == (frame.n_ssus, n_columns)
    assert subtotals.shape == (frame.n_psus, n_columns)
    for e, sl in zip(estimands, slices):
        want = np.column_stack(definitions[type(e)](e))
        _same(np.take(columns, index[sl], axis=1), want)
        _same(np.take(subtotals, index[sl], axis=1),
              np.add.reduceat(want, frame.offsets[:-1], axis=0))


@pytest.fixture(scope="module")
def pop3():
    return generate_population(SyntheticConfig(2000, 40, 0.06, 20.0, 2.0, (0.1, 0.2, 0.3), 0.6,
                                               seed=3))


@pytest.mark.parametrize("n0", [3, 5, 9, 10, 11])
def test_build_context_peaks_at_the_distinct_columns(pop3, n0):
    """A pop3-shaped cell holds its table of 11 distinct columns, in about the room of the columns.

    A SYSTEMATIC context keeps no column matrix; its table and lookup index,
    built in chunks, must fit where the 11 columns and their subtotals did,
    at each n0 of the criteria grid and below (R and the index grow with
    N_i / gcd(N_i, n0)).
    """
    frame = pop3
    scenario = Scenario(DesignSpec("SI", n_I=200), "SYSTEMATIC", n0=n0, estimands=(
        TotalEstimand(0), TotalEstimand(4), RatioEstimand(0, 1), RatioEstimand(4, 5),
        CorrelationEstimand(0, 1), CorrelationEstimand(4, 5)), variance_methods=("SIMPLIFIED",))
    montecarlo._build_context(frame, scenario, 1, ())  # the frame's own caches fill here
    del montecarlo._TABLES[frame]  # so that the traced context builds its table again
    tracemalloc.start()
    try:
        ctx = montecarlo._build_context(frame, scenario, 1, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.columns is None and ctx.col_subtotals is None
    p = ctx.table.estimates.shape[1]
    assert p == 11
    assert peak <= (frame.n_ssus + frame.n_psus) * p * 8 + (1 << 20)


def test_a_reference_block_peaks_within_twice_its_estimates(pop3):
    """One derived-size block of the criteria 5-6 pop3 cell (n_I = 200, n0 = 10, six estimands)
    peaks within twice its (rows, n_I, p) subtotal estimates, p the table's columns."""
    scenario = Scenario(DesignSpec("SI", n_I=200), "SYSTEMATIC", n0=10, estimands=(
        TotalEstimand(0), TotalEstimand(4), RatioEstimand(0, 1), RatioEstimand(4, 5),
        CorrelationEstimand(0, 1), CorrelationEstimand(4, 5)), true_run=1000)
    ctx = montecarlo._build_context(pop3, scenario, 1, ())
    rows, p = ctx.point_rows, ctx.table.estimates.shape[1]
    assert rows == 128
    montecarlo._point_rows(ctx, 0, 1)  # the pool's generator is made here
    tracemalloc.start()
    try:
        theta = montecarlo._point_rows(ctx, 0, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta.shape == (rows, 6)
    assert peak <= 2 * rows * 200 * p * 8


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("stratified")))
def test_stratified_block_totals_have_each_rows_bits(case):
    """One sum per stratum over the block gives every row's StratifiedClusterSample totals."""
    make_frame, scenario = CASES[case]
    ctx = montecarlo._build_context(make_frame(), scenario, 1, ())
    n_sampled = sum(scenario.first_stage.allocations.values())
    rng = np.random.default_rng(17)
    for _ in range(20):
        # mixed signs and magnitudes, so any other order of the additions shows
        yhat = rng.standard_normal((BLOCK, n_sampled, 2)) * 10.0 ** rng.integers(-8, 9, (1, 1, 2))
        want = np.stack([montecarlo._stratified_sample(ctx, y).totals for y in yhat])
        got = montecarlo._stratified_sample(ctx, yhat).totals
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# the six estimands of the criteria 5-6 cell, and a lone total: numpy sums one column of
# n_I >= 8 values pairwise, so the engine's base must sum as the block's point does
ENGINE_CASES = {
    "systematic-six-estimands": Scenario(
        DesignSpec("SI", n_I=10), "SYSTEMATIC", n0=3, estimands=(
            TotalEstimand(0), TotalEstimand(2), RatioEstimand(0, 1), RatioEstimand(2, 3),
            CorrelationEstimand(0, 1), CorrelationEstimand(2, 3)),
        variance_methods=("SIMPLIFIED",), bootstrap=BOOT, studentized=True),
    "census-lone-total": Scenario(
        DesignSpec("SI", n_I=12), "CENSUS", estimands=(TotalEstimand(1),),
        variance_methods=("SIMPLIFIED",), bootstrap=BOOT, studentized=True),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_mc_bootstrap_is_resample_wr_on_each_row(case):
    """Every MC row's boot_var and bootstrap intervals are those of resample_wr on the row.

    The row's estimates and stream come from the one-replicate oracle, and
    the Studentized base from its own v_SIMP, so only the engine is shared.
    """
    scenario = ENGINE_CASES[case]
    ctx = montecarlo._build_context(_population(), scenario, 20261018, ("cell", 3))
    end = BLOCK + 9
    rows = montecarlo._replicate_rows(ctx, 0, end)
    est_columns = oracles.stacked_columns(ctx.frame, scenario.estimands)
    cfg = scenario.bootstrap
    for b in range(end):
        rng = substream(ctx.seed, *ctx.tag, "mc", b)
        draw, yhat, _ = oracles._si_draw(ctx, est_columns, rng)
        sets = resample_wr(yhat, ctx.frame.n_psus, cfg, scenario.estimands, rng, compute_se=True)
        for e, sl, reps in zip(scenario.estimands, ctx.slices, sets):
            want = [bootstrap_variance(reps), *percentile_ci(reps, cfg.alpha)]
            cols = [ctx.layout[e.label, "boot_var"], ctx.layout[e.label, "ci_percentile"]]
            cols.append(cols[-1] + 1)
            if isinstance(e, TotalEstimand):
                v_simp = variance_estimate(mean_total(draw, (yhat[:, sl], None)), "SIMPLIFIED")
                want += studentized_ci(reps, math.sqrt(v_simp), cfg.alpha)
                cols += [ctx.layout[e.label, "ci_studentized"] + j for j in (0, 1)]
            else:
                assert reps.se_star is None and (e.label, "ci_studentized") not in ctx.layout
            assert np.array_equal(rows[b, cols].view(np.uint64),
                                  np.array(want).view(np.uint64)), (b, e.label)
