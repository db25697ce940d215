"""Differential tests of the block engine of the Monte Carlo harness.

``tests/oracles.py`` keeps the one-replicate-at-a-time reference-run and
MC-replicate loops (with the unsplit second-stage engine and the scalar
Fisher-Yates loop, stratum by stratum under STRAT_SI) that
``montecarlo._point_rows`` / ``_replicate_rows`` replaced.  On every
scenario below both must produce the same rows bit for bit, for any span
and any split of it into worker chunks.
"""
import tracemalloc

import numpy as np
import pytest

import twostage.designs as designs
import twostage.montecarlo as montecarlo
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
from twostage.designs import second_stage_estimates, si_order, si_order_excluding
from twostage.estimators import estimand_columns

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


@pytest.mark.parametrize("span", SPANS)
def test_point_rows_match_the_replicate_loop(ctx, span):
    _same(montecarlo._point_rows(ctx, *span), oracles.point_rows(ctx, *span))


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


def test_build_context_peaks_at_the_distinct_columns():
    """A pop3-shaped cell holds its table of 11 distinct columns, in about the room of the columns.

    A SYSTEMATIC context keeps no column matrix; its table and lookup index,
    built in chunks, must fit where the 11 columns and their subtotals did.
    """
    frame = generate_population(SyntheticConfig(2000, 40, 0.06, 20.0, 2.0, (0.1, 0.2, 0.3), 0.6,
                                                seed=3))
    scenario = Scenario(DesignSpec("SI", n_I=200), "SYSTEMATIC", n0=10, estimands=(
        TotalEstimand(0), TotalEstimand(4), RatioEstimand(0, 1), RatioEstimand(4, 5),
        CorrelationEstimand(0, 1), CorrelationEstimand(4, 5)), variance_methods=("SIMPLIFIED",))
    montecarlo._build_context(frame, scenario, 1, ())  # the frame's own caches fill here
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
