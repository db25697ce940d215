"""Differential tests of the block engine of the Monte Carlo harness.

``tests/oracles.py`` keeps the one-replicate-at-a-time reference-run and
MC-replicate loops (with the unsplit second-stage engine and the scalar
Fisher-Yates loop) that ``montecarlo._point_rows`` / ``_replicate_rows``
replaced.  On every scenario below both must produce the same rows bit for
bit, for any span and any split of it into worker chunks.
"""
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


def _stratified() -> Frame:
    rng = np.random.default_rng(3)
    sizes = rng.integers(2, 6, size=45).astype(np.int64)
    cat = (rng.random(int(sizes.sum())) < 0.3).astype(np.float64)
    return Frame(cat[:, None], sizes, strata=[f"s{i % 3}" for i in range(45)])


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
    "skewed-si": (_skewed, Scenario(
        DesignSpec("SI", n_I=6), "SI", n0=10, estimands=ESTIMANDS,
        variance_methods=("WITH_REPLACEMENT",), bootstrap=BOOT)),
    "skewed-systematic": (_skewed, Scenario(
        DesignSpec("SI", n_I=6), "SYSTEMATIC", n0=10, estimands=ESTIMANDS)),
    "point-only-one-psu": (_population, Scenario(
        DesignSpec("SI", n_I=1), "SI", n0=5, estimands=ESTIMANDS)),
    "stratified": (_stratified, Scenario(
        DesignSpec("STRAT_SI", allocations={"s0": 4, "s1": 5, "s2": 3}), "CENSUS",
        estimands=(ProportionEstimand(0, 1.0),), variance_methods=(montecarlo.STRAT_WR,),
        bootstrap=BOOT, studentized=True)),
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


@pytest.mark.parametrize("method, with_vhat", [("SI", False), ("SI", True), ("SYSTEMATIC", False)])
@pytest.mark.parametrize("p", [1, 2, 7])
@pytest.mark.parametrize("n0", [1, 3, 8, 10])
@pytest.mark.parametrize("k", [7, 2 * designs._GATHER_ROWS + 5])
def test_second_stage_matches_the_one_gather_engine(method, with_vhat, p, n0, k):
    frame = _skewed()
    columns = np.random.default_rng(p).normal(size=(frame.n_ssus, p)) * 1e3
    subtotals = np.add.reduceat(columns, frame.offsets[:-1], axis=0)
    psus = np.resize([39, 3, 3, 17, 0, 39, 25], k)
    with_vhat = with_vhat and n0 > 1
    new = second_stage_estimates(frame, columns, subtotals, psus, method, n0,
                                 substream(4, method, p, n0), with_vhat=with_vhat)
    old = oracles.subsample_estimates(frame, columns, psus, method, n0,
                                      substream(4, method, p, n0), with_vhat=with_vhat)
    for a, b in zip(new, old):
        if b is None:
            assert a is None
        else:
            _same(a, b)


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


def test_distinct_columns_are_bitwise_distinct():
    x = np.linspace(-1.0, 1.0, 101)[:, None]
    # x * 0.0 holds -0.0 where x < 0; abs(x) * 0.0 holds +0.0 everywhere
    columns = np.hstack([x, x * 0.0, x, np.abs(x) * 0.0, x + 1e-12])
    keep, expand = montecarlo._distinct_columns(columns)
    assert keep == [0, 1, 3, 4] and expand.tolist() == [0, 1, 0, 2, 3]
    keep, expand = montecarlo._distinct_columns(np.hstack([x, x, x]))
    assert keep == [0, 1, 2] and expand.tolist() == [0, 1, 2]  # never a lone column
