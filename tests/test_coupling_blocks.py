"""Differential tests of the block engine of the coupling verification helpers.

``tests/oracles.py`` keeps the one-replicate-at-a-time loops (a fresh
``substream`` per replicate, the public second-stage engine per draw) that
``verify_hajek_bound``, ``verify_sir_si_bound`` and ``verify_decay`` ran
before their replicates were drawn in blocks.  Every report must equal the
loop's bit for bit, for any block size.
"""
import numpy as np
import pytest

import twostage.coupling as coupling
from twostage import (
    coupled_be_si,
    coupled_sir_si,
    substream,
    verify_decay,
    verify_hajek_bound,
    verify_sir_si_bound,
)
from conftest import multi_ssu_frame, scalar_frame

import oracles


def _normal(n_psus, seed):
    return scalar_frame(100.0 + 15.0 * np.random.default_rng(seed).standard_normal(n_psus))


# (frame, n_I, var, second stage, n0); N_I above 2,048 reaches the rejection
# branch of si_order_excluding
BE_SI = {
    "census-100": (lambda: _normal(100, 1), 10, 0, "CENSUS", None),
    "census-3000": (lambda: _normal(3000, 2), 40, 0, "CENSUS", None),
    "census-5-of-6": (lambda: scalar_frame(np.arange(1.0, 7.0)), 5, 0, "CENSUS", None),
    "si-40": (lambda: multi_ssu_frame(40, 3), 6, 1, "SI", 3),
    "si-2500": (lambda: multi_ssu_frame(2500, 4), 30, 1, "SI", 2),
}
SIR_SI = {
    "census-5-2": (lambda: scalar_frame(np.arange(1.0, 6.0)), 2, 0, "CENSUS", None),
    "census-n-equals-N": (lambda: _normal(12, 5), 12, 0, "CENSUS", None),
    "census-500": (lambda: _normal(500, 6), 50, 0, "CENSUS", None),
    "census-3000": (lambda: _normal(3000, 7), 60, 0, "CENSUS", None),
    "census-one-draw": (lambda: _normal(30, 8), 1, 0, "CENSUS", None),
    "si-40": (lambda: multi_ssu_frame(40, 9), 8, 1, "SI", 3),
    "si-40-n-equals-N": (lambda: multi_ssu_frame(40, 10), 40, 0, "SI", 2),
    "si-2500": (lambda: multi_ssu_frame(2500, 11), 60, 1, "SI", 2),
    "systematic-40": (lambda: multi_ssu_frame(40, 12), 8, 0, "SYSTEMATIC", 3),
}
DECAY = {
    "census": (lambda: [_normal(n, 20 + n) for n in (60, 600, 3000)], 20, 0, "CENSUS", None, 15),
    "census-pairwise": (lambda: [_normal(n, 30 + n) for n in (300, 1000, 2500)], 150, 0,
                        "CENSUS", None, None),
    "si": (lambda: [multi_ssu_frame(n, 40 + n) for n in (30, 300, 2500)], 12, 1, "SI", 3, 9),
    "systematic": (lambda: [multi_ssu_frame(n, 50 + n) for n in (30, 300, 2500)], 12, 1,
                   "SYSTEMATIC", 2, None),
}
# the default block and blocks of a few replicates, so that 1,000 or 1,001
# replicates end in a partial block
BLOCK_CELLS = [coupling._BLOCK_CELLS, 97]


@pytest.fixture(params=BLOCK_CELLS, ids=lambda c: f"cells{c}")
def block_cells(request, monkeypatch):
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", request.param)
    return request.param


@pytest.mark.parametrize("case", sorted(BE_SI))
def test_hajek_bound_matches_the_replicate_loop(case, block_cells):
    make, n_I, var, method, n0 = BE_SI[case]
    frame = make()
    got = verify_hajek_bound(frame, n_I, 1001, 71, var, method, n0).to_dict()
    assert got == oracles.hajek_bound_loop(frame, n_I, 1001, 71, var, method, n0)


def test_hajek_cases_cover_every_repair():
    """Each BE/SI case draws Bernoulli samples below, at and above n_I."""
    for make, n_I, var, method, n0 in BE_SI.values():
        frame = make()
        sizes = {np.sign(coupled_be_si(frame, n_I, substream(71, "be-si", b), method, n0,
                                       [var]).be_indices.size - n_I) for b in range(1001)}
        assert sizes == {-1, 0, 1}


@pytest.mark.parametrize("case", sorted(SIR_SI))
def test_sir_si_bound_matches_the_replicate_loop(case, block_cells):
    make, n_I, var, method, n0 = SIR_SI[case]
    frame = make()
    if method == "SYSTEMATIC":  # no closed-form V_i: the bound itself refuses
        with pytest.raises(ValueError, match=r"^second_stage must be one of \['CENSUS', 'SI'\]"):
            verify_sir_si_bound(frame, n_I, 1000, 72, var, method, n0)
        return
    got = verify_sir_si_bound(frame, n_I, 1000, 72, var, method, n0).to_dict()
    assert got == oracles.sir_si_bound_loop(frame, n_I, 1000, 72, var, method, n0)


@pytest.mark.parametrize("case", sorted(DECAY))
def test_decay_matches_the_replicate_loop(case, block_cells):
    make, n_I, var, method, n0, m = DECAY[case]
    frames = make()
    got = verify_decay(frames, n_I, 1001, 73, m=m, var_index=var, second_stage=method, n0=n0)
    want = oracles.decay_loop(frames, n_I, 1001, 73, m=m, var=var, method=method, n0=n0)
    assert [r.to_dict() for r in got.rows] == want


def test_one_replicate_functions_draw_what_the_loop_drew():
    """coupled_sir_si and coupled_be_si share the engine's draw code; both keep their bits."""
    frame = multi_ssu_frame(40, 13)
    mu = float(frame.subtotals[:, 1].mean())
    for b in range(200):
        draw = coupled_sir_si(frame, 8, substream(74, "sir-si", b), "SI", 3, [1])
        x, z = oracles.sir_si_values(frame, 8, substream(74, "sir-si", b), "SI", 3, 1)
        assert draw.x_values[:, 0].tobytes() == x.tobytes()
        assert draw.z_values[:, 0].tobytes() == z.tobytes()
        be_si = coupled_be_si(frame, 6, substream(74, "be-si", b), "SI", 3, [1])
        assert be_si.delta2(mu) == oracles.be_si_delta2(frame, 6, substream(74, "be-si", b),
                                                         "SI", 3, 1, mu)
