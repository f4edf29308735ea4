"""Two-route checks between the oracles and the fast modules, and between
the Wick-sum oracles and exact diagonalization."""

import math

import numpy as np
import pytest

from rg1d import model, oracle, propagators, rgflow

D_LAMBDA = 1e-4


@pytest.fixture(scope="module")
def ed_ladder():
    """ED systems at lambda = s * D_LAMBDA, s in (-2, -1, 1, 2), on the L = 4
    ring with beta = 4, mu_bar = 0.3 and the uv:1:0.5 potential."""
    params = model.ModelParams(lam=0.0, mu_bar=0.3, potential=model.u_v_potential(1.0, 0.5),
                               beta=4.0, L=4)
    return params, {s: oracle.ed_micro(4, 4.0, params.with_(lam=s * D_LAMBDA))
                    for s in (-2, -1, 1, 2)}


@pytest.mark.parametrize("x, tau", [(1, 0.7), (2, 1.3)])
@pytest.mark.parametrize("alpha", oracle.RESPONSE_CHANNELS)
def test_first_order_slope_matches_ed_difference(ed_ladder, x, tau, alpha):
    # Budget for |d1 - slope|, with d1 and d2 the central differences of the
    # ED response at steps D_LAMBDA and 2 D_LAMBDA:
    #   * the oracle's two-level refinement bar;
    #   * the O(D_LAMBDA^2) truncation of d1, estimated as |d2 - d1| / 3;
    #   * ED roundoff R per response: R / D_LAMBDA in d1, and R / (2 D_LAMBDA)
    #     more in the truncation estimate.
    params, eds = ed_ladder
    slope = oracle.first_order_slope(x, tau, alpha, params)
    r = {s: ed.response(x, tau, alpha) for s, ed in eds.items()}
    d1 = (r[1] - r[-1]) / (2.0 * D_LAMBDA)
    d2 = (r[2] - r[-2]) / (4.0 * D_LAMBDA)
    roundoff = eds[1].roundoff
    budget = slope.error + abs(d2 - d1) / 3.0 + 1.5 * roundoff / D_LAMBDA
    assert abs(d1 - slope.value) <= budget


def test_free_g_matches_kernel_sum():
    # both are exact sums of L terms of size <= 1: L eps bounds the roundoff
    params = model.ModelParams(lam=0.0, mu_bar=0.3, potential=model.on_site_potential(1.0),
                               beta=16.0, L=32)
    bar = params.L * np.finfo(float).eps
    for x in (0, 1, 3, 7, 16):
        for tau in (0.5, 3.7, 11.0, -2.3, -15.0):
            fast = propagators.free_propagator(x, tau, params)
            assert abs(oracle.free_g(x, tau, params) - fast) <= bar


def test_bubble_quadrature_extrapolates_to_bubble_constant():
    fermi = model.FermiPoint.from_p_F(math.pi / 3.0, 256)
    rich = oracle.bubble_quadrature(-16, fermi, extrapolate=True)
    assert abs(rich.value - rgflow.bubble_constant(fermi)) <= rich.error


@pytest.mark.parametrize("potential", [model.on_site_potential(1.0),
                                       model.u_v_potential(1.0, 0.5)],
                         ids=["hubbard", "uv:1:0.5"])
def test_particle_hole_spectra_coincide(potential):
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=potential, beta=4.0, L=4)
    gap = oracle.particle_hole_gap(4, 4.0, params)
    assert gap <= oracle.ed_micro(4, 4.0, params).roundoff
