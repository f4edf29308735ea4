"""Two-route checks between the oracles and the fast modules, and between
the Wick-sum oracles and exact diagonalization."""

import functools
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
    return params, {s: oracle.ed_micro(params.with_(lam=s * D_LAMBDA))
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
    r = {s: ed.response(alpha, [tau])[x, 0] for s, ed in eds.items()}
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
    ed = oracle.ed_micro(params)
    gap = oracle.particle_hole_gap(ed)
    assert gap <= ed.roundoff


def test_free_ed_matches_wick_responses():
    # ED builds each channel density from the shared oracle.DENSITIES table,
    # wick_free_response from its own closed channel reductions, so a wrong
    # table entry shows here; each side carries its own roundoff bar
    params = model.ModelParams(lam=0.0, mu_bar=0.3, potential=model.on_site_potential(1.0),
                               beta=4.0, L=4)
    ed = oracle.ed_micro(params)
    taus = (0.7, -1.3, 2.9)
    for alpha in oracle.RESPONSE_CHANNELS:
        table = ed.response(alpha, taus)
        for x in range(params.L):
            for j, tau in enumerate(taus):
                ref = oracle.wick_free_response(x, alpha, params, x0=tau)
                assert abs(table[x, j] - ref.value) <= ed.roundoff + ref.error


JW_L = 3


def _jw_field(dag, bit, n_modes):
    """a_bit (dag = 0) or a^+_bit on the full Fock space as a Kronecker
    product: bit 0 is the last factor, and the Jordan-Wigner string of
    diag(1, -1) factors covers every lower bit."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])    # |1> -> |0>
    factors = ([np.eye(2)] * (n_modes - 1 - bit) + [lower.T if dag else lower]
               + [np.diag([1.0, -1.0])] * bit)
    return functools.reduce(np.kron, factors)


def _jw_dense(monomials, L):
    total = np.zeros((4 ** L, 4 ** L))
    for coeff, fields in monomials:
        total += coeff * functools.reduce(np.matmul, [
            _jw_field(dag, spin * L + site, 2 * L) for dag, site, spin, _ in fields])
    return total


_JW_CASES = {"%s[%d]@x=%d" % (alpha, i, x): [oracle._density_monomials(alpha, x, None, JW_L)[i]]
             for alpha, rows in oracle.DENSITIES.items()
             for i in range(len(rows)) for x in range(JW_L)}
_JW_CASES["hopping"] = oracle._hopping_monomials(JW_L)


@pytest.mark.parametrize("name", sorted(_JW_CASES))
def test_op_blocks_match_dense_jordan_wigner(name):
    # every coefficient and matrix entry is dyadic, so both routes are exact
    monomials = _JW_CASES[name]
    basis = oracle._sector_basis(JW_L)
    assert np.array_equal(np.sort(np.concatenate(list(basis.values()))),
                          np.arange(4 ** JW_L))
    full = np.zeros((4 ** JW_L, 4 ** JW_L))
    for (src, dest), blk in oracle._op_blocks(monomials, basis, JW_L).items():
        full[np.ix_(basis[dest], basis[src])] = blk
    dense = _jw_dense(monomials, JW_L)
    assert np.any(dense != 0.0)
    assert np.array_equal(full, dense)
