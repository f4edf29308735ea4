"""Counterterm fixed point: contraction, scaling, chemical-potential inversion."""

import numpy as np
import pytest

from rg1d import nusolver

P_F_REF = np.arccos(0.5)


def _model(lam, h_box=-40, eps_scale=2.0, c0=0.25):
    return nusolver.default_model(h_box, P_F_REF, eps_scale * abs(lam), c0=c0)


# ---------------------------------------------------------------------------
# operator structure
# ---------------------------------------------------------------------------


def test_operator_affine_in_nu():
    # T(nu) = A nu + const: the matrix form reproduces the recursion exactly
    m = _model(0.02)
    rng = np.random.default_rng(0)
    n = 2 - m.h_box
    zero = nusolver.NuSequence.zero(m.h_box, m.gamma)
    x = nusolver.NuSequence(m.h_box, m.gamma, rng.normal(size=n) + 0j)
    y = nusolver.NuSequence(m.h_box, m.gamma, rng.normal(size=n) + 0j)
    t0 = nusolver.T_operator(zero, m).values
    tx = nusolver.T_operator(x, m).values
    ty = nusolver.T_operator(y, m).values
    combo = nusolver.NuSequence(m.h_box, m.gamma, 2.0 * x.values + y.values)
    tc = nusolver.T_operator(combo, m).values
    assert np.max(np.abs((tc - t0) - (2.0 * (tx - t0) + (ty - t0)))) < 1e-12
    A = nusolver.operator_matrix(m)
    assert np.max(np.abs((tx - t0) - A @ x.values)) < 1e-12


def test_picard_contraction_small_coupling():
    m = _model(0.02)
    rep = nusolver.solve_fixed_point(m)
    assert rep.contracting
    assert rep.contraction_ratio <= 0.5
    assert rep.residual < 1e-12


def test_contraction_ratio_grows_with_coupling():
    r_small = nusolver.solve_fixed_point(_model(0.005)).contraction_ratio
    r_big = nusolver.solve_fixed_point(_model(0.02)).contraction_ratio
    assert r_small < r_big


def test_large_coupling_reported_not_contracting():
    rep = nusolver.solve_fixed_point(_model(0.4))
    assert not rep.contracting
    assert rep.contraction_ratio >= 1.0
    # downstream consumers refuse to use a non-contracting solve
    with pytest.raises(RuntimeError):
        nusolver.nu1_of_mu(0.5, _model(0.4))


def test_fixed_point_norm_linear_in_lambda():
    norms = {}
    for lam in (0.002, 0.02):
        rep = nusolver.solve_fixed_point(_model(lam))
        norms[lam] = rep.nu.norm()
    ratio = norms[0.02] / norms[0.002]
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_ball_check_within_contract():
    m = _model(0.02)
    worst_norm, worst_ratio = nusolver.ball_check(m, xi_lam=2.0 * 0.02)
    assert worst_norm <= 1.0 + 1e-12
    assert worst_ratio < 1.0


def test_operator_norm_scales_with_coupling():
    n_small = nusolver.operator_norm(_model(0.005))
    n_big = nusolver.operator_norm(_model(0.02))
    assert n_big == pytest.approx(4.0 * n_small, rel=0.2)


# ---------------------------------------------------------------------------
# chemical potential inversion
# ---------------------------------------------------------------------------


def test_invert_pF_small_shift_and_derivative():
    for lam in (0.005, 0.02):
        m = _model(lam)
        rep = nusolver.invert_pF(0.5, m)
        assert abs(rep.p_F - np.arccos(0.5)) <= 5.0 * lam
        assert abs(rep.derivative) < 0.5
        assert rep.residual < 1e-10
        assert rep.mu_bar == 0.5


def test_invert_rejects_out_of_band():
    m = _model(0.01)
    with pytest.raises(ValueError):
        nusolver.invert_pF(1.0, m)
    with pytest.raises(ValueError):
        nusolver.invert_pF(-1.2, m)


def test_shift_scales_linearly():
    shifts = []
    for lam in (0.004, 0.008, 0.016):
        rep = nusolver.invert_pF(0.5, _model(lam))
        shifts.append(abs(rep.p_F - np.arccos(0.5)))
    # consecutive doubling of lambda doubles the shift
    assert shifts[1] / shifts[0] == pytest.approx(2.0, rel=0.25)
    assert shifts[2] / shifts[1] == pytest.approx(2.0, rel=0.25)


def test_derivative_by_finite_difference():
    m = _model(0.01)
    step = 1e-4
    d = nusolver.nu1_derivative(0.5, m, step=step)
    direct = (nusolver.nu1_of_mu(0.5 + step, m) - nusolver.nu1_of_mu(0.5 - step, m)) / (
        2.0 * step
    )
    assert d == pytest.approx(direct, rel=1e-8)
    assert abs(d) < 0.5


def test_inversion_rows_layout():
    rows = nusolver.inversion_rows([0.005, 0.01], 0.5, -40)
    assert len(rows) == 2
    lam, mu_bar, p_F, nu1, iterations, ratio, residual = rows[0]
    assert lam == 0.005
    assert mu_bar == 0.5
    assert ratio < 1.0
    assert residual < 1e-10
    assert iterations >= 1
