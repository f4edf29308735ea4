"""Counterterm fixed point: contraction, scaling, chemical-potential inversion."""

import math

import numpy as np
import pytest

from rg1d import nusolver
from rg1d.model import THETA, THETA_PRIME

P_F_REF = np.arccos(0.5)


def _model(lam, h_box=-40, eps_scale=2.0, c0=0.25):
    return nusolver.default_model(h_box, P_F_REF, eps_scale * abs(lam), c0=c0)


def _operator_matrix(m):
    """A = dT/dnu from T's affine columns, A[:, i] = T(e_i) - T(0)."""
    n = m.scales().size
    t0 = nusolver.T_operator(np.zeros(n), m)
    return np.stack([nusolver.T_operator(e, m) - t0 for e in np.eye(n)], axis=1)


# ---------------------------------------------------------------------------
# operator structure
# ---------------------------------------------------------------------------


def test_operator_affine_in_nu():
    # T(nu) = A nu + const: the matrix form reproduces the recursion exactly
    m = _model(0.02)
    rng = np.random.default_rng(0)
    n = 2 - m.h_box
    x = rng.normal(size=n) + 0j
    y = rng.normal(size=n) + 0j
    t0 = nusolver.T_operator(np.zeros(n, dtype=complex), m)
    tx = nusolver.T_operator(x, m)
    ty = nusolver.T_operator(y, m)
    tc = nusolver.T_operator(2.0 * x + y, m)
    assert np.max(np.abs((tc - t0) - (2.0 * (tx - t0) + (ty - t0)))) < 1e-12
    A = _operator_matrix(m)
    assert np.max(np.abs((tx - t0) - A @ x)) < 1e-12


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
        nusolver.solve_at_mu(0.5, _model(0.4))


def test_fixed_point_norm_linear_in_lambda():
    norms = {}
    for lam in (0.002, 0.02):
        m = _model(lam)
        norms[lam] = nusolver.theta_norm(nusolver.solve_fixed_point(m).nu, m)
    ratio = norms[0.02] / norms[0.002]
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_ball_check_within_contract():
    m = _model(0.02)
    worst_norm, worst_ratio = nusolver.ball_check(m, xi_lam=2.0 * 0.02)
    assert worst_norm <= 1.0 + 1e-12
    assert worst_ratio < 1.0


def test_operator_norm_scales_with_coupling():
    # max_h gamma^{-theta h} sum_i |A_{h,i}| gamma^{theta i} is linear in eps
    def norm(m):
        w = m.gamma ** (THETA * m.scales())
        return np.max((np.abs(_operator_matrix(m)) @ w) / w)
    assert norm(_model(0.02)) == pytest.approx(4.0 * norm(_model(0.005)), rel=0.2)


@pytest.mark.parametrize("h_box, p_F, eps, c0", [
    (-40, math.acos(0.5), 0.04, 0.25),
    (-20, math.acos(-0.3), 0.03, 0.1),
    (-10, 0.3, 0.8, 1.0),
])
def test_constant_envelope_matches_the_array_model(h_box, p_F, eps, c0):
    # the scalar envelope against constant-filled bcross, bdiag and eps
    # arrays: a product with a constant-filled array runs the same multiply
    # per element as a product with the scalar, so the bits agree
    m = nusolver.default_model(h_box, p_F, eps, c0=c0)
    n = m.scales().size
    bcross = np.full((n, n), c0)
    bdiag = np.full(n, c0 * p_F / math.pi)
    eps_arr = np.full(n, float(eps))
    rng = np.random.default_rng(7)
    for _ in range(3):
        nu = rng.normal(size=n) + 1j * rng.normal(size=n)
        cross = (bcross * nusolver._cross_weights(m)) @ nu
        forcing = m.gamma ** (THETA_PRIME * m.scales()) * bdiag
        beta = eps_arr * (cross + forcing)
        t = np.zeros_like(nu)
        for k in range(1, n):
            t[k] = (t[k - 1] - beta[k]) / m.gamma
        assert nusolver.beta_sequence(nu, m).tobytes() == beta.tobytes()
        assert nusolver.T_operator(nu, m).tobytes() == t.tobytes()


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


def test_invert_rejects_out_of_band():
    m = _model(0.01)
    with pytest.raises(ValueError):
        nusolver.invert_pF(1.0, m)
    with pytest.raises(ValueError):
        nusolver.invert_pF(-1.2, m)


def test_invert_rejects_derivative_outside_the_contraction_regime():
    # the model inversion_rows builds for nu --lambda 0.05 --mu 0.9995
    # --eps-scale 4: near the band edge d nu1/d mu = 0.616 is past the bound 1/2
    m = nusolver.default_model(-40, np.arccos(0.9995), 4.0 * 0.05)
    with pytest.raises(RuntimeError, match="d nu1/d mu = 0.616 outside the contraction regime"):
        nusolver.invert_pF(0.9995, m)


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
    step = nusolver.DERIVATIVE_STEP
    d = nusolver.nu1_derivative(0.5, m)
    direct = (nusolver.solve_at_mu(0.5 + step, m).nu1 - nusolver.solve_at_mu(0.5 - step, m).nu1) / (
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


def test_inversion_rows_solve_each_model_once(monkeypatch):
    # a row's iterations and contraction ratio come from the inversion's
    # first step, the solve at mu_bar itself: 8 solves per lambda here
    inner = nusolver.solve_fixed_point
    models = []

    def counted(model, tol):
        models.append(model)
        return inner(model, tol)

    monkeypatch.setattr(nusolver, "solve_fixed_point", counted)
    rows = nusolver.inversion_rows([0.005, 0.01], 0.5, -40)
    assert len(models) == len(set(models)) == 16
    direct = inner(nusolver.default_model(-40, math.acos(0.5), 2.0 * 0.005))
    assert rows[0][4:6] == (direct.iterations, direct.contraction_ratio)
