"""Correlation assembly: scale sums against closed forms and free-theory checks."""

import numpy as np
import pytest

from rg1d import correlations, model, renorm, rgflow

P_F = np.pi / 3.0


def _setup(lam, depth=24, residuals="none", seed=None):
    params = model.ModelParams.from_p_F(
        lam=lam,
        p_F=P_F,
        potential=model.on_site_potential(1.0),
        beta=1e9,
        L=1e9,
    )
    traj = rgflow.run_flow(params, -depth, h_lbeta=-depth, seed=seed)
    limits = rgflow.fixed_point_values(traj, params)
    ex = renorm.exponents(params, limits)
    rset = renorm.z_flow(traj, limits, residual_mode=residuals, seed=seed)
    fermi = params.fermi()
    return fermi, ex, rset, correlations.z_tables(rset, ex, fermi.gamma)


def _two_point(x, ztab, ex, fermi):
    """Dressed equal-time two-point function, the scale sum
    sum_w e^{-i w p_F x} sum_h g_w^{(h)}/Z_h, and its closed form
    -sin(p_F x) x / (pi |x|^{2+eta_z}) (the log exponent zeta_z is 0)."""
    ii, gp = correlations._window_profiles(x, 0.0, ztab, fermi, 1e-3)
    total = 2.0 * (np.exp(-1j * fermi.p_F * x) * np.sum(gp / ztab["z"][ii])).real
    xt = correlations.tilde_norm(x, 0.0, fermi)
    return total, -np.sin(fermi.p_F * x) * x / (np.pi * xt ** (2.0 + ex.eta["z"]))


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------


def test_tilde_norm_axes():
    fermi = model.FermiPoint.from_p_F(P_F, L=int(1e9))
    assert correlations.tilde_norm(5.0, 0.0, fermi) == pytest.approx(5.0)
    assert correlations.tilde_norm(0.0, 4.0, fermi) == pytest.approx(4.0 * fermi.v_F)
    assert correlations.tilde_norm(3.0, 4.0, fermi) == pytest.approx(
        np.hypot(3.0, 4.0 * fermi.v_F)
    )


def test_log_factor_free_theory_is_one():
    fermi, ex, rset, ztab = _setup(0.0)
    assert correlations.log_factor(50.0, 0.0, ex, fermi) == pytest.approx(1.0)


def test_log_factor_grows_with_distance():
    fermi, ex, rset, ztab = _setup(0.03)
    l1 = correlations.log_factor(10.0, 0.0, ex, fermi)
    l2 = correlations.log_factor(1000.0, 0.0, ex, fermi)
    assert l2 > l1 > 1.0


# ---------------------------------------------------------------------------
# closed components at lambda = 0
# ---------------------------------------------------------------------------


def test_free_closed_components_space_axis():
    fermi, ex, rset, ztab = _setup(0.0)
    x = 40.0
    uni, osc, _ = correlations.closed_components(x, 0.0, "C", ex, fermi)
    assert uni == pytest.approx(-1.0 / (np.pi**2 * x**2), rel=1e-12)
    assert osc == pytest.approx(
        np.cos(2.0 * P_F * x) / (np.pi**2 * x**2), rel=1e-12
    )
    uni_tc, osc_tc, _ = correlations.closed_components(x, 0.0, "TC", ex, fermi)
    assert uni_tc == pytest.approx(
        -fermi.v_F**2 / (np.pi**2 * x**2), rel=1e-12
    )
    assert osc_tc == 0.0


def test_free_closed_components_time_axis():
    fermi, ex, rset, ztab = _setup(0.0)
    x0 = 30.0
    uni, osc, _ = correlations.closed_components(0.0, x0, "C", ex, fermi)
    xt = fermi.v_F * x0
    assert uni == pytest.approx(1.0 / (np.pi**2 * xt**2), rel=1e-12)


def test_free_two_point_closed_form_is_equal_time_kernel():
    fermi, ex, rset, ztab = _setup(0.0)
    for x in (10.0, 25.0, 100.0):
        total, closed = _two_point(x, ztab, ex, fermi)
        assert closed == pytest.approx(
            -np.sin(P_F * x) / (np.pi * x), rel=1e-12
        )


# ---------------------------------------------------------------------------
# assembled scale sums
# ---------------------------------------------------------------------------


def test_free_assembly_matches_closed_form():
    fermi, ex, rset, ztab = _setup(0.0)
    out = correlations.assemble_response(100.0, correlations.CHANNELS, ztab, ex, fermi)
    for alpha, res in out.items():
        assert res.rel_error < 0.05, (alpha, res.rel_error)


def test_free_assembly_error_decays():
    # x = 1 mod 3 keeps the closed form away from its zeros at p_F = pi/3
    fermi, ex, rset, ztab = _setup(0.0, depth=26)
    r1 = correlations.assemble_response(31.0, ["C"], ztab, ex, fermi)["C"]
    r2 = correlations.assemble_response(301.0, ["C"], ztab, ex, fermi)["C"]
    assert r1.rel_error > 0.0
    assert r2.rel_error < r1.rel_error


def test_free_two_point_assembly():
    fermi, ex, rset, ztab = _setup(0.0)
    x = 61.0
    total, closed = _two_point(x, ztab, ex, fermi)
    assert closed != 0.0
    assert total == pytest.approx(closed, rel=0.05)


def test_interacting_assembly_within_budget():
    lam = 0.03
    fermi, ex, rset, ztab = _setup(lam, depth=28)
    budget = 10.0 * np.sqrt(lam)
    for x in (100.0, 1000.0):
        out = correlations.assemble_response(
            x, correlations.CHANNELS, ztab, ex, fermi, rset=rset
        )
        for alpha, res in out.items():
            assert res.rel_error <= budget, (alpha, x, res.rel_error)


def test_z_tables_are_one_at_zero_coupling():
    # the free case: every constant identically 1
    fermi, ex, rset, ztab = _setup(0.0, depth=20)
    ones = np.ones(21)
    for key, table in ztab.items():
        assert np.array_equal(table, ones), key


def test_z_tables_dress_each_key_with_its_exponent():
    # "z" and the uniform "1" + alpha tables carry eta_z, the pair "2" + alpha
    # tables eta_alpha; eta_C != eta_z here, so a "1C" table dressed with
    # eta_C would fail
    fermi, ex, rset, ztab = _setup(0.03)
    assert tuple(ztab) == renorm.HAT_KEYS
    assert ex.eta["C"] != ex.eta["z"]
    i = np.arange(rset.depth + 1, dtype=float)
    for key in renorm.HAT_KEYS:
        eta = ex.eta[key[1:]] if key.startswith("2") else ex.eta["z"]
        expected = fermi.gamma ** (eta * i) * np.exp(rset.log_zhat[key])
        assert np.array_equal(ztab[key], expected), key


def test_free_assembly_reproduces_wick_values_at_long_distance():
    # the scale sum stops at h = 0, so the free case matches the closed
    # (Wick) form only far out; 1.7e-6 is the worst measured on [400, 1200]
    fermi, ex, rset, ztab = _setup(0.0, depth=26)
    for x in np.linspace(400.0, 1200.0, 21):
        out = correlations.assemble_response(x, correlations.CHANNELS, ztab, ex, fermi)
        for alpha, res in out.items():
            assert res.rel_error <= 1e-5, (alpha, x, res.rel_error)


# ---------------------------------------------------------------------------
# spectral and power-law diagnostics
# ---------------------------------------------------------------------------


def test_oscillation_peak_synthetic():
    xs = np.arange(10, 522, dtype=float)
    vals = np.cos(2.0 * P_F * xs) / xs**2
    peak, bin_width = correlations.oscillation_peak(xs, vals)
    assert abs(peak - 2.0 * P_F) <= bin_width


def test_oscillation_peak_requires_uniform_grid():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    with pytest.raises(ValueError):
        correlations.oscillation_peak(xs, 1.0 / xs)


def test_uniform_exponent_two_for_interacting_flow():
    # the non-oscillating part keeps exponent 2 independent of lambda
    for lam in (0.0, 0.03):
        fermi, ex, rset, ztab = _setup(lam, depth=26)
        xs = np.linspace(50.0, 400.0, 15)
        vals = []
        for x in xs:
            res = correlations.assemble_response(
                float(x), ["C"], ztab, ex, fermi, rset=(rset if lam else None)
            )["C"]
            vals.append(abs(res.non_oscillating))
        p = -np.polyfit(np.log(xs), np.log(vals), 1)[0]
        assert p == pytest.approx(2.0, abs=0.05), lam


# ---------------------------------------------------------------------------
# table rows
# ---------------------------------------------------------------------------


def test_correlation_rows_layout():
    fermi, ex, rset, ztab = _setup(0.02, depth=22)
    rows = correlations.correlation_rows(
        [50.0, 100.0], ["C", "SC"], ztab, ex, fermi, rset=rset
    )
    assert len(rows) == 4
    alpha, x, x0, scale_sum, _, closed, _, rel, X_alpha, zeta = rows[0]
    assert alpha == "C"
    assert x == 50.0
    assert x0 == 0.0
    assert rel == abs(scale_sum - closed) / abs(closed)
    assert X_alpha == pytest.approx(ex.X["C"])
