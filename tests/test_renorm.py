"""Kernel renormalizations and anomalous exponents."""

import numpy as np
import pytest

from rg1d import cli, model, renorm, rgflow

P_F = np.pi / 3.0


def _traj(lam, target_h=-2000, potential=None, seed=None, residuals="none"):
    pot = model.on_site_potential(1.0) if potential is None else potential
    params = model.ModelParams.from_p_F(
        lam=lam, p_F=P_F, potential=pot, beta=4096.0, L=4096
    )
    traj = rgflow.run_flow(params, target_h, h_lbeta=target_h, seed=seed)
    return params, traj


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_linear_coefficient_identity():
    # first order, on the g1 coefficient: C + TC - 2 S = SC
    c = {al: renorm.Z2_COEFFS[al][0] for al in renorm.CHANNELS}
    assert c["C"] + c["TC"] - 2.0 * c["S"] == c["SC"] == -0.5


def test_zeta_bar_table():
    assert renorm.ZETA_BAR["z"] == 0.0
    assert renorm.ZETA_BAR["C"] == -1.5
    assert renorm.ZETA_BAR["S"] == 0.5
    assert renorm.ZETA_BAR["SC"] == -1.5
    assert renorm.ZETA_BAR["TC"] == 0.5


def test_z2_coefficient_table():
    assert renorm.Z2_COEFFS["C"] == (-1.0, 0.5)
    assert renorm.Z2_COEFFS["S"] == (0.0, 0.5)
    assert renorm.Z2_COEFFS["SC"] == (-0.5, -0.5)
    assert renorm.Z2_COEFFS["TC"] == (0.5, -0.5)


# ---------------------------------------------------------------------------
# z flow
# ---------------------------------------------------------------------------


def test_free_theory_z_flow_is_trivial():
    params, traj = _traj(0.0, target_h=-200)
    limits = rgflow.fixed_point_values(traj, params)
    rset = renorm.z_flow(traj, limits)
    for key in renorm.HAT_KEYS:
        for h in (-1, -50, -200):
            assert rset.log_zhat[key][-h] == pytest.approx(0.0, abs=1e-14)


def test_z_flow_rejects_bad_residual_mode():
    params, traj = _traj(0.02, target_h=-50)
    limits = rgflow.fixed_point_values(traj, params)
    with pytest.raises(ValueError):
        renorm.z_flow(traj, limits, residual_mode="gaussian")


def test_envelope_residuals_seeded():
    params, traj = _traj(0.02, target_h=-300)
    limits = rgflow.fixed_point_values(traj, params)
    r1 = renorm.z_flow(traj, limits, residual_mode="envelope", seed=3)
    r2 = renorm.z_flow(traj, limits, residual_mode="envelope", seed=3)
    r3 = renorm.z_flow(traj, limits, residual_mode="envelope", seed=4)
    h = -250
    for key in ("2C", "2SC"):
        assert r1.log_zhat[key][-h] == r2.log_zhat[key][-h]
    assert any(
        r1.log_zhat[k][-h] != r3.log_zhat[k][-h] for k in renorm.HAT_KEYS
    )


def test_q_coefficients_trend_toward_half_zeta():
    params, traj = _traj(0.05, target_h=-20000)
    limits = rgflow.fixed_point_values(traj, params)
    rset = renorm.z_flow(traj, limits)
    targets = {"2C": -0.75, "2S": 0.25, "2SC": -0.75, "2TC": 0.25}
    for key, target in targets.items():
        errs = [abs(renorm.q_interpolated(rset, key, float(h)) - target)
                for h in (-200, -2000, -20000)]
        assert errs[2] < errs[0]
        assert errs[2] < 0.3


def test_q_bands_survive_envelope_residuals():
    params, traj = _traj(0.05, target_h=-20000)
    limits = rgflow.fixed_point_values(traj, params)
    targets = {"2C": -0.75, "2S": 0.25, "2SC": -0.75, "2TC": 0.25}
    for seed in (0, 1, 2):
        rset = renorm.z_flow(traj, limits, residual_mode="envelope", seed=seed)
        for key, target in targets.items():
            q = renorm.q_interpolated(rset, key, -20000.0)
            assert abs(q - target) <= 5.0 * 0.05


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def test_exponent_values_frozen_hubbard():
    # frozen reference values for lam = 0.05 on-site coupling at p_F = pi/3
    params, traj = _traj(0.05, target_h=-400)
    limits = rgflow.fixed_point_values(traj, params)
    ex = renorm.exponents(params, limits)
    assert ex.eta["C"] == pytest.approx(0.009188814923696427, abs=1e-12)
    assert ex.eta["S"] == pytest.approx(ex.eta["C"], abs=1e-12)
    assert ex.eta["SC"] == pytest.approx(-ex.eta["C"], abs=1e-12)
    assert ex.eta["TC"] == pytest.approx(-ex.eta["C"], abs=1e-12)
    assert ex.eta["z"] == 0.0
    assert ex.X["C"] == pytest.approx(0.9908111850763036, abs=1e-12)
    assert ex.X["SC"] == pytest.approx(1.0091888149236963, abs=1e-12)
    assert ex.f_lambda == pytest.approx(0.036755259694786144, abs=1e-12)
    assert ex.X_tilde_SC == 1.0
    # the CLI's fixed-point flow at the exponents depth passes its six checks
    traj, _, _ = cli._fixed_point(params, -400)
    checks = rgflow.flow_checks(traj)
    assert len(checks) == 6 and all(r.ok for r in checks.values())


def test_c_coefficient_value():
    fermi = model.FermiPoint.from_p_F(P_F, L=4096)
    c = renorm.c_coefficient(model.on_site_potential(1.0), fermi)
    assert c == pytest.approx(0.1837762984739307, abs=1e-12)
    # U-V potential shifts it by the closed first-order combination
    pot = model.u_v_potential(1.0, 0.5)
    c2 = renorm.c_coefficient(pot, fermi)
    expected = (2.0 * pot.fourier(0.0) - pot.fourier(2.0 * P_F)) / (
        2.0 * np.pi * np.sin(P_F)
    )
    assert c2 == pytest.approx(expected, abs=1e-14)


def test_exponent_ordering_pattern():
    # repulsive coupling: density/spin exponents below 1, pairing above
    params, traj = _traj(0.03, target_h=-400)
    limits = rgflow.fixed_point_values(traj, params)
    ex = renorm.exponents(params, limits)
    assert ex.X["C"] < 1.0 < ex.X["SC"]
    assert ex.X["C"] == pytest.approx(ex.X["S"], abs=1e-12)
    assert ex.X["SC"] == pytest.approx(ex.X["TC"], abs=1e-12)


def test_exponents_linear_in_lambda():
    vals = []
    for lam in (0.01, 0.02, 0.04):
        params, traj = _traj(lam, target_h=-400)
        limits = rgflow.fixed_point_values(traj, params)
        ex = renorm.exponents(params, limits)
        vals.append(ex.eta["C"] / lam)
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)
    assert vals[1] == pytest.approx(vals[2], rel=1e-9)

