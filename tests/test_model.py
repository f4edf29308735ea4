"""Model layer: potentials, Fermi data, parameter validation, grids."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rg1d import g1map, model

# ---------------------------------------------------------------------------
# interaction potentials
# ---------------------------------------------------------------------------


@given(
    u=st.floats(-2.0, 2.0, allow_nan=False),
    v=st.floats(-2.0, 2.0, allow_nan=False),
    p=st.floats(-np.pi, np.pi, allow_nan=False),
)
def test_fourier_is_real_and_even(u, v, p):
    pot = model.u_v_potential(u, v)
    vp = pot.fourier(p)
    assert np.imag(vp) == 0.0
    assert pot.fourier(-p) == pytest.approx(vp, abs=1e-12)


@given(
    u=st.floats(-2.0, 2.0, allow_nan=False),
    v=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_fourier_at_zero_is_total_weight(u, v):
    pot = model.u_v_potential(u, v)
    # v(0) + 2 * sum_{x>0} v(x)
    expected = u + v
    assert pot.fourier(0.0) == pytest.approx(expected, abs=1e-12)


def test_on_site_fourier_is_flat():
    pot = model.on_site_potential(1.5)
    for p in np.linspace(-np.pi, np.pi, 17):
        assert pot.fourier(p) == pytest.approx(1.5, abs=1e-15)


def test_u_v_fourier_closed_form():
    pot = model.u_v_potential(0.7, 0.4)
    for p in np.linspace(-np.pi, np.pi, 33):
        assert pot.fourier(p) == pytest.approx(0.7 + 0.4 * np.cos(p), abs=1e-12)


def test_potential_file_round_trip(tmp_path):
    pot = model.u_v_potential(0.9, -0.3)
    path = tmp_path / "pot.txt"
    # a header comment (the kappa/C line older files carry) and a blank line
    path.write_text("# kappa=1.0 C=1.0\n\n" + "".join(
        "%d %r\n" % item for item in sorted(pot.values.items())))
    back = model.InteractionPotential.from_file(path)
    assert back.values == pot.values
    for p in np.linspace(0.0, np.pi, 9):
        assert back.fourier(p) == pytest.approx(pot.fourier(p), abs=1e-12)


def test_periodized_matches_fourier_on_grid():
    pot = model.u_v_potential(1.0, 0.5)
    L = 16
    per = pot.periodized(L)
    ks = 2.0 * np.pi * np.arange(L) / L
    # DFT of the periodized sequence reproduces the lattice transform on grid points
    vk = np.fft.fft(per).real
    for k, v in zip(ks, vk):
        assert v == pytest.approx(pot.fourier(k), abs=1e-10)


# ---------------------------------------------------------------------------
# Fermi point data
# ---------------------------------------------------------------------------


def test_fermi_momentum_free_inverts_cosine():
    for mu in (-0.9, -0.3, 0.0, 0.4, 0.8):
        p = model.fermi_momentum_free(mu)
        assert np.cos(p) == pytest.approx(mu, abs=1e-14)
    with pytest.raises(ValueError):
        model.fermi_momentum_free(1.0)
    with pytest.raises(ValueError):
        model.fermi_momentum_free(-1.5)


@given(st.integers(6, 12), st.floats(0.3, 2.6, allow_nan=False))
def test_grid_fermi_momentum_within_spacing(log2_L, p_F):
    L = 2**log2_L
    fermi = model.FermiPoint.from_p_F(p_F, L=L)
    assert abs(fermi.p_FL - p_F) <= 2.0 * np.pi / L
    # the grid momentum sits exactly on an antiperiodic point
    n = fermi.n_F
    assert fermi.p_FL == pytest.approx((2.0 * np.pi / L) * (n + 0.5), abs=1e-12)


def test_fermi_point_derived_quantities():
    fermi = model.FermiPoint.from_p_F(np.pi / 3.0, L=256)
    assert fermi.v_F == pytest.approx(np.sin(fermi.p_F), abs=1e-15)
    assert fermi.a0 == pytest.approx(min(fermi.p_F / 2.0, (np.pi - fermi.p_F) / 2.0))
    assert fermi.t0 == pytest.approx(fermi.a0 * fermi.v_F / fermi.gamma)


def test_dispersion_periodic_on_grid():
    L = 64
    ks = 2.0 * np.pi * (np.arange(L) + 0.5) / L
    d1 = model.dispersion(ks, 0.3)
    d2 = model.dispersion(ks + 2.0 * np.pi, 0.3)
    assert np.max(np.abs(d1 - d2)) < 1e-12


def test_ir_dispersion_small_k_slope():
    fermi = model.FermiPoint.from_p_F(np.pi / 3.0, L=4096)
    kp = 1e-6
    for omega in (1, -1):
        e = model.ir_dispersion(kp, fermi.p_F, omega)
        assert e == pytest.approx(omega * fermi.v_F * kp, rel=1e-4)


def test_admissibility_window():
    # pi/3 is far from 0, pi/2, pi: admissible even on small boxes
    ok = model.FermiPoint.from_p_F(np.pi / 3.0, L=256)
    assert model.fermi_point_admissible(ok)
    # right at pi/2 the window test must fail
    bad = model.FermiPoint.from_p_F(np.pi / 2.0, L=256)
    assert not model.fermi_point_admissible(bad)


def test_positivity_gate():
    fermi = model.FermiPoint.from_p_F(np.pi / 3.0, L=256)
    attractive = model.ModelParams.from_p_F(
        lam=-0.05,
        p_F=np.pi / 3.0,
        potential=model.on_site_potential(1.0),
        beta=64.0,
        L=256,
    )
    repulsive = attractive.with_(lam=0.05)
    assert model.check_positivity(repulsive, fermi)
    assert not model.check_positivity(attractive, fermi)
    # the boundary case lam = 0 passes
    assert model.check_positivity(attractive.with_(lam=0.0), fermi)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_model_params_validation():
    pot = model.on_site_potential(1.0)
    with pytest.raises(ValueError):
        model.ModelParams(lam=0.1, mu_bar=1.0, potential=pot, beta=16.0, L=32)
    with pytest.raises(ValueError):
        model.ModelParams(lam=0.1, mu_bar=0.5, potential=pot, beta=-1.0, L=32)
    with pytest.raises(ValueError):
        model.ModelParams(lam=0.1, mu_bar=0.5, potential=pot, beta=16.0, L=32, gamma=1.0)
    with pytest.raises(ValueError):
        model.ModelParams(lam=0.1j, mu_bar=0.5, potential=pot, beta=16.0, L=32)
    # allowed when opted in
    p = model.ModelParams(
        lam=0.1j, mu_bar=0.5, potential=pot, beta=16.0, L=32, allow_complex=True
    )
    assert p.lam == 0.1j


@pytest.mark.parametrize("build", [
    lambda pot: model.ModelParams(lam=0.1, mu_bar=0.5, potential=pot, beta=np.nan, L=32),
    lambda pot: model.ModelParams(lam=0.1, mu_bar=0.5, potential=pot, beta=16.0, L=32,
                                  gamma=np.nan),
    lambda pot: model.ModelParams(lam=np.inf, mu_bar=0.5, potential=pot, beta=16.0, L=32),
    lambda pot: model.ModelParams(lam=complex(0.0, -np.inf), mu_bar=0.5, potential=pot,
                                  beta=16.0, L=32, allow_complex=True),
    lambda pot: model.FermiPoint.from_p_F(1.0, 32, gamma=np.nan),
    lambda pot: g1map.SectorDomain(np.nan, np.pi / 4.0),
    lambda pot: model.u_v_potential(1.0, np.inf),
], ids=["beta nan", "gamma nan", "lam inf", "lam imag -inf", "fermi gamma nan",
        "sector epsilon nan", "potential inf"])
def test_non_finite_parameters_are_rejected(build):
    # each guard is written so that a nan fails it
    with pytest.raises(ValueError):
        build(model.on_site_potential(1.0))


def test_from_p_F_sets_consistent_mu():
    p = model.ModelParams.from_p_F(
        lam=0.02,
        p_F=1.1,
        potential=model.on_site_potential(1.0),
        beta=32.0,
        L=128,
    )
    assert p.mu_bar == pytest.approx(np.cos(1.1), abs=1e-14)
    assert p.fermi().p_F == pytest.approx(1.1, abs=1e-14)


def test_with_rebuilds_other_fields():
    p = model.ModelParams.from_p_F(
        lam=0.02,
        p_F=1.1,
        potential=model.on_site_potential(1.0),
        beta=32.0,
        L=128,
    )
    q = p.with_(lam=0.05, beta=64.0)
    assert q.lam == 0.05
    assert q.beta == 64.0
    assert q.mu_bar == p.mu_bar
    assert p.lam == 0.02


# ---------------------------------------------------------------------------
# momentum grids
# ---------------------------------------------------------------------------


def test_momentum_grid_counts_and_ranges():
    ks = model.spatial_momenta(8)
    n = ks * 8 / (2.0 * np.pi)
    assert len(n) == 8
    assert n.min() == -3 and n.max() == 4
    assert np.max(np.abs(np.sort(np.exp(1j * ks).imag) - np.sort(np.sin(ks)))) < 1e-12

    kq = model.quasi_momenta(8)
    assert len(kq) == 8
    # antiperiodic: no quasi momentum coincides with a periodic one
    assert np.min(np.abs(np.subtract.outer(kq, ks))) > 1e-9


def test_matsubara_frequencies_are_odd_multiples():
    w = model.matsubara(10.0, 5)
    base = np.pi / 10.0
    ratio = w / base
    assert np.max(np.abs(ratio - np.round(ratio))) < 1e-12
    assert np.all(np.abs(np.round(ratio)) % 2 == 1)
