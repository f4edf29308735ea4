"""Propagator layer: cutoff algebra, representation equivalence, scaling."""

import numpy as np
import pytest

from rg1d import model, propagators

GAMMA = 2.0


def _params(beta, L, p_F=np.pi / 3.0, lam=0.0, M_uv=10):
    return model.ModelParams.from_p_F(
        lam=lam,
        p_F=p_F,
        potential=model.on_site_potential(1.0),
        beta=beta,
        L=L,
        M_uv=M_uv,
    )


def _grid_params(beta, L, p_F=np.pi / 3.0):
    """Params whose exact Fermi momentum sits on the antiperiodic grid."""
    fermi = model.FermiPoint.from_p_F(p_F, L=L)
    return model.ModelParams.from_p_F(
        lam=0.0,
        p_F=fermi.p_FL,
        potential=model.on_site_potential(1.0),
        beta=beta,
        L=L,
    )


# ---------------------------------------------------------------------------
# cutoff function algebra
# ---------------------------------------------------------------------------


def test_chi0_plateau_and_support():
    cut = propagators.CutoffFunction(GAMMA)
    assert cut.chi0(0.0) == 1.0
    assert cut.chi0(1.0) == 1.0
    assert cut.chi0(GAMMA) == 0.0
    assert cut.chi0(5.0) == 0.0
    mid = cut.chi0(1.5)
    assert 0.0 < mid < 1.0
    # monotone nonincreasing on the transition window
    ts = np.linspace(1.0, GAMMA, 101)
    vals = np.array([cut.chi0(t) for t in ts])
    assert np.all(np.diff(vals) <= 1e-15)


def test_chi0_smooth_at_window_edges():
    cut = propagators.CutoffFunction(GAMMA)
    # w(u) = exp(-1/u) glue: flat to all orders at both ends
    eps = 1e-4
    assert cut.chi0(1.0 + eps) == pytest.approx(1.0, abs=1e-3)
    assert cut.chi0(GAMMA - eps) == pytest.approx(0.0, abs=1e-3)


def test_uv_partition_of_unity():
    cut = propagators.CutoffFunction(GAMMA)
    M = 12
    k0 = np.pi * (2.0 * np.arange(200) + 1.0) / 64.0
    total = np.zeros_like(k0)
    for h in range(1, M + 1):
        total += np.array([cut.H_h(h, w) for w in k0])
    # telescoping: sum_{h=1..M} H_h(k0) = chi0(k0 / gamma^M)
    recon = np.array([cut.chi0(w / GAMMA**M) for w in k0])
    assert np.max(np.abs(total - recon)) < 1e-12
    # and equals 1 once the rescaled frequency is inside the plateau
    inside = np.abs(k0) <= GAMMA**M
    assert np.max(np.abs(total[inside] - 1.0)) < 1e-12


def test_ir_shell_partition_on_grid():
    params = _grid_params(beta=32.0, L=64)
    fermi = params.fermi()
    cut = propagators.CutoffFunction(GAMMA)
    h_lbeta = propagators.finite_size_scale(params.beta, params.L, fermi)
    grids = model.MomentumGrids(params.L, params.beta)
    kp = grids.quasi() - fermi.p_FL
    k0 = grids.matsubara(40)
    KP, K0 = np.meshgrid(kp, k0, indexing="ij")
    total = np.zeros_like(KP)
    for h in range(h_lbeta, 1):
        total += cut.f_h(h, KP, K0, fermi)
    full = cut.chi(KP, K0, fermi)
    assert np.max(np.abs(total - full)) < 1e-12


def test_uv_complement_plus_windows_is_one():
    params = _grid_params(beta=32.0, L=64)
    fermi = params.fermi()
    cut = propagators.CutoffFunction(GAMMA)
    grids = model.MomentumGrids(params.L, params.beta)
    ks = grids.quasi()
    k0 = grids.matsubara(40)
    K, K0 = np.meshgrid(ks, k0, indexing="ij")
    p = fermi.p_FL
    total = cut.f_uv(K, K0, fermi, p)
    total = total + cut.chi(K - p, K0, fermi) + cut.chi(K + p, K0, fermi)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_finite_size_scale_brackets_smallest_mode():
    params = _params(beta=128.0, L=512)
    fermi = params.fermi()
    h = propagators.finite_size_scale(params.beta, params.L, fermi)
    km = np.hypot(np.pi / params.beta, fermi.v_F * np.pi / params.L)
    assert fermi.t0 * GAMMA**h <= km < fermi.t0 * GAMMA ** (h + 1)
    assert h < 0


# ---------------------------------------------------------------------------
# free propagator: two representations of the same kernel
# ---------------------------------------------------------------------------


def test_kernel_sum_antiperiodic_in_time():
    params = _params(beta=32.0, L=64)
    for x, x0 in [(3, 5.0), (0, 7.3), (10, 1.7)]:
        g1 = propagators.free_propagator(x, x0, params)
        g2 = propagators.free_propagator(x, x0 - params.beta, params)
        assert g2 == pytest.approx(-g1, abs=1e-12)


def test_cutoff_sum_antiperiodic_in_time():
    params = _params(beta=32.0, L=64)
    for x, x0 in [(3, 5.0), (1, 7.3)]:
        g1 = propagators.free_propagator(x, x0, params, representation="cutoff_sum", M=8)
        g2 = propagators.free_propagator(
            x, x0 - params.beta, params, representation="cutoff_sum", M=8
        )
        assert g2 == pytest.approx(-g1, abs=1e-10)


def test_representations_converge_at_uv_rate():
    # The leading piece left out by the frequency cutoff is e(k)/k0^2,
    # a nearest-neighbor object in x: at equal time the gap is largest at
    # |x| = 1 and contracts by a factor gamma per unit M there.
    params = _params(beta=32.0, L=64)
    Ms = [6, 8, 10, 12]
    worst = []
    for M in Ms:
        diffs = []
        for x in (1, 2, 3, 5, 9, 63):
            gk = propagators.free_propagator(x, 0.0, params)
            gc = propagators.free_propagator(x, 0.0, params, representation="cutoff_sum", M=M)
            diffs.append(abs(gk - gc))
        worst.append(max(diffs))
    slope = propagators.fit_loglog_slope(GAMMA ** np.array(Ms, dtype=float), np.array(worst))
    # decay exponent within 20 percent of one power of gamma per scale step
    assert -1.2 <= slope <= -0.8


def test_fit_loglog_slope_recovers_exponent():
    xs = np.linspace(10.0, 200.0, 60)
    assert propagators.fit_loglog_slope(xs, 3.0 / xs**2) == pytest.approx(-2.0, abs=1e-10)
    with pytest.raises(ValueError):
        propagators.fit_loglog_slope(xs, np.zeros_like(xs))


def test_generic_points_converge_faster():
    # away from the equal-time slice the cutoff error is higher order and
    # oscillatory: it sits far below the nearest-neighbor equal-time gap
    params = _params(beta=32.0, L=64)
    for M in (6, 8, 10):
        lead = abs(
            propagators.free_propagator(1, 0.0, params)
            - propagators.free_propagator(1, 0.0, params, representation="cutoff_sum", M=M)
        )
        for x, x0 in [(3, 2.7), (11, 9.1), (40, 17.3), (0, 0.5)]:
            gk = propagators.free_propagator(x, x0, params)
            gc = propagators.free_propagator(x, x0, params, representation="cutoff_sum", M=M)
            assert abs(gk - gc) < 0.01 * lead


def test_half_filling_symmetric_value():
    # mu_bar = 0: p_F = pi/2; the equal-time kernel at x = 0 is minus the
    # filling, and the two-sided half-sum is 1/2 - filling = 0
    pot = model.on_site_potential(1.0)
    params = model.ModelParams(lam=0.0, mu_bar=0.0, potential=pot, beta=512.0, L=512)
    below = propagators.free_propagator(0, 0.0, params)
    above = propagators.free_propagator(0, 1e-9, params)
    assert below == pytest.approx(-0.5, abs=1e-3)
    assert above == pytest.approx(0.5, abs=1e-3)
    assert (below + above) / 2.0 == pytest.approx(0.0, abs=1e-3)


def test_equal_time_kernel_matches_filling_form():
    # g(x, 0-) for the free gas: -sin(p_F x) / (pi x) up to finite-size terms
    params = _params(beta=2048.0, L=2048)
    p_F = params.fermi().p_F
    for x in (1, 2, 4, 7, 10):
        g = propagators.free_propagator(x, 0.0, params)
        assert g.real == pytest.approx(-np.sin(p_F * x) / (np.pi * x), abs=2e-3)
        assert abs(g.imag) < 1e-12


def test_free_kernel_symmetric_midpoint():
    params = _params(beta=32.0, L=64)
    ks = model.MomentumGrids(params.L, params.beta).quasi()
    e = model.dispersion(ks, params.mu_bar)
    sym = propagators.free_kernel_symmetric(ks, params)
    # overflow-protected evaluation of 1/2 - f(e) where f is the thermal factor
    ref = 0.5 - 1.0 / (np.exp(np.clip(params.beta * e, -500, 500)) + 1.0)
    assert np.max(np.abs(sym - ref)) < 1e-12


def test_free_propagator_rejects_out_of_range_time():
    params = _params(beta=16.0, L=32)
    with pytest.raises(ValueError):
        propagators.free_propagator(1, 16.0, params)
    with pytest.raises(ValueError):
        propagators.free_propagator(1, -16.0, params)


def test_high_frequency_tail_rate():
    params = _params(beta=32.0, L=64)
    k = params.fermi().p_FL
    tails = [abs(propagators.high_frequency_tail(0.37, M, k, params)) for M in (6, 8, 10)]
    assert tails[0] > tails[1] > tails[2]
    # one power of gamma per unit M, locally
    assert tails[1] / tails[0] < 0.75
    with pytest.raises(ValueError):
        propagators.high_frequency_tail(17.0, 8, k, params)


def test_discontinuity_predicate():
    assert propagators.is_discontinuity_point(0, 0.0, 32.0)
    assert propagators.is_discontinuity_point(0, 32.0 - 32.0, 32.0)
    assert not propagators.is_discontinuity_point(1, 0.0, 32.0)
    assert not propagators.is_discontinuity_point(0, 0.5, 32.0)


def test_compensated_sum_matches_fsum():
    import math

    rng = np.random.default_rng(3)
    vals = list(rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, size=500))
    assert propagators.compensated_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-15)


# ---------------------------------------------------------------------------
# single-scale pieces and scaling certificates
# ---------------------------------------------------------------------------


def test_single_scale_pieces_sum_to_cutoff_representation():
    # UV scales + IR scales + Dirac split reassemble the cutoff propagator
    params = _grid_params(beta=16.0, L=32)
    fermi = params.fermi()
    M = 8
    h_lbeta = propagators.finite_size_scale(params.beta, params.L, fermi)
    for x, x0 in [(3, 2.2), (7, 5.9)]:
        total = 0.0 + 0.0j
        for h in range(1, M + 1):
            total += propagators.uv_single_scale(h, x, x0, params)
        for h in range(h_lbeta, 1):
            for omega in (1, -1):
                # quasi-momentum evaluator: restore the Fermi phase
                phase = np.exp(-1j * omega * fermi.p_FL * x)
                total += phase * propagators.ir_single_scale(h, omega, x, x0, params)
        full = propagators.free_propagator(x, x0, params, representation="cutoff_sum", M=M)
        assert total == pytest.approx(full, abs=1e-10)


def test_decay_bound_single_scale():
    # |g^(h)| ~ gamma^h F(gamma^h x_scaled): at matched scaled positions the
    # weighted amplitude is h-independent up to O(1) profile variation
    params = _grid_params(beta=2048.0, L=2048)
    fermi = params.fermi()
    base = [(0.0, 0.3), (1.0, 0.5), (4.0, 2.0)]
    profiles = []
    for h in (-1, -2, -3):
        s = GAMMA ** (-h)
        vals = []
        for bx, bx0 in base:
            x = int(round(bx * s))
            x0 = bx0 * s
            g = propagators.ir_single_scale(h, 1, x, x0, params)
            vals.append(abs(g) / GAMMA**h)
        profiles.append(vals)
    profiles = np.array(profiles)
    # each scaled position: amplitude stable across h within a factor 2
    for col in profiles.T:
        assert col.max() / col.min() < 2.0


def test_gram_certificates_scaling():
    # shallow UV shells feel the lattice dispersion; scales 3..6 sit on the
    # asymptotic plateau where the certified exponents hold
    params = _grid_params(beta=64.0, L=256)
    certs, slopeA, slopeB, ok = propagators.certify_gram_scaling(
        [3, 4, 5, 6], "uv", params
    )
    assert ok
    assert abs(slopeA - (-3.0)) < 0.3
    assert abs(slopeB - 3.0) < 0.3
    ir_params = _grid_params(beta=2048.0, L=2048)
    certs, slopeA, slopeB, ok = propagators.certify_gram_scaling(
        [-1, -2, -3, -4], "ir", ir_params
    )
    assert ok
    assert abs(slopeA - (-2.0)) < 0.2
    assert abs(slopeB - 4.0) < 0.4
    # Cauchy-Schwarz: |g^(h)| at a sample point is below |A| |B|
    c = certs[0]
    g = propagators.ir_single_scale(-1, 1, 3, 1.0, ir_params)
    assert abs(g) <= np.sqrt(c.normA2 * c.normB2)


def test_propagator_table_matches_pointwise():
    params = _grid_params(beta=16.0, L=32)
    n_tau = 8
    table = propagators.propagator_table("cutoff", 0, params, n_tau, M=6)
    taus = params.beta * np.arange(n_tau) / n_tau
    for x in (0, 1, 5, 17):
        for m in (1, 3, 6):
            direct = propagators.free_propagator(
                x, taus[m], params, representation="cutoff_sum", M=6
            )
            assert table[x, m] == pytest.approx(direct, abs=1e-10)


def test_ir_table_matches_single_scale():
    params = _grid_params(beta=64.0, L=64)
    n_tau = 8
    h = -1
    table = propagators.propagator_table("ir", h, params, n_tau, omega=1)
    taus = params.beta * np.arange(n_tau) / n_tau
    for x in (0, 3, 11):
        for m in (1, 5):
            direct = propagators.ir_single_scale(h, 1, x, taus[m], params)
            assert table[x, m] == pytest.approx(direct, abs=1e-10)


def test_l1_norm_scaling_slope():
    params = _grid_params(beta=2048.0, L=2048)
    norms, slope = propagators.l1_scaling_report("ir", [-1, -2, -3, -4], params, n_tau=512)
    # L1 mass of a single scale grows like gamma^-h
    assert abs(slope - (-1.0)) < 0.1
