"""Running couplings: truncated flow identities, envelopes, flow checks."""

import hashlib
import math

import numpy as np
import pytest

from rg1d import g1map, model, rgflow

P_F = np.pi / 3.0


def _params(lam, potential=None, beta=4096.0, L=4096):
    pot = model.on_site_potential(1.0) if potential is None else potential
    return model.ModelParams.from_p_F(lam=lam, p_F=P_F, potential=pot, beta=beta, L=L)


# ---------------------------------------------------------------------------
# initial couplings and the bubble constant
# ---------------------------------------------------------------------------


def test_initial_couplings_values():
    params = _params(0.02, model.u_v_potential(1.0, 0.5))
    fermi = params.fermi()
    traj = rgflow.run_flow(params, target_h=0)
    assert traj.couplings.shape == (1, 5)
    g1, g2, g4, delta, nu = traj.couplings[0]
    vhat0 = params.potential.fourier(0.0)
    vhat2 = params.potential.fourier(2.0 * fermi.p_F)
    assert g1 == pytest.approx(2.0 * 0.02 * vhat2, abs=1e-15)
    assert g2 == pytest.approx(2.0 * 0.02 * vhat0, abs=1e-15)
    assert g4 == pytest.approx(2.0 * 0.02 * vhat0, abs=1e-15)
    assert delta == 0.0
    assert nu == 0.0


def test_bubble_constant_value():
    fermi = model.FermiPoint.from_p_F(P_F, L=4096)
    a = rgflow.bubble_constant(fermi)
    assert a == pytest.approx(np.log(2.0) / (np.pi * np.sin(P_F)), abs=1e-15)


def test_flow_takes_gamma_from_the_model():
    params = _params(0.02).with_(gamma=3.0)
    traj = rgflow.run_flow(params, target_h=-50)
    assert traj.gamma == 3.0
    assert traj.a == math.log(3.0) / (math.pi * params.fermi().v_F)


def test_finite_scale_bubble_window():
    # lattice bubble: equals the scale-free constant once inside the band
    # but above the box scale; empties when the shell holds no modes
    params = _params(0.02)
    fermi = params.fermi()
    a = rgflow.bubble_constant(fermi)
    v1 = rgflow.finite_scale_bubble(-1, fermi, params.beta, params.L)
    assert abs(v1 - a) < 1e-9
    for j in (-2, -3, -4):
        vj = rgflow.finite_scale_bubble(j, fermi, params.beta, params.L)
        assert abs(vj - a) < 1e-5
    # j = 0 carries the band-edge boundary term
    v0 = rgflow.finite_scale_bubble(0, fermi, params.beta, params.L)
    assert abs(v0 - a) > 0.01
    # far below the box scale the shell is empty
    v_deep = rgflow.finite_scale_bubble(-11, fermi, params.beta, params.L)
    assert v_deep == 0.0


# ---------------------------------------------------------------------------
# truncated flow: exact identities
# ---------------------------------------------------------------------------


def test_flow_matches_scalar_map_bitwise():
    # with remainders off the g1 flow IS the quadratic map with constant a
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-800)
    g1_0 = traj.couplings[0, 0]
    state = g1map.iterate(g1_0, traj.a, 800)
    assert np.array_equal(traj.couplings[:, 0], state.trajectory)


def test_telescoping_identities_machine_exact():
    for lam in (0.01, 0.02, 0.05):
        for pot in (model.on_site_potential(1.0), model.u_v_potential(1.0, 0.5)):
            params = _params(lam, pot)
            traj = rgflow.run_flow(params, target_h=-400)
            g1 = traj.couplings[:, 0]
            g2 = traj.couplings[:, 1]
            g4 = traj.couplings[:, 2]
            dlt = traj.couplings[:, 3]
            # g2 moves at half the g1 rate; g4 and delta are constants
            assert np.max(np.abs((g2 - g2[0]) - (g1 - g1[0]) / 2.0)) < 1e-12
            assert np.max(np.abs(g4 - g4[0])) < 1e-12
            assert np.max(np.abs(dlt - dlt[0])) < 1e-12


def test_monotone_decay_and_inverse_law():
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-20000)
    g1 = traj.couplings[:, 0].real
    assert np.all(g1 > 0.0)
    assert np.all(np.diff(g1) < 0.0)
    n = len(g1) - 1
    assert n * g1[-1] == pytest.approx(1.0 / traj.a, rel=5e-3)


def test_fixed_point_first_order_prediction():
    for lam in (0.01, 0.02, 0.05):
        for pot in (model.on_site_potential(1.0), model.u_v_potential(1.0, 0.5)):
            params = _params(lam, pot)
            fermi = params.fermi()
            traj = rgflow.run_flow(params, target_h=-4000)
            fp = rgflow.fixed_point_values(traj, params)
            pred = (2.0 * pot.fourier(0.0) - pot.fourier(2.0 * fermi.p_F)) * lam
            assert abs(fp.g2_inf - pred) <= 3.0 * lam**1.5
            # the conserved combination makes the estimate depth-independent
            assert abs(fp.g2_inf - pred) < 1e-10
            assert fp.g2_first_order == pytest.approx(pred, rel=1e-12)


def test_g1_approximant_error_small():
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-2000)
    g1_0 = traj.couplings[0, 0].real
    for j in (-10, -100, -1000, -2000):
        approx = traj.g1_approximant(j)
        actual = traj.couplings[-j, 0]
        assert abs(actual - approx) <= abs(approx) ** 1.5 + 1e-15


# ---------------------------------------------------------------------------
# scale bookkeeping
# ---------------------------------------------------------------------------


def test_threshold_scale_j0():
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-100)
    g1_0 = abs(traj.couplings[0, 0])
    assert traj.j0 == -int(np.ceil(1.0 / (1.0 * np.sqrt(g1_0))))


def test_h_star_crossover_definition():
    # with the box scale pushed below every scale of interest the crossover
    # fires right after the threshold scale
    params = _params(0.03)
    deep = rgflow.run_flow(params, target_h=-3000, h_lbeta=-3000)
    assert deep.h_star == deep.j0 - 1
    lg = np.log(2.0)
    h = deep.h_star
    assert -(h - deep.h_lbeta) * lg <= 2.0 * np.log(abs(deep.couplings[-h, 0]))
    # with the physical box scale of a 4096 box the inequality never turns
    # over and no crossover is recorded
    phys = rgflow.run_flow(params, target_h=-3000)
    assert phys.h_star is None


def test_log_sum_lemma_budget():
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-30000)
    budget = 2.0 * np.sqrt(0.03)
    for h in (-1000, -10000, -30000):
        rep = rgflow.log_sum_lemma(traj, h)
        assert abs(rep.sum1 - rep.model1) <= budget
        assert abs(rep.sum2 - rep.model2) <= budget


def test_log_sum_lemma_needs_the_flow_to_reach_j0():
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-2)
    assert traj.j0 < traj.target_h
    with pytest.raises(ValueError):
        rgflow.log_sum_lemma(traj, traj.j0)


def test_log_sum_lemma_reads_only_scales_the_flow_holds():
    # below target_h the g1 slice would be clamped to the deepest row, so
    # the sum would stop growing while its model still grows
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-300)
    rgflow.log_sum_lemma(traj, traj.target_h)
    with pytest.raises(ValueError):
        rgflow.log_sum_lemma(traj, traj.target_h - 1)


def test_log_sum_increment_constant_bounded():
    params = _params(0.03)
    traj = rgflow.run_flow(params, target_h=-30000)
    # each h also reads h - 1, so the deepest h is one above target_h
    c = rgflow.log_sum_increment_constant(traj, (-300, -3000, -29999))
    assert np.isfinite(c)
    assert 0.0 < c < 10.0


# ---------------------------------------------------------------------------
# remainder models and checks
# ---------------------------------------------------------------------------


def test_flow_checks_pass_small_coupling():
    # box scale pushed to the target so the finite-size envelope stays tame
    params = _params(0.01)
    traj = rgflow.run_flow(params, target_h=-2000, remainder_model="both", seed=11,
                           h_lbeta=-2000)
    assert traj.escaped_at is None
    checks = rgflow.flow_checks(traj)
    assert checks
    for name, res in checks.items():
        assert res.ok, name


def test_finite_size_remainder_escalates_below_box_scale():
    # running below the physical box scale with the finite-size term on is
    # outside the envelope's validity: the flow escapes
    params = _params(0.01)
    traj = rgflow.run_flow(params, target_h=-2000, remainder_model="both", seed=11)
    assert traj.escaped_at is not None
    assert traj.escaped_at < traj.h_lbeta


def test_remainder_seed_reproducibility():
    params = _params(0.02)
    t1 = rgflow.run_flow(params, target_h=-500, remainder_model="both", seed=5)
    t2 = rgflow.run_flow(params, target_h=-500, remainder_model="both", seed=5)
    t3 = rgflow.run_flow(params, target_h=-500, remainder_model="both", seed=6)
    assert np.array_equal(t1.couplings, t2.couplings)
    assert not np.array_equal(t1.couplings, t3.couplings)


@pytest.mark.parametrize("name, value", [("a_mode", "finite-scale"),
                                         ("remainder_model", "theta-tail")])
def test_run_flow_rejects_unknown_settings(name, value):
    # a mistyped setting must not run as exact_limit or without its tail term
    with pytest.raises(ValueError, match=value):
        rgflow.run_flow(_params(0.02, beta=64.0, L=256), target_h=-50, h_lbeta=-50,
                        **{name: value})


def test_remainders_preserve_inverse_envelope():
    params = _params(0.02)
    traj = rgflow.run_flow(params, target_h=-4000, remainder_model="theta_tail", seed=2)
    assert traj.escaped_at is None
    g1 = np.abs(traj.couplings[:, 0])
    ref = np.abs(traj.couplings[0, 0]) / (1.0 + traj.a * np.abs(traj.couplings[0, 0]) * np.arange(len(g1)))
    # remainder-driven deviation stays within the square-root-size corridor
    assert np.max(np.abs(g1 - ref) / ref**1.5) <= 2.0


def test_escape_for_excluded_direction():
    params = _params(-0.02)
    traj = rgflow.run_flow(params, target_h=-5000)
    assert traj.escaped_at is not None
    # growth before the freeze
    idx = -traj.escaped_at
    g1 = np.abs(traj.couplings[: idx + 1, 0])
    assert g1[-1] > g1[0]


def test_nu_rescaling_default():
    params = _params(0.02)
    traj = rgflow.run_flow(params, target_h=-40)
    nu = traj.couplings[:, 4]
    # nu_{j-1} = gamma * nu_j with nu_0 = 0 stays identically zero
    assert np.max(np.abs(nu)) == 0.0


def test_complex_flow_is_pinned():
    # complex lambda with both remainder kinds, worst case and seeded: the
    # couplings, eps, a_j and every check as the per-step record code wrote them
    params = model.ModelParams.from_p_F(0.02 + 0.01j, P_F, model.on_site_potential(1.0),
                                        4096.0, 4096, allow_complex=True)
    digest = hashlib.sha256()
    for seed in (None, 3):
        traj = rgflow.run_flow(params, target_h=-300, remainder_model="both", seed=seed,
                               h_lbeta=-300)
        assert traj.escaped_at is None
        for arr in (traj.couplings, traj.eps, traj.a_seq):
            digest.update(arr.tobytes())
        digest.update(repr([(k, r.ok, r.worst_scale, r.worst_margin, r.measured_constant)
                            for k, r in rgflow.flow_checks(traj).items()]).encode())
    assert digest.hexdigest() == \
        "aa6efb44b119b628a2d30cc27c191748061a81b1b3381665a03f3ed76d8a4e53"


# ---------------------------------------------------------------------------
# domain probes
# ---------------------------------------------------------------------------


def test_derived_disk_constant_default():
    assert rgflow.derived_disk_constant() == pytest.approx(0.025)


def test_smallness_chain():
    c0 = rgflow.derived_disk_constant()
    h = -100
    lam_ok = 0.9 * c0 / (1.0 + abs(h))
    assert rgflow.smallness_chain_ok(lam_ok, h)
    # the chain doubles (and fails) once lam |h| c_bar reaches order one
    assert not rgflow.smallness_chain_ok(0.011, h)


def test_sector_probe_small():
    def params_of_lam(lam):
        return model.ModelParams.from_p_F(
            lam=lam,
            p_F=P_F,
            potential=model.on_site_potential(1.0),
            beta=1024.0,
            L=1024,
            allow_complex=True,
        )

    pts = rgflow.flow_sector_probe(
        params_of_lam, rays=6, radius=0.02, h_sector=-300, disk_hs=(-30, -300), h_lbeta=-300
    )
    assert len(pts) == 6 + 2
    sector, disk = pts[:6], pts[6:]
    for p in sector:
        assert p.bounded, p
        assert p.chain_ok is None
    for p in disk:
        assert p.bounded and p.chain_ok, p
