"""Propagator layer: cutoff algebra, representation equivalence, scaling."""

import cmath
import hashlib

import mpmath
import numpy as np
import pytest

from rg1d import cli, model, propagators

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
    assert propagators.chi0(0.0, GAMMA) == 1.0
    assert propagators.chi0(1.0, GAMMA) == 1.0
    assert propagators.chi0(GAMMA, GAMMA) == 0.0
    assert propagators.chi0(5.0, GAMMA) == 0.0
    mid = propagators.chi0(1.5, GAMMA)
    assert 0.0 < mid < 1.0
    # monotone nonincreasing on the transition window
    ts = np.linspace(1.0, GAMMA, 101)
    vals = np.array([propagators.chi0(t, GAMMA) for t in ts])
    assert np.all(np.diff(vals) <= 1e-15)


def test_chi0_smooth_at_window_edges():
    # w(u) = exp(-1/u) glue: flat to all orders at both ends
    eps = 1e-4
    assert propagators.chi0(1.0 + eps, GAMMA) == pytest.approx(1.0, abs=1e-3)
    assert propagators.chi0(GAMMA - eps, GAMMA) == pytest.approx(0.0, abs=1e-3)


def _bump_reference(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 1e-12
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _chi0_reference(gamma, t):
    """chi0 as whole-array formulas: the bump on every point, then a select."""
    t = np.abs(np.asarray(t, dtype=float))
    s = (t - 1.0) / (gamma - 1.0)
    lo = _bump_reference(1.0 - s)
    hi = _bump_reference(s)
    with np.errstate(invalid="ignore"):
        mid = lo / (lo + hi)
    out = np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, mid))
    return out if out.shape else float(out)


@pytest.mark.parametrize("gamma", [GAMMA, 1.5, 3.7])
@np.errstate(divide="raise", over="raise", invalid="raise")   # as in cli.main
def test_chi0_matches_the_whole_array_formulas_bit_for_bit(gamma):
    # chi0 runs the bump on the transition band only, in place; every bit,
    # NaN's included, must be the whole-array formulas'
    s = np.array([0.0, 1.0, 5e-13, 1e-12, 2e-12, 1.0 - 5e-13, 1.0 - 2e-12, 0.5])
    t = np.concatenate([1.0 + s * (gamma - 1.0), -(1.0 + s * (gamma - 1.0)),
                        [0.0, -0.0, 1.0, gamma, -gamma, 2.0 * gamma,
                         np.inf, -np.inf, np.nan],
                        np.random.default_rng(3).uniform(-2.0 * gamma, 2.0 * gamma, 4096)])
    s_got = (np.abs(t) - 1.0) / (gamma - 1.0)
    # the grid reaches s = 0 and 1 exactly, and either side of the bump's
    # threshold at both ends of the band
    assert {0.0, 1.0} <= set(s_got.tolist())
    for u in (s_got, 1.0 - s_got):
        assert ((u > 0.0) & (u <= 1e-12)).any() and ((u > 1e-12) & (u < 1e-11)).any()
    for arr in (t, t[:4096].reshape(64, 64)):
        assert np.array_equal(propagators.chi0(arr, gamma).view(np.int64),
                              _chi0_reference(gamma, arr).view(np.int64))
    for x in t[:25]:   # 0-d: a float, as before
        got, ref = propagators.chi0(x, gamma), _chi0_reference(gamma, x)
        assert type(got) is float and np.float64(got).view(np.int64) == np.float64(ref).view(np.int64)
        got = propagators.chi0(np.asarray(x), gamma)
        assert type(got) is float and np.float64(got).view(np.int64) == np.float64(ref).view(np.int64)


def test_uv_partition_of_unity():
    M = 12
    k0 = np.pi * (2.0 * np.arange(200) + 1.0) / 64.0
    total = np.zeros_like(k0)
    for h in range(1, M + 1):
        total += np.array([propagators.H_h(h, w, GAMMA) for w in k0])
    # telescoping: sum_{h=1..M} H_h(k0) = chi0(k0 / gamma^M)
    recon = np.array([propagators.chi0(w / GAMMA**M, GAMMA) for w in k0])
    assert np.max(np.abs(total - recon)) < 1e-12
    # and equals 1 once the rescaled frequency is inside the plateau
    inside = np.abs(k0) <= GAMMA**M
    assert np.max(np.abs(total[inside] - 1.0)) < 1e-12


def test_ir_shell_partition_on_grid():
    params = _grid_params(beta=32.0, L=64)
    fermi = params.fermi()
    h_lbeta = propagators.finite_size_scale(params.beta, params.L, fermi)
    kp = model.quasi_momenta(params.L) - fermi.p_FL
    k0 = model.matsubara(params.beta, 40)
    KP, K0 = np.meshgrid(kp, k0, indexing="ij")
    total = np.zeros_like(KP)
    for h in range(h_lbeta, 1):
        total += propagators.f_h(h, KP, K0, fermi)
    full = propagators.chi(KP, K0, fermi)
    assert np.max(np.abs(total - full)) < 1e-12


def test_uv_complement_plus_windows_is_one():
    params = _grid_params(beta=32.0, L=64)
    fermi = params.fermi()
    ks = model.quasi_momenta(params.L)
    k0 = model.matsubara(params.beta, 40)
    K, K0 = np.meshgrid(ks, k0, indexing="ij")
    p = fermi.p_FL
    total = propagators.f_uv(K, K0, fermi, p)
    total = total + propagators.chi(K - p, K0, fermi) + propagators.chi(K + p, K0, fermi)
    assert np.max(np.abs(total - 1.0)) < 1e-12


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("p_F", [np.pi / 6.0, np.pi / 3.0, 5.0 * np.pi / 6.0],
                         ids=["pi/6", "pi/3", "5pi/6"])
def test_uv_shells_above_one_carry_H_h_alone(p_F, gamma):
    # H_h vanishes for |k0| <= gamma^{h-1} > 1 and both chi windows for
    # |k0| >= a0 v_F <= pi/4, so on every shell h >= 2 the weight f_uv * H_h
    # is H_h bit for bit, one row for all momenta
    params = model.ModelParams.from_p_F(lam=0.0, p_F=p_F, potential=model.on_site_potential(1.0),
                                        beta=16.0, L=32, gamma=gamma, M_uv=6)
    fermi = params.fermi()
    for h in range(2, params.M_uv + 1):
        k, k0, _, weight = propagators.shell_grid("uv", h, params)
        K, K0 = k[:, None], k0[None, :]
        w = weight(K, K0)
        full = propagators.f_uv(K, K0, fermi, fermi.p_FL) * propagators.H_h(h, K0, gamma)
        assert w.shape == (1, K0.size) and full.shape == (params.L, K0.size)
        assert full.tobytes() == np.broadcast_to(w, full.shape).tobytes()


@pytest.mark.parametrize("piece, match", [
    pytest.param(lambda p: propagators.shell_grid("uv", 0, p), "1 <= h <= M", id="uv-h0"),
    pytest.param(lambda p: propagators.shell_grid("uv", p.M_uv + 1, p), "1 <= h <= M",
                 id="uv-above-M"),
    pytest.param(lambda p: propagators.shell_grid("band", 0, p, 1), "kind must be", id="kind"),
    pytest.param(lambda p: propagators.shell_grid("ir", 1, p, 1), "h <= 0", id="ir-h1"),
    pytest.param(lambda p: propagators.shell_grid("dirac", 1, p, 1), "h <= 0", id="dirac-h1"),
    pytest.param(lambda p: propagators.H_h(0, 1.0, p.gamma), "h >= 1", id="H_h-h0"),
])
def test_pieces_outside_the_decomposition_are_rejected(piece, match):
    params = _grid_params(beta=16.0, L=8).with_(M_uv=6)
    with pytest.raises(ValueError, match=match):
        piece(params)


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
    params = _params(beta=32.0, L=64, M_uv=8)
    for x, x0 in [(3, 5.0), (1, 7.3)]:
        g1 = propagators.free_propagator(x, x0, params, representation="cutoff_sum")
        g2 = propagators.free_propagator(x, x0 - params.beta, params, representation="cutoff_sum")
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
            gc = propagators.free_propagator(x, 0.0, params.with_(M_uv=M),
                                             representation="cutoff_sum")
            diffs.append(abs(gk - gc))
        worst.append(max(diffs))
    slope = np.polyfit(np.log(GAMMA) * np.array(Ms), np.log(worst), 1)[0]
    # decay exponent within 20 percent of one power of gamma per scale step
    assert -1.2 <= slope <= -0.8


def test_generic_points_converge_faster():
    # away from the equal-time slice the cutoff error is higher order and
    # oscillatory: it sits far below the nearest-neighbor equal-time gap
    params = _params(beta=32.0, L=64)
    for M in (6, 8, 10):
        lead = abs(
            propagators.free_propagator(1, 0.0, params)
            - propagators.free_propagator(1, 0.0, params.with_(M_uv=M), representation="cutoff_sum")
        )
        for x, x0 in [(3, 2.7), (11, 9.1), (40, 17.3), (0, 0.5)]:
            gk = propagators.free_propagator(x, x0, params)
            gc = propagators.free_propagator(x, x0, params.with_(M_uv=M),
                                             representation="cutoff_sum")
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


def test_free_propagator_rejects_out_of_range_time():
    params = _params(beta=16.0, L=32)
    with pytest.raises(ValueError):
        propagators.free_propagator(1, 16.0, params)
    with pytest.raises(ValueError):
        propagators.free_propagator(1, -16.0, params)


# free_propagator point by point, as the one-point-per-call code computed it:
# (model params, points (x, x0), sha256 of every value's float.hex pair in
# point order per representation).  The mixed cases cover odd L, small M,
# gamma = 1.5, negative x0, x0 near +-beta, repeated x0 and both 0.0 and -0.0.
POINT_CASES = {
    "defaults": (
        dict(mu_bar=0.5, beta=64.0, L=256, gamma=2.0, M_uv=10),
        [(x, 0.0) for x in range(9)] + [(x, 0.37 * 64.0) for x in range(5)],
        {"kernel_sum": "7d6e499aa8d90dbaa67768e4176282f46ce1e931c71ab44e9c89c63fab576e61",
         "cutoff_sum": "f8a2a247a2bee617825fd119bf4e75c0bda9a80ad868fc6a52f64987f6d62046"}),
    "odd_L": (
        dict(mu_bar=0.5, beta=20.0, L=33, gamma=2.0, M_uv=7),
        [(0, 0.0), (3, -0.0), (0, -0.0), (5, 7.4), (32, -7.4), (-3, 19.5),
         (40, -19.5), (1, 19.999), (5, 7.4), (0, -19.999), (2, 0.0)],
        {"kernel_sum": "831275d614421977e553c0092fe3adf0f7406969f4e214acef41b827147eeee2",
         "cutoff_sum": "b438a70bbf2bcad7e68336865199ed3004722d33f7b34d3a34dda2cbc8bf3ea9"}),
    "gamma_1.5": (
        dict(mu_bar=0.2, beta=8.0, L=17, gamma=1.5, M_uv=3),
        [(0, 0.0), (1, -0.0), (4, 2.5), (-2, -7.9), (16, 7.9), (4, 2.5), (0, -2.5)],
        {"kernel_sum": "d92ca616fc580cbffde6cacba33a3724000337dd5d3279d992d712dad60598f1",
         "cutoff_sum": "06591b3ee3702583072b563e8428c5306ed726074470c11d4b8dea836f456c7d"}),
}


def _hex_digest(values):
    text = " ".join(v.real.hex() + "," + v.imag.hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("rep", ["kernel_sum", "cutoff_sum"])
@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_array_x_reproduces_the_pointwise_values(case, rep):
    kwargs, points, digests = POINT_CASES[case]
    params = model.ModelParams(lam=0.0, potential=model.on_site_potential(1.0), **kwargs)
    scalar = [propagators.free_propagator(x, x0, params, representation=rep)
              for x, x0 in points]
    assert all(type(v) is complex for v in scalar)
    assert _hex_digest(scalar) == digests[rep]
    by_x0 = {}   # keyed by the bits, so -0.0 gets its own call
    for i, (_, x0) in enumerate(points):
        by_x0.setdefault(x0.hex(), []).append(i)
    for idx in by_x0.values():
        xs = np.array([points[i][0] for i in idx])
        out = propagators.free_propagator(xs, points[idx[0]][1], params, representation=rep)
        assert out.dtype == complex and out.shape == xs.shape
        assert out.tobytes() == np.array([scalar[i] for i in idx]).tobytes()


def test_discontinuity_predicate():
    # the equal-time jump sits at every periodic image x = n L of the origin
    for x in (0, 16, -16, 32):
        assert propagators.is_discontinuity_point(x, 0.0, 32.0, 16)
    assert propagators.is_discontinuity_point(0, 32.0 - 32.0, 32.0, 16)
    for x in (1, 8, -15, 17):
        assert not propagators.is_discontinuity_point(x, 0.0, 32.0, 16)
    assert not propagators.is_discontinuity_point(0, 0.5, 32.0, 16)
    assert not propagators.is_discontinuity_point(16, 0.5, 32.0, 16)


# ---------------------------------------------------------------------------
# single-scale pieces and scaling certificates
# ---------------------------------------------------------------------------


def test_single_scale_pieces_sum_to_cutoff_representation():
    # UV scales + IR scales + Dirac split reassemble the cutoff propagator
    # on the whole (x, tau) table, tau in [-beta/2, beta/2)
    M = 8
    params = _grid_params(beta=16.0, L=32).with_(M_uv=M)
    fermi = params.fermi()
    h_lbeta = propagators.finite_size_scale(params.beta, params.L, fermi)
    x = np.arange(params.L)
    taus = params.beta * (np.arange(16) / 16.0 - 0.5)
    total = np.zeros((x.size, taus.size), dtype=complex)
    for h in range(1, M + 1):
        total += propagators.single_scale("uv", h, x, taus, params)
    for h in range(h_lbeta, 1):
        for omega in (1, -1):
            # quasi-momentum evaluator: restore the Fermi phase
            phase = np.exp(-1j * omega * fermi.p_FL * x)[:, None]
            total += phase * propagators.single_scale("ir", h, x, taus, params, omega)
    full = np.stack([propagators.free_propagator(x, x0, params, representation="cutoff_sum")
                     for x0 in taus], axis=1)
    assert np.max(np.abs(total - full)) <= 1e-10


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
            g = propagators.single_scale("ir", h, x, x0, params, 1)
            vals.append(abs(g) / GAMMA**h)
        profiles.append(vals)
    profiles = np.array(profiles)
    # each scaled position: amplitude stable across h within a factor 2
    for col in profiles.T:
        assert col.max() / col.min() < 2.0


def _gram_norms(h, kind, params):
    """Square norms (|A|^2, |B|^2) of the Gram vectors with
    g^{(h)}(x-y) = <A_x, B_y> for shell h at omega = 1: the sums of w/d^4
    and w d^2 over its mesh, d^2 = k0^2 + band^2."""
    k, k0, band, weight = propagators.shell_grid(kind, h, params, 1)
    K0 = k0[None, :]
    w = weight(k[:, None], K0)
    d2 = K0 ** 2 + band[:, None] ** 2
    vol = params.beta * params.L
    return float(np.sum(w / d2 ** 2)) / vol, float(np.sum(w * d2)) / vol


def test_gram_certificates_scaling():
    # |A|^2 ~ gamma^{pA h} and |B|^2 ~ gamma^{pB h}, fitted to within 10%;
    # shallow UV shells feel the lattice dispersion, scales 3..6 sit on the
    # asymptotic plateau where the certified exponents hold
    for kind, hs, params, powers in [
            ("uv", [3, 4, 5, 6], _grid_params(beta=64.0, L=256), (-3.0, 3.0)),
            ("ir", [-1, -2, -3, -4], _grid_params(beta=2048.0, L=2048), (-2.0, 4.0))]:
        norms = np.array([_gram_norms(h, kind, params) for h in hs])
        slopes = np.polyfit(np.log(params.gamma) * np.array(hs), np.log(norms), 1)[0]
        assert np.all(np.abs(slopes - powers) < 0.1 * np.abs(powers)), kind
        # Cauchy-Schwarz: |g^(h)| at a sample point is below |A| |B|
        g = propagators.single_scale(kind, hs[0], 3, 1.0, params, 1)
        assert abs(g) <= np.sqrt(np.prod(norms[0])), kind


def _double_loop(grid, x, x0, params):
    """The defining double sum term by term over grid's support: one
    value per (x, x0) pair."""
    ks, k0s, bands, weight = grid
    out = np.zeros((len(x), len(x0)), dtype=complex)
    for k, band in zip(ks, bands):
        for k0 in k0s:
            term = weight(k, k0) / (-1j * k0 + band)
            for i, xi in enumerate(x):
                for j, x0j in enumerate(x0):
                    out[i, j] += cmath.exp(-1j * (k0 * x0j + k * xi)) * term
    return out / (params.beta * params.L)


@pytest.mark.parametrize("kind, h, omega", [
    pytest.param("uv", 3, None, id="uv"),
    pytest.param("cutoff", None, None, id="cutoff"),
    pytest.param("ir", 0, 1, id="ir+"),
    pytest.param("ir", 0, -1, id="ir-"),
    pytest.param("dirac", 0, 1, id="dirac+"),
    pytest.param("dirac", 0, -1, id="dirac-"),
])
def test_propagator_table_matches_pointwise(kind, h, omega):
    # the table against independent point values: free_propagator's cutoff
    # sum, and for the single scales the double sum written out term by term
    params = _grid_params(beta=64.0, L=8).with_(M_uv=6)
    x = np.arange(params.L)
    taus = params.beta * np.arange(8) / 8.0
    table = propagators.single_scale(kind, h, x, taus, params, omega)
    assert table.shape == (x.size, taus.size)
    if kind == "cutoff":
        direct = np.stack([propagators.free_propagator(x, x0, params, "cutoff_sum")
                           for x0 in taus], axis=1)
    else:
        grid = propagators.shell_grid(kind, h, params, omega)
        assert grid[0].size and grid[1].size
        direct = _double_loop(grid, x, taus, params)
    assert np.abs(direct).max() > 1e-6
    assert np.max(np.abs(table - direct)) <= 1e-10


def test_single_scale_shapes():
    # two scalars give a complex; each array argument adds its axis
    params = _grid_params(beta=16.0, L=8)
    x, taus = np.arange(5), np.array([0.5, 2.0, 7.5])
    point = propagators.single_scale("uv", 2, 3, 2.0, params)
    assert type(point) is complex
    row = propagators.single_scale("uv", 2, x, 2.0, params)
    assert row.shape == (5,) and row[3] == pytest.approx(point, abs=1e-15)
    col = propagators.single_scale("uv", 2, 3, taus, params)
    assert col.shape == (3,) and col[1] == pytest.approx(point, abs=1e-15)
    table = propagators.single_scale("uv", 2, x, taus, params)
    assert table.shape == (5, 3) and table[3, 1] == pytest.approx(point, abs=1e-15)


@pytest.mark.parametrize("kind", ["ir", "dirac"])
def test_empty_shell_is_zero(kind):
    # below the box scale the shell holds no frequency: the table, the point
    # value and the Gram norms all vanish
    params = _grid_params(beta=16.0, L=32)
    h = propagators.finite_size_scale(params.beta, params.L, params.fermi()) - 1
    x, taus = np.arange(params.L), params.beta * np.arange(8) / 8.0
    table = propagators.single_scale(kind, h, x, taus, params, 1)
    assert table.shape == (params.L, 8)
    assert not table.any()
    assert propagators.shell_grid(kind, h, params, 1)[1].size == 0
    assert propagators.single_scale(kind, h, 3, 2.2, params, 1) == 0j
    if kind == "ir":
        assert _gram_norms(h, "ir", params) == (0.0, 0.0)


def test_l1_norm_scaling_slope():
    # the L1 mass int dx0 sum_x |g^(h)| of a single scale grows like
    # gamma^-h, as Riemann sums over x = 0..L-1 and x0 = beta m / 512
    params = _grid_params(beta=2048.0, L=2048)
    hs = np.array([-1, -2, -3, -4])
    x, x0 = np.arange(params.L), params.beta * np.arange(512) / 512
    norms = [np.sum(np.abs(propagators.single_scale("ir", h, x, x0, params, 1)))
             * params.beta / 512 for h in hs]
    slope = np.polyfit(np.log(params.gamma) * hs, np.log(norms), 1)[0]
    assert abs(slope - (-1.0)) < 0.1


# ---------------------------------------------------------------------------
# Bessel J1 of the Dirac radial profile
# ---------------------------------------------------------------------------

J1_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, np.nextafter(5.0, 0.0), 5.0,
                     np.nextafter(5.0, 6.0), -5.0, 1e8, 1e15, -1e15, np.inf, -np.inf])


def test_j1_matches_cephes_bit_for_bit(tmp_path, monkeypatch):
    # the same values and the same signs (j1(-0.0) = -0.0) as the Cephes
    # routine scipy runs: on seeded arguments over both branches and the
    # u R range of dirac_profiles (R <= 1024), on the edges, and on every
    # np.outer(u, R) grid that dirac_profiles builds in the defaults run of
    # correlations --lambda 0.02
    special = pytest.importorskip("scipy.special")
    inner, grids = propagators._j1, []

    def recorded(x):
        grids.append(x)
        return inner(x)

    monkeypatch.setattr(propagators, "_j1", recorded)
    assert cli.main(["correlations", "--lambda", "0.02", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert len(grids) == 40 and {g.shape[0] for g in grids} == {256, 512}
    rng = np.random.default_rng(19)
    for x in [rng.uniform(0.0, 1e4, 10**6), rng.uniform(-10.0, 10.0, 10**5), J1_EDGES, *grids]:
        with np.errstate(invalid="ignore"):   # cos and sin of +-inf
            ours, ref = propagators._j1(x), special.j1(x)
        assert np.array_equal(ours, ref, equal_nan=True)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))


def test_j1_accuracy_against_mpmath():
    # without scipy: |j1(x) - J1(x)| <= 4 (ulp(J1(x)) + |J1'(x)| ulp(x)), a
    # few ulps of the value plus a few of the argument carried through the
    # slope (the Hankel branch rounds xn = x - 3 pi/4 to ulp(x), so a bar
    # in ulps of the value alone cannot hold at large x); the measured worst
    # on these points is 1.8 such units
    far = np.geomspace(np.nextafter(5.0, 6.0), 1e4, 100)
    far[::2] *= -1.0
    xs = np.concatenate([np.linspace(-5.0, 5.0, 101), far])
    ours = propagators._j1(xs)
    with mpmath.workprec(120):
        exact = np.array([float(mpmath.besselj(1, x)) for x in xs])
        slope = np.array([float(mpmath.besselj(1, x, derivative=1)) for x in xs])
    bar = 4.0 * (np.spacing(np.abs(exact)) + np.abs(slope) * np.spacing(np.abs(xs)))
    assert np.all(np.abs(ours - exact) <= bar)
