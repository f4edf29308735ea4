"""Two-route checks between the oracles and the fast modules, and between
the Wick-sum oracles and exact diagonalization."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rg1d import g1map, model, oracle, propagators, rgflow

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


# first_order_slope values of the per-site Wick engine that the site-array
# engine replaced (mu_bar = 0.3, beta = 8), channels in RESPONSE_CHANNELS
# order, keyed (L, potential, x, tau)
CAPTURED_SLOPES = {
    (8, "hubbard", 1, 0.7): (0.1504463514091936, -0.009261694048508635, 0.11388234555649523, 0.049415953202844615),
    (8, "hubbard", 2, 5.3): (-0.11375438204953733, -0.10792272020086657, 0.12924203147800176, 0.034988143878480635),
    (8, "uv:1:0.5", 1, 0.7): (0.09005232541948022, 0.026453238073351284, 0.12564459303731534, 0.09340043765064623),
    (8, "uv:1:0.5", 2, 5.3): (-0.1506689394425142, -0.15543085767529657, 0.17027270934674316, 0.05767500456248091),
    (16, "hubbard", 1, 0.7): (0.22875258399154474, 0.06398115363425086, 0.1821589644858303, 0.04486673367192037),
    (16, "hubbard", 2, 5.3): (-0.08125808181770189, -0.06331525400462437, 0.08174177173124987, 0.0036178350435182582),
    (16, "uv:1:0.5", 1, 0.7): (0.18823113358824076, 0.13104446216546, 0.22176920100993894, 0.08794355638158008),
    (16, "uv:1:0.5", 2, 5.3): (-0.10304477617320243, -0.09404315410473804, 0.10330650578175225, 0.014012255872788593),
}
POTENTIALS = {"hubbard": model.on_site_potential(1.0), "uv:1:0.5": model.u_v_potential(1.0, 0.5)}


def _slope_roundoff(x, tau, alpha, params):
    """L eps times the s integral of the slope kernel's magnitude.

    Each of the kernel's seven expectations is sized monomial product by
    monomial product, sum |coeff <T fields>|, so the +- coefficients of the
    S and TC densities cannot cancel in it, and the kernel's six products
    add in absolute value: its subtractions cancel terms of size
    |<T rho rho><W>| ~ L.  L eps is the roundoff of one L-term k sum behind
    each propagator.
    """
    nodes, weights = oracle._panel_nodes(tau, params.beta, oracle.REFINEMENT_LEVELS[-1])
    gtab = oracle._GTable(params, nodes)
    rx = oracle._density_monomials(alpha, x, tau, params.L)
    r0 = oracle._density_monomials(alpha, 0, 0.0, params.L)
    w1 = oracle._interaction_monomials(params)

    def size(*groups):
        return sum(abs(math.prod(c for c, _ in combo)) * np.abs(oracle._product_expectation(
            [[(1.0, sum((f for _, f in combo), ()))]], gtab))
            for combo in itertools.product(*groups))

    w, rr, mx, m0 = size(w1), size(rx, r0), size(rx), size(r0)
    mag = (size(rx, r0, w1) + rr * w + mx * (size(r0, w1) + m0 * w)
           + m0 * (size(rx, w1) + mx * w))
    return params.L * np.finfo(float).eps * float(np.sum(weights * mag))


@pytest.mark.parametrize("key", sorted(CAPTURED_SLOPES), ids=str)
def test_first_order_slope_matches_captured_values(key):
    # the two engines sum the same terms in different orders, so they may
    # differ by roundoff, which the refinement bar leaves out
    L, potential, x, tau = key
    params = model.ModelParams(lam=0.0, mu_bar=0.3, potential=POTENTIALS[potential],
                               beta=8.0, L=L)
    for alpha, ref in zip(oracle.RESPONSE_CHANNELS, CAPTURED_SLOPES[key]):
        got = oracle.first_order_slope(x, tau, alpha, params).value
        assert abs(got - ref) <= _slope_roundoff(x, tau, alpha, params), alpha


def test_first_order_slope_rejects_times_outside_the_window():
    # at tau = -0.5 the nodes run up to beta, so s - tau leaves (-beta, beta)
    params = model.ModelParams(lam=0.0, mu_bar=0.3, potential=model.on_site_potential(1.0),
                               beta=4.0, L=4)
    with pytest.raises(ValueError):
        oracle.first_order_slope(1, -0.5, "C", params)


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


def test_bubble_quadrature_is_for_the_asymptotic_regime():
    fermi = model.FermiPoint.from_p_F(math.pi / 3.0, 256)
    with pytest.raises(ValueError, match="asymptotic regime h <= -4"):
        oracle.bubble_quadrature(oracle.BUBBLE_MAX_H + 1, fermi)


@pytest.mark.parametrize("change, match", [
    pytest.param({"L": 9}, "L > 8", id="ed_micro-L9"),
    pytest.param({"beta": 21.0}, "beta <= 20", id="ed_micro-beta21"),
])
def test_ed_oracles_reject_systems_outside_their_scope(change, match):
    # each guard raises before a Fock space is built
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=model.u_v_potential(1.0, 0.5),
                               beta=10.0, L=4).with_(**change)
    with pytest.raises(ValueError, match=match):
        oracle.ed_micro(params)


@pytest.mark.parametrize("potential", [model.on_site_potential(1.0),
                                       model.u_v_potential(1.0, 0.5)],
                         ids=["hubbard", "uv:1:0.5"])
def test_particle_hole_spectra_coincide(potential):
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=potential, beta=4.0, L=4)
    ed = oracle.ed_micro(params)
    assert oracle.particle_hole_gap(ed) <= ed.roundoff


@pytest.mark.parametrize("change", [{"L": 5}, {"lam": 0.3}], ids=["odd-ring", "mu-mirror-out"])
def test_ed_micro_has_no_mirror_where_the_mirror_is_no_model(change):
    # the staggered sign needs an even ring, and at lambda = 0.3 the mirror's
    # mu_bar' = -(0.3 + 4 * 0.3 * 1.5) = -2.1 leaves the band (-1, 1)
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=model.u_v_potential(1.0, 0.5),
                               beta=10.0, L=4).with_(**change)
    assert oracle.ed_micro(params).mirror is None


def test_sector_eigh_builds_each_hopping_block_once(monkeypatch):
    # one hopping block per sector serves both the mirror's eigh and the
    # model's: 49 blocks and 98 eighs at L = 6
    counts = {"block": 0, "eigh": 0}

    def counted(name, inner):
        def call(*args):
            counts[name] += 1
            return inner(*args)
        return call

    monkeypatch.setattr(oracle, "_block", counted("block", oracle._block))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=model.u_v_potential(1.0, 0.5),
                               beta=10.0, L=6)
    ed = oracle.ed_micro(params)
    assert ed.mirror is not None and len(ed.basis) == 49
    assert counts == {"block": 49, "eigh": 98}


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


# bound on one response's peak heap growth at L = 6, in blocks of the
# largest sector (400^2 doubles, 1.28 MB): rotating one block at a time by
# gathering eigenbasis rows, with one weight buffer per block pair, keeps
# about 3.1 (C) and 2.4 (SC) alive: A_x, B's partner and the buffer; a
# fresh weight block per tau took 4.1 (C), whole operators 16 and 24
ED_PEAK_BLOCKS = 4
# bound on ed_micro's peak heap growth at L = 6 beyond its eigenbasis
# (C(12, 6)^2 doubles), in the same blocks: about 0.68 with the mirror's
# eigenvalues taken from a copy of each hopping block (0.41 with no
# mirror); the mirror's vectors kept would add a second eigenbasis, 5.3
ED_MICRO_PEAK_BLOCKS = 1


@pytest.fixture(scope="module")
def ed_l6():
    """The ed_l6 benchmark's chain."""
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=model.u_v_potential(1.0, 0.5),
                               beta=10.0, L=6)
    ed = oracle.ed_micro(params)
    assert max(len(states) for states in ed.basis.values()) == 400
    return ed


def _peak_bytes(run):
    """Peak heap growth while run() runs, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def _peak_blocks(run):
    """Peak heap growth while run() runs, in blocks of 400^2 doubles."""
    return _peak_bytes(run) / (400 ** 2 * 8)


@pytest.mark.parametrize("alpha", ["C", "SC"])
def test_ed_response_streams_one_source_sector_at_a_time(ed_l6, alpha):
    # the ed_l6 benchmark's tau grid
    assert _peak_blocks(lambda: ed_l6.response(alpha, (0.0, 2.5, 7.0, -4.0))) < ED_PEAK_BLOCKS


def test_ed_micro_keeps_no_second_eigenbasis(ed_l6):
    # the gap's mirror spectrum comes from the same ed_micro pass
    eigenbasis = sum(v.nbytes for v in ed_l6.vectors.values()) / (400 ** 2 * 8)
    growth = _peak_blocks(lambda: oracle.ed_micro(ed_l6.params))
    assert growth - eigenbasis < ED_MICRO_PEAK_BLOCKS


# bound on the sweep kernel's peak heap growth per lane, for a share with no
# disk lane: about 2260 bytes with two drift rows and the ratio and gtilde
# written over the block's |g| and drift sums; 3530 with 32 drift rows and
# a buffer for each
SWEEP_PEAK_BYTES_PER_LANE = 2800


class _Share0(Exception):
    """Carries the arguments of the sweep and the lanes of its share 0."""


def _raise_share0(sweep, shares):
    raise _Share0(sweep, shares[0])


def test_sweep_share_without_disk_lanes_keeps_few_rows(monkeypatch):
    # the default borel sweep on two shares: share 0 holds its 768 lanes
    # that draw nothing
    monkeypatch.setattr(g1map, "_share_count", lambda n_lanes, n_steps: 2)
    monkeypatch.setattr(g1map, "_run_shares", _raise_share0)
    with pytest.raises(_Share0) as info:
        g1map.sweep_sector(math.pi / 4.0, g1map.default_eps0(math.pi / 4.0), n_steps=3000)
    sweep, lanes = info.value.args
    assert lanes.size == 768 and not (sweep[1][lanes] == "disk").any()
    peak = _peak_bytes(lambda: g1map._sweep_lanes(lanes, *sweep))
    assert peak / lanes.size < SWEEP_PEAK_BYTES_PER_LANE


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_eigenbasis_holds_the_sector_squares(L):
    # the module docstring's memory claim: the vectors of every sector hold
    # (sum_k C(L, k)^2)^2 = C(2L, L)^2 doubles, 6.8 MB at L = 6
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=model.u_v_potential(1.0, 0.5),
                               beta=10.0, L=L)
    ed = oracle.ed_micro(params)
    assert sum(v.nbytes for v in ed.vectors.values()) == 8 * math.comb(2 * L, L) ** 2


@pytest.mark.parametrize("potential", [model.on_site_potential(1.0),
                                       model.u_v_potential(1.0, 0.5)],
                         ids=["hubbard", "uv:1:0.5"])
@pytest.mark.parametrize("L", [2, 4, 6])
def test_particle_hole_gap_reads_the_mirror_spectrum_of_ed_micro(L, potential):
    # the mirror spectrum taken beside the eigenbasis, bit for bit the
    # spectrum of a whole ed_micro build of the mirror
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=potential, beta=10.0, L=L)
    mu_mirror, shift = oracle.particle_hole_mirror(params)
    mirror = oracle.ed_micro(params.with_(mu_bar=mu_mirror)).spectrum()
    assert np.array_equal(oracle.ed_micro(params).mirror, mirror + shift)


@pytest.mark.parametrize("fermionic", [False, True])
def test_block_terms_in_place_match_the_product_sums(fermionic):
    # route against route: the in-place trace of each tau term against the
    # plain a * w * pair.T (tau > 0) and pair * w * a.T (tau <= 0) sums
    rng = np.random.default_rng(7)
    m, n, beta = 37, 53, 10.0
    em, en = rng.uniform(0.0, 3.0, m), rng.uniform(0.0, 3.0, n)
    a, pair = rng.standard_normal((m, n)), rng.standard_normal((n, m))
    params = model.ModelParams(lam=0.0, mu_bar=0.3, potential=model.on_site_potential(1.0),
                               beta=beta, L=2)
    ed = oracle.EDSystem(params, {}, {"src": en, "dest": em}, {}, 0.0, 1.0, 0.0,
                         mirror=None)
    taus = (0.0, 2.5, 7.0, -4.0, -9.5)
    sgn = -1.0 if fermionic else 1.0
    want = []
    for tau in taus:
        if tau > 0.0:
            w = np.exp(-(beta - tau) * em)[:, None] * np.exp(-tau * en)[None, :]
            want.append(float(np.sum(a * w * pair.T)))
        else:
            w = np.exp(-(beta + tau) * en)[:, None] * np.exp(tau * em)[None, :]
            want.append(sgn * float(np.sum(pair * w * a.T)))
    assert ed._block_terms(a, pair, "src", "dest", taus, fermionic) == want


def _operator_strings(L):
    """Every DENSITIES channel at every x, and both two-point fields (a^-_x
    at every x, a^+_0), as string lists."""
    monomials = [oracle._density_monomials(alpha, x, None, L)
                 for alpha in oracle.DENSITIES for x in range(L)]
    monomials += [[(1.0, ((0, x, 0, None),))] for x in range(L)]
    monomials.append([(1.0, ((1, 0, 0, None),))])
    return [oracle._strings(m, L) for m in monomials]


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("L", [4, 5])
def test_rotation_by_gather_matches_the_two_gemm_route(L, potential):
    # _rotate gathers rows of the dest eigenbasis and does one GEMM; the
    # reference rotates the Fock block P with two.  They agree bit for bit
    # because every column of P holds at most two nonzeros, each +-1/2, +-1
    # or +-2: every gathered entry is one exact product or one rounded sum
    # of two, which is what the GEMM computes
    params = model.ModelParams(lam=0.1, mu_bar=0.3, potential=POTENTIALS[potential],
                               beta=4.0, L=L)
    ed = oracle.ed_micro(params)
    basis, vectors = ed.basis, ed.vectors
    for strings in _operator_strings(L):
        for src in basis:
            for dest in oracle._dests(strings, src, basis):
                p = oracle._block(strings, src, dest, basis, np.eye(len(basis[dest])))
                nonzero = p != 0.0
                assert nonzero.sum(axis=0).max() <= 2
                assert np.isin(np.abs(p[nonzero]), (0.5, 1.0, 2.0)).all()
                want = vectors[dest].T @ p @ vectors[src]
                assert np.array_equal(ed._rotate(strings, src, dest), want)


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
    # _block over every (src, dest) sector pair: the Jordan-Wigner block
    # where _dests lists dest, None everywhere else; every coefficient and
    # matrix entry is dyadic, so both routes are exact
    monomials = _JW_CASES[name]
    strings = oracle._strings(monomials, JW_L)
    basis = oracle._sector_basis(JW_L)
    assert np.array_equal(np.sort(np.concatenate(list(basis.values()))),
                          np.arange(4 ** JW_L))
    full = np.zeros((4 ** JW_L, 4 ** JW_L))
    for src in basis:
        dests = oracle._dests(strings, src, basis)
        assert len(set(dests)) == len(dests)
        for dest in basis:
            blk = oracle._block(strings, src, dest, basis, np.eye(len(basis[dest])))
            if dest in dests:
                full[np.ix_(basis[dest], basis[src])] = blk
            else:
                assert blk is None
    dense = _jw_dense(monomials, JW_L)
    assert np.any(dense != 0.0)
    assert np.array_equal(full, dense)
