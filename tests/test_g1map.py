"""Quadratic map g -> g - a_n g^2: trajectories, approximants, sector checks."""

import hashlib
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rg1d import g1map, oracle

DELTA = np.pi / 4.0


# ---------------------------------------------------------------------------
# elementary steps and the rational approximant
# ---------------------------------------------------------------------------


def test_single_step_value():
    g1 = g1map.iterate(0.1, 0.25, 1).trajectory[1]
    assert g1 == pytest.approx(0.1 - 0.25 * 0.01, abs=1e-16)


def test_approximant_real_closed_form():
    # g0 / (1 + g0 n A): 0.01 / (1 + 0.01 * 400 * 0.25) = 0.005
    path = g1map.approximant_path(g1map.iterate(0.01, 0.25, 400))
    assert path[400] == pytest.approx(0.005, abs=1e-15)


def test_approximant_complex_value():
    g0 = 0.01 * np.exp(1j * np.pi / 2.0)
    # denominator 1 + i: modulus sqrt 2, angle pi/4
    val = g1map.approximant_path(g1map.iterate(g0, 0.25, 400))[400]
    expected = g0 / (1.0 + 1.0j)
    assert val == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# deterministic trajectories (sigma = 0)
# ---------------------------------------------------------------------------


def test_real_trajectory_monotone_and_asymptotics():
    a = 0.25
    state = g1map.iterate(0.1, a, 20000)
    g = state.trajectory
    assert np.all(g.real > 0.0)
    assert np.all(np.diff(g.real) < 0.0)
    assert np.max(np.abs(g.imag)) == 0.0
    # n g_n -> 1/a (rate log n / n)
    n = len(g) - 1
    assert n * g[-1].real == pytest.approx(1.0 / a, rel=5e-3)


def test_trajectory_matches_approximant_closely():
    state = g1map.iterate(0.01, 0.25, 100000, g1map.SectorDomain(0.015, DELTA))
    ok, margin = g1map.verify_closeness(state)
    assert ok
    assert margin <= 0.0


def test_square_sum_near_quadrature():
    # sum |g_k|^2 against its continuum estimate, which for real g0 is
    # int_0^n (g0 / (1 + g0 a s))^2 ds = (g0 - g0 / (1 + g0 a n)) / a
    g0, a, n = 0.05, 0.25, 50000
    state = g1map.iterate(g0, a, n)
    direct = np.sum(np.abs(state.trajectory[:-1]) ** 2)
    assert direct == pytest.approx((g0 - g0 / (1.0 + g0 * a * n)) / a, rel=0.1)


def test_escape_for_negative_coupling():
    # the negative real axis lies outside the sector: immediate escape
    dom = g1map.SectorDomain(0.015, DELTA)
    state = g1map.iterate(-0.01, 0.25, 1000, dom)
    assert state.escape_index == 0
    # the raw map runs away monotonically on the negative axis
    g = [-0.01]
    for _ in range(390):
        g.append(g[-1] - 0.25 * g[-1] ** 2)
    g = np.array(g)
    assert np.all(np.diff(g) < 0.0)
    assert abs(g[-1]) > 10.0 * abs(g[0])


# ---------------------------------------------------------------------------
# sector geometry
# ---------------------------------------------------------------------------


def test_domain_membership_and_enlargements():
    dom = g1map.SectorDomain(1e-2, DELTA)
    assert dom.contains(5e-3 * np.exp(1j * (np.pi - DELTA)))
    assert not dom.contains(5e-3 * np.exp(1j * (np.pi - DELTA / 2.0)))
    assert not dom.contains(2e-2)
    big = dom.trajectory_enlargement()
    assert big.epsilon == pytest.approx(3e-2 / np.sin(DELTA))
    assert big.delta == pytest.approx(DELTA / 4.0)
    mid = dom.approximant_enlargement()
    assert mid.epsilon == pytest.approx(2e-2 / np.sin(DELTA))
    assert mid.delta == pytest.approx(DELTA / 2.0)


def test_boundary_ray_stays_in_enlarged_sector():
    g0 = 0.01 * np.exp(1j * 3.0 * np.pi / 4.0)
    dom = g1map.SectorDomain(0.015, DELTA)
    state = g1map.iterate(g0, 0.25, 10000, dom)
    assert state.escape_index is None
    ok, _ = g1map.verify_sector(state)
    assert ok
    # arguments relax toward the positive axis along the trajectory
    args = np.abs(np.angle(state.trajectory))
    assert args[-1] < args[0]


# ---------------------------------------------------------------------------
# sigma models and the sweep
# ---------------------------------------------------------------------------


def test_sigma_sequences_bounded_and_reproducible():
    for m in g1map.SIGMA_MODELS:
        s1 = g1map.sigma_sequence(m, 1000, 0.05, seed=3)
        s2 = g1map.sigma_sequence(m, 1000, 0.05, seed=3)
        assert np.array_equal(s1, s2)
        assert np.max(np.abs(s1)) <= 0.05 + 1e-15
    assert np.all(g1map.sigma_sequence("zero", 100, 0.05) == 0.0)


def test_small_sweep_all_pass():
    rep = g1map.sweep_sector(DELTA, 1e-2, n_rays=8, n_radii=3, n_steps=2000, seed=0)
    assert rep.containment_fraction == 1.0
    assert rep.closeness_fraction == 1.0
    assert len(rep.lanes) == 8 * 3 * len(g1map.SIGMA_MODELS)


def test_sweep_deterministic():
    r1 = g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=500, seed=5)
    r2 = g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=500, seed=5)
    for l1, l2 in zip(r1.lanes, r2.lanes):
        assert l1.g0 == l2.g0
        assert l1.max_ratio == l2.max_ratio


# sha256 of every lane's (model, g0, contained, close, first_violation,
# max_ratio.hex()) and of both fractions, as the per-step sweep gave them;
# 8 rays x 8 radii x 4 models at delta = pi/4, default epsilon and seed 3
# unless the case says otherwise.  The n_steps values sit on the edges of
# the 32-step blocks; the failing cases put first violations on rows 31-33
# and 95-96 and fail both checks on one row.
SWEEP_DIGESTS = [
    (dict(n_steps=1), "2a47fbab5f4675d6a149a5fb540f7b7b970a429619f37bdf2ffa137c417d0bc9"),
    (dict(n_steps=31), "612636c684578674328f01e87f0cffd7fd3f1f3bbd4b96cf785c464d511ea5e9"),
    (dict(n_steps=32), "606f2a85e930f1e75dc04ad3143944684bebd06777a78ddbf5a47499e407eae2"),
    (dict(n_steps=33), "7a0a512c5824ce8f0da6be0066b943e4aa0c7f1976bd0028effecab8cce090ad"),
    (dict(n_steps=64), "dd530ccf48b0f54280980235b801dcc31df8955aae2b03c21991c88d925f5f7a"),
    (dict(n_steps=65), "cad4985e0b0559601ed7c502ee441bab8d1104a4b35c75e653a4ab20ac587dc0"),
    (dict(a=-0.3, epsilon=0.05, n_steps=300, seed=1),
     "6bf0c60ea8d2ccc879982c6ec72efa8b0cd2ccc8d81fefa2d6a60ff299dea546"),
    (dict(a=2.0, epsilon=0.3, n_steps=65, seed=2),
     "73bb6fff4f1ead5fbcf2668e412c4ea573880aecf7be941a6023cf7e15b13391"),
    (dict(a=-1.0, epsilon=0.3, n_steps=100),
     "a547d63a679d675fe9d67383ffb5f7dd83060be88ffc5390fe0246264e604544"),
    (dict(delta=1.5, a=-0.3, epsilon=0.3, n_steps=100),
     "a2fd926882042766e5f3d40ef1c01a488ed5376bf9e7f5b3ff0e2afaa8fb3ab3"),
    (dict(delta=0.1, a=-1.0, epsilon=0.05, n_steps=130),
     "b160bfe0f32576c6930e5a25968ac4cd0151af1be767d2df7cdcc90815b79b3c"),
]


def _sweep_digest(case):
    kw = dict(delta=DELTA, n_rays=8, n_radii=8, seed=3)
    kw.update(case)
    kw.setdefault("epsilon", g1map.default_eps0(kw["delta"]))
    rep = g1map.sweep_sector(**kw)
    h = hashlib.sha256()
    for ln in rep.lanes:
        h.update(repr((ln.model, ln.g0, ln.contained, ln.close,
                       ln.first_violation, ln.max_ratio.hex())).encode())
    h.update(repr((rep.containment_fraction.hex(),
                   rep.closeness_fraction.hex())).encode())
    return h.hexdigest()


def _split(monkeypatch, parts):
    # every sweep takes `parts` shares, as on a host with that many cores
    monkeypatch.setattr(g1map, "_share_count", lambda n_lanes, n_steps: parts)


@pytest.mark.parametrize("case, expected", SWEEP_DIGESTS,
                         ids=[str(case) for case, _ in SWEEP_DIGESTS])
def test_sweep_is_bit_identical_to_the_per_step_sweep(case, expected):
    assert _sweep_digest(case) == expected


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("case, expected", SWEEP_DIGESTS,
                         ids=[str(case) for case, _ in SWEEP_DIGESTS])
def test_sweep_split_into_shares_is_bit_identical(case, expected, parts, monkeypatch):
    _split(monkeypatch, parts)
    assert _sweep_digest(case) == expected


@pytest.mark.parametrize("kw", [
    # odd lane counts: shares of unequal size
    dict(n_rays=7, n_radii=3),
    dict(n_rays=5, n_radii=1, models=("zero", "disk", "alternating")),
    # the disk lanes of a share are not one column range
    dict(n_rays=5, n_radii=2, models=("disk", "zero", "disk")),
], ids=str)
def test_shares_match_one_process_at_odd_lane_counts(kw, monkeypatch):
    kw = dict(delta=DELTA, epsilon=1e-2, n_steps=300, seed=4, **kw)
    _split(monkeypatch, 1)
    serial = g1map.sweep_sector(**kw)
    for parts in (2, 3, 7):
        _split(monkeypatch, parts)
        assert g1map.sweep_sector(**kw) == serial


# the overflowing sweeps run in one share whatever the share count; the
# non-finite ratio is found by every share
@pytest.mark.parametrize("kw, message", [
    (dict(epsilon=1e200, n_steps=5), "sweep leaves the float range at step 1"),
    (dict(epsilon=1e-250, n_steps=5), "closeness ratio is not finite at step 0"),
    (dict(epsilon=1e-200, a=1e307, n_steps=100, models=("zero",)),
     "drift sum leaves the float range at step 18"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_failing_sweep_raises_the_same_error_in_every_share_count(kw, message, monkeypatch):
    kw = dict(dict(delta=DELTA, n_rays=4, n_radii=4), **kw)
    for parts in (1, 2, 3):
        _split(monkeypatch, parts)
        with pytest.raises(ArithmeticError) as info:
            g1map.sweep_sector(**kw)
        assert type(info.value) is ArithmeticError
        assert str(info.value) == message


def test_sweep_that_could_leave_the_float_range_runs_in_one_share(monkeypatch):
    # there a failed lane could overflow after its own share has stopped
    run, shares = g1map._run_shares, []
    monkeypatch.setattr(g1map, "_run_shares",
                        lambda sweep, lanes: shares.append(len(lanes)) or run(sweep, lanes))
    _split(monkeypatch, 3)
    for epsilon in (1e-2, 1e150):
        g1map.sweep_sector(DELTA, epsilon, n_rays=4, n_radii=2, n_steps=10)
    with pytest.raises(ArithmeticError):
        g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=10, a=1e299)
    assert shares == [3, 1, 1]


def test_share_count_is_one_per_core_up_to_the_cap(monkeypatch):
    big = g1map._SPLIT_LANE_STEPS + 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert g1map._share_count(big, 1) == g1map._MAX_SHARES
    assert g1map._share_count(g1map._SPLIT_LANE_STEPS, 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert g1map._share_count(big, 1) == 1


def test_share_count_is_one_where_workers_cannot_fork(monkeypatch):
    big = g1map._SPLIT_LANE_STEPS + 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    # Windows has no fork start method
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert g1map._share_count(big, 1) == 1
    monkeypatch.undo()
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert g1map._share_count(big, 1) == 1


_SWEEP_LANES = g1map._sweep_lanes


def _sweep_lanes_or_die(*args):
    # a worker dies at once; this process runs its own share
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _SWEEP_LANES(*args)


def test_dead_worker_fails_the_sweep_without_hanging(monkeypatch):
    monkeypatch.setattr(g1map, "_sweep_lanes", _sweep_lanes_or_die)
    _split(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):   # a RuntimeError: the CLI exits 3
        g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=100)
    assert multiprocessing.active_children() == []


def test_sweep_leaves_no_worker_process(monkeypatch):
    _split(monkeypatch, 3)
    g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=100)
    assert multiprocessing.active_children() == []
    with pytest.raises(ArithmeticError):
        g1map.sweep_sector(DELTA, 1e-250, n_rays=4, n_radii=2, n_steps=5)
    assert multiprocessing.active_children() == []


@given(st.floats(0.002, 0.012), st.integers(0, 7))
def test_closeness_bound_random_rays(r, k):
    # property: |g_n - gtilde_n| <= |gtilde_n|^{3/2} holds inside the sector
    ang = (np.pi - DELTA) * (2.0 * (k / 7.0) - 1.0)
    g0 = r * np.exp(1j * ang)
    state = g1map.iterate(g0, 0.25, 3000, g1map.SectorDomain(0.015, DELTA))
    if state.escape_index is None:
        ok, _ = g1map.verify_closeness(state)
        assert ok


# ---------------------------------------------------------------------------
# independent high-precision check
# ---------------------------------------------------------------------------


def test_against_multiprecision_oracle():
    g0 = 0.01 * np.exp(1j * 2.0)
    a = 0.25
    n = 400
    traj_mp, final = oracle.mp_map_trajectory(g0, a, n)
    state = g1map.iterate(g0, a, n)
    assert np.max(np.abs(traj_mp - state.trajectory)) < 1e-14
    assert final.error < 1e-12
    assert final.value == pytest.approx(abs(state.trajectory[-1]), abs=1e-13)


def test_trajectory_rows_layout():
    state = g1map.iterate(0.01, 0.25, 50, g1map.SectorDomain(0.015, DELTA))
    rows = g1map.trajectory_rows(state)
    assert len(rows) == 51
    n, re_g, im_g, re_gt, im_gt, err, bound = rows[10]
    assert n == 10
    assert re_g == pytest.approx(state.trajectory[10].real)
    # err column is |g - gtilde|, bound is |gtilde|^{3/2}
    gt = 0.01 / (1.0 + 0.01 * 10 * state.A[10])
    assert re_gt == pytest.approx(gt.real)
    assert err <= bound
