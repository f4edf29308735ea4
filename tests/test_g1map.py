"""Quadratic map g -> g - a_n g^2: trajectories, approximants, sector checks."""

import functools
import hashlib
import math
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ok, margin = g1map.verify_closeness(state, g1map.approximant_path(state))
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


def test_iterate_without_a_domain_steps_the_plain_map():
    # no domain, so nothing escapes: a start on the negative side runs the
    # raw recurrence at every step
    g0, a = -0.01 + 0.001j, 0.25
    state = g1map.iterate(g0, a, 400)
    g = [g0]
    for _ in range(400):
        g.append(g[-1] - complex(a) * g[-1] * g[-1])
    assert state.escape_index is None
    assert np.array_equal(state.trajectory, g)


def test_escape_mid_run_freezes_the_tail():
    # a negative drift drives g0 = 0.01 out along the positive axis:
    # g_k ~ 1/(100 - k) passes the enlarged radius 3 eps/sin d = 0.0636 at k = 87
    dom = g1map.SectorDomain(0.015, DELTA)
    big = dom.trajectory_enlargement()
    state = g1map.iterate(0.01, -1.0, 200, dom)
    k = state.escape_index
    assert k == 87
    assert big.contains(state.trajectory[:k]).all()
    assert not big.contains(state.trajectory[k])
    assert (state.trajectory[k:] == state.trajectory[k]).all()


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


def _sector_points(dom):
    """Points where a cheaper sector test could part from the formula."""
    eps, edge = dom.epsilon, np.pi - dom.delta
    r, nan, inf = 0.5 * eps, np.nan, np.inf
    zs = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0, r, -r)]   # +-0, Re z = 0
    for th in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 4.0), 0.5 * np.pi):
        zs += [r * np.exp(1j * th), r * np.exp(-1j * th)]   # both boundary rays
    for m in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, inf)):
        zs += [m, -m, 1j * m, -1j * m]                       # |z| one ulp either side of eps
        zs += [m * np.exp(1j * 0.5 * (edge + 0.5 * np.pi))]
    zs += [complex(nan, 0.0), complex(0.0, nan), complex(-nan, r), complex(inf, 0.0),
           complex(-inf, 0.0), complex(0.0, inf), complex(inf, -inf), complex(nan, inf),
           complex(-inf, nan)]
    return np.array(zs)


@pytest.mark.parametrize("which", ["base", "approximant", "trajectory"])
def test_contains_matches_the_sector_formula(which):
    dom = g1map.SectorDomain(1e-2, DELTA)
    dom = {"base": dom, "approximant": dom.approximant_enlargement(),
           "trajectory": dom.trajectory_enlargement()}[which]
    zs = _sector_points(dom)
    expected = (np.abs(zs) < dom.epsilon) & (np.abs(np.angle(zs)) <= np.pi - dom.delta)
    assert expected.any() and not expected.all()
    for z in (zs, zs[None, :]):
        assert np.array_equal(dom.contains(z), expected.reshape(z.shape))
        assert np.array_equal(dom.contains(z, np.abs(z)), expected.reshape(z.shape))
    for z, inside in zip(zs, expected):
        assert dom.contains(z) is bool(inside)
        # np.abs: Python's abs(complex) can differ from it in the last bit
        assert dom.contains(complex(z), np.abs(z)) is bool(inside)


def test_boundary_ray_stays_in_enlarged_sector():
    g0 = 0.01 * np.exp(1j * 3.0 * np.pi / 4.0)
    dom = g1map.SectorDomain(0.015, DELTA)
    state = g1map.iterate(g0, 0.25, 10000, dom)
    assert state.escape_index is None
    ok, _ = g1map.verify_sector(state, g1map.approximant_path(state))
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
    # the radius 0.01 eps steps to g_1 ~ -1.96, inside the cap of 4.2, and
    # both g_2 and the drift sum 2e308 overflow: the step's error comes first
    (dict(delta=1e-152, epsilon=1.4e-152, a=1e308, n_steps=5, n_radii=8, models=("zero",)),
     "sweep leaves the float range at step 2"),
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


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("kw", [
    dict(n_rays=5, n_radii=3),
    dict(n_rays=5, n_radii=2, models=("disk", "zero", "disk")),
    # one lane draws nothing: it makes one share whatever the share count
    dict(n_rays=1, n_radii=1, models=("zero", "disk")),
], ids=str)
def test_disk_lanes_make_one_share_that_this_process_does_not_run(kw, parts, monkeypatch):
    run, split = g1map._run_shares, []
    monkeypatch.setattr(g1map, "_run_shares",
                        lambda sweep, shares: split.append((sweep[1], shares)) or run(sweep, shares))
    _split(monkeypatch, parts)
    g1map.sweep_sector(DELTA, 1e-2, n_steps=100, seed=4, **kw)
    (kind, shares), = split
    is_disk = kind == "disk"
    assert len(shares) == min(parts, int((~is_disk).sum()) + 1)
    assert min(share.size for share in shares) > 0
    assert np.array_equal(np.sort(np.concatenate(shares)), np.arange(kind.size))
    # share 0 runs in this process
    assert not is_disk[shares[0]].any()
    drawing = [share for share in shares if is_disk[share].any()]
    assert len(drawing) == 1 and np.array_equal(drawing[0], np.flatnonzero(is_disk))


def test_split_mixed_sweep_draws_only_in_a_worker(monkeypatch):
    kw = dict(delta=DELTA, epsilon=1e-2, n_rays=5, n_radii=3, n_steps=300, seed=4)
    _split(monkeypatch, 1)
    serial = g1map.sweep_sector(**kw)
    default_rng, main = np.random.default_rng, os.getpid()

    def worker_rng(seed):
        if os.getpid() == main:
            raise AssertionError("the sweep drew in this process")
        return default_rng(seed)
    monkeypatch.setattr(np.random, "default_rng", worker_rng)
    _split(monkeypatch, 2)
    assert g1map.sweep_sector(**kw) == serial


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
    # Windows has no os.fork
    monkeypatch.delattr(os, "fork", raising=False)
    assert g1map._share_count(big, 1) == 1
    monkeypatch.undo()
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert g1map._share_count(big, 1) == 1


def _assert_no_child_process():
    # a raw fork is no multiprocessing child: ask the kernel
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the share runs below replace _sweep_lanes; they are module functions, and
# a worker tells itself from this process by its pid
_SWEEP_LANES, _MAIN_PID = g1map._sweep_lanes, os.getpid()


def _sweep_lanes_or_die(*args):
    # a worker dies at once; this process runs its own share
    if os.getpid() != _MAIN_PID:
        os._exit(1)
    return _SWEEP_LANES(*args)


class _ExitWhilePickled:
    def __reduce__(self):
        os._exit(0)


def _sweep_lanes_or_exit_while_pickled(*args):
    # a worker exits 0 before its result is all in the pipe
    return _SWEEP_LANES(*args) if os.getpid() == _MAIN_PID else _ExitWhilePickled()


def _sweep_lanes_or_sleep(error, *args):
    # share 0 raises while a worker share runs for minutes
    if os.getpid() != _MAIN_PID:
        time.sleep(10)
        os._exit(0)
    raise error


def _assert_dead_worker_fails_the_sweep(run, monkeypatch):
    monkeypatch.setattr(g1map, "_sweep_lanes", run)
    _split(monkeypatch, 2)
    with pytest.raises(RuntimeError):   # the CLI exits 3
        g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=100)
    _assert_no_child_process()


def test_dead_worker_fails_the_sweep_without_hanging(monkeypatch):
    _assert_dead_worker_fails_the_sweep(_sweep_lanes_or_die, monkeypatch)


def test_worker_with_a_short_result_fails_the_sweep(monkeypatch):
    _assert_dead_worker_fails_the_sweep(_sweep_lanes_or_exit_while_pickled, monkeypatch)


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_failing_share_0_stops_the_workers_at_once(error, monkeypatch):
    monkeypatch.setattr(g1map, "_sweep_lanes", functools.partial(_sweep_lanes_or_sleep, error))
    _split(monkeypatch, 3)
    begin = time.monotonic()
    with pytest.raises(error):
        g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=100)
    assert time.monotonic() - begin < 1.0
    _assert_no_child_process()


def test_sweep_leaves_no_worker_process(monkeypatch):
    _split(monkeypatch, 3)
    g1map.sweep_sector(DELTA, 1e-2, n_rays=4, n_radii=2, n_steps=100)
    _assert_no_child_process()
    with pytest.raises(ArithmeticError):
        g1map.sweep_sector(DELTA, 1e-250, n_rays=4, n_radii=2, n_steps=5)
    _assert_no_child_process()


# ---------------------------------------------------------------------------
# the sweep kernel against the per-step sweep
# ---------------------------------------------------------------------------


def _per_step_sweep_lanes(lanes, g0, kind, sig_scale, a, d1, d2, n_steps, seed):
    """The reference for g1map._sweep_lanes: the per-step sweep, which
    freezes the lanes outside the cap at every step and raises on overflow."""
    _BLOCK = g1map._BLOCK
    is_disk = kind == "disk"
    n_disk = int(is_disk.sum())
    # the serial sweep's draw column of each of these disk lanes
    cols = (np.cumsum(is_disk) - 1)[lanes[is_disk[lanes]]]
    g0, kind, sig_scale = g0[lanes], kind[lanes], sig_scale[lanes]
    disk = np.flatnonzero(kind == "disk")
    rng = np.random.default_rng(seed)
    # a_n of the block's rows j: _BLOCK is even, so (-1)^j is (-1)^n; the
    # disk columns are drawn anew for every block
    drift = np.where((kind == "constant") | (kind == "alternating"),
                     sig_scale, 0.0)
    sign = np.where(kind == "alternating", -1.0, 1.0)
    a_n = (a + drift * sign ** np.arange(_BLOCK)[:, None]).astype(complex)

    G = np.empty((_BLOCK + 1, g0.size), dtype=complex)   # g_n of the block
    S = np.empty_like(G)                                 # prefix sums of a_k
    G[0], S[0] = g0, 0.0
    out = (np.ones(g0.size, dtype=bool), np.ones(g0.size, dtype=bool),
           np.full(g0.size, -1, dtype=np.int64), np.zeros(g0.size))
    ok_contain, ok_close, first_bad, max_ratio = out
    alive = np.ones(g0.size, dtype=bool)
    rows = np.arange(_BLOCK)[:, None]

    for start in range(0, n_steps + 1, _BLOCK):
        k = min(_BLOCK, n_steps + 1 - start)     # rows n = start .. start+k-1
        steps = min(k, n_steps - start)
        if n_disk:
            u = rng.random((steps, 2, n_disk))
            a_n[:steps, disk] = a + sig_scale[disk] * np.sqrt(u[:, 0, cols]) * \
                np.exp(1j * (2.0 * math.pi * u[:, 1, cols]))
        # a live lane has |g| < d2.epsilon; a lane past its failing row
        # steps from 0 instead, so only a live lane can overflow
        with np.errstate(over="raise"):
            for j in range(steps):
                try:
                    g = np.where(np.abs(G[j]) < d2.epsilon, G[j], 0.0)
                    G[j + 1] = g - a_n[j] * g * g
                except FloatingPointError:
                    return out, (start + j + 1, "sweep leaves the float range "
                                 "at step %d" % (start + j + 1))
                try:
                    S[j + 1] = S[j] + a_n[j]
                except FloatingPointError:
                    return out, (start + j + 1, "drift sum leaves the float range "
                                 "at step %d" % (start + j + 1))

        g, s = G[:k], S[:k]
        gt = g0 / (1.0 + g0 * s)
        with np.errstate(divide="ignore", invalid="ignore"):   # a non-finite ratio ends the run below
            ratio = np.abs(g - gt) / np.maximum(np.abs(gt), 1e-300) ** 1.5
        bad_close = ratio > 1.0
        bad_cont = ~((np.abs(g) < d2.epsilon) & (np.abs(np.angle(g)) <= np.pi - d2.delta) &
                     (np.abs(gt) < d1.epsilon) & (np.abs(np.angle(gt)) <= np.pi - d1.delta))
        bad = (bad_close | bad_cont) & alive
        hit = np.flatnonzero(bad.any(axis=0))
        last = np.full(g0.size, k - 1)
        last[hit] = bad[:, hit].argmax(axis=0)
        counted = (rows[:k] <= last) & alive
        np.maximum(max_ratio, np.where(counted, ratio, 0.0).max(axis=0), out=max_ratio)
        if not np.isfinite(max_ratio).all():   # a nan ratio is not > 1, so it would pass as close
            step = start + (counted & ~np.isfinite(ratio)).any(axis=1).argmax()
            return out, (step, "closeness ratio is not finite at step %d" % step)
        first_bad[hit] = start + last[hit]
        ok_close[hit] = ~bad_close[last[hit], hit]
        ok_contain[hit] = ~bad_cont[last[hit], hit]
        alive[hit] = False
        if not alive.any():
            break
        G[0], S[0] = G[k], S[k]
    return out, None


def _kernel_result(kernel, lanes, sweep):
    """Bytes of (contained, close, first_bad, max_ratio) and the error, or
    the floating-point fault that a check raised (the CLI raises on every
    flag, and the tests raise RuntimeWarning)."""
    try:
        out, err = kernel(lanes, *sweep)
    except (FloatingPointError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return [x.tobytes() for x in out], err


class _Sweep(Exception):
    """Carries the arguments sweep_sector hands to its share run."""


def _assert_kernel_matches_the_per_step_sweep(**kw):
    def capture(sweep, shares):
        raise _Sweep(sweep)
    with mock.patch.object(g1map, "_run_shares", capture), pytest.raises(_Sweep) as info:
        g1map.sweep_sector(**kw)
    sweep = info.value.args[0]
    n_models = len(kw["models"])
    n_pts = sweep[0].size // n_models
    offsets = n_pts * np.arange(n_models)[:, None]
    for parts in (1, 2):   # as sweep_sector splits the lanes
        for share in np.array_split(np.arange(n_pts), min(parts, n_pts)):
            lanes = (offsets + share).ravel()
            assert _kernel_result(g1map._sweep_lanes, lanes, sweep) == \
                _kernel_result(_per_step_sweep_lanes, lanes, sweep)


@settings(max_examples=60)
@given(a=st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 3.0)).map(
           lambda t: t[0] * 10.0 ** t[1]),
       epsilon=st.floats(-250.0, 200.0).map(lambda e: 10.0 ** e),
       delta=st.floats(0.01, 1.55), n_steps=st.integers(1, 200),
       models=st.lists(st.sampled_from(g1map.SIGMA_MODELS), min_size=1, max_size=4),
       n_rays=st.integers(1, 6), n_radii=st.integers(1, len(g1map.RADII)),
       seed=st.integers(0, 2 ** 32 - 1))
# an overflow at step 1, a ratio that is not finite at step 0, a drift sum
# that overflows at step 18, and one lane, whose complex products numpy
# rounds differently in place
@example(a=0.25, epsilon=1e200, delta=DELTA, n_steps=5, models=["zero", "disk"],
         n_rays=4, n_radii=4, seed=0)
@example(a=0.25, epsilon=1e-250, delta=DELTA, n_steps=5, models=["disk"],
         n_rays=4, n_radii=4, seed=0)
@example(a=1e307, epsilon=1e-200, delta=DELTA, n_steps=100, models=["zero"],
         n_rays=4, n_radii=4, seed=0)
@example(a=-1.0, epsilon=10.0 ** 0.05, delta=0.125, n_steps=1, models=["zero"],
         n_rays=1, n_radii=1, seed=0)
def test_kernel_is_bit_identical_to_the_per_step_sweep(models, **kw):
    _assert_kernel_matches_the_per_step_sweep(models=tuple(models), **kw)


# g0 = 0.05065 exp(0.01 i) under a = -1 is 6.6e153 + 1.17e154 i at step 31,
# and at step 32 a finite value whose modulus overflows: the per-step sweep
# freezes it, as np.abs raises no overflow flag
@pytest.mark.parametrize("g0, n_steps", [
    ((0.05065 * np.exp(0.01j), 1e-3), 40),
    ((0.05065 * np.exp(0.01j),), 40),
    ((0.05065 * np.exp(0.01j), 1e-3), 33),
    ((6.615990049364549e153 + 1.1690555014568709e154j, 1e-3), 5),
], ids=str)
def test_kernel_freezes_a_finite_row_whose_modulus_overflows(g0, n_steps):
    g0 = np.array(g0)
    dom = g1map.SectorDomain(2e154, 0.1)
    sweep = (g0, np.full(g0.size, "zero"), np.zeros(g0.size), -1.0, dom, dom, n_steps, 0)
    lanes = np.arange(g0.size)
    expected = _kernel_result(_per_step_sweep_lanes, lanes, sweep)
    assert _kernel_result(g1map._sweep_lanes, lanes, sweep) == expected


@given(st.floats(0.002, 0.012), st.integers(0, 7))
def test_closeness_bound_random_rays(r, k):
    # property: |g_n - gtilde_n| <= |gtilde_n|^{3/2} holds inside the sector
    ang = (np.pi - DELTA) * (2.0 * (k / 7.0) - 1.0)
    g0 = r * np.exp(1j * ang)
    state = g1map.iterate(g0, 0.25, 3000, g1map.SectorDomain(0.015, DELTA))
    if state.escape_index is None:
        ok, _ = g1map.verify_closeness(state, g1map.approximant_path(state))
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
    rows = list(g1map.trajectory_rows(state, g1map.approximant_path(state)))
    assert len(rows) == 51
    n, re_g, im_g, re_gt, im_gt, err, bound = rows[10]
    assert n == 10
    assert re_g == pytest.approx(state.trajectory[10].real)
    # err column is |g - gtilde|, bound is |gtilde|^{3/2}
    gt = 0.01 / (1.0 + 0.01 * 10 * state.A[10])
    assert re_gt == pytest.approx(gt.real)
    assert err <= bound
