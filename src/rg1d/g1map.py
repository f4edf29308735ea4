"""Complex quadratic flow map g_{n+1} = g_n - a_n g_n^2 on a sector domain.

The map models the scale-by-scale decay of the marginally irrelevant
backscattering coupling.  The drift coefficients a_n = a + sigma_n carry a
positive mean a and bounded perturbations |sigma_n| <= c0 |g0|; the closed
form approximant

    gtilde_n = g0 / (1 + g0 n A_n),    A_n = (1/n) sum_{k<n} a_k

tracks the trajectory to relative accuracy |gtilde_n|^{1/2}.  This module
iterates the map and evaluates the approximant.  Two checks verify one
run, each returning an (ok, margin) pair: the closeness bound, and the
sector containments (g_n in the (3 eps/sin d, d/4) domain, gtilde_n in the
(2 eps/sin d, d/2) one, the consequence of the lower bound on the
approximant's denominator).  sweep_sector runs both checks on vectorized
(ray x radius x perturbation-model) sweeps; a large sweep splits its lanes
over the available cores, and its report, or the error it raises, is
bit-identical whatever the CPU count.
"""

import math
import os
import numpy as np
from dataclasses import dataclass

# ----------------------------------------------------------------------
# sector domains
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SectorDomain:
    """D_{eps,delta} = {|z| < eps, |Arg z| <= pi - delta}, 0 < delta < pi/2."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5 * math.pi:
            raise ValueError("delta must lie in (0, pi/2)")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        inside = (np.abs(z) < self.epsilon) & \
                 (np.abs(np.angle(z)) <= math.pi - self.delta)
        return inside if inside.shape else bool(inside)

    def approximant_enlargement(self):
        """Domain the approximant provably stays in: (2 eps/sin d, d/2)."""
        return SectorDomain(2.0 * self.epsilon / math.sin(self.delta),
                            0.5 * self.delta)

    def trajectory_enlargement(self):
        """Domain the trajectory provably stays in: (3 eps/sin d, d/4)."""
        return SectorDomain(3.0 * self.epsilon / math.sin(self.delta),
                            0.25 * self.delta)


def default_eps0(delta):
    """Admissible domain radius for the closeness induction; small enough in
    practice for every delta (the sweep tests map the empirical region)."""
    return 1e-2 * math.sin(delta) ** 2


def default_sigma_scale(a, epsilon):
    """Largest c0 compatible with c0 * epsilon <= a/2 (keeps Re a_n >= a/2)."""
    return 0.5 * a / epsilon


# ----------------------------------------------------------------------
# perturbation models and iteration
# ----------------------------------------------------------------------

SIGMA_MODELS = ("zero", "constant", "disk", "alternating")


def sigma_sequence(model, n, scale, seed=0):
    """Length-n drift perturbation sequence with |sigma_k| <= scale.

    zero: no drift; constant: worst-case real shift +scale; disk: uniform in
    the complex disk of radius scale (seeded); alternating: (-1)^k scale.
    """
    if model == "zero":
        return np.zeros(n, dtype=complex)
    if model == "constant":
        return np.full(n, scale, dtype=complex)
    if model == "alternating":
        s = np.full(n, scale, dtype=complex)
        s[1::2] *= -1.0
        return s
    if model == "disk":
        rng = np.random.default_rng(seed)
        r = scale * np.sqrt(rng.random(n))
        th = 2.0 * math.pi * rng.random(n)
        return r * np.exp(1j * th)
    raise ValueError("unknown perturbation model %r" % (model,))


@dataclass
class MapState:
    """A realized trajectory with its Cesaro data.

    trajectory[k] = g_k for k = 0..n; A[k] = (1/k) sum_{j<k} a_j for k >= 1
    (A[0] = 0, it multiplies n = 0).  escape_index is the first k whose g_k
    left the enlarged trajectory domain, or None. Lanes are frozen after
    escape.
    """

    g0: complex
    trajectory: np.ndarray
    A: np.ndarray
    domain: SectorDomain
    escape_index: int | None


def iterate(g0, a_seq, n, domain=None):
    """Iterate the map n steps and record the trajectory.

    a_seq: scalar mean drift a (sigma = 0) or a length-n array of a_k values.
    domain: the base sector of g0; escape is judged against its trajectory
    enlargement.  After an escape the state is frozen to avoid overflow.
    A drift sum or a step that leaves the float range raises ArithmeticError.
    """
    if np.ndim(a_seq) == 0:
        a_arr = np.full(n, float(np.real(a_seq)), dtype=complex)
    else:
        a_arr = np.asarray(a_seq, dtype=complex)
        if a_arr.size < n:
            raise ValueError("a_seq shorter than the requested horizon")
        a_arr = a_arr[:n]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite sum raises below
        csum = np.concatenate(([0.0 + 0.0j], np.cumsum(a_arr)))
    finite = np.isfinite(csum)
    if not finite.all():
        raise ArithmeticError("drift sum leaves the float range at step %d"
                              % np.argmin(finite))
    if domain is None:
        domain = SectorDomain(max(abs(g0) * 1.0000001, 1e-300), math.pi / 4)
    big = domain.trajectory_enlargement()

    traj = np.empty(n + 1, dtype=complex)
    traj[0] = g0
    g = complex(g0)
    escape = None if big.contains(g0) else 0
    with np.errstate(over="raise"):
        for k in range(n):
            if escape is None:
                try:
                    g = g - a_arr[k] * g * g
                except FloatingPointError:
                    raise ArithmeticError("map trajectory leaves the float "
                                          "range at step %d" % (k + 1)) from None
                if not big.contains(g):
                    escape = k + 1
            traj[k + 1] = g
    A = csum / np.maximum(np.arange(n + 1), 1)
    return MapState(complex(g0), traj, A, domain, escape)


# ----------------------------------------------------------------------
# approximant and verification reports
# ----------------------------------------------------------------------


def approximant_path(state):
    """Closed form gtilde_k = g0 / (1 + g0 k A_k) for k = 0..n from the
    recorded Cesaro averages A_k.  A pole on the horizon raises
    ArithmeticError."""
    n = state.trajectory.size - 1
    ks = np.arange(n + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # a pole raises below
        gt = state.g0 / (1.0 + state.g0 * ks * state.A)
    finite = np.isfinite(gt)
    if not finite.all():
        raise ArithmeticError("approximant denominator vanishes at step %d"
                              % np.argmin(finite))
    return gt


def verify_closeness(state):
    """(ok, margin) of |g_n - gtilde_n| <= |gtilde_n|^{3/2} along the whole
    horizon; margin is the max of lhs - rhs, <= 0 iff ok."""
    gt = approximant_path(state)
    excess = np.abs(state.trajectory - gt) - np.abs(gt) ** 1.5
    return not (excess > 0).any(), float(np.max(excess))


def verify_sector(state):
    """(ok, margin) of gtilde_n in the (2eps/sin d, d/2) domain and g_n in
    the (3eps/sin d, d/4) domain for the whole horizon; margin is
    max |g_n| - 3 eps/sin d."""
    d1 = state.domain.approximant_enlargement()
    d2 = state.domain.trajectory_enlargement()
    gt = approximant_path(state)
    ok = (d2.contains(state.trajectory) & d1.contains(gt)).all()
    return bool(ok), float(np.max(np.abs(state.trajectory)) - d2.epsilon)


# ----------------------------------------------------------------------
# vectorized sector sweep
# ----------------------------------------------------------------------


_BLOCK = 32   # rows per sweep block; even, so a block starts on an even step
# lanes x steps above which a sweep splits its lanes over the available
# cores, and the most shares it takes.  Both were measured on 2 cores only:
# at 1024 lanes two shares took 0.14-0.17 s against 0.11-0.14 s in one
# process at 1000 steps, broke even at 4000 and took 0.46-0.48 s against
# 0.71-0.77 s at 8000.  Every share repeats the disk draws and the per-step
# loop, so more shares wait for a measurement on more cores
_SPLIT_LANE_STEPS = 4 * 10 ** 6
_MAX_SHARES = 2
# radii of the swept g0, as fractions of epsilon; a sweep takes the first n_radii
RADII = (0.999, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01)


@dataclass(frozen=True)
class SweepLaneReport:
    model: str
    g0: complex
    contained: bool
    close: bool
    first_violation: int | None
    max_ratio: float     # max |g - gtilde| / |gtilde|^{3/2} along the run


@dataclass(frozen=True)
class SweepReport:
    n_steps: int
    lanes: list
    containment_fraction: float
    closeness_fraction: float


def drift_bound(a, epsilon, models):
    """Bound on |a_n| in a sweep of these models over D_{eps,delta}: every
    model but zero drifts by at most a/(2 eps) |g0| with |g0| < eps."""
    if set(models) <= {"zero"}:
        return abs(a)
    return abs(a) + abs(default_sigma_scale(a, epsilon)) * epsilon


def sweep_sector(delta, epsilon, n_rays=32, n_radii=len(RADII),
                 n_steps=10 ** 5, a=0.25, models=SIGMA_MODELS, seed=0):
    """Vectorized verification sweep over g0 = r e^{i theta} in D_{eps,delta}.

    All (ray, radius, model) lanes are iterated simultaneously, _BLOCK steps
    at a time; containment (trajectory in the 3eps/sin d sector, approximant
    in the 2eps/sin d one) and the closeness bound are then checked on every
    row of the block at once, so the memory cost is O(lanes x _BLOCK)
    independent of n_steps.  A lane is frozen at its first failing row.

    The lanes are split into _share_count shares, each an equal contiguous
    share of every model's lanes; one share runs in this process and the
    others in a fork pool, all through _sweep_lanes.  Lanes do not interact,
    and every share draws the full disk block and keeps its own columns, so
    the report, and the error a failing sweep raises, are bit-identical for
    every number of shares, and so whatever the CPU count.  A sweep in
    which a lane could leave the float range runs in one share: there a
    failed lane, which the serial sweep steps on while another lane is
    live, could raise after its own share has stopped.
    """
    thetas = np.linspace(-(math.pi - delta), math.pi - delta, n_rays)
    radii = epsilon * np.array(RADII[:n_radii])
    g0 = (radii[:, None] * np.exp(1j * thetas[None, :])).ravel()
    n_pts = g0.size
    models = tuple(models)
    g0 = np.tile(g0, len(models))
    kind = np.repeat(models, n_pts)

    dom = SectorDomain(epsilon, delta)
    d2 = dom.trajectory_enlargement()
    sig_scale = default_sigma_scale(a, epsilon) * np.abs(g0)
    sweep = (g0, kind, sig_scale, a, dom.approximant_enlargement(), d2,
             n_steps, seed)
    # |a_n| <= top, and a lane steps from |g| < cap or from 0: below these
    # bounds no step and no drift sum can overflow
    top, cap = drift_bound(a, epsilon, models), d2.epsilon
    parts = 1
    if 2.0 * (cap + 4.0 * top * cap * cap) < 1e300 and 2.0 * top * (n_steps + 1) < 1e300:
        parts = _share_count(g0.size, n_steps)
    offsets = n_pts * np.arange(len(models))[:, None]
    shares = [(offsets + share).ravel()
              for share in np.array_split(np.arange(n_pts), min(parts, n_pts))]
    results = _run_shares(sweep, shares)

    errors = [err for _, err in results if err is not None]
    if errors:   # the serial sweep raises the error of the earliest step
        raise ArithmeticError(min(errors)[1])
    merged = [np.empty(g0.size, dtype=dt) for dt in (bool, bool, np.int64, float)]
    for lanes, (out, _) in zip(shares, results):
        for full, part in zip(merged, out):
            full[lanes] = part
    ok_contain, ok_close, first_bad, max_ratio = merged

    lanes = []
    for i in range(g0.size):
        lanes.append(SweepLaneReport(str(kind[i]), complex(g0[i]),
                                     bool(ok_contain[i]), bool(ok_close[i]),
                                     int(first_bad[i]) if first_bad[i] >= 0
                                     else None, float(max_ratio[i])))
    return SweepReport(n_steps, lanes,
                       float(np.mean(ok_contain)), float(np.mean(ok_close)))


def _share_count(n_lanes, n_steps):
    """One share per available core, at most _MAX_SHARES, when lanes x steps
    exceeds _SPLIT_LANE_STEPS and the platform can fork its workers (Linux:
    macOS and Windows have no sched_getaffinity); else one."""
    if n_lanes * n_steps <= _SPLIT_LANE_STEPS or not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing   # here, so that import and small sweeps never load it
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(_MAX_SHARES, len(os.sched_getaffinity(0)))


def _run_shares(sweep, shares):
    """_sweep_lanes of every share: the first in this process, the others in
    a fork pool whose workers are reaped before this returns or raises; a
    worker that dies raises BrokenProcessPool, a RuntimeError."""
    if len(shares) == 1:
        return [_sweep_lanes(shares[0], *sweep)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork: the workers inherit the loaded modules.  The executor forks its
    # workers before it starts its own thread, but numpy's OpenBLAS may run
    # a thread pool by then; OpenBLAS stops it across a fork (pthread_atfork),
    # and a worker only runs _sweep_lanes.  Python 3.12 and later still warn
    # (DeprecationWarning, hidden by default) on a fork of a threaded process
    with ProcessPoolExecutor(len(shares) - 1,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        pending = [pool.submit(_sweep_lanes, lanes, *sweep) for lanes in shares[1:]]
        return [_sweep_lanes(shares[0], *sweep)] + [f.result() for f in pending]


def _sweep_lanes(lanes, g0, kind, sig_scale, a, d1, d2, n_steps, seed):
    """The sweep of the lanes g0[lanes] (a sorted index array).

    Returns (contained, close, first_bad, max_ratio) of those lanes and
    the first error as (step, message), or None.  It does not raise: a step
    that leaves the float range, a drift sum that does and a non-finite
    closeness ratio end the run with their error.  The run stops once all
    of its lanes have failed.
    """
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
        bad_cont = ~(d2.contains(g) & d1.contains(gt))
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


# ----------------------------------------------------------------------
# trajectory table
# ----------------------------------------------------------------------


def trajectory_rows(state):
    """Rows (n, re_g, im_g, re_gtilde, im_gtilde, err, bound) for CSV dumps."""
    gt = approximant_path(state)
    err = np.abs(state.trajectory - gt)
    bound = np.abs(gt) ** 1.5
    out = []
    for n in range(state.trajectory.size):
        gn, gtn = state.trajectory[n], gt[n]
        out.append((n, gn.real, gn.imag, gtn.real, gtn.imag,
                    float(err[n]), float(bound[n])))
    return out
