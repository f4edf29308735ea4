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
(ray x radius x perturbation-model) sweeps.  Its kernel steps a block of
rows with three ufuncs per step and applies the per-step sweep's freeze
and overflow rules once per block, so its report, or the error it raises,
is bit-identical to that sweep's (the tests keep it as the reference); a
large sweep splits its lanes over the available cores, bit-identically
whatever the CPU count.
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

    def contains(self, z, modulus=None):
        """z in D, elementwise; modulus, if given, is np.abs(z).  Where
        Re z > 0, |Arg z| < pi/2 < pi - delta, so only the other points
        take the angle."""
        z = np.asarray(z, dtype=complex)
        inside = (np.abs(z) if modulus is None else modulus) < self.epsilon
        edge = math.pi - self.delta
        if not z.shape:
            return bool(inside and (z.item().real > 0.0 or np.abs(np.angle(z)) <= edge))
        left = inside & (z.real <= 0.0)
        inside[left] = np.abs(np.angle(z[left])) <= edge
        return inside

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
    left the enlarged trajectory domain, or None (always None without a
    domain). Lanes are frozen after escape.
    """

    g0: complex
    trajectory: np.ndarray
    A: np.ndarray
    domain: SectorDomain | None
    escape_index: int | None


def iterate(g0, a_seq, n, domain=None):
    """Iterate the map n steps and record the trajectory.

    a_seq: scalar mean drift a (sigma = 0) or a length-n array of a_k values.
    domain: the base sector of g0; escape is judged against its trajectory
    enlargement, and after an escape the state is frozen to avoid overflow.
    Without a domain every step is the plain map and nothing escapes.
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
    big = None if domain is None else domain.trajectory_enlargement()

    traj = np.empty(n + 1, dtype=complex)
    traj[0] = g0
    g = complex(g0)
    escape = None if big is None or big.contains(g0) else 0
    with np.errstate(over="raise"):
        for k in range(n):
            if escape is None:
                try:
                    g = g - a_arr[k] * g * g
                except FloatingPointError:
                    raise ArithmeticError("map trajectory leaves the float "
                                          "range at step %d" % (k + 1)) from None
                if big is not None and not big.contains(g):
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


def verify_closeness(state, gt):
    """(ok, margin) of |g_n - gtilde_n| <= |gtilde_n|^{3/2} along the whole
    horizon, gt being approximant_path(state); margin is the max of
    lhs - rhs, <= 0 iff ok."""
    excess = np.abs(state.trajectory - gt) - np.abs(gt) ** 1.5
    return not (excess > 0).any(), float(np.max(excess))


def verify_sector(state, gt):
    """(ok, margin) of gtilde_n = gt[n] (approximant_path(state)) in the
    (2eps/sin d, d/2) domain and g_n in the (3eps/sin d, d/4) domain for
    the whole horizon; margin is max |g_n| - 3 eps/sin d."""
    d1 = state.domain.approximant_enlargement()
    d2 = state.domain.trajectory_enlargement()
    ok = (d2.contains(state.trajectory) & d1.contains(gt)).all()
    return bool(ok), float(np.max(np.abs(state.trajectory)) - d2.epsilon)


# ----------------------------------------------------------------------
# vectorized sector sweep
# ----------------------------------------------------------------------


_BLOCK = 32   # rows per sweep block; even, so a block starts on an even step
# lanes x steps above which a sweep splits its lanes over the available
# cores, and the most shares it takes.  Both were measured on 2 cores only,
# seven fresh processes per point, the default 1024 lanes, sweep_sector
# alone: two shares took 0.088-0.109 s (median 0.095) against 0.070-0.101 s
# (0.095) in one at 1000 steps, 0.20-0.34 s (0.22) against 0.25-0.32 s
# (0.30) at 4000 and 0.34-0.53 s (0.40) against 0.40-0.62 s (0.52) at 8000,
# so the split breaks even near 1e6 lane-steps; the bound stays until a
# benchmark workload below it confirms that.  Only the disk share draws,
# but every share runs the block loop, so more shares wait for a
# measurement on more cores.  The two shares are 768 lanes that draw
# nothing and the 256 disk lanes; run serially at 1e5 steps they took
# medians of 3.5 and 3.2 s (seven runs each, ratios 0.91-1.24): the disk
# lanes' draws and exponentials cost about what three times as many
# other lanes do
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

    The lanes are split into _share_count shares; share 0 runs in this
    process and each other one in a forked child, all through _sweep_lanes.  A
    sweep that mixes disk lanes with lanes that draw nothing puts every
    disk lane in the last share and splits the others into at most
    _share_count - 1 shares, so this process never loads numpy.random or
    draws; any other sweep gives each share an equal contiguous share of
    every model's lanes.  Lanes do not interact, and a share with disk
    lanes draws the serial sweep's full disk block and keeps its own
    columns, so the report, and the error a failing sweep raises, are
    bit-identical for every number of shares, and so whatever the CPU
    count.  A sweep in which a lane could leave the float range runs in
    one share: there a failed lane, which the serial sweep steps on while
    another lane is live, could raise after its own share has stopped.
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
    is_disk = kind == "disk"
    if parts > 1 and is_disk.any() and not is_disk.all():
        others = np.flatnonzero(~is_disk)
        shares = np.array_split(others, min(parts - 1, others.size)) + [np.flatnonzero(is_disk)]
    else:
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
    macOS has no sched_getaffinity, Windows no os.fork either); else one."""
    if n_lanes * n_steps <= _SPLIT_LANE_STEPS or not hasattr(os, "fork") \
            or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(_MAX_SHARES, len(os.sched_getaffinity(0)))


def _run_shares(sweep, shares):
    """_sweep_lanes of every share: the first in this process, each other in
    a forked child that pickles its result into a pipe and exits.  A child
    that fails or dies raises RuntimeError.  Every child is reaped before
    this returns or raises, and one still running when this raises is
    killed first, so a failing share 0 does not wait for the others."""
    if len(shares) == 1:
        return [_sweep_lanes(shares[0], *sweep)]
    import pickle
    import signal
    import traceback
    # a child inherits the loaded modules and only runs _sweep_lanes.  numpy's
    # OpenBLAS may run a thread pool by then; OpenBLAS stops it across a fork
    # (pthread_atfork).  Python 3.12 and later still warn (DeprecationWarning,
    # hidden by default) on a fork of a threaded process
    children = {}   # pid -> the read end of its pipe
    try:
        for lanes in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:   # the child never returns into the caller's stack
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as fh:
                        pickle.dump(_sweep_lanes(lanes, *sweep), fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                except Exception:   # the parent sees the status only
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = read
        results = [_sweep_lanes(shares[0], *sweep)]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status:
                raise RuntimeError("sweep worker exited with status %d" % status)
            try:
                results.append(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError("sweep worker sent a short result") from None
        return results
    finally:
        for pid, read in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _sweep_lanes(lanes, g0, kind, sig_scale, a, d1, d2, n_steps, seed):
    """The sweep of the lanes g0[lanes] (a sorted index array).

    Returns (contained, close, first_bad, max_ratio) of those lanes and
    the first error as (step, message), or None.  It does not raise: a step
    that leaves the float range, a drift sum that does and a non-finite
    closeness ratio end the run with their error.  The run stops once all
    of its lanes have failed.

    The results are those of the per-step sweep, which takes every step
    from g where |g| < cap = d2.epsilon and from 0 elsewhere, and raises
    on overflow.  Here every lane takes the block's steps unchecked, the
    freeze applied to row 0 only.  One |g| of the block's rows then finds
    each lane's first row outside the cap: if that row is not finite, the
    per-step sweep overflowed there, and otherwise the rows after it are
    set to 0, the values that sweep has.  The first non-finite row of the
    drift sums is its drift-sum error, which a step error at the same step
    precedes.  The checks write into buffers allocated once and take |g|
    and |gtilde| from them; they overwrite rows 0..k-1 of a k-row block
    only, so row k, the carry into the next block, keeps g_n, the drift sum
    and |g_n|.

    Only a share with disk lanes makes a generator: for every block it draws
    the serial sweep's full disk block, all of the sweep's disk lanes, and
    keeps its own columns.
    """
    is_disk = kind == "disk"
    n_disk = int(is_disk.sum())
    # the serial sweep's draw column of each of these disk lanes
    cols = (np.cumsum(is_disk) - 1)[lanes[is_disk[lanes]]]
    g0, kind, sig_scale = g0[lanes], kind[lanes], sig_scale[lanes]
    disk = np.flatnonzero(kind == "disk")
    rng = np.random.default_rng(seed) if disk.size else None
    # a_n of the block's rows j: _BLOCK is even, so (-1)^j is (-1)^n.  The
    # disk columns are drawn anew for every block; a share without them
    # keeps rows 0 and 1 only, as its a_n depend on the parity of n alone
    drift = np.where((kind == "constant") | (kind == "alternating"),
                     sig_scale, 0.0)
    sign = np.where(kind == "alternating", -1.0, 1.0)
    a_n = (a + drift * sign ** np.arange(_BLOCK if disk.size else 2)[:, None]).astype(complex)
    period = a_n.shape[0]

    cap = d2.epsilon
    # the block's rows: g_n; sum_{k<n} a_k, then gtilde_n, then g_n - gtilde_n;
    # |g_n|, then the closeness ratio; |gtilde_n|, then
    # max(|gtilde_n|, 1e-300)^{3/2}
    G, S = (np.empty((_BLOCK + 1, g0.size), dtype=complex) for _ in range(2))
    M, MT = (np.empty(G.shape) for _ in range(2))
    ag, agg = np.empty((2, g0.size), dtype=complex)   # a_n g_n and a_n g_n^2
    G[0], S[0] = g0, 0.0
    np.abs(g0, out=M[0])
    out = (np.ones(g0.size, dtype=bool), np.ones(g0.size, dtype=bool),
           np.full(g0.size, -1, dtype=np.int64), np.zeros(g0.size))
    ok_contain, ok_close, first_bad, max_ratio = out
    alive = np.ones(g0.size, dtype=bool)
    rows = np.arange(_BLOCK)[:, None]

    for start in range(0, n_steps + 1, _BLOCK):
        k = min(_BLOCK, n_steps + 1 - start)     # rows n = start .. start+k-1
        steps = min(k, n_steps - start)
        if disk.size:
            u = rng.random((steps, 2, n_disk))
            a_n[:steps, disk] = a + sig_scale[disk] * np.sqrt(u[:, 0, cols]) * \
                np.exp(1j * (2.0 * math.pi * u[:, 1, cols]))
        # row 0 is frozen here, the rows past a lane's first row outside the
        # cap are set to 0 below
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite row is an error below
            g = np.where(M[0] < cap, G[0], 0.0)
            for j in range(steps):
                a_j = a_n[j % period]
                # not in place: numpy rounds an in-place complex product of
                # one element differently
                np.multiply(a_j, g, out=ag)
                np.multiply(ag, g, out=agg)
                g = np.subtract(g, agg, out=G[j + 1])
                np.add(S[j], a_j, out=S[j + 1])
            np.abs(G[1:steps + 1], out=M[1:steps + 1])

        # the per-step sweep's errors; at one step the step's comes first
        outside = ~(M[1:steps + 1] < cap)
        lost = np.flatnonzero(outside.any(axis=0))
        first = outside[:, lost].argmax(axis=0) + 1 if lost.size else lost
        over = start + first[~np.isfinite(G[first, lost])]
        at = int(over.min()) if over.size else n_steps + 1
        if not np.isfinite(S[steps]).all():
            drift = start + 1 + int((~np.isfinite(S[1:steps + 1])).any(axis=1).argmax())
            if drift < at:
                return out, (drift, "drift sum leaves the float range at step %d" % drift)
        if at <= n_steps:
            return out, (at, "sweep leaves the float range at step %d" % at)
        for lane, row in zip(lost, first):
            G[row + 1:steps + 1, lane] = M[row + 1:steps + 1, lane] = 0.0

        # rows 0..k-1 only: row k carries into the next block
        g, gt, m, mt = G[:k], S[:k], M[:k], MT[:k]
        np.divide(g0, np.add(1.0, np.multiply(g0, gt, out=gt), out=gt), out=gt)
        # the containment check reads |g_n|, gtilde_n and |gtilde_n| before
        # the ratio overwrites them
        bad_cont = ~(d2.contains(g, m) & d1.contains(gt, np.abs(gt, out=mt)))
        with np.errstate(divide="ignore", invalid="ignore"):   # a non-finite ratio ends the run below
            r = np.abs(np.subtract(g, gt, out=gt), out=m)
            np.divide(r, np.power(np.maximum(mt, 1e-300, out=mt), 1.5, out=mt), out=r)
        bad_close = r > 1.0
        bad = (bad_close | bad_cont) & alive
        hit = np.flatnonzero(bad.any(axis=0))
        if hit.size or not alive.all():   # rows past a lane's first failing row do not count
            last = np.full(g0.size, k - 1)
            last[hit] = bad[:, hit].argmax(axis=0)
            r = np.where((rows[:k] <= last) & alive, r, 0.0)
        np.maximum(max_ratio, r.max(axis=0), out=max_ratio)
        if not np.isfinite(max_ratio).all():   # a nan ratio is not > 1, so it would pass as close
            step = start + (~np.isfinite(r)).any(axis=1).argmax()
            return out, (step, "closeness ratio is not finite at step %d" % step)
        if hit.size:
            first_bad[hit] = start + last[hit]
            ok_close[hit] = ~bad_close[last[hit], hit]
            ok_contain[hit] = ~bad_cont[last[hit], hit]
            alive[hit] = False
            if not alive.any():
                break
        G[0], S[0], M[0] = G[k], S[k], M[k]
    return out, None


# ----------------------------------------------------------------------
# trajectory table
# ----------------------------------------------------------------------


def trajectory_rows(state, gt):
    """Rows (n, re_g, im_g, re_gtilde, im_gtilde, err, bound) for CSV dumps,
    gt being approximant_path(state): one pass over arrays this call
    fills, so iterating does no arithmetic."""
    g = state.trajectory
    err = np.abs(g - gt)
    bound = np.abs(gt) ** 1.5
    return zip(range(g.size), g.real, g.imag, gt.real, gt.imag, err, bound)
