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
(ray x radius x perturbation-model) sweeps.
"""

import math
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


def sweep_sector(delta, epsilon, n_rays=32, n_radii=len(RADII),
                 n_steps=10 ** 5, a=0.25, models=SIGMA_MODELS, seed=0):
    """Vectorized verification sweep over g0 = r e^{i theta} in D_{eps,delta}.

    All (ray, radius, model) lanes are iterated simultaneously, _BLOCK steps
    at a time; containment (trajectory in the 3eps/sin d sector, approximant
    in the 2eps/sin d one) and the closeness bound are then checked on every
    row of the block at once, so the memory cost is O(lanes x _BLOCK)
    independent of n_steps.  A lane is frozen at its first failing row.
    """
    thetas = np.linspace(-(math.pi - delta), math.pi - delta, n_rays)
    radii = epsilon * np.array(RADII[:n_radii])
    g0 = (radii[:, None] * np.exp(1j * thetas[None, :])).ravel()
    n_pts = g0.size
    models = tuple(models)
    g0 = np.tile(g0, len(models))
    kind = np.repeat(models, n_pts)

    dom = SectorDomain(epsilon, delta)
    d1 = dom.approximant_enlargement()
    d2 = dom.trajectory_enlargement()
    sig_scale = default_sigma_scale(a, epsilon) * np.abs(g0)
    rng = np.random.default_rng(seed)
    disk = kind == "disk"
    n_disk = int(disk.sum())
    # a_n of the block's rows j: _BLOCK is even, so (-1)^j is (-1)^n; the
    # disk columns are drawn anew for every block
    drift = np.where((kind == "constant") | (kind == "alternating"),
                     sig_scale, 0.0)
    sign = np.where(kind == "alternating", -1.0, 1.0)
    a_n = (a + drift * sign ** np.arange(_BLOCK)[:, None]).astype(complex)

    G = np.empty((_BLOCK + 1, g0.size), dtype=complex)   # g_n of the block
    S = np.empty_like(G)                                 # prefix sums of a_k
    G[0], S[0] = g0, 0.0
    ok_contain = np.ones(g0.size, dtype=bool)
    ok_close = np.ones(g0.size, dtype=bool)
    first_bad = np.full(g0.size, -1, dtype=np.int64)
    max_ratio = np.zeros(g0.size)
    alive = np.ones(g0.size, dtype=bool)
    rows = np.arange(_BLOCK)[:, None]

    for start in range(0, n_steps + 1, _BLOCK):
        k = min(_BLOCK, n_steps + 1 - start)     # rows n = start .. start+k-1
        steps = min(k, n_steps - start)
        if n_disk:
            u = rng.random((steps, 2, n_disk))
            a_n[:steps, disk] = a + sig_scale[disk] * np.sqrt(u[:, 0]) * \
                np.exp(1j * (2.0 * math.pi * u[:, 1]))
        # a live lane has |g| < d2.epsilon; a lane past its failing row
        # steps from 0 instead, so only a live lane can overflow
        with np.errstate(over="raise"):
            for j in range(steps):
                g = np.where(np.abs(G[j]) < d2.epsilon, G[j], 0.0)
                try:
                    G[j + 1] = g - a_n[j] * g * g
                except FloatingPointError:
                    raise ArithmeticError("sweep leaves the float range at "
                                          "step %d" % (start + j + 1)) from None
                S[j + 1] = S[j] + a_n[j]

        g, s = G[:k], S[:k]
        gt = g0 / (1.0 + g0 * s)
        with np.errstate(divide="ignore", invalid="ignore"):   # a non-finite ratio raises below
            ratio = np.abs(g - gt) / np.maximum(np.abs(gt), 1e-300) ** 1.5
        bad_close = ratio > 1.0
        bad_cont = ~(d2.contains(g) & d1.contains(gt))
        bad = (bad_close | bad_cont) & alive
        hit = np.flatnonzero(bad.any(axis=0))
        last = np.full(g0.size, k - 1)
        last[hit] = bad[:, hit].argmax(axis=0)
        counted = (rows[:k] <= last) & alive
        max_ratio = np.maximum(max_ratio, np.where(counted, ratio, 0.0).max(axis=0))
        if not np.isfinite(max_ratio).all():   # a nan ratio is not > 1, so it would pass as close
            raise ArithmeticError("closeness ratio is not finite at step %d" % (
                start + (counted & ~np.isfinite(ratio)).any(axis=1).argmax()))
        first_bad[hit] = start + last[hit]
        ok_close[hit] = ~bad_close[last[hit], hit]
        ok_contain[hit] = ~bad_cont[last[hit], hit]
        alive[hit] = False
        if not alive.any():
            break
        G[0], S[0] = G[k], S[k]

    lanes = []
    for i in range(g0.size):
        lanes.append(SweepLaneReport(str(kind[i]), complex(g0[i]),
                                     bool(ok_contain[i]), bool(ok_close[i]),
                                     int(first_bad[i]) if first_bad[i] >= 0
                                     else None, float(max_ratio[i])))
    return SweepReport(n_steps, lanes,
                       float(np.mean(ok_contain)), float(np.mean(ok_close)))


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
