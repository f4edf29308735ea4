"""Complex quadratic flow map g_{n+1} = g_n - a_n g_n^2 on a sector domain.

The map models the scale-by-scale decay of the marginally irrelevant
backscattering coupling.  The drift coefficients a_n = a + sigma_n carry a
positive mean a and bounded perturbations |sigma_n| <= c0 |g0|; the closed
form approximant

    gtilde_n = g0 / (1 + g0 n A_n),    A_n = (1/n) sum_{k<n} a_k

tracks the trajectory to relative accuracy |gtilde_n|^{1/2}.  This module
iterates the map, evaluates the approximant, and verifies the sector
containments and the closeness bound on single runs and on vectorized
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
        if self.epsilon <= 0.0:
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


def quadratic_map_step(g, a_n):
    """One step g - a_n g^2."""
    return g - a_n * g * g


@dataclass
class MapState:
    """A realized trajectory with its Cesaro data.

    trajectory[k] = g_k for k = 0..n; A[k] = (1/k) sum_{j<k} a_j for k >= 1
    (A[0] = a by convention, it multiplies n = 0); sigma holds the n drawn
    perturbations.  escape_index is the first k whose g_k left the enlarged
    trajectory domain, or None. Lanes are frozen after escape.
    """

    g0: complex
    a: float
    sigma: np.ndarray
    trajectory: np.ndarray
    A: np.ndarray
    domain: SectorDomain
    escape_index: int | None


def iterate(g0, a_seq, n, domain=None):
    """Iterate the map n steps and record the trajectory.

    a_seq: scalar mean drift a (sigma = 0) or a length-n array of a_k values.
    domain: the base sector of g0; escape is judged against its trajectory
    enlargement.  After an escape the state is frozen to avoid overflow.
    """
    if np.isscalar(a_seq) or getattr(a_seq, "shape", None) == ():
        a = float(np.real(a_seq))
        a_arr = np.full(n, a, dtype=complex)
    else:
        a_arr = np.asarray(a_seq, dtype=complex)
        if a_arr.size < n:
            raise ValueError("a_seq shorter than the requested horizon")
        a_arr = a_arr[:n]
        a = float(np.mean(a_arr.real))
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
                    g = quadratic_map_step(g, a_arr[k])
                except FloatingPointError:
                    raise ArithmeticError("map trajectory leaves the float "
                                          "range at step %d" % (k + 1)) from None
                if not big.contains(g):
                    escape = k + 1
            traj[k + 1] = g
    csum = np.concatenate(([0.0 + 0.0j], np.cumsum(a_arr)))
    A = np.empty(n + 1, dtype=complex)
    A[0] = a
    A[1:] = csum[1:] / np.arange(1, n + 1)
    return MapState(complex(g0), a, a_arr - a, traj, A, domain, escape)


# ----------------------------------------------------------------------
# approximant and verification reports
# ----------------------------------------------------------------------


def approximant(g0, A_n, n, delta=None):
    """Closed form gtilde_n = g0 / (1 + g0 n A_n).

    With delta given, a denominator below (1/4) sin delta violates the
    guaranteed lower bound |ztilde_n| >= (1/2) sin delta and is raised as a
    precondition failure.
    """
    z = 1.0 + g0 * n * A_n
    if delta is not None and abs(z) < 0.25 * math.sin(delta):
        raise ValueError("approximant denominator below the sector bound")
    return g0 / z


def approximant_path(state):
    """gtilde_k for k = 0..n from the recorded Cesaro averages."""
    n = state.trajectory.size - 1
    ks = np.arange(n + 1)
    return state.g0 / (1.0 + state.g0 * ks * state.A)


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    first_violation: int | None
    worst_margin: float   # max of (lhs - rhs) over the horizon; <= 0 iff ok
    label: str


def verify_closeness(state):
    """Check |g_n - gtilde_n| <= |gtilde_n|^{3/2} along the whole horizon."""
    gt = approximant_path(state)
    lhs = np.abs(state.trajectory - gt)
    rhs = np.abs(gt) ** 1.5
    bad = lhs > rhs
    first = int(np.argmax(bad)) if bad.any() else None
    return CheckReport(not bad.any(), first, float(np.max(lhs - rhs)),
                       "closeness")


def verify_sector(state):
    """Check gtilde_n in the (2eps/sin d, d/2) domain and g_n in the
    (3eps/sin d, d/4) domain for the whole horizon."""
    d1 = state.domain.approximant_enlargement()
    d2 = state.domain.trajectory_enlargement()
    gt = approximant_path(state)
    bad_t = ~d2.contains(state.trajectory)
    bad_a = ~d1.contains(gt)
    bad = bad_t | bad_a
    first = int(np.argmax(bad)) if bad.any() else None
    margin = float(np.max(np.abs(state.trajectory)) - d2.epsilon)
    return CheckReport(not bad.any(), first, margin, "sector")


def verify_denominator_bound(state):
    """Pointwise check of |1 + g0 n alpha_n| >= max{sin d, (sin d/3)(1 + |g0| n alpha_n)}
    with alpha_n = Re A_n (the inequality behind the approximant bounds)."""
    d = state.domain.delta
    n = state.trajectory.size - 1
    ks = np.arange(n + 1)
    alpha = state.A.real
    lhs = np.abs(1.0 + state.g0 * ks * alpha)
    rhs = np.maximum(math.sin(d),
                     (math.sin(d) / 3.0) * (1.0 + np.abs(state.g0) * ks * alpha))
    bad = lhs < rhs
    first = int(np.argmax(bad)) if bad.any() else None
    return CheckReport(not bad.any(), first, float(np.max(rhs - lhs)),
                       "denominator")


def square_sum_estimate(g0, a, n):
    """Quadrature of int_0^n |g0 / (1 + g0 a s)|^2 ds, the continuum estimate
    of sum |g_k|^2 (finite for every g0 in a sector), on 20000 nodes."""
    s = np.linspace(0.0, float(n), 20000)
    vals = np.abs(g0 / (1.0 + g0 * a * s)) ** 2
    return float(np.trapezoid(vals, s))


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
    delta: float
    epsilon: float
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
        ratio = np.abs(g - gt) / np.maximum(np.abs(gt), 1e-300) ** 1.5
        bad_close = ratio > 1.0
        bad_cont = ~(d2.contains(g) & d1.contains(gt))
        bad = (bad_close | bad_cont) & alive
        hit = np.flatnonzero(bad.any(axis=0))
        last = np.full(g0.size, k - 1)
        last[hit] = bad[:, hit].argmax(axis=0)
        counted = (rows[:k] <= last) & alive
        max_ratio = np.maximum(max_ratio,
                               np.where(counted, ratio, 0.0).max(axis=0))
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
    return SweepReport(delta, epsilon, n_steps, lanes,
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
