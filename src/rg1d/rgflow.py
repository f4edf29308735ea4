"""Discrete flow of the running couplings (g1, g2, g4, delta, nu).

Scale recursion, j decreasing from 0:

    v_{alpha,j-1} = A_alpha v_{alpha,j} + beta^{(j)}_alpha,
    A_nu = gamma, A_alpha = 1 otherwise,

with the explicit second-order increments (-a_j g1_j^2, -(a_j/2) g1_j^2, 0, 0)
for (g1, g2, g4, delta) and optional remainder terms confined to their decay
envelopes.  The module integrates the flow, locates the threshold scales j0
and h_star, runs the per-scale inequality checks, extracts fixed-point
values, measures the logarithmic coupling sums against their closed forms,
and probes boundedness over complex sectors and shrinking disks.
"""

import math
import numpy as np
from dataclasses import dataclass, field

from .model import THETA, TWO_PI
from .propagators import CutoffFunction, ShellGrid, finite_size_scale, shell_support

# constants of the inductive bounds, fixed for the whole construction
B1 = 1.0     # remainder envelope b1 eps_j |g1_j|^2 on each coupling
B2 = 1.0     # g1 tail envelope b2 eps_j |g1_j| (theta_tail, finite_size); vdiff1
C_BAR = 1.0  # vdiff1 transient 2 c_bar eps0 gamma^{theta j/2}; disk-chain growth
C2 = 2.0     # bAj: |a_j - a| <= c2 |g1_{j0}|
C3 = 2.0     # bej: eps_j <= c3 eps0; the flow escapes past 2 c3 eps0
C4 = 1.0     # threshold scale j0 = -ceil(1 / (c4 |g1_0|^{1/2}))
EPS0 = 0.1   # smallness scale eps0 of bej, vdiff1 and the escape bound

# ----------------------------------------------------------------------
# configuration and state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunningCouplings:
    """Coupling vector at one scale j <= 0."""

    g1: complex
    g2: complex
    g4: complex
    delta: complex
    nu: complex
    j: int

    def as_array(self):
        return np.array([self.g1, self.g2, self.g4, self.delta, self.nu])


@dataclass(frozen=True)
class BetaConfig:
    """The per-run flow settings: bubble-constant mode, remainder model,
    box scale and seed.

    a_mode "exact_limit" uses a = log(gamma)/(pi v_F) at every scale;
    "finite_scale" evaluates the lattice bubble increment a^{(j)} (within
    C gamma^{-(j - h_lbeta)} of a).  remainder_model selects which envelope
    terms are added: "none", "theta_tail" (gamma^{theta j} transients),
    "finite_size" (gamma^{-(j-h_lbeta)} tails), or "both".  seed None means
    deterministic worst-case remainders at full envelope magnitude.
    gamma comes from the model (ModelParams.gamma), theta is model.THETA
    and the bound constants are the module constants above.
    """

    a_mode: str = "exact_limit"
    remainder_model: str = "none"
    h_lbeta: int | None = None  # resolved from (beta, L) when None
    seed: int | None = None


@dataclass
class FlowTrajectory:
    """Realized flow from j = 0 down to target_h (inclusive).

    Arrays are indexed by scale offset i = -j, i.e. position 0 holds j=0.
    checks maps check name -> CheckResult.  escaped_at is the first scale
    where eps_j exceeded 2 c3 eps0 (flow stopped there), else None.
    gamma is the scale parameter of the model the flow ran on.
    """

    lam: complex
    couplings: np.ndarray        # shape (n_scales, 5): g1, g2, g4, delta, nu
    eps: np.ndarray              # running smallness eps_j
    a_seq: np.ndarray            # bubble constant a^{(j)} used at each step
    a: float                     # exact limit value log gamma / (pi v_F)
    j0: int
    h_star: int | None
    h_lbeta: int
    target_h: int
    gamma: float
    checks: dict = field(default_factory=dict)
    escaped_at: int | None = None

    def scale_index(self, j):
        if j > 0 or j < self.target_h:
            raise ValueError("scale outside the integrated range")
        return -j

    def g1_at(self, j):
        return self.couplings[self.scale_index(j), 0]

    def g1_approximant(self, j):
        """gtilde_{1,j} = g1_0 / (1 + a g1_0 |j|), the fixed-mean closed form."""
        g10 = self.couplings[0, 0]
        return g10 / (1.0 + self.a * g10 * (-j))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    worst_scale: int | None
    worst_margin: float     # max over scales of (lhs - rhs); <= 0 iff ok
    measured_constant: float


# ----------------------------------------------------------------------
# bubble constant
# ----------------------------------------------------------------------


def bubble_constant(fermi):
    """Asymptotic one-loop bubble per scale: a = log(gamma) / (pi v_F)."""
    return math.log(fermi.gamma) / (math.pi * fermi.v_F)


def finite_scale_bubble(j, fermi, beta, L):
    """Lattice bubble increment a^{(j)} at scale j <= 0.

    a^{(j)} = -2 (1/(beta L)) sum_{k' in D'_L, k0} [C_j^2 - C_{j+1}^2]
              Re 1/((-i k0 + v_F k')(-i k0 - v_F k'))

    with C_j the cumulative shell window chi0(n/t0) - chi0(n/(t0 gamma^{j-1}))
    on the scaled norm n = sqrt(k0^2 + v_F^2 k'^2).  Converges to
    bubble_constant as j - h_lbeta -> infinity, within the
    C gamma^{-(j-h_lbeta)} envelope.
    """
    g = fermi.gamma
    chi = CutoffFunction(g)
    # support of C_j^2 - C_{j+1}^2: the box of the h = j+1 shell
    kp, kidx, k0 = shell_support(fermi.t0 * g ** (j + 2), L, beta, fermi)
    if k0.size == 0:  # no shell: +0.0, where the empty sum below gives -0.0
        return 0.0
    kp = (kp + math.pi) % TWO_PI - math.pi

    def window(norm, jj):
        return chi.chi0(norm / fermi.t0) - chi.chi0(norm / (fermi.t0 * g ** (jj - 1)))

    def weight(KP, K0):
        norm = np.sqrt(K0 ** 2 + (fermi.v_F * KP) ** 2)
        return window(norm, j) ** 2 - window(norm, j + 1) ** 2

    grid = ShellGrid(kp, kidx, k0, fermi.v_F * kp, True, weight)
    _, K0, w = grid.mesh()
    band = grid.band[:, None]
    val = np.sum(w * np.real(1.0 / ((-1j * K0 + band) * (-1j * K0 - band)))) / (beta * L)
    return -2.0 * float(val)


# ----------------------------------------------------------------------
# beta function and single step
# ----------------------------------------------------------------------


def beta_second_order(g1, a_j):
    """Second-order increments (dg1, dg2, dg4, ddelta)."""
    q = a_j * g1 * g1
    return (-q, -0.5 * q, 0.0, 0.0)


def _remainder_draws(rng, n):
    """n modulating factors in [-1, 1] (worst case +1 when rng is None)."""
    if rng is None:
        return np.ones(n)
    return rng.uniform(-1.0, 1.0, n)


def flow_step(v, cfg, gamma, a_j, eps_j, h_lbeta, rng):
    """One scale step j -> j-1.  Returns the new RunningCouplings.

    Remainders are added inside their envelopes:
      r_alpha: b1 eps_j |g1|^2 on each of g1, g2, g4, delta   (always on
               unless remainder_model is none),
      extra on g1: b2 eps_j |g1| gamma^{theta j} (theta_tail) and/or
                   b2 eps_j |g1| gamma^{-(j - h_lbeta)} (finite_size).
    """
    dg1, dg2, dg4, dd = beta_second_order(v.g1, a_j)
    r = np.zeros(5, dtype=complex)
    if cfg.remainder_model != "none":
        base = B1 * eps_j * abs(v.g1) ** 2
        mods = _remainder_draws(rng, 5)
        r[:4] = base * mods[:4]
        tail = 0.0
        if cfg.remainder_model in ("theta_tail", "both"):
            tail += gamma ** (THETA * v.j)
        if cfg.remainder_model in ("finite_size", "both"):
            tail += gamma ** (-(v.j - h_lbeta))
        r[0] += B2 * eps_j * abs(v.g1) * tail * mods[4]
    return RunningCouplings(v.g1 + dg1 + r[0], v.g2 + dg2 + r[1],
                            v.g4 + dg4 + r[2], v.delta + dd + r[3],
                            gamma * v.nu, v.j - 1)


def initial_couplings(params, fermi):
    """First-order initial data: g1 = 2 lam vhat(2 p_F), g2 = g4 = 2 lam vhat(0)."""
    vh2p = params.potential.fourier(2.0 * fermi.p_F)
    vh0 = params.potential.fourier(0.0)
    lam = params.lam
    return RunningCouplings(2.0 * lam * vh2p, 2.0 * lam * vh0,
                            2.0 * lam * vh0, 0.0, 0.0, 0)


# ----------------------------------------------------------------------
# full flow with per-scale checks
# ----------------------------------------------------------------------


def _threshold_j0(g1_0):
    mag = abs(g1_0)
    if mag == 0.0:
        return -1
    return -int(math.ceil(1.0 / (C4 * math.sqrt(mag))))


def run_flow(params, cfg, target_h, with_checks=True):
    """Integrate the flow from j=0 down to target_h and check Lemma-style
    inequalities along the way.  Stops early (escaped_at set) if the
    smallness variable exceeds 2 c3 eps0.  gamma is the model's."""
    fermi = params.fermi()
    gamma = fermi.gamma
    a = bubble_constant(fermi)
    if cfg.h_lbeta is not None:
        h_lbeta = cfg.h_lbeta
    else:
        h_lbeta = finite_size_scale(params.beta, params.L, fermi)
    rng = None if cfg.seed is None else np.random.default_rng(cfg.seed)

    v = initial_couplings(params, fermi)
    n = -target_h + 1
    coup = np.empty((n, 5), dtype=complex)
    eps = np.empty(n)
    a_seq = np.empty(n)
    coup[0] = v.as_array()
    lam_mag = abs(params.lam)
    run_max = max(abs(v.g1), abs(v.g2), abs(v.g4), abs(v.delta))
    eps[0] = max(lam_mag, run_max)
    j0 = _threshold_j0(v.g1)
    h_star = None
    escaped = None

    for i in range(n - 1):
        j = -i
        if cfg.a_mode == "finite_scale":
            a_j = finite_scale_bubble(j, fermi, params.beta, params.L)
        else:
            a_j = a
        a_seq[i] = a_j
        v = flow_step(v, cfg, gamma, a_j, eps[i], h_lbeta, rng)
        coup[i + 1] = v.as_array()
        run_max = max(run_max, abs(v.g1), abs(v.g2), abs(v.g4), abs(v.delta))
        eps[i + 1] = max(lam_mag, run_max)
        if h_star is None and v.j < j0 and abs(v.g1) > 0.0:
            # gamma^{-(j - h_lbeta)} <= |g1|^2, compared in logs
            if -(v.j - h_lbeta) * math.log(gamma) <= \
                    2.0 * math.log(abs(v.g1)):
                h_star = v.j
        if eps[i + 1] > 2.0 * C3 * EPS0:
            escaped = v.j
            coup[i + 2:] = coup[i + 1]
            eps[i + 2:] = eps[i + 1]
            a_seq[i + 1:] = a_j
            break
    a_seq[n - 1] = a_seq[n - 2] if n > 1 else a

    traj = FlowTrajectory(params.lam, coup, eps, a_seq, a, j0, h_star,
                          h_lbeta, target_h, gamma, {}, escaped)
    if with_checks and escaped is None:
        traj.checks = flow_checks(traj)
    return traj


def _check_from_margins(name, js, margins, constants=None):
    margins = np.asarray(margins)
    if margins.size == 0:
        return CheckResult(name, True, None, -math.inf, 0.0)
    i = int(np.argmax(margins))
    meas = float(np.max(constants)) if constants is not None else \
        float(margins[i])
    return CheckResult(name, bool(np.all(margins <= 0.0)), int(js[i]),
                       float(margins[i]), meas)


def flow_checks(traj):
    """Per-scale inequality checks on a completed trajectory.

    vdiff1: |v_{j-1} - v_j| <= 2a|g1_j|^2 + 2 c_bar eps0 gamma^{theta j/2}
            + 2 b2 eps_j^2 gamma^{-(j-h_lbeta)}           (j0 <= j <= 0)
    bej:    eps_j <= c3 eps0                              (j >= h_star)
    vdiff:  |v_{j-1} - v_j| <= 4a |g1_j|^2                (h* <= j <= j0)
    gerr:   |g1_j - gtilde_{1,j}| <= |gtilde_{1,j}|^{3/2} (j >= h_star)
    bAj:    |a_j - a| <= c2 |g1_{j0}|                     (all j)
    overstar: |g1_j| <= 2|g1_{h*}| and eps_j <= 2 c3 eps0 (j < h*)
    """
    gamma = traj.gamma
    n = traj.couplings.shape[0]
    js = -np.arange(n)
    g1 = traj.couplings[:, 0]
    diffs = np.abs(np.diff(traj.couplings, axis=0)).max(axis=1)  # |v_{j-1}-v_j|
    a = traj.a
    h_star = traj.h_star if traj.h_star is not None else traj.target_h - 1
    j0 = traj.j0
    out = {}

    # vdiff1 over j0 <= j <= 0 (steps indexed by their source scale j)
    sel = (js[:-1] >= j0)
    jsel = js[:-1][sel]
    env = (2.0 * a * np.abs(g1[:-1][sel]) ** 2
           + 2.0 * C_BAR * EPS0 * gamma ** (0.5 * THETA * jsel)
           + 2.0 * B2 * traj.eps[:-1][sel] ** 2
           * gamma ** (-(jsel - traj.h_lbeta)))
    out["vdiff1"] = _check_from_margins("vdiff1", jsel, diffs[sel] - env)

    # bej for j >= h_star
    sel = js >= h_star
    out["bej"] = _check_from_margins(
        "bej", js[sel], traj.eps[sel] - C3 * EPS0,
        constants=traj.eps[sel] / EPS0)

    # vdiff for h_star <= j <= j0
    sel = (js[:-1] <= j0) & (js[:-1] >= h_star)
    ref = 4.0 * a * np.abs(g1[:-1]) ** 2
    meas = diffs / np.maximum(np.abs(g1[:-1]) ** 2, 1e-300)
    out["vdiff"] = _check_from_margins("vdiff", js[:-1][sel],
                                       (diffs - ref)[sel],
                                       constants=meas[sel])

    # gerr for j >= h_star
    g10 = g1[0]
    gt = g10 / (1.0 + a * g10 * (-js))
    sel = js >= h_star
    out["gerr"] = _check_from_margins(
        "gerr", js[sel], (np.abs(g1 - gt) - np.abs(gt) ** 1.5)[sel],
        constants=(np.abs(g1 - gt) / np.maximum(np.abs(gt) ** 1.5,
                                                1e-300))[sel])

    # bAj at every integrated scale
    g1j0 = abs(traj.g1_at(j0)) if j0 >= traj.target_h else abs(g1[-1])
    out["bAj"] = _check_from_margins(
        "bAj", js[:-1], np.abs(traj.a_seq[:-1] - a) - C2 * g1j0)

    # overstar below h_star
    sel = js < h_star
    if traj.h_star is not None and sel.any():
        g1hs = abs(traj.g1_at(traj.h_star))
        m1 = np.abs(g1[sel]) - 2.0 * g1hs
        m2 = traj.eps[sel] - 2.0 * C3 * EPS0
        out["overstar"] = _check_from_margins(
            "overstar", js[sel], np.maximum(m1, m2))
    else:
        out["overstar"] = CheckResult("overstar", True, None, -math.inf, 0.0)
    return out


# ----------------------------------------------------------------------
# fixed points and logarithmic sums
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointValues:
    g2_inf: complex
    g4_inf: complex
    delta_inf: complex
    g2_first_order: complex      # [2 vhat(0) - vhat(2 p_F)] lam
    g4_first_order: complex      # 2 lam vhat(0)
    converged: bool
    trailing_diff: float


def fixed_point_values(traj, params, tol=1e-9):
    """Limits of (g2, g4, delta).  g2 uses the conserved combination
    g2_j - g1_j/2 (exact on the truncated flow, estimate otherwise);
    converged means the last 16 scales moved by less than tol."""
    fermi = params.fermi()
    c = traj.couplings
    tail = np.abs(np.diff(c[-16:], axis=0)).max() if c.shape[0] > 16 \
        else math.inf
    g2_inf = c[-1, 1] - 0.5 * c[-1, 0]
    vh2p = params.potential.fourier(2.0 * fermi.p_F)
    vh0 = params.potential.fourier(0.0)
    return FixedPointValues(g2_inf, c[-1, 2], c[-1, 3],
                            (2.0 * vh0 - vh2p) * params.lam,
                            2.0 * vh0 * params.lam,
                            bool(tail < tol), float(tail))


@dataclass(frozen=True)
class LogSumReport:
    h: int
    w1: float
    d1: float
    w2: float
    d2: float
    sum1: float
    model1: float
    sum2: float
    model2: float
    h_ref: int


def _log_model(a, g1j0, j0, h, factor):
    return (1.0 / (factor * a)) * math.log(1.0 + a * g1j0 * (j0 - h))


def log_sum_lemma(traj, h):
    """Compare sum_{j=h}^{j0} g1_j with (1/a) log(1 + a g1_{j0}(j0 - h)) and
    the g2 analogue with (1/(2a)).

    The additive part d_i is frozen as the exact discrepancy at the
    reference scale h_ref where a g1_{j0} (j0 - h_ref) = 1; the remaining
    discrepancy is expressed multiplicatively through w_i.
    """
    j0 = traj.j0
    if h > j0:
        raise ValueError("log sums are defined for h <= j0")
    a = traj.a
    g1 = traj.couplings[:, 0].real
    g2 = traj.couplings[:, 1].real
    g1j0 = float(traj.g1_at(j0).real)
    g2_inf = float((traj.couplings[-1, 1] - 0.5 * traj.couplings[-1, 0]).real)

    h_ref = j0 - max(1, int(round(1.0 / (a * g1j0))))
    if h_ref < traj.target_h:
        raise ValueError("trajectory too short for the reference scale")

    def sums_at(hh):
        i0, i1 = -j0, -hh
        s1 = float(np.sum(g1[i0:i1 + 1]))
        s2 = float(np.sum(g2[i0:i1 + 1] - g2_inf))
        return s1, s2

    s1r, s2r = sums_at(h_ref)
    d1 = s1r - _log_model(a, g1j0, j0, h_ref, 1.0)
    d2 = s2r - _log_model(a, g1j0, j0, h_ref, 2.0)
    s1, s2 = sums_at(h)
    m1 = _log_model(a, g1j0, j0, h, 1.0)
    m2 = _log_model(a, g1j0, j0, h, 2.0)
    w1 = (s1 - d1) / m1 - 1.0 if m1 != 0.0 else 0.0
    w2 = (s2 - d2) / m2 - 1.0 if m2 != 0.0 else 0.0
    return LogSumReport(h, w1, d1, w2, d2, s1, m1, s2, m2, h_ref)


def log_sum_increment_constant(traj, hs):
    """Measured constant of the increment envelope: the max over h in hs of
    |w_{1,h-1} - w_{1,h}| (1 + a g1_{j0}(j0-h)) log(1 + a g1_{j0}(j0-h))."""
    vals = []
    for h in hs:
        r0 = log_sum_lemma(traj, h)
        r1 = log_sum_lemma(traj, h - 1)
        x = traj.a * float(traj.g1_at(traj.j0).real) * (traj.j0 - h)
        vals.append(abs(r1.w1 - r0.w1) * (1.0 + x) * math.log1p(x))
    return max(vals)


# ----------------------------------------------------------------------
# sector and disk boundedness probes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbePoint:
    lam: complex
    h: int
    bounded: bool
    escaped_at: int | None
    max_eps: float
    chain_ok: bool | None    # disk-chain recursion verdict (None off-chain)


def derived_disk_constant():
    """c0 for the shrinking-disk chain |lam| < c0/(1+|h|): the largest value
    keeping lambda-bar_j <= 2 lambda-bar_0 through |h| quadratic-growth steps
    (lambda-bar_{j-1} = lambda-bar_j + c_bar lambda-bar_j^2)."""
    return min(0.5 * EPS0, 0.25 / C_BAR) / C3


def smallness_chain_ok(lam0, h):
    """Iterate lambda-bar_{j-1} = lambda-bar_j + c_bar lambda-bar_j^2 from
    |lam0| for |h| steps; True iff it stays <= 2 |lam0|."""
    lb = abs(lam0)
    bound = 2.0 * abs(lam0)
    for _ in range(-h):
        lb = lb + C_BAR * lb * lb
        if lb > bound:
            return False
    return True


def flow_sector_probe(params_of_lam, cfg, rays=16, radius=0.02, h_sector=-5000,
                      disk_hs=(-50, -500, -5000)):
    """Boundedness map of the flow over a complex sector and shrinking disks.

    params_of_lam: callable lam -> ModelParams (fixes potential, mu, grids).
    Sector part: rays at |Arg lam| <= 3 pi/4, fixed |lam| = radius,
    flow run down to h_sector; bounded means no escape and eps within
    2 c3 eps0.  Disk part: real lam = 0.9 c0 / (1 + |h|) per h, with
    both the flow run and the scalar smallness chain checked.
    """
    pts = []
    angles = np.linspace(-3 * math.pi / 4, 3 * math.pi / 4, rays)
    for th in angles:
        lam = radius * np.exp(1j * th)
        traj = run_flow(params_of_lam(complex(lam)), cfg, h_sector,
                        with_checks=False)
        pts.append(ProbePoint(complex(lam), h_sector,
                              traj.escaped_at is None,
                              traj.escaped_at, float(traj.eps.max()), None))
    c0 = derived_disk_constant()
    for h in disk_hs:
        lam = 0.9 * c0 / (1.0 + abs(h))
        traj = run_flow(params_of_lam(lam), cfg, h, with_checks=False)
        pts.append(ProbePoint(lam, h, traj.escaped_at is None,
                              traj.escaped_at, float(traj.eps.max()),
                              smallness_chain_ok(lam, h)))
    return pts
