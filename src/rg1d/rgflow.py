"""Discrete flow of the running couplings (g1, g2, g4, delta, nu).

Scale recursion, j decreasing from 0:

    v_{alpha,j-1} = A_alpha v_{alpha,j} + beta^{(j)}_alpha,
    A_nu = gamma, A_alpha = 1 otherwise,

with the explicit second-order increments (-a_j g1_j^2, -(a_j/2) g1_j^2, 0, 0)
for (g1, g2, g4, delta) and optional remainder terms confined to their decay
envelopes.  The module integrates the flow (run_flow, whose settings are
keyword arguments valued in A_MODES and REMAINDER_MODELS), locates the
threshold scales j0 and h_star, runs the per-scale inequality checks,
extracts fixed-point values, measures the logarithmic coupling sums against
their closed forms, and probes boundedness over complex sectors and
shrinking disks.

Array conventions: a flow is plain arrays indexed by the scale offset
i = -j, so row 0 holds j = 0 and row n-1 the target scale.  The couplings
are one complex (n, 5) array with columns g1, g2, g4, delta, nu; eps_j and
the bubble constants a_j used at each step are real length-n arrays.
"""

import math
import numpy as np
from dataclasses import dataclass

from .model import THETA, TWO_PI
from .propagators import chi0, finite_size_scale, shell_support

# constants of the inductive bounds, fixed for the whole construction
B1 = 1.0     # remainder envelope b1 eps_j |g1_j|^2 on each coupling
B2 = 1.0     # g1 tail envelope b2 eps_j |g1_j| (theta_tail, finite_size); vdiff1
C_BAR = 1.0  # vdiff1 transient 2 c_bar eps0 gamma^{theta j/2}; disk-chain growth
C2 = 2.0     # bAj: |a_j - a| <= c2 |g1_{j0}|
C3 = 2.0     # bej: eps_j <= c3 eps0; the flow escapes past 2 c3 eps0
C4 = 1.0     # threshold scale j0 = -ceil(1 / (c4 |g1_0|^{1/2}))
EPS0 = 0.1   # smallness scale eps0 of bej, vdiff1 and the escape bound

# ----------------------------------------------------------------------
# settings and state
# ----------------------------------------------------------------------

A_MODES = ("exact_limit", "finite_scale")
REMAINDER_MODELS = ("none", "theta_tail", "finite_size", "both")


@dataclass(frozen=True)
class FlowTrajectory:
    """Realized flow from j = 0 down to target_h (inclusive), on the
    module's array conventions; flow_checks(traj) runs its checks.
    escaped_at is the first scale where eps_j exceeded 2 c3 eps0 (flow
    stopped there), else None.  gamma is the scale parameter of the model
    the flow ran on.
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
    escaped_at: int | None

    def g1_approximant(self, j):
        """gtilde_{1,j} = g1_0 / (1 + a g1_0 |j|), the fixed-mean closed form;
        j may be a scale or an array of scales."""
        g10 = self.couplings[0, 0]
        return g10 / (1.0 + self.a * g10 * (-j))


@dataclass(frozen=True)
class CheckResult:
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
    # support of C_j^2 - C_{j+1}^2: the box of the h = j+1 shell
    kp, k0 = shell_support(fermi.t0 * g ** (j + 2), L, beta, fermi)
    if k0.size == 0:  # no shell: +0.0, where the empty sum below gives -0.0
        return 0.0
    kp = (kp + math.pi) % TWO_PI - math.pi
    band = (fermi.v_F * kp)[:, None]
    K0 = k0[None, :]
    norm = np.sqrt(K0 ** 2 + band ** 2)
    w = ((chi0(norm / fermi.t0, g) - chi0(norm / (fermi.t0 * g ** (j - 1)), g)) ** 2
         - (chi0(norm / fermi.t0, g) - chi0(norm / (fermi.t0 * g ** j), g)) ** 2)
    val = np.sum(w * np.real(1.0 / ((-1j * K0 + band) * (-1j * K0 - band)))) / (beta * L)
    return -2.0 * float(val)


# ----------------------------------------------------------------------
# full flow with per-scale checks
# ----------------------------------------------------------------------


def _remainders(remainder_model, g1, eps_j, j, gamma, h_lbeta, rng):
    """Remainders of the step j -> j-1 on (g1, g2, g4, delta), inside their
    envelopes: b1 eps_j |g1|^2 on each coupling (unless remainder_model is
    none) and, on g1 alone, b2 eps_j |g1| gamma^{theta j} (theta_tail)
    and/or b2 eps_j |g1| gamma^{-(j - h_lbeta)} (finite_size).  Each term
    is modulated by a draw in [-1, 1], or by +1 when rng is None."""
    r = np.zeros(4, dtype=complex)
    if remainder_model == "none":
        return r
    mods = np.ones(5) if rng is None else rng.uniform(-1.0, 1.0, 5)
    r[:] = B1 * eps_j * abs(g1) ** 2 * mods[:4]
    tail = 0.0
    if remainder_model in ("theta_tail", "both"):
        tail += gamma ** (THETA * j)
    if remainder_model in ("finite_size", "both"):
        tail += gamma ** (-(j - h_lbeta))
    r[0] += B2 * eps_j * abs(g1) * tail * mods[4]
    return r


def _threshold_j0(g1_0):
    mag = abs(g1_0)
    if mag == 0.0:
        return -1
    return -int(math.ceil(1.0 / (C4 * math.sqrt(mag))))


def run_flow(params, target_h, *, a_mode="exact_limit", remainder_model="none",
             h_lbeta=None, seed=None):
    """Integrate the flow from j=0 down to target_h, writing row -j of the
    (n, 5) couplings array at each step.  Stops early (escaped_at set, the
    remaining rows padded with the last one) if the smallness variable
    exceeds 2 c3 eps0.

    a_mode "exact_limit" uses a = log(gamma)/(pi v_F) at every scale;
    "finite_scale" evaluates the lattice bubble increment a^{(j)} (within
    C gamma^{-(j - h_lbeta)} of a).  remainder_model selects which envelope
    terms are added: "none", "theta_tail" (gamma^{theta j} transients),
    "finite_size" (gamma^{-(j-h_lbeta)} tails), or "both".  h_lbeta None
    resolves the box scale from (beta, L).  seed None means deterministic
    remainders at full envelope magnitude, every modulation +1.  gamma
    comes from the model (ModelParams.gamma), theta is model.THETA and the
    bound constants are the module constants above.
    """
    if a_mode not in A_MODES or remainder_model not in REMAINDER_MODELS:
        raise ValueError("unknown flow setting: a_mode %r, remainder_model %r"
                         % (a_mode, remainder_model))
    fermi = params.fermi()
    gamma = fermi.gamma
    a = bubble_constant(fermi)
    if h_lbeta is None:
        h_lbeta = finite_size_scale(params.beta, params.L, fermi)
    rng = None if seed is None else np.random.default_rng(seed)

    n = -target_h + 1
    coup = np.empty((n, 5), dtype=complex)
    eps = np.empty(n)
    a_seq = np.empty(n)
    # first-order initial data: g1 = 2 lam vhat(2 p_F), g2 = g4 = 2 lam vhat(0)
    lam = params.lam
    vh0 = params.potential.fourier(0.0)
    coup[0] = (2.0 * lam * params.potential.fourier(2.0 * fermi.p_F),
               2.0 * lam * vh0, 2.0 * lam * vh0, 0.0, 0.0)
    lam_mag = abs(lam)
    run_max = max(map(abs, coup[0, :4]))
    eps[0] = max(lam_mag, run_max)
    j0 = _threshold_j0(coup[0, 0])
    h_star = None
    escaped = None

    for i in range(n - 1):
        j = -i
        a_j = finite_scale_bubble(j, fermi, params.beta, params.L) \
            if a_mode == "finite_scale" else a
        a_seq[i] = a_j
        # second-order increments (-a_j g1^2, -(a_j/2) g1^2, 0, 0), nu -> gamma nu
        g1 = coup[i, 0]
        q = a_j * g1 * g1
        coup[i + 1, :4] = (coup[i, :4] + (-q, -0.5 * q, 0.0, 0.0)
                           + _remainders(remainder_model, g1, eps[i], j, gamma, h_lbeta, rng))
        coup[i + 1, 4] = gamma * coup[i, 4]
        g1 = coup[i + 1, 0]
        run_max = max(run_max, *map(abs, coup[i + 1, :4]))
        eps[i + 1] = max(lam_mag, run_max)
        if h_star is None and j - 1 < j0 and abs(g1) > 0.0:
            # gamma^{-(j - h_lbeta)} <= |g1|^2 at the new scale, compared in logs
            if -(j - 1 - h_lbeta) * math.log(gamma) <= 2.0 * math.log(abs(g1)):
                h_star = j - 1
        if eps[i + 1] > 2.0 * C3 * EPS0:
            escaped = j - 1
            coup[i + 2:] = coup[i + 1]
            eps[i + 2:] = eps[i + 1]
            a_seq[i + 1:] = a_j
            break
    a_seq[n - 1] = a_seq[n - 2] if n > 1 else a

    return FlowTrajectory(params.lam, coup, eps, a_seq, a, j0, h_star,
                          h_lbeta, target_h, gamma, escaped)


def _check_from_margins(js, margins, constants=None):
    if margins.size == 0:
        return CheckResult(True, None, -math.inf, 0.0)
    i = int(np.argmax(margins))
    meas = float(np.max(constants)) if constants is not None else \
        float(margins[i])
    return CheckResult(bool(np.all(margins <= 0.0)), int(js[i]),
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

    A scale below target_h (j0 or h_star) reads the deepest row, and a
    flow without crossover has no overstar scales.
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
    out["vdiff1"] = _check_from_margins(jsel, diffs[sel] - env)

    # bej for j >= h_star
    sel = js >= h_star
    out["bej"] = _check_from_margins(js[sel], traj.eps[sel] - C3 * EPS0,
                                     constants=traj.eps[sel] / EPS0)

    # vdiff for h_star <= j <= j0
    sel = (js[:-1] <= j0) & (js[:-1] >= h_star)
    ref = 4.0 * a * np.abs(g1[:-1]) ** 2
    meas = diffs / np.maximum(np.abs(g1[:-1]) ** 2, 1e-300)
    out["vdiff"] = _check_from_margins(js[:-1][sel], (diffs - ref)[sel],
                                       constants=meas[sel])

    # gerr for j >= h_star
    gt = traj.g1_approximant(js)
    sel = js >= h_star
    out["gerr"] = _check_from_margins(
        js[sel], (np.abs(g1 - gt) - np.abs(gt) ** 1.5)[sel],
        constants=(np.abs(g1 - gt) / np.maximum(np.abs(gt) ** 1.5,
                                                1e-300))[sel])

    # bAj at every integrated scale
    g1j0 = abs(g1[min(-j0, n - 1)])
    out["bAj"] = _check_from_margins(
        js[:-1], np.abs(traj.a_seq[:-1] - a) - C2 * g1j0)

    # overstar below h_star
    sel = js < h_star
    m1 = np.abs(g1[sel]) - 2.0 * abs(g1[min(-h_star, n - 1)])
    m2 = traj.eps[sel] - 2.0 * C3 * EPS0
    out["overstar"] = _check_from_margins(js[sel], np.maximum(m1, m2))
    return out


# ----------------------------------------------------------------------
# fixed points and logarithmic sums
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointValues:
    g2_inf: complex
    g2_first_order: complex      # [2 vhat(0) - vhat(2 p_F)] lam


def fixed_point_values(traj, params):
    """The limit g2_inf, from the conserved combination g2_j - g1_j/2 (exact
    on the truncated flow, estimate otherwise), and its first-order value."""
    fermi = params.fermi()
    g2_inf = traj.couplings[-1, 1] - 0.5 * traj.couplings[-1, 0]
    vh2p = params.potential.fourier(2.0 * fermi.p_F)
    vh0 = params.potential.fourier(0.0)
    return FixedPointValues(g2_inf, (2.0 * vh0 - vh2p) * params.lam)


@dataclass(frozen=True)
class LogSumReport:
    w1: float
    sum1: float
    model1: float
    sum2: float
    model2: float


def _log_model(a, g1j0, j0, h, factor):
    return (1.0 / (factor * a)) * math.log(1.0 + a * g1j0 * (j0 - h))


def log_sum_lemma(traj, h):
    """Compare sum_{j=h}^{j0} g1_j with (1/a) log(1 + a g1_{j0}(j0 - h)) and
    the g2 analogue with (1/(2a)).

    The additive part d_1 of the g1 sum is frozen as the exact discrepancy
    at the reference scale h_ref where a g1_{j0} (j0 - h_ref) = 1; the
    remaining discrepancy is expressed multiplicatively through w_1.
    """
    j0 = traj.j0
    if not traj.target_h <= h <= j0:
        raise ValueError("log sums are defined for target_h <= h <= j0 on a flow that "
                         "reaches j0")
    a = traj.a
    g1 = traj.couplings[:, 0].real
    g2 = traj.couplings[:, 1].real
    g1j0 = float(traj.couplings[-j0, 0].real)
    g2_inf = float((traj.couplings[-1, 1] - 0.5 * traj.couplings[-1, 0]).real)

    h_ref = j0 - max(1, int(round(1.0 / (a * g1j0))))
    if h_ref < traj.target_h:
        raise ValueError("trajectory too short for the reference scale")

    def sums_at(hh):
        i0, i1 = -j0, -hh
        s1 = float(np.sum(g1[i0:i1 + 1]))
        s2 = float(np.sum(g2[i0:i1 + 1] - g2_inf))
        return s1, s2

    d1 = sums_at(h_ref)[0] - _log_model(a, g1j0, j0, h_ref, 1.0)
    s1, s2 = sums_at(h)
    m1 = _log_model(a, g1j0, j0, h, 1.0)
    w1 = (s1 - d1) / m1 - 1.0 if m1 != 0.0 else 0.0
    return LogSumReport(w1, s1, m1, s2, _log_model(a, g1j0, j0, h, 2.0))


def log_sum_increment_constant(traj, hs):
    """Measured constant of the increment envelope: the max over h in hs of
    |w_{1,h-1} - w_{1,h}| (1 + a g1_{j0}(j0-h)) log(1 + a g1_{j0}(j0-h))."""
    vals = []
    for h in hs:
        r0 = log_sum_lemma(traj, h)
        r1 = log_sum_lemma(traj, h - 1)
        x = traj.a * float(traj.couplings[-traj.j0, 0].real) * (traj.j0 - h)
        vals.append(abs(r1.w1 - r0.w1) * (1.0 + x) * math.log1p(x))
    return max(vals)


# ----------------------------------------------------------------------
# sector and disk boundedness probes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbePoint:
    lam: complex
    bounded: bool
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


def flow_sector_probe(params_of_lam, rays=16, radius=0.02, h_sector=-5000,
                      disk_hs=(-50, -500, -5000), **settings):
    """Boundedness map of the flow over a complex sector and shrinking disks.

    params_of_lam: callable lam -> ModelParams (fixes potential, mu, grids).
    Sector part: rays at |Arg lam| <= 3 pi/4, fixed |lam| = radius,
    flow run down to h_sector; bounded means no escape and eps within
    2 c3 eps0.  Disk part: real lam = 0.9 c0 / (1 + |h|) per h, with
    both the flow run and the scalar smallness chain checked.  settings
    are run_flow's keyword settings.
    """
    pts = []
    angles = np.linspace(-3 * math.pi / 4, 3 * math.pi / 4, rays)
    for th in angles:
        lam = radius * np.exp(1j * th)
        traj = run_flow(params_of_lam(complex(lam)), h_sector, **settings)
        pts.append(ProbePoint(complex(lam), traj.escaped_at is None, None))
    c0 = derived_disk_constant()
    for h in disk_hs:
        lam = 0.9 * c0 / (1.0 + abs(h))
        traj = run_flow(params_of_lam(lam), h, **settings)
        pts.append(ProbePoint(lam, traj.escaped_at is None, smallness_chain_ok(lam, h)))
    return pts
