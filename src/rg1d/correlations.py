"""Real-space correlation functions from the multiscale expansion.

Each response function is assembled as a double scale sum over infrared
single-scale propagators dressed by the renormalization constants,

    uniform density part   2 sum_w sum_{h,h'<=0} W^(1)_{hh'} g_w^(h) g_w^(h')
    oscillating pair part  4 sum_{h,h'<=0} W^(2)_{hh'} g_+^(h) g_-^(h')

with W^(t)_{hh'} = [Z^(t)_{h v h'}]^2 / (Z_h Z_{h'}) and g_w^(h) the
continuum (Dirac) single-scale evaluator.  The closed-form asymptotics put
the same content as powers of |xtilde| = sqrt((v_F x0)^2 + x^2) dressed by
the logarithmic factor L(x) = 1 + f log|xtilde|:

    C, S:  Obar0/(pi^2 |xt|^2) + cos(2 p_F x) L^zeta_a / (pi^2 |xt|^{2 X_a})
    SC:    -[Obar0 cos + Qbar0 sin](2 p_F x) L^zt/(pi^2 |xt|^2)
           - L^zeta_SC / (pi^2 |xt|^{2 X_SC})
    TC:    -v_F^2 L^zeta_TC / (pi^2 |xt|^{2 X_TC})        (no oscillation)

Obar0 = ((v_F x0)^2 - x^2)/|xt|^2 and Qbar0 = 2 v_F x0 x/|xt|^2 carry the
free-case angular structure; on the time or space axis Qbar0 drops and the
oscillating SC factor reduces to -Obar0 cos(2 p_F x).  The free case (all
Z = 1) reproduces the Wick values exactly up to scale-sum truncation.
"""

import math
import numpy as np
from dataclasses import dataclass

from . import propagators as props
from . import renorm as rn

TWO_PI = 2.0 * math.pi

CHANNELS = rn.CHANNELS


# ----------------------------------------------------------------------
# renormalization-constant tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZTables:
    """Full (uncompensated) constants on scales h = 0 .. -depth.

    Arrays are indexed by i = -h.  Z is the wave-function constant,
    Z1[alpha] dresses the uniform density part, Z2[alpha] the pair /
    oscillating part: Z^{(t)}_h = gamma^{-eta_t h} Zhat^{(t)}_h.
    """

    gamma: float
    depth: int
    Z: np.ndarray
    Z1: dict
    Z2: dict


def free_tables(depth, gamma=2.0):
    """lambda = 0 tables: every constant identically 1."""
    ones = np.ones(depth + 1)
    return ZTables(gamma, depth, ones,
                   {al: ones for al in ("C", "S", "SC")},
                   {al: ones.copy() for al in CHANNELS})


def z_tables(rset, ex, gamma=2.0):
    """Build ZTables from a flow of the hat constants and the exponents."""
    i = np.arange(rset.depth + 1, dtype=float)
    zz = gamma ** (ex.eta_z * i) * np.exp(rset.log_zhat["z"])
    z1 = {al: gamma ** (ex.eta_z * i) * np.exp(rset.log_zhat["1" + al])
          for al in ("C", "S", "SC")}
    z2 = {al: gamma ** (ex.eta_2(al) * i) * np.exp(rset.log_zhat["2" + al])
          for al in CHANNELS}
    return ZTables(gamma, rset.depth, zz, z1, z2)


# ----------------------------------------------------------------------
# scale-sum machinery
# ----------------------------------------------------------------------


def tilde_norm(x, x0, fermi):
    """|xtilde| with xtilde = (x, v_F x0)."""
    return math.hypot(float(x), fermi.v_F * float(x0))


def scale_window(x, x0, fermi, tail=1e-3):
    """Scales h_min..0 with the tail budget gamma^{h_min} |xtilde| <= tail.

    The budget is quadratic: dropped scales contribute O((gamma^{h_min} r)^2)
    of the total, so tail = 1e-3 leaves a ~1e-6 relative remainder.
    """
    xt = tilde_norm(x, x0, fermi)
    if xt <= 0.0:
        raise ValueError("correlations need |xtilde| > 0")
    h_min = int(math.floor(math.log(tail / xt) / math.log(fermi.gamma)))
    return np.arange(h_min, 1)


def dirac_profiles(hs, x, x0, fermi):
    """g_{D,+}^{(h)}(x, x0) for every h in hs (the omega = -1 branch is the
    conjugate).  Scales with gamma^h r > 1024 are dropped: the radial
    profile is below 1e-10 there and the dropped share of the full sum is
    under 1e-9.  The radial quadrature takes 256 nodes, 512 past
    gamma^h r = 256 to keep the oscillatory integrand resolved."""
    chi = props.CutoffFunction(fermi.gamma)
    r = math.sqrt(float(x0) ** 2 + (float(x) / fermi.v_F) ** 2)
    R = fermi.gamma ** np.asarray(hs, dtype=float) * r
    keep = R <= 1024.0
    rad = np.zeros_like(R)
    if np.any(keep):
        n = 256 if R[keep].max() <= 256.0 else 512
        rad[keep] = props._dirac_radial(R[keep], fermi, chi, n)
    pref = (float(x0) - 1j * float(x) / fermi.v_F) / (fermi.v_F * r)
    return pref * (fermi.gamma ** np.asarray(hs, dtype=float) / TWO_PI) * rad


def _weight_matrix(ztab, znum, hs):
    """W_{hh'} = znum[h v h']^2 / (Z_h Z_{h'}) on the window, h v h' = max."""
    ii = (-np.asarray(hs)).astype(int)
    if ii.max() > ztab.depth:
        raise ValueError("renormalization tables shallower than the scale "
                         "window; run the coupling flow deeper")
    num = znum[np.minimum.outer(ii, ii)] ** 2
    den = np.outer(ztab.Z[ii], ztab.Z[ii])
    return num / den


def same_branch_sum(gp, W):
    """sum_{h,h'} W_{hh'} g_+^{(h)} g_+^{(h')} (complex bilinear)."""
    return gp @ W @ gp


def cross_branch_sum(gp, W):
    """sum_{h,h'} W_{hh'} g_+^{(h)} g_-^{(h')}; real by symmetry of W."""
    return float((gp @ W @ np.conj(gp)).real)


# ----------------------------------------------------------------------
# closed-form asymptotics
# ----------------------------------------------------------------------


def log_factor(x, x0, ex, fermi):
    """L(x) = 1 + f log|xtilde| with the first-order coefficient f."""
    return 1.0 + ex.f_lambda * math.log(tilde_norm(x, x0, fermi))


def _first_order(rset):
    """True when the zeta exponents take their first-order values: without a
    flowed RenormSet, or for a free flow (g1_0 = 0), where q's denominator
    log(1 + a g1_0 |h|) vanishes."""
    return rset is None or rset.g1_0 == 0.0


def _q_at(rset, t, x, x0, fermi):
    """q_t interpolated at the scale h_x = -log_gamma |xtilde|."""
    hx = -math.log(tilde_norm(x, x0, fermi)) / math.log(fermi.gamma)
    return rn.q_interpolated(rset, t, hx)


def zeta_estimate(x, x0, alpha, ex, fermi, rset=None):
    """zeta_alpha(x) = 2 [q_{2,alpha} - q_z] interpolated at the scale
    h_x = -log_gamma |xtilde| (linear in log|x| between integer scales).
    Without a flowed, interacting RenormSet the first-order value zeta_bar
    is used."""
    if _first_order(rset):
        return ex.zeta_bar[alpha]
    return 2.0 * (_q_at(rset, "2" + alpha, x, x0, fermi)
                  - _q_at(rset, "z", x, x0, fermi))


def _zeta_tilde_sc(x, x0, ex, fermi, rset):
    if _first_order(rset):
        return 0.0
    return 2.0 * (_q_at(rset, "1SC", x, x0, fermi)
                  - _q_at(rset, "z", x, x0, fermi))


def _zeta_z(x, x0, fermi, rset):
    if _first_order(rset):
        return 0.0
    return -_q_at(rset, "z", x, x0, fermi)


def closed_components(x, x0, alpha, ex, fermi, rset=None):
    """(non-oscillating, oscillating) closed-form parts of Omega_alpha."""
    x = float(x)
    x0 = float(x0)
    xt2 = (fermi.v_F * x0) ** 2 + x ** 2
    xt = math.sqrt(xt2)
    obar = ((fermi.v_F * x0) ** 2 - x ** 2) / xt2
    qbar = 2.0 * fermi.v_F * x0 * x / xt2
    L = log_factor(x, x0, ex, fermi)
    cos2 = math.cos(2.0 * fermi.p_F * x)
    sin2 = math.sin(2.0 * fermi.p_F * x)
    pi2 = math.pi ** 2
    if alpha in ("C", "S"):
        uni = obar / (pi2 * xt2)
        zeta = zeta_estimate(x, x0, alpha, ex, fermi, rset)
        osc = cos2 * L ** zeta / (pi2 * xt ** (2.0 * ex.X[alpha]))
        return uni, osc
    if alpha == "SC":
        zeta = zeta_estimate(x, x0, alpha, ex, fermi, rset)
        uni = -(L ** zeta) / (pi2 * xt ** (2.0 * ex.X["SC"]))
        zt = _zeta_tilde_sc(x, x0, ex, fermi, rset)
        osc = -(obar * cos2 + qbar * sin2) * L ** zt \
            / (pi2 * xt ** (2.0 * ex.X_tilde_SC))
        return uni, osc
    if alpha == "TC":
        zeta = zeta_estimate(x, x0, alpha, ex, fermi, rset)
        uni = -fermi.v_F ** 2 * L ** zeta / (pi2 * xt ** (2.0 * ex.X["TC"]))
        return uni, 0.0
    raise ValueError("unknown channel " + repr(alpha))


# ----------------------------------------------------------------------
# assembled responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationResult:
    x: float
    x0: float
    alpha: str
    scale_sum: float
    closed_form: float
    non_oscillating: float
    oscillating: float
    closed_non_osc: float
    closed_osc: float
    rel_error: float
    exponents_used: object
    h_min: int


def assemble_response(x, alpha, ztab, ex, fermi, x0=0.0, rset=None,
                      tail=1e-3):
    """Scale-sum response Omega_alpha(x, x0) and its closed form.

    The third (correction) class of terms is modeled as zero inside its
    error budget; rel_error compares scale sum and closed form.
    """
    hs = scale_window(x, x0, fermi, tail)
    gp = dirac_profiles(hs, x, x0, fermi)
    cos2 = math.cos(2.0 * fermi.p_F * float(x))
    if alpha in ("C", "S"):
        Wu = _weight_matrix(ztab, ztab.Z1[alpha], hs)
        Wo = _weight_matrix(ztab, ztab.Z2[alpha], hs)
        uni = 4.0 * same_branch_sum(gp, Wu).real
        osc = cos2 * 4.0 * cross_branch_sum(gp, Wo)
    elif alpha == "SC":
        Wu = _weight_matrix(ztab, ztab.Z2["SC"], hs)
        Wo = _weight_matrix(ztab, ztab.Z1["SC"], hs)
        uni = -4.0 * cross_branch_sum(gp, Wu)
        phase = np.exp(2j * fermi.p_F * float(x))
        osc = -4.0 * (phase * same_branch_sum(gp, Wo)).real
    elif alpha == "TC":
        Wu = _weight_matrix(ztab, ztab.Z2["TC"], hs)
        uni = -4.0 * fermi.v_F ** 2 * cross_branch_sum(gp, Wu)
        osc = 0.0
    else:
        raise ValueError("unknown channel " + repr(alpha))
    ucf, ocf = closed_components(x, x0, alpha, ex, fermi, rset)
    total = uni + osc
    closed = ucf + ocf
    rel = abs(total - closed) / max(abs(closed), 1e-300)
    return CorrelationResult(float(x), float(x0), alpha, total, closed,
                             uni, osc, ucf, ocf, rel, ex, int(hs[0]))


def two_point(x, x0, ztab, ex, fermi, rset=None, tail=1e-3):
    """Dressed two-point function and its closed form.

    Scale sum sum_w e^{-i w p_F x} sum_h g_w^{(h)}/Z_h; closed form
    (1/pi) S0bar(x) L^{zeta_z} / |xtilde|^{1+eta_z} with the oscillating
    envelope S0bar = (v_F x0 cos(p_F x) - x sin(p_F x))/|xtilde|.
    Returns (scale_sum, closed_form).
    """
    hs = scale_window(x, x0, fermi, tail)
    gp = dirac_profiles(hs, x, x0, fermi)
    ii = (-hs).astype(int)
    if ii.max() > ztab.depth:
        raise ValueError("renormalization tables shallower than the scale "
                         "window; run the coupling flow deeper")
    s_plus = np.sum(gp / ztab.Z[ii])
    total = 2.0 * (np.exp(-1j * fermi.p_F * float(x)) * s_plus).real
    xt = tilde_norm(x, x0, fermi)
    s0 = (fermi.v_F * float(x0) * math.cos(fermi.p_F * float(x))
          - float(x) * math.sin(fermi.p_F * float(x))) / xt
    L = log_factor(x, x0, ex, fermi)
    closed = s0 * L ** _zeta_z(x, x0, fermi, rset) \
        / (math.pi * xt ** (1.0 + ex.eta_z))
    return total, closed


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------


def oscillation_peak(xs, values):
    """Dominant oscillation frequency of a correlation sample.

    values on the uniform integer grid xs are flattened by |x|^2 to undo the
    leading decay, de-meaned, and Fourier transformed; returns (omega_peak,
    bin_width).  The uniform part survives only in the removed mean and the
    lowest bins, so the peak lands on the 2 p_F line.
    """
    xs = np.asarray(xs, dtype=float)
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx):
        raise ValueError("oscillation_peak needs a uniform grid")
    w = np.asarray(values, dtype=float) * np.abs(xs) ** 2.0
    w = w - w.mean()
    amp = np.abs(np.fft.rfft(w))
    k = 1 + int(np.argmax(amp[1:]))
    n = xs.size
    return TWO_PI * k / (n * dx), TWO_PI / (n * dx)


def correlation_rows(xs, alphas, ztab, ex, fermi, x0=0.0, rset=None,
                     tail=1e-3):
    """CSV rows (alpha, x, x0, scale_sum_re, scale_sum_im, closed_re,
    closed_im, rel_err, X_alpha, zeta_est)."""
    rows = []
    for alpha in alphas:
        for x in xs:
            res = assemble_response(x, alpha, ztab, ex, fermi, x0, rset,
                                    tail)
            zeta = zeta_estimate(x, x0, alpha, ex, fermi, rset)
            rows.append((alpha, float(x), float(x0), res.scale_sum, 0.0,
                         res.closed_form, 0.0, res.rel_error,
                         ex.X[alpha], zeta))
    return rows
