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
Z = 1) reproduces the Wick values up to the truncation of the scale sum,
which stops at h = 0, so the claim holds at long distance only: at
p_F = pi/3 on the space axis the relative error is 0.87 at x = 10 and
4e-3 at x = 100, stays below 1e-5 from x = 316 on and below 1.7e-6 for
400 <= x <= 1200.  One scale window and one set of Dirac profiles serve
every channel of a point.
"""

import math
import numpy as np
from dataclasses import dataclass

from . import propagators as props
from . import renorm as rn
from .model import TWO_PI

CHANNELS = rn.CHANNELS


# ----------------------------------------------------------------------
# renormalization-constant tables
# ----------------------------------------------------------------------


def z_tables(rset, ex, gamma):
    """{t: Z^{(t)}_h = gamma^{-eta_t h} Zhat^{(t)}_h} for t in renorm.HAT_KEYS
    on h = 0 .. -depth, indexed by i = -h: "z" is the wave-function constant,
    "1" + alpha dresses the uniform density part with eta_z and "2" + alpha
    the pair / oscillating part with eta_alpha."""
    i = np.arange(rset.depth + 1, dtype=float)
    return {key: gamma ** (ex.eta[key[1:] if key[0] == "2" else "z"] * i)
            * np.exp(rset.log_zhat[key]) for key in rn.HAT_KEYS}


# ----------------------------------------------------------------------
# scale-sum machinery
# ----------------------------------------------------------------------


def tilde_norm(x, x0, fermi):
    """|xtilde| with xtilde = (x, v_F x0)."""
    return math.hypot(float(x), fermi.v_F * float(x0))


def scale_window(x, x0, fermi, tail):
    """Scales h_min..0 with the tail budget gamma^{h_min} |xtilde| <= tail.

    The budget is quadratic: dropped scales contribute O((gamma^{h_min} r)^2)
    of the total, so tail = 1e-3 leaves a ~1e-6 relative remainder.
    """
    xt = tilde_norm(x, x0, fermi)
    if xt <= 0.0:
        raise ValueError("correlations need |xtilde| > 0")
    h_min = int(math.floor(math.log(tail / xt) / math.log(fermi.gamma)))
    return np.arange(h_min, 1)


def _window_profiles(x, x0, ztab, fermi, tail):
    """Table indices i = -h of the scale window and the profiles on it."""
    hs = scale_window(x, x0, fermi, tail)
    ii = (-hs).astype(int)
    if ii.max() >= ztab["z"].size:
        raise ValueError("renormalization tables shallower than the scale "
                         "window; run the coupling flow deeper")
    return ii, props.dirac_profiles(hs, x, x0, fermi)


def _weight_matrix(ztab, znum, ii):
    """W_{hh'} = znum[h v h']^2 / (Z_h Z_{h'}) on the window, h v h' = max."""
    num = znum[np.minimum.outer(ii, ii)] ** 2
    den = np.outer(ztab["z"][ii], ztab["z"][ii])
    return num / den


# ----------------------------------------------------------------------
# closed-form asymptotics
# ----------------------------------------------------------------------


def log_factor(x, x0, ex, fermi):
    """L(x) = 1 + f log|xtilde| with the first-order coefficient f."""
    return 1.0 + ex.f_lambda * math.log(tilde_norm(x, x0, fermi))


def zeta_estimate(key, x, x0, fermi, rset, first_order):
    """Log exponent 2 [q_key - q_z], q interpolated at the scale
    h_x = -log_gamma |xtilde| (linear in log|x| between integer scales).
    Without a flowed RenormSet, or for a free flow (g1_0 = 0: q's
    denominator log(1 + a g1_0 |h|) vanishes), it is first_order."""
    if rset is None or rset.g1_0 == 0.0:
        return first_order
    hx = -math.log(tilde_norm(x, x0, fermi)) / math.log(fermi.gamma)
    return 2.0 * (rn.q_interpolated(rset, key, hx)
                  - rn.q_interpolated(rset, "z", hx))


def closed_components(x, x0, alpha, ex, fermi, rset=None):
    """(non-oscillating, oscillating) closed-form parts of Omega_alpha and
    the log exponent zeta_alpha of L(x) they use."""
    x, x0 = float(x), float(x0)
    xt2 = (fermi.v_F * x0) ** 2 + x ** 2
    xt = math.sqrt(xt2)
    obar = ((fermi.v_F * x0) ** 2 - x ** 2) / xt2
    qbar = 2.0 * fermi.v_F * x0 * x / xt2
    L = log_factor(x, x0, ex, fermi)
    cos2 = math.cos(2.0 * fermi.p_F * x)
    sin2 = math.sin(2.0 * fermi.p_F * x)
    pi2 = math.pi ** 2
    if alpha not in CHANNELS:
        raise ValueError("unknown channel " + repr(alpha))
    zeta = zeta_estimate("2" + alpha, x, x0, fermi, rset, rn.ZETA_BAR[alpha])
    if alpha in ("C", "S"):
        uni = obar / (pi2 * xt2)
        osc = cos2 * L ** zeta / (pi2 * xt ** (2.0 * ex.X[alpha]))
    elif alpha == "SC":
        uni = -(L ** zeta) / (pi2 * xt ** (2.0 * ex.X["SC"]))
        zt = zeta_estimate("1SC", x, x0, fermi, rset, 0.0)
        osc = -(obar * cos2 + qbar * sin2) * L ** zt \
            / (pi2 * xt ** (2.0 * ex.X_tilde_SC))
    else:
        uni = -fermi.v_F ** 2 * L ** zeta / (pi2 * xt ** (2.0 * ex.X["TC"]))
        osc = 0.0
    return uni, osc, zeta


# ----------------------------------------------------------------------
# assembled responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Response:
    scale_sum: float
    closed_form: float
    rel_error: float
    non_oscillating: float
    zeta: float


def assemble_response(x, alphas, ztab, ex, fermi, x0=0.0, rset=None,
                      tail=1e-3):
    """{alpha: Response} of the scale-sum Omega_alpha(x, x0) and its closed
    form for every channel in alphas, all from one window and one set of
    profiles.  The third (correction) class of terms is modeled as zero
    inside its error budget; rel_error compares scale sum and closed form.
    """
    ii, gp = _window_profiles(x, x0, ztab, fermi, tail)
    gm = np.conj(gp)   # g_-; g_+ W g_- is real because W is symmetric
    cos2 = math.cos(2.0 * fermi.p_F * float(x))
    out = {}
    for alpha in alphas:
        ucf, ocf, zeta = closed_components(x, x0, alpha, ex, fermi, rset)
        if alpha in ("C", "S"):
            Wu = _weight_matrix(ztab, ztab["1" + alpha], ii)
            Wo = _weight_matrix(ztab, ztab["2" + alpha], ii)
            uni = 4.0 * (gp @ Wu @ gp).real
            osc = cos2 * 4.0 * (gp @ Wo @ gm).real
        elif alpha == "SC":
            Wu = _weight_matrix(ztab, ztab["2SC"], ii)
            Wo = _weight_matrix(ztab, ztab["1SC"], ii)
            uni = -4.0 * (gp @ Wu @ gm).real
            phase = np.exp(2j * fermi.p_F * float(x))
            osc = -4.0 * (phase * (gp @ Wo @ gp)).real
        else:   # TC; closed_components rejects any other channel
            Wu = _weight_matrix(ztab, ztab["2TC"], ii)
            uni = -4.0 * fermi.v_F ** 2 * (gp @ Wu @ gm).real
            osc = 0.0
        total = uni + osc
        closed = ucf + ocf
        rel = abs(total - closed) / max(abs(closed), 1e-300)
        out[alpha] = Response(total, closed, rel, uni, zeta)
    return out


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
    closed_im, rel_err, X_alpha, zeta_est), channel by channel."""
    points = [assemble_response(x, alphas, ztab, ex, fermi, x0, rset, tail)
              for x in xs]
    return [(alpha, int(x), float(x0), res[alpha].scale_sum, 0.0,
             res[alpha].closed_form, 0.0, res[alpha].rel_error, ex.X[alpha],
             res[alpha].zeta)
            for alpha in alphas for x, res in zip(xs, points)]
