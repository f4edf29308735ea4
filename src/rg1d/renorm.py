"""Flow of the renormalization constants and exponent extraction.

The compensated vertex amplitudes Zhat^{(t)}_h obey one-step ratios that are
linear in the couplings.  In units of the bubble constant a, the (2, alpha)
channel coefficients of (g1_h, g2_h - g2_inf) are

    C:  (-1, +1/2)     S:  (0, +1/2)
    SC: (-1/2, -1/2)   TC: (+1/2, -1/2)

so with the conserved combination g2_j - g2_inf = g1_j / 2 the log-ratios
integrate to q^{(h)} = log Zhat_h / log(1 + a g1_0 |h|) -> (-3/4, 1/4, -3/4,
1/4), twice the logarithmic-correction exponents.  The wave-function (z) and
non-oscillating density (1, alpha) channels stay at q = O(lambda).  The full
constants are Z^{(t)}_h = gamma^{-eta_t h} Zhat^{(t)}_h with the anomalous
exponents eta_t evaluated at first order from the fixed-point couplings.
"""

import math
import numpy as np
from dataclasses import dataclass

from .model import THETA

# channel -> (coefficient of a*g1_h, coefficient of a*(g2_h - g2_inf))
Z2_COEFFS = {
    "C": (-1.0, +0.5),
    "S": (0.0, +0.5),
    "SC": (-0.5, -0.5),
    "TC": (+0.5, -0.5),
}

CHANNELS = ("C", "S", "SC", "TC")

ZETA_BAR = {"z": 0.0, "C": -1.5, "S": 0.5, "SC": -1.5, "TC": 0.5}

HAT_KEYS = ("z", "1C", "1S", "1SC", "2C", "2S", "2SC", "2TC")


def linear_coefficient_identity():
    """The exact first-order relation between channels on the g1 coefficient:
    coeff(C) + coeff(TC) - 2 coeff(S) = coeff(SC).  Returns (lhs, rhs)."""
    lhs = Z2_COEFFS["C"][0] + Z2_COEFFS["TC"][0] - 2.0 * Z2_COEFFS["S"][0]
    return lhs, Z2_COEFFS["SC"][0]


# ----------------------------------------------------------------------
# renormalization-constant flow
# ----------------------------------------------------------------------


@dataclass
class RenormSet:
    """log Zhat^{(t)}_h for t in HAT_KEYS, h = 0 .. -depth (index i = -h).

    Zhat_0 = 1 for every channel.  residual_mode records whether the
    O(lambda^2)-summable residual model was enabled when flowing.
    """

    lam: complex
    depth: int
    a: float
    g1_0: float
    log_zhat: dict
    residual_mode: str

    def log_zhat_at(self, t, h):
        return float(self.log_zhat[t][-h])

    def log_zhat_interp(self, t, h_real):
        """Linear interpolation of log Zhat in the scale variable."""
        i = -h_real
        arr = self.log_zhat[t]
        if i <= 0.0:
            return float(arr[0])
        if i >= self.depth:
            return float(arr[-1])
        i0 = int(math.floor(i))
        t_frac = i - i0
        return float((1.0 - t_frac) * arr[i0] + t_frac * arr[i0 + 1])


def _residuals(mode, lam, depth, gamma, seed):
    """Per-scale residual sequence r_h with sum_h |r_h| <= C |lam|^2.

    "none": zeros; "envelope": |lam|^2 gamma^{theta h} with signs
    +1 (worst case) or seeded uniform in [-1, 1].
    """
    if mode == "none":
        return np.zeros(depth)
    if mode != "envelope":
        raise ValueError("residual mode must be none or envelope")
    mods = np.ones(depth)
    if seed is not None:
        mods = np.random.default_rng(seed).uniform(-1.0, 1.0, depth)
    hs = -np.arange(depth, dtype=float)
    return abs(lam) ** 2 * gamma ** (THETA * hs) * mods


def z_flow(traj, limits, residual_mode="none", seed=None):
    """Integrate the Zhat ratios along a coupling trajectory.

    Ratio at scale h (step h -> h-1), with d2_h = g2_h - g2_inf:

        (2, alpha): 1 + a [c_g1 g1_h + c_d2 d2_h] + r_h
        z, (1, alpha): 1 + r_h

    with (c_g1, c_d2) from Z2_COEFFS and r_h the configured residuals.
    """
    g1 = traj.couplings[:, 0].real
    g2 = traj.couplings[:, 1].real
    depth = g1.size - 1
    a = traj.a
    d2 = g2 - limits.g2_inf.real
    out = {}
    for ki, key in enumerate(HAT_KEYS):
        r = _residuals(residual_mode, traj.lam, depth, traj.gamma,
                       None if seed is None else seed + ki)
        if key.startswith("2"):
            cg1, cd2 = Z2_COEFFS[key[1:]]
            ratios = 1.0 + a * (cg1 * g1[:-1] + cd2 * d2[:-1]) + r
        else:
            ratios = 1.0 + r
        if np.any(ratios <= 0.0):
            raise ValueError("nonpositive Zhat ratio; flow out of range")
        logz = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
        out[key] = logz
    return RenormSet(traj.lam, depth, a, float(g1[0]), out, residual_mode)


def q_coefficient(rset, t, h):
    """q^{(h)}_t = log Zhat^{(t)}_h / log(1 + a g1_0 |h|)."""
    if h >= 0:
        raise ValueError("q is defined for h < 0")
    den = math.log1p(rset.a * rset.g1_0 * (-h))
    return rset.log_zhat_at(t, h) / den


def q_interpolated(rset, t, h_real):
    """q at a real-valued scale via linear interpolation of log Zhat."""
    if h_real >= 0.0:
        return 0.0
    den = math.log1p(rset.a * rset.g1_0 * (-h_real))
    return rset.log_zhat_interp(t, h_real) / den


# ----------------------------------------------------------------------
# exponents
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentSet:
    """First-order anomalous and correlation exponents.

    X_alpha = 1 - eta_{2,alpha} - eta_z; the oscillating pair channel keeps
    X_tilde_SC = 1 at this order.  f_lambda is the coefficient of log|x| in
    the logarithmic correction factor L(x) = 1 + f_lambda log|x|.  Every
    entry is first order: it carries an O(lambda^2) uncertainty.
    """

    eta_z: float
    eta_2C: float
    eta_2S: float
    eta_2SC: float
    eta_2TC: float
    X: dict
    X_tilde_SC: float
    zeta_bar: dict
    f_lambda: float
    c_coefficient: float

    def eta_2(self, alpha):
        return {"C": self.eta_2C, "S": self.eta_2S,
                "SC": self.eta_2SC, "TC": self.eta_2TC}[alpha]


def c_coefficient(potential, fermi):
    """Slope of 1 - X_C in lambda: (2 vhat(0) - vhat(2 p_F)) / (2 pi v_F)."""
    vh0 = potential.fourier(0.0)
    vh2p = potential.fourier(2.0 * fermi.p_F)
    return (2.0 * vh0 - vh2p) / (2.0 * math.pi * fermi.v_F)


def exponents(params, limits, fermi=None):
    """First-order ExponentSet from the fixed-point couplings."""
    fermi = params.fermi() if fermi is None else fermi
    g2inf = limits.g2_inf.real
    # + 0.0 and 0.0 - base: a vanishing coupling gives +0, never -0
    base = g2inf / (2.0 * math.pi * fermi.v_F) + 0.0
    eta = {"z": 0.0, "C": base, "S": base, "SC": 0.0 - base, "TC": 0.0 - base}
    X = {al: 1.0 - eta[al] - eta["z"] for al in CHANNELS}
    vh2p = params.potential.fourier(2.0 * fermi.p_F)
    f_lam = 2.0 * params.lam.real * vh2p / (math.pi * fermi.v_F)
    return ExponentSet(eta["z"], eta["C"], eta["S"], eta["SC"], eta["TC"],
                       X, 1.0, dict(ZETA_BAR), f_lam,
                       c_coefficient(params.potential, fermi))

