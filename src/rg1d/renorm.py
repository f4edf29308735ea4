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

RESIDUAL_MODES = ("none", "envelope")


# ----------------------------------------------------------------------
# renormalization-constant flow
# ----------------------------------------------------------------------


@dataclass
class RenormSet:
    """log Zhat^{(t)}_h for t in HAT_KEYS, h = 0 .. -depth (index i = -h);
    Zhat_0 = 1 for every channel."""

    depth: int
    a: float
    g1_0: float
    log_zhat: dict


def _residuals(mode, lam, depth, gamma, seed):
    """Per-scale residual sequence r_h with sum_h |r_h| <= C |lam|^2.

    "none": zeros; "envelope": |lam|^2 gamma^{theta h} with every sign
    +1 (seed None) or seeded uniform in [-1, 1].
    """
    if mode not in RESIDUAL_MODES:
        raise ValueError("residual mode must be one of %s" % ", ".join(RESIDUAL_MODES))
    if mode == "none":
        return np.zeros(depth)
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
    return RenormSet(depth, a, float(g1[0]), out)


def q_interpolated(rset, t, h_real):
    """q^{(h)}_t = log Zhat^{(t)}_h / log(1 + a g1_0 |h|) at a real-valued
    scale h, with log Zhat interpolated linearly between integer scales and
    held at its last value below h = -depth; 0 at h >= 0."""
    if h_real >= 0.0:
        return 0.0
    den = math.log1p(rset.a * rset.g1_0 * (-h_real))
    i = -h_real
    arr = rset.log_zhat[t]
    if i >= rset.depth:
        return float(arr[-1]) / den
    i0 = int(math.floor(i))
    t_frac = i - i0
    return float((1.0 - t_frac) * arr[i0] + t_frac * arr[i0 + 1]) / den


# ----------------------------------------------------------------------
# exponents
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentSet:
    """First-order anomalous and correlation exponents.

    eta holds the anomalous exponents under the keys z (wave function) and
    C, S, SC, TC (the pair channels eta_{2,alpha}); X_alpha = 1 -
    eta[alpha] - eta[z].  The oscillating pair channel keeps X_tilde_SC = 1
    at this order.  f_lambda is the coefficient of log|x| in the logarithmic
    correction factor L(x) = 1 + f_lambda log|x|.  Every entry is first
    order: it carries an O(lambda^2) uncertainty.
    """

    eta: dict
    X: dict
    X_tilde_SC: float
    f_lambda: float
    c_coefficient: float


def c_coefficient(potential, fermi):
    """Slope of 1 - X_C in lambda: (2 vhat(0) - vhat(2 p_F)) / (2 pi v_F)."""
    vh0 = potential.fourier(0.0)
    vh2p = potential.fourier(2.0 * fermi.p_F)
    return (2.0 * vh0 - vh2p) / (2.0 * math.pi * fermi.v_F)


def exponents(params, limits):
    """First-order ExponentSet from the fixed-point couplings."""
    fermi = params.fermi()
    g2inf = limits.g2_inf.real
    # + 0.0 and 0.0 - base: a vanishing coupling gives +0, never -0
    base = g2inf / (2.0 * math.pi * fermi.v_F) + 0.0
    eta = {"z": 0.0, "C": base, "S": base, "SC": 0.0 - base, "TC": 0.0 - base}
    X = {al: 1.0 - eta[al] - eta["z"] for al in CHANNELS}
    vh2p = params.potential.fourier(2.0 * fermi.p_F)
    f_lam = 2.0 * params.lam.real * vh2p / (math.pi * fermi.v_F)
    return ExponentSet(eta, X, 1.0, f_lam,
                       c_coefficient(params.potential, fermi))

