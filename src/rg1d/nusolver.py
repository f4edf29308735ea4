"""Fixed point of the relevant (counterterm) direction.

The chemical-potential counterterm sequence nu_j, j in [h_box, 1], must
satisfy nu = T(nu) with

    T(nu)_h = - sum_{j=h_box+1}^{h} gamma^{-(h-j+1)} beta_nu^{(j)},
    beta_nu^{(j)} = eps_j [ sum_{i>=j} nu_i bcross_{j,i} gamma^{-theta'(i-j)}
                            + gamma^{theta' j} bdiag_j ],

with |bcross|, |bdiag| <= c0 and the boundary value nu_{h_box} = 0.  The
one-step beta coefficients are not available in closed form; the module
ships the structural model with bounded arrays (bdiag defaults to the
first-order tadpole-like value c0 p_F / pi so that the counterterm tracks
the filling).  A NuBetaModel keeps the box scale, c0, gamma and those
arrays; the exponents theta < theta' are model.THETA and
model.THETA_PRIME.  T contracts on the weighted ball
||nu||_theta = max_j gamma^{-theta j}|nu_j| <= xi |lambda| once the
measured operator norm is below 1, and Picard iteration from 0 converges
geometrically.
"""

import math
import numpy as np
from dataclasses import dataclass, field, replace

from .model import THETA, THETA_PRIME


@dataclass
class NuSequence:
    """Counterterm values on scales j = h_box .. 1 (ascending index)."""

    h_box: int
    gamma: float
    values: np.ndarray

    @classmethod
    def zero(cls, h_box, gamma):
        return cls(h_box, gamma, np.zeros(2 - h_box, dtype=complex))

    def scales(self):
        return np.arange(self.h_box, 2)

    def at(self, j):
        if j < self.h_box or j > 1:
            raise ValueError("scale outside [h_box, 1]")
        return self.values[j - self.h_box]

    @property
    def nu1(self):
        return self.values[-1]

    def norm(self):
        w = self.gamma ** (-THETA * self.scales())
        return float(np.max(w * np.abs(self.values)))

    def diff_norm(self, other):
        w = self.gamma ** (-THETA * self.scales())
        return float(np.max(w * np.abs(self.values - other.values)))


@dataclass
class NuBetaModel:
    """Structural one-step coefficients for the counterterm direction.

    bdiag[j] and bcross[j, i] (used for i >= j) are bounded by c0; eps is
    the per-scale smallness factor on j = h_box+1 .. 1, either constant or
    read from a coupling trajectory.
    """

    h_box: int
    c0: float
    gamma: float
    bdiag: np.ndarray      # index j - h_box, scales h_box .. 1
    bcross: np.ndarray     # [j - h_box, i - h_box], applied for i >= j
    eps: np.ndarray        # index j - h_box, scales h_box .. 1

    def with_p_F(self, p_F):
        """Same model with the tadpole-like diagonal at a new Fermi point."""
        n = 2 - self.h_box
        return replace(self, bdiag=np.full(n, self.c0 * p_F / math.pi))

    def scales(self):
        return np.arange(self.h_box, 2)


def default_model(h_box, p_F, eps_value, c0=0.25):
    """Constant-envelope model at gamma = 2: bcross = c0, bdiag = c0 p_F / pi,
    eps constant.  c0 = 1 would not contract at the default scales; 0.25
    keeps the measured operator norm safely below 1/2 for |lambda| <= 0.02."""
    n = 2 - h_box
    return NuBetaModel(h_box, c0, 2.0,
                       np.full(n, c0 * p_F / math.pi),
                       np.full((n, n), c0),
                       np.full(n, float(eps_value)))


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------


def beta_sequence(nu, model):
    """beta_nu^{(j)} for j = h_box .. 1 (the h_box entry is never used)."""
    js = model.scales()
    i_minus_j = js[None, :] - js[:, None]
    # weights gamma^{-theta'(i-j)} on the upper triangle i >= j
    w = np.where(i_minus_j >= 0,
                 model.gamma ** (-THETA_PRIME * i_minus_j), 0.0)
    cross = (model.bcross * w) @ nu.values
    forcing = model.gamma ** (THETA_PRIME * js) * model.bdiag
    return model.eps * (cross + forcing)


def T_operator(nu, model):
    """One application of the fixed-point map.

    Evaluated by the stable ascending recursion
    T_h = (T_{h-1} - beta_nu^{(h)}) / gamma with T_{h_box} = 0.
    """
    b = beta_sequence(nu, model)
    out = np.zeros_like(nu.values)
    for k in range(1, out.size):
        out[k] = (out[k - 1] - b[k]) / model.gamma
    return NuSequence(model.h_box, model.gamma, out)


def operator_matrix(model):
    """A = dT/dnu as an explicit matrix over scales h_box .. 1."""
    js = model.scales()
    n = js.size
    i_minus_j = js[None, :] - js[:, None]
    w = np.where(i_minus_j >= 0,
                 model.gamma ** (-THETA_PRIME * i_minus_j), 0.0)
    dB = model.eps[:, None] * model.bcross * w
    A = np.zeros((n, n))
    for k in range(1, n):
        A[k] = (A[k - 1] - dB[k]) / model.gamma
    return A


def operator_norm(model):
    """Weighted norm max_h gamma^{-theta h} sum_i |A_{h,i}| gamma^{theta i}."""
    A = operator_matrix(model)
    js = model.scales().astype(float)
    row = np.abs(A) @ model.gamma ** (THETA * js)
    return float(np.max(model.gamma ** (-THETA * js) * row))


# ----------------------------------------------------------------------
# solving
# ----------------------------------------------------------------------


@dataclass
class SolveReport:
    nu: NuSequence
    iterations: int
    residual: float
    contraction_ratio: float
    ratios: list = field(default_factory=list)
    contracting: bool = True


def solve_fixed_point(model, tol=1e-12):
    """Picard iteration from nu = 0; geometric convergence expected.

    Reports a measured successive-difference ratio >= 1 as not contracting
    (the map is then not a contraction at these parameters); raises if 400
    iterations do not reach tol.
    """
    nu = NuSequence.zero(model.h_box, model.gamma)
    prev_diff = None
    ratios = []
    for it in range(1, 401):
        nxt = T_operator(nu, model)
        diff = nxt.diff_norm(nu)
        if prev_diff is not None and prev_diff > 0.0:
            r = diff / prev_diff
            ratios.append(r)
            if r >= 1.0:
                return SolveReport(nxt, it, diff, r, ratios, False)
        nu = nxt
        if diff < tol:
            resid = T_operator(nu, model).diff_norm(nu)
            ratio = max(ratios) if ratios else 0.0
            return SolveReport(nu, it, resid, ratio, ratios, True)
        prev_diff = diff
    raise RuntimeError("fixed point not reached within 400 iterations")


def ball_check(model, xi_lam, seed=0):
    """T maps the ball ||nu||_theta <= xi_lam into itself, and contracts
    on random pairs, over 100 random points.  Returns (worst output norm /
    xi_lam, worst pair ratio)."""
    rng = np.random.default_rng(seed)
    js = np.arange(model.h_box, 2)
    w = model.gamma ** (THETA * js)
    worst_norm = 0.0
    worst_ratio = 0.0
    prev = None
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, js.size) \
            + 1j * rng.uniform(-1.0, 1.0, js.size)
        u *= rng.uniform(0.0, 1.0) / np.max(np.abs(u))
        nu = NuSequence(model.h_box, model.gamma, xi_lam * w * u)
        nu.values[0] = 0.0
        out = T_operator(nu, model)
        worst_norm = max(worst_norm, out.norm() / xi_lam)
        if prev is not None:
            d = nu.diff_norm(prev)
            if d > 0.0:
                worst_ratio = max(worst_ratio,
                                  T_operator(nu, model).diff_norm(
                                      T_operator(prev, model)) / d)
        prev = nu
    return worst_norm, worst_ratio


# ----------------------------------------------------------------------
# chemical-potential inversion
# ----------------------------------------------------------------------


def nu1_of_mu(mu, model, tol=1e-12):
    """Counterterm at scale 1 for the Fermi point arccos(mu)."""
    if not -1.0 < mu < 1.0:
        raise ValueError("mu must lie inside the band (-1, 1)")
    rep = solve_fixed_point(model.with_p_F(math.acos(mu)), tol)
    if not rep.contracting:
        raise RuntimeError("counterterm map stopped contracting")
    return float(rep.nu.nu1.real)


def nu1_derivative(mu, model, step=1e-4, tol=1e-12):
    """Two-point finite difference of nu1 in mu."""
    up = nu1_of_mu(mu + step, model, tol)
    dn = nu1_of_mu(mu - step, model, tol)
    return (up - dn) / (2.0 * step)


@dataclass(frozen=True)
class InversionReport:
    mu_bar: float
    mu: float
    p_F: float
    nu1: float
    iterations: int
    derivative: float
    residual: float


def invert_pF(mu_bar, model, tol=1e-12):
    """Solve mu_bar = mu + nu1(mu) by fixed-point iteration (at most 100
    steps).

    Contraction needs |d nu1 / d mu| < 1/2; the measured finite-difference
    derivative is reported and enforced.
    """
    if not -1.0 < mu_bar < 1.0:
        raise ValueError("mu_bar must lie inside the band (-1, 1)")
    deriv = nu1_derivative(mu_bar, model, tol=tol)
    if abs(deriv) >= 0.5:
        raise RuntimeError("d nu1/d mu = %.3f outside the contraction "
                           "regime" % deriv)
    mu = mu_bar
    for it in range(1, 101):
        nxt = mu_bar - nu1_of_mu(mu, model, tol)
        if abs(nxt - mu) < tol:
            mu = nxt
            break
        mu = nxt
    else:
        raise RuntimeError("chemical-potential inversion did not settle")
    nu1 = nu1_of_mu(mu, model, tol)
    return InversionReport(mu_bar, mu, math.acos(mu), nu1, it,
                           deriv, abs(mu + nu1 - mu_bar))


def inversion_rows(lams, mu_bar, h_box, eps_scale=2.0, c0=0.25, tol=1e-12):
    """CSV rows (lambda, mu_bar, p_F, nu1, iterations, contraction_ratio,
    residual) across couplings; eps = eps_scale |lambda|."""
    rows = []
    for lam in lams:
        model = default_model(h_box, math.acos(mu_bar), eps_scale * abs(lam),
                              c0=c0)
        rep = solve_fixed_point(model, tol)
        inv = invert_pF(mu_bar, model, tol)
        rows.append((lam, mu_bar, inv.p_F, inv.nu1, rep.iterations,
                     rep.contraction_ratio, inv.residual))
    return rows
