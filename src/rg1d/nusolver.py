"""Fixed point of the relevant (counterterm) direction.

The chemical-potential counterterm sequence nu_j, j in [h_box, 1], must
satisfy nu = T(nu) with the boundary value nu_{h_box} = 0 and

    T(nu)_h = - sum_{j=h_box+1}^{h} gamma^{-(h-j+1)} beta_nu^{(j)},
    beta_nu^{(j)} = eps [ c0 sum_{i>=j} nu_i gamma^{-theta'(i-j)}
                          + gamma^{theta' j} c0 p_F / pi ].

The one-step beta coefficients are not available in closed form, only
bounded by c0; the module ships this structural model, which holds each
at that bound, with the first-order tadpole-like forcing c0 p_F / pi so
that the counterterm tracks the filling.  A NuBetaModel keeps its five
scalars h_box, c0, gamma, p_F and eps; the exponents theta < theta' are
model.THETA and model.THETA_PRIME.  T contracts on the weighted ball
||nu||_theta = max_j gamma^{-theta j}|nu_j| <= xi |lambda| once the
weighted norm of its linear part is below 1, and Picard iteration from 0
converges geometrically.

Array conventions: a counterterm sequence is a complex array on
model.scales(), i.e. nu[j - h_box] holds nu_j for j = h_box .. 1; nu[-1]
is nu_1.
"""

import math
import numpy as np
from dataclasses import dataclass, replace

from .model import THETA, THETA_PRIME

# half-width of the finite difference behind nu1_derivative
DERIVATIVE_STEP = 1e-4


@dataclass(frozen=True)
class NuBetaModel:
    """Constant-envelope one-step coefficients for the counterterm
    direction (module docstring); eps is eps_scale |lambda| in
    inversion_rows."""

    h_box: int
    c0: float
    gamma: float
    p_F: float
    eps: float

    def scales(self):
        return np.arange(self.h_box, 2)


def default_model(h_box, p_F, eps_value, c0=0.25):
    """Constant-envelope model at gamma = 2.  c0 = 1 would not contract at
    the default scales; 0.25 keeps the measured contraction ratio below 1/2
    for |lambda| <= 0.02."""
    return NuBetaModel(h_box, c0, 2.0, p_F, float(eps_value))


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------


def _cross_weights(model):
    """gamma^{-theta'(i-j)} at [j - h_box, i - h_box] for i >= j, else 0."""
    js = model.scales()
    i_minus_j = js[None, :] - js[:, None]
    return np.where(i_minus_j >= 0,
                    model.gamma ** (-THETA_PRIME * i_minus_j), 0.0)


def theta_norm(nu, model):
    """||nu||_theta = max_j gamma^{-theta j} |nu_j|."""
    w = model.gamma ** (-THETA * model.scales())
    return float(np.max(w * np.abs(nu)))


def beta_sequence(nu, model):
    """beta_nu^{(j)} for j = h_box .. 1 (the h_box entry is never used)."""
    cross = (model.c0 * _cross_weights(model)) @ nu
    forcing = model.gamma ** (THETA_PRIME * model.scales()) \
        * (model.c0 * model.p_F / math.pi)
    return model.eps * (cross + forcing)


def T_operator(nu, model):
    """One application of the fixed-point map.

    Evaluated by the stable ascending recursion
    T_h = (T_{h-1} - beta_nu^{(h)}) / gamma with T_{h_box} = 0.
    """
    b = beta_sequence(nu, model)
    out = np.zeros_like(nu)
    for k in range(1, out.size):
        out[k] = (out[k - 1] - b[k]) / model.gamma
    return out


# ----------------------------------------------------------------------
# solving
# ----------------------------------------------------------------------


@dataclass
class SolveReport:
    nu: np.ndarray
    iterations: int
    residual: float
    contraction_ratio: float
    contracting: bool

    @property
    def nu1(self):
        """The counterterm at scale 1, Re nu_1."""
        return float(self.nu[-1].real)


def solve_fixed_point(model, tol=1e-12):
    """Picard iteration from nu = 0; geometric convergence expected.

    The step difference d = ||T(nu) - nu||_theta stops falling at the
    roundoff floor 64 eps ||T(nu)||_theta (eps of float64), and the
    iteration stops once d < max(tol, floor).  Above the floor a difference
    ratio >= 1 is reported as not contracting; below it the ratio is noise
    and is not recorded.  Raises if 400 iterations do not stop.
    """
    nu = np.zeros(model.scales().size, dtype=complex)
    prev_diff = None
    ratios = []
    for it in range(1, 401):
        nxt = T_operator(nu, model)
        diff = theta_norm(nxt - nu, model)
        floor = 64.0 * np.finfo(float).eps * theta_norm(nxt, model)
        if prev_diff is not None and prev_diff > 0.0 and diff >= floor:
            r = diff / prev_diff
            ratios.append(r)
            if r >= 1.0:
                return SolveReport(nxt, it, diff, r, False)
        nu = nxt
        if diff < max(tol, floor):
            resid = theta_norm(T_operator(nu, model) - nu, model)
            ratio = max(ratios) if ratios else 0.0
            return SolveReport(nu, it, resid, ratio, True)
        prev_diff = diff
    raise RuntimeError("fixed point not reached within 400 iterations")


def ball_check(model, xi_lam):
    """T maps the ball ||nu||_theta <= xi_lam into itself, and contracts
    on random pairs, over 100 random points.  Returns (worst output norm /
    xi_lam, worst pair ratio)."""
    rng = np.random.default_rng(0)
    js = model.scales()
    w = model.gamma ** (THETA * js)
    worst_norm = 0.0
    worst_ratio = 0.0
    prev = None
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, js.size) \
            + 1j * rng.uniform(-1.0, 1.0, js.size)
        u *= rng.uniform(0.0, 1.0) / np.max(np.abs(u))
        nu = xi_lam * w * u
        nu[0] = 0.0
        out = T_operator(nu, model)
        worst_norm = max(worst_norm, theta_norm(out, model) / xi_lam)
        if prev is not None:
            d = theta_norm(nu - prev, model)
            if d > 0.0:
                worst_ratio = max(worst_ratio, theta_norm(
                    out - T_operator(prev, model), model) / d)
        prev = nu
    return worst_norm, worst_ratio


# ----------------------------------------------------------------------
# chemical-potential inversion
# ----------------------------------------------------------------------


def solve_at_mu(mu, model, tol=1e-12):
    """The contracting solve of the map at the Fermi point arccos(mu)."""
    if not -1.0 < mu < 1.0:
        raise ValueError("mu must lie inside the band (-1, 1)")
    rep = solve_fixed_point(replace(model, p_F=math.acos(mu)), tol)
    if not rep.contracting:
        raise RuntimeError("counterterm map stopped contracting")
    return rep


def nu1_derivative(mu, model, tol=1e-12):
    """Two-point finite difference of nu1 in mu, DERIVATIVE_STEP each side."""
    up = solve_at_mu(mu + DERIVATIVE_STEP, model, tol).nu1
    dn = solve_at_mu(mu - DERIVATIVE_STEP, model, tol).nu1
    return (up - dn) / (2.0 * DERIVATIVE_STEP)


@dataclass(frozen=True)
class InversionReport:
    p_F: float
    nu1: float
    derivative: float
    residual: float
    first: SolveReport    # the first step's solve, at mu = mu_bar


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
    mu, first = mu_bar, None
    for _ in range(100):
        rep = solve_at_mu(mu, model, tol)
        first = rep if first is None else first
        mu, prev = mu_bar - rep.nu1, mu
        if abs(mu - prev) < tol:
            break
    else:
        raise RuntimeError("chemical-potential inversion did not settle")
    nu1 = solve_at_mu(mu, model, tol).nu1
    return InversionReport(math.acos(mu), nu1, deriv, abs(mu + nu1 - mu_bar), first)


def inversion_rows(lams, mu_bar, h_box, eps_scale=2.0, c0=0.25, tol=1e-12):
    """CSV rows (lambda, mu_bar, p_F, nu1, iterations, contraction_ratio,
    residual) across couplings; eps = eps_scale |lambda|."""
    rows = []
    for lam in lams:
        model = default_model(h_box, math.acos(mu_bar), eps_scale * abs(lam),
                              c0=c0)
        inv = invert_pF(mu_bar, model, tol)
        rows.append((lam, mu_bar, inv.p_F, inv.nu1, inv.first.iterations,
                     inv.first.contraction_ratio, inv.residual))
    return rows
