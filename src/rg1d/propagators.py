"""Free propagator, smooth scale decomposition and Gram certificates.

Conventions used everywhere in this package:

    g(x, x0) = (1/(beta L)) sum_{k, k0} e^{-i(k0 x0 + k x)} / (-i k0 + e(k))

with e(k) = mu_bar - cos k, k on the spatial grid (2 pi / L) Z and k0 on the
fermionic Matsubara grid (2 pi / beta)(Z + 1/2).  The frequency sum is
conditionally convergent; the two concrete representations are

  * kernel_sum: the frequency sum done in closed form first,
        I(k, tau) =  e^{-tau e} / (1 + e^{-beta e})   for 0 < tau < beta
        I(k, tau) = -e^{-tau e} / (1 + e^{+beta e})   for -beta < tau <= 0
    (equal time resolved as tau = 0^-), then the k sum;
  * cutoff_sum(M): both sums done with the smooth frequency weight
    chi0(gamma^-M k0), which converges to kernel_sum pointwise away from
    x = (0, n beta) and to the half-sum of the two one-sided limits there.

The scale decomposition splits 1 = f_uv + sum_omega chi(k - omega p, k0) and
then slices f_uv into ultraviolet frequency shells H_h (1 <= h <= M) and
each infrared sector into shells f_h (h <= 0) of width gamma^h around the
Fermi points.  With mu_bar = cos(p) and p on the snapped grid the split is
an exact finite-sum identity, tested to near machine precision.

shell_grid is the one place where the (k, k0) grids of these pieces are
built: it returns the momenta, frequencies, band and numerator weight of a
uv shell, an ir or dirac shell, or the whole cutoff propagator.  Point
values (single_scale, free_propagator's cutoff_sum), whole-lattice tables
(propagator_table), Gram norms (gram_certify) and the lattice bubble of
rgflow are all sums over that record.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j1 as bessel_j1

from .model import MomentumGrids, TWO_PI, ir_dispersion

# ----------------------------------------------------------------------
# smooth cutoff
# ----------------------------------------------------------------------

def _bump(u):
    """w(u) = exp(-1/u) for u > 0, 0 otherwise (vectorized, overflow safe)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 1e-12
    out[pos] = np.exp(-1.0 / u[pos])
    return out


@dataclass(frozen=True)
class CutoffFunction:
    """C-infinity scale cutoff chi0 built from the exp(-1/s) smoothstep.

    chi0(t) = 1 for |t| <= 1, 0 for |t| >= gamma, and in between

        s = (|t| - 1)/(gamma - 1),  chi0 = w(1-s) / (w(s) + w(1-s)),

    with w(u) = exp(-1/u).  The formula is fixed so results are bit-for-bit
    reproducible across platforms with IEEE double arithmetic.
    """

    gamma: float = 2.0

    def chi0(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        s = (t - 1.0) / (self.gamma - 1.0)
        lo = _bump(1.0 - s)
        hi = _bump(s)
        with np.errstate(invalid="ignore"):
            mid = lo / (lo + hi)
        out = np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, mid))
        return out if out.shape else float(out)

    def scaled_norm(self, k_prime, k0, fermi):
        """|k'| = sqrt(k0^2 + v_F^2 ||k'||_T^2), torus distance in space."""
        kp = np.asarray(k_prime, dtype=float)
        kt = np.abs((kp + math.pi) % TWO_PI - math.pi)
        return np.sqrt(np.asarray(k0, dtype=float) ** 2 + (fermi.v_F * kt) ** 2)

    def chi(self, k_prime, k0, fermi):
        """chi(k', k0) = chi0(|k'| / t0): support |k'| <= gamma t0 = a0 v_F."""
        return self.chi0(self.scaled_norm(k_prime, k0, fermi) / fermi.t0)

    def f_h(self, h, k_prime, k0, fermi):
        """Infrared shell h <= 0: chi(gamma^-h k') - chi(gamma^-h+1 k')."""
        norm = self.scaled_norm(k_prime, k0, fermi)
        g = self.gamma
        return self.chi0(norm / (fermi.t0 * g ** h)) - self.chi0(norm / (fermi.t0 * g ** (h - 1)))

    def f_uv(self, k, k0, fermi, p):
        """Ultraviolet weight 1 - chi(k - p, k0) - chi(k + p, k0)."""
        k = np.asarray(k, dtype=float)
        return 1.0 - self.chi(k - p, k0, fermi) - self.chi(k + p, k0, fermi)

    def H_h(self, h, k0):
        """Ultraviolet frequency shells, telescoping to chi0(gamma^-M k0):

        H_1 = chi0(k0/gamma), H_h = chi0(gamma^-h k0) - chi0(gamma^-h+1 k0)
        for h >= 2.
        """
        if h < 1:
            raise ValueError("ultraviolet shells have h >= 1")
        if h == 1:
            return self.chi0(np.asarray(k0, dtype=float) / self.gamma)
        g = self.gamma
        return self.chi0(np.asarray(k0) / g ** h) - self.chi0(np.asarray(k0) / g ** (h - 1))


# ----------------------------------------------------------------------
# free kernel and full propagator
# ----------------------------------------------------------------------

def free_kernel(k, tau, params):
    """Closed-form Matsubara sum I(k, tau) at fixed spatial momentum.

    Valid for -beta < tau < beta; tau = 0 uses the 0^- (normal ordered)
    convention.  Branches keep every exponent nonpositive so there is no
    overflow for any beta.
    """
    beta = params.beta
    if not -beta < tau < beta:
        raise ValueError("tau must lie in (-beta, beta)")
    e = np.asarray(params.mu_bar - np.cos(k), dtype=float)
    out = np.empty_like(e)
    pos = e >= 0.0
    neg = ~pos
    if tau > 0.0:
        # e >= 0:  e^{-tau e} / (1 + e^{-beta e})
        out[pos] = np.exp(-tau * e[pos]) / (1.0 + np.exp(-beta * e[pos]))
        # e < 0:   e^{(beta - tau) e} / (1 + e^{beta e})
        out[neg] = np.exp((beta - tau) * e[neg]) / (1.0 + np.exp(beta * e[neg]))
    else:
        # e >= 0: -e^{-(beta + tau) e} / (1 + e^{-beta e})
        out[pos] = -np.exp(-(beta + tau) * e[pos]) / (1.0 + np.exp(-beta * e[pos]))
        # e < 0:  -e^{-tau e} / (1 + e^{beta e})
        out[neg] = -np.exp(-tau * e[neg]) / (1.0 + np.exp(beta * e[neg]))
    return out if out.shape else float(out)


def free_kernel_symmetric(k, params):
    """Equal-time even part (I(k,0+) + I(k,0-))/2 = 1/2 - f(e(k))."""
    e = np.asarray(params.mu_bar - np.cos(k), dtype=float)
    # 1/2 - 1/(1+e^{beta e}) written overflow safe for both signs
    be = params.beta * e
    out = np.where(be >= 0,
                   0.5 - np.exp(-np.clip(be, 0, None)) / (1.0 + np.exp(-np.clip(be, 0, None))),
                   -(0.5 - np.exp(np.clip(be, None, 0)) / (1.0 + np.exp(np.clip(be, None, 0)))))
    return out if out.shape else float(out)


def is_discontinuity_point(x, x0, beta):
    """True at the equal-time points x = (0, n beta) where the cutoff
    representation converges to the half-sum instead of the kernel value."""
    return int(x) == 0 and abs(math.remainder(x0, beta)) < 1e-12


def free_propagator(x, x0, params, representation="kernel_sum", M=None):
    """g(x, x0) by either representation.  x integer, x0 in (-beta, beta).

    kernel_sum: (1/L) sum_k e^{-ikx} I(k, x0); exact for the finite system.
    cutoff_sum: smooth frequency cutoff at scale gamma^M; differs from
    kernel_sum by O(gamma^-M) away from the discontinuity points.
    """
    beta, L = params.beta, params.L
    if not -beta < x0 < beta:
        raise ValueError("x0 must lie in (-beta, beta)")
    if representation == "kernel_sum":
        k = MomentumGrids(L, beta).spatial()
        return complex(np.sum(np.exp(-1j * k * x) * free_kernel(k, x0, params))) / L
    if representation == "cutoff_sum":
        grid = shell_grid("cutoff", None, params, M=M)
        k0 = grid.k0
        ph0 = np.exp(-1j * k0 * x0) * grid.weight(None, k0)  # depends on k0 alone
        acc = np.zeros((), dtype=complex)
        for i in range(L):  # k outer loop keeps memory flat
            term = ph0 / (-1j * k0 + grid.band[i])
            acc = acc + np.exp(-1j * grid.k[i] * x) * np.sum(term)
        return complex(acc) / (beta * L)
    raise ValueError("representation must be kernel_sum or cutoff_sum")


def high_frequency_tail(tau, M, k, params):
    """Frequency tail left out by the smooth cutoff at scale gamma^M:

        Delta(tau) = (1/beta) sum_{k0} (1 - chi0(gamma^-M k0))
                     e^{-i k0 tau} / (-i k0 + e(k))

    computed as the closed-form kernel minus the finite cutoff sum (the
    weight 1 - chi0 vanishes for |k0| <= gamma^M, so this is the same
    object).  Requires |tau| <= beta/2.  At tau = 0 the kernel value is the
    symmetric half-sum, which matches the distributional limit of the
    cutoff representation; the tail is then real (odd part cancels).
    Decays like gamma^-M with an oscillating tau-dependent profile.
    """
    beta = params.beta
    if abs(tau) > 0.5 * beta:
        raise ValueError("tail contract requires |tau| <= beta/2")
    grid = shell_grid("cutoff", None, params, M=M)
    k0 = grid.k0
    e = float(params.mu_bar - math.cos(k))
    cut = np.sum(grid.weight(None, k0) * np.exp(-1j * k0 * tau) / (-1j * k0 + e)) / beta
    ref = free_kernel_symmetric(k, params) if tau == 0.0 else free_kernel(k, tau, params)
    return complex(ref - cut)


# ----------------------------------------------------------------------
# infrared scale bookkeeping
# ----------------------------------------------------------------------

def finite_size_scale(beta, L, fermi):
    """Deepest infrared scale h_{L,beta}: the smallest h such that
    t0 gamma^{h+1} > |k_m| with k_m = (pi/beta, pi/L) in the scaled norm."""
    t0 = fermi.t0
    km = math.sqrt((math.pi / beta) ** 2 + (fermi.v_F * math.pi / L) ** 2)
    h = int(math.floor(math.log(km / t0, fermi.gamma)))
    while t0 * fermi.gamma ** (h + 1) <= km:
        h += 1
    while h > -10**9 and t0 * fermi.gamma ** h > km:
        h -= 1
    # now t0 gamma^h <= km < t0 gamma^{h+1}
    return h


# ----------------------------------------------------------------------
# shell grids: the one place where (k, k0) meshes are built
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShellGrid:
    """Support of one piece of the scale decomposition,

        g(x, x0) = (1/(beta L)) sum_{k, k0} e^{-i(k0 x0 + k x)}
                   weight(k, k0) / (-i k0 + band(k)).

    k holds the momenta (k on D_L, or k' on D'_L when half_integer), kidx
    their zone indices, k0 the Matsubara frequencies of the support and
    band the denominator band of each momentum.  weight(K, K0) evaluates
    the numerator on a mesh.
    """

    k: np.ndarray
    kidx: np.ndarray
    k0: np.ndarray
    band: np.ndarray
    half_integer: bool
    weight: Callable

    def mesh(self, cols=slice(None)):
        """K, K0 and the weight on the k x k0[cols] mesh."""
        K, K0 = np.meshgrid(self.k, self.k0[cols], indexing="ij")
        return K, K0, self.weight(K, K0)


def shell_support(top, L, beta, fermi):
    """Quasi-momenta k' (with zone indices) and frequencies k0 in the box
    v_F ||k'||_T <= top, |k0| <= top that carries an infrared shell.

    Below the box scale h_{L,beta} one of the two is empty; both are then
    returned empty, so every sum over the shell is zero and so is its
    table.
    """
    grids = MomentumGrids(L, beta)
    kp, kidx = grids.quasi(), grids.quasi_indices()
    keep = fermi.v_F * np.abs((kp + math.pi) % TWO_PI - math.pi) <= top
    k0 = grids.matsubara(top)
    if k0.size == 0 or not keep.any():
        keep[:] = False
        k0 = k0[:0]
    return kp[keep], kidx[keep], k0


def shell_grid(kind, h, params, omega=None, M=None, fermi=None, p_mode="grid"):
    """ShellGrid of one piece of the scale decomposition.

    kind "uv": ultraviolet shell 1 <= h <= M, weight f_uv * H_h, band
        cos(p) - cos(k) (chemical potential tuned to the Fermi point);
    kind "cutoff": the whole smooth-cutoff propagator at ultraviolet
        scale M (h unused), weight chi0(gamma^-M k0), band mu_bar - cos(k);
    kind "ir": infrared shell h <= 0 around the omega Fermi point, weight
        f_h on the scaled shell [t0 gamma^{h-1}, t0 gamma^{h+1}], band
        E_omega(k') (model.ir_dispersion);
    kind "dirac": the same shell with the linear band omega v_F k'.

    M defaults to params.M_uv; p_mode picks p ("grid": p_FL, "exact": p_F).
    """
    fermi = params.fermi() if fermi is None else fermi
    M = params.M_uv if M is None else M
    chi = CutoffFunction(params.gamma)
    grids = MomentumGrids(params.L, params.beta)
    if kind == "uv":
        if not 1 <= h <= M:
            raise ValueError("ultraviolet scale must satisfy 1 <= h <= M")
        k = grids.spatial()
        p = fermi.p_of(p_mode)
        return ShellGrid(k, grids.spatial_indices(), grids.matsubara(params.gamma ** (h + 1)),
                         math.cos(p) - np.cos(k), False,
                         lambda K, K0: chi.f_uv(K, K0, fermi, p) * chi.H_h(h, K0))
    if kind == "cutoff":
        k = grids.spatial()
        return ShellGrid(k, grids.spatial_indices(), grids.matsubara(params.gamma ** (M + 1)),
                         params.mu_bar - np.cos(k), False,
                         lambda K, K0: chi.chi0(K0 / params.gamma ** M))
    if kind not in ("ir", "dirac"):
        raise ValueError("kind must be uv, cutoff, ir or dirac")
    if h > 0:
        raise ValueError("infrared scales have h <= 0")
    kp, kidx, k0 = shell_support(fermi.t0 * fermi.gamma ** (h + 1), params.L, params.beta, fermi)
    band = ir_dispersion(kp, fermi, omega, p_mode) if kind == "ir" else omega * fermi.v_F * kp
    return ShellGrid(kp, kidx, k0, band, True, lambda K, K0: chi.f_h(h, K, K0, fermi))


def single_scale(kind, h, x, x0, params, omega=None, fermi=None, p_mode="grid"):
    """Single-scale propagator g^{(h)}(x, x0) of kind "uv", "ir" or "dirac"
    as the exact finite double sum over its shell_grid.

    The ir and dirac pieces are in quasi-momentum form: e^{-i omega p_FL x}
    restores the Fermi phase.  With p_mode "grid" and mu_bar = cos(p_FL)
    the uv shells 1..M plus both ir sectors h_{L,beta}..0 sum exactly to
    the cutoff propagator at scale M.
    """
    grid = shell_grid(kind, h, params, omega, fermi=fermi, p_mode=p_mode)
    K, K0, w = grid.mesh()
    ph = np.exp(-1j * (K0 * x0 + K * x))
    val = np.sum(ph * w / (-1j * K0 + grid.band[:, None]))
    return complex(val) / (params.beta * params.L)


# ----------------------------------------------------------------------
# relativistic (linear band) single scale
# ----------------------------------------------------------------------

_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def _dirac_radial(R, fermi, chi, n_nodes):
    """I0(R) = int du chibar0(u) J1(u R), shell u in [t0/gamma, t0*gamma],
    chibar0(u) = chi0(u/t0) - chi0(u gamma/t0).  Vectorized over R.

    It is the radial profile of the continuum (beta, L -> infinity)
    single-scale propagator with exactly linear band omega v_F k',

        g^{(h)}(x, x0) = (x0 - i omega x / v_F) / (v_F r)
                         * (gamma^h / (2 pi)) I0(gamma^h r),

    r = sqrt(x0^2 + (x/v_F)^2), which is exactly scale covariant and sums
    over h to (1/(2 pi)) / (v_F x0 + i omega x)."""
    g = fermi.gamma
    a, b = fermi.t0 / g, fermi.t0 * g
    xq, wq = _gl_nodes(n_nodes)
    u = 0.5 * (b - a) * xq + 0.5 * (b + a)
    w = 0.5 * (b - a) * wq
    cbar = chi.chi0(u / fermi.t0) - chi.chi0(u * g / fermi.t0)
    R = np.asarray(R, dtype=float)
    return (w * cbar) @ bessel_j1(np.outer(u, R))


# ----------------------------------------------------------------------
# Gram certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GramCertificate:
    """Square norms of the Gram vectors A, B with g^{(h)}(x-y) = <A_x, B_y>.

    For the ultraviolet shells |A|^2 ~ gamma^{-3h}, |B|^2 ~ gamma^{3h}; for
    the infrared shells |A|^2 ~ gamma^{-2h}, |B|^2 ~ gamma^{4h}.  The
    product |A||B| dominates sup|g^{(h)}| pointwise (Cauchy-Schwarz).
    bound_constant stores the larger of the two scale-normalized norms.
    """

    h: int
    kind: str
    omega: int | None
    normA2: float
    normB2: float
    bound_constant: float


# |A|^2 ~ gamma^{pA h} and |B|^2 ~ gamma^{pB h}: kind -> (pA, pB)
GRAM_POWERS = {"uv": (-3, 3), "ir": (-2, 4)}


def gram_certify(h, kind, params, omega=1, fermi=None, p_mode="grid"):
    """GramCertificate of the uv or ir shell h (omega, p_mode as in
    shell_grid); the norms are sums over its shell_grid."""
    if kind not in GRAM_POWERS:
        raise ValueError("kind must be uv or ir")
    grid = shell_grid(kind, h, params, omega, fermi=fermi, p_mode=p_mode)
    _, K0, w = grid.mesh()
    d2 = K0 ** 2 + grid.band[:, None] ** 2
    vol = params.beta * params.L
    normA2 = float(np.sum(w / d2 ** 2)) / vol
    normB2 = float(np.sum(w * d2)) / vol
    g = params.gamma
    pa, pb = GRAM_POWERS[kind]
    c = max(normA2 * g ** (-pa * h), normB2 * g ** (-pb * h))
    return GramCertificate(h, kind, None if kind == "uv" else omega, normA2, normB2, c)


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x): y ~ x^s gives s."""
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0.0):
        raise ValueError("fit_loglog_slope needs positive samples")
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)[0])


def certify_gram_scaling(hs, kind, params, omega=1):
    """Fit the scaling of |A|^2, |B|^2 across scales hs and compare with the
    certified exponents to 10%.  Returns (certs, slopeA, slopeB, ok)."""
    certs = [gram_certify(h, kind, params, omega) for h in hs]
    la = fit_loglog_slope([params.gamma ** c.h for c in certs],
                          [c.normA2 for c in certs])
    lb = fit_loglog_slope([params.gamma ** c.h for c in certs],
                          [c.normB2 for c in certs])
    ta, tb = GRAM_POWERS[kind]
    ok = abs(la - ta) <= 0.10 * abs(ta) and abs(lb - tb) <= 0.10 * abs(tb)
    return certs, la, lb, ok


# ----------------------------------------------------------------------
# whole-lattice tables (exact FFT reordering of the direct sums)
# ----------------------------------------------------------------------

def propagator_table(kind, h, params, n_tau, omega=None, M=None,
                     fermi=None, p_mode="grid"):
    """Values of a propagator on the full grid x = 0..L-1, x0 = beta*m/n_tau.

    Returns a complex array of shape (L, n_tau).  The construction folds
    the Matsubara index modulo n_tau with the half-integer twiddle factor
    and applies FFTs; it is an exact regrouping of the direct double sum
    (no approximation beyond rounding), which the tests verify pointwise.
    Frequencies are processed in chunks so memory stays flat for large M.

    kind: "uv", "ir", "dirac" (single scale h), or "cutoff" (full smooth-
    cutoff propagator at ultraviolet scale M, spatial grid integer k).
    """
    beta, L = params.beta, params.L
    grid = shell_grid(kind, h, params, omega, M, fermi, p_mode)
    k0 = grid.k0
    folded = np.zeros((grid.k.size, n_tau), dtype=complex)
    chunk = max(n_tau, int(4e6) // max(1, grid.k.size))  # keep chunks ~64 MB
    for j in range(0, k0.size, chunk):
        _, K0, w = grid.mesh(slice(j, j + chunk))
        F = w / (-1j * K0 + grid.band[:, None])
        b0 = int(round(k0[j] * beta / TWO_PI - 0.5)) % n_tau  # Matsubara index mod n_tau
        jj = 0
        width_total = F.shape[1]
        while jj < width_total:
            width = min(n_tau - b0, width_total - jj)
            folded[:, b0:b0 + width] += F[:, jj:jj + width]
            jj += width
            b0 = (b0 + width) % n_tau

    # spatial scatter: indices within one zone are unique modulo L
    spat = np.zeros((L, n_tau), dtype=complex)
    spat[grid.kidx % L] = folded

    out = np.fft.fft2(spat)  # sum_{n,b} e^{-2pi i (n x / L + b m / n_tau)}
    m = np.arange(n_tau)
    out *= np.exp(-1j * math.pi * m / n_tau)[None, :]  # half-integer k0 twiddle
    if grid.half_integer:
        x = np.arange(L)
        out *= np.exp(-1j * math.pi * x / L)[:, None]  # half-integer k' twiddle
    return out / (beta * L)


def l1_norm_table(table, beta):
    """Riemann L1 norm int dx0 sum_x |g| from a (L, n_tau) table."""
    n_tau = table.shape[1]
    return float(np.sum(np.abs(table)) * (beta / n_tau))


def l1_scaling_report(kind, hs, params, n_tau=512, omega=1):
    """Measured L1 norms across scales plus fitted decay rate (target
    gamma^{-h}, i.e. log-slope -1 in units of log gamma)."""
    norms = []
    for h in hs:
        t = propagator_table(kind, h, params, n_tau, omega=omega)
        norms.append(l1_norm_table(t, params.beta))
    slope = fit_loglog_slope([params.gamma ** h for h in hs], norms)
    return norms, slope
