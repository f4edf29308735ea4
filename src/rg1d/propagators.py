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
"""

from __future__ import annotations

import math
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


def compensated_sum(values):
    """Exactly rounded sum of a complex array (reference summation path)."""
    v = np.asarray(values).ravel()
    return complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist()))


def free_propagator(x, x0, params, representation="kernel_sum", M=None,
                    compensated=False):
    """g(x, x0) by either representation.  x integer, x0 in (-beta, beta).

    kernel_sum: (1/L) sum_k e^{-ikx} I(k, x0); exact for the finite system.
    cutoff_sum: smooth frequency cutoff at scale gamma^M; differs from
    kernel_sum by O(gamma^-M) away from the discontinuity points.
    """
    beta, L = params.beta, params.L
    if not -beta < x0 < beta:
        raise ValueError("x0 must lie in (-beta, beta)")
    grids = MomentumGrids(L, beta)
    k = grids.spatial()
    if representation == "kernel_sum":
        terms = np.exp(-1j * k * x) * free_kernel(k, x0, params)
        val = compensated_sum(terms) / L if compensated else complex(np.sum(terms)) / L
        return val
    if representation == "cutoff_sum":
        M = params.M_uv if M is None else M
        chi = CutoffFunction(params.gamma)
        k0 = grids.matsubara(params.gamma ** (M + 1))
        w = chi.chi0(k0 / params.gamma ** M)
        e = params.mu_bar - np.cos(k)
        acc = np.zeros((), dtype=complex)
        ph0 = np.exp(-1j * k0 * x0) * w
        for i in range(L):  # k outer loop keeps memory flat
            term = ph0 / (-1j * k0 + e[i])
            acc = acc + np.exp(-1j * k[i] * x) * np.sum(term)
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
    chi = CutoffFunction(params.gamma)
    grids = MomentumGrids(params.L, beta)
    k0 = grids.matsubara(params.gamma ** (M + 1))
    e = float(params.mu_bar - math.cos(k))
    w = chi.chi0(k0 / params.gamma ** M)
    cut = np.sum(w * np.exp(-1j * k0 * tau) / (-1j * k0 + e)) / beta
    ref = free_kernel_symmetric(k, params) if tau == 0.0 else free_kernel(k, tau, params)
    return complex(ref - cut)


# ----------------------------------------------------------------------
# infrared scale bookkeeping
# ----------------------------------------------------------------------

def finite_size_scale(beta, L, fermi, t0=None):
    """Deepest infrared scale h_{L,beta}: the smallest h such that
    t0 gamma^{h+1} > |k_m| with k_m = (pi/beta, pi/L) in the scaled norm."""
    t0 = fermi.t0 if t0 is None else t0
    km = math.sqrt((math.pi / beta) ** 2 + (fermi.v_F * math.pi / L) ** 2)
    h = int(math.floor(math.log(km / t0, fermi.gamma)))
    while t0 * fermi.gamma ** (h + 1) <= km:
        h += 1
    while h > -10**9 and t0 * fermi.gamma ** h > km:
        h -= 1
    # now t0 gamma^h <= km < t0 gamma^{h+1}
    return h


# ----------------------------------------------------------------------
# single-scale evaluators
# ----------------------------------------------------------------------

def _uv_weights(h, params, fermi, p_mode):
    """Grid arrays (k, k0, weight, e) for one ultraviolet shell."""
    chi = CutoffFunction(params.gamma)
    grids = MomentumGrids(params.L, params.beta)
    k = grids.spatial()
    k0 = grids.matsubara(params.gamma ** (h + 1))
    p = fermi.p_of(p_mode)
    e = math.cos(p) - np.cos(k)
    K, K0 = np.meshgrid(k, k0, indexing="ij")
    w = chi.f_uv(K, K0, fermi, p) * chi.H_h(h, K0)
    return k, k0, K, K0, w, e


def uv_single_scale(h, x, x0, params, fermi=None, p_mode="grid"):
    """Ultraviolet single-scale propagator g_uv^{(h)}, 1 <= h <= M.

    Dispersion cos(p) - cos(k) (chemical potential tuned to the Fermi
    point), numerator weight f_uv * H_h.  Exact finite double sum.
    """
    fermi = params.fermi() if fermi is None else fermi
    if not 1 <= h <= params.M_uv:
        raise ValueError("ultraviolet scale must satisfy 1 <= h <= M_uv")
    k, k0, K, K0, w, e = _uv_weights(h, params, fermi, p_mode)
    ph = np.exp(-1j * (K0 * x0 + K * x))
    val = np.sum(ph * w / (-1j * K0 + e[:, None]))
    return complex(val) / (params.beta * params.L)


def _ir_support(h, params, fermi):
    """Restricted (k', k0) grids covering the shell f_h support."""
    grids = MomentumGrids(params.L, params.beta)
    kp = grids.quasi()
    top = fermi.t0 * fermi.gamma ** (h + 1)
    k0 = grids.matsubara(top)
    kt = np.abs((kp + math.pi) % TWO_PI - math.pi)
    kp = kp[fermi.v_F * kt <= top]
    return kp, k0


def ir_single_scale(h, omega, x, x0, params, fermi=None, p_mode="grid"):
    """Infrared single-scale propagator around the omega Fermi point:

        g_ir^{(h)}_omega(x) = (1/(beta L)) sum_{k' in D'_L, k0}
            e^{-i(k0 x0 + k' x)} f_h(k', k0) / (-i k0 + E_omega(k'))

    h_{L,beta} <= h <= 0; support is the scaled shell
    [t0 gamma^{h-1}, t0 gamma^{h+1}].  With p_mode "grid" and the chemical
    potential tuned to cos(p_FL) the scale decomposition is an identity.
    """
    fermi = params.fermi() if fermi is None else fermi
    if h > 0:
        raise ValueError("infrared scales have h <= 0")
    chi = CutoffFunction(params.gamma)
    kp, k0 = _ir_support(h, params, fermi)
    if kp.size == 0 or k0.size == 0:
        return 0j
    KP, K0 = np.meshgrid(kp, k0, indexing="ij")
    w = chi.f_h(h, KP, K0, fermi)
    Ew = ir_dispersion(kp, fermi, omega, p_mode)
    ph = np.exp(-1j * (K0 * x0 + KP * x))
    val = np.sum(ph * w / (-1j * K0 + Ew[:, None]))
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


def _dirac_radial(R, fermi, chi, n_nodes=256):
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


def gram_certify(h, kind, params, omega=1, fermi=None, p_mode="grid"):
    fermi = params.fermi() if fermi is None else fermi
    vol = params.beta * params.L
    if kind == "uv":
        _, _, _, K0, w, e = _uv_weights(h, params, fermi, p_mode)
        d2 = K0 ** 2 + (e[:, None]) ** 2
        normA2 = float(np.sum(w / d2 ** 2)) / vol
        normB2 = float(np.sum(w * d2)) / vol
        g = params.gamma
        c = max(normA2 * g ** (3 * h), normB2 * g ** (-3 * h))
        return GramCertificate(h, "uv", None, normA2, normB2, c)
    if kind == "ir":
        chi = CutoffFunction(params.gamma)
        kp, k0 = _ir_support(h, params, fermi)
        KP, K0 = np.meshgrid(kp, k0, indexing="ij")
        w = chi.f_h(h, KP, K0, fermi)
        Ew = ir_dispersion(kp, fermi, omega, p_mode)
        d2 = K0 ** 2 + (Ew[:, None]) ** 2
        normA2 = float(np.sum(w / d2 ** 2)) / vol
        normB2 = float(np.sum(w * d2)) / vol
        g = params.gamma
        c = max(normA2 * g ** (2 * h), normB2 * g ** (-4 * h))
        return GramCertificate(h, "ir", omega, normA2, normB2, c)
    raise ValueError("kind must be uv or ir")


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x): y ~ x^s gives s."""
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0.0):
        raise ValueError("fit_loglog_slope needs positive samples")
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)[0])


def certify_gram_scaling(hs, kind, params, omega=1, rel_tol=0.10):
    """Fit the scaling of |A|^2, |B|^2 across scales hs and compare with the
    certified exponents.  Returns (certs, slopeA, slopeB, ok)."""
    certs = [gram_certify(h, kind, params, omega) for h in hs]
    la = fit_loglog_slope([params.gamma ** c.h for c in certs],
                          [c.normA2 for c in certs])
    lb = fit_loglog_slope([params.gamma ** c.h for c in certs],
                          [c.normB2 for c in certs])
    ta, tb = (-3.0, 3.0) if kind == "uv" else (-2.0, 4.0)
    ok = abs(la - ta) <= rel_tol * abs(ta) and abs(lb - tb) <= rel_tol * abs(tb)
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
    fermi = (params.fermi() if fermi is None else fermi)
    beta, L = params.beta, params.L
    chi = CutoffFunction(params.gamma)
    grids = MomentumGrids(L, beta)
    half_integer_k = kind in ("ir", "dirac")

    if kind in ("uv", "cutoff"):
        k = grids.spatial()
        kidx = grids.spatial_indices()
        if kind == "uv":
            k0 = grids.matsubara(params.gamma ** (h + 1))
        else:
            M = params.M_uv if M is None else M
            k0 = grids.matsubara(params.gamma ** (M + 1))
        p = fermi.p_of(p_mode)
        e = (math.cos(p) if kind == "uv" else params.mu_bar) - np.cos(k)
        denom_k = e

        def weights(K, K0):
            if kind == "uv":
                return chi.f_uv(K, K0, fermi, p) * chi.H_h(h, K0)
            return chi.chi0(K0 / params.gamma ** M) * np.ones_like(K)
    else:
        full = grids.quasi()
        kidx_full = grids.quasi_indices()
        top = fermi.t0 * fermi.gamma ** (h + 1)
        kt = np.abs((full + math.pi) % TWO_PI - math.pi)
        mask = fermi.v_F * kt <= top
        k = full[mask]
        kidx = kidx_full[mask]
        k0 = grids.matsubara(top)
        if kind == "ir":
            denom_k = ir_dispersion(k, fermi, omega, p_mode)
        else:
            denom_k = omega * fermi.v_F * k

        def weights(K, K0):
            return chi.f_h(h, K, K0, fermi)

    nrows = k.size
    folded = np.zeros((nrows, n_tau), dtype=complex)
    n0 = int(round(k0[0] * beta / TWO_PI - 0.5))
    chunk = max(n_tau, int(4e6) // max(1, nrows))  # keep chunks ~64 MB
    j = 0
    while j < k0.size:
        cols = slice(j, min(j + chunk, k0.size))
        K, K0 = np.meshgrid(k, k0[cols], indexing="ij")
        F = weights(K, K0) / (-1j * K0 + denom_k[:, None])
        b0 = (n0 + j) % n_tau
        jj = 0
        width_total = F.shape[1]
        while jj < width_total:
            width = min(n_tau - b0, width_total - jj)
            folded[:, b0:b0 + width] += F[:, jj:jj + width]
            jj += width
            b0 = (b0 + width) % n_tau
        j = cols.stop

    # spatial scatter: indices within one zone are unique modulo L
    spat = np.zeros((L, n_tau), dtype=complex)
    spat[np.asarray(kidx) % L] = folded

    out = np.fft.fft2(spat)  # sum_{n,b} e^{-2pi i (n x / L + b m / n_tau)}
    m = np.arange(n_tau)
    out *= np.exp(-1j * math.pi * m / n_tau)[None, :]  # half-integer k0 twiddle
    if half_integer_k:
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
