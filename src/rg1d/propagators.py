"""Free propagator and its smooth scale decomposition.

Conventions used everywhere in this package:

    g(x, x0) = (1/(beta L)) sum_{k, k0} e^{-i(k0 x0 + k x)} / (-i k0 + e(k))

with e(k) = mu_bar - cos k, k on the spatial grid (2 pi / L) Z and k0 on the
fermionic Matsubara grid (2 pi / beta)(Z + 1/2).  The frequency sum is
conditionally convergent; the two concrete representations are

  * kernel_sum: the frequency sum done in closed form first,
        I(k, tau) =  e^{-tau e} / (1 + e^{-beta e})   for 0 < tau < beta
        I(k, tau) = -e^{-tau e} / (1 + e^{+beta e})   for -beta < tau <= 0
    (equal time resolved as tau = 0^-), then the k sum;
  * cutoff_sum: both sums done with the smooth frequency weight
    chi0(gamma^-M k0), M = params.M_uv, which converges to kernel_sum
    pointwise away from x = (0, n beta) and to the half-sum of the two
    one-sided limits there.

The smooth cutoff is a set of plain functions: chi0(t, gamma), the
frequency shells H_h and, on the scaled norm of one Fermi point, chi, f_h
and f_uv, which read gamma from fermi.gamma.  The scale decomposition
splits 1 = f_uv + sum_omega chi(k - omega p, k0) and then slices f_uv into
ultraviolet frequency shells H_h (1 <= h <= M) and each infrared sector
into shells f_h (h <= 0) of width gamma^h around the Fermi points.  With
mu_bar = cos(p) and p on the snapped grid the split is an exact finite-sum
identity, tested to near machine precision.  A uv shell h >= 2 carries H_h
alone: H_h vanishes for |k0| <= gamma^{h-1}, which is above 1, and
chi(k -+ p, k0) vanishes for |k0| >= a0 v_F, which is at most pi/4, so
f_uv is exactly 1 wherever H_h is not 0.

shell_grid is the one place where the (k, k0) grids of these pieces are
built: it returns (k, k0, band, weight) of a uv shell, an ir or dirac
shell, or the whole cutoff propagator, with weight a function on a
broadcast (k, k0) mesh.  Values and tables (single_scale: the double sum
as two matrix products, for points or for an x by x0 grid;
free_propagator's cutoff_sum, one frequency sum per k row for all x at one
x0) are sums over it, and the lattice bubble of rgflow is a sum over the
box of shell_support.  dirac_profiles is the continuum (beta, L ->
infinity) single scale of the linear band that correlations sums.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .model import (TWO_PI, dispersion, ir_dispersion, matsubara, quasi_momenta,
                    spatial_momenta)

# ----------------------------------------------------------------------
# smooth cutoff
# ----------------------------------------------------------------------

def _bump(u):
    """w(u) = exp(-1/u) for u > 1e-12, 0 otherwise, over the float array u."""
    pos = u > 1e-12
    np.divide(-1.0, u, out=u, where=pos)
    np.exp(u, out=u, where=pos)
    u[~pos] = 0.0
    return u


def chi0(t, gamma):
    """C-infinity scale cutoff chi0 built from the exp(-1/s) smoothstep.

    chi0(t) = 1 for |t| <= 1, 0 for |t| >= gamma, and in between

        s = (|t| - 1)/(gamma - 1),  chi0 = w(1-s) / (w(s) + w(1-s)),

    with w(u) = exp(-1/u).  The formula is fixed so results are bit-for-bit
    reproducible across platforms with IEEE double arithmetic.
    """
    s = np.array(t, dtype=float)   # a copy, overwritten by the result
    np.abs(s, out=s)
    s -= 1.0
    s /= gamma - 1.0
    one, zero = s <= 0.0, s >= 1.0
    band = ~(one | zero)   # 0 < s < 1 or NaN: the bump runs here only
    hi = s[band]
    lo = _bump(1.0 - hi)
    _bump(hi)
    hi += lo
    with np.errstate(invalid="ignore"):   # NaN gives 0/0
        s[band] = np.divide(lo, hi, out=lo)
    s[one] = 1.0
    s[zero] = 0.0
    return s if s.shape else float(s)


def scaled_norm(k_prime, k0, fermi):
    """|k'| = sqrt(k0^2 + v_F^2 ||k'||_T^2), torus distance in space."""
    kp = np.asarray(k_prime, dtype=float)
    kt = np.abs((kp + math.pi) % TWO_PI - math.pi)
    return np.sqrt(np.asarray(k0, dtype=float) ** 2 + (fermi.v_F * kt) ** 2)


def chi(k_prime, k0, fermi):
    """chi(k', k0) = chi0(|k'| / t0): support |k'| <= gamma t0 = a0 v_F."""
    return chi0(scaled_norm(k_prime, k0, fermi) / fermi.t0, fermi.gamma)


def f_h(h, k_prime, k0, fermi):
    """Infrared shell h <= 0: chi(gamma^-h k') - chi(gamma^-h+1 k')."""
    norm = scaled_norm(k_prime, k0, fermi)
    g = fermi.gamma
    return chi0(norm / (fermi.t0 * g ** h), g) - chi0(norm / (fermi.t0 * g ** (h - 1)), g)


def f_uv(k, k0, fermi, p):
    """Ultraviolet weight 1 - chi(k - p, k0) - chi(k + p, k0)."""
    k = np.asarray(k, dtype=float)
    return 1.0 - chi(k - p, k0, fermi) - chi(k + p, k0, fermi)


def H_h(h, k0, gamma):
    """Ultraviolet frequency shells, telescoping to chi0(gamma^-M k0):

    H_1 = chi0(k0/gamma), H_h = chi0(gamma^-h k0) - chi0(gamma^-h+1 k0)
    for h >= 2.
    """
    if h < 1:
        raise ValueError("ultraviolet shells have h >= 1")
    if h == 1:
        return chi0(np.asarray(k0, dtype=float) / gamma, gamma)
    return chi0(np.asarray(k0) / gamma ** h, gamma) - chi0(np.asarray(k0) / gamma ** (h - 1), gamma)


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
    e = np.asarray(dispersion(k, params.mu_bar), dtype=float)
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


def is_discontinuity_point(x, x0, beta, L):
    """True at the equal-time points x = (n L, m beta), the periodic images
    of the origin on the ring, where the cutoff representation converges to
    the half-sum instead of the kernel value."""
    return int(x) % L == 0 and abs(math.remainder(x0, beta)) < 1e-12


def free_propagator(x, x0, params, representation="kernel_sum"):
    """g(x, x0) by either representation: x an integer or a 1-D integer
    array (one value per entry), x0 in (-beta, beta) shared by all.

    kernel_sum: (1/L) sum_k e^{-ikx} I(k, x0); exact for the finite system.
    cutoff_sum: smooth frequency cutoff at scale gamma^M_uv; differs from
    kernel_sum by O(gamma^-M_uv) away from the discontinuity points.
    """
    beta, L = params.beta, params.L
    if not -beta < x0 < beta:
        raise ValueError("x0 must lie in (-beta, beta)")
    xs = np.atleast_1d(x)
    if representation == "kernel_sum":
        k = spatial_momenta(L)
        ker = free_kernel(k, x0, params)
        out = [complex(np.sum(np.exp(-1j * k * xi) * ker)) / L for xi in xs]
    elif representation == "cutoff_sum":
        k, k0, band, weight = shell_grid("cutoff", None, params)
        w = weight(None, k0)  # first: its temporaries meet no phase
        ph0 = -1j * k0 * x0  # e^{-i k0 x0} weight depends on k0 alone
        np.exp(ph0, out=ph0)
        ph0 *= w
        del w
        den = np.empty_like(ph0)  # one buffer for every row's quotient
        acc = [np.zeros((), dtype=complex)] * xs.size  # scalar products: an array one rounds apart
        for i in range(L):  # k outer loop keeps memory flat
            den.real = band[i]  # -1j * k0 + band[i]: band is never -0.0
            np.negative(k0, out=den.imag)
            row = np.sum(np.divide(ph0, den, out=den))
            acc = [a + np.exp(-1j * k[i] * xi) * row for a, xi in zip(acc, xs)]
        out = [complex(a) / (beta * L) for a in acc]
    else:
        raise ValueError("representation must be kernel_sum or cutoff_sum")
    return out[0] if np.ndim(x) == 0 else np.array(out)


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

def shell_support(top, L, beta, fermi):
    """Quasi-momenta k' and frequencies k0 in the box
    v_F ||k'||_T <= top, |k0| <= top that carries an infrared shell.

    Below the box scale h_{L,beta} one of the two is empty; both are then
    returned empty, so every sum over the shell is zero.
    """
    kp = quasi_momenta(L)
    keep = fermi.v_F * np.abs((kp + math.pi) % TWO_PI - math.pi) <= top
    k0 = matsubara(beta, top)
    if k0.size == 0 or not keep.any():
        keep[:] = False
        k0 = k0[:0]
    return kp[keep], k0


def shell_grid(kind, h, params, omega=None):
    """Support (k, k0, band, weight) of one piece of the scale decomposition,

        g(x, x0) = (1/(beta L)) sum_{k, k0} e^{-i(k0 x0 + k x)}
                   weight(k, k0) / (-i k0 + band(k)).

    k holds the momenta (k on D_L for the uv and cutoff pieces, k' on D'_L
    for the ir and dirac shells), k0 the Matsubara frequencies of the
    support and band the denominator band of each momentum.  weight(K, K0)
    evaluates the numerator on a mesh of broadcast axes, such as
    k[:, None] and k0[None, :].

    kind "uv": ultraviolet shell 1 <= h <= M, weight f_uv * H_h (H_h alone
        for h >= 2, see the module docstring), band cos(p) - cos(k)
        (chemical potential tuned to the Fermi point);
    kind "cutoff": the whole smooth-cutoff propagator at ultraviolet
        scale M (h unused), weight chi0(gamma^-M k0), band mu_bar - cos(k);
    kind "ir": infrared shell h <= 0 around the omega Fermi point, weight
        f_h on the scaled shell [t0 gamma^{h-1}, t0 gamma^{h+1}], band
        E_omega(k') (model.ir_dispersion);
    kind "dirac": the same shell with the linear band omega v_F k'.

    M is params.M_uv.  The Fermi point is params.fermi() at its grid
    momentum p_FL, so the pieces sum exactly on the lattice.
    """
    fermi, M, gamma = params.fermi(), params.M_uv, params.gamma
    k = spatial_momenta(params.L)
    if kind == "uv":
        if not 1 <= h <= M:
            raise ValueError("ultraviolet scale must satisfy 1 <= h <= M")
        p = fermi.p_FL
        weight = ((lambda K, K0: H_h(h, K0, gamma)) if h >= 2 else   # f_uv is 1 there
                  (lambda K, K0: f_uv(K, K0, fermi, p) * H_h(h, K0, gamma)))
        return k, matsubara(params.beta, gamma ** (h + 1)), dispersion(k, math.cos(p)), weight
    if kind == "cutoff":
        return (k, matsubara(params.beta, gamma ** (M + 1)), dispersion(k, params.mu_bar),
                lambda K, K0: chi0(K0 / gamma ** M, gamma))
    if kind not in ("ir", "dirac"):
        raise ValueError("kind must be uv, cutoff, ir or dirac")
    if h > 0:
        raise ValueError("infrared scales have h <= 0")
    kp, k0 = shell_support(fermi.t0 * fermi.gamma ** (h + 1), params.L, params.beta, fermi)
    band = ir_dispersion(kp, fermi.p_FL, omega) if kind == "ir" else omega * fermi.v_F * kp
    return kp, k0, band, lambda K, K0: f_h(h, K, K0, fermi)


def single_scale(kind, h, x, x0, params, omega=None):
    """Single-scale propagator g^{(h)}(x, x0) of kind "uv", "ir" or "dirac",
    or with kind "cutoff" the whole smooth-cutoff propagator at scale
    M = params.M_uv, as the exact finite double sum over its shell_grid:

        exp(-i x k) @ [w / (-i k0 + band)] @ exp(-i k0 x0) / (beta L).

    x and x0 are scalars or 1-D arrays; two scalars give a complex, else
    the result has shape shape(x) + shape(x0).  Frequencies are summed in
    chunks of about 4e6 mesh points, so memory stays flat for large M.

    The ir and dirac pieces are in quasi-momentum form: e^{-i omega p_FL x}
    restores the Fermi phase.  With mu_bar = cos(p_FL) the uv shells 1..M
    plus both ir sectors h_{L,beta}..0 sum exactly to the cutoff
    propagator at scale M.
    """
    k, k0, band, weight = shell_grid(kind, h, params, omega)
    x0s = np.atleast_1d(x0)
    acc = np.zeros((k.size, x0s.size), dtype=complex)
    chunk = max(1, int(4e6) // max(1, k.size))
    for j in range(0, k0.size, chunk):
        K0 = k0[None, j:j + chunk]
        w = weight(k[:, None], K0)
        acc += (w / (-1j * K0 + band[:, None])) @ np.exp(-1j * np.outer(k0[j:j + chunk], x0s))
    out = np.exp(-1j * np.outer(np.atleast_1d(x), k)) @ acc / (params.beta * params.L)
    out = out.reshape(np.shape(x) + np.shape(x0))
    return complex(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# Gauss-Legendre rules
# ----------------------------------------------------------------------

# Orders of the Gauss-Legendre rules in gauss_legendre.npy, in file order:
# 16 and 32 for the oracle's refinement levels, 256 and 512 for
# dirac_profiles.  The file holds each order's nodes, then its weights, bit
# for bit as numpy 2.4.6 computes the rule: a Golub-Welsch eigenproblem on
# the dense n x n companion matrix, then one Newton step.  Shipping them
# saves every process that eigenproblem, and the nodes no longer depend on
# the host's LAPACK.
_GL_ORDERS = (16, 32, 256, 512)
_GL_RULES = {}


def gauss_legendre(n):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1],
    read-only views into the shipped table, loaded on first use; an order
    that is not in the table raises ValueError."""
    if n not in _GL_ORDERS:
        raise ValueError(f"no {n}-point Gauss-Legendre rule; the table holds {_GL_ORDERS}")
    if not _GL_RULES:
        table = np.load(Path(__file__).with_name("gauss_legendre.npy"))
        # over immutable bytes, so that no view can be made writeable again
        flat = np.frombuffer(table.tobytes(), dtype=table.dtype)
        start = 0
        for m in _GL_ORDERS:
            _GL_RULES[m] = flat[start:start + m], flat[start + m:start + 2 * m]
            start += 2 * m
    return _GL_RULES[n]


# ----------------------------------------------------------------------
# relativistic (linear band) single scale
# ----------------------------------------------------------------------

# Coefficients of j1.c in Moshier's Cephes library, highest power first;
# the leading 1 that Cephes' p1evl leaves out is written into RQ and QQ.
_J1_RP = (-8.99971225705559398224e8, 4.52228297998194034323e11,
          -7.27494245221818276015e13, 3.68295732863852883286e15)
_J1_RQ = (1.0, 6.20836478118054335476e2, 2.56987256757748830383e5,
          8.35146791431949253037e7, 2.21511595479792499675e10,
          4.74914122079991414898e12, 7.84369607876235854894e14,
          8.95222336184627338078e16, 5.32278620332680085395e18)
_J1_PP = (7.62125616208173112003e-4, 7.31397056940917570436e-2,
          1.12719608129684925192e0, 5.11207951146807644818e0,
          8.42404590141772420927e0, 5.21451598682361504063e0,
          1.00000000000000000254e0)
_J1_PQ = (5.71323128072548699714e-4, 6.88455908754495404082e-2,
          1.10514232634061696926e0, 5.07386386128601488557e0,
          8.39985554327604159757e0, 5.20982848682361821619e0,
          9.99999999999999997461e-1)
_J1_QP = (5.10862594750176621635e-2, 4.98213872951233449420e0,
          7.58238284132545283818e1, 3.66779609360150777800e2,
          7.10856304998926107277e2, 5.97489612400613639965e2,
          2.11688757100572135698e2, 2.52070205858023719784e1)
_J1_QQ = (1.0, 7.42373277035675149943e1, 1.05644886038262816351e3,
          4.98641058337653607651e3, 9.56231892404756170795e3,
          7.99704160447350683650e3, 2.82619278517639096600e3,
          3.36093607810698293419e2)
_J1_Z1, _J1_Z2 = 1.46819706421238932572e1, 4.92184563216946036703e1   # j_{1,1}^2, j_{1,2}^2
_THPIO4 = 2.35619449019234492885          # 3 pi / 4
_SQ2OPI = 7.9788456080286535587989e-1     # sqrt(2 / pi)


def _polevl(z, coef):
    """Cephes' polevl: Horner's rule, highest power first."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * z + c
    return acc


def _j1(x):
    """Bessel J1 of a float array, a numpy port of j1.c from Moshier's
    Cephes library (1989), as SciPy ships it for its special.j1.

    |x| <= 5 takes the rational form x (x^2 - j11^2)(x^2 - j12^2) RP/RQ in
    x^2, on signed x, so j1(-0.0) = -0.0; |x| > 5 the Hankel form
    sqrt(2/(pi x)) (P cos xn - (5/x) Q sin xn), xn = x - 3 pi/4, with P, Q
    rational in (5/x)^2, and j1(-x) = -j1(x).  Every operation comes in
    j1.c's order, so where numpy's float64 cos and sin are the C library's
    the values are bit-identical to SciPy's
    (tests/test_propagators.py::test_j1_matches_cephes_bit_for_bit)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = np.abs(x) <= 5.0
    xs = x[near]
    z = xs * xs
    out[near] = (_polevl(z, _J1_RP) / _polevl(z, _J1_RQ) * xs
                 * (z - _J1_Z1) * (z - _J1_Z2))
    far = ~near
    xa = np.abs(x[far])
    w = 5.0 / xa
    z = w * w
    p = _polevl(z, _J1_PP) / _polevl(z, _J1_PQ)
    q = _polevl(z, _J1_QP) / _polevl(z, _J1_QQ)
    xn = xa - _THPIO4
    r = (p * np.cos(xn) - w * q * np.sin(xn)) * _SQ2OPI / np.sqrt(xa)
    out[far] = np.where(x[far] < 0.0, -r, r)
    return out


def dirac_profiles(hs, x, x0, fermi):
    """g_{D,+}^{(h)}(x, x0) for every h in hs, the continuum (beta, L ->
    infinity) single-scale propagator with exactly linear band omega v_F k'
    (the omega = -1 branch is the conjugate):

        g^{(h)}(x, x0) = (x0 - i x / v_F) / (v_F r) (gamma^h / (2 pi)) I0(gamma^h r),

    r = sqrt(x0^2 + (x/v_F)^2), exactly scale covariant, summing over h to
    (1/(2 pi)) / (v_F x0 + i x).  I0(R) = int du chibar0(u) J1(u R) over the
    shell u in [t0/gamma, t0*gamma], chibar0(u) = chi0(u/t0) - chi0(u gamma/t0),
    is the 256-node Gauss-Legendre rule of gauss_legendre's table, the
    512-node one past gamma^h r = 256 to keep the oscillatory integrand
    resolved.  Scales with gamma^h r > 1024 are dropped: I0 is below 1e-10
    there and the dropped share of the full sum is under 1e-9."""
    g = fermi.gamma
    r = math.sqrt(float(x0) ** 2 + (float(x) / fermi.v_F) ** 2)
    R = g ** np.asarray(hs, dtype=float) * r
    keep = R <= 1024.0
    rad = np.zeros_like(R)
    if np.any(keep):
        a, b = fermi.t0 / g, fermi.t0 * g
        xq, wq = gauss_legendre(256 if R[keep].max() <= 256.0 else 512)
        u = 0.5 * (b - a) * xq + 0.5 * (b + a)
        w = 0.5 * (b - a) * wq
        cbar = chi0(u / fermi.t0, g) - chi0(u * g / fermi.t0, g)
        rad[keep] = (w * cbar) @ _j1(np.outer(u, R[keep]))
    pref = (float(x0) - 1j * float(x) / fermi.v_F) / (fermi.v_F * r)
    return pref * (g ** np.asarray(hs, dtype=float) / TWO_PI) * rad
