"""Brute-force reference computations for cross-checking the fast modules.

Everything here is rebuilt from first principles instead of imported from
the production code: the Matsubara kernel, the Wick contractions, the
many-body matrices and the high-precision map iteration are second,
independent routes to the same numbers.  Agreement between this module
and the fast implementations is therefore a real two-route check, not a
tautology.  The only shared objects are the model data themselves (the
interaction potential, the Fermi point, the cutoff shape), which both
routes consume by definition.

Error-bar convention: quadrature-based oracles return an OracleValue
whose bar is a two-level refinement difference; exact finite sums (Wick
sums, exact diagonalization) carry a machine-roundoff bound instead.
Downstream tests should consume value +- error, never the bare value.

Scope guard: exact diagonalization is a micro oracle.  It validates the
noninteracting kernels and the first-order response slopes on chains of
at most 8 sites and moderate beta; the scaling regime (large L, beta) is
out of its reach by construction and must be probed through the flow
modules instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .propagators import CutoffFunction

# ----------------------------------------------------------------------
# result plumbing
# ----------------------------------------------------------------------

# Gauss-Legendre node counts of the two refinement levels behind every
# quadrature error bar
REFINEMENT_LEVELS = (16, 32)


@dataclass(frozen=True)
class OracleValue:
    """A reference number plus its two-level refinement error bar."""

    value: float
    error: float


# roundoff bar for exact finite sums: eps times a term-count factor
_EXACT = np.finfo(float).eps


# ----------------------------------------------------------------------
# independent free kernel
# ----------------------------------------------------------------------


def thermal_weight(e, tau, beta):
    """<T a^-_k(tau) a^+_k(0)> for one band energy e, written with all
    exponents nonpositive.  tau in (-beta, beta); tau = 0 means 0^-."""
    e = np.asarray(e, dtype=float)
    out = np.empty(np.shape(e), dtype=float)
    pos = e >= 0.0
    neg = ~pos
    if tau > 0.0:
        out[pos] = np.exp(-tau * e[pos]) / (1.0 + np.exp(-beta * e[pos]))
        out[neg] = np.exp((beta - tau) * e[neg]) / (1.0 + np.exp(beta * e[neg]))
    else:
        out[pos] = -np.exp(-(beta + tau) * e[pos]) / (1.0 + np.exp(-beta * e[pos]))
        out[neg] = -np.exp(-tau * e[neg]) / (1.0 + np.exp(beta * e[neg]))
    return out


def free_g(x, tau, params):
    """Free finite-lattice propagator <T a^-_{x,s}(tau) a^+_{0,s}(0)>.

    Direct momentum sum over k = 2 pi n / L, n = 0..L-1, with the band
    mu_bar - cos k.  Real by the k -> -k symmetry of the band; tau = 0
    uses the 0^- (normal ordered) branch.
    """
    beta, L = params.beta, params.L
    if not -beta < tau < beta:
        raise ValueError("tau must lie in (-beta, beta)")
    k = 2.0 * math.pi * np.arange(L) / L
    w = thermal_weight(params.mu_bar - np.cos(k), tau, beta)
    return float(np.sum(np.cos(k * x) * w)) / L


# ----------------------------------------------------------------------
# Wick free responses
# ----------------------------------------------------------------------

RESPONSE_CHANNELS = ("C", "S", "SC", "TC")


def wick_free_response(x, alpha, params, x0=0.0):
    """Noninteracting response Omega_alpha(x, x0) from 2x2 Wick products.

    Channel reductions of the four-field expectation (e = (1, 0) is the
    bond step of the TC density):

        C, S : -2 g(x) g(-x)
        SC   : -(g(x)^2 + g(-x)^2)
        TC   : (1/2)[g(x-e) g(x+e) - g(x)^2] + (x -> -x)

    with g(x) shorthand for free_g(x, x0).  Exact finite sum, so the
    error bar is a roundoff bound.  Valid for non-overlapping insertions:
    equal-time responses at x = 0 (and at |x| <= 1 for the bond density)
    pick up normal-ordering contact terms not included here, so probe
    coincident supports at x0 != 0.
    """
    if alpha not in RESPONSE_CHANNELS:
        raise ValueError("unknown channel %r" % (alpha,))
    gp = free_g(x, x0, params)
    gm = free_g(-x, -x0, params)
    if alpha in ("C", "S"):
        val = -2.0 * gp * gm
    elif alpha == "SC":
        val = -(gp * gp + gm * gm)
    else:
        val = 0.5 * (free_g(x - 1, x0, params) * free_g(x + 1, x0, params) - gp * gp)
        val += 0.5 * (free_g(-x - 1, -x0, params) * free_g(-x + 1, -x0, params) - gm * gm)
    return OracleValue(val, 16.0 * params.L * _EXACT)


# ----------------------------------------------------------------------
# generic time-ordered Wick engine
# ----------------------------------------------------------------------
#
# Fields are tuples (dag, site, spin, time); time None stands for the
# quadrature variable s, so pair values may be vectors over the s nodes.
# The written order of the field list is the operator order inside the
# time-ordered product; equal-time pairs resolve by that written order.


def _pairings(indices):
    """All complete pairings of an index tuple with crossing signs."""
    if not indices:
        return [(1, ())]
    first, rest = indices[0], indices[1:]
    out = []
    for pos in range(len(rest)):
        sign = -1 if pos % 2 else 1
        sub = rest[:pos] + rest[pos + 1:]
        for s2, pairs in _pairings(sub):
            out.append((sign * s2, ((first, rest[pos]),) + pairs))
    return out


_PAIRINGS = {n: _pairings(tuple(range(n))) for n in (2, 4, 6, 8)}


class _GTable:
    """Memoized kernel sums g(dx, dt) for scalar and node-vector dt."""

    def __init__(self, params, s_nodes):
        self.params = params
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        L = params.L
        k = 2.0 * math.pi * np.arange(L) / L
        self._k = k
        self._e = params.mu_bar - np.cos(k)
        self._scalar = {}
        self._shifted = {}

    def scalar(self, dx, dt):
        key = (dx % self.params.L, round(float(dt), 15))
        if key not in self._scalar:
            self._scalar[key] = free_g(dx, dt, self.params)
        return self._scalar[key]

    def versus_nodes(self, dx, t_fixed, node_first):
        """Vector of g(dx, s - t_fixed) (node_first) or g(dx, t_fixed - s)."""
        key = (dx % self.params.L, round(float(t_fixed), 15), node_first)
        if key in self._shifted:
            return self._shifted[key]
        dts = (self.s_nodes - t_fixed) if node_first else (t_fixed - self.s_nodes)
        phase = np.cos(self._k * dx)
        out = np.empty(dts.size, dtype=float)
        for i, dt in enumerate(dts):
            out[i] = float(np.sum(phase * thermal_weight(self._e, dt, self.params.beta))) / self.params.L
        self._shifted[key] = out
        return out


def _pair_value(fi, fj, gtab, L):
    """<T phi_i phi_j> for two fields in written order i < j."""
    di, xi, si, ti = fi
    dj, xj, sj, tj = fj
    if si != sj or di == dj:
        return 0.0
    if di == 0:
        sgn, dx, tm, tp = 1.0, xi - xj, ti, tj     # a^- before a^+
    else:
        sgn, dx, tm, tp = -1.0, xj - xi, tj, ti    # a^+ before a^-
    if tm is None and tp is None:
        dt = 0.0
    elif tm is None:
        return sgn * gtab.versus_nodes(dx, tp, True)
    elif tp is None:
        return sgn * gtab.versus_nodes(dx, tm, False)
    else:
        dt = tm - tp
    if dt == 0.0:
        base = gtab.scalar(dx, 0.0)
        if di == 0 and dx % L == 0:
            base += 1.0    # equal-time a^- a^+ as written: 0^+ side
        return sgn * base
    return sgn * gtab.scalar(dx, dt)


def _wick(fields, gtab, L):
    """Time-ordered free expectation of an even product of fields.

    Returns a scalar, or a vector over the s nodes when any field sits
    at the quadrature time.  Sum over complete pairings with crossing
    signs; spin and charge selection rules prune most of them.
    """
    n = len(fields)
    vals = {}
    for i in range(n):
        for j in range(i + 1, n):
            vals[(i, j)] = _pair_value(fields[i], fields[j], gtab, L)
    total = 0.0
    for sign, pairs in _PAIRINGS[n]:
        prod = float(sign)
        for ij in pairs:
            v = vals[ij]
            if isinstance(v, float):
                if v == 0.0:
                    prod = 0.0
                    break
                prod = prod * v
            else:
                prod = prod * v
        if isinstance(prod, float) and prod == 0.0:
            continue
        total = total + prod
    return total


def _density_monomials(alpha, x, t, L):
    """Channel density at site x, time t, as (coeff, fields) monomials."""
    x = x % L
    xe = (x + 1) % L
    if alpha == "C":
        return [(1.0, ((1, x, s, t), (0, x, s, t))) for s in (0, 1)]
    if alpha == "S":
        return [(s3, ((1, x, s, t), (0, x, s, t))) for s, s3 in ((0, 1.0), (1, -1.0))]
    if alpha == "SC":
        return [(1.0, ((1, x, 0, t), (1, x, 1, t))),
                (1.0, ((0, x, 0, t), (0, x, 1, t)))]
    if alpha == "TC":
        return [(0.5, ((1, x, 0, t), (1, xe, 1, t))),
                (0.5, ((1, x, 1, t), (1, xe, 0, t))),
                (0.5, ((0, x, 0, t), (0, xe, 1, t))),
                (0.5, ((0, x, 1, t), (0, xe, 0, t)))]
    raise ValueError("unknown channel %r" % (alpha,))


def _interaction_monomials(params):
    """lambda-free interaction sum_{x,y,s,s'} v(x-y) n_{x,s} n_{y,s'} at
    the quadrature time, dropping zero-weight site pairs."""
    L = params.L
    vp = params.potential.periodized(L)
    out = []
    for x in range(L):
        for y in range(L):
            v = vp[(x - y) % L]
            if v == 0.0:
                continue
            for s in (0, 1):
                for sp in (0, 1):
                    out.append((float(v), ((1, x, s, None), (0, x, s, None),
                                           (1, y, sp, None), (0, y, sp, None))))
    return out


def _product_expectation(groups, gtab, L):
    """<T prod(groups)> where each group is a monomial expansion of one
    composite operator; distributes coefficients over the outer product."""
    total = 0.0
    for combo in _combos(groups):
        coeff = 1.0
        fields = ()
        for c, f in combo:
            coeff *= c
            fields = fields + f
        total = total + coeff * _wick(fields, gtab, L)
    return total


def _combos(groups):
    if not groups:
        yield ()
        return
    for head in groups[0]:
        for rest in _combos(groups[1:]):
            yield (head,) + rest


# ----------------------------------------------------------------------
# first-order response slope
# ----------------------------------------------------------------------


def first_order_slope(x, tau, alpha, params):
    """d Omega_alpha(x, tau) / d lambda at lambda = 0 by the Wick sum.

    The derivative of the connected response under the quartic weight is

        -int_0^beta ds [ <T rho_x(tau) rho_0(0) W(s)> - <T rho rho><W>
                         - <rho_x> (<T rho_0 W(s)> - <rho_0><W>)
                         - <rho_0> (<T rho_x(tau) W(s)> - <rho_x><W>) ]

    with W the lambda-free interaction.  All expectations are free Wick
    sums; the s integral runs over Gauss-Legendre panels split at the
    kink s = tau, and the bar is the two-level refinement difference.
    """
    beta, L = params.beta, params.L
    vals = []
    for n_nodes in REFINEMENT_LEVELS:
        nodes, weights = _panel_nodes(tau, beta, n_nodes)
        gtab = _GTable(params, nodes)
        rx = _density_monomials(alpha, x, tau, L)
        r0 = _density_monomials(alpha, 0, 0.0, L)
        w1 = _interaction_monomials(params)
        mean_w = float(_product_expectation([w1], gtab, L))
        rr = _product_expectation([rx, r0], gtab, L)
        mx = _product_expectation([rx], gtab, L)
        m0 = _product_expectation([r0], gtab, L)
        rrw = _product_expectation([rx, r0, w1], gtab, L)
        rxw = _product_expectation([rx, w1], gtab, L)
        r0w = _product_expectation([r0, w1], gtab, L)
        kern = (np.asarray(rrw) - rr * mean_w
                - mx * (np.asarray(r0w) - m0 * mean_w)
                - m0 * (np.asarray(rxw) - mx * mean_w))
        kern = np.asarray(kern, dtype=float)
        if kern.ndim == 0:    # fully disconnected channel: flat integrand
            kern = np.full_like(weights, float(kern))
        vals.append(-float(np.dot(weights, kern)))
    return OracleValue(vals[-1], abs(vals[-1] - vals[0]))


def _panel_nodes(tau, beta, n_nodes):
    """Gauss-Legendre nodes and weights on [0, tau] and [tau, beta]."""
    xg, wg = leggauss(n_nodes)
    nodes, weights = [], []
    for lo, hi in ((0.0, tau), (tau, beta)):
        if hi - lo <= 0.0:
            continue
        half = 0.5 * (hi - lo)
        nodes.append(half * (xg + 1.0) + lo)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


# ----------------------------------------------------------------------
# exact diagonalization on small chains
# ----------------------------------------------------------------------
#
# Fock encoding: 2L fermion modes, bit x = up occupation at site x,
# bit L + x = down occupation; operator strings use the standard
# lower-bit sign convention.  The Hilbert space is handled sector by
# sector in the conserved pair (N_up, N_down).

ED_MAX_SITES = 8
ED_MAX_BETA = 20.0


def _apply_string(state, ops):
    """Apply a creation/annihilation string (written order, rightmost
    acts first) to a Fock state; returns (state', sign) or None."""
    sign = 1
    for dag, b in reversed(ops):
        occ = (state >> b) & 1
        if dag == occ:
            return None
        if (state & ((1 << b) - 1)).bit_count() & 1:
            sign = -sign
        state = (state | (1 << b)) if dag else (state & ~(1 << b))
    return state, sign


def _sector_key(state, L):
    up = state & ((1 << L) - 1)
    return (up.bit_count(), (state >> L).bit_count())


@dataclass
class EDSystem:
    """Exact thermal data for one small chain.

    energies/vectors are per-sector eigendecompositions; e0 is the global
    ground energy used to keep all Boltzmann exponents nonpositive.
    roundoff is the documented machine-precision bar for its exact sums.
    """

    L: int
    beta: float
    params: object
    basis: dict
    index: dict
    energies: dict
    vectors: dict
    e0: float
    z: float
    roundoff: float = field(default=0.0)

    # -- operator plumbing -------------------------------------------

    def _op_blocks(self, monomials):
        """Dense sector-to-sector blocks of sum coeff * string."""
        blocks = {}
        for key, states in self.basis.items():
            for coeff, ops in monomials:
                dn_up = sum((1 if dag else -1) for dag, b in ops if b < self.L)
                dn_dn = sum((1 if dag else -1) for dag, b in ops if b >= self.L)
                dest = (key[0] + dn_up, key[1] + dn_dn)
                if dest not in self.basis:
                    continue
                mat = blocks.setdefault((key, dest),
                                        np.zeros((len(self.basis[dest]), len(states))))
                idx = self.index[dest]
                for col, s in enumerate(states):
                    hit = _apply_string(s, ops)
                    if hit is not None:
                        mat[idx[hit[0]], col] += coeff * hit[1]
        return blocks

    def _eig_blocks(self, monomials):
        """Operator blocks rotated to the eigenbases."""
        out = {}
        for (src, dest), mat in self._op_blocks(monomials).items():
            out[(src, dest)] = self.vectors[dest].T @ mat @ self.vectors[src]
        return out

    def _thermal_pair(self, a_blocks, b_blocks, tau, fermionic):
        """(1/Z) Tr[e^{-beta H} T A(tau) B(0)] from eigenblocks.

        tau in (-beta, beta); tau = 0 resolves to the B A product
        (the 0^- convention for fermions, plain product for densities).
        """
        beta = self.beta
        total = 0.0
        for (src, dest), a in a_blocks.items():
            pair = b_blocks.get((dest, src))
            if pair is None:
                continue
            em = self.energies[dest] - self.e0   # row space of A
            en = self.energies[src] - self.e0    # column space
            if tau > 0.0:
                w = np.exp(-(beta - tau) * em)[:, None] * np.exp(-tau * en)[None, :]
                total += float(np.sum(a * w * pair.T))
            else:
                w = np.exp(-(beta + tau) * en)[:, None] * np.exp(tau * em)[None, :]
                sgn = -1.0 if fermionic else 1.0
                total += sgn * float(np.sum(pair * w * a.T))
        return total / self.z

    def expectation(self, monomials):
        """Thermal average of a (sector-diagonal part of a) string sum."""
        total = 0.0
        for (src, dest), blk in self._eig_blocks(monomials).items():
            if src != dest:
                continue
            w = np.exp(-self.beta * (self.energies[src] - self.e0))
            total += float(np.dot(np.diag(blk), w))
        return total / self.z

    # -- public oracles ----------------------------------------------

    def spectrum(self):
        return np.sort(np.concatenate(list(self.energies.values())))

    def two_point(self, x, tau, spin=0):
        """<T a^-_{x,s}(tau) a^+_{0,s}(0)>, the ED twin of the kernel sum."""
        b = self.L * spin
        a_blocks = self._eig_blocks([(1.0, ((0, (x % self.L) + b),))])
        b_blocks = self._eig_blocks([(1.0, ((1, 0 + b),))])
        return self._thermal_pair(a_blocks, b_blocks, tau, fermionic=True)

    def density_monomials(self, alpha, x):
        """Channel density as (coeff, (dag, bit) string) monomials."""
        L = self.L
        x = x % L
        xe = (x + 1) % L
        up, dn = x, L + x
        upe, dne = xe, L + xe
        if alpha == "C":
            return [(1.0, ((1, up), (0, up))), (1.0, ((1, dn), (0, dn)))]
        if alpha == "S":
            return [(1.0, ((1, up), (0, up))), (-1.0, ((1, dn), (0, dn)))]
        if alpha == "SC":
            return [(1.0, ((1, up), (1, dn))), (1.0, ((0, up), (0, dn)))]
        if alpha == "TC":
            return [(0.5, ((1, up), (1, dne))), (0.5, ((1, dn), (1, upe))),
                    (0.5, ((0, up), (0, dne))), (0.5, ((0, dn), (0, upe)))]
        raise ValueError("unknown channel %r" % (alpha,))

    def response(self, x, tau, alpha):
        """Connected <T rho_x(tau) rho_0(0)> - <rho_x><rho_0>."""
        a_blocks = self._eig_blocks(self.density_monomials(alpha, x))
        b_blocks = self._eig_blocks(self.density_monomials(alpha, 0))
        raw = self._thermal_pair(a_blocks, b_blocks, tau, fermionic=False)
        mean_a = self.expectation(self.density_monomials(alpha, x))
        mean_b = self.expectation(self.density_monomials(alpha, 0))
        return raw - mean_a * mean_b

    def filling(self):
        """Mean total density on one site (the C-channel expectation)."""
        return self.expectation(self.density_monomials("C", 0))


def ed_micro(L, beta, params):
    """Sector-resolved exact diagonalization of the interacting chain.

    H = -(1/2) sum_{x,s} (a^+_{x,s} a^-_{x+1,s} + h.c.)
        + mu_bar sum n + lambda sum_{x,y,s,s'} v(x-y) n_{x,s} n_{y,s'}

    on a periodic ring of L sites; the momentum-space band is then
    mu_bar - cos k on k = 2 pi n / L, matching the kernel conventions.
    Guards: L <= 8 (4^L states), beta <= 20 (micro-oracle scope).
    """
    if L > ED_MAX_SITES:
        raise ValueError("ed_micro is a micro oracle: L > %d would need %d-dim "
                         "Fock space" % (ED_MAX_SITES, 4 ** L))
    if beta > ED_MAX_BETA:
        raise ValueError("ed_micro scope is beta <= %.0f; the scaling regime "
                         "is for the flow modules" % ED_MAX_BETA)
    basis = {}
    for s in range(4 ** L):
        basis.setdefault(_sector_key(s, L), []).append(s)
    index = {k: {s: i for i, s in enumerate(v)} for k, v in basis.items()}

    vp = params.potential.periodized(L)
    lam = params.lam
    mu = params.mu_bar

    energies, vectors = {}, {}
    for key, states in basis.items():
        dim = len(states)
        h = np.zeros((dim, dim))
        idx = index[key]
        for col, s in enumerate(states):
            # diagonal: chemical potential + interaction on total densities
            occ = np.array([((s >> x) & 1) + ((s >> (L + x)) & 1) for x in range(L)],
                           dtype=float)
            diag = mu * float(occ.sum())
            if lam != 0.0:
                acc = 0.0
                for x in range(L):
                    if occ[x] == 0.0:
                        continue
                    for y in range(L):
                        acc += vp[(x - y) % L] * occ[x] * occ[y]
                diag += lam * acc
            h[col, col] += diag
            # hopping
            for b0 in range(2 * L):
                x = b0 % L
                spin_base = b0 - x
                b1 = spin_base + (x + 1) % L
                for p, q in ((b0, b1), (b1, b0)):
                    hit = _apply_string(s, ((1, p), (0, q)))
                    if hit is not None:
                        h[idx[hit[0]], col] += -0.5 * hit[1]
        evals, evecs = np.linalg.eigh(h)
        energies[key], vectors[key] = evals, evecs

    e0 = min(float(v.min()) for v in energies.values())
    z = sum(float(np.exp(-beta * (v - e0)).sum()) for v in energies.values())
    system = EDSystem(L, beta, params, basis, index, energies, vectors, e0, z)
    system.roundoff = 4 ** L * 64.0 * _EXACT
    return system


def particle_hole_gap(L, beta, params):
    """Spectral mismatch under the particle-hole map a_{x,s} -> (-1)^x a^+.

    The map sends H(mu_bar, lambda) to H(-(mu_bar + 4 lambda vhat(0)),
    lambda) plus the constant 2L(mu_bar + 2 lambda vhat(0)); on even
    rings the two sorted spectra must coincide after the shift.
    """
    if L % 2:
        raise ValueError("the staggered sign needs an even ring")
    vbar = float(np.sum(params.potential.periodized(L)))
    mirror = params.with_(mu_bar=-(params.mu_bar + 4.0 * params.lam * vbar))
    s1 = ed_micro(L, beta, params).spectrum()
    s2 = ed_micro(L, beta, mirror).spectrum()
    shift = 2.0 * L * (params.mu_bar + 2.0 * params.lam * vbar)
    return float(np.max(np.abs(s1 - (s2 + shift))))


# ----------------------------------------------------------------------
# bubble constant quadrature
# ----------------------------------------------------------------------

BUBBLE_MAX_H = -4


def bubble_quadrature(h, fermi, gamma=None, extrapolate=False):
    """Scale-averaged particle-hole bubble of the relativistic pair.

    Evaluates 2 (1/|h|) int dk/(2 pi)^2 |C_h(rho)|^2 / rho^2 in polar
    coordinates (rho, phi), rho^2 = k0^2 + (v_F k')^2, where C_h is the
    cumulative cutoff of scales h..0 built from the concrete chi0.  The
    angular integral is done on its own Gauss-Legendre grid (the scaled
    integrand is isotropic, so this is a consistency burn-in), the radial
    one on per-octave panels in log rho at the two refinement levels.

    Converges to log(gamma)/(pi v_F) from above at an O(1/|h|) rate set
    by the two transition octaves of C_h; extrapolate=True removes that
    boundary term by Richardson across the pair (h, ceil(h/2)) and is
    the recommended estimator of the limit itself.
    """
    if h > BUBBLE_MAX_H:
        raise ValueError("bubble oracle is for the asymptotic regime h <= %d"
                         % BUBBLE_MAX_H)
    gamma = float(fermi.gamma if gamma is None else gamma)
    if extrapolate:
        h2 = -(-h // 2)
        v1 = bubble_quadrature(h, fermi, gamma)
        v2 = bubble_quadrature(h2, fermi, gamma)
        num = abs(h) * v1.value - abs(h2) * v2.value
        return OracleValue(num / (abs(h) - abs(h2)),
                           (abs(h) * v1.error + abs(h2) * v2.error) / (abs(h) - abs(h2)))

    chi = CutoffFunction(gamma).chi0
    t0, v_f = fermi.t0, fermi.v_F
    lo, hi = math.log(t0) + (h - 1) * math.log(gamma), math.log(t0) + math.log(gamma)
    vals = []
    for n_nodes in REFINEMENT_LEVELS:
        xg, wg = leggauss(n_nodes)
        phig, phiw = leggauss(8)
        phi_total = float(np.sum(phiw)) * math.pi   # maps to (0, 2 pi)
        n_panels = 1 - h
        edges = np.linspace(lo, hi, n_panels + 1)
        acc = 0.0
        for i in range(n_panels):
            half = 0.5 * (edges[i + 1] - edges[i])
            u = half * (xg + 1.0) + edges[i]
            rho = np.exp(u)
            c = chi(rho / t0) - chi(rho / (t0 * gamma ** (h - 1)))
            acc += half * float(np.dot(wg, c * c))
        vals.append(2.0 * acc * phi_total / (4.0 * math.pi ** 2 * v_f * abs(h)))
    return OracleValue(vals[-1], abs(vals[-1] - vals[0]))


# ----------------------------------------------------------------------
# high-precision map iteration
# ----------------------------------------------------------------------


def mp_map_trajectory(g0, a_seq, n, dps=40):
    """Iterate g -> g - a_k g^2 in dps-digit arithmetic.

    Returns (trajectory as complex128 array, OracleValue of g_n) where
    the bar is the difference against a rerun at dps + 20 digits; this
    bounds the float iteration's roundoff drift in the closeness tests.
    """
    import mpmath

    a_arr = np.full(n, a_seq, dtype=complex) if np.isscalar(a_seq) \
        else np.asarray(a_seq, dtype=complex)[:n]

    def run(digits):
        with mpmath.workdps(digits):
            g = mpmath.mpc(complex(g0))
            traj = [complex(g)]
            for k in range(n):
                a = mpmath.mpc(complex(a_arr[k]))
                g = g - a * g * g
                traj.append(complex(g))
        return np.asarray(traj, dtype=complex)

    base = run(dps)
    check = run(dps + 20)
    return base, OracleValue(abs(base[-1]), float(abs(base[-1] - check[-1])))
