"""Brute-force reference computations for cross-checking the fast modules.

Everything here is rebuilt from first principles instead of imported from
the production code: the Matsubara kernel, the Wick contractions, the
many-body matrices and the high-precision map iteration are second,
independent routes to the same numbers.  Agreement between this module
and the fast implementations is therefore a real two-route check, not a
tautology.  The only shared objects are the model data themselves (the
interaction potential, the Fermi point, the cutoff shape), which both
routes consume by definition, and the shipped table of Gauss-Legendre
rules (propagators.gauss_legendre), which is fixed data, not a formula.

The Wick engine and exact diagonalization (ED) share one table of the
four channel densities (DENSITIES) and one field language, (dag, site,
spin, time).  wick_free_response is written from closed channel
reductions instead, so test_free_ed_matches_wick_responses (ED at
lambda = 0 against it) checks the table.

Error-bar convention: quadrature-based oracles return an OracleValue
whose bar is the two-level refinement difference alone; exact finite sums
(wick_free_response, exact diagonalization) carry a machine-roundoff bound
instead.  first_order_slope is both: its bar leaves out the roundoff of
its Wick sums, measured at up to 1.8e-12 for L <= 32.  Downstream tests
should consume value +- error, never the bare value.

Scope guard: exact diagonalization is a micro oracle.  It validates the
noninteracting kernels and the first-order response slopes on chains of
at most 8 sites and moderate beta; the scaling regime (large L, beta) is
out of its reach by construction and must be probed through the flow
modules instead.  Its memory, in run order: one eigenbasis, the
eigenvectors of every sector, which hold (sum_k C(L, k)^2)^2 doubles
(6.8 MB at L = 6, 94 MB at L = 7, 1.3 GB at L = 8), plus, while it is
built, one sector's hopping block, its particle-hole mirror copy and an
eigh transient (the mirror keeps eigenvalues only); then at most three
rotated blocks per response: A_x, B's partner and the weight buffer, one
(dest, src) sector pair at a time.  No Fock-basis operator matrix
exists: _block gathers rows of dest's eigenbasis, or of the identity for
the Hamiltonian.  One density operator's sector blocks, all at once,
would add as much again as the eigenvectors (3432^2 doubles, 94 MB, at
L = 7).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .propagators import chi0, gauss_legendre

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

# The four channel densities at site x, one table for the Wick engine and
# ED alike: (coeff, fields) monomials with fields (dag, dx, spin) in
# written order, dag = 1 for a^+, dx the site offset from x (the TC bond
# pairs x with x + 1) and spin 0 = up, 1 = down.
DENSITIES = {
    "C": ((1.0, ((1, 0, 0), (0, 0, 0))), (1.0, ((1, 0, 1), (0, 0, 1)))),
    "S": ((1.0, ((1, 0, 0), (0, 0, 0))), (-1.0, ((1, 0, 1), (0, 0, 1)))),
    "SC": ((1.0, ((1, 0, 0), (1, 0, 1))), (1.0, ((0, 0, 0), (0, 0, 1)))),
    "TC": ((0.5, ((1, 0, 0), (1, 1, 1))), (0.5, ((1, 0, 1), (1, 1, 0))),
           (0.5, ((0, 0, 0), (0, 1, 1))), (0.5, ((0, 0, 1), (0, 1, 0)))),
}

RESPONSE_CHANNELS = tuple(DENSITIES)


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
# Fields are tuples (dag, site, spin, time), the language exact
# diagonalization reads too.  A site may be the column Y + d over the
# summed interaction site Y = 0..L-1, and time None stands for the
# quadrature variable s, so pair values are arrays over (y, s-node) of
# shape (1 or L, 1 or n_nodes).  The written order of the field list is
# the operator order inside the time-ordered product; equal-time pairs
# resolve by that written order.


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
    """Kernel sums g(d, dt) for every ring distance d at once, memoized per
    time difference and per node shift."""

    def __init__(self, params, s_nodes):
        self.params = params
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        self.bands = params.mu_bar - np.cos(2.0 * math.pi * np.arange(params.L) / params.L)
        self._memo = {}

    def __call__(self, tm, tp):
        """(L, m) table of g(d, tm - tp) over d = 0..L-1: a time None is the
        node time s, giving one column per node, else m = 1."""
        if tm is None and tp is None:
            tm = tp = 0.0
        key = (tm, tp) if tm is None or tp is None else tm - tp
        if key not in self._memo:
            s, beta = self.s_nodes, self.params.beta
            dts = np.atleast_1d((s if tm is None else tm) - (s if tp is None else tp))
            if np.any(np.abs(dts) >= beta):
                raise ValueError("tau must lie in (-beta, beta)")
            w = np.stack([thermal_weight(self.bands, dt, beta) for dt in dts], axis=1)
            self._memo[key] = np.fft.fft(w, axis=0).real / self.params.L
        return self._memo[key]


def _pair_value(fi, fj, gtab):
    """<T phi_i phi_j> for two fields in written order i < j, as an array
    over (y, s-node); None for a pair that spin or charge forbids."""
    di, xi, si, ti = fi
    dj, xj, sj, tj = fj
    if si != sj or di == dj:
        return None
    if di == 0:
        sgn, dx, tm, tp = 1.0, xi - xj, ti, tj     # a^- before a^+
    else:
        sgn, dx, tm, tp = -1.0, xj - xi, tj, ti    # a^+ before a^-
    d = np.ravel(dx) % gtab.params.L
    val = gtab(tm, tp)[d]
    if di == 0 and tm == tp:
        val = val + (d == 0)[:, None]    # equal-time a^- a^+ as written: 0^+ side
    return sgn * val


def _wick(fields, gtab):
    """Time-ordered free expectation of an even product of fields, as an
    array over (y, s-node), or 0.0 when spin and charge forbid every
    pairing.  Sum over complete pairings with crossing signs."""
    n = len(fields)
    vals = {(i, j): _pair_value(fields[i], fields[j], gtab)
            for i in range(n) for j in range(i + 1, n)}
    total = 0.0
    for sign, pairs in _PAIRINGS[n]:
        factors = [vals[ij] for ij in pairs]
        if all(f is not None for f in factors):
            total = total + math.prod(factors, start=float(sign))
    return total


def _density_monomials(alpha, x, t, L):
    """Channel density at site x, time t, as (coeff, fields) monomials."""
    if alpha not in DENSITIES:
        raise ValueError("unknown channel %r" % (alpha,))
    return [(c, tuple((dag, (x + dx) % L, s, t) for dag, dx, s in ops))
            for c, ops in DENSITIES[alpha]]


def _interaction_monomials(params):
    """lambda-free interaction sum_{y,d,s,s'} v_L(d) n_{y+d,s} n_{y,s'} at
    the quadrature time: one monomial per range d with v_L(d) != 0 and per
    spin pair, on the site column y = 0..L-1."""
    y = np.arange(params.L)[:, None]
    vp = params.potential.periodized(params.L)
    return [(float(vp[d]), ((1, y + d, s, None), (0, y + d, s, None),
                            (1, y, sp, None), (0, y, sp, None)))
            for d in np.flatnonzero(vp) for s in (0, 1) for sp in (0, 1)]


def _product_expectation(groups, gtab):
    """<T prod(groups)> summed over the interaction site, as an array over
    the s nodes (one entry when no field sits at the node time).  Each
    group is the monomial expansion of one composite operator; the
    coefficients distribute over the outer product."""
    total = np.zeros((1, 1))
    for combo in itertools.product(*groups):
        coeff = math.prod(c for c, _ in combo)
        total = total + coeff * _wick(sum((f for _, f in combo), ()), gtab)
    return total.sum(axis=0)


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
    kink s = tau.  The bar is the two-level refinement difference alone.
    Roundoff is left out of it: the kernel subtracts disconnected products
    of size |<T rho rho><W>| ~ L, and two summation orders of the same
    sums differ by up to 1.8e-12 (160 values at L <= 32, beta = 8), which
    can exceed the refinement bar by a factor of a few hundred.
    """
    rx = _density_monomials(alpha, x, tau, params.L)
    r0 = _density_monomials(alpha, 0, 0.0, params.L)
    w1 = _interaction_monomials(params)
    vals = []
    for n_nodes in REFINEMENT_LEVELS:
        nodes, weights = _panel_nodes(tau, params.beta, n_nodes)
        gtab = _GTable(params, nodes)
        mean_w, rr, mx, m0, rrw, rxw, r0w = (
            _product_expectation(groups, gtab) for groups in
            ([w1], [rx, r0], [rx], [r0], [rx, r0, w1], [rx, w1], [r0, w1]))
        kern = (rrw - rr * mean_w - mx * (r0w - m0 * mean_w)
                - m0 * (rxw - mx * mean_w))
        vals.append(-float(np.sum(weights * kern)))
    return OracleValue(vals[-1], abs(vals[-1] - vals[0]))


def _panel_nodes(tau, beta, n_nodes):
    """Gauss-Legendre nodes and weights on [0, tau] and [tau, beta]."""
    xg, wg = gauss_legendre(n_nodes)
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
# Fock encoding: 2L fermion modes, the field (dag, site, spin, time) acts
# on bit spin * L + site (the time slot is unused); operator strings use
# the standard lower-bit sign convention.  The Hilbert space is handled
# sector by sector in the conserved pair (N_up, N_down).

ED_MAX_SITES = 8
ED_MAX_BETA = 20.0


def _sector_basis(L):
    """Fock states by sector (N_up, N_down), each an increasing int64 array.

    Sectors come in order of first appearance as the state grows (N_down
    outer, N_up inner); that order fixes every block order downstream.
    """
    states = np.arange(4 ** L, dtype=np.int64)
    n_up = np.bitwise_count(states & ((1 << L) - 1))
    n_dn = np.bitwise_count(states >> L)
    return {(up, dn): states[(n_up == up) & (n_dn == dn)]
            for dn in range(L + 1) for up in range(L + 1)}


def _hopping_monomials(L):
    """The hopping term -(1/2) sum_{x,s} (a^+_{x,s} a^-_{x+1,s} + h.c.)."""
    return [(-0.5, ((1, p, spin, None), (0, q, spin, None)))
            for spin in (0, 1) for x in range(L)
            for p, q in ((x, (x + 1) % L), ((x + 1) % L, x))]


def _strings(monomials, L):
    """Each monomial as (coeff, ((dag, bit), ...), (dN_up, dN_down))."""
    return [(coeff, tuple((dag, spin * L + site) for dag, site, spin, _ in fields),
             tuple(sum(2 * dag - 1 for dag, _, s, _ in fields if s == spin) for spin in (0, 1)))
            for coeff, fields in monomials]


def _dests(strings, src, basis):
    """The sectors the strings reach from sector src, in first-reach order."""
    reached = ((src[0] + dn_up, src[1] + dn_dn) for _, _, (dn_up, dn_dn) in strings)
    return list(dict.fromkeys(dest for dest in reached if dest in basis))


def _block(strings, src, dest, basis, vd):
    """vd.T @ P for the dest <- src Fock block P of sum coeff * fields, or
    None where no string maps sector src to sector dest.

    vd is the identity (giving P) or dest's eigenbasis; P is never built.
    Each string (written order, rightmost acts first) acts on all states
    of src at once, maps no two of them to one state, and adds its signed
    rows of vd to the columns it hits, in string order.  This has the
    GEMM's bits while each column of P has at most two nonzeros, each
    +-2^k: every entry is one exact product or one rounded sum of two.
    """
    states, left = basis[src], None
    for coeff, ops, (dn_up, dn_dn) in strings:
        if (src[0] + dn_up, src[1] + dn_dn) != dest:
            continue
        if left is None:
            left = np.zeros((vd.shape[1], len(states)))
        out, hit, odd = states, np.ones(len(states), dtype=bool), 0
        for dag, b in reversed(ops):
            bit = np.int64(1 << b)
            hit &= ((out & bit) != 0) != bool(dag)
            odd = odd ^ (np.bitwise_count(out & (bit - 1)) & 1)
            out = (out | bit) if dag else (out & ~bit)
        sign = np.where(odd[hit] == 1, -1.0, 1.0)
        rows = vd[np.searchsorted(basis[dest], out[hit])]
        rows *= (coeff * sign)[:, None]
        left[:, hit] += rows.T
    return left


@dataclass
class EDSystem:
    """Exact thermal data for one small chain of the model params.

    basis maps each sector (N_up, N_down) to its increasing int64 Fock
    states; energies/vectors are the per-sector eigendecompositions; e0
    is the global ground energy used to keep all Boltzmann exponents
    nonpositive.  roundoff is the documented machine-precision bar for
    its exact sums.  mirror is the sorted spectrum of params'
    particle_hole_mirror plus its shift, or None where the mirror is no
    model (odd ring, or mu_bar' outside (-1, 1)).

    response and two_point return (L, len(taus)) tables over x = 0..L-1;
    the module's scope guard states what they keep alive.
    """

    params: object
    basis: dict
    energies: dict
    vectors: dict
    e0: float
    z: float
    roundoff: float
    mirror: np.ndarray | None

    # -- operator plumbing -------------------------------------------

    def _rotate(self, strings, src, dest):
        """The strings' src -> dest block in the eigenbases, or None."""
        left = _block(strings, src, dest, self.basis, self.vectors[dest])
        return None if left is None else left @ self.vectors[src]

    def _diagonal_weight(self, src, blk):
        """Boltzmann-weighted trace of a rotated src -> src block."""
        w = np.exp(-self.params.beta * (self.energies[src] - self.e0))
        return float(np.dot(np.diag(blk), w))

    def _block_terms(self, a, pair, src, dest, taus, fermionic):
        """Tr[e^{-beta H} T A(tau) B(0)] over A's rotated src -> dest block a
        and B's partner pair, one term per tau, before the 1/Z.

        tau in (-beta, beta); tau = 0 resolves to the B A product
        (the 0^- convention for fermions, plain product for densities).
        """
        beta = self.params.beta
        em = self.energies[dest] - self.e0   # row space of A
        en = self.energies[src] - self.e0    # column space
        # tau <= 0 is the tau > 0 product at -tau with A and B swapped
        sides = (a, pair, em, en, 1.0), (pair, a, en, em, -1.0 if fermionic else 1.0)
        terms = []
        # every tau's weights and both products go into one C-ordered
        # buffer, shaped like a or like pair: the same values and pairwise
        # sum as a * w * pair.T, and no second block alive while it is filled
        buf = np.empty(a.size)
        for tau in taus:
            left, right, el, er, sgn = sides[0] if tau > 0.0 else sides[1]
            t = abs(tau)   # at tau <= 0, beta - t and -t are beta + tau and tau exactly
            w = buf.reshape(left.shape)
            np.multiply(np.exp(-(beta - t) * el)[:, None], np.exp(-t * er)[None, :], out=w)
            np.multiply(left, w, out=w)
            terms.append(sgn * float(np.sum(np.multiply(w, right.T, out=w))))
        return terms

    def _pair_table(self, a_at, b, taus, fermionic):
        """T[x, j] = (1/Z) Tr[e^{-beta H} T A_x(taus[j]) B(0)] over
        x = 0..L-1 for the monomial lists A_x = a_at(x) and B = b, plus the
        means <A_x> for densities (fermionic = False; else None).

        Source sectors are outermost: for each src every block of every A_x
        out of src is built and rotated alone, and B's partner block
        (dest, src) is rotated once and kept for that src only.  Each
        T[x, j] sums over A_x's blocks in their own order, src outer and
        dest inner.
        """
        L, basis = self.params.L, self.basis
        a_strings = [_strings(a_at(x), L) for x in range(L)]
        b_strings = _strings(b, L)
        table = np.zeros((L, len(taus)))
        means = None if fermionic else np.zeros(L)
        for src in basis:
            partners = {}
            for x in range(L):
                for dest in _dests(a_strings[x], src, basis):
                    a = self._rotate(a_strings[x], src, dest)
                    if means is not None and dest == src:
                        means[x] += self._diagonal_weight(src, a)
                    if dest not in partners:
                        partners[dest] = self._rotate(b_strings, dest, src)
                    if partners[dest] is not None:
                        table[x] += self._block_terms(a, partners[dest], src, dest,
                                                      taus, fermionic)
                    del a    # released before the next block is built
        return table / self.z, None if means is None else means / self.z

    def expectation(self, monomials):
        """Thermal average of a monomial sum (only the sector-diagonal
        blocks contribute)."""
        strings = _strings(monomials, self.params.L)
        total = 0.0
        for src in self.basis:
            blk = self._rotate(strings, src, src)
            if blk is not None:
                total += self._diagonal_weight(src, blk)
        return total / self.z

    # -- public oracles ----------------------------------------------

    def spectrum(self):
        return np.sort(np.concatenate(list(self.energies.values())))

    def two_point(self, taus):
        """(L, len(taus)) table of <T a^-_{x,s}(tau) a^+_{0,s}(0)> over
        x = 0..L-1 for spin s = 0, the ED twin of the kernel sum."""
        table, _ = self._pair_table(lambda x: [(1.0, ((0, x, 0, None),))],
                                    [(1.0, ((1, 0, 0, None),))], taus, True)
        return table

    def response(self, alpha, taus):
        """(L, len(taus)) table of the connected <T rho_x(tau) rho_0(0)> -
        <rho_x><rho_0> of channel alpha over x = 0..L-1."""
        L = self.params.L
        table, means = self._pair_table(
            lambda x: _density_monomials(alpha, x, None, L),
            _density_monomials(alpha, 0, None, L), taus, False)
        return table - (means * means[0])[:, None]

    def filling(self):
        """Mean total density on one site (the C-channel expectation)."""
        return self.expectation(_density_monomials("C", 0, None, self.params.L))


def _fock_diagonal(params):
    """The diagonal of H over every Fock state: chemical potential plus
    interaction on the total site densities, summed x outer, y inner (an
    empty site x adds +-0.0, which leaves the sum unchanged)."""
    L = params.L
    states = np.arange(4 ** L, dtype=np.int64)
    diag = params.mu_bar * np.bitwise_count(states).astype(float)
    if params.lam != 0.0:
        vp = params.potential.periodized(L)
        occ = [(((states >> x) & 1) + ((states >> (L + x)) & 1)).astype(float)
               for x in range(L)]
        acc = np.zeros(4 ** L)
        for x in range(L):
            for y in range(L):
                acc += vp[(x - y) % L] * occ[x] * occ[y]
        diag += params.lam * acc
    return diag


def _sector_eigh(params, basis, mirror):
    """Yield (key, energies, vectors, mirror energies) per sector key in
    basis order: eigh of the key block of ed_micro's Hamiltonian, and the
    eigenvalues of the same hopping block with the diagonal of the model
    mirror instead (None where mirror is None).

    Each block is dead before its eigh result is yielded, and the
    generator keeps no reference to that result, so the caller alone
    decides which vectors stay alive.
    """
    diag = _fock_diagonal(params)
    mirror_diag = None if mirror is None else _fock_diagonal(mirror)
    hopping = _strings(_hopping_monomials(params.L), params.L)
    for key in basis:
        h = _block(hopping, key, key, basis, np.eye(len(basis[key])))
        mirror_e = None
        if mirror_diag is not None:
            m = h.copy()
            m[np.diag_indices_from(m)] += mirror_diag[basis[key]]
            mirror_e = np.linalg.eigh(m)[0]
            del m
        h[np.diag_indices_from(h)] += diag[basis[key]]
        eig = np.linalg.eigh(h)
        del h
        yield key, *eig, mirror_e
        del eig


def ed_micro(params):
    """Sector-resolved exact diagonalization of the interacting chain.

    H = -(1/2) sum_{x,s} (a^+_{x,s} a^-_{x+1,s} + h.c.)
        + mu_bar sum n + lambda sum_{x,y,s,s'} v(x-y) n_{x,s} n_{y,s'}

    on a periodic ring of params.L sites at inverse temperature
    params.beta; the momentum-space band is then mu_bar - cos k on
    k = 2 pi n / L, matching the kernel conventions.
    Guards: L <= 8 (4^L states), beta <= 20 (micro-oracle scope).

    The hopping conserves (N_up, N_down), so each sector has one block,
    diagonalised as soon as it is built (_sector_eigh), with the
    particle-hole mirror's block on even rings where mu_bar' lies in
    (-1, 1), as ModelParams asks of every model.
    """
    if params.L > ED_MAX_SITES:
        raise ValueError("ed_micro is a micro oracle: L > %d would need %d-dim "
                         "Fock space" % (ED_MAX_SITES, 4 ** params.L))
    if params.beta > ED_MAX_BETA:
        raise ValueError("ed_micro scope is beta <= %.0f; the scaling regime "
                         "is for the flow modules" % ED_MAX_BETA)
    mu_mirror, shift = particle_hole_mirror(params)
    twin = None
    if params.L % 2 == 0 and -1.0 < mu_mirror < 1.0:
        twin = params.with_(mu_bar=mu_mirror)
    basis = _sector_basis(params.L)
    energies, vectors, spectra = {}, {}, []
    for key, e, v, m in _sector_eigh(params, basis, twin):
        energies[key], vectors[key] = e, v
        spectra.append(m)
    e0 = min(float(v.min()) for v in energies.values())
    z = sum(float(np.exp(-params.beta * (v - e0)).sum()) for v in energies.values())
    mirror = None if twin is None else np.sort(np.concatenate(spectra)) + shift
    return EDSystem(params, basis, energies, vectors, e0, z,
                    4 ** params.L * 64.0 * _EXACT, mirror)


def particle_hole_mirror(params):
    """(mu_bar', shift) of the particle-hole map a_{x,s} -> (-1)^x a^+.

    The map sends H(mu_bar, lambda) to H(mu_bar', lambda) + shift with
    mu_bar' = -(mu_bar + 4 lambda vhat(0)) and shift = 2L(mu_bar +
    2 lambda vhat(0)); ModelParams admits mu_bar' only inside (-1, 1).
    """
    vbar = float(np.sum(params.potential.periodized(params.L)))
    return (-(params.mu_bar + 4.0 * params.lam * vbar),
            2.0 * params.L * (params.mu_bar + 2.0 * params.lam * vbar))


def particle_hole_gap(ed):
    """Spectral mismatch of the built system ed under the particle-hole
    map: the largest distance between its sorted spectrum and ed.mirror."""
    return float(np.max(np.abs(ed.spectrum() - ed.mirror)))


# ----------------------------------------------------------------------
# bubble constant quadrature
# ----------------------------------------------------------------------

BUBBLE_MAX_H = -4


def bubble_quadrature(h, fermi, extrapolate=False):
    """Scale-averaged particle-hole bubble of the relativistic pair.

    Evaluates 2 (1/|h|) int dk/(2 pi)^2 |C_h(rho)|^2 / rho^2 in polar
    coordinates (rho, phi), rho^2 = k0^2 + (v_F k')^2, where C_h is the
    cumulative cutoff of scales h..0 built from the concrete chi0.  The
    integrand is isotropic, so the angular integral is 2 pi; the radial
    one is done on per-octave panels in log rho at the two refinement
    levels.

    Converges to log(gamma)/(pi v_F) from above at an O(1/|h|) rate set
    by the two transition octaves of C_h; extrapolate=True removes that
    boundary term by Richardson across the pair (h, ceil(h/2)) and is
    the recommended estimator of the limit itself.
    """
    if h > BUBBLE_MAX_H:
        raise ValueError("bubble oracle is for the asymptotic regime h <= %d"
                         % BUBBLE_MAX_H)
    gamma = fermi.gamma
    if extrapolate:
        h2 = -(-h // 2)
        v1 = bubble_quadrature(h, fermi)
        v2 = bubble_quadrature(h2, fermi)
        num = abs(h) * v1.value - abs(h2) * v2.value
        return OracleValue(num / (abs(h) - abs(h2)),
                           (abs(h) * v1.error + abs(h2) * v2.error) / (abs(h) - abs(h2)))

    t0, v_f = fermi.t0, fermi.v_F
    lo, hi = math.log(t0) + (h - 1) * math.log(gamma), math.log(t0) + math.log(gamma)
    vals = []
    for n_nodes in REFINEMENT_LEVELS:
        xg, wg = gauss_legendre(n_nodes)
        n_panels = 1 - h
        edges = np.linspace(lo, hi, n_panels + 1)
        acc = 0.0
        for i in range(n_panels):
            half = 0.5 * (edges[i + 1] - edges[i])
            u = half * (xg + 1.0) + edges[i]
            rho = np.exp(u)
            c = chi0(rho / t0, gamma) - chi0(rho / (t0 * gamma ** (h - 1)), gamma)
            acc += half * float(np.dot(wg, c * c))
        vals.append(2.0 * acc * (2.0 * math.pi) / (4.0 * math.pi ** 2 * v_f * abs(h)))
    return OracleValue(vals[-1], abs(vals[-1] - vals[0]))


# ----------------------------------------------------------------------
# high-precision map iteration
# ----------------------------------------------------------------------


def mp_map_trajectory(g0, a, n):
    """Iterate g -> g - a g^2 in 40-digit arithmetic.

    Returns (trajectory g_0..g_n as a complex128 array, OracleValue of g_n)
    where the bar is the difference against g_n of a rerun at 60 digits,
    which keeps only that final value; this bounds the float iteration's
    roundoff drift in the closeness tests.  Raises ArithmeticError at the
    first step that no complex128 can hold.
    """
    import mpmath

    def run(digits, traj=None):
        """g_n at `digits`; traj, if given, receives g_0..g_n."""
        with mpmath.workdps(digits):
            g, a_mp = mpmath.mpc(complex(g0)), mpmath.mpc(complex(a))
            for k in range(n + 1):
                if k:
                    g = g - a_mp * g * g
                if traj is not None:
                    traj[k] = complex(g)
        return complex(g)

    base = np.empty(n + 1, dtype=complex)
    run(40, base)
    escaped = np.flatnonzero(~np.isfinite(base))
    if escaped.size:
        raise ArithmeticError("map trajectory leaves the float range at step %d"
                              % escaped[0])
    check = run(60)
    return base, OracleValue(abs(base[-1]), float(abs(base[-1] - check)))
