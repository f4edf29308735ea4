"""Lattice model data for interacting spinning fermions on a 1d ring.

Hamiltonian (units of the hopping, lattice spacing 1, periodic chain of L
sites, spin s in {up,down}):

    H = -1/2 sum_{x,s} (a+_{x,s} a-_{x+1,s} + a+_{x,s} a-_{x-1,s})
        + mu_bar sum_{x,s} n_{x,s}
        + lambda sum_{x,y} sum_{s,s'} v(x-y) n_{x,s} n_{y,s'}

The interaction is a full double sum over both sites and both spin labels
(no 1/2, the x = y term included), so for the on-site potential
v(x) = delta_{x,0} it equals lambda * sum_x (n_x + 2 n_{x,up} n_{x,down})
with n_x = n_{x,up} + n_{x,down}.

This module owns the interaction potential (a finite table of v(x), so
short-ranged by construction), the free dispersion and its form around a
Fermi point, the Fermi point data (velocity, grid-snapped momentum, scale
geometry), the positivity hypothesis on lambda vhat(2 p_F) and the
momentum grids shared by every other module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# decay exponents 0 < theta < theta' < 1 of the multiscale bounds, fixed once
# for the whole construction (remainder envelopes, counterterm kernel)
THETA = 0.75
THETA_PRIME = 0.9


# ----------------------------------------------------------------------
# interaction potential
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionPotential:
    """Even, finite-range pair potential v(x) on the integers.

    values maps displacements x >= 0 to v(x); the even extension
    v(-x) = v(x) is implied, and v vanishes off the table.
    """

    values: dict

    def __post_init__(self):
        if any(x < 0 for x in self.values):
            raise ValueError("store displacements x >= 0 only")
        if not all(map(math.isfinite, self.values.values())):
            raise ValueError("potential values must be finite")

    def fourier(self, p):
        """vhat(p) = sum_x v(x) e^{-ipx} = v(0) + 2 sum_{x>0} v(x) cos(px).

        Real for every real p because v is even.
        """
        p = np.asarray(p, dtype=float)
        out = np.full(p.shape, self.values.get(0, 0.0), dtype=float)
        for x, vx in sorted(self.values.items()):
            if x > 0 and vx != 0.0:
                out = out + 2.0 * vx * np.cos(p * x)
        return out if out.shape else float(out)

    def periodized(self, L):
        """v_L(d) for ring displacements 0 <= d < L: sum_m v(d + m L)."""
        out = np.zeros(L)
        for x, vx in self.values.items():
            for sgn in ((x,) if x == 0 else (x, -x)):
                out[sgn % L] += vx
        return out

    @classmethod
    def from_file(cls, path):
        """Lines "x v(x)"; blank lines and lines starting with # are skipped."""
        values = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    xs, vs = line.split()
                    values[int(xs)] = float(vs)
        return cls(values=values)


def on_site_potential(strength=1.0):
    """Hubbard-type potential: v(x) = strength * delta_{x,0}, vhat == strength."""
    return InteractionPotential(values={0: float(strength)})


def u_v_potential(u, v):
    """On-site plus nearest neighbour: vhat(p) = u + v cos p."""
    return InteractionPotential(values={0: float(u), 1: 0.5 * float(v)})


# ----------------------------------------------------------------------
# dispersion and Fermi point
# ----------------------------------------------------------------------

def fermi_momentum_free(mu_bar):
    """p_F = arccos(mu_bar) for the free dispersion mu_bar - cos k.

    Requires |mu_bar| < 1 (an open Fermi sea with two distinct Fermi
    points); outside that the model has no infrared scaling regime.
    """
    if not -1.0 < mu_bar < 1.0:
        raise ValueError("mu_bar must lie in (-1, 1), got %r" % (mu_bar,))
    return math.acos(mu_bar)


def dispersion(k, mu_bar):
    """Free band relative to the chemical potential: e(k) = mu_bar - cos k."""
    return mu_bar - np.cos(k)


def ir_dispersion(k_prime, p, omega):
    """Band relative to the Fermi point omega * p, exact on the lattice:

        E_omega(k') = omega sin(p) sin k' + cos(p) (1 - cos k')

    satisfies e(omega p + k') = E_omega(k') when mu_bar = cos p, and the
    antisymmetry E_+(k') + E_-(-k') = 2 cos(p) (1 - cos k').  The scale
    decomposition takes p = p_FL, the grid-snapped momentum that makes it
    an identity for the tuned finite model.
    """
    k_prime = np.asarray(k_prime, dtype=float)
    out = omega * math.sin(p) * np.sin(k_prime) + math.cos(p) * (1.0 - np.cos(k_prime))
    return out if out.shape else float(out)


@dataclass(frozen=True)
class FermiPoint:
    """Fermi point geometry at fixed (mu_bar, L, gamma).

    p_FL is the grid-snapped momentum (2 pi / L)(n_F + 1/2), within 2 pi / L
    of p_F; a0 = min(p_F/2, (pi - p_F)/2) keeps the two infrared sectors
    from overlapping each other or the band edges, and t0 = a0 v_F / gamma
    sets the width of the first infrared shell.
    """

    p_F: float
    v_F: float
    L: int
    gamma: float
    n_F: int
    p_FL: float
    a0: float
    t0: float

    @classmethod
    def from_p_F(cls, p_F, L, gamma=2.0):
        if not 0.0 < p_F < math.pi:
            raise ValueError("p_F must lie in (0, pi)")
        if not gamma > 1.0:
            raise ValueError("scaling parameter gamma must exceed 1")
        n_F = int(round(p_F * L / TWO_PI - 0.5))
        p_FL = (TWO_PI / L) * (n_F + 0.5)
        v_F = math.sin(p_F)
        a0 = min(0.5 * p_F, 0.5 * (math.pi - p_F))
        return cls(p_F=p_F, v_F=v_F, L=int(L), gamma=float(gamma), n_F=n_F,
                   p_FL=p_FL, a0=a0, t0=a0 * v_F / gamma)


def fermi_point_admissible(fermi):
    """Reject Fermi momenta too close to 0, pi/2 or pi.

    The scaling analysis needs p_F away from the band edges (0, pi) and
    from half filling (pi/2, where 2 p_F umklapp becomes resonant).  The
    window is 10 grid spacings.
    """
    window = 10.0 * TWO_PI / fermi.L
    dist = min(fermi.p_F, abs(fermi.p_F - 0.5 * math.pi), math.pi - fermi.p_F)
    return bool(dist >= window)


def check_positivity(params, fermi):
    """Stability sign of the coupling at momentum transfer 2 p_F: whether
    Re(lambda) * vhat(2 p_F) >= 0."""
    val = complex(params.lam).real * params.potential.fourier(2.0 * fermi.p_F)
    return bool(val >= 0.0)


# ----------------------------------------------------------------------
# model parameter record
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Full parameter set for one run: the model (lam, mu_bar, potential,
    beta, L) and the scale geometry (gamma, M_uv).

    lam may be complex (flow-domain probes); physical correlation assembly
    expects real lam >= 0 unless allow_complex is set.  gamma is the one
    source of the scale parameter for every stage, the coupling flow
    included; M_uv is the ultraviolet scale count.  The decay exponents
    are the module constants THETA and THETA_PRIME.
    """

    lam: complex
    mu_bar: float
    potential: InteractionPotential
    beta: float
    L: int
    gamma: float = 2.0
    M_uv: int = 10
    allow_complex: bool = False

    def __post_init__(self):
        if not -1.0 < self.mu_bar < 1.0:
            raise ValueError("mu_bar must lie in (-1, 1)")
        if not (self.beta > 0 and self.L > 0):
            raise ValueError("beta and L must be positive")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        lam = complex(self.lam)
        if not cmath.isfinite(lam):
            raise ValueError("lam must be finite")
        if lam.imag != 0.0 and not self.allow_complex:
            raise ValueError("complex lam requires allow_complex=True")

    def fermi(self):
        return FermiPoint.from_p_F(fermi_momentum_free(self.mu_bar), self.L, self.gamma)

    @classmethod
    def from_p_F(cls, lam, p_F, potential, beta, L, **kw):
        # cos would fold any other p_F onto a different model in (0, pi)
        if not 0.0 < p_F < math.pi:
            raise ValueError("p_F must lie in (0, pi)")
        return cls(lam=lam, mu_bar=math.cos(p_F), potential=potential,
                   beta=beta, L=L, **kw)

    def with_(self, **kw):
        return replace(self, **kw)


# ----------------------------------------------------------------------
# momentum grids
# ----------------------------------------------------------------------

# spatial momenta D_L, fermionic Matsubara frequencies D_beta and the
# half-integer quasi-momenta D'_L reached by shifting k by p_FL.  Exactness
# contract: shifting a spatial index n by +-(n_F + 1/2) lands on a
# half-integer index, so k +- p_FL maps the integer grid into the
# half-integer grid exactly at the index level.

def spatial_momenta(L):
    """D_L: k = (2 pi / L) n, n in [-floor((L-1)/2), floor(L/2)]: exactly L
    modes, one full zone."""
    return (TWO_PI / L) * np.arange(-((L - 1) // 2), L // 2 + 1)


def quasi_momenta(L):
    """D'_L: k' = (2 pi / L)(m + 1/2), m in [-floor(L/2), L - floor(L/2))."""
    half = L // 2
    return (TWO_PI / L) * (np.arange(-half, L - half) + 0.5)


def matsubara_count(beta, k0_max):
    """Number of k0 in D_beta with |k0| <= k0_max, as a float: inf once the
    count leaves the float range."""
    return 2.0 * (np.floor(k0_max * beta / TWO_PI - 0.5) + 1.0)


def matsubara(beta, k0_max):
    """D_beta restricted to |k0| <= k0_max: k0 = (2 pi / beta)(n + 1/2)."""
    half = int(matsubara_count(beta, k0_max)) // 2
    return (TWO_PI / beta) * (np.arange(-half, half) + 0.5)
