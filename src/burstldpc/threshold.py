"""Density evolution on the binary erasure channel.

For edge-perspective polynomials lam and rho, the erased-edge fraction
evolves as x -> p * lam(1 - rho(1 - x)).  The threshold p* is the
supremum of channel erasure probabilities for which the iteration from
x = 1 converges to zero; floor(p* * n) estimates the best guaranteed
burst length reachable by column permutation alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .tanner import DegreeDistribution

DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 10_000
CONVERGENCE_FLOOR = 1e-12


def _fractions_to_pairs(fracs: Mapping[int, Fraction]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted((deg, float(f)) for deg, f in fracs.items() if f))


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-perspective degree fractions: (degree, fraction) pairs, each side
    summing to 1.  Built from node multiplicities with exact rational
    arithmetic, converted to float once."""

    lam: tuple[tuple[int, float], ...]
    rho: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for name, side in (("lam", self.lam), ("rho", self.rho)):
            if not side:
                raise ValueError(f"{name} is empty")
            if any(deg < 1 or frac < 0 for deg, frac in side):
                raise ValueError(f"{name} has invalid degree or negative fraction")
            total = math.fsum(frac for _, frac in side)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} fractions sum to {total}, not 1")

    @classmethod
    def from_node_multiplicities(cls, variable: Mapping[int, int],
                                 check: Mapping[int, int]) -> "EdgeDistribution":
        var_edges = sum(d * c for d, c in variable.items())
        check_edges = sum(d * c for d, c in check.items())
        if var_edges != check_edges:
            raise ValueError(
                f"edge counts disagree: {var_edges} from variables, "
                f"{check_edges} from checks")
        if var_edges == 0:
            raise ValueError("distribution has no edges")
        lam = {d: Fraction(d * c, var_edges) for d, c in variable.items() if c and d}
        rho = {d: Fraction(d * c, check_edges) for d, c in check.items() if c and d}
        return cls(_fractions_to_pairs(lam), _fractions_to_pairs(rho))

    @classmethod
    def from_regular(cls, var_degree: int, check_degree: int) -> "EdgeDistribution":
        return cls(((var_degree, 1.0),), ((check_degree, 1.0),))

    @classmethod
    def from_degree_distribution(cls, dd: DegreeDistribution) -> "EdgeDistribution":
        return cls.from_node_multiplicities(dict(dd.variable), dict(dd.check))

    def lam_at(self, x: float) -> float:
        return sum(frac * x ** (deg - 1) for deg, frac in self.lam)

    def rho_at(self, x: float) -> float:
        return sum(frac * x ** (deg - 1) for deg, frac in self.rho)


def de_step(dist: EdgeDistribution, p: float, x: float) -> float:
    """One density-evolution update: p * lam(1 - rho(1 - x))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"erased-edge fraction {x} outside [0, 1]")
    return p * dist.lam_at(1.0 - dist.rho_at(1.0 - x))


def _converges(dist: EdgeDistribution, p: float) -> bool:
    x = 1.0
    for _ in range(MAX_ITERATIONS):
        nxt = de_step(dist, p, x)
        if nxt < CONVERGENCE_FLOOR:
            return True
        if nxt >= x:  # stalled at a nonzero fixed point
            return False
        x = nxt
    return False


def threshold(dist: EdgeDistribution, tol: float = DEFAULT_TOL) -> float:
    """Threshold p* by bisection on convergence of the iterates from x = 1."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if any(deg == 1 for deg, _ in dist.lam):
        raise ValueError(
            "degree-1 variable nodes make density evolution non-convergent "
            "for every p > 0; remove them before computing a threshold")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _converges(dist, mid):
            lo = mid
        else:
            hi = mid
    return lo


def lmax_target(dist: EdgeDistribution, n: int, tol: float = DEFAULT_TOL) -> int:
    """floor(p* * n): the permutation-achievable burst-length estimate."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 0
    return math.floor(threshold(dist, tol) * n)
