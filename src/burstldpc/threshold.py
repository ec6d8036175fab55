"""Density evolution on the binary erasure channel.

For edge-perspective polynomials lam and rho, the erased-edge fraction
evolves as x -> p * lam(1 - rho(1 - x)).  The threshold p* is the
supremum of channel erasure probabilities for which the iteration from
x = 1 converges to zero; floor(p* * n) estimates the best guaranteed
burst length reachable by column permutation alone.

p* is computed without iterating.  The iteration from x = 1 converges to
zero exactly when p * lam(1 - rho(1 - x)) < x on all of (0, 1], so p* is
the infimum over x in (0, 1] of h(x) = x / lam(1 - rho(1 - x))
(Richardson and Urbanke, *Modern Coding Theory*, 2008, ch. 3).  With
y = 1 - x, 1 - rho(1 - x) = x * r, where r = sum of rho_d (1 + y + ...
+ y^(d-2)); so h = 1 / sum of lam_d x^(d-2) r^(d-1), which has no
cancellation anywhere on [0, 1] and at x = 0 is the stability bound
1 / (lam_2 rho'(1)).  `threshold` evaluates h on GRID_POINTS + 1 evenly
spaced points of [0, 1] and refines the best grid cell by golden-section
search until the minimizing x is bracketed to within 1e-9.  That width is
fixed: any narrower one prints the same ten digits of p*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

GRID_POINTS = 1024
_BRACKET = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-perspective degree fractions: (degree, fraction) pairs, each side
    summing to 1.  Built from node multiplicities, each fraction is one
    correctly rounded integer division, degree times count over edges."""

    lam: tuple[tuple[int, float], ...]
    rho: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for name, nodes, side in (("lam", "variable", self.lam),
                                  ("rho", "check", self.rho)):
            if not side:
                raise ValueError(f"{name} is empty")
            for deg, frac in side:
                if deg < 1:
                    raise ValueError(f"{nodes} degree {deg} is below 1")
                if frac < 0:
                    raise ValueError(f"{name} has negative fraction {frac}")
            total = math.fsum(frac for _, frac in side)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} fractions sum to {total}, not 1")

    @classmethod
    def from_node_multiplicities(cls, variable: Mapping[int, int],
                                 check: Mapping[int, int]) -> "EdgeDistribution":
        """Degree-0 and count-0 entries are dropped; a negative count or
        degree is an error."""
        if any(c < 0 for side in (variable, check) for c in side.values()):
            raise ValueError("negative node count in the degree multiplicities")
        for nodes, side in (("variable", variable), ("check", check)):
            if min(side, default=0) < 0:
                raise ValueError(f"{nodes} degree {min(side)} is below 1")
        var_edges = sum(d * c for d, c in variable.items())
        check_edges = sum(d * c for d, c in check.items())
        if var_edges != check_edges:
            raise ValueError(
                f"edge counts disagree: {var_edges} from variables, "
                f"{check_edges} from checks")
        if var_edges == 0:
            raise ValueError("distribution has no edges")
        return cls(*(tuple(sorted((d, d * c / var_edges)
                                  for d, c in side.items() if c and d))
                     for side in (variable, check)))

    @classmethod
    def from_regular(cls, var_degree: int, check_degree: int) -> "EdgeDistribution":
        return cls(((var_degree, 1.0),), ((check_degree, 1.0),))

    @classmethod
    def from_degree_distribution(cls, dd: tuple[dict, dict]) -> "EdgeDistribution":
        """From ``TannerGraph.degree_distribution()``: (variable, check) counts."""
        return cls.from_node_multiplicities(*dd)

    def lam_at(self, x: float) -> float:
        return _polynomial_at(self.lam, x)

    def rho_at(self, x: float) -> float:
        return _polynomial_at(self.rho, x)


def _polynomial_at(side: tuple[tuple[int, float], ...], x: float) -> float:
    """sum of frac * x^(deg-1), added left to right: builtin sum() of floats
    is compensated from Python 3.12 on, which moves the last bits."""
    total = 0.0
    for deg, frac in side:
        total += frac * x ** (deg - 1)
    return total


def de_step(dist: EdgeDistribution, p: float, x: float) -> float:
    """One density-evolution update: p * lam(1 - rho(1 - x))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"erased-edge fraction {x} outside [0, 1]")
    return p * dist.lam_at(1.0 - dist.rho_at(1.0 - x))


def _fixed_point_ratio(dist: EdgeDistribution, x: float) -> float:
    """h(x) = x / lam(1 - rho(1 - x)): the erasure probability at which x is
    a fixed point of density evolution, +inf where lam(...) vanishes.

    Evaluated as 1 / sum of lam_d x^(d-2) r^(d-1) with 1 - rho(1 - x) = x * r,
    so it holds its digits as x -> 0 and equals 1 / (lam_2 rho'(1)) at 0."""
    y = 1.0 - x
    r = 0.0
    for deg, frac in dist.rho:
        s = 0.0  # 1 + y + ... + y^(deg-2), by Horner's rule
        for _ in range(deg - 1):
            s = 1.0 + y * s
        r += frac * s
    # Left to right, for the reason _polynomial_at gives.
    denom = 0.0
    for deg, frac in dist.lam:
        denom += frac * x ** (deg - 2) * r ** (deg - 1)
    return 1.0 / denom if denom > 0.0 else math.inf


def threshold(dist: EdgeDistribution) -> float:
    """Threshold p* = inf of h on [0, 1], capped at 1."""
    if any(deg == 1 for deg, _ in dist.lam):
        raise ValueError(
            "degree-1 variable nodes make density evolution non-convergent "
            "for every p > 0; remove them before computing a threshold")
    grid = [_fixed_point_ratio(dist, k / GRID_POINTS)
            for k in range(GRID_POINTS + 1)]
    k = grid.index(min(grid))
    # Golden-section search on the grid cells either side of the best point,
    # for as many steps as narrow the bracket below _BRACKET.
    lo, hi = max(k - 1, 0) / GRID_POINTS, min(k + 1, GRID_POINTS) / GRID_POINTS
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    ha, hb = _fixed_point_ratio(dist, a), _fixed_point_ratio(dist, b)
    steps = math.ceil(math.log(_BRACKET / (hi - lo)) / math.log(_INV_PHI))
    for _ in range(steps):
        if ha <= hb:
            hi, b, hb = b, a, ha
            a = hi - _INV_PHI * (hi - lo)
            ha = _fixed_point_ratio(dist, a)
        else:
            lo, a, ha = a, b, hb
            b = lo + _INV_PHI * (hi - lo)
            hb = _fixed_point_ratio(dist, b)
    return min(grid[k], ha, hb, 1.0)


def lmax_target(dist: EdgeDistribution, n: int) -> int:
    """floor(p* * n): the permutation-achievable burst-length estimate."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return math.floor(threshold(dist) * n)
