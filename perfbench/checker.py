"""Independent output checker for the benchmark.

Nothing here calls the library's decoding, scanning, enumeration or
density-evolution code.  Graphs are read only through their adjacency
lists (``check_adj``: check -> sorted variables, ``var_adj``: variable ->
checks).  The decoder is a stack-scheduled peeler (the library's is a
round-based frontier), the stopping-set enumeration tests "exactly one
bit set" with ``x & (x - 1)`` instead of a popcount, and the threshold
is an independent bisection.  Peeling on the erasure channel is
schedule-independent, so both decoders must leave the same residual:
the largest stopping set inside the erased pattern.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np


def residual(var_adj: Sequence[Sequence[int]], check_adj: Sequence[Sequence[int]],
             erased: Iterable[int]) -> frozenset[int]:
    """Variables left erased after peeling ``erased``; empty on success."""
    left = set(erased)
    count: dict[int, int] = {}
    for v in left:
        for c in var_adj[v]:
            count[c] = count.get(c, 0) + 1
    stack = [c for c, k in count.items() if k == 1]
    while stack:
        c = stack.pop()
        if count[c] != 1:
            continue
        for v in check_adj[c]:
            if v in left:
                break
        left.discard(v)
        for c2 in var_adj[v]:
            count[c2] -= 1
            if count[c2] == 1:
                stack.append(c2)
    return frozenset(left)


def is_stopping_set(var_adj: Sequence[Sequence[int]], members: Iterable[int]) -> bool:
    """Nonempty, and every check adjacent to the set touches it at least twice."""
    hits: Counter[int] = Counter()
    members = list(members)
    for v in members:
        hits.update(var_adj[v])
    return bool(members) and all(k >= 2 for k in hits.values())


def failing_windows(g, length: int) -> dict[int, frozenset[int]]:
    """Start -> residual for every length-``length`` window that fails to peel."""
    out = {}
    for j in range(g.n - length + 1):
        left = residual(g.var_adj, g.check_adj, range(j, j + length))
        if left:
            out[j] = left
    return out


def window_clean(g, length: int) -> bool:
    return all(not residual(g.var_adj, g.check_adj, range(j, j + length))
               for j in range(g.n - length + 1))


def lmax_holds(g, claimed: int) -> bool:
    """Every window of length ``claimed`` peels and some window one longer fails.

    Peeling a subset of a decodable pattern succeeds, so this pins the
    maximum exactly.
    """
    if not 0 <= claimed <= g.n:
        return False
    if claimed and not window_clean(g, claimed):
        return False
    return claimed == g.n or not window_clean(g, claimed + 1)


def lmax(g) -> int:
    """Largest L whose windows all peel, by bisection over the own decoder."""
    if window_clean(g, g.n):
        return g.n
    lo, hi = 0, g.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if window_clean(g, mid):
            lo = mid
        else:
            hi = mid
    return lo


def stopping_masks(g) -> np.ndarray:
    """Bitmasks of all nonempty stopping sets, ascending (n <= 22)."""
    if g.n > 22:
        raise ValueError(f"enumeration refused above 22 variables, got n={g.n}")
    subsets = np.arange(1, 1 << g.n, dtype=np.int64)
    for row in g.check_adj:  # drop subsets one check at a time, so later checks see few
        x = subsets & sum(1 << v for v in row)
        subsets = subsets[(x == 0) | ((x & (x - 1)) != 0)]
    return subsets


_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def total_bits(masks: np.ndarray) -> int:
    """Summed set sizes of the masks (n <= 22, so three bytes each)."""
    return int(sum(_BYTE_BITS[(masks >> shift) & 0xFF].sum() for shift in (0, 8, 16)))


def mask_members(mask: int) -> tuple[int, ...]:
    mask = int(mask)
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def min_span(masks: np.ndarray) -> int | None:
    """Smallest (highest bit - lowest bit + 1) over the masks; None if empty."""
    if not masks.size:
        return None
    low = np.log2(masks & -masks).astype(np.int64)
    high = np.floor(np.log2(masks.astype(np.float64))).astype(np.int64)
    return int((high - low).min()) + 1


def four_cycles(g) -> int:
    """Pairs of checks sharing two or more variables (each such pair closes a 4-cycle)."""
    pairs: Counter[tuple[int, int]] = Counter()
    for checks in g.var_adj:
        cs = sorted(checks)
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                pairs[a, b] += 1
    return sum(1 for k in pairs.values() if k >= 2)


def relabel(g, mapping: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Adjacency of ``g`` with column j moved to position ``mapping[j]``."""
    rows = [sorted(mapping[v] for v in row) for row in g.check_adj]
    cols: list[list[int]] = [[] for _ in range(g.n)]
    for v, checks in enumerate(g.var_adj):
        cols[mapping[v]] = sorted(checks)
    return rows, cols


def adjacency_consistent(g) -> bool:
    """Both adjacency directions describe the same simple graph."""
    if len(g.check_adj) != g.m or len(g.var_adj) != g.n:
        return False
    edges = set()
    for c, row in enumerate(g.check_adj):
        if len(set(row)) != len(row):
            return False
        edges.update((c, v) for v in row)
    back = {(c, v) for v, checks in enumerate(g.var_adj) for c in checks}
    return edges == back and sum(map(len, g.var_adj)) == len(back)


# Density evolution on the erasure channel, independent of the library.

def edge_fractions(degrees: Iterable[int]) -> list[tuple[int, float]]:
    """Edge-perspective fractions from a list of node degrees."""
    counts = Counter(d for d in degrees if d > 0)
    edges = sum(d * k for d, k in counts.items())
    return sorted((d, d * k / edges) for d, k in counts.items())


def de_threshold(lam: list[tuple[int, float]], rho: list[tuple[int, float]],
                 tol: float = 1e-9) -> float:
    def poly(fr, x):
        return sum(f * x ** (d - 1) for d, f in fr)

    def converges(p: float) -> bool:
        x = 1.0
        for _ in range(10_000):
            nxt = p * poly(lam, 1.0 - poly(rho, 1.0 - x))
            if nxt < 1e-12:
                return True
            if nxt >= x:
                return False
            x = nxt
        return False

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if converges(mid) else (lo, mid)
    return lo


def lmax_target(var_degrees: Sequence[int], check_degrees: Sequence[int], n: int) -> int:
    return math.floor(de_threshold(edge_fractions(var_degrees),
                                   edge_fractions(check_degrees)) * n)
