"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's decoding and
enumeration paths: stopping sets come from itertools subset scans, and
`sweep_peel` is a naive full-sweep decoder that referees both peeling
kernels: the work-queue `PeelingDecoder` and the bit-parallel window
kernel behind `scan_length`.
"""

from __future__ import annotations

import itertools
import random

import pytest

from burstldpc import TannerGraph


def brute_is_stopping_set(g: TannerGraph, members) -> bool:
    members = set(members)
    for row in g.check_adj:
        hit = sum(1 for v in row if v in members)
        if hit == 1:
            return False
    return True


def brute_stopping_sets(g: TannerGraph) -> list[tuple[int, ...]]:
    out = []
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if brute_is_stopping_set(g, combo):
                out.append(combo)
    return out


def sweep_peel(g: TannerGraph, erased, order=None) -> set[int]:
    """Full-sweep peeling with a configurable check visiting order."""
    erased = set(erased)
    checks = list(order) if order is not None else list(range(g.m))
    changed = True
    while changed and erased:
        changed = False
        for c in checks:
            hit = [v for v in g.check_adj[c] if v in erased]
            if len(hit) == 1:
                erased.discard(hit[0])
                changed = True
    return erased


def brute_lmax(g: TannerGraph) -> int:
    """Largest L with every window decodable, via the sweep decoder."""
    best = 0
    for length in range(1, g.n + 1):
        if any(sweep_peel(g, range(j, j + length))
               for j in range(g.n - length + 1)):
            return best
        best = length
    return best


def random_graph(rng: random.Random, max_n: int = 20) -> TannerGraph:
    """Mixed regular/irregular sampler; every variable gets degree >= 1."""
    n = rng.randint(5, max_n)
    if rng.random() < 0.4:
        # Regular-ish: constant check degree, variables as evenly as the
        # socket count allows.
        m = rng.randint(max(2, n // 2), n)
        dc = rng.randint(2, min(4, n))
        rows = []
        pool = list(range(n)) * ((m * dc) // n + 2)
        rng.shuffle(pool)
        for _ in range(m):
            row: set[int] = set()
            while len(row) < dc:
                row.add(pool.pop() if pool else rng.randrange(n))
            rows.append(sorted(row))
    else:
        m = rng.randint(max(2, (3 * n) // 5), n)
        rows = [sorted(rng.sample(range(n), rng.randint(2, min(5, n))))
                for _ in range(m)]
    g = TannerGraph.from_rows(rows, n)
    # Attach isolated variables to some check that does not have them yet.
    for v in g.zero_degree_variables():
        for c in rng.sample(range(m), m):
            if v not in g.check_adj[c]:
                g.check_adj[c].append(v)
                g.check_adj[c].sort()
                g.var_adj[v].append(c)
                break
    return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEC)
