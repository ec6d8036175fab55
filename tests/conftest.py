"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's decoding and
enumeration paths: stopping sets come from itertools subset scans, and
`sweep_peel` is a naive full-sweep decoder that referees both peeling
kernels: the work-list `PeelingDecoder` and the bit-parallel window
kernel behind `scan_length`.  `graphs` and `patterns` are `hypothesis`
strategies for graphs up to n = 60 and erasure patterns on them.
`brute_four_cycle_pairs` compares every pair of checks and referees the
generator's incremental 4-cycle tracker.  `component_count` counts the
connected pieces of a stopping set's induced subgraph by a plain graph
walk.  `bisection_threshold` is the capped density-evolution bisection
that `threshold` used before it took p* from the fixed-point
characterization: it bisects on p and iterates `de_step` from x = 1 at
most ``max_iterations`` times per probe.  A probe that converges is
below p*, so the result is a lower bound; the cap biases it low where
convergence is slow, worst at the stability bound of ensembles with
degree-2 variables.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from burstldpc import EdgeDistribution, TannerGraph, de_step

BISECTION_MAX_ITERATIONS = 10_000
BISECTION_CONVERGENCE_FLOOR = 1e-12


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


def component_count(g: TannerGraph, members) -> int:
    """Connected components over ``members`` and the checks they touch."""
    unvisited = set(members)
    components = 0
    while unvisited:
        components += 1
        stack = [unvisited.pop()]
        while stack:
            for c in g.var_adj[stack.pop()]:
                for u in g.check_adj[c]:
                    if u in unvisited:
                        unvisited.discard(u)
                        stack.append(u)
    return components


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


def brute_four_cycle_pairs(rows) -> list[tuple[int, int, list[int]]]:
    """All-pairs 4-cycle finder: (c1, c2, shared variables ascending) for
    each pair of rows c1 < c2 sharing two or more variables, ascending."""
    row_sets = [set(row) for row in rows]
    out = []
    for c1 in range(len(rows)):
        for c2 in range(c1 + 1, len(rows)):
            shared = row_sets[c1] & row_sets[c2]
            if len(shared) >= 2:
                out.append((c1, c2, sorted(shared)))
    return out


def _converges(dist: EdgeDistribution, p: float, max_iterations: int) -> bool:
    x = 1.0
    for _ in range(max_iterations):
        nxt = de_step(dist, p, x)
        if nxt < BISECTION_CONVERGENCE_FLOOR:
            return True
        if nxt >= x:  # stalled at a nonzero fixed point
            return False
        x = nxt
    return False


def bisection_threshold(dist: EdgeDistribution, tol: float = 1e-9,
                        max_iterations: int = BISECTION_MAX_ITERATIONS) -> float:
    """Threshold p* by bisection on convergence of the iterates from x = 1."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _converges(dist, mid, max_iterations):
            lo = mid
        else:
            hi = mid
    return lo


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
    for v in [v for v, col in enumerate(g.var_adj) if not col]:
        for c in rng.sample(range(m), m):
            if v not in g.check_adj[c]:
                g.check_adj[c].append(v)
                g.check_adj[c].sort()
                g.var_adj[v].append(c)
                break
    return g


@st.composite
def graphs(draw):
    """Graphs up to n = 60 with any rows, so zero-degree columns, empty
    rows and the graph with no edges all occur."""
    n = draw(st.integers(1, 60))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=8),
                         min_size=1, max_size=30))
    return TannerGraph.from_rows([sorted(row) for row in rows], n)


def patterns(n: int):
    """Erasure patterns on n variables, of any density."""
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: frozenset(v for v, erased in enumerate(bits) if erased))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEC)
