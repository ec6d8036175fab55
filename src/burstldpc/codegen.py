"""Deterministic graph generators: random regular codes and small fixtures.

The regular generator is test plumbing, not a code-construction method:
it pairs edge sockets by random matching, repairs parallel edges by
local swaps, and (best-effort, within a budget) breaks 4-cycles the
same way.  Everything is reproducible from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .tanner import TannerGraph

_REPAIR_PASSES = 400
_FOUR_CYCLE_PASSES = 4000


@dataclass(frozen=True)
class GenSpec:
    n: int
    m: int
    var_degree: int
    check_degree: int
    rng_seed: int = 0
    girth_floor: int = 6

    def __post_init__(self) -> None:
        if self.girth_floor not in (4, 6):
            raise ValueError("girth_floor must be 4 (no effort) or 6 (break 4-cycles)")


def gen_regular(spec: GenSpec) -> TannerGraph:
    """Random (var_degree, check_degree)-regular graph, no parallel edges."""
    n, m, dv, dc = spec.n, spec.m, spec.var_degree, spec.check_degree
    if min(n, m, dv, dc) < 1:
        raise ValueError("n, m and degrees must be positive")
    if n * dv != m * dc:
        raise ValueError(
            f"socket counts differ: n*dv = {n * dv} but m*dc = {m * dc}")
    if dc > n or dv > m:
        raise ValueError("degree exceeds the opposite side's node count")
    rng = random.Random(spec.rng_seed)
    rows = _matched_rows(rng, n, m, dv, dc)
    if spec.girth_floor >= 6:
        _break_four_cycles(rng, rows, m, dc)
    return TannerGraph.from_rows(rows, n)


def _matched_rows(rng: random.Random, n: int, m: int, dv: int,
                  dc: int) -> list[list[int]]:
    sockets = [v for v in range(n) for _ in range(dv)]
    for _ in range(_REPAIR_PASSES):
        rng.shuffle(sockets)
        rows = [sockets[c * dc:(c + 1) * dc] for c in range(m)]
        if _repair_parallel(rng, rows, m, dc):
            return rows
    raise ValueError("could not realize the degree sequence without parallel edges")


def _repair_parallel(rng: random.Random, rows: list[list[int]], m: int,
                     dc: int) -> bool:
    for _ in range(_REPAIR_PASSES):
        conflicts = [(c, i) for c in range(m) for i in range(dc)
                     if rows[c].count(rows[c][i]) > 1]
        if not conflicts:
            return True
        c, i = conflicts[rng.randrange(len(conflicts))]
        v = rows[c][i]
        for _ in range(60):
            c2 = rng.randrange(m)
            if c2 == c:
                continue
            i2 = rng.randrange(dc)
            u = rows[c2][i2]
            if u == v or u in rows[c] or v in rows[c2]:
                continue
            rows[c][i], rows[c2][i2] = u, v
            break
    return False


def _four_cycle_conflicts(rows: list[list[int]],
                          m: int) -> list[tuple[int, int, int]]:
    """(check1, check2, shared variable) triples behind each 4-cycle."""
    row_sets = [set(row) for row in rows]
    out = []
    for c1 in range(m):
        for c2 in range(c1 + 1, m):
            shared = row_sets[c1] & row_sets[c2]
            if len(shared) >= 2:
                out.extend((c1, c2, v) for v in sorted(shared))
    return out


def _break_four_cycles(rng: random.Random, rows: list[list[int]], m: int,
                       dc: int) -> None:
    for _ in range(_FOUR_CYCLE_PASSES):
        conflicts = _four_cycle_conflicts(rows, m)
        if not conflicts:
            return
        _, c2, v = conflicts[rng.randrange(len(conflicts))]
        i = rows[c2].index(v)
        for _ in range(60):
            c3 = rng.randrange(m)
            if c3 == c2:
                continue
            i3 = rng.randrange(dc)
            u = rows[c3][i3]
            if u == v or u in rows[c2] or v in rows[c3]:
                continue
            rows[c2][i], rows[c3][i3] = u, v
            break
    # Budget exhausted: leave the remaining 4-cycles in place.


def fixtures() -> dict[str, TannerGraph]:
    """Small named graphs with known stopping-set and pivot structure."""
    return {
        # Single cycles: the whole variable set is the only stopping set.
        "cycle3": TannerGraph.from_rows([[0, 1], [1, 2], [2, 0]], 3),
        "cycle4": TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4),
        # Two disjoint 3-cycles: three stopping sets, unions included.
        "two-cycles3": TannerGraph.from_rows(
            [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]], 6),
        # Open chain of degree-2 checks; only the full set stops peeling.
        "chain4": TannerGraph.from_rows([[0, 1], [1, 2], [2, 3]], 4),
        # Chain with one degree-3 check: pivots are {0, 1, 2}, not 3.
        "chainD": TannerGraph.from_rows([[0, 1], [1, 2], [0, 2, 3]], 4),
        # All checks have degree 3, so the full set has no pivots at all.
        "nopivot6": TannerGraph.from_rows(
            [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]], 6),
        # Every variable pinned by a degree-1 check: no stopping sets.
        "pinned3": TannerGraph.from_rows([[0], [1], [2], [0, 1, 2]], 3),
    }
