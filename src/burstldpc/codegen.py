"""Deterministic graph generators: random regular codes and small fixtures.

The regular generator is test plumbing, not a code-construction method:
it pairs edge sockets by random matching, repairs parallel edges by
local swaps, and (best-effort, within a budget) breaks 4-cycles the
same way.  Everything is reproducible from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

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
        # Best effort: a spent budget leaves the remaining 4-cycles in place.
        _repair(rng, rows, m, dc, _four_cycle_conflicts, _FOUR_CYCLE_PASSES)
    return TannerGraph.from_rows(rows, n)


def _matched_rows(rng: random.Random, n: int, m: int, dv: int,
                  dc: int) -> list[list[int]]:
    sockets = [v for v in range(n) for _ in range(dv)]
    for _ in range(_REPAIR_PASSES):
        rng.shuffle(sockets)
        rows = [sockets[c * dc:(c + 1) * dc] for c in range(m)]
        if _repair(rng, rows, m, dc, _parallel_conflicts, _REPAIR_PASSES):
            return rows
    raise ValueError("could not realize the degree sequence without parallel edges")


def _repair(rng: random.Random, rows: list[list[int]], m: int, dc: int,
            conflicts: Callable[[list[list[int]], int], list[tuple[int, int]]],
            passes: int) -> bool:
    """Move one conflicting entry per pass to another row; True once none is left.

    Each pass picks a random (check, slot) from ``conflicts(rows, m)`` and
    tries up to 60 random slots of other rows for an exchange that puts
    neither variable twice into one row.
    """
    for _ in range(passes):
        found = conflicts(rows, m)
        if not found:
            return True
        c, i = found[rng.randrange(len(found))]
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


def _parallel_conflicts(rows: list[list[int]], m: int) -> list[tuple[int, int]]:
    """(check, slot) of every entry whose variable repeats in its row."""
    return [(c, i) for c in range(m) for i, v in enumerate(rows[c])
            if rows[c].count(v) > 1]


def _four_cycle_conflicts(rows: list[list[int]], m: int) -> list[tuple[int, int]]:
    """(check, slot) of each shared variable in the later of two checks
    that share two or more variables, one entry per 4-cycle triple."""
    row_sets = [set(row) for row in rows]
    out = []
    for c1 in range(m):
        for c2 in range(c1 + 1, m):
            shared = row_sets[c1] & row_sets[c2]
            if len(shared) >= 2:
                out.extend((c2, rows[c2].index(v)) for v in sorted(shared))
    return out


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
