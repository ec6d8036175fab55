"""Deterministic graph generators: random regular codes and small fixtures.

The regular generator is test plumbing, not a code-construction method:
it pairs edge sockets by random matching, repairs parallel edges by
local swaps, and (best-effort, within a budget) breaks 4-cycles the
same way.  Everything is reproducible from the seed.

4-cycle repair reads its conflicts from a tracker of the check pairs
that share two or more variables.  The tracker is built once through a
variable -> checks index, each pair from its lower check only, and each
move re-pairs only the two rows it touched instead of comparing all
m^2/2 row pairs again.  Its conflict list has the order an all-pairs
scan gives (ascending check pairs, ascending shared variables), so the
rng draws, and the codes, depend on the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

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
        _repair(rng, rows, dc, _FourCycles(rows, n), _FOUR_CYCLE_PASSES)
    return TannerGraph.from_rows(rows, n)


def four_cycle_count(g: TannerGraph) -> int:
    """Number of check pairs that share two or more variables.

    Each such pair closes at least one 4-cycle; 0 means girth 6 or more.
    """
    return len(_FourCycles(g.check_adj, g.n).shared)


def _matched_rows(rng: random.Random, n: int, m: int, dv: int,
                  dc: int) -> list[list[int]]:
    sockets = [v for v in range(n) for _ in range(dv)]
    for _ in range(_REPAIR_PASSES):
        rng.shuffle(sockets)
        rows = [sockets[c * dc:(c + 1) * dc] for c in range(m)]
        if _repair(rng, rows, dc, _ParallelEdges(rows), _REPAIR_PASSES):
            return rows
    raise ValueError("could not realize the degree sequence without parallel edges")


class _ParallelEdges:
    """(check, slot) of every entry whose variable repeats in its row.

    Rescanned on every pass; only rows that hold some variable twice are
    searched entry by entry.
    """

    def __init__(self, rows: list[list[int]]) -> None:
        self.rows = rows

    def conflicts(self) -> list[tuple[int, int]]:
        return [(c, i) for c, row in enumerate(self.rows) if len(set(row)) < len(row)
                for i, v in enumerate(row) if row.count(v) > 1]

    def moved(self, c: int, i: int, c2: int, i2: int) -> None:
        pass


class _FourCycles:
    """Check pairs that share two or more variables, kept current move by move.

    Holds a variable -> checks index and, for each such pair ``(c1, c2)``
    with c1 < c2, its shared variables in ascending order.  Both are
    built once, each pair from its lower check only.  A move between rows
    c and c2 drops the pairs involving either row and pairs the two rows
    up again through the index, from both ends: O(dc*dv) plus one pass
    over the few pairs still open, where an all-pairs rescan costs
    O(m^2*dc).  Rows must hold no variable twice.
    """

    def __init__(self, rows: Sequence[Sequence[int]], n: int) -> None:
        self.rows = rows
        self.var_checks: list[set[int]] = [set() for _ in range(n)]
        self.shared: dict[tuple[int, int], list[int]] = {}
        # From the last row up: when row c is paired, the index holds only
        # the checks above c, so no pair is built twice.
        for c in range(len(rows) - 1, -1, -1):
            self._pair_up(c)
            for v in rows[c]:
                self.var_checks[v].add(c)

    def _pair_up(self, c: int) -> None:
        hits: dict[int, list[int]] = {}
        for v in self.rows[c]:
            for d in self.var_checks[v]:
                if d != c:
                    hits.setdefault(d, []).append(v)
        for d, common in hits.items():
            if len(common) >= 2:
                self.shared[(c, d) if c < d else (d, c)] = sorted(common)

    def conflicts(self) -> list[tuple[int, int]]:
        """(c2, slot of v in row c2) for each shared v of each pair, in
        ascending (c1, c2) order and ascending v within a pair."""
        rows = self.rows
        return [(c2, rows[c2].index(v))
                for (_, c2), common in sorted(self.shared.items()) for v in common]

    def moved(self, c: int, i: int, c2: int, i2: int) -> None:
        """Rows c and c2 exchanged their entries at slots i and i2."""
        u, v = self.rows[c][i], self.rows[c2][i2]
        self.var_checks[v].discard(c)
        self.var_checks[v].add(c2)
        self.var_checks[u].discard(c2)
        self.var_checks[u].add(c)
        self.shared = {pair: common for pair, common in self.shared.items()
                       if c not in pair and c2 not in pair}
        self._pair_up(c)
        self._pair_up(c2)


def _repair(rng: random.Random, rows: list[list[int]], dc: int,
            tracker: _ParallelEdges | _FourCycles, passes: int) -> bool:
    """Move one conflicting entry per pass to another row; True once none is left.

    Each pass picks a random (check, slot) from ``tracker.conflicts()``
    and tries up to 60 random slots of other rows for an exchange that
    puts neither variable twice into one row.  A made exchange is
    reported to ``tracker.moved``, so that the 4-cycle tracker updates
    only the two rows it touched.
    """
    m = len(rows)
    for _ in range(passes):
        found = tracker.conflicts()
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
            tracker.moved(c, i, c2, i2)
            break
    return False


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
