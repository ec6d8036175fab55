"""Iterative peeling decoder for arbitrary erasure patterns.

A check node with exactly one erased neighbor recovers that neighbor;
this repeats until no such check remains.  On failure the surviving
erased set is exactly the union of all stopping sets contained in the
input pattern.  Only erasure support is tracked, never bit values.

The decoder keeps per-check erased-neighbor counters as reusable scratch
and resets them through dirty lists, so each call costs O(edges incident
to the pattern) rather than O(n).  One instance is single-threaded.

It serves the pivot oracles, which peel one arbitrary pattern at a time.
Burst windows go through `burst.scan_length` instead, which peels every
window of one length together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .tanner import TannerGraph


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one peeling run; ``residual`` is empty iff ``success``."""

    success: bool
    residual: frozenset[int]


class PeelingDecoder:
    """Work-queue peeling decoder over one graph, with reusable scratch state.

    ``calls`` counts decode invocations monotonically.
    """

    __slots__ = ("graph", "calls", "_erased", "_count")

    def __init__(self, graph: TannerGraph) -> None:
        self.graph = graph
        self.calls = 0
        self._erased = bytearray(graph.n)
        self._count = [0] * graph.m

    def peel(self, pattern: Iterable[int]) -> DecodeOutcome:
        """Decode an arbitrary erasure pattern (duplicates collapse)."""
        erased = set(pattern)
        n = self.graph.n
        for v in erased:
            if not 0 <= v < n:
                raise ValueError(f"erased index {v} out of range (n={n})")
        var_adj = self.graph.var_adj
        check_adj = self.graph.check_adj
        count = self._count
        is_erased = self._erased
        self.calls += 1

        touched: list[int] = []
        for v in erased:
            is_erased[v] = 1
            for c in var_adj[v]:
                count[c] += 1
                touched.append(c)
        # A check with final count 1 was touched exactly once, so the
        # initial frontier contains no duplicates.
        frontier = [c for c in touched if count[c] == 1]

        remaining = len(erased)
        while frontier and remaining:
            next_frontier: list[int] = []
            for c in frontier:
                if count[c] != 1:
                    continue
                v = -1
                for u in check_adj[c]:
                    if is_erased[u]:
                        v = u
                        break
                is_erased[v] = 0
                remaining -= 1
                for c2 in var_adj[v]:
                    count[c2] -= 1
                    if count[c2] == 1:
                        next_frontier.append(c2)
            frontier = next_frontier

        residual = (frozenset(v for v in erased if is_erased[v]) if remaining
                    else frozenset())
        # Reset scratch through the dirty lists only.
        for v in erased:
            is_erased[v] = 0
        for c in touched:
            count[c] = 0
        return DecodeOutcome(remaining == 0, residual)
