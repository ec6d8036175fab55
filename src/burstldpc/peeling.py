"""Iterative peeling decoder for arbitrary erasure patterns.

A check node with exactly one erased neighbor recovers that neighbor;
this repeats until no such check remains.  `peel` returns the surviving
erased set, the union of all stopping sets contained in the pattern, as
a frozenset that is empty on success: the type `burst.scan_length`
reports for each failing window.  Only erasure support is tracked.

A decoder holds only its graph.  All decode state lives in the call:
the erased set, an erased-neighbor count for each check the pattern
touches, and one work list of checks whose count has reached 1.  Each
call costs O(edges incident to the pattern) rather than O(n).

It serves the pivot oracles, which peel one arbitrary pattern at a time.
Burst windows go through `burst.scan_length` instead, which peels every
window of one length together.
"""

from __future__ import annotations

from typing import Iterable

from .tanner import TannerGraph


class PeelingDecoder:
    """Work-list peeling decoder over one graph."""

    __slots__ = ("graph",)

    def __init__(self, graph: TannerGraph) -> None:
        self.graph = graph

    def peel(self, pattern: Iterable[int]) -> frozenset[int]:
        """Variables left erased after peeling ``pattern`` (duplicates
        collapse); empty on success."""
        erased = set(pattern)
        n = self.graph.n
        var_adj = self.graph.var_adj
        check_adj = self.graph.check_adj

        count: dict[int, int] = {}
        for v in erased:
            if not 0 <= v < n:
                raise ValueError(f"erased index {v} out of range (n={n})")
            for c in var_adj[v]:
                count[c] = count.get(c, 0) + 1
        # Counts only fall, so a check reaches 1 and joins the work list at
        # most once; by the time it is popped its count may have reached 0.
        work = [c for c, k in count.items() if k == 1]
        while work:
            c = work.pop()
            if count[c] != 1:
                continue
            for v in check_adj[c]:
                if v in erased:
                    break
            erased.remove(v)
            for c2 in var_adj[v]:
                count[c2] -= 1
                if count[c2] == 1:
                    work.append(c2)
        return frozenset(erased)
