"""Stopping-set analysis: exhaustive oracle, induced subgraphs, pivots.

A stopping set is a variable-node set whose every adjacent check touches
it at least twice; peeling stalls exactly on such sets.  A pivot is a
member whose known value lets peeling recover the whole set.  Pivots of
a stopping set, when they exist, always come in pairs or more, and any
pivot's partners across induced-degree-2 checks are pivots themselves;
that closure is what `pivot_search` walks.

The subset-enumeration routines are verification oracles with 2^n cost
and are refused above `ENUMERATION_LIMIT` variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .peeling import PeelingDecoder
from .tanner import TannerGraph

ENUMERATION_LIMIT = 24
_MASK_BITS = 32  # subsets are enumerated as uint32 bitmasks
_CHUNK = 1 << 20


@dataclass(frozen=True)
class StoppingSet:
    """Sorted member indices; ``span`` is the window they occupy."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("stopping set cannot be empty")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("members must be strictly ascending")

    @property
    def span(self) -> int:
        return self.members[-1] - self.members[0] + 1

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        return v in self.members


@dataclass(frozen=True)
class PivotSet:
    """Pivots of one stopping set; ``span`` is None when there are no pivots."""

    pivots: frozenset[int]

    @property
    def span(self) -> int | None:
        if not self.pivots:
            return None
        return max(self.pivots) - min(self.pivots) + 1

    def __len__(self) -> int:
        return len(self.pivots)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.pivots))

    def __contains__(self, v: object) -> bool:
        return v in self.pivots


class InducedSubgraph:
    """Stopping-set members, their checks, and per-check induced degree."""

    __slots__ = ("variables", "check_members", "var_checks")

    def __init__(self, variables: frozenset[int],
                 check_members: dict[int, tuple[int, ...]],
                 var_checks: dict[int, tuple[int, ...]]) -> None:
        self.variables = variables
        self.check_members = check_members
        self.var_checks = var_checks

    def degree(self, check: int) -> int:
        return len(self.check_members[check])

    def component_count(self) -> int:
        """Connected components over members and their checks."""
        unvisited = set(self.variables)
        components = 0
        while unvisited:
            components += 1
            stack = [unvisited.pop()]
            while stack:
                v = stack.pop()
                for c in self.var_checks[v]:
                    for u in self.check_members[c]:
                        if u in unvisited:
                            unvisited.discard(u)
                            stack.append(u)
        return components


def _validate_members(g: TannerGraph, members: Iterable[int]) -> frozenset[int]:
    out = frozenset(members)
    for v in out:
        if not 0 <= v < g.n:
            raise ValueError(f"variable index {v} out of range (n={g.n})")
    return out


def is_stopping_set(g: TannerGraph, members: Iterable[int]) -> bool:
    """True iff every check adjacent to the set touches it at least twice."""
    s = _validate_members(g, members)
    hits: dict[int, int] = {}
    for v in s:
        for c in g.var_adj[v]:
            hits[c] = hits.get(c, 0) + 1
    return all(count >= 2 for count in hits.values())


def _check_masks(g: TannerGraph) -> list[int]:
    return [sum(1 << v for v in row) for row in g.check_adj]


def _iter_stopping_masks(g: TannerGraph, max_n: int) -> Iterator[np.ndarray]:
    """Yield chunks of subset bitmasks that satisfy the stopping condition."""
    if max_n > _MASK_BITS:
        raise ValueError(
            f"subset enumeration limit {max_n} above {_MASK_BITS} is not supported")
    if g.n > max_n:
        raise ValueError(
            f"subset enumeration refused: n={g.n} exceeds limit {max_n} "
            f"(cost is 2^n)")
    masks = _check_masks(g)
    total = 1 << g.n
    for start in range(0, total, _CHUNK):
        subsets = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        bad = np.zeros(subsets.shape, dtype=bool)
        for mask in masks:
            bad |= np.bitwise_count(subsets & np.uint32(mask)) == 1
        keep = subsets[~bad]
        if start == 0:
            keep = keep[keep != 0]
        if keep.size:
            yield keep


def _mask_spans(masks: np.ndarray) -> np.ndarray:
    """Vectorized span (highest bit - lowest bit + 1) of nonzero masks."""
    low = np.bitwise_count((masks & (~masks + np.uint32(1))) - np.uint32(1))
    smear = masks.copy()
    for shift in (1, 2, 4, 8, 16):
        smear |= smear >> np.uint32(shift)
    high = np.bitwise_count(smear) - 1
    return high.astype(np.int64) - low.astype(np.int64) + 1


def _mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def enumerate_stopping_sets(g: TannerGraph,
                            max_n: int = ENUMERATION_LIMIT) -> list[StoppingSet]:
    """All nonempty stopping sets, by subset enumeration (oracle, small n)."""
    out: list[StoppingSet] = []
    for chunk in _iter_stopping_masks(g, max_n):
        out.extend(StoppingSet(_mask_to_members(int(mask))) for mask in chunk)
    return out


def min_stopping_set_span(g: TannerGraph,
                          max_n: int = ENUMERATION_LIMIT) -> int | None:
    """Minimum span over all stopping sets; None when no stopping set exists."""
    best: int | None = None
    for chunk in _iter_stopping_masks(g, max_n):
        chunk_min = int(_mask_spans(chunk).min())
        if best is None or chunk_min < best:
            best = chunk_min
    return best


def induced_subgraph(g: TannerGraph, members: Iterable[int]) -> InducedSubgraph:
    """Subgraph of a stopping set's members, their checks, and the edges between."""
    s = _validate_members(g, members)
    check_members: dict[int, list[int]] = {}
    for v in sorted(s):
        for c in g.var_adj[v]:
            check_members.setdefault(c, []).append(v)
    for c, mem in check_members.items():
        if len(mem) < 2:
            raise ValueError(
                f"not a stopping set: check {c} touches it only once")
    return InducedSubgraph(
        s,
        {c: tuple(mem) for c, mem in check_members.items()},
        {v: tuple(g.var_adj[v]) for v in s})


def is_pivot_oracle(g: TannerGraph, s: StoppingSet | Iterable[int], v: int) -> bool:
    """Direct check: does knowing ``v`` let peeling clear the rest of the set?"""
    members = _validate_members(g, s)
    if v not in members:
        raise ValueError(f"variable {v} is not a member of the stopping set")
    return PeelingDecoder(g).peel(members - {v}).success


def all_pivots_oracle(g: TannerGraph, s: StoppingSet | Iterable[int]) -> PivotSet:
    """Exact pivot set by trying every member; size is never exactly 1."""
    members = _validate_members(g, s)
    decoder = PeelingDecoder(g)
    return PivotSet(frozenset(
        v for v in members if decoder.peel(members - {v}).success))


def neighboring_pivots(sub: InducedSubgraph, v: int) -> frozenset[int]:
    """Members sharing an induced-degree-2 check with the known pivot ``v``.

    Every returned node is itself a pivot: the shared check recovers it
    first, then ``v``'s pivot property clears the rest.
    """
    out = set()
    for c in sub.var_checks[v]:
        members = sub.check_members[c]
        if len(members) == 2:
            out.add(members[0] if members[1] == v else members[1])
    return frozenset(out)


def pivot_search(g: TannerGraph, s: StoppingSet | Iterable[int],
                 seed: Iterable[int]) -> PivotSet:
    """Expand a known pivot set to its neighboring-pivot fixed point.

    Every seed member must already be a pivot of ``s``.  The result may
    still miss pivots that no induced-degree-2 check chain reaches from
    the seed.
    """
    members = _validate_members(g, s)
    seed_set = frozenset(seed)
    if not seed_set:
        raise ValueError("seed pivot set is empty")
    if not seed_set <= members:
        raise ValueError("seed contains non-members of the stopping set")
    sub = induced_subgraph(g, members)
    found = set(seed_set)
    frontier = set(found)
    while frontier:
        new: set[int] = set()
        for v in frontier:
            new |= neighboring_pivots(sub, v)
        frontier = new - found
        found |= frontier
    return PivotSet(frozenset(found))
