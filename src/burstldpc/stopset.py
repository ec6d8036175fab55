"""Stopping-set analysis: exhaustive oracle, induced subgraphs, pivots.

A stopping set is a variable-node set whose every adjacent check touches
it at least twice; peeling stalls exactly on such sets.  A pivot is a
member whose known value lets peeling recover the whole set.  Any
pivot's partners across induced-degree-2 checks are pivots themselves;
that closure is what `pivot_search` walks, over the `InducedSubgraph`
that its caller builds once per set with `induced_subgraph`.  A
stopping set of two or more members has no pivots or at least two:
peeling it without a pivot v starts at a check holding exactly v and
one other member u, and u is then a pivot too.  A single pivot occurs
only for a singleton set {v}, which is a stopping set exactly when v
has no checks.

Stopping sets are enumerated by a backtracking search over variable
bitmasks: variables are decided from the highest index down, each
excluded before it is included, so sets come out in ascending mask
order, and a branch is cut as soon as a check whose members are all
decided holds exactly one chosen member.  The worst case is still 2^n
subsets, so it is refused above `ENUMERATION_LIMIT` variables unless the
caller raises the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .burst import _bits
from .peeling import PeelingDecoder
from .tanner import TannerGraph

ENUMERATION_LIMIT = 24


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

    def __contains__(self, v: object) -> bool:
        return v in self.pivots


class InducedSubgraph:
    """Stopping-set members, their checks, and per-check induced degree."""

    __slots__ = ("check_members", "var_checks")

    def __init__(self, check_members: dict[int, tuple[int, ...]],
                 var_checks: dict[int, tuple[int, ...]]) -> None:
        self.check_members = check_members
        self.var_checks = var_checks


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


def _stopping_masks(g: TannerGraph, max_n: int) -> Iterator[int]:
    """Every nonempty stopping set's bitmask, in ascending order.

    Refuses ``n > max_n`` when called, before the first mask is asked for.
    ``settled[v]`` holds the checks whose lowest member is ``v``: once
    ``v`` is decided, all their members are.
    """
    if g.n > max_n:
        raise ValueError(
            f"subset enumeration refused: n={g.n} exceeds limit {max_n} "
            f"(cost is 2^n)")
    settled: list[list[int]] = [[] for _ in range(g.n)]
    for row in g.check_adj:
        if row:
            settled[row[0]].append(sum(1 << v for v in row))
    return _backtrack(settled)


def _backtrack(settled: list[list[int]]) -> Iterator[int]:
    # An explicit stack, rather than recursion, keeps graphs of any size
    # clear of the recursion limit.
    stack = [(len(settled) - 1, 0)]
    while stack:
        v, chosen = stack.pop()
        if v < 0:
            if chosen:
                yield chosen
            continue
        # Pushed include-first so that the exclude branch is walked first.
        for mask in (chosen | 1 << v, chosen):
            if all((mask & c).bit_count() != 1 for c in settled[v]):
                stack.append((v - 1, mask))


def iter_stopping_sets(g: TannerGraph,
                       max_n: int = ENUMERATION_LIMIT) -> Iterator[StoppingSet]:
    """All nonempty stopping sets, in ascending bitmask order, each as it is
    found; ``n > max_n`` is refused at the call."""
    return (StoppingSet(_bits(mask)) for mask in _stopping_masks(g, max_n))


def enumerate_stopping_sets(g: TannerGraph,
                            max_n: int = ENUMERATION_LIMIT) -> list[StoppingSet]:
    """All nonempty stopping sets, in ascending bitmask order (small n)."""
    return list(iter_stopping_sets(g, max_n))


def min_stopping_set_span(g: TannerGraph,
                          max_n: int = ENUMERATION_LIMIT) -> int | None:
    """Minimum span over all stopping sets; None when no stopping set exists."""
    return min((mask.bit_length() - (mask & -mask).bit_length() + 1
                for mask in _stopping_masks(g, max_n)), default=None)


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
        {c: tuple(mem) for c, mem in check_members.items()},
        {v: tuple(g.var_adj[v]) for v in s})


def all_pivots_oracle(g: TannerGraph, s: StoppingSet | Iterable[int]) -> PivotSet:
    """Exact pivot set by trying every member.  It has exactly one member
    only for a singleton set, a variable with no checks."""
    members = _validate_members(g, s)
    decoder = PeelingDecoder(g)
    return PivotSet(frozenset(
        v for v in members if not decoder.peel(members - {v})))


def neighboring_pivots(sub: InducedSubgraph, v: int) -> frozenset[int]:
    """Members sharing an induced-degree-2 check with the known pivot ``v``.

    Every returned node is itself a pivot: the shared check recovers it
    first, then ``v``'s pivot property clears the rest.
    """
    if v not in sub.var_checks:
        raise ValueError(f"{v} is not a member of the stopping set")
    out = set()
    for c in sub.var_checks[v]:
        members = sub.check_members[c]
        if len(members) == 2:
            out.add(members[0] if members[1] == v else members[1])
    return frozenset(out)


def pivot_search(sub: InducedSubgraph, seed: Iterable[int]) -> PivotSet:
    """Expand a known pivot set to its neighboring-pivot fixed point in ``sub``.

    Every seed member must already be a pivot of ``sub``'s stopping set.
    The result may still miss pivots that no induced-degree-2 check chain
    reaches from the seed.
    """
    seed_set = frozenset(seed)
    if not seed_set:
        raise ValueError("seed pivot set is empty")
    if not seed_set.issubset(sub.var_checks):
        raise ValueError("seed contains non-members of the stopping set")
    found = set(seed_set)
    frontier = set(found)
    while frontier:
        new: set[int] = set()
        for v in frontier:
            new |= neighboring_pivots(sub, v)
        frontier = new - found
        found |= frontier
    return PivotSet(frozenset(found))
