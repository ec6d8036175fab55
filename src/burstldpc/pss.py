"""Pivot-swap optimizer: raise the guaranteed resolvable burst length.

The optimizer walks burst lengths upward from the input graph's limit.
At each length L it scans every window.  For each uncorrectable window,
the window's first and last positions are always pivots of the residual
stopping set (knowing either endpoint reduces the window to a length
L-1 burst, which decodes by assumption), and further pivots are
reachable from them through induced-degree-2 checks.  One pivot per
window is then swapped with a column outside the window, chosen so that
the pivot positions afterwards straddle more than L columns: endpoint
pivots may only move outward, interior pivots may leave on either side,
and targets avoid the other windows' pivot pools and this round's
earlier targets.

A round's swaps are all chosen before any is applied; a round with no
eligible pivot or target for some window is aborted untouched.  The
chosen swaps are then applied and the length re-scanned, stopping at
the first uncorrectable window; if there is one, the swaps are reversed
and the round retried with fresh randomness.  After ``f_max``
consecutive failed rounds at one length the optimizer stops.  Pivot
pools are computed once per length, each from one induced subgraph of
its window's residual: a refused round restores the graph exactly, so
they stay valid across retries.  So are each window's swappable pivots
and the union of the other windows' pools; a round adds only its own
earlier targets.

Only column transpositions are ever applied.  The output graph is a
column relabeling of the input, so sparsity, degree distribution, and
decoding behavior under independent erasures are untouched.  One check
at the end of the run, comparing the output with the input relabeled by
the returned permutation, covers every accepted and refused round.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, NamedTuple

from .burst import compute_lmax, scan_length
from .stopset import PivotSet, induced_subgraph, neighboring_pivots, pivot_search
from .tanner import InternalInvariantError, Permutation, TannerGraph

POOL_POLICIES = ("one-hop", "full-closure")


@dataclass(frozen=True)
class PssConfig:
    """Optimizer knobs.

    ``f_max`` defaults to n at run time.  ``restrict_to_systematic``
    limits both the swapped pivot and the target column to the given
    index set, 0 .. n-1; None means all columns, and an empty set is
    refused rather than read as no restriction.  The columns
    outside it are barred once per run: they are no window's pivots and
    every window's excluded targets.
    """

    f_max: int | None = None
    rng_seed: int = 0
    pivot_pool_policy: str = "one-hop"
    restrict_to_systematic: frozenset[int] | None = None
    max_length: int | None = None

    def __post_init__(self) -> None:
        if self.f_max is not None and self.f_max < 1:
            raise ValueError(f"f_max must be >= 1, got {self.f_max}")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")
        if self.pivot_pool_policy not in POOL_POLICIES:
            raise ValueError(f"pivot_pool_policy must be one of {POOL_POLICIES}")
        if self.restrict_to_systematic is not None:
            allowed = frozenset(self.restrict_to_systematic)
            if not allowed:
                raise ValueError("restrict_to_systematic is empty; use None for all columns")
            object.__setattr__(self, "restrict_to_systematic", allowed)


@dataclass(frozen=True)
class PssRow:
    """Per-length log entry.

    ``f_act`` counts swap trials that ran the validating re-scan (the
    accepting trial included); rounds aborted before any re-scan, for
    lack of an eligible target, are in ``aborted_rounds`` and count only
    toward the failure budget.  ``decode_calls`` counts the windows
    peeled: the first full scan's n - length + 1, plus, for each trial,
    the re-scan's windows up to and including its first failure (all
    n - length + 1 for an accepting re-scan).
    """

    length: int
    n_b: int
    f_act: int
    decode_calls: int
    accepted: bool
    aborted_rounds: int = 0


@dataclass(frozen=True)
class PssReport:
    rows: tuple[PssRow, ...]
    original_lmax: int
    final_lmax: int


def format_report(report: PssReport) -> str:
    """The CSV that ``burstldpc pss --report`` writes, one row per length."""
    lines = ["L,N_B,F_act,decode_calls,accepted,aborted_rounds"]
    lines += [f"{r.length},{r.n_b},{r.f_act},{r.decode_calls},"
              f"{str(r.accepted).lower()},{r.aborted_rounds}" for r in report.rows]
    return "\n".join(lines) + "\n"


class PssResult(NamedTuple):
    graph: TannerGraph
    permutation: Permutation
    report: PssReport


def pivot_pool_for_burst(g: TannerGraph, burst: range,
                         residual: Iterable[int],
                         policy: str = "one-hop") -> PivotSet:
    """Pivots available for displacing one uncorrectable window ``burst``,
    ``range(start, start + length)``.

    The window endpoints are always included.  Both policies read one
    induced subgraph of the residual: "one-hop" adds the endpoints'
    neighboring pivots; "full-closure" expands to the full
    neighboring-pivot fixed point seeded with both endpoints.
    """
    if policy not in POOL_POLICIES:
        raise ValueError(f"policy must be one of {POOL_POLICIES}")
    members = frozenset(residual)
    first, last = burst[0], burst[-1]
    if first not in members or last not in members:
        raise InternalInvariantError(
            f"burst ({burst.start}, {len(burst)}) endpoints missing from its "
            f"residual stopping set; the scan or decoder is broken")
    sub = induced_subgraph(g, members)
    if policy == "full-closure":
        return pivot_search(sub, (first, last))
    pool = {first, last}
    pool |= neighboring_pivots(sub, first)
    pool |= neighboring_pivots(sub, last)
    return PivotSet(frozenset(pool))


def eligible_swap_targets(n: int, burst: range, pivot: int,
                          excluded: Collection[int]) -> list[int]:
    """Columns the chosen pivot may be swapped with, ascending.

    ``burst`` is the window, ``range(start, start + length)``.  Targets
    are always outside it and outside ``excluded`` (other windows' pools,
    barred columns, targets already chosen this round; a set, since every
    candidate is tested against it).  An endpoint pivot may only move
    outward -- below the window for the first position, above it for the
    last -- otherwise its displaced position could land close enough to
    the window to leave the pivot span too small.
    """
    below, above = range(0, burst.start), range(burst.stop, n)
    if pivot == burst.start:
        candidates: Iterable[int] = below
    elif pivot == burst[-1]:
        candidates = above
    else:
        candidates = chain(below, above)
    return [j for j in candidates if j not in excluded]


def choose_swap_target(rng: random.Random, n: int, burst: range, pivot: int,
                       excluded: Collection[int]) -> int | None:
    """Uniform choice among the targets `eligible_swap_targets` gives for the
    window ``burst``, ``range(start, start + length)``; None when none exists."""
    candidates = eligible_swap_targets(n, burst, pivot, excluded)
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


def _round_choices(pools: list[PivotSet], barred: frozenset[int]
                   ) -> tuple[list[list[int]], list[frozenset[int]]]:
    """Per window, its swappable pivots ascending and its excluded targets:
    the union of every other window's pool and the barred columns.  Both
    are fixed for the whole length."""
    counts = Counter(j for pool in pools for j in pool.pivots)
    pivots = [sorted(p.pivots - barred) for p in pools]
    others = [barred.union(j for j, k in counts.items() if k > (j in p.pivots))
              for p in pools]
    return pivots, others


def _swap_round(rng: random.Random, n: int, bursts: list[range],
                pivots: list[list[int]], others: list[frozenset[int]]
                ) -> list[tuple[int, int]] | None:
    """Choose one (pivot, target) swap per window, without applying any.

    ``pivots`` and ``others`` come from ``_round_choices``; only this
    round's earlier targets are added per window.  No choice reads the
    graph.  Returns None when some window has no eligible pivot or target.
    """
    swaps: list[tuple[int, int]] = []
    earlier: set[int] = set()
    for burst, candidates, banned in zip(bursts, pivots, others):
        if not candidates:
            return None
        pivot = candidates[rng.randrange(len(candidates))]
        target = choose_swap_target(rng, n, burst, pivot,
                                    (banned | earlier) if earlier else banned)
        if target is None:
            return None
        swaps.append((pivot, target))
        earlier.add(target)
    return swaps


def _apply(work: TannerGraph, original: list[int],
           swaps: Iterable[tuple[int, int]]) -> None:
    for a, b in swaps:
        work.swap_columns(a, b)
        original[a], original[b] = original[b], original[a]


def pss_optimize(g: TannerGraph, cfg: PssConfig | None = None) -> PssResult:
    """Run the full optimization loop; see the module docstring.

    The run checks that the returned graph equals
    ``g.apply_permutation(permutation)`` and re-verifies
    ``report.final_lmax`` on it by an independent scan.
    """
    cfg = cfg or PssConfig()
    n = g.n
    f_max = cfg.f_max if cfg.f_max is not None else n
    allowed = cfg.restrict_to_systematic
    if allowed and (min(allowed) < 0 or max(allowed) >= n):
        raise ValueError(f"restrict_to_systematic indices must lie in 0..{n - 1}, "
                         f"got {min(allowed)}..{max(allowed)}")
    barred = frozenset(range(n)).difference(allowed) if allowed else frozenset()
    last = n if cfg.max_length is None else min(n, cfg.max_length)
    rng = random.Random(cfg.rng_seed)

    work = g.copy()
    original = list(range(n))  # original[j]: input column now at position j
    original_lmax = compute_lmax(work)
    rows: list[PssRow] = []
    length = original_lmax + 1

    while length <= last:
        scan = scan_length(work, length, early_exit=False, collect_residuals=True)
        row_calls = scan.decode_calls
        accepted = scan.n_b == 0
        bursts = [range(j, j + length) for j in scan.uncorrectable_starts]
        pools = [pivot_pool_for_burst(work, b, r, policy=cfg.pivot_pool_policy)
                 for b, r in zip(bursts, scan.residuals)]
        pivots, others = _round_choices(pools, barred)
        trials = aborts = 0
        while not accepted and trials + aborts < f_max:
            swaps = _swap_round(rng, n, bursts, pivots, others)
            if swaps is None:
                aborts += 1
                continue
            _apply(work, original, swaps)
            rescan = scan_length(work, length, early_exit=True,
                                 collect_residuals=False)
            row_calls += rescan.decode_calls
            trials += 1
            accepted = rescan.n_b == 0
            if not accepted:
                _apply(work, original, reversed(swaps))
        rows.append(PssRow(length, scan.n_b, trials, row_calls, accepted, aborts))
        if not accepted:
            break
        length += 1

    permutation = Permutation(tuple(original)).inverse()
    if work != g.apply_permutation(permutation):
        raise InternalInvariantError(
            "optimized graph is not the input relabeled by the returned "
            "permutation; a swap or its rollback was lost")
    final_lmax = compute_lmax(work)
    if final_lmax < length - 1:
        raise InternalInvariantError(
            f"verification scan found L_max {final_lmax} below accepted {length - 1}")
    report = PssReport(tuple(rows), original_lmax, final_lmax)
    return PssResult(work, permutation, report)
