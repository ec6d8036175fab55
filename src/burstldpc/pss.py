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

If the re-scan at length L still finds an uncorrectable window, the
whole round of swaps is undone and retried with fresh randomness; after
``f_max`` consecutive failures at one length the optimizer stops.  Pivot
pools are computed once per length: a refused round restores the graph
exactly, so they stay valid across retries.

Only column transpositions are ever applied.  The output graph is a
column relabeling of the input, so sparsity, degree distribution, and
decoding behavior under independent erasures are untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .burst import Burst, compute_lmax, scan_length
from .stopset import PivotSet, induced_subgraph, neighboring_pivots, pivot_search
from .tanner import InternalInvariantError, Permutation, TannerGraph

POOL_POLICIES = ("one-hop", "full-closure")


@dataclass(frozen=True)
class PssConfig:
    """Optimizer knobs.

    ``f_max`` defaults to n at run time.  ``restrict_to_systematic``
    limits both the swapped pivot and the target column to the given
    index set (empty/None means all columns).  ``early_exit`` lets the
    validating re-scan of a failed round stop at its first failure;
    disable it to make the per-length decode accounting exact.
    ``validate_rollback`` snapshots the graph around every round and
    verifies refused rounds restore it, for tests.
    """

    f_max: int | None = None
    rng_seed: int = 0
    pivot_pool_policy: str = "one-hop"
    restrict_to_systematic: frozenset[int] | None = None
    max_length: int | None = None
    early_exit: bool = True
    validate_rollback: bool = False

    def __post_init__(self) -> None:
        if self.f_max is not None and self.f_max < 1:
            raise ValueError(f"f_max must be >= 1, got {self.f_max}")
        if self.pivot_pool_policy not in POOL_POLICIES:
            raise ValueError(f"pivot_pool_policy must be one of {POOL_POLICIES}")
        if self.restrict_to_systematic is not None:
            object.__setattr__(self, "restrict_to_systematic",
                               frozenset(self.restrict_to_systematic))


@dataclass(frozen=True)
class PssRow:
    """Per-length log entry.

    ``f_act`` counts swap trials that ran the validating re-scan (the
    accepting trial included); rounds aborted before any re-scan, for
    lack of an eligible target, are in ``aborted_rounds`` and count only
    toward the failure budget.  With early exit disabled,
    ``decode_calls`` equals (f_act + 1) * (n - length + 1): one full
    scan finding the failures plus one per trial.
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

    def accepted_rows(self) -> tuple[PssRow, ...]:
        return tuple(row for row in self.rows if row.accepted)


class PssResult(NamedTuple):
    graph: TannerGraph
    permutation: Permutation
    report: PssReport


def pivot_pool_for_burst(g: TannerGraph, burst: Burst,
                         residual: Iterable[int],
                         policy: str = "one-hop") -> PivotSet:
    """Pivots available for displacing one uncorrectable window.

    The window endpoints are always included.  Policy "one-hop" adds
    their neighboring pivots; "full-closure" expands to the full
    neighboring-pivot fixed point seeded with both endpoints.
    """
    if policy not in POOL_POLICIES:
        raise ValueError(f"policy must be one of {POOL_POLICIES}")
    members = frozenset(residual)
    first, last = burst.start, burst.last
    if first not in members or last not in members:
        raise InternalInvariantError(
            f"burst ({burst.start}, {burst.length}) endpoints missing from its "
            f"residual stopping set; the scan or decoder is broken")
    if policy == "full-closure":
        return pivot_search(g, members, (first, last))
    sub = induced_subgraph(g, members)
    pool = {first, last}
    pool |= neighboring_pivots(sub, first)
    pool |= neighboring_pivots(sub, last)
    return PivotSet(frozenset(pool))


def eligible_swap_targets(n: int, burst: Burst, pivot: int,
                          excluded: Iterable[int],
                          allowed: frozenset[int] | None = None) -> list[int]:
    """Columns the chosen pivot may be swapped with, ascending.

    Always outside the window and outside ``excluded`` (other windows'
    pools, targets already chosen this round).  An endpoint pivot may
    only move outward -- below the window for the first position, above
    it for the last -- otherwise its displaced position could land close
    enough to the window to leave the pivot span too small.
    """
    banned = set(excluded)
    if pivot == burst.start:
        candidates = range(0, burst.start)
    elif pivot == burst.last:
        candidates = range(burst.stop, n)
    else:
        candidates = range(0, n)
    return [j for j in candidates
            if (j < burst.start or j >= burst.stop)
            and j not in banned
            and (allowed is None or j in allowed)]


def choose_swap_target(rng: random.Random, n: int, burst: Burst, pivot: int,
                       excluded: Iterable[int],
                       allowed: frozenset[int] | None = None) -> int | None:
    """Uniform choice among eligible targets; None when none exists."""
    candidates = eligible_swap_targets(n, burst, pivot, excluded, allowed)
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


class _PermTracker:
    """Original->current position map maintained across in-place swaps."""

    __slots__ = ("position", "original")

    def __init__(self, n: int) -> None:
        self.position = list(range(n))
        self.original = list(range(n))

    def swap(self, a: int, b: int) -> None:
        oa, ob = self.original[a], self.original[b]
        self.position[oa], self.position[ob] = b, a
        self.original[a], self.original[b] = ob, oa

    def permutation(self) -> Permutation:
        return Permutation(tuple(self.position))


def _swap_round(rng: random.Random, work: TannerGraph, tracker: _PermTracker,
                bursts: list[Burst], pools: list[PivotSet],
                allowed: frozenset[int] | None) -> list[tuple[int, int]] | None:
    """One attempt: pick pivot+target per window, apply the swaps.

    Returns the applied swaps, or None after undoing partial work when
    some window has no eligible pivot or target.
    """
    pool_sets = [set(p.pivots) for p in pools]
    swaps: list[tuple[int, int]] = []
    targets: list[int] = []
    for i, (burst, pool) in enumerate(zip(bursts, pools)):
        pivot_candidates = sorted(
            pool.pivots if allowed is None else pool.pivots & allowed)
        if not pivot_candidates:
            _undo(work, tracker, swaps)
            return None
        pivot = pivot_candidates[rng.randrange(len(pivot_candidates))]
        excluded: set[int] = set(targets)
        for j, other in enumerate(pool_sets):
            if j != i:
                excluded |= other
        target = choose_swap_target(rng, work.n, burst, pivot, excluded, allowed)
        if target is None:
            _undo(work, tracker, swaps)
            return None
        work.swap_columns(pivot, target)
        tracker.swap(pivot, target)
        swaps.append((pivot, target))
        targets.append(target)
    return swaps


def _undo(work: TannerGraph, tracker: _PermTracker,
          swaps: list[tuple[int, int]]) -> None:
    for a, b in reversed(swaps):
        work.swap_columns(a, b)
        tracker.swap(a, b)


def _snapshot(g: TannerGraph) -> tuple[list[list[int]], list[list[int]]]:
    return ([list(r) for r in g.check_adj], [list(c) for c in g.var_adj])


def pss_optimize(g: TannerGraph, cfg: PssConfig | None = None) -> PssResult:
    """Run the full optimization loop; see the module docstring.

    The returned graph equals ``g.apply_permutation(permutation)``, and
    ``report.final_lmax`` is re-verified on the output by an independent
    scan after the loop ends.
    """
    cfg = cfg or PssConfig()
    n = g.n
    f_max = cfg.f_max if cfg.f_max is not None else n
    allowed = cfg.restrict_to_systematic or None
    rng = random.Random(cfg.rng_seed)

    work = g.copy()
    tracker = _PermTracker(n)
    original_lmax = compute_lmax(work)
    rows: list[PssRow] = []
    length = original_lmax + 1
    budget_exhausted = False

    while not budget_exhausted and length <= n:
        if cfg.max_length is not None and length > cfg.max_length:
            break
        scan = scan_length(work, length, early_exit=False, collect_residuals=True)
        row_calls = scan.decode_calls
        if scan.n_b == 0:
            rows.append(PssRow(length, 0, 0, row_calls, True))
            length += 1
            continue

        bursts = [Burst(j, length) for j in scan.uncorrectable_starts]
        pools = [pivot_pool_for_burst(work, b, r, policy=cfg.pivot_pool_policy)
                 for b, r in zip(bursts, scan.residuals)]
        failures = 0
        trials = 0
        aborts = 0
        accepted = False
        while True:
            before = _snapshot(work) if cfg.validate_rollback else None
            swaps = _swap_round(rng, work, tracker, bursts, pools, allowed)
            if swaps is None:
                aborts += 1
                failures += 1
                if before is not None and _snapshot(work) != before:
                    raise InternalInvariantError("aborted round left the graph modified")
                if failures >= f_max:
                    break
                continue
            rescan = scan_length(work, length, early_exit=cfg.early_exit,
                                 collect_residuals=False)
            row_calls += rescan.decode_calls
            trials += 1
            if rescan.n_b == 0:
                accepted = True
                break
            _undo(work, tracker, swaps)
            if before is not None and _snapshot(work) != before:
                raise InternalInvariantError("refused round did not restore the graph")
            failures += 1
            if failures >= f_max:
                break
        rows.append(PssRow(length, scan.n_b, trials, row_calls, accepted, aborts))
        if accepted:
            length += 1
        else:
            budget_exhausted = True

    last_accepted = length - 1
    final_lmax = compute_lmax(work)
    if final_lmax < last_accepted:
        raise InternalInvariantError(
            f"verification scan found L_max {final_lmax} below accepted {last_accepted}")
    report = PssReport(tuple(rows), original_lmax, final_lmax)
    return PssResult(work, tracker.permutation(), report)
