"""Burst-window scanning: guaranteed burst length and failing windows.

Windows never wrap: a burst of length L can start at positions
0 .. n-L, so a scan at length L evaluates n-L+1 windows.

All windows of one length are peeled together.  Each variable carries an
integer bitmask over window starts, bit j set while it is erased in
window j.  One list of checks, walked in order while checks next to a
recovered variable join its end, recovers in every window at once the
variables that are a check's only erased neighbor.  The order in which
checks are visited does not matter: a failed peel always leaves the
union of the stopping sets inside its window.

A block of windows touches only the positions its windows cover, so
the kernel evaluates each check over a clipped row: the check's members
in that range, cut from its sorted row.  A member that is recovered in
every window of the block is dropped from the clipped rows of its other
checks, so later evaluations skip it.  Neither changes a mask, only how
much of the graph each evaluation reads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import xor

from .tanner import TannerGraph

# Early-exit scans peel blocks of starts of doubling width from this one.
_FIRST_BLOCK = 8


@dataclass(frozen=True)
class BurstScanResult:
    """Failures of one scan; ``residuals`` align with ``uncorrectable_starts``."""

    length: int
    uncorrectable_starts: tuple[int, ...]
    residuals: tuple[frozenset[int], ...]
    decode_calls: int

    @property
    def n_b(self) -> int:
        return len(self.uncorrectable_starts)


def scan_length(g: TannerGraph, length: int, *, early_exit: bool = False,
                collect_residuals: bool = True) -> BurstScanResult:
    """Peel every length-``length`` window; report the failing start positions.

    With ``early_exit`` the scan stops at the first failure (useful for
    yes/no probes) and ``decode_calls`` counts the windows up to and
    including it; the windows are then peeled in blocks of doubling
    width, so an early failure costs little.  A full scan is one block.
    """
    if not 1 <= length <= g.n:
        raise ValueError(f"burst length {length} out of range 1..{g.n}")
    total = g.n - length + 1
    lo, width = 0, _FIRST_BLOCK if early_exit else total
    while lo < total:
        hi = min(lo + width, total)
        erased = _peel_windows(g, length, lo, hi)
        failed = 0
        for e in erased:
            failed |= e
        if failed:
            if early_exit:
                failed &= -failed
            starts = tuple(lo + j for j in _bits(failed))
            residuals = _residuals(erased, length, lo, starts) if collect_residuals else ()
            return BurstScanResult(length, starts, residuals,
                                   starts[0] + 1 if early_exit else total)
        lo, width = hi, 2 * width
    return BurstScanResult(length, (), (), total)


def _peel_windows(g: TannerGraph, length: int, lo: int, hi: int) -> list[int]:
    """Peel the windows starting at lo .. hi-1 together.

    Returns one mask per variable: bit j - lo is set iff the variable
    stays erased when the window starting at j is peeled.

    Only positions lo .. top-1, top = hi + length - 1, are erased in any
    of these windows, so each check the block touches is evaluated over
    its members in [lo, top) alone, cut from its sorted row by bisection.
    A member whose mask reaches 0 is clean in every window and leaves the
    clipped rows of its other checks.
    """
    var_adj, check_adj = g.var_adj, g.check_adj
    width, top = hi - lo, hi + length - 1
    # Position lo + i lies in the windows lo + i-length+1 .. lo + i, clipped
    # to the block: bits max(i-length+1, 0) .. min(i, width-1).
    prefix = [(1 << k) - 1 for k in range(width + 1)]
    upper = prefix[1:] + prefix[-1:] * (length - 1)
    lower = [0] * (length - 1) + prefix[:width]
    erased = [0] * lo + list(map(xor, upper, lower)) + [0] * (g.n - top)

    queue = list(dict.fromkeys(chain.from_iterable(var_adj[lo:top])))
    queued = bytearray(g.m)
    # Untouched checks are never read; each touched one gets its own list.
    rows: list = [None] * g.m
    for c in queue:
        queued[c] = 1
        row = check_adj[c]
        rows[c] = row[bisect_left(row, lo):bisect_left(row, top)]

    # The loop reaches an appended check after every check queued before it.
    for c in queue:
        queued[c] = 0
        row = rows[c]
        one = two = 0
        for v in row:
            e = erased[v]
            two |= one & e
            one |= e
        # Windows where c has exactly one erased neighbor; each such
        # window recovers one variable, so stop once all are covered.
        left = one & ~two
        if not left:
            continue
        for v in row:
            e = erased[v]
            recovered = e & left
            if recovered:
                erased[v] = e = e ^ recovered
                for c2 in var_adj[v]:
                    if c2 != c:
                        if not e:
                            rows[c2].remove(v)
                        if not queued[c2]:
                            queued[c2] = 1
                            queue.append(c2)
                left ^= recovered
                if not left:
                    break
    return erased


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _residuals(erased: list[int], length: int, lo: int,
               starts: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(v for v in range(j, j + length) if erased[v] >> (j - lo) & 1)
                 for j in starts)


def compute_lmax(g: TannerGraph) -> int:
    """Largest L for which every window of length L peels, at every start.

    All-positions resolvability is monotone non-increasing in L (peeling
    a subset of a decodable pattern succeeds), so one binary search over
    0 .. n+1 finds it, with length 0 vacuously resolvable and n+1
    vacuously failing.  Its probes are the proof: the search ends with
    ``hi == lo + 1``, where ``lo`` is 0 or a length whose early-exit scan
    came back clean, which peels every window, and ``hi`` is n+1 or a
    length whose scan found a failing window.
    """
    lo, hi = 0, g.n + 1  # resolvable at lo, failing at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scan_length(g, mid, early_exit=True, collect_residuals=False).n_b:
            hi = mid
        else:
            lo = mid
    return lo
