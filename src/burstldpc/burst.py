"""Burst-window scanning: guaranteed burst length and failing windows.

Windows never wrap: a burst of length L can start at positions
0 .. n-L, so a scan at length L evaluates n-L+1 windows.

All windows of one length are peeled together.  Each variable carries an
integer bitmask over window starts, bit j set while it is erased in
window j, and one worklist over the checks recovers, in every window at
once, the variables that are a check's only erased neighbor.  The order
in which checks are visited does not matter: a failed peel always
leaves the union of the stopping sets inside its window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tanner import InternalInvariantError, TannerGraph

# Early-exit scans peel blocks of starts of doubling width from this one.
_FIRST_BLOCK = 8


@dataclass(frozen=True)
class Burst:
    """Contiguous erasure window: ``length`` positions starting at ``start``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"burst start {self.start} negative")
        if self.length < 1:
            raise ValueError(f"burst length {self.length} < 1")

    @property
    def stop(self) -> int:
        """One past the last erased position."""
        return self.start + self.length

    @property
    def last(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True)
class BurstScanResult:
    """Failures of one scan; ``residuals`` align with ``uncorrectable_starts``."""

    length: int
    uncorrectable_starts: tuple[int, ...]
    residuals: tuple[frozenset[int], ...]
    decode_calls: int
    complete: bool

    @property
    def n_b(self) -> int:
        return len(self.uncorrectable_starts)


def scan_length(g: TannerGraph, length: int, *, early_exit: bool = False,
                collect_residuals: bool = True) -> BurstScanResult:
    """Peel every length-``length`` window; report the failing start positions.

    With ``early_exit`` the scan stops at the first failure (useful for
    yes/no probes) and ``decode_calls`` counts the windows up to and
    including it; the windows are then peeled in blocks of doubling
    width, so an early failure costs little.
    """
    if not 1 <= length <= g.n:
        raise ValueError(f"burst length {length} out of range 1..{g.n}")
    total = g.n - length + 1

    if not early_exit:
        erased = _peel_windows(g, length, 0, total)
        starts = _bits(_union(erased))
        residuals = _residuals(erased, length, 0, starts) if collect_residuals else ()
        return BurstScanResult(length, starts, residuals, total, True)

    lo, width = 0, _FIRST_BLOCK
    while lo < total:
        hi = min(lo + width, total)
        erased = _peel_windows(g, length, lo, hi)
        failed = _union(erased)
        if failed:
            j = lo + (failed & -failed).bit_length() - 1
            residuals = (_residuals(erased, length, lo, (j,))
                         if collect_residuals else ())
            return BurstScanResult(length, (j,), residuals, j + 1, j == total - 1)
        lo, width = hi, 2 * width
    return BurstScanResult(length, (), (), total, True)


def _peel_windows(g: TannerGraph, length: int, lo: int, hi: int) -> list[int]:
    """Peel the windows starting at lo .. hi-1 together.

    Returns one mask per variable: bit j - lo is set iff the variable
    stays erased when the window starting at j is peeled.
    """
    var_adj, check_adj = g.var_adj, g.check_adj
    width = hi - lo
    erased = [0] * g.n
    queued = bytearray(g.m)
    queue: list[int] = []
    for v in range(lo, hi + length - 1):
        # Variable v lies in the windows starting at v-length+1 .. v.
        first = max(v - length + 1 - lo, 0)
        last = min(v - lo, width - 1)
        erased[v] = ((1 << (last - first + 1)) - 1) << first
        for c in var_adj[v]:
            if not queued[c]:
                queued[c] = 1
                queue.append(c)

    while queue:
        later: list[int] = []
        for c in queue:
            queued[c] = 0
            row = check_adj[c]
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
                recovered = erased[v] & left
                if recovered:
                    erased[v] ^= recovered
                    for c2 in var_adj[v]:
                        if not queued[c2] and c2 != c:
                            queued[c2] = 1
                            later.append(c2)
                    left ^= recovered
                    if not left:
                        break
        queue = later
    return erased


def _union(erased: list[int]) -> int:
    failed = 0
    for e in erased:
        failed |= e
    return failed


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
    a subset of a decodable pattern succeeds), so a binary search over L
    is valid; probes may exit early, and the boundary is confirmed with
    full scans.  Returns n when even full erasure decodes.
    """
    def resolvable(length: int) -> bool:
        return scan_length(g, length, early_exit=True,
                           collect_residuals=False).n_b == 0

    if resolvable(g.n):
        if scan_length(g, g.n, collect_residuals=False).n_b:
            raise InternalInvariantError("full-erasure probe and scan disagree")
        return g.n
    lo, hi = 0, g.n  # resolvable at lo (vacuous for 0), failing at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if resolvable(mid):
            lo = mid
        else:
            hi = mid
    if lo and scan_length(g, lo, collect_residuals=False).n_b:
        raise InternalInvariantError(f"confirming scan failed at length {lo}")
    if not scan_length(g, lo + 1, collect_residuals=False).n_b:
        raise InternalInvariantError(f"confirming scan clean at length {lo + 1}")
    return lo

