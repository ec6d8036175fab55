"""Sparse Tanner-graph representation of a binary parity-check matrix.

Adjacency is stored in both directions (check -> variables and
variable -> checks): the peeling decoder walks both, and rebuilding one
side on demand would dominate its runtime.  Neighbor lists are kept
sorted, so two graphs with the same edge set compare equal regardless of
construction order.

Column permutation is the fundamental mutation.  ``apply_permutation``
returns a relabeled copy; ``swap_columns`` transposes two columns in
place in O(deg(a) + deg(b)), which matters because the burst optimizer
performs many swaps with rollback.  A graph is safe to share read-only
across threads; in-place mutation requires exclusive access.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


class GraphValidationError(ValueError):
    """Structurally invalid input; carries the offending row/column when known."""

    def __init__(self, message: str, *, row: int | None = None,
                 column: int | None = None) -> None:
        super().__init__(message)
        self.row = row
        self.column = column


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed; indicates a bug rather than bad input."""


@dataclass(frozen=True)
class Permutation:
    """Bijection on column indices, stored as ``mapping[old] == new``."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        seen = bytearray(n)
        for image in self.mapping:
            if not 0 <= image < n or seen[image]:
                raise GraphValidationError(
                    f"mapping is not a bijection on 0..{n - 1}")
            seen[image] = 1

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, index: int) -> int:
        return self.mapping[index]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (0 <= a < n and 0 <= b < n):
            raise GraphValidationError(f"transposition ({a} {b}) out of range for n={n}")
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return cls(tuple(images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for old, new in enumerate(self.mapping):
            inv[new] = old
        return Permutation(tuple(inv))

    def then(self, other: "Permutation") -> "Permutation":
        """Composition: apply ``self`` first, then ``other``."""
        if len(other) != len(self):
            raise GraphValidationError("cannot compose permutations of different lengths")
        return Permutation(tuple(other.mapping[image] for image in self.mapping))

    def apply_to_indices(self, indices: Iterable[int]) -> frozenset[int]:
        """Relabel a set of column indices."""
        return frozenset(self.mapping[i] for i in indices)


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree multiplicities, node perspective: (degree, node count) pairs."""

    variable: tuple[tuple[int, int], ...]
    check: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, variable: dict[int, int], check: dict[int, int]) -> "DegreeDistribution":
        return cls(tuple(sorted(variable.items())), tuple(sorted(check.items())))

    @property
    def n(self) -> int:
        return sum(count for _, count in self.variable)

    @property
    def m(self) -> int:
        return sum(count for _, count in self.check)

    @property
    def edge_count(self) -> int:
        return sum(deg * count for deg, count in self.variable)


class TannerGraph:
    """Bipartite graph of ``n`` variable (column) and ``m`` check (row) nodes."""

    __slots__ = ("n", "m", "check_adj", "var_adj")

    def __init__(self, n: int, m: int, check_adj: list[list[int]],
                 var_adj: list[list[int]]) -> None:
        # Trusted constructor: callers guarantee consistency.  Use from_rows
        # for validated construction.
        self.n = n
        self.m = m
        self.check_adj = check_adj
        self.var_adj = var_adj

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n: int) -> "TannerGraph":
        """Build and validate a graph from per-check variable-index lists."""
        if n < 1:
            raise GraphValidationError(f"need at least one variable node, got n={n}")
        if len(rows) < 1:
            raise GraphValidationError("need at least one check row")
        m = len(rows)
        check_adj: list[list[int]] = []
        var_adj: list[list[int]] = [[] for _ in range(n)]
        for r, row in enumerate(rows):
            seen: set[int] = set()
            for v in row:
                if not 0 <= v < n:
                    raise GraphValidationError(
                        f"row {r}: variable index {v} out of range (n={n})",
                        row=r, column=v)
                if v in seen:
                    raise GraphValidationError(
                        f"row {r}: duplicate edge to variable {v}",
                        row=r, column=v)
                seen.add(v)
            neighbors = sorted(seen)
            check_adj.append(neighbors)
            for v in neighbors:
                var_adj[v].append(r)
        return cls(n, m, check_adj, var_adj)

    def copy(self) -> "TannerGraph":
        return TannerGraph(self.n, self.m,
                           [list(row) for row in self.check_adj],
                           [list(col) for col in self.var_adj])

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.check_adj)

    def variable_degrees(self) -> list[int]:
        return [len(col) for col in self.var_adj]

    def check_degrees(self) -> list[int]:
        return [len(row) for row in self.check_adj]

    def zero_degree_variables(self) -> tuple[int, ...]:
        """Columns with no edges: structurally legal but worth flagging."""
        return tuple(v for v, col in enumerate(self.var_adj) if not col)

    def degree_distribution(self) -> DegreeDistribution:
        return DegreeDistribution.from_counts(
            dict(Counter(self.variable_degrees())),
            dict(Counter(self.check_degrees())))

    def apply_permutation(self, p: Permutation) -> "TannerGraph":
        """Relabeled copy: output column p(j) carries input column j's support."""
        if len(p) != self.n:
            raise GraphValidationError(
                f"permutation length {len(p)} != n={self.n}")
        mapping = p.mapping
        check_adj = [sorted(mapping[v] for v in row) for row in self.check_adj]
        var_adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, col in enumerate(self.var_adj):
            var_adj[mapping[v]] = list(col)
        return TannerGraph(self.n, self.m, check_adj, var_adj)

    def swap_columns(self, a: int, b: int) -> None:
        """Transpose columns a and b in place; O(deg(a) + deg(b))."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise GraphValidationError(f"swap ({a} {b}) out of range (n={self.n})")
        if a == b:
            return
        checks_a = set(self.var_adj[a])
        checks_b = set(self.var_adj[b])
        # Checks touching both columns keep the same support.
        for c in checks_a - checks_b:
            row = self.check_adj[c]
            row[row.index(a)] = b
            row.sort()
        for c in checks_b - checks_a:
            row = self.check_adj[c]
            row[row.index(b)] = a
            row.sort()
        self.var_adj[a], self.var_adj[b] = self.var_adj[b], self.var_adj[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TannerGraph):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and self.check_adj == other.check_adj
                and self.var_adj == other.var_adj)

    def __repr__(self) -> str:
        return f"TannerGraph(n={self.n}, m={self.m}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# alist interchange format (MacKay convention, 1-based, zero-padded entries
# ignored) and the two-line permutation text format.

def format_alist(g: TannerGraph) -> str:
    col_deg = g.variable_degrees()
    row_deg = g.check_degrees()
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)
    lines = [
        f"{g.n} {g.m}",
        f"{max_col} {max_row}",
        " ".join(map(str, col_deg)),
        " ".join(map(str, row_deg)),
    ]
    for adj, width in ((g.var_adj, max_col), (g.check_adj, max_row)):
        for neighbors in adj:
            entries = [x + 1 for x in neighbors] + [0] * (width - len(neighbors))
            lines.append(" ".join(map(str, entries)))
    return "\n".join(lines) + "\n"


def parse_alist(text: str) -> TannerGraph:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 4:
        raise GraphValidationError("alist: fewer than 4 header lines")

    def ints(index: int) -> list[int]:
        try:
            return [int(tok) for tok in lines[index].split()]
        except ValueError as exc:
            raise GraphValidationError(f"alist line {index + 1}: {exc}") from None

    header = ints(0)
    if len(header) != 2:
        raise GraphValidationError("alist: first line must be 'n m'")
    n, m = header
    if n < 1 or m < 1:
        raise GraphValidationError(f"alist: non-positive dimensions n={n} m={m}")
    if len(lines) != 4 + n + m:
        raise GraphValidationError(
            f"alist: expected {4 + n + m} lines for n={n} m={m}, got {len(lines)}")
    col_deg = ints(2)
    row_deg = ints(3)
    if len(col_deg) != n:
        raise GraphValidationError("alist: column-degree line has wrong length")
    if len(row_deg) != m:
        raise GraphValidationError("alist: row-degree line has wrong length")
    # Line 2 bounds the entry-line widths: a maximum below the largest
    # listed degree is corrupt, one above it only allows more zero padding.
    max_deg = ints(1)
    if (len(max_deg) != 2 or max_deg[0] < max(col_deg)
            or max_deg[1] < max(row_deg)):
        raise GraphValidationError(
            f"alist line 2: expected the maximum column and row degrees, at least "
            f"{max(col_deg)} {max(row_deg)}, got {lines[1].strip()!r}")
    col_lists = []
    for i in range(n):
        entries = [x - 1 for x in ints(4 + i) if x != 0]
        if len(entries) != col_deg[i]:
            raise GraphValidationError(
                f"alist: column {i} lists {len(entries)} checks, declared {col_deg[i]}",
                column=i)
        col_lists.append(sorted(entries))
    row_lists = []
    for i in range(m):
        entries = [x - 1 for x in ints(4 + n + i) if x != 0]
        if len(entries) != row_deg[i]:
            raise GraphValidationError(
                f"alist: row {i} lists {len(entries)} variables, declared {row_deg[i]}",
                row=i)
        row_lists.append(entries)
    g = TannerGraph.from_rows(row_lists, n)
    if g.var_adj != col_lists:
        raise GraphValidationError("alist: column lists inconsistent with row lists")
    return g


def read_alist(path: str | Path) -> TannerGraph:
    return parse_alist(Path(path).read_text())


def write_alist(g: TannerGraph, path: str | Path) -> None:
    Path(path).write_text(format_alist(g))


def format_permutation(p: Permutation) -> str:
    return f"{len(p)}\n{' '.join(map(str, p.mapping))}\n"


def parse_permutation(text: str) -> Permutation:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise GraphValidationError("permutation file: expected 2 lines (n, images)")
    try:
        n = int(lines[0])
        images = tuple(int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise GraphValidationError(f"permutation file: {exc}") from None
    if len(images) != n:
        raise GraphValidationError(
            f"permutation file: declared n={n} but {len(images)} images")
    return Permutation(images)


def read_permutation(path: str | Path) -> Permutation:
    return parse_permutation(Path(path).read_text())


def write_permutation(p: Permutation, path: str | Path) -> None:
    Path(path).write_text(format_permutation(p))
