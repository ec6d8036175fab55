"""Sparse Tanner-graph representation of a binary parity-check matrix.

Adjacency is stored in both directions (check -> variables and
variable -> checks): the peeling decoder walks both, and rebuilding one
side on demand would dominate its runtime.  Neighbor lists are kept
sorted, so two graphs with the same edge set compare equal regardless of
construction order.

Column permutation is the fundamental mutation.  ``apply_permutation``
returns a relabeled copy; ``swap_columns`` transposes two columns in
place, touching only the rows of their checks, which matters because
the burst optimizer performs many swaps with rollback.  A graph is safe
to share read-only across threads; in-place mutation requires exclusive
access.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NoReturn, Sequence


class GraphValidationError(ValueError):
    """Structurally invalid input; the message names the offending row or column."""


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

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for old, new in enumerate(self.mapping):
            inv[new] = old
        return Permutation(tuple(inv))


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
        """Build and validate a graph from per-check variable-index lists.

        A row is checked whole, by its sorted ends and its distinct count;
        only a row that fails is walked in its given order, so the error
        names its first out-of-range or repeated entry.
        """
        if n < 1:
            raise GraphValidationError(f"need at least one variable node, got n={n}")
        if len(rows) < 1:
            raise GraphValidationError("need at least one check row")
        m = len(rows)
        check_adj: list[list[int]] = []
        var_adj: list[list[int]] = [[] for _ in range(n)]
        for r, row in enumerate(rows):
            neighbors = sorted(row)
            if neighbors and (neighbors[0] < 0 or neighbors[-1] >= n
                              or len(set(neighbors)) < len(neighbors)):
                _raise_row_error(r, row, n)
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

    def degree_distribution(self) -> tuple[dict[int, int], dict[int, int]]:
        """Node count per degree: (variable side, check side)."""
        return (dict(Counter(self.variable_degrees())),
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
        """Transpose columns a and b in place; rows stay sorted."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise GraphValidationError(f"swap ({a} {b}) out of range (n={self.n})")
        if a == b:
            return
        checks_a, checks_b = self.var_adj[a], self.var_adj[b]
        # Checks touching both columns keep the same support.  Columns are
        # short, so membership is tested on the lists themselves.
        for c in checks_a:
            if c not in checks_b:
                row = self.check_adj[c]
                row[row.index(a)] = b
                row.sort()
        for c in checks_b:
            if c not in checks_a:
                row = self.check_adj[c]
                row[row.index(b)] = a
                row.sort()
        self.var_adj[a], self.var_adj[b] = checks_b, checks_a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TannerGraph):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and self.check_adj == other.check_adj
                and self.var_adj == other.var_adj)

    def __repr__(self) -> str:
        return f"TannerGraph(n={self.n}, m={self.m}, edges={self.edge_count})"


def _raise_row_error(r: int, row: Sequence[int], n: int) -> NoReturn:
    """Raise for the first entry of row r, in row order, that is out of
    range or repeats an earlier one."""
    seen: set[int] = set()
    for v in row:
        if not 0 <= v < n:
            raise GraphValidationError(
                f"row {r}: variable index {v} out of range (n={n})")
        if v in seen:
            raise GraphValidationError(f"row {r}: duplicate edge to variable {v}")
        seen.add(v)
    raise InternalInvariantError(f"row {r} failed validation but has no bad entry")


# ---------------------------------------------------------------------------
# alist interchange format (MacKay convention, 1-based, zero-padded entries
# ignored) and the two-line permutation text format.

def format_alist(g: TannerGraph) -> str:
    col_deg = g.variable_degrees()
    row_deg = g.check_degrees()
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)
    # decimal[i] == str(i): entries are written 1-based, 0 pads a short line.
    decimal = [str(i) for i in range(max(g.n, g.m) + 1)]
    lines = [
        f"{g.n} {g.m}",
        f"{max_col} {max_row}",
        " ".join([decimal[d] for d in col_deg]),
        " ".join([decimal[d] for d in row_deg]),
    ]
    for adj, width in ((g.var_adj, max_col), (g.check_adj, max_row)):
        for neighbors in adj:
            entries = [decimal[x + 1] for x in neighbors]
            entries += ["0"] * (width - len(neighbors))
            lines.append(" ".join(entries))
    return "\n".join(lines) + "\n"


def _ints(lines: list[str], index: int) -> list[int]:
    try:
        return [int(tok) for tok in lines[index].split()]
    except ValueError as exc:
        raise GraphValidationError(f"alist line {index + 1}: {exc}") from None


def parse_alist(text: str) -> TannerGraph:
    lines = text.splitlines()
    if len(lines) < 4:
        raise GraphValidationError("alist: fewer than 4 header lines")
    header = _ints(lines, 0)
    if len(header) != 2:
        raise GraphValidationError("alist: first line must be 'n m'")
    n, m = header
    if n < 1 or m < 1:
        raise GraphValidationError(f"alist: non-positive dimensions n={n} m={m}")
    # Trailing blank lines past the entry lines are ignored; within them a
    # blank line is the entry line of a node in a graph with no edges.
    while len(lines) > 4 + n + m and not lines[-1].strip():
        lines.pop()
    if len(lines) != 4 + n + m:
        raise GraphValidationError(
            f"alist: expected {4 + n + m} lines for n={n} m={m}, got {len(lines)}")
    col_deg = _ints(lines, 2)
    row_deg = _ints(lines, 3)
    if len(col_deg) != n:
        raise GraphValidationError("alist: column-degree line has wrong length")
    if len(row_deg) != m:
        raise GraphValidationError("alist: row-degree line has wrong length")
    # Line 2 bounds the entry-line widths: a maximum below the largest
    # listed degree is corrupt, one above it only allows more zero padding.
    max_deg = _ints(lines, 1)
    if (len(max_deg) != 2 or max_deg[0] < max(col_deg)
            or max_deg[1] < max(row_deg)):
        raise GraphValidationError(
            f"alist line 2: expected the maximum column and row degrees, at least "
            f"{max(col_deg)} {max(row_deg)}, got {lines[1].strip()!r}")
    # Entry lines are checked in file order: a count mismatch on a line wins
    # over a bad token on any later line.
    entries: list[list[int]] = []
    for i, (line, degree) in enumerate(zip(lines[4:], col_deg + row_deg)):
        try:
            nodes = [x - 1 for x in map(int, line.split()) if x]
        except ValueError as exc:
            raise GraphValidationError(f"alist line {5 + i}: {exc}") from None
        if len(nodes) != degree:
            if i < n:
                raise GraphValidationError(
                    f"alist: column {i} lists {len(nodes)} checks, declared {degree}")
            raise GraphValidationError(
                f"alist: row {i - n} lists {len(nodes)} variables, declared {degree}")
        entries.append(nodes)
    g = TannerGraph.from_rows(entries[n:], n)
    if g.var_adj != [sorted(col) for col in entries[:n]]:
        raise GraphValidationError("alist: column lists inconsistent with row lists")
    return g


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
