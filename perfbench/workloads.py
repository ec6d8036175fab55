"""The benchmark workloads: inputs from a seed, one op, a digest, a check.

Every workload builds a rotation of inputs at set-up from the workload
seed alone; the library only ever sees the generated graphs.  An op is
one call sequence a user of the CLI or the library would wait for.  Ops
reach the library through its module attributes, so the tracer in
``spans.py`` can wrap them in place.  ``check`` returns a list of
problems found by the independent checker (empty when the output is
right); ``digest`` hashes the output a user would keep.

``BENCHMARK.json`` lists pss, gen and stopsets.  lmax stays runnable by
name but is not in that list: its runs were too noisy on a shared host
within the time a full check may take (see ``BASELINE.md``).  Sizes are
chosen so that a 42-second run holds 40 or more ops per listed workload.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import checker

burst = importlib.import_module("burstldpc.burst")
codegen = importlib.import_module("burstldpc.codegen")
pss = importlib.import_module("burstldpc.pss")
stopset = importlib.import_module("burstldpc.stopset")
tanner = importlib.import_module("burstldpc.tanner")
threshold = importlib.import_module("burstldpc.threshold")


@dataclass
class Item:
    """One input of a rotation; ``ref`` holds checker facts computed at set-up."""

    label: str
    args: tuple
    ref: Any = None


@dataclass
class Workload:
    name: str
    setup: Callable[[int], list[Item]]
    warmup: Callable[[int], None]
    op: Callable[..., Any]
    digest: Callable[[Item, Any], str]
    check: Callable[[Item, Any], list[str]]
    trace_items: int  # leading items of the rotation run by a traced pass


def _sha(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def fingerprint(items: list[Item]) -> str:
    """Hash of a rotation's inputs, graphs by their check rows."""
    def plain(a):
        if isinstance(a, tuple):
            return [plain(x) for x in a]
        return getattr(a, "check_adj", a)
    return _sha([(it.label, plain(it.args)) for it in items])


def _seeds(tag: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{tag}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _regular(n: int, code_seed: int):
    return codegen.gen_regular(codegen.GenSpec(
        n=n, m=n // 2, var_degree=3, check_degree=6, rng_seed=code_seed))


# ---------------------------------------------------------------------------
# lmax: guaranteed burst length plus the failing windows one longer, on a
# graph that is only read (the `lmax` + `scan` CLI flow).

LMAX_N = 512
LMAX_CODES = 12


def lmax_setup(seed: int) -> list[Item]:
    return [Item(f"code{s}", (_regular(LMAX_N, s),))
            for s in _seeds("lmax", seed, LMAX_CODES)]


def lmax_warmup(seed: int) -> None:
    lmax_op(_regular(64, seed))


def lmax_op(g):
    length = burst.compute_lmax(g)
    scan = burst.scan_length(g, length + 1) if length < g.n else None
    return length, scan


def lmax_digest(item: Item, out) -> str:
    length, scan = out
    if scan is None:
        return _sha(length)
    return _sha(length, scan.uncorrectable_starts,
                [sorted(r) for r in scan.residuals])


def lmax_check(item: Item, out) -> list[str]:
    (g,) = item.args
    length, scan = out
    if length and not checker.window_clean(g, length):
        return [f"L_max {length}: some window of that length fails"]
    if length == g.n:
        return [] if scan is None else ["scan reported beyond n"]
    own = checker.failing_windows(g, length + 1)
    problems = []
    if not own:
        problems.append(f"L_max {length}: every window of length {length + 1} peels")
    if scan is None or scan.uncorrectable_starts != tuple(sorted(own)):
        return problems + [f"failing starts at {length + 1} differ from the checker's"]
    for j, res in zip(scan.uncorrectable_starts, scan.residuals):
        if res != own[j]:
            problems.append(f"start {j}: residual differs from the checker's")
        if not (j in res and j + length in res
                and checker.is_stopping_set(g.var_adj, res)):
            problems.append(f"start {j}: residual is not a stopping set on both endpoints")
    return problems


# ---------------------------------------------------------------------------
# pss: one default optimizer run; the scanner under swaps and rollbacks.

PSS_N = 128
PSS_CODES = 24
PSS_RNG_PER_CODE = 4


def pss_setup(seed: int) -> list[Item]:
    codes = [(s, _regular(PSS_N, s)) for s in _seeds("pss/code", seed, PSS_CODES)]
    rngs = _seeds("pss/rng", seed, PSS_CODES * PSS_RNG_PER_CODE)
    # Round-robin over codes so consecutive ops never share one.
    return [Item(f"code{s}/rng{rngs[k * PSS_CODES + i]}",
                 (g, rngs[k * PSS_CODES + i]))
            for k in range(PSS_RNG_PER_CODE) for i, (s, g) in enumerate(codes)]


def pss_warmup(seed: int) -> None:
    pss_op(_regular(96, seed), seed)


def pss_op(g, rng_seed: int):
    return pss.pss_optimize(g, pss.PssConfig(rng_seed=rng_seed))


def _report_csv(report) -> str:
    lines = ["L,N_B,F_act,decode_calls,accepted,aborted_rounds"]
    lines += [f"{r.length},{r.n_b},{r.f_act},{r.decode_calls},{int(r.accepted)},"
              f"{r.aborted_rounds}" for r in report.rows]
    return "\n".join(lines)


def pss_digest(item: Item, out) -> str:
    rep = out.report
    return _sha(tanner.format_alist(out.graph), tanner.format_permutation(out.permutation),
                _report_csv(rep), rep.original_lmax, rep.final_lmax)


def pss_check(item: Item, out) -> list[str]:
    g, _ = item.args
    rep = out.report
    mapping = out.permutation.mapping
    problems = []
    if sorted(mapping) != list(range(g.n)):
        return ["permutation is not a bijection"]
    rows, cols = checker.relabel(g, mapping)
    if rows != out.graph.check_adj or cols != out.graph.var_adj:
        problems.append("output graph is not the input relabelled by the permutation")
    for side in ("var_adj", "check_adj"):
        if (Counter(map(len, getattr(g, side)))
                != Counter(map(len, getattr(out.graph, side)))):
            problems.append(f"degree distribution changed ({side})")
    if rep.final_lmax < rep.original_lmax:
        problems.append(f"L_max fell: {rep.original_lmax} -> {rep.final_lmax}")
    if not checker.lmax_holds(g, rep.original_lmax):
        problems.append(f"original L_max {rep.original_lmax} is wrong")
    if not checker.lmax_holds(out.graph, rep.final_lmax):
        problems.append(f"final L_max {rep.final_lmax} is wrong")
    return problems


# ---------------------------------------------------------------------------
# gen: code construction, alist round trip, DE ceiling; no decoding.

GEN_N = 768
GEN_DV, GEN_DC = 3, 6


def gen_setup(seed: int) -> list[Item]:
    return [Item(f"seed{s}", (GEN_N, s)) for s in _seeds("gen", seed, 256)]


def gen_warmup(seed: int) -> None:
    gen_op(96, seed)


def gen_op(n: int, code_seed: int):
    g = codegen.gen_regular(codegen.GenSpec(
        n=n, m=n * GEN_DV // GEN_DC, var_degree=GEN_DV, check_degree=GEN_DC,
        rng_seed=code_seed))
    text = tanner.format_alist(g)
    back = tanner.parse_alist(text)
    dist = threshold.EdgeDistribution.from_degree_distribution(back.degree_distribution())
    return g, text, back, threshold.lmax_target(dist, back.n)


def gen_digest(item: Item, out) -> str:
    _, text, _, target = out
    return _sha(text, target)


@functools.lru_cache(maxsize=None)
def _checker_target(n: int) -> int:
    return checker.lmax_target([GEN_DV] * n, [GEN_DC] * (n * GEN_DV // GEN_DC), n)


def gen_check(item: Item, out) -> list[str]:
    n, _ = item.args
    g, _, back, target = out
    problems = []
    if back.check_adj != g.check_adj or back.var_adj != g.var_adj:
        problems.append("alist round trip changed the graph")
    if not checker.adjacency_consistent(g):
        problems.append("adjacency lists disagree or hold parallel edges")
    if (g.n, g.m) != (n, n * GEN_DV // GEN_DC):
        problems.append(f"wrong size {g.n}x{g.m}")
    if ({len(c) for c in g.var_adj} != {GEN_DV}
            or {len(r) for r in g.check_adj} != {GEN_DC}):
        problems.append("degrees are not regular")
    if checker.four_cycles(g):
        problems.append("4-cycles left despite girth floor 6")
    if target != _checker_target(n):
        problems.append(f"lmax_target {target}, checker says {_checker_target(n)}")
    return problems


# ---------------------------------------------------------------------------
# stopsets: exhaustive stopping-set and pivot oracles on small graphs.

STOP_BLOCKS = 10
# Work model of one graph, in microseconds, fitted on a 2-core x86 box:
# one pivot-oracle peel per set member, two subset sweeps of 2^n x m.
PEEL_US = 13.0
SWEEP_US = 0.001
BLOCK_US = 400_000.0


def sample_graph(rng: random.Random):
    """Mixed regular/irregular graph, n 12..20, every variable of degree >= 1."""
    n = rng.randint(12, 20)
    style = rng.random()
    m = rng.randint(max(3, (4 * n) // 5), (13 * n) // 10)
    rows = []
    for _ in range(m):
        deg = 3 if style < 0.45 else rng.choice((1, 2, 2, 2, 3, 3, 4))
        rows.append(sorted(rng.sample(range(n), deg)))
    for v in set(range(n)) - {v for row in rows for v in row}:
        row = rows[rng.randrange(m)]
        row.append(v)
        row.sort()
    return tanner.TannerGraph.from_rows(rows, n)


def stop_cost(g, masks) -> float:
    """Modelled op time of one graph, from the checker's stopping-set masks."""
    return PEEL_US * checker.total_bits(masks) + 2 * SWEEP_US * (1 << g.n) * g.m


def stopsets_setup(seed: int) -> list[Item]:
    """Blocks of graphs packed to about BLOCK_US of modelled work each.

    Graphs modelled above a quarter block are redrawn, so no single graph
    decides a block's time.  ``ref`` keeps the checker's stopping-set
    masks of each graph.
    """
    rng = random.Random(f"stopsets/{seed}")
    items = []
    for b in range(STOP_BLOCKS):
        graphs, masks, total = [], [], 0.0
        while total < BLOCK_US:
            g = sample_graph(rng)
            found = checker.stopping_masks(g)
            cost = stop_cost(g, found)
            if cost > BLOCK_US / 4:
                continue
            graphs.append(g)
            masks.append(found)
            total += cost
        items.append(Item(f"block{b}", (tuple(graphs),), tuple(masks)))
    return items


def stopsets_warmup(seed: int) -> None:
    stopsets_op([sample_graph(random.Random(f"stopsets-warmup/{seed}"))])


def stopsets_op(graphs):
    out = []
    for g in graphs:
        sets = stopset.enumerate_stopping_sets(g)
        pivots = [stopset.all_pivots_oracle(g, s) for s in sets]
        span = stopset.min_stopping_set_span(g)
        out.append((sets, pivots, span, burst.compute_lmax(g)))
    return out


def stopsets_digest(item: Item, out) -> str:
    return _sha([([s.members for s in sets], [sorted(p.pivots) for p in pivots], span, lm)
                 for sets, pivots, span, lm in out])


def stopsets_check(item: Item, out) -> list[str]:
    (graphs,) = item.args
    problems = []
    for k, (g, masks, (sets, pivots, span, lm)) in enumerate(zip(graphs, item.ref, out)):
        members = [s.members for s in sets]
        want_span = checker.min_span(masks)
        if sorted(members) != sorted(map(checker.mask_members, masks)):
            problems.append(f"graph {k}: stopping sets differ from the checker's")
        if not all(checker.is_stopping_set(g.var_adj, s) for s in members):
            problems.append(f"graph {k}: a listed set is not a stopping set")
        if any(len(p) == 1 for p in pivots):
            problems.append(f"graph {k}: a pivot set has exactly one member")
        if span != want_span:
            problems.append(f"graph {k}: min span {span}, checker says {want_span}")
        want = g.n if want_span is None else want_span - 1
        if lm != want:
            problems.append(f"graph {k}: compute_lmax {lm} != min span - 1 = {want}")
    if len(out) != len(graphs):
        problems.append("block output has the wrong number of graphs")
    return problems


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("lmax", lmax_setup, lmax_warmup, lmax_op, lmax_digest, lmax_check, 6),
        Workload("pss", pss_setup, pss_warmup, pss_op, pss_digest, pss_check, 12),
        Workload("gen", gen_setup, gen_warmup, gen_op, gen_digest, gen_check, 6),
        Workload("stopsets", stopsets_setup, stopsets_warmup, stopsets_op,
                 stopsets_digest, stopsets_check, 6),
    )
}
