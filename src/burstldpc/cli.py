"""Command-line front end.

Subcommands: gen, lmax, scan, stopsets, threshold, pss.  Machine-readable
output goes to stdout (or --out); human-readable summaries go to stderr.
Exit codes: 0 success, 1 validation error, 2 internal invariant violation.

Graph inputs are alist file paths, or ``fixtures:NAME`` for the built-in
fixture graphs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .burst import compute_lmax, scan_length
from .codegen import GenSpec, fixtures, four_cycle_count, gen_regular
from .pss import PssConfig, format_report, pss_optimize
from .stopset import ENUMERATION_LIMIT, all_pivots_oracle, iter_stopping_sets
from .tanner import (GraphValidationError, InternalInvariantError, TannerGraph,
                     format_alist, format_permutation, parse_alist)
from .threshold import EdgeDistribution, lmax_target, threshold


def _load_graph(token: str) -> TannerGraph:
    if not token:
        raise GraphValidationError("graph path is empty")
    if token.startswith("fixtures:"):
        name = token.split(":", 1)[1]
        table = fixtures()
        if name not in table:
            raise GraphValidationError(
                f"unknown fixture {name!r}; available: {', '.join(sorted(table))}")
        return table[name]
    return parse_alist(Path(token).read_text())


def _check_output_path(path: str) -> None:
    """Refuse an empty path, a directory, or a file in no directory."""
    if not path:
        raise ValueError("output path is empty")
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"output path {path!r} is a directory")
    if not target.parent.is_dir():
        raise ValueError(f"output path {path!r}: {str(target.parent)!r} is not a directory")


def _output(path: str | None):
    """The one place output is opened: stdout when path is None, else the file."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    _check_output_path(path)
    return open(path, "w")


def _emit(text: str, out: str | None) -> None:
    with _output(out) as f:
        f.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(n=args.n, m=args.m, var_degree=args.dv, check_degree=args.dc,
                   rng_seed=args.seed, girth_floor=args.girth_floor)
    g = gen_regular(spec)
    _emit(format_alist(g), args.out)
    summary = (f"generated ({args.dv},{args.dc})-regular graph: n={g.n} m={g.m} "
               f"edges={g.edge_count}")
    if spec.girth_floor >= 6:
        summary += f" 4-cycles={four_cycle_count(g)}"
    print(summary, file=sys.stderr)
    return 0


def _cmd_lmax(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    value = compute_lmax(g)
    _emit(f"L_max {value}\n", args.out)
    print(f"L_max={value} (n={g.n} m={g.m})", file=sys.stderr)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    result = scan_length(g, args.length, collect_residuals=False)
    starts = " ".join(map(str, result.uncorrectable_starts))
    _emit(f"L,N_B,starts\n{result.length},{result.n_b},{starts}\n", args.out)
    print(f"length {result.length}: {result.n_b} uncorrectable of "
          f"{g.n - result.length + 1} windows", file=sys.stderr)
    return 0


def _cmd_stopsets(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    sets = iter_stopping_sets(g, max_n=args.max_n)
    # Rows are written as their sets are found: a graph can have millions.
    with _output(args.out) as out:
        out.write("members\tspan\tpivots\tpivot_span\n")
        count = 0
        for s in sets:
            pivots = all_pivots_oracle(g, s)
            out.write("\t".join((
                " ".join(map(str, s.members)),
                str(s.span),
                " ".join(map(str, sorted(pivots.pivots))),
                "" if pivots.span is None else str(pivots.span))) + "\n")
            count += 1
    print(f"{count} stopping sets on n={g.n} m={g.m}", file=sys.stderr)
    return 0


def _parse_multiplicities(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in text.split(","):
        deg, _, count = part.partition(":")
        try:
            degree, multiplicity = int(deg), int(count)
        except ValueError:
            raise GraphValidationError(
                f"bad multiplicity entry {part!r}; expected DEGREE:COUNT") from None
        if degree in out:
            raise GraphValidationError(
                f"degree {degree} is listed twice in multiplicities {text!r}")
        out[degree] = multiplicity
    return out


def _cmd_threshold(args: argparse.Namespace) -> int:
    n = args.n
    if (args.var_mult is None) != (args.check_mult is None):
        raise GraphValidationError("--var-mult and --check-mult go together")
    sources = {"an alist input": args.input, "--regular": args.regular,
               "--var-mult/--check-mult": args.var_mult}
    given = [name for name, value in sources.items() if value is not None]
    if len(given) != 1:
        raise GraphValidationError(
            "need exactly one of an alist input, --regular DV DC, or "
            "--var-mult/--check-mult" + (f"; got {' and '.join(given)}" if given else ""))
    if args.regular is not None:
        dv, dc = args.regular
        dist = EdgeDistribution.from_regular(dv, dc)
    elif args.input is not None:
        g = _load_graph(args.input)
        dist = EdgeDistribution.from_degree_distribution(g.degree_distribution())
        if n is None:
            n = g.n
    else:
        dist = EdgeDistribution.from_node_multiplicities(
            _parse_multiplicities(args.var_mult),
            _parse_multiplicities(args.check_mult))
    p_star = threshold(dist)
    lines = [f"p* {p_star:.10g}"]
    if n is not None:
        lines.append(f"lmax_target {lmax_target(dist, n)}")
    _emit("\n".join(lines) + "\n", args.out)
    print(f"threshold {p_star:.6f}" +
          (f", floor(p* x {n}) = {lines[1].split()[1]}" if n is not None else ""),
          file=sys.stderr)
    return 0


def _stacked_summary(rows) -> str:
    """Two-line blocks, lengths on top and failure counts below."""
    shown = [(r.length, r.n_b) for r in rows if r.n_b > 0]
    if not shown:
        return "(no uncorrectable lengths encountered)"
    blocks = []
    for i in range(0, len(shown), 11):
        part = shown[i:i + 11]
        top = " ".join(f"{length:>5d}" for length, _ in part)
        bottom = " ".join(f"{n_b:>5d}" for _, n_b in part)
        blocks.append(top + "\n" + bottom)
    return "\n".join(blocks)


def _cmd_pss(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    allowed = None
    if args.systematic_range:
        lo, hi = args.systematic_range
        if not (0 <= lo < hi <= g.n):
            raise GraphValidationError(
                f"systematic range [{lo}, {hi}) invalid for n={g.n}")
        allowed = frozenset(range(lo, hi))
    cfg = PssConfig(
        f_max=args.fmax,
        rng_seed=args.seed,
        pivot_pool_policy="full-closure" if args.pool == "closure" else "one-hop",
        restrict_to_systematic=allowed,
        max_length=args.max_length)
    # A run can take minutes: refuse an unwritable or shared output before it starts.
    seen: dict[Path, str] = {}
    for flag, path in (("--out", args.out), ("--perm", args.perm), ("--report", args.report)):
        if path is not None:
            _check_output_path(path)
            first = seen.setdefault(Path(path).resolve(), flag)
            if first != flag:
                raise ValueError(f"output path {path!r} names the same file as {first}")
    result = pss_optimize(g, cfg)
    for path, fmt, value in ((args.out, format_alist, result.graph),
                             (args.perm, format_permutation, result.permutation),
                             (args.report, format_report, result.report)):
        if path is not None:
            _emit(fmt(value), path)
    _emit(f"original_lmax {result.report.original_lmax}\n"
          f"final_lmax {result.report.final_lmax}\n", None)
    print(f"L_max {result.report.original_lmax} -> {result.report.final_lmax} "
          f"(n={g.n}, seed={args.seed}, F_max={cfg.f_max or g.n})",
          file=sys.stderr)
    print(_stacked_summary(result.report.rows), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstldpc",
        description="Burst-erasure analysis and column-permutation optimization "
                    "of LDPC parity-check matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random regular graph as alist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dv", type=int, required=True, help="variable degree")
    p.add_argument("--dc", type=int, required=True, help="check degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--girth-floor", type=int, default=6, choices=(4, 6))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("lmax", help="guaranteed resolvable burst length")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lmax)

    p = sub.add_parser("scan", help="failing windows at one burst length")
    p.add_argument("input")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("stopsets", help="enumerate stopping sets (small graphs)")
    p.add_argument("input")
    p.add_argument("--max-n", type=int, default=ENUMERATION_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stopsets)

    p = sub.add_parser("threshold", help="erasure threshold of a degree distribution")
    p.add_argument("input", nargs="?")
    p.add_argument("--regular", type=int, nargs=2, metavar=("DV", "DC"))
    p.add_argument("--var-mult", help="variable multiplicities DEG:COUNT,DEG:COUNT,...")
    p.add_argument("--check-mult", help="check multiplicities DEG:COUNT,...")
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("pss", help="optimize the guaranteed burst length by pivot swaps")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fmax", type=int)
    p.add_argument("--pool", choices=("one-hop", "closure"), default="one-hop")
    p.add_argument("--systematic-range", type=int, nargs=2, metavar=("START", "STOP"),
                   help="swap only columns START..STOP-1")
    p.add_argument("--max-length", type=int)
    p.add_argument("--out", help="optimized graph (alist)")
    p.add_argument("--perm", help="column permutation file")
    p.add_argument("--report", help="per-length CSV report")
    p.set_defaults(func=_cmd_pss)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
