"""In-memory span tracing around the library's public functions.

``Tracer.install`` replaces each function in ``WRAPS`` by a wrapper that
records one span per call: name, start, end, parent span and op id.
``uninstall`` restores the originals, so untraced ops run the library
untouched.  Spans live in flat arrays (tens of bytes each: a threshold
computation alone makes ~130k ``de_step`` calls) and are written out
once, as a compressed ``.npz``, when the run ends.

A layer is the module prefix of a span name.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

SETUP_OP = -1
LAYERS = ("peeling", "burst", "stopset", "pss", "tanner", "codegen", "threshold")


def _scan_note(args, kwargs, out):
    g, length = args[0], kwargs.get("length", args[1] if len(args) > 1 else None)
    return (out.decode_calls, g.n - length + 1, kwargs.get("early_exit", False),
            kwargs.get("collect_residuals", True))


def _pss_note(args, kwargs, out):
    rows = out.report.rows
    return {"decode_calls": sum(r.decode_calls for r in rows),
            "lengths": len(rows),
            "trials": sum(r.f_act for r in rows),
            "aborted": sum(r.aborted_rounds for r in rows),
            "accepted": sum(1 for r in rows if r.n_b and r.accepted),
            "gain": out.report.final_lmax - out.report.original_lmax}


def _enum_note(args, kwargs, out):
    return args[0].n, len(out), sum(len(s) for s in out)


def _pool_note(args, kwargs, out):
    return len(out)


def _graph_note(args, kwargs, out):
    return out


# (module or "module:Class", attribute, span name, note on the result).
WRAPS = (
    ("burstldpc.burst", "scan_length", "burst.scan_length", _scan_note),
    ("burstldpc.burst", "compute_lmax", "burst.compute_lmax", None),
    ("burstldpc.pss", "scan_length", "burst.scan_length", _scan_note),
    ("burstldpc.pss", "compute_lmax", "burst.compute_lmax", None),
    ("burstldpc.pss", "pss_optimize", "pss.pss_optimize", _pss_note),
    ("burstldpc.pss", "pivot_pool_for_burst", "pss.pivot_pool_for_burst", _pool_note),
    ("burstldpc.pss", "choose_swap_target", "pss.choose_swap_target", None),
    ("burstldpc.pss", "induced_subgraph", "stopset.induced_subgraph", None),
    ("burstldpc.pss", "neighboring_pivots", "stopset.neighboring_pivots", None),
    ("burstldpc.tanner:TannerGraph", "swap_columns", "tanner.swap_columns", None),
    ("burstldpc.tanner", "format_alist", "tanner.format_alist", None),
    ("burstldpc.tanner", "parse_alist", "tanner.parse_alist", None),
    ("burstldpc.peeling:PeelingDecoder", "peel", "peeling.peel", None),
    ("burstldpc.stopset", "enumerate_stopping_sets", "stopset.enumerate_stopping_sets",
     _enum_note),
    ("burstldpc.stopset", "all_pivots_oracle", "stopset.all_pivots_oracle", None),
    ("burstldpc.stopset", "min_stopping_set_span", "stopset.min_stopping_set_span", None),
    ("burstldpc.stopset", "induced_subgraph", "stopset.induced_subgraph", None),
    ("burstldpc.stopset", "neighboring_pivots", "stopset.neighboring_pivots", None),
    ("burstldpc.stopset", "pivot_search", "stopset.pivot_search", None),
    ("burstldpc.stopset", "is_stopping_set", "stopset.is_stopping_set", None),
    ("burstldpc.codegen", "gen_regular", "codegen.gen_regular", _graph_note),
    ("burstldpc.threshold", "lmax_target", "threshold.lmax_target", None),
    ("burstldpc.threshold", "threshold", "threshold.threshold", None),
    ("burstldpc.threshold", "de_step", "threshold.de_step", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.current_op = SETUP_OP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends, stack, notes = self.start, self.end, self._stack, self.notes

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr, name, note in WRAPS:
            owner = _owner(path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def save(self, path, op_labels: list[str]) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            op_labels=np.array(op_labels))


class Summary:
    """Span tables of one trace, restricted to a set of op ids on demand."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        # Copies: a live view would stop the tracer's arrays from growing.
        self.nid = np.array(tracer.name_id, np.int32)
        self.parent = np.array(tracer.parent, np.int32)
        self.op = np.array(tracer.op, np.int32)
        self.dur = np.array(tracer.end) - np.array(tracer.start)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def idx(self, name: str, ops=None) -> np.ndarray:
        mask = self.nid == self.ids.get(name, -1)
        if ops is not None:
            mask &= np.isin(self.op, list(ops))
        return np.flatnonzero(mask)

    def name(self, i: int) -> str | None:
        return None if i < 0 else self.t.names[self.nid[i]]

    def children(self, parents, name: str) -> list[int]:
        mask = np.isin(self.parent, list(parents)) & (self.nid == self.ids.get(name, -1))
        return np.flatnonzero(mask).tolist()

    def exact_counts(self, ops) -> dict[str, int]:
        """Integer work counts over the given ops; these must repeat exactly."""
        notes = self.t.notes
        scans = self.idx("burst.scan_length", ops)
        lmax = self.idx("burst.compute_lmax", ops)
        runs = [notes[i] for i in self.idx("pss.pss_optimize", ops)]
        enums = [notes[i] for i in self.idx("stopset.enumerate_stopping_sets", ops)]
        pools = self.idx("pss.pivot_pool_for_burst", ops)
        early = [notes[i] for i in scans if notes[i][2]]
        lmax_set = set(lmax.tolist())
        return {
            "peel_calls": len(self.idx("peeling.peel", ops)),
            "scan_calls": len(scans),
            "windows": sum(notes[i][0] for i in scans),
            "lmax_calls": len(lmax),
            "lmax_probe_scans": sum(1 for i in scans if self.parent[i] in lmax_set),
            "early_exit_windows": sum(n[0] for n in early),
            "early_exit_span": sum(n[1] for n in early),
            "pss_runs": len(runs),
            **{f"pss_{k}": sum(r[k] for r in runs)
               for k in ("lengths", "trials", "aborted", "accepted", "decode_calls", "gain")},
            "rescan_windows": sum(notes[i][0] for i in scans
                                  if self.name(self.parent[i]) == "pss.pss_optimize"
                                  and not notes[i][3]),
            "enumerations": len(enums),
            "sets": sum(e[1] for e in enums),
            "set_members": sum(e[2] for e in enums),
            "subsets": sum(1 << e[0] for e in enums),
            "pool_calls": len(pools),
            "pool_members": sum(notes[i] for i in pools),
            "swaps": len(self.idx("tanner.swap_columns", ops)),
            "gen_calls": len(self.idx("codegen.gen_regular", ops)),
            "threshold_calls": len(self.idx("threshold.threshold", ops)),
            "de_steps": len(self.idx("threshold.de_step", ops)),
        }

    def reconcile(self, op: int) -> list[str]:
        """Work counts of one op that must agree across layers."""
        notes = self.t.notes
        problems = []
        for p in self.idx("pss.pss_optimize", [op]):
            lmax = self.children([p], "burst.compute_lmax")
            direct = sum(notes[i][0] for i in self.children([p], "burst.scan_length"))
            probes = sum(notes[i][0] for i in self.children(lmax, "burst.scan_length"))
            if len(lmax) != 2 or direct + probes != notes[p]["decode_calls"] + probes:
                problems.append(
                    f"pss: burst.windows {direct + probes} != PssRow.decode_calls "
                    f"{notes[p]['decode_calls']} + compute_lmax windows {probes} "
                    f"({len(lmax)} compute_lmax calls)")
        enums = self.idx("stopset.enumerate_stopping_sets", [op])
        if len(enums):
            members = sum(notes[i][2] for i in enums)
            peels = len(self.idx("peeling.peel", [op]))
            if peels != members:
                problems.append(f"stopsets: peeling.pattern_calls {peels} != "
                                f"summed stopping-set sizes {members}")
        return problems

    def layer_metrics(self, ops: list[int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced op (times in s unless the unit says)."""
        n_ops = len(ops)
        c = self.exact_counts(ops)
        notes = self.t.notes

        def total(name, where=None):
            ids = self.idx(name, ops)
            if where is not None:
                ids = [i for i in ids if where(i)]
            return float(self.dur[ids].sum()) if len(ids) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        def under_pss(i):
            return self.name(self.parent[i]) == "pss.pss_optimize"

        in_ops = np.isin(self.op, ops)
        layer_of = np.array([name.split(".")[0] for name in self.t.names] or [""])
        layers = layer_of[self.nid]
        self_s = {layer: float(self.self_time[in_ops & (layers == layer)].sum()) / n_ops
                  for layer in LAYERS}
        gens = self.idx("codegen.gen_regular")  # set-up codes included
        m = {
            "peeling.pattern_calls": (c["peel_calls"] / n_ops, "count"),
            "peeling.pattern_us": (ratio(1e6 * total("peeling.peel"), c["peel_calls"]), "us"),
            "burst.scan_calls": (c["scan_calls"] / n_ops, "count"),
            "burst.windows": (c["windows"] / n_ops, "count"),
            "burst.window_us": (ratio(1e6 * total("burst.scan_length"), c["windows"]), "us"),
            "burst.lmax_s": (ratio(total("burst.compute_lmax"), c["lmax_calls"]), "s"),
            "burst.lmax_probes": (ratio(c["lmax_probe_scans"], c["lmax_calls"]), "count"),
            "burst.early_exit_ratio": (ratio(c["early_exit_windows"], c["early_exit_span"]),
                                       "ratio"),
            "pss.lengths": (c["pss_lengths"] / n_ops, "count"),
            "pss.trials": (c["pss_trials"] / n_ops, "count"),
            "pss.aborted_rounds": (c["pss_aborted"] / n_ops, "count"),
            "pss.accept_ratio": (ratio(c["pss_accepted"], c["pss_trials"]), "ratio"),
            "pss.decode_calls": (c["pss_decode_calls"] / n_ops, "count"),
            "pss.first_scan_s": (total("burst.scan_length", lambda i: under_pss(i)
                                       and notes[i][3]) / n_ops, "s"),
            "pss.rescan_s": (total("burst.scan_length", lambda i: under_pss(i)
                                   and not notes[i][3]) / n_ops, "s"),
            "pss.rescan_windows": (c["rescan_windows"] / n_ops, "count"),
            "pss.pool_s": (total("pss.pivot_pool_for_burst") / n_ops, "s"),
            "pss.target_s": (total("pss.choose_swap_target") / n_ops, "s"),
            "pss.lmax_s": (total("burst.compute_lmax", under_pss) / n_ops, "s"),
            "pss.lmax_gain": (c["pss_gain"] / n_ops, "count"),
            "stopset.enumerate_s": (total("stopset.enumerate_stopping_sets") / n_ops, "s"),
            "stopset.sets": (c["sets"] / n_ops, "count"),
            "stopset.subsets_per_s": (ratio(c["subsets"],
                                            total("stopset.enumerate_stopping_sets")), "1/s"),
            "stopset.pivot_oracle_s": (total("stopset.all_pivots_oracle") / n_ops, "s"),
            "stopset.min_span_s": (total("stopset.min_stopping_set_span") / n_ops, "s"),
            "stopset.pool_calls": (c["pool_calls"] / n_ops, "count"),
            "stopset.pool_size": (ratio(c["pool_members"], c["pool_calls"]), "count"),
            "tanner.swaps": (c["swaps"] / n_ops, "count"),
            "tanner.swap_us": (ratio(1e6 * total("tanner.swap_columns"), c["swaps"]), "us"),
            "tanner.alist_s": ((total("tanner.format_alist") + total("tanner.parse_alist"))
                               / n_ops, "s"),
            "codegen.gen_s": (ratio(float(self.dur[gens].sum()), len(gens)), "s"),
            "threshold.s": (total("threshold.threshold") / n_ops, "s"),
            "threshold.de_steps": (c["de_steps"] / n_ops, "count"),
        }
        m.update({f"{layer}.self_s": (v, "s") for layer, v in self_s.items()})
        return m

    def generated_graphs(self) -> list:
        return [self.t.notes[i] for i in self.idx("codegen.gen_regular")]
