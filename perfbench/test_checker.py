"""Tests of the benchmark's own checker; run from the repository root:

    python3 -m pytest -q perfbench/test_checker.py

They pin the checker to known values and show that a wrong answer from
an op is counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import burstldpc as b  # noqa: E402

import checker  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

FIXTURE_LMAX = {"cycle3": 2, "cycle4": 3, "two-cycles3": 2, "chain4": 3,
                "chainD": 2, "nopivot6": 2, "pinned3": 3}
FIXTURE_SETS = {
    "cycle3": [(0, 1, 2)],
    "two-cycles3": [(0, 1, 2), (3, 4, 5), (0, 1, 2, 3, 4, 5)],
    "chainD": [(0, 1, 2), (0, 1, 2, 3)],
    "pinned3": [],
}


def regular(n: int, seed: int) -> b.TannerGraph:
    return b.gen_regular(b.GenSpec(n=n, m=n // 2, var_degree=3, check_degree=6,
                                   rng_seed=seed))


@pytest.mark.parametrize("name", sorted(FIXTURE_LMAX))
def test_fixture_lmax_and_span(name):
    g = b.fixtures()[name]
    lm = checker.lmax(g)
    assert lm == FIXTURE_LMAX[name]
    assert checker.lmax_holds(g, lm) and not checker.lmax_holds(g, lm + 1)
    span = checker.min_span(checker.stopping_masks(g))
    assert lm == (g.n if span is None else span - 1)


@pytest.mark.parametrize("name", sorted(FIXTURE_SETS))
def test_fixture_stopping_sets(name):
    g = b.fixtures()[name]
    sets = sorted(checker.mask_members(x) for x in checker.stopping_masks(g))
    assert sets == sorted(FIXTURE_SETS[name])
    assert all(checker.is_stopping_set(g.var_adj, s) for s in sets)


def test_predicate_and_decoder_on_chain():
    g = b.fixtures()["chainD"]  # checks {0,1} {1,2} {0,2,3}
    assert not checker.is_stopping_set(g.var_adj, [0, 1])
    assert not checker.is_stopping_set(g.var_adj, [])
    assert checker.residual(g.var_adj, g.check_adj, [0, 1, 2]) == {0, 1, 2}
    assert checker.residual(g.var_adj, g.check_adj, [1, 2, 3]) == frozenset()


def test_lmax_n512_seed1():
    assert checker.lmax(regular(512, 1)) == 200


def test_lmax_n1024_seed1():
    g = regular(1024, 1)
    assert checker.lmax_holds(g, 419)
    assert checker.lmax(g) == 419


def test_lmax_target_n2640():
    assert checker.lmax_target([3] * 2640, [6] * 1320, 2640) == 1133


def test_generated_codes_have_no_four_cycles():
    assert checker.four_cycles(regular(256, 3)) == 0
    assert checker.four_cycles(b.TannerGraph.from_rows([[0, 1], [0, 1, 2]], 3)) == 1


def _ledger_verdicts(wl, item, right, wrong):
    ledger = run.Ledger(wl)
    ledger.record(item, right)
    assert (ledger.attempted, ledger.failed) == (1, 0), ledger.failures
    ledger.record(item, wrong)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    return ledger.failures


def test_wrong_lmax_answer_fails():
    wl = W.WORKLOADS["lmax"]
    item = W.Item("code", (regular(128, 5),))
    length, scan = wl.op(*item.args)
    wrong = (length + 1, b.scan_length(item.args[0], length + 2))
    assert _ledger_verdicts(wl, item, (length, scan), wrong)


def test_wrong_pss_answer_fails():
    wl = W.WORKLOADS["pss"]
    item = W.Item("pair", (regular(48, 2), 7))
    out = wl.op(*item.args)
    report = dataclasses.replace(out.report, final_lmax=out.report.final_lmax + 1)
    assert _ledger_verdicts(wl, item, out, out._replace(report=report))


def test_wrong_permutation_fails():
    wl = W.WORKLOADS["pss"]
    item = W.Item("pair", (regular(48, 2), 7))
    out = wl.op(*item.args)
    swapped = list(out.permutation.mapping)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    wrong = out._replace(permutation=b.Permutation(tuple(swapped)))
    failures = _ledger_verdicts(wl, item, out, wrong)
    assert any("relabelled" in f for f in failures)


def test_wrong_gen_answer_fails():
    wl = W.WORKLOADS["gen"]
    item = W.Item("seed", (96, 4))
    g, text, back, target = wl.op(*item.args)
    assert target == checker.lmax_target([3] * 96, [6] * 48, 96)
    assert _ledger_verdicts(wl, item, (g, text, back, target),
                            (g, text, back, target + 1))


def test_wrong_stopsets_answer_fails():
    wl = W.WORKLOADS["stopsets"]
    graphs = tuple(W.sample_graph(random.Random(s)) for s in range(3))
    item = W.Item("block", (graphs,), tuple(checker.stopping_masks(g) for g in graphs))
    out = wl.op(*item.args)
    k = max(range(len(out)), key=lambda i: len(out[i][0]))
    sets, pivots, span, lm = out[k]
    assert sets
    wrong = out[:k] + [(sets[1:], pivots[1:], span, lm)] + out[k + 1:]
    assert _ledger_verdicts(wl, item, out, wrong)


def test_nondeterministic_output_fails():
    wl = W.WORKLOADS["gen"]
    ledger = run.Ledger(wl)
    item = W.Item("seed", (96, 4))
    ledger.record(item, wl.op(96, 4))
    ledger.record(item, wl.op(96, 5))  # same label, different output
    assert ledger.failed == 1
    assert any("differs from an earlier op" in f for f in ledger.failures)


def test_setup_is_deterministic():
    first = W.fingerprint(W.stopsets_setup(3))
    assert first == W.fingerprint(W.stopsets_setup(3))
    assert first != W.fingerprint(W.stopsets_setup(4))


def test_tail_percentile():
    times = [float(t) for t in range(30)]
    assert run.tail(times) == (100.0 * 20 / 30, 19.0)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)
