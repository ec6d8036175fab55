"""End-to-end acceptance suite; run `pytest tests/test_acceptance.py -v -s`
to see one summary line per criterion.

Criteria 1-3 share a corpus of 220 small random graphs (mixed
regular/irregular, n <= 20) whose stopping sets are fully enumerated;
the enumeration side is the independent oracle that the scanning side
is held against.  Criteria 6-7 share seed-fixed default-config
optimizer runs on a 512-column (3,6)-regular code; the fixture records
every scan the optimizer runs, so criterion 7 can hold each report row's
decode count against the scans behind it.
"""

from __future__ import annotations

import random
import time

import pytest

import burstldpc as b
from conftest import component_count

CORPUS_SEED = 20260811
CORPUS_SIZE = 220
DESK_N, DESK_M = 512, 256
PSS_SEEDS = (1, 2, 3)


def _corpus_graph(rng: random.Random) -> b.TannerGraph:
    n = rng.randint(5, 20)
    style = rng.random()
    m = rng.randint(max(3, (4 * n) // 5), (13 * n) // 10)
    rows = []
    for _ in range(m):
        if style < 0.45:
            deg = 3  # regular-ish rows
        else:
            deg = rng.choice((1, 2, 2, 2, 3, 3, 4))
        rows.append(sorted(rng.sample(range(n), min(deg, n))))
    g = b.TannerGraph.from_rows(rows, n)
    for v in [v for v, col in enumerate(g.var_adj) if not col]:
        for c in rng.sample(range(m), m):
            if v not in g.check_adj[c]:
                g.check_adj[c].append(v)
                g.check_adj[c].sort()
                g.var_adj[v].append(c)
                break
    return g


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    started = time.perf_counter()
    graphs = []
    for _ in range(CORPUS_SIZE):
        g = _corpus_graph(rng)
        graphs.append((g, b.enumerate_stopping_sets(g)))
    return graphs, time.perf_counter() - started


@pytest.fixture(scope="module")
def pss_runs():
    """Optimizer runs at desk scale, stopping at the first that meets the
    soft target; every run must satisfy the hard no-regression bound.
    Each run comes with the scans the optimizer itself ran, in order."""
    dist = b.EdgeDistribution.from_regular(3, 6)
    target = b.lmax_target(dist, DESK_N)
    soft_floor = 0.85 * target
    scans: list[b.BurstScanResult] = []

    def recording_scan(g, length, **kwargs):
        out = b.scan_length(g, length, **kwargs)
        scans.append(out)
        return out

    runs = []
    total = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("burstldpc.pss.scan_length", recording_scan)
        for seed in PSS_SEEDS:
            g = b.gen_regular(b.GenSpec(n=DESK_N, m=DESK_M, var_degree=3,
                                        check_degree=6, rng_seed=seed))
            scans.clear()
            started = time.perf_counter()
            result = b.pss_optimize(g, b.PssConfig(rng_seed=seed))
            total += time.perf_counter() - started
            assert result.report.final_lmax >= result.report.original_lmax
            runs.append((g, result, tuple(scans)))
            if result.report.final_lmax >= soft_floor:
                break
    return target, soft_floor, runs, total


def test_criterion_1_lmax_equals_min_span_oracle(corpus):
    graphs, build_time = corpus
    started = time.perf_counter()
    without_sets = 0
    for g, sets in graphs:
        span = b.min_stopping_set_span(g)
        if sets:
            assert span == min(s.span for s in sets)
            assert b.compute_lmax(g) == span - 1
        else:
            without_sets += 1
            assert span is None
            assert b.compute_lmax(g) == g.n
    elapsed = build_time + (time.perf_counter() - started)
    assert elapsed < 300.0
    print(f"PASS  criterion 1  [graphs={len(graphs)} no-stopping-set={without_sets} "
          f"time={elapsed:.1f}s]")


def test_criterion_2_pivot_structure_suite(corpus):
    graphs, _ = corpus
    sets_checked = 0
    pivots_checked = 0
    for g, sets in graphs:
        decoder = b.PeelingDecoder(g)
        for s in sets:
            sets_checked += 1
            members = frozenset(s.members)
            oracle = frozenset(
                v for v in members if not decoder.peel(members - {v}))
            assert len(oracle) != 1, (g, s)
            sub = b.induced_subgraph(g, members)
            if component_count(g, members) > 1:
                assert not oracle, (g, s)
            for v in oracle:
                pivots_checked += 1
                assert any(len(sub.check_members[c]) == 2
                           for c in sub.var_checks[v]), (g, s, v)
                assert b.neighboring_pivots(sub, v) <= oracle, (g, s, v)
                found = b.pivot_search(sub, [v]).pivots
                assert found <= oracle, (g, s, v)
                assert b.pivot_search(sub, found).pivots == found, (g, s, v)
    print(f"PASS  criterion 2  [stopping sets={sets_checked} "
          f"pivots={pivots_checked}, zero violations]")


def test_criterion_3_failing_window_endpoints_are_pivots(corpus):
    graphs, _ = corpus
    bursts_checked = 0
    for g, _sets in graphs:
        lmax = b.compute_lmax(g)
        if lmax >= g.n:
            continue
        scan = b.scan_length(g, lmax + 1)
        assert scan.n_b >= 1
        for start, residual in zip(scan.uncorrectable_starts, scan.residuals):
            bursts_checked += 1
            oracle = b.all_pivots_oracle(g, residual).pivots
            assert start in oracle, (g, start)
            assert start + lmax in oracle, (g, start)
    assert bursts_checked > 100
    print(f"PASS  criterion 3  [uncorrectable windows={bursts_checked}, "
          f"zero violations]")


def test_criterion_4_relabeling_preserves_decoding():
    shapes = [(64, 32, 3, 6), (128, 64, 3, 6), (256, 128, 3, 6),
              (512, 256, 3, 6), (96, 64, 2, 3)]
    rng = random.Random(CORPUS_SEED + 4)
    for trial in range(50):
        n, m, dv, dc = shapes[trial % len(shapes)]
        g = b.gen_regular(b.GenSpec(n=n, m=m, var_degree=dv, check_degree=dc,
                                    rng_seed=rng.randrange(2 ** 31)))
        images = list(range(n))
        rng.shuffle(images)
        p = b.Permutation(tuple(images))
        h = g.apply_permutation(p)
        density = rng.uniform(0.05, 0.6)
        pattern = frozenset(v for v in range(n) if rng.random() < density)
        out_g = b.PeelingDecoder(g).peel(pattern)
        out_h = b.PeelingDecoder(h).peel(frozenset(map(p, pattern)))
        assert bool(out_g) == bool(out_h)
        assert out_h == frozenset(map(p, out_g))
    print("PASS  criterion 4  [50 relabeled triples, zero violations]")


def test_criterion_5_threshold_floors():
    started = time.perf_counter()
    floor_36 = b.lmax_target(b.EdgeDistribution.from_regular(3, 6), 2640)
    floor_432 = b.lmax_target(b.EdgeDistribution.from_regular(4, 32), 4608)
    elapsed = time.perf_counter() - started
    assert floor_36 == 1133
    assert floor_432 == 445
    assert elapsed < 1.0
    print(f"PASS  criterion 5  [floor(p*2640)={floor_36} floor(p*4608)={floor_432} "
          f"time={elapsed * 1000:.0f}ms]")


def test_criterion_6_optimizer_improvement_at_desk_scale(pss_runs):
    target, soft_floor, runs, total = pss_runs
    assert total < 1800.0
    for g, result, _ in runs:
        report = result.report
        assert report.final_lmax >= report.original_lmax  # hard bound
        assert result.graph == g.apply_permutation(result.permutation)
        assert result.graph.degree_distribution() == g.degree_distribution()
        assert report.final_lmax == b.compute_lmax(result.graph)
    best = runs[-1][1].report
    assert best.final_lmax >= soft_floor, (
        f"soft target {soft_floor:.1f} missed on all {len(runs)} seeds")
    print(f"PASS  criterion 6  [L_max {best.original_lmax} -> {best.final_lmax}, "
          f"target {target}, soft floor {soft_floor:.1f}, seeds used {len(runs)}, "
          f"time={total:.0f}s]")


def test_criterion_7_decode_accounting_exact(pss_runs):
    _, _, runs, _ = pss_runs
    rows_checked = 0
    early_stops = 0
    for _, result, scans in runs:
        for row in result.report.rows:
            # One full scan finds the failures; each swap trial re-scans,
            # stopping at its first uncorrectable window.  A full scan at
            # window length L performs n - L + 1 decodes.
            windows = DESK_N - row.length + 1
            at_length = [s for s in scans if s.length == row.length]
            assert len(at_length) == row.f_act + 1, row
            first, rescans = at_length[0], at_length[1:]
            assert first.decode_calls == windows, row
            refused = rescans[:-1] if row.accepted else rescans
            assert all(s.n_b > 0 for s in refused), row
            if row.accepted and rescans:
                assert rescans[-1].n_b == 0, row
                assert rescans[-1].decode_calls == windows, row
            assert row.decode_calls == sum(s.decode_calls for s in at_length), row
            early_stops += sum(s.decode_calls < windows for s in rescans)
            rows_checked += 1
    assert rows_checked > 0
    assert early_stops > 0
    assert any(row.f_act > 1 for _, result, _ in runs
               for row in result.report.rows)
    print(f"PASS  criterion 7  [{rows_checked} report rows, exact accounting, "
          f"{early_stops} early-stopped re-scans]")


def test_criterion_8_rollback_and_seed_determinism():
    g = b.gen_regular(b.GenSpec(n=128, m=64, var_degree=3, check_degree=6,
                                rng_seed=21))
    before = g.copy()
    cfg = b.PssConfig(rng_seed=4)
    first = b.pss_optimize(g, cfg)
    second = b.pss_optimize(g, cfg)
    # The optimizer verifies that its output is the input relabeled, which
    # a refused round left unrestored would break (an aborted round never
    # touches the graph); require refusals so the check is not vacuous.
    refusals = sum(max(0, row.f_act - row.accepted) for row in first.report.rows)
    assert refusals > 0
    assert g == before
    assert first.graph == before.apply_permutation(first.permutation)
    assert first.permutation == second.permutation
    assert first.report == second.report
    assert first.graph == second.graph
    print(f"PASS  criterion 8  [refused rounds={refusals}, "
          f"identical reruns]")


MARGULIS_PATH = "tests/data/margulis_2640_1320.alist"


def test_optional_margulis_code():
    """Optional: drop the (2640,1320) Margulis alist at MARGULIS_PATH to
    check the published starting point and the optimizer's gain on it."""
    import pathlib
    path = pathlib.Path(__file__).parent / "data" / "margulis_2640_1320.alist"
    if not path.exists():
        pytest.skip("external Margulis graph not supplied")
    g = b.parse_alist(path.read_text())
    assert b.compute_lmax(g) == 1033
    result = b.pss_optimize(g, b.PssConfig(rng_seed=1))
    assert result.report.final_lmax >= 1100
