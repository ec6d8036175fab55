import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstldpc import (GenSpec, InternalInvariantError, PivotSet, PssConfig,
                       TannerGraph, choose_swap_target, compute_lmax,
                       eligible_swap_targets, fixtures, format_permutation,
                       format_report, gen_regular, pivot_pool_for_burst,
                       pss_optimize, scan_length)
from burstldpc.pss import _round_choices, _swap_round


@pytest.fixture(scope="module")
def code128():
    return gen_regular(GenSpec(n=128, m=64, var_degree=3, check_degree=6,
                               rng_seed=7))


def test_pool_cycle4_one_hop():
    g = fixtures()["cycle4"]
    pool = pivot_pool_for_burst(g, range(0, 4), {0, 1, 2, 3})
    assert pool.pivots == {0, 1, 2, 3}


def test_pool_contains_endpoints_and_closure_contains_one_hop(rng):
    checked = 0
    for seed in range(6):
        g = gen_regular(GenSpec(n=48, m=24, var_degree=3, check_degree=6,
                                rng_seed=seed))
        length = compute_lmax(g) + 1
        if length > g.n:
            continue
        scan = scan_length(g, length)
        for start, residual in zip(scan.uncorrectable_starts, scan.residuals):
            burst = range(start, start + length)
            one_hop = pivot_pool_for_burst(g, burst, residual, "one-hop")
            closure = pivot_pool_for_burst(g, burst, residual, "full-closure")
            assert {burst.start, burst[-1]} <= one_hop.pivots
            assert len(one_hop) >= 2
            assert one_hop.pivots <= closure.pivots
            checked += 1
    assert checked >= 3


def test_pool_detects_broken_residual():
    g = fixtures()["cycle4"]
    with pytest.raises(InternalInvariantError):
        pivot_pool_for_burst(g, range(0, 4), {1, 2, 3})


def test_pool_rejects_unknown_policy():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        pivot_pool_for_burst(g, range(0, 4), {0, 1, 2, 3}, "two-hop")


def test_targets_interior_pivot_excludes_window_only():
    targets = eligible_swap_targets(100, range(10, 15), pivot=12, excluded=())
    assert targets == list(range(0, 10)) + list(range(15, 100))


def test_targets_first_endpoint_moves_left():
    burst = range(10, 15)
    assert eligible_swap_targets(100, burst, pivot=10, excluded=()) == list(range(10))
    # At the codeword edge there is nowhere further left.
    assert eligible_swap_targets(100, range(0, 5), pivot=0, excluded=()) == []


def test_targets_last_endpoint_moves_right():
    burst = range(10, 15)
    assert eligible_swap_targets(100, burst, pivot=14, excluded=()) == \
        list(range(15, 100))
    assert eligible_swap_targets(100, range(95, 100), pivot=99, excluded=()) == []


def test_targets_respect_exclusions_and_allowed():
    # A restriction to columns 0..9 of n=12 bars 10 and 11; the optimizer
    # passes barred columns in with the other exclusions.
    barred = frozenset({10, 11})
    burst = range(4, 7)
    targets = eligible_swap_targets(12, burst, pivot=5, excluded={0, 1, 8} | barred)
    assert targets == [2, 3, 7, 9]
    pools = [PivotSet(frozenset({4, 5, 6})), PivotSet(frozenset({6, 8, 10, 11}))]
    pivots, others = _round_choices(pools, barred)
    assert pivots == [[4, 5, 6], [6, 8]]
    assert others == [frozenset({6, 8, 10, 11}), frozenset({4, 5, 6, 10, 11})]
    assert all(barred.isdisjoint(p) and barred <= o for p, o in zip(pivots, others))


def test_choose_swap_target_none_on_empty():
    rng = random.Random(0)
    assert choose_swap_target(rng, 10, range(0, 4), 0, ()) is None
    assert choose_swap_target(rng, 10, range(2, 5), 3, ()) in \
        eligible_swap_targets(10, range(2, 5), 3, ())


def test_targets_never_hit_other_pools(rng):
    for seed in range(4):
        g = gen_regular(GenSpec(n=64, m=32, var_degree=3, check_degree=6,
                                rng_seed=seed, girth_floor=4))
        length = compute_lmax(g) + 1
        if length > g.n:
            continue
        scan = scan_length(g, length)
        if scan.n_b < 2:
            continue
        bursts = [range(j, j + length) for j in scan.uncorrectable_starts]
        pools = [pivot_pool_for_burst(g, b, r)
                 for b, r in zip(bursts, scan.residuals)]
        for i, burst in enumerate(bursts):
            others = set().union(*(p.pivots for j, p in enumerate(pools) if j != i))
            for pivot in pools[i].pivots:
                for t in eligible_swap_targets(g.n, burst, pivot, others):
                    assert t not in others
                    assert t not in burst


def test_swap_round_displaces_pivot_span_beyond_length():
    # For each handled window, relabeling its own pool by its own swap
    # must stretch the pivot positions past the window length.
    g = gen_regular(GenSpec(n=96, m=48, var_degree=3, check_degree=6, rng_seed=3))
    length = compute_lmax(g) + 1
    scan = scan_length(g, length)
    assert scan.n_b >= 1
    bursts = [range(j, j + length) for j in scan.uncorrectable_starts]
    pools = [pivot_pool_for_burst(g, b, r)
             for b, r in zip(bursts, scan.residuals)]
    before = g.copy()
    swaps = _swap_round(random.Random(5), g.n, bursts,
                        *_round_choices(pools, frozenset()))
    assert swaps is not None
    assert g == before  # choosing a round never touches the graph
    for burst, pool, (pivot, target) in zip(bursts, pools, swaps):
        relabeled = {target if v == pivot else v for v in pool.pivots}
        span = max(relabeled) - min(relabeled) + 1
        assert span > length


def test_no_stopping_sets_returns_identity():
    g = fixtures()["pinned3"]
    result = pss_optimize(g)
    assert result.graph == g
    assert result.permutation.mapping == (0, 1, 2)
    assert result.report.original_lmax == result.report.final_lmax == 3
    assert result.report.rows == ()


def test_single_window_covering_everything_cannot_improve():
    # The only failing window spans the whole codeword, so no eligible
    # target exists: every round aborts until the failure budget runs out.
    g = fixtures()["cycle4"]
    result = pss_optimize(g, PssConfig(f_max=5, rng_seed=0))
    assert result.graph == g
    assert result.report.final_lmax == 3
    (row,) = result.report.rows
    assert row.length == 4 and row.n_b == 1 and not row.accepted
    assert row.aborted_rounds == 5 and row.f_act == 0
    assert row.decode_calls == 1  # only the initial scan ran


def test_optimizer_improves_and_conserves(code128):
    result = pss_optimize(code128, PssConfig(rng_seed=1))
    report = result.report
    assert report.final_lmax >= report.original_lmax
    assert report.final_lmax == compute_lmax(result.graph)
    assert result.graph == code128.apply_permutation(result.permutation)
    assert result.graph.degree_distribution() == code128.degree_distribution()
    accepted = [row.length for row in report.rows if row.accepted]
    assert accepted == sorted(set(accepted))
    assert accepted and accepted[-1] == report.final_lmax


def test_optimizer_seed_determinism(code128):
    a = pss_optimize(code128, PssConfig(rng_seed=11))
    b = pss_optimize(code128, PssConfig(rng_seed=11))
    assert a.permutation == b.permutation
    assert a.report == b.report
    assert a.graph == b.graph
    c = pss_optimize(code128, PssConfig(rng_seed=12))
    assert c.permutation != a.permutation


def test_rollback_restores_graph_exactly(code128):
    before = code128.copy()
    result = pss_optimize(code128, PssConfig(rng_seed=2))
    # The optimizer checks that its output is the input relabeled, which a
    # refused round left unrestored would break; make sure refusals happened.
    assert any(row.f_act > row.accepted for row in result.report.rows)
    assert code128 == before
    assert result.graph == before.apply_permutation(result.permutation)
    assert result.report.final_lmax >= result.report.original_lmax


def test_lost_swap_fails_the_relabeling_check(code128, monkeypatch):
    # Drop one transposition mid-run, as a broken apply or rollback would.
    # Unchecked, this run returns L_max 38 -> 51 on a graph that is not a
    # relabeling of the input.
    swap_columns = TannerGraph.swap_columns
    calls = itertools.count(1)

    def lossy(self, a, b):
        if next(calls) != 40:
            swap_columns(self, a, b)

    monkeypatch.setattr(TannerGraph, "swap_columns", lossy)
    with pytest.raises(InternalInvariantError, match="not the input relabeled"):
        pss_optimize(code128, PssConfig(rng_seed=2))
    assert next(calls) > 40


def test_accounting_bounded_with_early_exit():
    g = gen_regular(GenSpec(n=64, m=32, var_degree=3, check_degree=6, rng_seed=4))
    result = pss_optimize(g, PssConfig(rng_seed=3, f_max=16))
    for row in result.report.rows:
        assert row.decode_calls <= (row.f_act + 1) * (g.n - row.length + 1)
        # Each trial decodes at least once, as does the initial scan.
        assert row.decode_calls >= (g.n - row.length + 1) + row.f_act


def test_max_length_stops_early(code128):
    bound = compute_lmax(code128) + 2
    result = pss_optimize(code128, PssConfig(rng_seed=5, max_length=bound))
    assert all(row.length <= bound for row in result.report.rows)
    assert result.report.final_lmax == compute_lmax(result.graph)


def test_systematic_restriction_confines_swaps(code128):
    # Not a range, so only the library takes it.  On columns 0..63 every
    # round aborts and nothing moves; on the even columns swaps are made.
    allowed = frozenset(range(0, code128.n, 2))
    cfg = PssConfig(rng_seed=6, restrict_to_systematic=allowed, f_max=24)
    result = pss_optimize(code128, cfg)
    moved = {i for i, image in enumerate(result.permutation.mapping) if image != i}
    assert moved and moved <= allowed
    assert result.report.final_lmax >= result.report.original_lmax


@pytest.mark.parametrize("bad", [{7, 9}, {-1, 2}])
def test_restriction_indices_must_lie_in_the_graph(bad):
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError, match="restrict_to_systematic"):
        pss_optimize(g, PssConfig(restrict_to_systematic=frozenset(bad), f_max=3))


def _report_digests(result):
    return (hashlib.sha256(format_report(result.report).encode()).hexdigest(),
            hashlib.sha256(format_permutation(result.permutation).encode()).hexdigest())


@pytest.mark.parametrize("lo, hi, policy, lmax, report, perm", [
    # At n=128 the failing window at length 39 lies in 70..108, so with
    # columns 0..63 it has no swappable pivot and every round aborts.
    (0, 64, "one-hop", (38, 38),
     "7e6e95e4d2664c0ae99154a3b3c1b43ebe4fb84365b4ac323070f8b143441bbe",
     "19d3f0156062e3cceb628d4fdbf7aec123af5823ffa4728bc4a2fcb0385e97ba"),
    (0, 64, "full-closure", (38, 38),
     "7e6e95e4d2664c0ae99154a3b3c1b43ebe4fb84365b4ac323070f8b143441bbe",
     "19d3f0156062e3cceb628d4fdbf7aec123af5823ffa4728bc4a2fcb0385e97ba"),
    # Columns 8..119 leave trials, accepted lengths and restriction aborts.
    (8, 120, "one-hop", (38, 50),
     "cf1e5c85d59d655ea9bc1741df75152166fe9a682f8944733164be4c8cf40504",
     "3d306eebcafb1cf27d915717f3a21ca4213dbbdeb6b23234408e4459e42e4505"),
    (8, 120, "full-closure", (38, 51),
     "4ee18280c6b7bee9deb9db5d60835b39b40ab3f27929069c453bc7fa561a4a44",
     "7e56fb5eba3d3a992aa1bafa924428bde05a9314f39b36f81bf1d9c6f54013ce"),
])
def test_restricted_outputs_pinned(code128, lo, hi, policy, lmax, report, perm):
    result = pss_optimize(code128, PssConfig(
        rng_seed=6, restrict_to_systematic=frozenset(range(lo, hi)), f_max=24,
        pivot_pool_policy=policy))
    assert (result.report.original_lmax, result.report.final_lmax) == lmax
    moved = {i for i, image in enumerate(result.permutation.mapping) if image != i}
    assert moved <= set(range(lo, hi))
    assert _report_digests(result) == (report, perm)


def test_config_validation():
    with pytest.raises(ValueError):
        PssConfig(f_max=0)
    with pytest.raises(ValueError):
        PssConfig(pivot_pool_policy="everything")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_length"):
            PssConfig(max_length=bad)
    assert PssConfig(max_length=1).max_length == 1
    # An empty restriction is refused, not read as "all columns".
    with pytest.raises(ValueError, match="use None for all columns"):
        PssConfig(restrict_to_systematic=frozenset())
    assert PssConfig(restrict_to_systematic=[3]).restrict_to_systematic == {3}


def test_pss_outputs_pinned_at_n512():
    # The report as `burstldpc pss --report` writes it, and the permutation
    # file, on a code six times the benchmark's n; about 0.3 s.
    g = gen_regular(GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1))
    result = pss_optimize(g, PssConfig(rng_seed=7, f_max=20))
    digests = {
        "report": hashlib.sha256(format_report(result.report).encode()).hexdigest(),
        "perm": hashlib.sha256(format_permutation(result.permutation).encode()).hexdigest(),
    }
    assert (result.report.original_lmax, result.report.final_lmax) == (200, 208)
    assert digests == {
        "report": "2128bd0eb30fdddfcbef2b800f17c2c0b7970c8a30371ec5be5feca929339fc1",
        "perm": "42401df4bbf3edcc888ee911f36c805fa9bf9d65daa1094c1900321c9a2ca53c",
    }


def test_full_closure_policy_runs(code128):
    result = pss_optimize(code128, PssConfig(rng_seed=8, f_max=24,
                                             pivot_pool_policy="full-closure"))
    assert result.report.final_lmax >= result.report.original_lmax
    assert result.graph == code128.apply_permutation(result.permutation)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from((48, 64, 96)),
       code_seed=st.integers(0, 2 ** 16),
       rng_seed=st.integers(0, 2 ** 16),
       policy=st.sampled_from(("one-hop", "full-closure")))
def test_pss_properties(n, code_seed, rng_seed, policy):
    g = gen_regular(GenSpec(n=n, m=n // 2, var_degree=3, check_degree=6,
                            rng_seed=code_seed))
    result = pss_optimize(g, PssConfig(rng_seed=rng_seed, pivot_pool_policy=policy))
    assert result.graph == g.apply_permutation(result.permutation)
    assert result.graph.degree_distribution() == g.degree_distribution()
    report = result.report
    assert report.original_lmax <= report.final_lmax == compute_lmax(result.graph)
    for row in report.rows:
        windows = n - row.length + 1
        assert windows + row.f_act <= row.decode_calls <= (row.f_act + 1) * windows
