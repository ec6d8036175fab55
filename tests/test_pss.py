import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstldpc import (Burst, GenSpec, InternalInvariantError, PssConfig,
                       choose_swap_target, compute_lmax, eligible_swap_targets,
                       fixtures, format_permutation, gen_regular,
                       pivot_pool_for_burst, pss_optimize, scan_length)
from burstldpc.pss import _round_choices, _snapshot, _swap_round


@pytest.fixture(scope="module")
def code128():
    return gen_regular(GenSpec(n=128, m=64, var_degree=3, check_degree=6,
                               rng_seed=7))


def test_pool_cycle4_one_hop():
    g = fixtures()["cycle4"]
    pool = pivot_pool_for_burst(g, Burst(0, 4), {0, 1, 2, 3})
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
            burst = Burst(start, length)
            one_hop = pivot_pool_for_burst(g, burst, residual, "one-hop")
            closure = pivot_pool_for_burst(g, burst, residual, "full-closure")
            assert {burst.start, burst.last} <= one_hop.pivots
            assert len(one_hop) >= 2
            assert one_hop.pivots <= closure.pivots
            checked += 1
    assert checked >= 3


def test_pool_detects_broken_residual():
    g = fixtures()["cycle4"]
    with pytest.raises(InternalInvariantError):
        pivot_pool_for_burst(g, Burst(0, 4), {1, 2, 3})


def test_pool_rejects_unknown_policy():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        pivot_pool_for_burst(g, Burst(0, 4), {0, 1, 2, 3}, "two-hop")


def test_targets_interior_pivot_excludes_window_only():
    targets = eligible_swap_targets(100, Burst(10, 5), pivot=12, excluded=())
    assert targets == list(range(0, 10)) + list(range(15, 100))


def test_targets_first_endpoint_moves_left():
    burst = Burst(10, 5)
    assert eligible_swap_targets(100, burst, pivot=10, excluded=()) == list(range(10))
    # At the codeword edge there is nowhere further left.
    assert eligible_swap_targets(100, Burst(0, 5), pivot=0, excluded=()) == []


def test_targets_last_endpoint_moves_right():
    burst = Burst(10, 5)
    assert eligible_swap_targets(100, burst, pivot=14, excluded=()) == \
        list(range(15, 100))
    assert eligible_swap_targets(100, Burst(95, 5), pivot=99, excluded=()) == []


def test_targets_respect_exclusions_and_allowed():
    burst = Burst(4, 3)
    targets = eligible_swap_targets(12, burst, pivot=5, excluded={0, 1, 8},
                                    allowed=frozenset(range(0, 10)))
    assert targets == [2, 3, 7, 9]


def test_choose_swap_target_none_on_empty():
    rng = random.Random(0)
    assert choose_swap_target(rng, 10, Burst(0, 4), 0, ()) is None
    assert choose_swap_target(rng, 10, Burst(2, 3), 3, ()) in \
        eligible_swap_targets(10, Burst(2, 3), 3, ())


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
        bursts = [Burst(j, length) for j in scan.uncorrectable_starts]
        pools = [pivot_pool_for_burst(g, b, r)
                 for b, r in zip(bursts, scan.residuals)]
        for i, burst in enumerate(bursts):
            others = set().union(*(p.pivots for j, p in enumerate(pools) if j != i))
            for pivot in pools[i].pivots:
                for t in eligible_swap_targets(g.n, burst, pivot, others):
                    assert t not in others
                    assert not burst.start <= t <= burst.last


def test_swap_round_displaces_pivot_span_beyond_length():
    # For each handled window, relabeling its own pool by its own swap
    # must stretch the pivot positions past the window length.
    g = gen_regular(GenSpec(n=96, m=48, var_degree=3, check_degree=6, rng_seed=3))
    length = compute_lmax(g) + 1
    scan = scan_length(g, length)
    assert scan.n_b >= 1
    bursts = [Burst(j, length) for j in scan.uncorrectable_starts]
    pools = [pivot_pool_for_burst(g, b, r)
             for b, r in zip(bursts, scan.residuals)]
    before = _snapshot(g)
    swaps = _swap_round(random.Random(5), g.n, bursts,
                        *_round_choices(pools, None), None)
    assert swaps is not None
    assert _snapshot(g) == before  # choosing a round never touches the graph
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
    cfg = PssConfig(rng_seed=2, validate_rollback=True)
    result = pss_optimize(code128, cfg)
    # validate_rollback makes the optimizer itself compare snapshots after
    # every refused round; make sure refusals actually happened.
    assert any(row.f_act > row.accepted for row in result.report.rows)
    assert result.report.final_lmax >= result.report.original_lmax


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
    allowed = frozenset(range(0, 64))
    cfg = PssConfig(rng_seed=6, restrict_to_systematic=allowed, f_max=24)
    result = pss_optimize(code128, cfg)
    moved = {i for i, image in enumerate(result.permutation.mapping) if image != i}
    assert moved <= allowed
    assert result.report.final_lmax >= result.report.original_lmax


def test_config_validation():
    with pytest.raises(ValueError):
        PssConfig(f_max=0)
    with pytest.raises(ValueError):
        PssConfig(pivot_pool_policy="everything")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_length"):
            PssConfig(max_length=bad)
    assert PssConfig(max_length=1).max_length == 1


def test_pss_outputs_pinned_at_n512():
    # The report as `burstldpc pss --report` writes it, and the permutation
    # file, on a code six times the benchmark's n; about 0.3 s.
    g = gen_regular(GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1))
    result = pss_optimize(g, PssConfig(rng_seed=7, f_max=20))
    lines = ["L,N_B,F_act,decode_calls,accepted,aborted_rounds"]
    lines += [f"{r.length},{r.n_b},{r.f_act},{r.decode_calls},"
              f"{str(r.accepted).lower()},{r.aborted_rounds}" for r in result.report.rows]
    digests = {
        "report": hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest(),
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
