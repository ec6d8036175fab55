import pytest

from burstldpc import (BurstScanResult, GenSpec, PeelingDecoder, all_pivots_oracle,
                       compute_lmax, fixtures, gen_regular, induced_subgraph,
                       min_stopping_set_span, scan_length)
from conftest import brute_lmax, random_graph, sweep_peel


def test_scan_cycle4_full_length():
    g = fixtures()["cycle4"]
    result = scan_length(g, 4)
    assert result.n_b == 1
    assert result.uncorrectable_starts == (0,)
    assert result.residuals == (frozenset({0, 1, 2, 3}),)
    assert result.decode_calls == 1 and result.complete


def test_scan_cycle4_below_threshold():
    result = scan_length(fixtures()["cycle4"], 3)
    assert result.n_b == 0
    assert result.decode_calls == 2


def test_scan_full_erasure_single_window(rng):
    for _ in range(5):
        g = random_graph(rng, max_n=10)
        from burstldpc import enumerate_stopping_sets
        has_stopping_sets = bool(enumerate_stopping_sets(g))
        result = scan_length(g, g.n)
        assert result.n_b == (1 if has_stopping_sets else 0)


def test_scan_length_bounds():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        scan_length(g, 0)
    with pytest.raises(ValueError):
        scan_length(g, 5)


def test_scan_early_exit_stops_at_first_failure():
    g = fixtures()["two-cycles3"]  # windows at length 3: starts 0 and 3 fail
    full = scan_length(g, 3)
    assert full.uncorrectable_starts == (0, 3)
    quick = scan_length(g, 3, early_exit=True)
    assert quick.uncorrectable_starts == (0,)
    assert not quick.complete
    assert quick.decode_calls == 1


def _assert_scan_matches_sweep(g, length):
    expected = [frozenset(sweep_peel(g, range(j, j + length)))
                for j in range(g.n - length + 1)]
    failing = tuple(j for j, residual in enumerate(expected) if residual)

    full = scan_length(g, length)
    assert full.uncorrectable_starts == failing
    assert full.residuals == tuple(expected[j] for j in failing)
    assert full.decode_calls == g.n - length + 1 and full.complete
    assert scan_length(g, length, collect_residuals=False) == \
        BurstScanResult(length, failing, (), g.n - length + 1, True)

    quick = scan_length(g, length, early_exit=True)
    if not failing:
        assert quick == full
        return
    j = failing[0]
    assert quick.uncorrectable_starts == (j,)
    assert quick.residuals == (expected[j],)
    assert quick.decode_calls == j + 1
    assert quick.complete == (j == g.n - length)
    assert scan_length(g, length, early_exit=True, collect_residuals=False) == \
        BurstScanResult(length, (j,), (), j + 1, quick.complete)


def test_scan_matches_sweep_decoder_on_random_graphs(rng):
    for _ in range(40):
        g = random_graph(rng, max_n=60)
        lmax = compute_lmax(g)
        lengths = {rng.randint(1, g.n), rng.randint(1, g.n), g.n}
        lengths |= {length for length in (lmax, lmax + 1, lmax + 2) if length <= g.n}
        for length in sorted(lengths):
            _assert_scan_matches_sweep(g, length)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_matches_sweep_decoder_near_lmax(seed):
    g = gen_regular(GenSpec(n=128, m=64, var_degree=3, check_degree=6, rng_seed=seed))
    lmax = compute_lmax(g)
    for length in range(lmax - 3, lmax + 9):
        _assert_scan_matches_sweep(g, length)


def test_compute_lmax_fixtures():
    assert compute_lmax(fixtures()["cycle4"]) == 3
    assert compute_lmax(fixtures()["chain4"]) == 3  # n - k for this chain
    assert compute_lmax(fixtures()["two-cycles3"]) == 2
    assert compute_lmax(fixtures()["pinned3"]) == 3  # no stopping sets at all


def test_compute_lmax_matches_sweep_decoder_bruteforce(rng):
    for _ in range(15):
        g = random_graph(rng, max_n=14)
        assert compute_lmax(g) == brute_lmax(g)


def test_compute_lmax_equals_min_span_minus_one(rng):
    for _ in range(15):
        g = random_graph(rng)
        span = min_stopping_set_span(g)
        if span is None:
            assert compute_lmax(g) == g.n
        else:
            assert compute_lmax(g) == span - 1


def test_monotone_resolvability(rng):
    for _ in range(10):
        g = random_graph(rng, max_n=14)
        clean = [scan_length(g, length).n_b == 0 for length in range(1, g.n + 1)]
        # Once a length fails, every longer one does too.
        assert all(a or not b for a, b in zip(clean, clean[1:]))


def test_failing_burst_neighbors_decode(rng):
    """At length L_max+1, shifting a failing window by one in either
    direction must decode, and its residual induces one component."""
    checked = 0
    for _ in range(20):
        g = random_graph(rng)
        lmax = compute_lmax(g)
        if lmax >= g.n:
            continue
        result = scan_length(g, lmax + 1)
        decoder = PeelingDecoder(g)
        for start, residual in zip(result.uncorrectable_starts, result.residuals):
            checked += 1
            if lmax >= 1:
                assert decoder.peel(range(start, start + lmax)).success
                assert decoder.peel(range(start + 1, start + 1 + lmax)).success
            assert induced_subgraph(g, residual).component_count() == 1
            # Window endpoints are pivots of the residual.
            pivots = all_pivots_oracle(g, residual)
            assert start in pivots and start + lmax in pivots
    assert checked > 10

