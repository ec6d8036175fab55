import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstldpc import burst
from burstldpc import (BurstScanResult, GenSpec, PeelingDecoder, all_pivots_oracle,
                       compute_lmax, fixtures, gen_regular, min_stopping_set_span,
                       scan_length)
from conftest import brute_lmax, component_count, graphs, random_graph, sweep_peel


def test_scan_cycle4_full_length():
    g = fixtures()["cycle4"]
    result = scan_length(g, 4)
    assert result.n_b == 1
    assert result.uncorrectable_starts == (0,)
    assert result.residuals == (frozenset({0, 1, 2, 3}),)
    assert result.decode_calls == g.n - 4 + 1 == 1


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
    assert quick.decode_calls == 1 < g.n - 3 + 1


def _assert_scan_matches_sweep(g, length):
    expected = [frozenset(sweep_peel(g, range(j, j + length)))
                for j in range(g.n - length + 1)]
    failing = tuple(j for j, residual in enumerate(expected) if residual)

    full = scan_length(g, length)
    assert full.uncorrectable_starts == failing
    assert full.residuals == tuple(expected[j] for j in failing)
    assert full.decode_calls == g.n - length + 1
    assert scan_length(g, length, collect_residuals=False) == \
        BurstScanResult(length, failing, (), g.n - length + 1)

    quick = scan_length(g, length, early_exit=True)
    if not failing:
        assert quick == full
        return
    j = failing[0]
    assert quick.uncorrectable_starts == (j,)
    assert quick.residuals == (expected[j],)
    assert quick.decode_calls == j + 1 <= g.n - length + 1
    assert scan_length(g, length, early_exit=True, collect_residuals=False) == \
        BurstScanResult(length, (j,), (), j + 1)


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


@st.composite
def swapped_graph_and_block(draw):
    """A graph after random column swaps, a length and a block of starts
    lo .. hi-1 anywhere in the scan, so most blocks start past 0."""
    g = draw(graphs())
    columns = st.integers(0, g.n - 1)
    for a, b in draw(st.lists(st.tuples(columns, columns), max_size=12)):
        g.swap_columns(a, b)
    length = draw(st.integers(1, g.n))
    total = g.n - length + 1
    lo = draw(st.integers(0, total - 1))
    hi = draw(st.integers(lo + 1, total))
    return g, length, lo, hi


@settings(max_examples=300, deadline=None)
@given(case=swapped_graph_and_block())
def test_peel_windows_matches_sweep_decoder_property(case):
    # The kernel clips each row to the block by bisection, which relies on
    # rows staying sorted through swaps.
    g, length, lo, hi = case
    erased = burst._peel_windows(g, length, lo, hi)
    assert len(erased) == g.n
    for j in range(lo, hi):
        stuck = {v for v, mask in enumerate(erased) if mask >> (j - lo) & 1}
        assert stuck == sweep_peel(g, range(j, j + length))
    assert all(mask >> (hi - lo) == 0 for mask in erased)


def test_compute_lmax_fixtures():
    assert compute_lmax(fixtures()["cycle4"]) == 3
    assert compute_lmax(fixtures()["chain4"]) == 3  # n - k for this chain
    assert compute_lmax(fixtures()["two-cycles3"]) == 2
    assert compute_lmax(fixtures()["pinned3"]) == 3  # no stopping sets at all


def test_compute_lmax_matches_sweep_decoder_bruteforce(rng):
    for _ in range(15):
        g = random_graph(rng, max_n=14)
        assert compute_lmax(g) == brute_lmax(g)


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_compute_lmax_matches_sweep_decoder_property(g):
    # Most such graphs have L_max = 0 and a few L_max = n, so the search
    # reaches both of its ends.
    assert compute_lmax(g) == brute_lmax(g)


def test_lmax_and_scan_pinned_at_scale():
    # L_max of the seed-1 (3,6) codes, and at n=2640 the failing start and
    # residual one length past it: work-saving changes to the window kernel
    # must leave all of them as they are.
    def code(n):
        return gen_regular(GenSpec(n=n, m=n // 2, var_degree=3, check_degree=6,
                                   rng_seed=1))

    assert compute_lmax(code(512)) == 200
    g = code(2640)
    assert compute_lmax(g) == 1087
    scan = scan_length(g, 1088)
    assert scan.decode_calls == 2640 - 1088 + 1
    text = (" ".join(map(str, scan.uncorrectable_starts)) + "\n"
            + "\n".join(" ".join(map(str, sorted(r))) for r in scan.residuals))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "248a330456fdb5e4ac8f53f1cde29998e78b697ed3409027100dadb4d963e73c"


def test_compute_lmax_makes_probes_only(monkeypatch):
    # The binary search's own probes prove L_max: every scan is an
    # early-exit probe without residuals, at most one per halving.
    scans = []
    real = burst.scan_length

    def recording(g, length, **kwargs):
        scans.append(kwargs)
        return real(g, length, **kwargs)

    monkeypatch.setattr(burst, "scan_length", recording)
    codes = list(fixtures().values()) + [
        gen_regular(GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1))]
    for g in codes:
        scans.clear()
        value = compute_lmax(g)
        assert all(s == {"early_exit": True, "collect_residuals": False} for s in scans)
        assert len(scans) <= math.ceil(math.log2(g.n + 2))
    assert value == 200


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
                assert not decoder.peel(range(start, start + lmax))
                assert not decoder.peel(range(start + 1, start + 1 + lmax))
            assert component_count(g, residual) == 1
            # Window endpoints are pivots of the residual.
            pivots = all_pivots_oracle(g, residual)
            assert start in pivots and start + lmax in pivots
    assert checked > 10

