import random

import pytest

from burstldpc import Burst, PeelingDecoder, Permutation, TannerGraph, fixtures
from conftest import brute_stopping_sets, random_graph, sweep_peel


@pytest.fixture
def cycle3():
    return fixtures()["cycle3"]


def test_whole_cycle_is_stuck(cycle3):
    out = PeelingDecoder(cycle3).peel({0, 1, 2})
    assert not out.success
    assert out.residual == {0, 1, 2}


def test_partial_cycle_peels(cycle3):
    out = PeelingDecoder(cycle3).peel({0, 1})
    assert out.success
    assert out.residual == frozenset()


def test_empty_pattern_succeeds(cycle3):
    out = PeelingDecoder(cycle3).peel(())
    assert out.success and out.residual == frozenset()


def test_out_of_range_pattern(cycle3):
    with pytest.raises(ValueError):
        PeelingDecoder(cycle3).peel({3})


def test_chain4_full_and_partial():
    g = fixtures()["chain4"]
    # Brute enumeration says the full set is the only stopping set here.
    assert brute_stopping_sets(g) == [(0, 1, 2, 3)]
    dec = PeelingDecoder(g)
    out = dec.peel({0, 1, 2, 3})
    assert not out.success and out.residual == {0, 1, 2, 3}
    assert dec.peel({1, 2, 3}).success


def test_burst_on_cycle4():
    g = fixtures()["cycle4"]
    dec = PeelingDecoder(g)
    assert dec.peel(range(0, 3)).success
    out = dec.peel(range(0, 4))
    assert not out.success and out.residual == {0, 1, 2, 3}


def test_single_erasure_always_peels(rng):
    for _ in range(10):
        g = random_graph(rng)
        dec = PeelingDecoder(g)
        for v in range(g.n):
            assert dec.peel({v}).success


def test_degree_zero_variable_never_peels():
    g = TannerGraph.from_rows([[0, 1]], 3)  # variable 2 has no checks
    out = PeelingDecoder(g).peel(range(2, 3))
    assert not out.success and out.residual == {2}


def test_burst_bounds():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        PeelingDecoder(g).peel(range(2, 5))
    with pytest.raises(ValueError):
        Burst(0, 0)
    with pytest.raises(ValueError):
        Burst(-1, 2)


def test_residual_is_union_of_contained_stopping_sets(rng):
    for _ in range(25):
        g = random_graph(rng, max_n=12)
        stopping = brute_stopping_sets(g)
        dec = PeelingDecoder(g)
        for _ in range(8):
            pattern = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
            expected: set[int] = set()
            for s in stopping:
                if set(s) <= pattern:
                    expected |= set(s)
            out = dec.peel(pattern)
            assert out.residual == expected
            assert out.success == (not expected)


def test_union_of_stopping_sets_is_stopping_set(rng):
    from conftest import brute_is_stopping_set
    for _ in range(10):
        g = random_graph(rng, max_n=10)
        stopping = brute_stopping_sets(g)
        for _ in range(10):
            if len(stopping) < 2:
                break
            s1, s2 = rng.sample(stopping, 2)
            assert brute_is_stopping_set(g, set(s1) | set(s2))


def test_monotonicity(rng):
    for _ in range(20):
        g = random_graph(rng, max_n=14)
        dec = PeelingDecoder(g)
        big = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        small = frozenset(v for v in big if rng.random() < 0.6)
        out_big = dec.peel(big)
        out_small = dec.peel(small)
        if out_big.success:
            assert out_small.success
        assert out_small.residual <= out_big.residual


def test_schedule_independence(rng):
    for _ in range(20):
        g = random_graph(rng, max_n=14)
        dec = PeelingDecoder(g)
        pattern = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        reference = dec.peel(pattern).residual
        for _ in range(4):
            order = list(range(g.m))
            rng.shuffle(order)
            assert sweep_peel(g, pattern, order) == set(reference)


def test_permutation_equivalence(rng):
    for _ in range(20):
        g = random_graph(rng)
        images = list(range(g.n))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        h = g.apply_permutation(p)
        pattern = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        out_g = PeelingDecoder(g).peel(pattern)
        out_h = PeelingDecoder(h).peel(p.apply_to_indices(pattern))
        assert out_g.success == out_h.success
        assert out_h.residual == p.apply_to_indices(out_g.residual)


def test_scratch_state_resets_between_calls():
    g = fixtures()["cycle4"]
    dec = PeelingDecoder(g)
    first = dec.peel({0, 1, 2, 3})
    assert not first.success
    # A failed decode must not poison the next call.
    assert dec.peel({0, 1}).success
    again = dec.peel({0, 1, 2, 3})
    assert again.residual == first.residual


def test_decode_call_counter_is_monotone():
    g = fixtures()["cycle4"]
    dec = PeelingDecoder(g)
    counts = []
    for _ in range(3):
        dec.peel({0})
        counts.append(dec.calls)
    assert counts == [1, 2, 3]
