import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstldpc import PeelingDecoder, Permutation, TannerGraph, fixtures
from conftest import brute_stopping_sets, graphs, patterns, random_graph, sweep_peel


@pytest.fixture
def cycle3():
    return fixtures()["cycle3"]


def test_whole_cycle_is_stuck(cycle3):
    out = PeelingDecoder(cycle3).peel({0, 1, 2})
    assert out
    assert out == {0, 1, 2}


def test_partial_cycle_peels(cycle3):
    out = PeelingDecoder(cycle3).peel({0, 1})
    assert not out
    assert out == frozenset()


def test_empty_pattern_succeeds(cycle3):
    out = PeelingDecoder(cycle3).peel(())
    assert not out and out == frozenset()


def test_out_of_range_pattern(cycle3):
    with pytest.raises(ValueError):
        PeelingDecoder(cycle3).peel({3})


def test_negative_index_is_out_of_range(cycle3):
    # Python would read var_adj[-1], the last column, without the check.
    with pytest.raises(ValueError, match="erased index -1 out of range"):
        PeelingDecoder(cycle3).peel({0, 1, -1})


def test_chain4_full_and_partial():
    g = fixtures()["chain4"]
    # Brute enumeration says the full set is the only stopping set here.
    assert brute_stopping_sets(g) == [(0, 1, 2, 3)]
    dec = PeelingDecoder(g)
    out = dec.peel({0, 1, 2, 3})
    assert out and out == {0, 1, 2, 3}
    assert not dec.peel({1, 2, 3})


def test_burst_on_cycle4():
    g = fixtures()["cycle4"]
    dec = PeelingDecoder(g)
    assert not dec.peel(range(0, 3))
    out = dec.peel(range(0, 4))
    assert out and out == {0, 1, 2, 3}


def test_single_erasure_always_peels(rng):
    for _ in range(10):
        g = random_graph(rng)
        dec = PeelingDecoder(g)
        for v in range(g.n):
            assert not dec.peel({v})


def test_degree_zero_variable_never_peels():
    g = TannerGraph.from_rows([[0, 1]], 3)  # variable 2 has no checks
    out = PeelingDecoder(g).peel(range(2, 3))
    assert out and out == {2}


def test_peel_rejects_window_past_n():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        PeelingDecoder(g).peel(range(2, 5))


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
            assert out == expected
            assert bool(out) == bool(expected)


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
        if not out_big:
            assert not out_small
        assert out_small <= out_big


def test_schedule_independence(rng):
    for _ in range(20):
        g = random_graph(rng, max_n=14)
        dec = PeelingDecoder(g)
        pattern = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        reference = dec.peel(pattern)
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
        out_h = PeelingDecoder(h).peel(frozenset(map(p, pattern)))
        assert bool(out_g) == bool(out_h)
        assert out_h == frozenset(map(p, out_g))


def test_scratch_state_resets_between_calls():
    g = fixtures()["cycle4"]
    dec = PeelingDecoder(g)
    first = dec.peel({0, 1, 2, 3})
    assert first
    # A failed decode must not poison the next call.
    assert not dec.peel({0, 1})
    again = dec.peel({0, 1, 2, 3})
    assert again == first


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_peel_matches_sweep_decoder_property(data):
    g = data.draw(graphs())
    pattern = data.draw(patterns(g.n))
    out = PeelingDecoder(g).peel(pattern)
    assert out == sweep_peel(g, pattern)
    assert isinstance(out, frozenset)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_relabeling_commutes_with_peel_property(data):
    g = data.draw(graphs())
    p = Permutation(tuple(data.draw(st.permutations(range(g.n)))))
    pattern = data.draw(patterns(g.n))
    out_g = PeelingDecoder(g).peel(pattern)
    out_h = PeelingDecoder(g.apply_permutation(p)).peel(map(p, pattern))
    assert out_h == frozenset(map(p, out_g))
