import pytest

from burstldpc import (PeelingDecoder, StoppingSet, TannerGraph, all_pivots_oracle,
                       enumerate_stopping_sets, fixtures, induced_subgraph,
                       is_pivot_oracle, is_stopping_set, min_stopping_set_span,
                       neighboring_pivots, pivot_search)
from conftest import brute_stopping_sets, random_graph


def test_is_stopping_set_trivials():
    g = fixtures()["cycle3"]
    assert is_stopping_set(g, {0, 1, 2})
    assert not is_stopping_set(g, {0, 1})
    assert is_stopping_set(g, set())  # vacuous


def test_is_stopping_set_all_degree3_checks():
    g = fixtures()["nopivot6"]
    # Every check meets the full set 3 times.
    assert is_stopping_set(g, range(6))


def test_is_stopping_set_range_check():
    with pytest.raises(ValueError):
        is_stopping_set(fixtures()["cycle3"], {7})


def test_enumerate_cycle3():
    g = fixtures()["cycle3"]
    assert enumerate_stopping_sets(g) == [StoppingSet((0, 1, 2))]


def test_enumerate_two_cycles():
    g = fixtures()["two-cycles3"]
    found = {s.members for s in enumerate_stopping_sets(g)}
    assert found == {(0, 1, 2), (3, 4, 5), (0, 1, 2, 3, 4, 5)}


def test_enumerate_chain4():
    g = fixtures()["chain4"]
    assert [s.members for s in enumerate_stopping_sets(g)] == [(0, 1, 2, 3)]


def test_enumerate_matches_bruteforce(rng):
    for _ in range(20):
        g = random_graph(rng, max_n=12)
        fast = [s.members for s in enumerate_stopping_sets(g)]
        assert sorted(fast) == sorted(brute_stopping_sets(g))


def test_enumeration_size_limit():
    g = TannerGraph.from_rows([[0, 1]], 30)
    with pytest.raises(ValueError, match="2\\^n"):
        enumerate_stopping_sets(g)
    with pytest.raises(ValueError):
        min_stopping_set_span(g)


def test_min_span_values():
    assert min_stopping_set_span(fixtures()["cycle4"]) == 4
    assert min_stopping_set_span(fixtures()["two-cycles3"]) == 3
    assert min_stopping_set_span(fixtures()["pinned3"]) is None


def test_stopping_set_span():
    s = StoppingSet((2, 5, 9))
    assert s.span == 8
    assert len(s) == 3 and 5 in s
    with pytest.raises(ValueError):
        StoppingSet((3, 1))
    with pytest.raises(ValueError):
        StoppingSet(())


def test_induced_subgraph_identity_on_cycle():
    g = fixtures()["cycle3"]
    sub = induced_subgraph(g, {0, 1, 2})
    assert sub.variables == {0, 1, 2}
    assert set(sub.check_members) == {0, 1, 2}
    assert all(sub.degree(c) == 2 for c in sub.check_members)
    assert sub.component_count() == 1


def test_induced_subgraph_two_components():
    g = fixtures()["two-cycles3"]
    sub = induced_subgraph(g, range(6))
    assert sub.component_count() == 2


def test_induced_subgraph_chainD_degrees():
    g = fixtures()["chainD"]
    sub = induced_subgraph(g, {0, 1, 2, 3})
    assert sorted(sub.degree(c) for c in sub.check_members) == [2, 2, 3]


def test_induced_subgraph_rejects_non_stopping_set():
    g = fixtures()["cycle3"]
    with pytest.raises(ValueError, match="not a stopping set"):
        induced_subgraph(g, {0, 1})


def test_pivot_oracle_cycle4():
    g = fixtures()["cycle4"]
    for v in range(4):
        assert is_pivot_oracle(g, range(4), v)


def test_pivot_oracle_requires_membership():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        is_pivot_oracle(g, {0, 1, 2, 3}, 4)


def test_no_pivots_without_degree2_checks():
    g = fixtures()["nopivot6"]
    for v in range(6):
        assert not is_pivot_oracle(g, range(6), v)
    assert all_pivots_oracle(g, range(6)).pivots == frozenset()


def test_chainD_pivots():
    g = fixtures()["chainD"]
    pivots = all_pivots_oracle(g, {0, 1, 2, 3})
    assert pivots.pivots == {0, 1, 2}
    assert pivots.span == 3


def test_disjoint_union_has_no_pivots():
    g = fixtures()["two-cycles3"]
    assert all_pivots_oracle(g, range(6)).pivots == frozenset()


def test_pivot_set_span_none_when_empty():
    from burstldpc import PivotSet
    assert PivotSet(frozenset()).span is None
    assert PivotSet(frozenset({3, 7})).span == 5


def test_neighboring_pivots_chainD():
    g = fixtures()["chainD"]
    sub = induced_subgraph(g, {0, 1, 2, 3})
    assert neighboring_pivots(sub, 0) == {1}
    assert neighboring_pivots(sub, 1) == {0, 2}


def test_neighboring_pivots_cycle4():
    g = fixtures()["cycle4"]
    sub = induced_subgraph(g, range(4))
    assert neighboring_pivots(sub, 0) == {1, 3}


def test_pivot_search_cycle4():
    g = fixtures()["cycle4"]
    assert pivot_search(g, range(4), [0]).pivots == {0, 1, 2, 3}


def test_pivot_search_chainD():
    g = fixtures()["chainD"]
    assert pivot_search(g, {0, 1, 2, 3}, [0]).pivots == {0, 1, 2}


def test_pivot_search_validates_seed():
    g = fixtures()["cycle4"]
    with pytest.raises(ValueError):
        pivot_search(g, range(4), [])
    with pytest.raises(ValueError):
        pivot_search(g, range(4), [9])


def test_pivot_search_can_miss_pivots():
    # On this graph the closure from one pivot stalls: the remaining
    # pivots are reachable only through checks of induced degree > 2.
    g = TannerGraph.from_rows([[1, 6], [2, 3, 4, 6], [2, 3, 5], [2, 4], [3, 4],
                     [0, 1, 2, 5], [0, 1, 2, 6]], 7)
    members = (1, 2, 3, 4, 5, 6)
    assert is_stopping_set(g, members)
    oracle = all_pivots_oracle(g, members)
    assert oracle.pivots == {1, 2, 3, 4, 6}
    found = pivot_search(g, members, [1])
    assert found.pivots == {1, 6}
    assert found.pivots < oracle.pivots


def test_pivot_structure_on_random_graphs(rng):
    """Pivot counts, the degree-2-check conditions, and search soundness."""
    seen_sets = 0
    for _ in range(15):
        g = random_graph(rng, max_n=12)
        all_sets = enumerate_stopping_sets(g)
        for s in all_sets:
            seen_sets += 1
            oracle = all_pivots_oracle(g, s)
            assert len(oracle) != 1
            sub = induced_subgraph(g, s)
            if sub.component_count() > 1:
                assert not oracle.pivots
            decoder = PeelingDecoder(g)
            for v in oracle.pivots:
                # Each pivot touches an induced-degree-2 check.
                assert any(sub.degree(c) == 2 for c in sub.var_checks[v])
                # Its neighbors across those checks are pivots too.
                assert neighboring_pivots(sub, v) <= oracle.pivots
                # Removing a pivot leaves nothing for peeling to stall
                # on: no enumerated stopping set survives inside.
                reduced = set(s.members) - {v}
                assert decoder.peel(reduced).success
                assert not any(set(t.members) <= reduced for t in all_sets)
                found = pivot_search(g, s, [v])
                assert found.pivots <= oracle.pivots
                assert len(found) >= 2
                # The search output is its own fixed point.
                assert pivot_search(g, s, found.pivots).pivots == found.pivots
    assert seen_sets > 20
