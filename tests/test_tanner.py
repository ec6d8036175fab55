import math
import random
from fractions import Fraction

import pytest

from burstldpc import (DegreeDistribution, EdgeDistribution, GraphValidationError,
                       Permutation, TannerGraph, format_alist, format_permutation,
                       parse_alist, parse_permutation)
from conftest import random_graph


def test_build_cycle3():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 0]], 3)
    assert g.n == 3 and g.m == 3
    assert g.variable_degrees() == [2, 2, 2]
    assert g.check_degrees() == [2, 2, 2]
    assert g.check_adj == [[0, 1], [1, 2], [0, 2]]


def test_build_cycle4():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
    assert g.edge_count == 8
    assert g.var_adj == [[0, 3], [0, 1], [1, 2], [2, 3]]


def test_out_of_range_index_names_row_and_column():
    with pytest.raises(GraphValidationError) as exc:
        TannerGraph.from_rows([[0, 1], [0, 5]], 4)
    assert exc.value.row == 1
    assert exc.value.column == 5


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError) as exc:
        TannerGraph.from_rows([[0, 1, 1]], 3)
    assert exc.value.row == 0
    assert exc.value.column == 1


def test_empty_graph_rejected():
    with pytest.raises(GraphValidationError):
        TannerGraph.from_rows([], 3)
    with pytest.raises(GraphValidationError):
        TannerGraph.from_rows([[0]], 0)


def test_zero_degree_variables_flagged():
    g = TannerGraph.from_rows([[0, 2]], 4)
    assert g.zero_degree_variables() == (1, 3)


def test_identity_permutation_is_noop():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
    assert g.apply_permutation(Permutation.identity(4)) == g


def test_swap_permutation_relabels():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
    p = Permutation.transposition(4, 0, 2)
    h = g.apply_permutation(p)
    assert h != g
    assert sorted(map(tuple, h.check_adj)) == sorted(
        [(1, 2), (0, 1), (0, 3), (2, 3)])
    assert h.degree_distribution() == g.degree_distribution()


def test_permutation_roundtrip_exact(rng):
    for _ in range(25):
        g = random_graph(rng)
        images = list(range(g.n))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert g.apply_permutation(p).apply_permutation(p.inverse()) == g


def test_permutation_composition_matches_sequential_application(rng):
    g = random_graph(rng)
    images = list(range(g.n))
    rng.shuffle(images)
    p = Permutation(tuple(images))
    q = Permutation.transposition(g.n, 0, g.n - 1)
    assert g.apply_permutation(p).apply_permutation(q) == \
        g.apply_permutation(p.then(q))


def test_permutation_validates_bijection():
    with pytest.raises(GraphValidationError):
        Permutation((0, 0, 2))
    with pytest.raises(GraphValidationError):
        Permutation((0, 3, 1))


def test_permutation_length_mismatch():
    g = TannerGraph.from_rows([[0, 1]], 3)
    with pytest.raises(GraphValidationError):
        g.apply_permutation(Permutation.identity(2))


def test_swap_columns_fixed_point_and_involution():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
    h = g.copy()
    h.swap_columns(1, 1)
    assert h == g
    h.swap_columns(0, 2)
    assert h != g
    h.swap_columns(0, 2)
    assert h == g


def test_swap_columns_matches_transposition(rng):
    for _ in range(25):
        g = random_graph(rng)
        a, b = rng.randrange(g.n), rng.randrange(g.n)
        h = g.copy()
        h.swap_columns(a, b)
        assert h == g.apply_permutation(Permutation.transposition(g.n, a, b))
        assert h.edge_count == g.edge_count
        assert sorted(h.variable_degrees()) == sorted(g.variable_degrees())


def test_swap_columns_out_of_range():
    g = TannerGraph.from_rows([[0, 1]], 2)
    with pytest.raises(GraphValidationError):
        g.swap_columns(0, 2)


def test_degree_distribution_cycle3():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 0]], 3)
    dd = g.degree_distribution()
    assert dd == DegreeDistribution.from_counts({2: 3}, {2: 3})
    assert dd.n == 3 and dd.m == 3 and dd.edge_count == 6


def test_degree_distribution_permutation_invariant(rng):
    for _ in range(10):
        g = random_graph(rng)
        images = list(range(g.n))
        rng.shuffle(images)
        h = g.apply_permutation(Permutation(tuple(images)))
        assert h.degree_distribution() == g.degree_distribution()
        # The multiset of column supports is preserved.
        assert sorted(tuple(col) for col in h.var_adj) == \
            sorted(tuple(col) for col in g.var_adj)


def test_edge_fractions_sum_to_one(rng):
    g = random_graph(rng)
    dist = EdgeDistribution.from_degree_distribution(g.degree_distribution())
    for side, degrees in ((dist.lam, g.variable_degrees()), (dist.rho, g.check_degrees())):
        assert side == tuple((d, float(Fraction(d * degrees.count(d), g.edge_count)))
                             for d in sorted(set(degrees)))
        assert math.isclose(math.fsum(f for _, f in side), 1.0)


def test_alist_roundtrip_small():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [0, 2, 3]], 4)
    assert parse_alist(format_alist(g)) == g


def test_alist_roundtrip_random(rng):
    for _ in range(20):
        g = random_graph(rng)
        assert parse_alist(format_alist(g)) == g


def test_alist_zero_padding_ignored():
    text = ("4 2\n"
            "1 3\n"
            "1 1 1 0\n"
            "2 1\n"
            "1 0\n"
            "1 0\n"
            "2 0\n"
            "0 0\n"
            "1 2 0\n"
            "3 0 0\n")
    g = parse_alist(text)
    assert g.n == 4 and g.m == 2
    assert g.check_adj == [[0, 1], [2]]
    assert g.zero_degree_variables() == (3,)


def test_alist_inconsistent_sides_rejected():
    g = TannerGraph.from_rows([[0, 1], [1, 2]], 3)
    text = format_alist(g).splitlines()
    text[4] = "2"  # column 0 claims check 2 instead of check 1
    with pytest.raises(GraphValidationError):
        parse_alist("\n".join(text) + "\n")


def test_alist_bad_dimensions():
    with pytest.raises(GraphValidationError):
        parse_alist("0 1\n0 0\n\n\n")


def test_alist_max_degree_line_checked():
    lines = format_alist(TannerGraph.from_rows([[0, 1], [1, 2, 3]], 4)).splitlines()
    assert lines[1] == "2 3"
    for bad in ("zz qq", "2", "2 3 3", "1 3", "2 2"):
        lines[1] = bad
        with pytest.raises(GraphValidationError, match="line 2"):
            parse_alist("\n".join(lines) + "\n")


def test_alist_writer_is_deterministic(rng):
    g = random_graph(rng)
    assert format_alist(g) == format_alist(g.copy())


def test_permutation_file_roundtrip():
    p = Permutation((2, 0, 1, 3))
    assert parse_permutation(format_permutation(p)) == p
    assert format_permutation(p) == "4\n2 0 1 3\n"


def test_permutation_file_rejects_bad_count():
    with pytest.raises(GraphValidationError):
        parse_permutation("3\n0 1\n")


def test_graphs_share_nothing_after_copy():
    g = TannerGraph.from_rows([[0, 1], [1, 2]], 3)
    h = g.copy()
    h.swap_columns(0, 2)
    assert g.check_adj == [[0, 1], [1, 2]]
