import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstldpc import (EdgeDistribution, GraphValidationError, Permutation, TannerGraph,
                       format_alist, format_permutation, parse_alist, parse_permutation)
from conftest import graphs, random_graph


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
    assert str(exc.value) == "row 1: variable index 5 out of range (n=4)"


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError) as exc:
        TannerGraph.from_rows([[0, 1, 1]], 3)
    assert str(exc.value) == "row 0: duplicate edge to variable 1"


@pytest.mark.parametrize("row, message", [
    ([2, 2, 9], "row 1: duplicate edge to variable 2"),
    ([9, 2, 2], "row 1: variable index 9 out of range (n=4)"),
    ([3, -1, 3], "row 1: variable index -1 out of range (n=4)"),
])
def test_first_bad_entry_in_row_order_is_reported(row, message):
    with pytest.raises(GraphValidationError) as exc:
        TannerGraph.from_rows([[0, 1], row], 4)
    assert str(exc.value) == message


def test_empty_graph_rejected():
    with pytest.raises(GraphValidationError):
        TannerGraph.from_rows([], 3)
    with pytest.raises(GraphValidationError):
        TannerGraph.from_rows([[0]], 0)


def test_identity_permutation_is_noop():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
    assert g.apply_permutation(Permutation((0, 1, 2, 3))) == g


def test_swap_permutation_relabels():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 3], [3, 0]], 4)
    p = Permutation((2, 1, 0, 3))
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


def test_permutation_validates_bijection():
    with pytest.raises(GraphValidationError):
        Permutation((0, 0, 2))
    with pytest.raises(GraphValidationError):
        Permutation((0, 3, 1))


def test_permutation_length_mismatch():
    g = TannerGraph.from_rows([[0, 1]], 3)
    with pytest.raises(GraphValidationError):
        g.apply_permutation(Permutation((0, 1)))


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
        images = list(range(g.n))
        images[a], images[b] = b, a
        assert h == g.apply_permutation(Permutation(tuple(images)))
        assert h.edge_count == g.edge_count
        assert sorted(h.variable_degrees()) == sorted(g.variable_degrees())


@st.composite
def graph_and_pair(draw):
    """A graph and two columns that share a check, have degree 0, or are
    drawn freely (a == b included)."""
    g = draw(graphs())
    shared = [row for row in g.check_adj if len(row) >= 2]
    zero = [v for v, col in enumerate(g.var_adj) if not col]
    kind = draw(st.sampled_from(("shared", "zero", "any")))
    if kind == "shared" and shared:
        a, b = draw(st.permutations(draw(st.sampled_from(shared))))[:2]
    elif kind == "zero" and zero:
        a = draw(st.sampled_from(zero))
        b = draw(st.integers(0, g.n - 1))
    else:
        a, b = draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.n - 1))
    return g, a, b


@settings(max_examples=200, deadline=None)
@given(case=graph_and_pair())
def test_swap_columns_property(case):
    g, a, b = case
    h = g.copy()
    h.swap_columns(a, b)
    images = list(range(g.n))
    images[a], images[b] = b, a
    assert h == g.apply_permutation(Permutation(tuple(images)))
    assert all(row == sorted(row) for row in h.check_adj)
    assert all(col == sorted(col) for col in h.var_adj)


def test_swap_columns_out_of_range():
    g = TannerGraph.from_rows([[0, 1]], 2)
    with pytest.raises(GraphValidationError):
        g.swap_columns(0, 2)


def test_degree_distribution_cycle3():
    g = TannerGraph.from_rows([[0, 1], [1, 2], [2, 0]], 3)
    variable, check = g.degree_distribution()
    assert (variable, check) == ({2: 3}, {2: 3})
    assert sum(variable.values()) == 3
    assert sum(check.values()) == 3
    assert sum(deg * count for deg, count in variable.items()) == 6


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


@settings(max_examples=60, deadline=None)
@given(g=graphs())
def test_alist_roundtrip_property(g):
    assert parse_alist(format_alist(g)) == g


@settings(max_examples=60, deadline=None)
@given(images=st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_roundtrip_property(images):
    p = Permutation(tuple(images))
    assert parse_permutation(format_permutation(p)) == p


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
    assert [v for v, col in enumerate(g.var_adj) if not col] == [3]


def test_alist_inconsistent_sides_rejected():
    g = TannerGraph.from_rows([[0, 1], [1, 2]], 3)
    text = format_alist(g).splitlines()
    text[4] = "2"  # column 0 claims check 2 instead of check 1
    with pytest.raises(GraphValidationError):
        parse_alist("\n".join(text) + "\n")


def _chain_d_alist_lines() -> list[str]:
    # n=4, m=3: lines 5-8 list the columns, lines 9-11 the rows.
    return format_alist(TannerGraph.from_rows([[0, 1], [1, 2], [0, 2, 3]], 4)).splitlines()


def _parse_error(lines: list[str]) -> GraphValidationError:
    with pytest.raises(GraphValidationError) as exc:
        parse_alist("\n".join(lines) + "\n")
    return exc.value


@pytest.mark.parametrize("index", [4, 7, 8, 10])
def test_alist_bad_entry_token_names_its_line(index):
    lines = _chain_d_alist_lines()
    lines[index] += " 1.5"
    assert str(_parse_error(lines)) == (
        f"alist line {index + 1}: invalid literal for int() with base 10: '1.5'")


def test_alist_earlier_count_mismatch_wins_over_later_bad_token():
    lines = _chain_d_alist_lines()
    lines[5] = "1 2 3"  # column 1 lists three checks, declares two
    lines[9] = "2 zz 0"  # row 1
    assert str(_parse_error(lines)) == "alist: column 1 lists 3 checks, declared 2"
    # The other way round: the bad token comes first and wins.
    lines = _chain_d_alist_lines()
    lines[7] = "zz"  # column 3
    lines[10] = "1 3"  # row 2 lists two variables, declares three
    assert str(_parse_error(lines)).startswith("alist line 8: ")


def test_alist_count_mismatch_names_the_first_offender():
    lines = _chain_d_alist_lines()
    lines[9] = "2 0 0"  # row 1 lists one variable
    lines[10] = "1 3 0"  # row 2 lists two
    assert str(_parse_error(lines)) == "alist: row 1 lists 1 variables, declared 2"


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


@pytest.mark.parametrize("text, message", [
    ("3\n", "expected 2 lines"),
    ("3\n0 1 2\n3\n", "expected 2 lines"),
    ("3\n0 x 2\n", "permutation file: invalid literal for int"),
    ("three\n0 1 2\n", "permutation file: invalid literal for int"),
])
def test_permutation_file_rejects_bad_text(text, message):
    with pytest.raises(GraphValidationError, match=message):
        parse_permutation(text)


def test_graphs_share_nothing_after_copy():
    g = TannerGraph.from_rows([[0, 1], [1, 2]], 3)
    h = g.copy()
    h.swap_columns(0, 2)
    assert g.check_adj == [[0, 1], [1, 2]]
