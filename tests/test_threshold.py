import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burstldpc import (EdgeDistribution, GenSpec, de_step, gen_regular,
                       lmax_target, threshold)
from conftest import bisection_threshold


@pytest.fixture(scope="module")
def reg36():
    return EdgeDistribution.from_regular(3, 6)


def test_de_step_no_erasures(reg36):
    for x in (0.0, 0.3, 1.0):
        assert de_step(reg36, 0.0, x) == 0.0


def test_de_step_full_erasure_fixed_point(reg36):
    assert de_step(reg36, 1.0, 1.0) == 1.0


def test_de_step_value(reg36):
    # 0.4 * (1 - 0.6^5)^2, evaluated exactly: 0.34021064704
    assert de_step(reg36, 0.4, 0.4) == pytest.approx(0.34021064704, abs=1e-12)


def test_de_step_domain(reg36):
    with pytest.raises(ValueError):
        de_step(reg36, 1.2, 0.5)
    with pytest.raises(ValueError):
        de_step(reg36, 0.5, -0.1)


def test_de_step_monotone(reg36):
    xs = [0.1 * k for k in range(11)]
    for p in (0.2, 0.5, 0.9):
        vals = [de_step(reg36, p, x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    for x in (0.2, 0.7):
        vals = [de_step(reg36, p, x) for p in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_iterates_from_one_non_increasing(reg36):
    x = 1.0
    for _ in range(50):
        nxt = de_step(reg36, 0.5, x)
        assert nxt <= x
        x = nxt


def test_threshold_regular_3_6(reg36):
    # Published value 0.42943981441949...; the capped bisection gave
    # 0.4294397207.
    assert threshold(reg36) == pytest.approx(0.4294398144, abs=1e-9)
    assert lmax_target(reg36, 2640) == 1133


def test_threshold_regular_4_32():
    dist = EdgeDistribution.from_regular(4, 32)
    assert lmax_target(dist, 4608) == 445


def test_threshold_cycle_code():
    # Degree-2 variables, degree-3 checks: x -> p(2x - x^2), critical
    # slope 2p, so the threshold sits at 1/2.
    dist = EdgeDistribution.from_regular(2, 3)
    assert threshold(dist) == 0.5


def test_threshold_degree2_is_stability_bound():
    # For (2, dc), h(x) = x / (1 - (1 - x)^(dc-1)) >= 1/(dc-1), with
    # equality only as x -> 0: p* is the stability bound 1/(lam_2 rho'(1)).
    for dc in range(3, 9):
        assert threshold(EdgeDistribution.from_regular(2, dc)) == 1 / (dc - 1)
    assert lmax_target(EdgeDistribution.from_regular(2, 5), 2640) == 660


def test_threshold_regular_2_2_is_one():
    # h(x) = x / (1 - (1 - x)) is 1 everywhere; written as x / x it rounds
    # below 1 at some x and floor(p* n) lost one position.
    dist = EdgeDistribution.from_regular(2, 2)
    assert threshold(dist) == 1.0
    assert lmax_target(dist, 2640) == 2640


def test_threshold_check_degree_one():
    # Every check of degree 1 pins its variable: no erasure survives.
    dist = EdgeDistribution.from_regular(3, 1)
    assert threshold(dist) == 1.0
    for n in (1, 100, 2640):
        assert lmax_target(dist, n) == n


def test_threshold_geira_profile():
    # Multi-diagonal accumulator profile: parity side 419 deg-2 and 604
    # deg-3 columns plus one deg-1 column (dropped here: density
    # evolution cannot converge with any degree-1 mass), systematic side
    # 885 deg-3, 85 deg-13, 54 deg-14; near-uniform checks.
    var = {2: 419, 3: 604 + 885, 13: 85, 14: 54}
    check = {7: 1022, 6: 2}
    dist = EdgeDistribution.from_node_multiplicities(var, check)
    assert lmax_target(dist, 2048) == 946


def test_threshold_rejects_degree1_variables():
    dist = EdgeDistribution.from_node_multiplicities({1: 3, 3: 99}, {4: 75})
    with pytest.raises(ValueError, match="degree-1"):
        threshold(dist)


@pytest.mark.parametrize("dist, bits, target", [
    (EdgeDistribution.from_regular(3, 6), "0x1.b7bf121a20cb9p-2", 1133),
    (EdgeDistribution.from_regular(4, 32), "0x1.8bbaee1fa264bp-4", 255),
    (EdgeDistribution.from_regular(2, 5), "0x1.0000000000000p-2", 660),
    (EdgeDistribution.from_regular(3, 4), "0x1.4b7b5fed89ad6p-1", 1709),
    (EdgeDistribution.from_regular(4, 8), "0x1.88a637df8a66fp-2", 1012),
    (EdgeDistribution.from_node_multiplicities(
        {2: 419, 3: 604 + 885, 13: 85, 14: 54}, {7: 1022, 6: 2}),
     "0x1.d97bfbd1286b0p-2", 1220),
], ids=["3-6", "4-32", "2-5", "3-4", "4-8", "geira"])
def test_threshold_pinned_bits(dist, bits, target):
    # The golden-section step count is fixed, so p* repeats to the last bit.
    assert threshold(dist).hex() == bits
    assert lmax_target(dist, 2640) == target


def test_threshold_deterministic(reg36):
    assert threshold(reg36) == threshold(reg36)


def test_lmax_target_zero_n(reg36):
    assert lmax_target(reg36, 0) == 0
    with pytest.raises(ValueError):
        lmax_target(reg36, -1)
    # n = 0 still checks the distribution.
    degree_one = EdgeDistribution(((1, 0.5), (3, 0.5)), ((6, 1.0),))
    for n in (0, 5):
        with pytest.raises(ValueError, match="degree-1"):
            lmax_target(degree_one, n)


def test_distribution_from_graph_matches_regular():
    g = gen_regular(GenSpec(n=64, m=32, var_degree=3, check_degree=6, rng_seed=5))
    dist = EdgeDistribution.from_degree_distribution(g.degree_distribution())
    assert dist == EdgeDistribution.from_regular(3, 6)


def test_distribution_validation():
    with pytest.raises(ValueError):
        EdgeDistribution(((3, 0.5),), ((6, 1.0),))  # lam does not sum to 1
    for lam, rho, message in (
            ((), ((6, 1.0),), "lam is empty"),
            (((3, 1.0),), (), "rho is empty"),
            (((0, 1.0),), ((6, 1.0),), "variable degree 0 is below 1"),
            (((3, 1.0),), ((6, 1.5), (4, -0.5)), "rho has negative fraction -0.5")):
        with pytest.raises(ValueError, match=message):
            EdgeDistribution(lam, rho)
    with pytest.raises(ValueError):
        EdgeDistribution.from_node_multiplicities({3: 4}, {6: 3})  # 12 != 18
    with pytest.raises(ValueError):
        EdgeDistribution.from_node_multiplicities({}, {})
    # Negative counts can balance the edge totals; they are refused anyway.
    for var, check in (({3: -2}, {6: -1}), ({3: 2, 2: -1}, {4: 1}),
                       ({3: 4}, {6: 3, 3: -2})):
        with pytest.raises(ValueError, match="negative node count"):
            EdgeDistribution.from_node_multiplicities(var, check)
    # A negative degree is named before the edge sums, whatever its count.
    for var, check, message in (({3: 2}, {-6: 1}, "check degree -6 is below 1"),
                                ({3: 2, -1: 0}, {6: 1}, "variable degree -1 is below 1")):
        with pytest.raises(ValueError, match=message):
            EdgeDistribution.from_node_multiplicities(var, check)
    # Degree-0 entries are dropped, as graphs with zero-degree columns need.
    assert EdgeDistribution.from_node_multiplicities({3: 2, 0: 5}, {6: 1}) == \
        EdgeDistribution.from_regular(3, 6)


# Fixed-point test grid: fine near 0, where the stability bound binds, and
# spaced 1/4096 across (0, 1].
_X_GRID = sorted({1e-6 * 10 ** (k / 8) for k in range(25)}
                 | {k / 4096 for k in range(1, 4097)})


def _edge_side(degrees):
    return st.dictionaries(st.sampled_from(degrees), st.integers(1, 20),
                           min_size=1, max_size=3)


def _fractions(weights):
    total = sum(weights.values())
    return tuple(sorted((deg, w / total) for deg, w in weights.items()))


@settings(max_examples=50, deadline=None)
@given(variable=_edge_side(range(1, 13)))
@example(variable={2: 3, 3: 2})
def test_edge_fractions_exact(variable):
    # Each fraction is the exact rational d * c / E rounded once to float.
    edges = sum(d * c for d, c in variable.items())
    dist = EdgeDistribution.from_node_multiplicities(variable, {1: edges})
    assert dist.lam == tuple((d, float(Fraction(d * c, edges)))
                             for d, c in sorted(variable.items()))
    assert dist.rho == ((1, 1.0),)
    assert math.isclose(dist.lam_at(1.0), 1.0)
    if variable == {2: 3, 3: 2}:
        assert dist.lam == ((2, 0.5), (3, 0.5))


@settings(max_examples=15, deadline=None)
@given(lam=_edge_side(range(2, 9)), rho=_edge_side(range(2, 13)))
# A flat tangency: DE at p* - 5e-8 needs 44,970 steps to converge, and a
# 10,000-step referee fell 1.02e-6 below p*.
@example(lam={3: 1}, rho={2: 13, 4: 6, 6: 6})
def test_threshold_against_bisection_and_fixed_points(lam, rho):
    dist = EdgeDistribution(_fractions(lam), _fractions(rho))
    p_star = threshold(dist)
    if 2 in lam:
        # Near the stability bound DE converges at a rate approaching 1,
        # so the capped referee only bounds p* from below.
        assert bisection_threshold(dist) <= p_star + 1e-12
    else:
        # DE passes a tangency at x* > 0 in about pi / sqrt(c (p* - p))
        # steps, so the referee's gap shrinks as 1 / cap^2: 100,000 steps
        # leave about 1e-8 on the flattest ensemble seen.
        lower = bisection_threshold(dist, max_iterations=100_000)
        assert lower <= p_star + 1e-12
        assert p_star - lower <= 1e-6
    # Just below p* density evolution falls everywhere on (0, 1]; just
    # above it, when that is still a probability, some x is a fixed point
    # or rises.
    below = p_star * (1 - 1e-4)
    assert all(de_step(dist, below, x) < x for x in _X_GRID)
    above = p_star * (1 + 1e-4)
    if above <= 1.0:
        assert any(de_step(dist, above, x) >= x for x in _X_GRID)
