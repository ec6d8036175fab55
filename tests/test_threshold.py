import math

import pytest

from burstldpc import (EdgeDistribution, GenSpec, de_step, gen_regular,
                       lmax_target, threshold)


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
    p = threshold(reg36)
    assert p == pytest.approx(0.4294398, abs=1e-5)
    assert lmax_target(reg36, 2640) == 1133


def test_threshold_regular_4_32():
    dist = EdgeDistribution.from_regular(4, 32)
    assert lmax_target(dist, 4608) == 445


def test_threshold_cycle_code():
    # Degree-2 variables, degree-3 checks: x -> p(2x - x^2), critical
    # slope 2p, so the threshold sits at 1/2 (the finite iteration cap
    # bites a hair below it).
    dist = EdgeDistribution.from_regular(2, 3)
    assert threshold(dist) == pytest.approx(0.5, abs=2e-3)


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


def test_threshold_tolerance_scaling(reg36):
    coarse = threshold(reg36, 1e-4)
    fine = threshold(reg36, 5e-5)
    assert abs(coarse - fine) <= 1e-4
    for bad in (0.0, -1e-4, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            threshold(reg36, bad)


def test_threshold_deterministic(reg36):
    assert threshold(reg36) == threshold(reg36)


def test_lmax_target_zero_n(reg36):
    assert lmax_target(reg36, 0) == 0
    with pytest.raises(ValueError):
        lmax_target(reg36, -1)


def test_distribution_from_graph_matches_regular():
    g = gen_regular(GenSpec(n=64, m=32, var_degree=3, check_degree=6, rng_seed=5))
    dist = EdgeDistribution.from_degree_distribution(g.degree_distribution())
    assert dist == EdgeDistribution.from_regular(3, 6)


def test_distribution_validation():
    with pytest.raises(ValueError):
        EdgeDistribution(((3, 0.5),), ((6, 1.0),))  # lam does not sum to 1
    with pytest.raises(ValueError):
        EdgeDistribution.from_node_multiplicities({3: 4}, {6: 3})  # 12 != 18
    with pytest.raises(ValueError):
        EdgeDistribution.from_node_multiplicities({}, {})


def test_edge_fractions_exact():
    dist = EdgeDistribution.from_node_multiplicities({2: 3, 3: 2}, {4: 3})
    assert dist.lam == ((2, 0.5), (3, 0.5))
    assert dist.rho == ((4, 1.0),)
    assert math.isclose(dist.lam_at(1.0), 1.0)
