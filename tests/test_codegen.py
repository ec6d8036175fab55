from collections import Counter

import pytest

from burstldpc import (GenSpec, all_pivots_oracle, enumerate_stopping_sets,
                       fixtures, gen_regular, is_stopping_set)


def four_cycle_count(g):
    row_sets = [set(r) for r in g.check_adj]
    return sum(1 for i in range(g.m) for j in range(i + 1, g.m)
               if len(row_sets[i] & row_sets[j]) >= 2)


def test_gen_regular_exact_degrees():
    g = gen_regular(GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1))
    assert Counter(g.variable_degrees()) == {3: 512}
    assert Counter(g.check_degrees()) == {6: 256}


def test_gen_regular_small_instance():
    g = gen_regular(GenSpec(n=12, m=9, var_degree=3, check_degree=4, rng_seed=2))
    assert Counter(g.variable_degrees()) == {3: 12}
    assert Counter(g.check_degrees()) == {4: 9}


def test_gen_regular_infeasible():
    with pytest.raises(ValueError, match="socket"):
        gen_regular(GenSpec(n=10, m=4, var_degree=3, check_degree=6))
    with pytest.raises(ValueError):
        gen_regular(GenSpec(n=4, m=2, var_degree=3, check_degree=6))  # dc > n


def test_gen_regular_seed_determinism():
    spec = GenSpec(n=96, m=48, var_degree=3, check_degree=6, rng_seed=9)
    assert gen_regular(spec) == gen_regular(spec)
    other = GenSpec(n=96, m=48, var_degree=3, check_degree=6, rng_seed=10)
    assert gen_regular(other) != gen_regular(spec)


def test_gen_regular_girth_effort():
    spec6 = GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1)
    assert four_cycle_count(gen_regular(spec6)) == 0
    spec4 = GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1,
                    girth_floor=4)
    assert four_cycle_count(gen_regular(spec4)) > 0


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=8, m=4, var_degree=2, check_degree=4, girth_floor=8)


def test_fixture_names_present():
    table = fixtures()
    for name in ("cycle3", "cycle4", "two-cycles3", "chain4", "chainD",
                 "nopivot6", "pinned3"):
        assert name in table


def test_fixtures_are_fresh_copies():
    a = fixtures()["cycle4"]
    a.swap_columns(0, 2)
    assert fixtures()["cycle4"] != a


def test_fixture_chainD_structure():
    g = fixtures()["chainD"]
    assert is_stopping_set(g, {0, 1, 2, 3})
    assert all_pivots_oracle(g, {0, 1, 2, 3}).pivots == {0, 1, 2}


def test_fixture_pinned3_has_no_stopping_sets():
    assert enumerate_stopping_sets(fixtures()["pinned3"]) == []
