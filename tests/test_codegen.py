import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstldpc import (GenSpec, all_pivots_oracle, enumerate_stopping_sets,
                       fixtures, format_alist, gen_regular, is_stopping_set)
from burstldpc.codegen import (_FOUR_CYCLE_PASSES, _FourCycles, _matched_rows,
                               _ParallelEdges, _repair, four_cycle_count)
from conftest import brute_four_cycle_pairs, random_graph


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
    assert brute_four_cycle_pairs(gen_regular(spec6).check_adj) == []
    spec4 = GenSpec(n=512, m=256, var_degree=3, check_degree=6, rng_seed=1,
                    girth_floor=4)
    assert brute_four_cycle_pairs(gen_regular(spec4).check_adj) != []


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=7),
                     min_size=1, max_size=12)
       .filter(lambda rows: any(len(set(row)) < len(row) for row in rows)))
def test_parallel_edges_match_the_per_entry_scan(rows):
    # Rows without a repeat are skipped whole; the list and its order, which
    # the repair's rng draws index, must be those of testing every entry.
    assert _ParallelEdges(rows).conflicts() == [
        (c, i) for c, row in enumerate(rows) for i, v in enumerate(row)
        if row.count(v) > 1]


class _Refereed(_FourCycles):
    """The tracker, checked against the all-pairs finder on every pass."""

    def __init__(self, rows, n):
        super().__init__(rows, n)
        self.passes = 0
        self.max_partners = 0

    def conflicts(self):
        found = super().conflicts()
        pairs = brute_four_cycle_pairs(self.rows)
        assert found == [(c2, self.rows[c2].index(v))
                         for _, c2, shared in pairs for v in shared]
        partners = Counter(c for c1, c2, _ in pairs for c in (c1, c2))
        self.max_partners = max(self.max_partners, *partners.values(), 0)
        self.passes += 1
        return found


@pytest.mark.parametrize("n, m, dv, dc, seeds, small", [
    (24, 12, 3, 6, (1, 2, 3), True),
    (48, 24, 3, 6, (1, 4, 5), True),
    (40, 30, 3, 4, (1, 2), False),
    (96, 48, 3, 6, (1, 2), False),
])
def test_four_cycle_tracker_matches_all_pairs_finder(n, m, dv, dc, seeds, small):
    # Replays gen_regular's repair on random socket matchings and compares
    # the tracker's ordered conflict list, not just its set, before every pass.
    spent = most_partners = 0
    for seed in seeds:
        rng = random.Random(seed)
        rows = _matched_rows(rng, n, m, dv, dc)
        tracker = _Refereed(rows, n)
        done = _repair(rng, rows, dc, tracker, _FOUR_CYCLE_PASSES)
        assert (tracker.conflicts() == []) == done
        assert tracker.passes > 2
        spent += not done
        most_partners = max(most_partners, tracker.max_partners)
        spec = GenSpec(n=n, m=m, var_degree=dv, check_degree=dc, rng_seed=seed)
        assert [sorted(row) for row in rows] == gen_regular(spec).check_adj
    if small:
        # The budget ran out with 4-cycles left, and a row shared two or
        # more variables with each of several other rows at once.
        assert spent
        assert most_partners >= 2


def test_four_cycle_count_matches_all_pairs_finder(rng):
    for _ in range(30):
        g = random_graph(rng, max_n=40)
        assert four_cycle_count(g) == len(brute_four_cycle_pairs(g.check_adj))


def test_gen_regular_pinned_at_scale():
    # The sizes where 4-cycle repair does most of its work; digests of
    # format_alist fix every rng draw of the matching and the repair.
    pinned = {
        (768, 1): "faaec391c551d8d0bc87a37015f670f35573b885c8dfefd7d6f602c179cc8ac7",
        (768, 2): "2be1c856a985234f70ff2d74b3264748c69748cf744b79be90ccbd442e99c9ef",
        (768, 3): "53bb9a52dc178c4ce0b6937ae1ba0d1b83bffb7ce0fa2dddf9e64d183de7cdd3",
        (2640, 1): "802133d671b4303e71c32ed77d3a17902a42e63680a8de0dcfb5810d6caa53b8",
    }
    for (n, seed), digest in pinned.items():
        g = gen_regular(GenSpec(n=n, m=n // 2, var_degree=3, check_degree=6,
                                rng_seed=seed))
        assert hashlib.sha256(format_alist(g).encode()).hexdigest() == digest
        assert four_cycle_count(g) == 0


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
