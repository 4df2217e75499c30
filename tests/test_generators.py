from random import Random

import pytest

from procnet import (
    classify_network,
    find_reciprocities,
    validate_empirical_model,
    vorobev_regular,
)
from procnet.errors import DomainError
from generators import (
    family_by_elimination,
    family_by_global_marginals,
    random_closed_network,
    random_scenario,
    random_stochastic_rows,
    random_tree_scenario,
)


def test_stochastic_rows_are_exact_and_bounded():
    rng = Random(61)
    for _ in range(20):
        rows = random_stochastic_rows(rng, 4, 4, max_denominator=16)
        for row in rows:
            assert sum(row) == 1
            assert all(e > 0 for e in row)
            assert all(e.denominator <= 16 for e in row)


def test_stochastic_rows_with_zeros_allowed():
    rng = Random(62)
    rows = random_stochastic_rows(rng, 30, 5, allow_zeros=True)
    assert any(e == 0 for row in rows for e in row)
    assert all(sum(row) == 1 for row in rows)


def test_closed_networks_are_closed_and_reciprocity_free():
    rng = Random(63)
    for _ in range(25):
        net = random_closed_network(rng)
        assert classify_network(net).closed
        assert find_reciprocities(net) == ()
        assert not any(node.internals for node in net.nodes)


def test_generation_is_reproducible():
    a = random_closed_network(Random(64))
    b = random_closed_network(Random(64))
    assert a == b


def test_tree_scenarios_are_regular_and_families_compatible():
    rng = Random(65)
    for _ in range(10):
        scenario = random_tree_scenario(rng)
        assert vorobev_regular(scenario)
        assert validate_empirical_model(family_by_global_marginals(rng, scenario)).ok
        assert validate_empirical_model(family_by_elimination(rng, scenario)).ok


def test_elimination_needs_regular_scenario():
    rng = Random(66)
    irregular = None
    for _ in range(60):
        scenario = random_scenario(rng)
        if not vorobev_regular(scenario):
            irregular = scenario
            break
    assert irregular is not None
    with pytest.raises(DomainError):
        family_by_elimination(rng, irregular)
