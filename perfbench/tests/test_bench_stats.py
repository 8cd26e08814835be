import dataclasses

import pytest

from generate import SIZES, contract_contention
from rollupsim.formats import parse_scenario
from rollupsim.sequencer import run as run_scenario
from run import percentile, steady

import child


def test_p90_keeps_ten_samples_beyond_it():
    values = list(range(100))
    p90 = percentile(values, 90)
    assert sum(1 for v in values if v > p90) == 10
    assert percentile(values, 50) == 49


def test_p90_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)


def test_flat_backlog_is_steady():
    assert steady([3, 5, 2, 4] * 25, offered_per_block=5)


def test_growing_backlog_is_not_steady():
    assert not steady([4 * block for block in range(100)], offered_per_block=20)


def test_contention_past_the_budget_cliff_fails_the_steady_check():
    sizes = dataclasses.replace(SIZES["contract_contention"], blocks=40, per_block=16, budget=4)
    text, expect = contract_contention(1, sizes)
    scenario = parse_scenario(text)
    series = child.backlog(scenario, run_scenario(scenario).report)
    assert not steady(series, expect.offered_per_block)


def test_contention_below_the_cliff_is_steady():
    sizes = dataclasses.replace(SIZES["contract_contention"], blocks=40)
    text, expect = contract_contention(1, sizes)
    scenario = parse_scenario(text)
    series = child.backlog(scenario, run_scenario(scenario).report)
    assert steady(series, expect.offered_per_block)
