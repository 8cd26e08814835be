import pytest

from generate import SIZES, WORKLOADS, generate
from rollupsim.formats import parse_scenario


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert generate(workload, 7) == generate(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_different_bytes(workload):
    texts = {generate(workload, seed)[0] for seed in range(5)}
    assert len(texts) == 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_scenario_parses_with_single_worker_and_enough_blocks(workload):
    text, expect = generate(workload, 3)
    scenario = parse_scenario(text)
    assert scenario.seq_config.workers == 1
    assert scenario.run_blocks == expect.blocks == SIZES[workload].blocks >= 100
