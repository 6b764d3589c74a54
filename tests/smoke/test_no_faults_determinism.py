"""An empty fault plan, and the full-DES schedule, change no paper metric.

At the paper-facing scale used by the CLI smokes (4 servers x 12 images)
every algorithm must give identical metrics and arrivals with no fault
plan, with an empty one, and under the full-DES reference schedule; the
fluid fast path must carry every transfer and save kernel events.
"""

from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import FaultPlan
from tests.oracles.full_des import full_des

SETUP = ExperimentConfig(num_servers=4, images_per_server=12)


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_empty_plan_and_full_des_are_bit_identical(algorithm):
    plain = run_configuration(SETUP, 0, algorithm)
    dormant = run_configuration(
        replace(SETUP, fault_plan=FaultPlan()), 0, algorithm
    )
    assert dormant.summary() == plain.summary()
    assert dormant.arrival_times == plain.arrival_times
    with full_des():
        slow = run_configuration(SETUP, 0, algorithm)
    assert slow.summary() == plain.summary()
    assert slow.arrival_times == plain.arrival_times
    assert plain.fluid_transfers == plain.transfers > 0
    assert plain.kernel_events < slow.kernel_events
