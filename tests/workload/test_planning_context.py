"""One planning context per run.

A run's queries of one shape share their tree, cost model and one-shot
search cache (:class:`repro.engine.simulation.PlanningContext`).  The
sharing must change nothing: every query's initial plan and the whole
fleet summary equal those of a run in which each query plans from a
fresh context.  And it must end with the run: nothing survives into
the next one.  ``tests/engine/test_per_shape_calls.py`` pins that the
sharing happens.
"""

import gc
import weakref

import pytest

import repro.engine.simulation as simulation
import repro.workload.engine as workload_engine
from repro.engine.config import Algorithm
from repro.engine.simulation import PlanningContext
from repro.fleet import FleetPolicy
from repro.workload import ClosedLoop, QueryClass, WorkloadSpec, run_workload

COORDINATED = FleetPolicy(
    mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
)


def fleet_spec(fleet=None):
    """Three classes: two share a tree and cost model but not replicas,
    the third has a cost model of its own."""
    return WorkloadSpec(
        classes=(
            QueryClass(
                name="plain",
                algorithm=Algorithm.GLOBAL,
                overrides={"relocation_period": 60.0},
            ),
            QueryClass(
                name="big",
                algorithm=Algorithm.GLOBAL,
                overrides={
                    "mean_image_size": 256 * 1024.0,
                    "relocation_period": 60.0,
                },
            ),
            QueryClass(
                name="replicated",
                algorithm=Algorithm.ONE_SHOT,
                overrides={"replication_factor": 2},
            ),
        ),
        num_clients=4,
        queries_per_client=3,
        arrivals=ClosedLoop(think_time=5.0),
        seed=5,
        num_servers=4,
        images_per_server=4,
        fleet=fleet,
    )


def record_initial_plans(monkeypatch):
    """Every query's initial ``PlanResult``, in launch order."""
    plans = []
    original = simulation._initial_placement

    def initial_placement(spec, *args, **kwargs):
        result = original(spec, *args, **kwargs)
        plans.append(
            (
                spec.workload_seed,
                result,
                tuple(result.placement.assignment.items()),
            )
        )
        return result

    monkeypatch.setattr(simulation, "_initial_placement", initial_placement)
    return plans


def record_contexts(monkeypatch):
    """The planning context each launched query was built with."""
    contexts = []
    original = workload_engine.build_query

    def build_query(*args, planning, **kwargs):
        contexts.append(planning)
        return original(*args, planning=planning, **kwargs)

    monkeypatch.setattr(workload_engine, "build_query", build_query)
    return contexts


@pytest.mark.parametrize(
    "fleet", [None, COORDINATED], ids=["blind", "coordinated"]
)
def test_shared_context_plans_like_fresh_contexts(monkeypatch, fleet):
    spec = fleet_spec(fleet)
    plans = record_initial_plans(monkeypatch)
    shared = run_workload(spec)
    shared_plans = list(plans)
    assert {q.class_name for q in shared.queries} == {
        "plain",
        "big",
        "replicated",
    }
    assert len(shared_plans) == len(shared.queries) == 12

    plans.clear()
    original = workload_engine.build_query

    def fresh_context(*args, planning, **kwargs):
        return original(*args, planning=PlanningContext(), **kwargs)

    monkeypatch.setattr(workload_engine, "build_query", fresh_context)
    fresh = run_workload(spec)
    assert shared_plans == plans
    assert shared.fleet == fresh.fleet


def test_each_run_builds_its_own_context(monkeypatch):
    contexts = record_contexts(monkeypatch)
    spec = fleet_spec(COORDINATED)
    run_workload(spec)
    first = list(contexts)
    contexts.clear()
    run_workload(spec)
    second = list(contexts)

    # One context per run, handed to every query of that run.
    assert len(first) == len(second) == 12
    assert all(context is first[0] for context in first)
    assert all(context is second[0] for context in second)
    assert first[0] is not second[0]
    first_models = list(first[0]._models.values())
    second_models = list(second[0]._models.values())
    assert len(first_models) == len(second_models) == 2
    for tree, cost_model in first_models:
        for other_tree, other_model in second_models:
            assert tree is not other_tree
            assert cost_model is not other_model

    # Nothing outside the run keeps the context or what it built.
    refs = [weakref.ref(second[0])] + [
        weakref.ref(obj) for model in second_models for obj in model
    ]
    del first, second, first_models, second_models
    del tree, cost_model, other_tree, other_model
    contexts.clear()
    gc.collect()
    assert all(ref() is None for ref in refs)
