"""WorkloadSpec / QueryClass: validation, mix draws, spec assembly."""

from dataclasses import fields

import pytest

from repro.engine.config import Algorithm, Substrate
from repro.workload import (
    ClosedLoop,
    QueryClass,
    WorkloadSpec,
    client_of,
    query_id_for,
)
from tests.conftest import complete_links, tiny_spec


def one_class(**kwargs):
    return QueryClass(name="q", algorithm=Algorithm.ONE_SHOT, **kwargs)


def small_workload(**kwargs):
    defaults = dict(
        classes=(one_class(),),
        num_servers=4,
        images_per_server=3,
    )
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestQueryClass:
    def test_algorithm_string_coerced(self):
        qclass = QueryClass(name="q", algorithm="local")
        assert qclass.algorithm is Algorithm.LOCAL

    def test_overrides_mapping_normalized(self):
        qclass = one_class(overrides={"prefetch": False, "control_seed": 9})
        assert qclass.overrides == (("control_seed", 9), ("prefetch", False))

    @pytest.mark.parametrize("name", [f.name for f in fields(Substrate)])
    def test_structural_override_rejected(self, name):
        # The shared network is built once from the workload's substrate,
        # so a per-class value for any of its knobs could not take effect.
        with pytest.raises(ValueError, match="structural"):
            one_class(overrides={name: getattr(Substrate(), name)})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            one_class(weight=0.0)


class TestWorkloadSpecValidation:
    def test_needs_a_class(self):
        with pytest.raises(ValueError, match="query class"):
            WorkloadSpec(classes=())

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadSpec(classes=(one_class(), one_class()))

    def test_class_server_count_must_fit_pool(self):
        with pytest.raises(ValueError, match="servers"):
            small_workload(classes=(one_class(num_servers=9),))

    def test_override_hosts_require_explicit_links(self):
        with pytest.raises(ValueError, match="link_traces"):
            small_workload(server_hosts_override=("a", "b", "c", "d"))

    def test_negative_clients_rejected(self):
        with pytest.raises(ValueError, match="num_clients"):
            small_workload(num_clients=-1)

    @pytest.mark.parametrize(
        "name, value, match",
        [
            pytest.param("tree_shape", "zig", "tree shape", id="tree_shape"),
            pytest.param("nic_capacity", 0, "nic_capacity", id="nic_capacity"),
            pytest.param("images_per_server", 0, "image", id="images_per_server"),
            pytest.param("num_servers", 1, "servers", id="num_servers"),
        ],
    )
    def test_bad_substrate_rejected_at_build(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            small_workload(**{name: value})


class TestQueryIds:
    def test_round_trip(self):
        qid = query_id_for(3, 7)
        assert qid == "c3:7"
        assert client_of(qid) == "c3"


class TestMix:
    def test_single_class_uses_no_randomness(self):
        spec = small_workload(queries_per_client=5)
        assert spec.mix_for(0) == [spec.classes[0]] * 5

    def test_mix_is_seed_reproducible_and_weighted(self):
        classes = (
            QueryClass(name="a", algorithm=Algorithm.ONE_SHOT, weight=3.0),
            QueryClass(name="b", algorithm=Algorithm.GLOBAL, weight=1.0),
        )
        spec = small_workload(classes=classes, queries_per_client=40, seed=5)
        first = [c.name for c in spec.mix_for(0)]
        again = [c.name for c in spec.mix_for(0)]
        assert first == again
        # With weight 3:1, class "a" should dominate.
        assert first.count("a") > first.count("b")


class TestQuerySpec:
    def test_seeds_differ_per_slot(self):
        spec = small_workload(num_clients=2, queries_per_client=2)
        seeds = {
            spec.query_spec(spec.classes[0], c, o).workload_seed
            for c in range(2)
            for o in range(2)
        }
        assert len(seeds) == 4

    def test_class_overrides_win(self):
        qclass = one_class(overrides={"workload_seed": 424242, "prefetch": False})
        spec = small_workload(classes=(qclass,))
        qspec = spec.query_spec(qclass, 0, 0)
        assert qspec.workload_seed == 424242
        assert qspec.prefetch is False

    def test_server_subset_is_sorted_and_reproducible(self):
        qclass = one_class(num_servers=2)
        spec = small_workload(classes=(qclass,), num_servers=4)
        hosts = spec.query_servers(qclass, 0, 0)
        assert hosts == spec.query_servers(qclass, 0, 0)
        assert len(hosts) == 2
        assert set(hosts) <= set(spec.server_hosts)
        assert list(hosts) == sorted(hosts, key=spec.server_hosts.index)

    def test_full_pool_skips_subset_draw(self):
        spec = small_workload()
        assert spec.query_servers(spec.classes[0], 0, 0) == spec.server_hosts


class TestFromSimulationSpec:
    def test_wraps_as_one_query_closed_loop(self):
        sim = tiny_spec(Algorithm.LOCAL, images=4)
        wrapped = WorkloadSpec.from_simulation_spec(sim)
        assert wrapped.total_queries == 1
        assert isinstance(wrapped.arrivals, ClosedLoop)
        assert wrapped.arrivals.think_time == 0.0
        rebuilt = wrapped.query_spec(wrapped.classes[0], 0, 0)
        assert rebuilt == sim

    def test_preserves_nondefault_fields(self):
        sim = tiny_spec(
            Algorithm.GLOBAL,
            images=4,
            prefetch=False,
            relocation_period=120.0,
            workload_seed=77,
        )
        wrapped = WorkloadSpec.from_simulation_spec(sim)
        rebuilt = wrapped.query_spec(wrapped.classes[0], 0, 0)
        assert rebuilt == sim


#: Configuration 3 over two servers: each link's drawn library trace.
#: The draw keys on link order, not host names, so it is pinned here.
DRAW_3 = (
    (("h0", "h1"), "gatech~rutgers"),
    (("client", "h0"), "uiuc~wisc"),
    (("client", "h1"), "ucla~utexas"),
)


class TestResolveLinks:
    @pytest.mark.parametrize("client", ["client", "gw"])
    def test_draw_is_over_the_specs_own_hosts(self, client):
        spec = small_workload(
            num_servers=2, images_per_server=2, client_host=client, config_index=3
        )
        expected = [
            (tuple(sorted(client if h == "client" else h for h in key)), name)
            for key, name in DRAW_3
        ]
        links = spec.resolve_links()
        assert [(key, trace.name) for key, trace in links.items()] == expected
        default = small_workload(
            num_servers=2, images_per_server=2, config_index=3
        ).resolve_links()
        assert list(links.values()) == list(default.values())

    def test_custom_client_host_runs(self):
        from repro.workload import run_workload

        spec = small_workload(num_servers=2, images_per_server=2, client_host="gw")
        assert run_workload(spec).fleet["completed"] == 1

    def test_a_run_draws_its_network_once(self, monkeypatch):
        # Every query spec and the substrate share one draw.
        from repro.workload import run_workload
        from repro.workload import spec as workload_spec

        draws = []
        original = workload_spec.make_configuration

        def make_configuration(setup, config_index):
            draws.append(config_index)
            return original(setup, config_index)

        monkeypatch.setattr(workload_spec, "make_configuration", make_configuration)
        spec = small_workload(
            num_clients=3, queries_per_client=2, images_per_server=2
        )
        result = run_workload(spec)
        assert result.fleet["completed"] == 6
        assert draws == [spec.config_index]

    def test_study_draw_matches_make_configuration(self):
        from repro.experiments import ExperimentConfig
        from repro.experiments.config import make_configuration

        spec = WorkloadSpec(classes=(one_class(),), num_servers=4, config_index=2)
        config = ExperimentConfig(num_servers=4, seed=1998)
        assert spec.resolve_links() == make_configuration(config, 2)
