"""Tests for the deployment builder and its periodic maintenance."""

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import ConfigurationError
from repro.faas.reclamation import IdleTimeoutPolicy, PoissonReclamationPolicy
from repro.utils.rng import SeededRNG
from repro.utils.units import HOUR, MB, MIB, MINUTE


def make_config(**overrides) -> InfiniCacheConfig:
    defaults = dict(
        num_proxies=1,
        lambdas_per_proxy=12,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        straggler=StragglerModel(probability=0.0),
        seed=42,
    )
    defaults.update(overrides)
    return InfiniCacheConfig(**defaults)


class TestConstruction:
    def test_builds_requested_topology(self):
        deployment = InfiniCacheDeployment(make_config(num_proxies=2, lambdas_per_proxy=8))
        assert len(deployment.proxies) == 2
        assert all(len(proxy.nodes) == 8 for proxy in deployment.proxies)
        assert deployment.pool_capacity_bytes() > 0

    def test_describe_includes_policy(self):
        deployment = InfiniCacheDeployment(make_config())
        description = deployment.describe()
        assert "reclamation_policy" in description
        assert description["rs_code"] == "(4+2)"

    def test_clients_get_unique_ids(self):
        deployment = InfiniCacheDeployment(make_config())
        assert deployment.new_client().client_id != deployment.new_client().client_id


class TestMaintenanceSchedules:
    def test_warmup_keeps_nodes_alive_under_idle_timeout(self):
        deployment = InfiniCacheDeployment(
            make_config(),
            reclamation_policy=IdleTimeoutPolicy(idle_timeout_s=27 * MINUTE),
        )
        deployment.start()
        client = deployment.new_client()
        client.put_sized("durable", 10 * MB)
        deployment.run_until(2 * HOUR)
        assert client.get("durable").hit
        deployment.stop()

    def test_no_warmup_loses_data_under_idle_timeout(self):
        """Disabling the warm-up (very long interval) lets the provider
        reclaim everything — the contrast that motivates warm-ups."""
        deployment = InfiniCacheDeployment(
            make_config(warmup_interval_s=12 * HOUR, backup_enabled=False),
            reclamation_policy=IdleTimeoutPolicy(idle_timeout_s=27 * MINUTE),
        )
        deployment.start()
        client = deployment.new_client()
        client.put_sized("fragile", 10 * MB)
        deployment.run_until(2 * HOUR)
        assert not client.get("fragile").hit
        deployment.stop()

    def test_backup_disabled_schedules_no_backup_cost(self):
        deployment = InfiniCacheDeployment(make_config(backup_enabled=False))
        deployment.start()
        client = deployment.new_client()
        client.put_sized("obj", 10 * MB)
        deployment.run_until(30 * MINUTE)
        deployment.stop()
        assert deployment.cost_breakdown().get("backup", 0.0) == 0.0

    def test_backup_enabled_accrues_backup_cost(self):
        deployment = InfiniCacheDeployment(make_config(backup_enabled=True))
        deployment.start()
        client = deployment.new_client()
        client.put_sized("obj", 10 * MB)
        deployment.run_until(30 * MINUTE)
        deployment.stop()
        assert deployment.cost_breakdown().get("backup", 0.0) > 0.0

    def test_cost_samples_recorded(self):
        deployment = InfiniCacheDeployment(make_config())
        deployment.start()
        deployment.run_until(10 * MINUTE)
        deployment.stop()
        assert deployment.metrics.has_series("cost.cumulative.total")
        series = deployment.metrics.series("cost.cumulative.total")
        assert len(series) >= 9
        # Cumulative cost is non-decreasing.
        assert series.values == sorted(series.values)

    def test_start_is_idempotent(self):
        deployment = InfiniCacheDeployment(make_config())
        deployment.start()
        deployment.start()
        deployment.run_until(2 * MINUTE)
        deployment.stop()

    def test_stop_halts_periodic_work(self):
        deployment = InfiniCacheDeployment(make_config())
        deployment.start()
        deployment.run_until(5 * MINUTE)
        deployment.stop()
        warmups_at_stop = deployment.counters().get("proxy.warmups", 0)
        deployment.run_until(30 * MINUTE)
        assert deployment.counters().get("proxy.warmups", 0) <= warmups_at_stop + 1


class TestCostAccounting:
    def test_idle_deployment_costs_only_maintenance(self):
        deployment = InfiniCacheDeployment(make_config())
        deployment.start()
        deployment.run_until(1 * HOUR)
        deployment.stop()
        breakdown = deployment.cost_breakdown()
        assert breakdown.get("serving", 0.0) == 0.0
        assert breakdown.get("warmup", 0.0) > 0.0
        assert deployment.total_cost() == pytest.approx(breakdown["total"])

    def test_serving_cost_appears_with_traffic(self):
        deployment = InfiniCacheDeployment(make_config())
        deployment.start()
        client = deployment.new_client()
        for i in range(5):
            client.put_sized(f"obj-{i}", 20 * MB)
            deployment.run_until(deployment.simulator.now + MINUTE)
            client.get(f"obj-{i}")
        deployment.run_until(deployment.simulator.now + 2 * MINUTE)
        deployment.stop()
        assert deployment.cost_breakdown().get("serving", 0.0) > 0.0

    def test_data_survives_bursty_reclamation_with_backup(self):
        """End-to-end fault tolerance: with warm-up + backup enabled, most
        objects survive a bursty reclamation regime."""
        deployment = InfiniCacheDeployment(
            make_config(),
            reclamation_policy=PoissonReclamationPolicy(SeededRNG(1), 0.3),
        )
        deployment.start()
        client = deployment.new_client()
        for i in range(10):
            client.put_sized(f"obj-{i}", 5 * MB)
        deployment.run_until(1 * HOUR)
        survived = sum(1 for i in range(10) if client.get(f"obj-{i}").hit)
        deployment.stop()
        assert survived >= 7


class TestArbiterSelection:
    """``config.flow_arbiter`` picks the flow network."""

    def test_default_config_builds_incremental_network(self):
        from repro.network.flows import FlowNetwork

        deployment = InfiniCacheDeployment(make_config())
        assert deployment.config.flow_arbiter == "incremental"
        assert type(deployment.flows) is FlowNetwork
        client = deployment.new_client("default-probe")
        client.put_sized("probe/key", 2 * MB)
        assert client.get("probe/key").hit

    def test_explicit_scalar_arbiters_are_honoured(self):
        from repro.network.flows import ReferenceFlowNetwork

        reference = InfiniCacheDeployment(make_config(flow_arbiter="reference"))
        assert type(reference.flows) is ReferenceFlowNetwork

    def test_vectorized_is_rejected(self):
        # A retired arbiter name must fail loudly, not alias another arbiter.
        with pytest.raises(ConfigurationError):
            make_config(flow_arbiter="vectorized")
