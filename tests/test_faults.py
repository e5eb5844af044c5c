"""Tests for the chaos engine, the hardened request path, and resilience
accounting: determinism of injected faults, retry/hedge/breaker behaviour,
graceful degradation, billing invariants under faults, and the failure
detector's robustness to nodes dying inside its own repair sweep."""

import pytest

from repro.cache.config import (
    CircuitBreakerPolicy,
    InfiniCacheConfig,
    ResilienceConfig,
    RetryPolicy,
    StragglerModel,
)
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.node import LambdaCacheNode
from repro.cluster.rebalancer import FailureDetector
from repro.exceptions import ConfigurationError
from repro.faas.billing import BILLING_CYCLE_SECONDS
from repro.faults import (
    ChaosEngine,
    FaultSchedule,
    FaultWindow,
    InvocationFaults,
    LinkBlackhole,
    LinkDegradation,
    ProxyCrash,
    ReclamationStorm,
    StragglerInflation,
    run_chaos_scenario,
)
from repro.faults.scenario import demo_config, demo_plans
from repro.utils.units import MB, MIB
from repro.workload.replay import ClosedLoopDriver
from repro.baselines.s3 import ObjectStore


def run_scenario(schedule, *, clients=4, rounds=10, seed=2020, config=None):
    """A short chaos replay: enough rounds to span a sub-30 s schedule."""
    return run_chaos_scenario(
        seed=seed, schedule=schedule, config=config, clients=clients, rounds=rounds,
    )


# --------------------------------------------------------------------------- specs
class TestFaultSpecs:
    def test_schedule_sorts_by_activation_time(self):
        schedule = FaultSchedule((
            ProxyCrash(at_s=50.0),
            ReclamationStorm(at_s=10.0),
            LinkBlackhole(at_s=30.0, duration_s=5.0),
        ))
        assert [fault.at_s for fault in schedule] == [10.0, 30.0, 50.0]
        assert len(schedule) == 3

    def test_horizon_covers_windows_and_downtime(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=100.0),
            LinkBlackhole(at_s=10.0, duration_s=50.0),
            ProxyCrash(at_s=20.0, down_s=90.0),
        ))
        assert schedule.horizon_s == pytest.approx(110.0)

    def test_describe_lists_every_fault(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=1.0, fraction=0.5, correlated=True),
            InvocationFaults(at_s=2.0, duration_s=3.0),
        ))
        described = schedule.describe()
        assert [entry["kind"] for entry in described] == [
            "ReclamationStorm", "InvocationFaults",
        ]
        assert described[0]["correlated"] is True

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            ReclamationStorm(at_s=-1.0)
        with pytest.raises(ConfigurationError):
            ReclamationStorm(at_s=0.0, fraction=0.0)
        with pytest.raises(ConfigurationError):
            LinkDegradation(at_s=0.0, duration_s=5.0, factor=1.0)
        with pytest.raises(ConfigurationError):
            LinkBlackhole(at_s=0.0, duration_s=0.0)
        with pytest.raises(ConfigurationError):
            InvocationFaults(at_s=0.0, duration_s=5.0, failure_probability=0.0)
        with pytest.raises(ConfigurationError):
            StragglerInflation(at_s=0.0, duration_s=5.0, min_factor=4.0, max_factor=2.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule(("not a fault",))


# --------------------------------------------------------------------------- engine determinism
class TestChaosDeterminism:
    def test_same_seed_same_schedule_same_fingerprint(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=5.0, fraction=0.4, correlated=True),
            InvocationFaults(at_s=10.0, duration_s=8.0, failure_probability=0.5),
        ))
        first = run_scenario(schedule)
        second = run_scenario(schedule)
        assert first.fingerprint == second.fingerprint
        assert first.resilience.to_dict() == second.resilience.to_dict()

    def test_different_seeds_diverge(self):
        schedule = FaultSchedule((ReclamationStorm(at_s=5.0, fraction=0.4),))
        assert (
            run_scenario(schedule, seed=1).fingerprint
            != run_scenario(schedule, seed=2).fingerprint
        )

    def test_empty_schedule_is_invisible(self):
        """Installing an engine with no faults must leave the run
        event-for-event identical to one with no engine at all."""

        def run(with_engine: bool) -> str:
            deployment = InfiniCacheDeployment(demo_config(seed=7))
            if with_engine:
                ChaosEngine(deployment, FaultSchedule(())).install()
            driver = ClosedLoopDriver(
                deployment, backing_store=ObjectStore(), warm_pool=True
            )
            return driver.run(demo_plans(clients=3, rounds=6)).fingerprint()

        assert run(with_engine=True) == run(with_engine=False)

    def test_engine_refuses_double_install(self):
        deployment = InfiniCacheDeployment(demo_config(seed=7))
        engine = ChaosEngine(deployment, FaultSchedule(()))
        engine.install()
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            engine.install()

    def test_faults_recorded_as_tracer_spans(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=5.0, fraction=0.3),
            LinkBlackhole(at_s=8.0, duration_s=4.0, host_fraction=0.5),
        ))
        deployment = InfiniCacheDeployment(demo_config(seed=7))
        from repro.obs import SpanTracer

        tracer = SpanTracer(deployment.simulator.clock)
        deployment.request_env.attach_tracer(tracer)
        engine = ChaosEngine(deployment, schedule)
        engine.install()
        driver = ClosedLoopDriver(
            deployment, backing_store=ObjectStore(), warm_pool=True
        )
        driver.run(demo_plans(clients=3, rounds=6))
        names = {span.name for span in tracer.spans}
        assert "fault.storm" in names
        assert "fault.blackhole" in names
        assert len(engine.windows) == 2


# --------------------------------------------------------------------------- hardened path
class TestHardenedRequestPath:
    def test_retries_absorb_invocation_faults(self):
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=10.0, failure_probability=0.5),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert report.requests == 40
        assert report.counters.get("proxy.chunk_retries", 0) > 0
        assert report.counters.get("faas.injected_faults", 0) > 0

    def test_hedging_fires_under_blackhole(self):
        schedule = FaultSchedule((
            LinkBlackhole(at_s=3.0, duration_s=12.0, host_fraction=1.0),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert report.requests == 40
        assert report.counters.get("proxy.chunk_hedges", 0) > 0

    def test_breaker_opens_under_sustained_faults(self):
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=15.0, failure_probability=1.0),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert report.requests == 40
        assert report.counters.get("proxy.breaker_rejections", 0) > 0
        # With every invocation failing, some GETs must fall back.
        assert report.degraded_hits > 0

    def test_degraded_fallback_serves_from_backing_store(self):
        """Every request completes even when no chunk quorum is reachable;
        the unreachable ones count as degraded hits, not errors."""
        schedule = FaultSchedule((
            LinkBlackhole(at_s=3.0, duration_s=12.0, host_fraction=1.0),
            InvocationFaults(at_s=3.0, duration_s=12.0, failure_probability=0.8),
        ))
        result = run_scenario(schedule)
        assert result.replay.requests == 40
        assert result.replay.degraded_hits > 0
        window_degraded = sum(
            stats.degraded_hits for stats in result.resilience.windows
        )
        assert window_degraded >= result.replay.degraded_hits > 0

    def test_degraded_object_stays_repairable(self):
        """A degraded GET leaves the mapping intact: once the fault clears,
        later GETs for the same keys hit the cache again."""
        schedule = FaultSchedule((
            InvocationFaults(at_s=2.0, duration_s=8.0, failure_probability=1.0),
        ))
        result = run_scenario(schedule, clients=3, rounds=14)
        report = result.resilience
        assert report.degraded_hits > 0
        window = report.windows[0]
        assert window.recovery_s is not None

    def test_recovery_after_correlated_storm(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=6.0, fraction=0.5, correlated=True),
        ))
        result = run_scenario(schedule)
        assert result.replay.requests == 40
        storm = result.resilience.windows[0]
        assert storm.window.details["reclaimed"] > 0
        assert storm.recovery_s is not None

    def test_unhardened_config_keeps_original_path(self):
        config = demo_config(seed=5, hardened=False)
        assert config.resilience is None
        deployment = InfiniCacheDeployment(config)
        for proxy in deployment.proxies:
            assert not proxy.resilience.hardened
            assert all(node.breaker is None for node in proxy.nodes)

    def test_hardened_run_without_faults_stays_healthy(self):
        result = run_scenario(FaultSchedule(()))
        assert result.replay.requests == 40
        assert result.replay.degraded_hits == 0
        assert result.resilience.counters.get("proxy.chunk_faults", 0) == 0
        assert result.resilience.slo_delta("p99") == 0.0


# --------------------------------------------------------------------------- billing under faults
class TestBillingUnderFaults:
    SCHEDULE = FaultSchedule((
        ReclamationStorm(at_s=4.0, fraction=0.4, correlated=True),
        ReclamationStorm(at_s=8.0, fraction=0.4),
        InvocationFaults(at_s=10.0, duration_s=8.0, failure_probability=0.6),
    ))

    def _run(self):
        config = demo_config(seed=2020)
        deployment = InfiniCacheDeployment(config)
        engine = ChaosEngine(deployment, self.SCHEDULE)
        engine.install()
        driver = ClosedLoopDriver(
            deployment, backing_store=ObjectStore(), warm_pool=True
        )
        replay = driver.run(demo_plans(clients=4, rounds=10, think_s=1.0))
        return deployment, replay

    def test_busy_seconds_bounded_by_wall_clock(self):
        """Reclaim-mid-fetch must not leak billed sessions: every node's
        closed sessions stay inside the run's wall-clock span."""
        deployment, replay = self._run()
        span = replay.duration_s
        for proxy in deployment.proxies:
            for node in proxy.nodes:
                for charge in node.duration_controller.closed_sessions:
                    assert charge.duration_s >= 0.0
                    assert charge.started_at >= 0.0
                    busy = sum(charge.busy_by_tenant.values())
                    assert busy <= charge.duration_s + 1e-6
                # Sessions are sequential per node: their total cannot
                # exceed the run span plus the final open cycle.
                total = sum(
                    charge.duration_s
                    for charge in node.duration_controller.closed_sessions
                )
                assert total <= span + BILLING_CYCLE_SECONDS

    def test_chargeback_conservation_holds_under_storm(self):
        deployment, _replay = self._run()
        billing = deployment.billing
        assert billing.total_cost > 0
        assert sum(billing.cost_by_tenant.values()) == pytest.approx(
            billing.total_cost
        )
        assert sum(billing.gb_seconds_by_tenant.values()) == pytest.approx(
            billing.total_gb_seconds
        )


# --------------------------------------------------------------------------- resilience report
class TestResilienceReport:
    def test_window_overlap_rules(self):
        window = FaultWindow(kind="storm", index=0, started_at=10.0, ended_at=20.0)

        class Sample:
            def __init__(self, start, finish):
                self.started_at = start
                self.finished_at = finish

        assert window.covers(Sample(9.0, 11.0))
        assert window.covers(Sample(19.0, 25.0))
        assert window.covers(Sample(12.0, 13.0))
        assert not window.covers(Sample(0.0, 9.9))
        assert not window.covers(Sample(20.1, 22.0))

    def test_report_folds_samples_into_windows(self):
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=10.0, failure_probability=0.5),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert len(report.windows) == 1
        stats = report.windows[0]
        assert stats.requests > 0
        assert 0.0 <= stats.availability <= 1.0
        assert stats.served_ratio == pytest.approx(1.0)
        payload = report.to_dict()
        assert payload["windows"][0]["kind"] == "invocation"
        assert any("availability" in line for line in report.format_lines())

    def test_empty_report_defaults(self):
        from repro.faults.report import ResilienceReport

        empty = ResilienceReport()
        assert empty.worst_availability() == 1.0
        assert empty.slo_delta("p99") == 0.0
        assert empty.to_dict()["windows"] == []


# --------------------------------------------------------------------------- failure detector
def make_detector_deployment(lambdas_per_proxy=10):
    deployment = InfiniCacheDeployment(
        InfiniCacheConfig(
            num_proxies=1,
            lambdas_per_proxy=lambdas_per_proxy,
            lambda_memory_bytes=512 * MIB,
            data_shards=4,
            parity_shards=2,
            straggler=StragglerModel(probability=0.0),
            seed=11,
        )
    )
    deployment.start()
    return deployment


def kill_node(deployment, node):
    for instance in (node.primary, node.backup_peer):
        if instance is not None and instance.is_alive:
            deployment.platform.reclaim_instance(instance)


class TestFailureDetectorUnderFaults:
    def test_sweep_survives_node_lost_during_its_own_repair(self, monkeypatch):
        """A node holding surviving chunks dies while the sweep cold-starts a
        replacement: the sweep must finish without raising and heal the rest
        on subsequent passes."""
        deployment = make_detector_deployment()
        detector = FailureDetector(deployment)
        client = deployment.new_client()
        keys = [f"obj-{index:03d}" for index in range(10)]
        for key in keys:
            client.put_sized(key, 2 * MB)
        proxy = deployment.proxies[0]
        for node in proxy.nodes[:2]:
            kill_node(deployment, node)

        original = LambdaCacheNode.ensure_active
        killed: list[str] = []

        def ensure_and_kill(self, now, category="serving"):
            access = original(self, now, category)
            if category == "repair" and not killed:
                victim = next(
                    node for node in proxy.nodes
                    if node is not self and node.is_alive
                )
                killed.append(victim.node_id)
                kill_node(deployment, victim)
            return access

        monkeypatch.setattr(LambdaCacheNode, "ensure_active", ensure_and_kill)
        repaired, lost = detector.sweep_once()  # must not raise
        assert killed, "the mid-sweep kill never triggered"
        monkeypatch.setattr(LambdaCacheNode, "ensure_active", original)
        # Later sweeps converge: every object is either healed or dropped.
        for _ in range(3):
            detector.sweep_once()
        assert detector.sweep_once() == (0, 0)
        for key in keys:
            if proxy.contains(key):
                assert client.get(key).hit

    def test_nested_sweep_is_skipped_not_reentered(self, monkeypatch):
        deployment = make_detector_deployment()
        detector = FailureDetector(deployment)
        client = deployment.new_client()
        for index in range(6):
            client.put_sized(f"obj-{index:03d}", 2 * MB)
        proxy = deployment.proxies[0]
        for node in proxy.nodes[:2]:
            kill_node(deployment, node)

        original = LambdaCacheNode.ensure_active
        nested: list[tuple[int, int]] = []

        def ensure_and_reenter(self, now, category="serving"):
            access = original(self, now, category)
            if category == "repair" and not nested:
                nested.append(detector.sweep_once())
            return access

        monkeypatch.setattr(LambdaCacheNode, "ensure_active", ensure_and_reenter)
        repaired, _lost = detector.sweep_once()
        assert nested == [(0, 0)], "the nested sweep must be skipped, not run"
        assert repaired > 0
        skips = deployment.metrics.counter(
            "cluster.failure_detector.reentrant_skips"
        ).value
        assert skips == 1

    def test_transient_fault_in_one_proxy_does_not_abort_sweep(self, monkeypatch):
        deployment = make_detector_deployment()
        detector = FailureDetector(deployment)
        client = deployment.new_client()
        for index in range(6):
            client.put_sized(f"obj-{index:03d}", 2 * MB)
        proxy = deployment.proxies[0]
        for node in proxy.nodes[:2]:
            kill_node(deployment, node)
        from repro.exceptions import TransientFaultError

        def exploding_audit(now, on_loss=None):
            raise TransientFaultError("audit died mid-repair")

        monkeypatch.setattr(proxy, "audit_and_repair", exploding_audit)
        assert detector.sweep_once() == (0, 0)  # must not raise
        aborted = deployment.metrics.counter(
            "cluster.failure_detector.aborted_audits"
        ).value
        assert aborted == 1


# --------------------------------------------------------------------------- backup interruption
class TestBackupUnderFaults:
    def test_interrupted_backup_round_is_retryable(self):
        deployment = make_detector_deployment()
        client = deployment.new_client()
        for index in range(6):
            client.put_sized(f"obj-{index:03d}", 2 * MB)
        manager = deployment.backup_managers[0]
        reports = manager.backup_all(now=1.0)
        assert any(report.performed for report in reports)
        # Arm certain invocation failure: the next round is interrupted for
        # every node but never raises out of backup_all.
        from repro.utils.rng import SeededRNG

        deployment.platform.set_invocation_faults(
            failure_probability=1.0, rng=SeededRNG(99),
        )
        client.put_sized("fresh-delta", 2 * MB)
        reports = manager.backup_all(now=120.0)
        assert all(not report.performed or report.delta_chunks == 0
                   for report in reports)
        interrupted = deployment.metrics.counter("backup.interrupted_rounds").value
        assert interrupted > 0
        deployment.platform.clear_invocation_faults()
        # The unsynced delta is retried successfully on the next round.
        reports = manager.backup_all(now=240.0)
        assert any(report.performed and report.delta_chunks > 0
                   for report in reports)


# --------------------------------------------------------------------------- warm-up under faults
class TestWarmupUnderFaults:
    def test_fault_window_over_warmup_tick_skips_nodes(self):
        # The window covers the 60 s warm-up tick; injected invocation
        # faults used to escape the warm-up round and abort the replay.
        result = run_chaos_scenario(schedule=FaultSchedule((
            InvocationFaults(at_s=50.0, duration_s=20.0, failure_probability=0.3),
        )))
        assert result.replay.requests == 6 * 70
        assert result.resilience.counters["proxy.warmup_faults"] > 0

    def test_fault_free_run_registers_no_warmup_fault_counter(self):
        # The full-length replay spans several warm-up ticks.
        result = run_chaos_scenario(schedule=FaultSchedule(()))
        assert result.replay.duration_s > 120.0
        assert "proxy.warmup_faults" not in result.replay.resilience
