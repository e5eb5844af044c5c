"""The four benchmark workloads, each stressing a different layer.

Every workload has the same shape:

* ``setup(seed, seconds)`` builds a fresh system from ``InfiniCacheConfig``
  defaults (plus the fields the workload names), generates its inputs from
  ``seed``, seeds the cache through the coroutine API and runs a warm
  prefix.  It returns the state and the wall time of each step.
* ``run(state, window)`` executes the timed window and records it in
  ``window``.  The window's simulated work is a fixed function of
  ``(seed, seconds)``, sized to take about ``seconds`` of host time, so
  every simulated quantity and work counter repeats exactly while the host
  time per request is measured per segment of the window.

No workload uses threads or processes: load comes from coroutines on the
program's own event loop.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from calibrate import REFERENCE_S, Calibrator
from layers import untimed
from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import ReproError
from repro.experiments.production import ProductionScale, build_deployment, build_trace
from repro.faas.platform import FaaSPlatform
from repro.faas.reclamation import ZipfBurstReclamationPolicy
from repro.faults.engine import ChaosEngine
from repro.faults.scenario import demo_config, demo_schedule
from repro.network.flows import FlowNetwork
from repro.sim.loop import EventLoop, PeriodicTask
from repro.sim.process import SimFuture, all_of
from repro.simulation.metrics import MetricRegistry
from repro.utils.rng import SeededRNG
from repro.utils.units import HOUR, MB, MIB, MINUTE
from repro.workload.replay import OpenLoopDriver
from repro.workload.trace import Trace, TraceRecord


@dataclass
class Window:
    """What one timed window did, measured and checked."""

    #: Timed requests: GETs and PUTs, or warm-up invocations.
    requests: int = 0
    #: ``(host seconds, requests completed)`` per timed segment.
    segments: list[tuple[float, int]] = field(default_factory=list)
    get_latencies_s: list[float] = field(default_factory=list)
    gets: int = 0
    hits: int = 0
    misses: int = 0
    degraded: int = 0
    resets: int = 0
    recoveries: int = 0
    #: Operations that raised or returned wrong bytes.
    failed_ops: int = 0
    #: Lambda bill of the window alone (cumulative cost delta).
    cost_usd: float = 0.0
    fingerprint: str = ""
    #: Workload-specific invariants that failed, by name.
    violations: list[str] = field(default_factory=list)
    #: Events the benchmark itself put on the loop (segment markers).
    marker_events: int = 0
    #: Brackets every segment with calibration samples when set (untraced runs).
    calibrator: Optional[Calibrator] = None
    #: Calibration samples: one before the first segment and one after each.
    calibrations: list[float] = field(default_factory=list)
    _started: float = 0.0
    _segment: Optional[SimFuture] = None
    _target: int = 0

    def begin(self) -> None:
        """Start timing a segment (calibrating first if nothing precedes it)."""
        if self.calibrator is not None and len(self.calibrations) == len(self.segments):
            self.calibrations.append(self.calibrator.sample())
        self._started = perf_counter()

    def end(self, requests: int) -> None:
        """Finish timing a segment that completed ``requests`` requests."""
        self.segments.append((perf_counter() - self._started, requests))
        if self.calibrator is not None:
            self.calibrations.append(self.calibrator.sample())

    def us_per_request(self, calibrated: bool = False) -> list[float]:
        """Host microseconds per request, one value per non-empty segment.

        Calibrated values are scaled to the reference host speed by the
        mean of the two calibration samples bracketing each segment.
        """
        values = []
        for index, (wall, count) in enumerate(self.segments):
            if count:
                scale = 1.0
                if calibrated:
                    bracket = self.calibrations[index:index + 2]
                    scale = REFERENCE_S / (sum(bracket) / len(bracket))
                values.append(wall * 1e6 / count * scale)
        return values

    def complete(self) -> None:
        """Count one finished request (called by the benchmark's clients)."""
        self.requests += 1
        if self.requests >= self._target:
            self._close_segment()

    def _close_segment(self, _future: object = None) -> None:
        if self._segment is not None and not self._segment.done:
            self._segment.resolve()

    def drive(self, loop: EventLoop, generators, per_segment: int) -> None:
        """Run closed-loop client coroutines to completion, timing every
        ``per_segment`` completed requests as one segment.

        Spawning runs each client's first step, so it is timed too.  A
        segment ends right after the event that completed its last request
        and the next one resumes from there, so the schedule is unchanged.
        """
        first = self.requests
        self._segment, self._target = SimFuture("perfbench.segment"), first + per_segment
        self.begin()
        processes = [loop.spawn(generator, label="perfbench.client") for generator in generators]
        finished = all_of([process.future for process in processes])
        finished.add_done_callback(self._close_segment)
        while True:
            if not finished.done:
                loop.run_until_complete(self._segment)
            self.end(self.requests - first)
            if finished.done:
                self._segment = None
                return
            first = self.requests
            self._segment, self._target = SimFuture("perfbench.segment"), first + per_segment
            self.begin()


@dataclass
class State:
    """A set-up system ready for its timed window."""

    loop: EventLoop
    registry: MetricRegistry
    #: The flow network, or ``None`` for a workload without one.
    flows: Optional[FlowNetwork]
    data: dict
    #: Digest of the system right after set-up; set-up repetitions agree on it.
    fingerprint: str = ""


def _digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(f"{line}\n".encode())
    return hasher.hexdigest()


def _seed_fingerprint(state: State) -> str:
    stats = state.loop.queue.stats()
    counters = sorted(untimed(state.registry, "counters")().items())
    return _digest([f"{state.loop.now:.9f}", stats["pushed"], stats["cancelled"], *counters])


class _Stopwatch:
    """Wall time of consecutive set-up steps."""

    def __init__(self) -> None:
        self.steps: dict[str, float] = {"build_s": 0.0, "seed_s": 0.0, "warm_s": 0.0}
        self._last = perf_counter()

    def lap(self, step: str) -> None:
        now = perf_counter()
        self.steps[step] += now - self._last
        self._last = now


def _run_all(loop: EventLoop, generators, label: str) -> None:
    processes = [loop.spawn(generator, label=label) for generator in generators]
    loop.run_until_complete(all_of([process.future for process in processes]))


# ---------------------------------------------------------------------- warm_get_fanout
class WarmGetFanout:
    """About 1,024 closed-loop clients issuing back-to-back warm GETs of 2 MB."""

    name = "warm_get_fanout"
    clients = 1024
    #: Back-to-back GETs per client per second of run time.
    gets_per_client_per_second = 0.6
    requests_per_segment = 256

    def setup(self, seed: int, seconds: float) -> tuple[State, dict[str, float]]:
        watch = _Stopwatch()
        # clients/4 proxies x 8 Lambdas keeps load per proxy constant and
        # below the 256-proxy cap the macro ladder uses.
        config = InfiniCacheConfig(
            num_proxies=self.clients // 4,
            lambdas_per_proxy=8,
            data_shards=4,
            parity_shards=2,
            backup_enabled=False,
            straggler=StragglerModel(probability=0.05),
            seed=seed,
        )
        deployment = InfiniCacheDeployment(config)
        clients = [deployment.new_client(f"fanout-{index}") for index in range(self.clients)]
        watch.lap("build_s")
        rng = random.Random(seed)
        objects = [
            (f"fanout/{index}", rng.randrange(19 * MB // 10, 21 * MB // 10))
            for index in range(self.clients)
        ]
        seeder = deployment.new_client("seeder")
        env = deployment.request_env
        _run_all(
            deployment.simulator,
            (seeder.put_sized_process(key, size, env) for key, size in objects),
            "seed",
        )
        watch.lap("seed_s")
        deployment.start()
        state = State(
            loop=deployment.simulator, registry=deployment.metrics, flows=deployment.flows,
            data={"deployment": deployment, "clients": clients, "objects": objects,
                  "gets": max(1, round(seconds * self.gets_per_client_per_second))},
        )
        # One untimed GET per client lets lazily built state (codec tables,
        # flow groups) exist before the clock starts.
        _run_all(state.loop, self._processes(state, 1, Window(), []), "fanout")
        watch.lap("warm_s")
        state.fingerprint = _seed_fingerprint(state)
        return state, watch.steps

    def _processes(self, state: State, gets: int, window: Window, log: list):
        env = state.data["deployment"].request_env

        def client_process(client, key):
            for _ in range(gets):
                started = env.now
                result = yield from client.get_process(key, env)
                window.complete()
                window.gets += 1
                window.hits += result.hit
                window.misses += not result.hit
                window.get_latencies_s.append(env.now - started)
                log.append(f"{client.client_id}|{result.hit}|{started:.9f}|{env.now:.9f}")

        return [
            client_process(client, key)
            for client, (key, _size) in zip(state.data["clients"], state.data["objects"])
        ]

    def run(self, state: State, window: Window) -> Window:
        deployment, loop = state.data["deployment"], state.loop
        log: list[str] = []
        cost_before = deployment.total_cost()
        marker = deployment.flows.trace_marker()
        window.drive(loop, self._processes(state, state.data["gets"], window, log),
                     self.requests_per_segment)
        deployment.stop()
        window.cost_usd = deployment.total_cost() - cost_before
        flows = [
            f"{i.label}|{i.host_id}|{i.size_bytes}|{i.started_at:.9f}|{i.ended_at:.9f}|"
            f"{int(i.completed)}"
            for i in deployment.flows.trace_since(marker)
        ]
        window.fingerprint = _digest(log + flows)
        if window.misses:
            window.violations.append(f"{window.misses} warm GETs missed")
        return window


# ---------------------------------------------------------------------- production_trace
class ProductionTrace:
    """Open-loop replay of the Dallas Docker-registry trace."""

    name = "production_trace"
    #: Trace hours replayed during set-up to fill the cache.
    prefix_hours = 2.0
    #: Timed trace hours per second of run time.
    window_hours_per_second = 0.4
    #: Trace seconds per timed segment.
    segment_s = 600.0

    def setup(self, seed: int, seconds: float) -> tuple[State, dict[str, float]]:
        watch = _Stopwatch()
        window_hours = seconds * self.window_hours_per_second
        scale = ProductionScale(duration_hours=self.prefix_hours + window_hours, seed=seed)
        deployment = build_deployment(scale, backup_enabled=True)
        watch.lap("build_s")
        trace = build_trace(scale)
        prefix_end = self.prefix_hours * HOUR
        prefix = [record for record in trace.records if record.timestamp < prefix_end]
        timed = trace.records[len(prefix):]
        watch.lap("seed_s")
        driver = OpenLoopDriver(deployment, backing_store=ObjectStore())
        driver.run(Trace.from_records(prefix, name="dallas.prefix"))
        # A prefix request may finish after the first timed arrivals; those
        # arrive the moment it ends.
        now = deployment.simulator.now
        timed = [
            record if record.timestamp >= now
            else TraceRecord(now, record.operation, record.key, record.size)
            for record in timed
        ]
        watch.lap("warm_s")
        state = State(
            loop=deployment.simulator, registry=deployment.metrics, flows=deployment.flows,
            data={"deployment": deployment, "driver": driver,
                  "trace": Trace.from_records(timed, name="dallas.window")},
        )
        state.fingerprint = _seed_fingerprint(state)
        return state, watch.steps

    def run(self, state: State, window: Window) -> Window:
        deployment, loop = state.data["deployment"], state.loop
        records = state.data["trace"].records
        # Segment boundaries are marker events on the simulated clock; each
        # segment's request count is its number of arrivals.  The markers
        # only read the host clock, so the replay is unchanged.
        boundaries = [
            records[0].timestamp + self.segment_s * index
            for index in range(1, int((records[-1].timestamp - records[0].timestamp)
                                      // self.segment_s) + 1)
        ]
        arrivals = [0] * (len(boundaries) + 1)
        segment = 0
        for record in records:
            while segment < len(boundaries) and record.timestamp >= boundaries[segment]:
                segment += 1
            arrivals[segment] += 1

        def close(index: int) -> None:
            window.end(arrivals[index])
            window.begin()

        for index, boundary in enumerate(boundaries):
            loop.schedule_at(boundary, lambda i=index: close(i), label="perfbench.segment")
        window.marker_events = len(boundaries)
        cost_before = deployment.total_cost()
        window.begin()
        report = state.data["driver"].run(state.data["trace"])
        window.end(arrivals[-1])
        window.requests = len(records)
        window.gets = report.requests
        window.hits, window.misses = report.hits, report.misses
        window.degraded = report.degraded_hits
        window.resets, window.recoveries = report.resets, report.recoveries
        window.get_latencies_s = report.latency_values()
        window.cost_usd = deployment.total_cost() - cost_before
        window.fingerprint = report.fingerprint()
        return window


# ---------------------------------------------------------------------- chaos_payload
class ChaosPayload:
    """Closed loop of real 1 MB payloads through the committed demo storm."""

    name = "chaos_payload"
    #: Closed-loop clients per second of run time.
    clients_per_second = 0.4
    keys = 64
    payload_bytes = 1 * MB
    put_share = 0.25
    mean_think_s = 0.5
    #: The demo storm's last window closes at 200 s; the loop runs past it.
    end_s = 240.0
    requests_per_segment = 64

    def setup(self, seed: int, seconds: float) -> tuple[State, dict[str, float]]:
        watch = _Stopwatch()
        deployment = InfiniCacheDeployment(demo_config(seed))
        # The storm is replayed exactly as committed: its windows are fixed
        # on the simulated clock, which set-up leaves well before 30 s.
        engine = ChaosEngine(deployment, demo_schedule())
        engine.install()
        watch.lap("build_s")
        generator = np.random.default_rng(seed)
        payloads = {
            f"chaos/{index:03d}": generator.bytes(self.payload_bytes)
            for index in range(self.keys)
        }
        rng = random.Random(seed)
        keys = sorted(payloads)
        clients = max(1, round(seconds * self.clients_per_second))
        # Enough operations that no client runs out before ``end_s``.
        plans = [
            [
                ("PUT" if rng.random() < self.put_share else "GET",
                 rng.choice(keys), rng.expovariate(1.0 / self.mean_think_s))
                for _ in range(int(self.end_s / self.mean_think_s) + 1)
            ]
            for _ in range(clients)
        ]
        store = ObjectStore()
        for key, payload in payloads.items():
            store.put(key, len(payload))
        seeder = deployment.new_client("seeder")
        env = deployment.request_env
        _run_all(
            deployment.simulator,
            (seeder.put_process(key, payload, env) for key, payload in payloads.items()),
            "seed",
        )
        watch.lap("seed_s")
        deployment.start()
        for proxy in deployment.proxies:
            proxy.warm_up_pool(deployment.simulator.now)
        watch.lap("warm_s")
        state = State(
            loop=deployment.simulator, registry=deployment.metrics, flows=deployment.flows,
            data={"deployment": deployment, "engine": engine, "payloads": payloads,
                  "plans": plans, "store": store},
        )
        state.fingerprint = _seed_fingerprint(state)
        return state, watch.steps

    def _client(self, state: State, client_id: str, plan, window: Window, log: list):
        deployment, payloads = state.data["deployment"], state.data["payloads"]
        store = state.data["store"]
        client = deployment.new_client(client_id)
        env = deployment.request_env
        for op, key, think_s in plan:
            if env.now >= self.end_s:
                return
            started = env.now
            outcome = op
            try:
                if op == "PUT":
                    client.invalidate(key)
                    yield from client.put_process(key, payloads[key], env)
                else:
                    result = yield from client.get_process(key, env)
                    window.gets += 1
                    if result.hit:
                        window.hits += 1
                        window.recoveries += result.recovery_performed
                        if result.value != payloads[key]:
                            window.failed_ops += 1
                            outcome = "GET.corrupt"
                        else:
                            outcome = "GET.hit"
                    elif result.degraded:
                        window.degraded += 1
                        outcome = "GET.degraded"
                        yield store.get(key)[1]
                    else:
                        window.misses += 1
                        window.resets += result.data_lost
                        outcome = "GET.miss"
                        yield store.get(key)[1]
                        yield from client.put_process(key, payloads[key], env)
                    window.get_latencies_s.append(env.now - started)
            except ReproError as error:
                window.failed_ops += 1
                outcome = f"{op}.error.{type(error).__name__}"
            window.complete()
            log.append(f"{client_id}|{key}|{outcome}|{started:.9f}|{env.now:.9f}")
            yield think_s

    def run(self, state: State, window: Window) -> Window:
        deployment, loop = state.data["deployment"], state.loop
        log: list[str] = []
        cost_before = deployment.total_cost()
        # Clients start no operation after ``end_s``; those in flight finish.
        window.drive(loop, [
            self._client(state, f"chaos-{index}", plan, window, log)
            for index, plan in enumerate(state.data["plans"])
        ], self.requests_per_segment)
        deployment.stop()
        window.cost_usd = deployment.total_cost() - cost_before
        windows = [
            f"{w.kind}|{w.index}|{w.started_at:.9f}|{w.ended_at:.9f}"
            for w in state.data["engine"].windows
        ]
        window.fingerprint = _digest(log + windows)
        if len(windows) < len(demo_schedule()):
            window.violations.append(
                f"only {len(windows)} of {len(demo_schedule())} fault windows ran"
            )
        return window


# ---------------------------------------------------------------------- reclaim_fleet
class ReclaimFleet:
    """The Figures 8/9 fleet: 400 functions re-invoked every minute."""

    name = "reclaim_fleet"
    functions = 400
    memory_bytes = 256 * MIB
    prefix_hours = 4
    #: Timed simulated hours per second of run time.
    window_hours_per_second = 3.0
    segment_s = 1 * HOUR

    def setup(self, seed: int, seconds: float) -> tuple[State, dict[str, float]]:
        watch = _Stopwatch()
        loop = EventLoop()
        platform = FaaSPlatform(
            simulator=loop,
            reclamation_policy=ZipfBurstReclamationPolicy(SeededRNG(seed)),
        )
        names = [f"fleet-{index:04d}" for index in range(self.functions)]
        for name in names:
            platform.register_function(name, self.memory_bytes)
        watch.lap("build_s")

        def warm_all() -> None:
            for name in names:
                invocation = platform.invoke(name)
                platform.complete_invocation(invocation.instance, 0.001, category="warmup")

        warm_all()
        PeriodicTask(loop, 1 * MINUTE, warm_all, label="driver.fleet_warmup").start()
        platform.start_reclamation_sweeps()
        loop.run_until(self.prefix_hours * HOUR)
        watch.lap("warm_s")
        hours = max(1, round(seconds * self.window_hours_per_second))
        state = State(
            loop=loop, registry=platform.metrics, flows=None,
            data={"platform": platform, "hours": hours},
        )
        state.fingerprint = _seed_fingerprint(state)
        return state, watch.steps

    def run(self, state: State, window: Window) -> Window:
        platform, loop = state.data["platform"], state.loop
        counters = untimed(platform.metrics, "counters")
        cost_before = platform.billing.total_cost
        start_s = loop.now
        invocations_before = counters().get("faas.invocations", 0.0)
        for _ in range(state.data["hours"]):
            done_before = counters().get("faas.invocations", 0.0)
            window.begin()
            loop.run_until(loop.now + self.segment_s)
            window.end(int(counters()["faas.invocations"] - done_before))
        window.requests = int(counters()["faas.invocations"] - invocations_before)
        window.cost_usd = platform.billing.total_cost - cost_before
        sweeps = untimed(platform.metrics, "series")("faas.reclaims_per_sweep")
        window.fingerprint = _digest(
            f"{time:.9f}|{value:g}" for time, value in sweeps.window(start_s, loop.now)
        )
        minutes = round((loop.now - start_s) / MINUTE)
        if window.requests != minutes * self.functions:
            window.violations.append(
                f"{window.requests} invocations, expected {minutes * self.functions}"
            )
        return window


WORKLOADS = {
    workload.name: workload
    for workload in (WarmGetFanout(), ProductionTrace(), ChaosPayload(), ReclaimFleet())
}
