"""Simulator performance harness: events/sec as a first-class metric.

The ROADMAP's north star is a simulator that handles fleet-scale workloads
— thousands of concurrent closed-loop clients — which makes the *simulator's
own* throughput (dispatched events per wall-clock second) a quantity worth
measuring and guarding, exactly as caching simulators such as Icarus
benchmark their event cores.  This module is that measurement layer:

* **micro benchmarks** exercise one subsystem in isolation — the event
  queue's push/cancel/pop cycle (tombstone compaction) and the flow
  network's join/leave arbitration churn;
* **macro benchmarks** run the closed-loop replay driver end to end at
  fleet sizes (8 → 1024 clients) and report wall-clock, events/sec, and
  the peak number of simultaneously active flows;
* the **arbiter comparison** runs the same closed-loop scenario under the
  incremental bottleneck-group arbiter and the global-recompute
  :class:`~repro.network.flows.ReferenceFlowNetwork`, asserting both
  produce byte-identical replay fingerprints and reporting the speedup.

``python -m repro perf`` runs the suite and writes ``BENCH_perf.json``;
CI runs it with ``--quick`` and fails the build on fingerprint drift
(never on timing noise).  See ``docs/performance.md`` for how to read the
output.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.network.flows import resolve_arbiter
from repro.network.topology import NetworkFabric
from repro.sim.loop import EventLoop
from repro.utils.units import MB, MIB
from repro.workload.replay import ClosedLoopDriver

#: The fleet sizes the full suite sweeps (the quick CI variant trims this).
DEFAULT_CLIENT_COUNTS = (8, 64, 256, 1024, 4096)

#: Fleet size used for the incremental-vs-reference arbiter comparison.
DEFAULT_COMPARE_CLIENTS = 256


@dataclass
class PerfSample:
    """One benchmark measurement: wall-clock, event count, and context."""

    name: str
    wall_s: float
    events: int
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        """Dispatched events per wall-clock second (the headline metric)."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation for ``BENCH_perf.json``."""
        payload: dict[str, object] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
        }
        payload.update(self.extra)
        return payload


# ---------------------------------------------------------------------- micro
def micro_event_queue(events: int = 50_000, cancel_every: int = 2) -> PerfSample:
    """Push ``events`` timers, cancel every ``cancel_every``-th, drain the rest.

    Exercises the O(1) live counter and the tombstone compaction path: the
    cancelled half must neither linger in the heap nor slow the pops.
    """
    loop = EventLoop()
    start = time.perf_counter()
    scheduled = [
        loop.schedule((index % 97) * 0.001 + 0.001, lambda: None, label="perf.noop")
        for index in range(events)
    ]
    for index in range(0, events, cancel_every):
        scheduled[index].cancel()
    assert len(loop.queue) == events - len(range(0, events, cancel_every))
    loop.run_all(max_events=events + 1)
    wall = time.perf_counter() - start
    return PerfSample(
        name="micro.event_queue",
        wall_s=wall,
        events=loop.events_processed,
        extra={"scheduled": events, "cancelled": len(range(0, events, cancel_every))},
    )


def micro_flow_churn(
    flows: int = 2_000,
    hosts: int = 32,
    proxies: int = 8,
    arbiter: str = "incremental",
) -> PerfSample:
    """Raw arbitration churn: staggered transfers joining and leaving.

    Drives the flow network directly (no cache on top): ``flows`` transfers
    start at staggered times across ``hosts`` NICs and ``proxies`` uplinks,
    so every start and finish is a rate transition on a populated network.
    """
    loop = EventLoop()
    fabric = NetworkFabric(proxy_uplink_bps=2_000 * MB)
    network = resolve_arbiter(arbiter)(loop, fabric)

    start = time.perf_counter()
    for index in range(flows):
        loop.schedule_at(
            index * 0.002,
            lambda i=index: network.transfer(
                size_bytes=4 * MB,
                function_bandwidth_bps=80 * MB,
                host_id=f"h{i % hosts}",
                host_capacity_bps=200 * MB,
                proxy_id=f"p{i % proxies}",
                label=f"churn-{i}",
            ),
            label="perf.flow_start",
        )
    loop.run_all()
    wall = time.perf_counter() - start
    assert network.completed_flows == flows
    return PerfSample(
        name=f"micro.flow_churn[{arbiter}]",
        wall_s=wall,
        events=loop.events_processed,
        extra={
            "arbiter": arbiter,
            "flows": flows,
            "hosts": hosts,
            "proxies": proxies,
            "peak_active_flows": network.max_concurrent(),
        },
    )


# ---------------------------------------------------------------------- macro
def _fleet_config(clients: int, arbiter: str, seed: int) -> InfiniCacheConfig:
    """A deployment sized for ``clients`` concurrent closed-loop clients.

    Proxies scale with the fleet (as the cluster autoscaler would provision
    them) so the scenario stays in the regime the paper evaluates — client
    count grows, per-proxy load stays bounded.  1536 MiB functions get a VM
    host to themselves (paper §2.2), so NIC contention is per-node and the
    proxy uplinks stay unsaturated: each flow transition touches a handful
    of flows, not the fleet.
    """
    num_proxies = max(2, min(256, clients // 4))
    return InfiniCacheConfig(
        num_proxies=num_proxies,
        lambdas_per_proxy=8,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_enabled=False,
        straggler=StragglerModel(probability=0.05),
        flow_arbiter=arbiter,
        seed=seed,
    )


def macro_closed_loop(
    clients: int,
    requests_per_client: int = 6,
    objects_per_client: int = 2,
    object_size: int = 2 * MB,
    arbiter: str = InfiniCacheConfig.flow_arbiter,
    seed: int = 2020,
) -> PerfSample:
    """One closed-loop replay at fleet size ``clients``, instrumented.

    ``arbiter`` defaults to the config default, so the sweep times the
    arbiter users get.  Returns wall-clock, total dispatched events,
    events/sec, the peak number of simultaneously active flows, and the
    replay fingerprint (which the arbiter comparison checks for drift).
    Garbage left by earlier scenarios is collected before the clock starts
    so successive measurements do not bleed into each other.
    """
    deployment = InfiniCacheDeployment(_fleet_config(clients, arbiter, seed))
    seeder = deployment.new_client("perf-seeder")
    for index in range(clients):
        for obj in range(objects_per_client):
            seeder.put_sized(f"perf/{index}/obj-{obj}", object_size)
    plans = [
        [
            (f"perf/{index}/obj-{round_index % objects_per_client}", object_size)
            for round_index in range(requests_per_client)
        ]
        for index in range(clients)
    ]
    events_before = deployment.simulator.events_processed
    gc.collect()
    start = time.perf_counter()
    report = ClosedLoopDriver(deployment).run(plans)
    wall = time.perf_counter() - start
    events = deployment.simulator.events_processed - events_before
    return PerfSample(
        name=f"macro.closed_loop[{clients}]",
        wall_s=wall,
        events=events,
        extra={
            "arbiter": arbiter,
            "clients": clients,
            "requests": report.requests,
            "hit_ratio": report.hit_ratio,
            "peak_active_flows": report.peak_active_flows,
            "flow_intervals": len(report.flow_intervals),
            "sim_duration_s": report.duration_s,
            "fingerprint": report.fingerprint(),
        },
    )


def profile_closed_loop(
    clients: int,
    requests_per_client: int = 6,
    objects_per_client: int = 2,
    object_size: int = 2 * MB,
    seed: int = 2020,
) -> dict[str, object]:
    """One closed-loop replay with event-loop profiling on: where time goes.

    Produces the ``profile`` section of ``BENCH_perf.json``: wall-clock
    split into the loop's own phases — heap push/pop, coroutine steps,
    flow-arbiter settle/re-aim transitions, and total callback dispatch —
    plus per-label scheduled/dispatched/cancelled counts and the heaviest
    callback labels by self-time.  The phases are *attributions*, not a
    disjoint partition: coroutine steps and arbiter transitions mostly run
    inside dispatched callbacks (so they largely nest within
    ``dispatch_s``), but the first step of a freshly spawned process runs
    at spawn time, outside any callback.  ``other_s`` is the wall-clock
    not spent in callback dispatch or heap operations (driver and loop
    bookkeeping, including those spawn-time steps).
    """
    deployment = InfiniCacheDeployment(_fleet_config(clients, "incremental", seed))
    seeder = deployment.new_client("perf-profiler")
    for index in range(clients):
        for obj in range(objects_per_client):
            seeder.put_sized(f"perf/{index}/obj-{obj}", object_size)
    plans = [
        [
            (f"perf/{index}/obj-{round_index % objects_per_client}", object_size)
            for round_index in range(requests_per_client)
        ]
        for index in range(clients)
    ]
    deployment.simulator.enable_profiling()
    gc.collect()
    start = time.perf_counter()
    ClosedLoopDriver(deployment).run(plans)
    wall = time.perf_counter() - start
    profile = deployment.simulator.profile
    snapshot = profile.snapshot()
    phases = dict(snapshot["phases"])
    # coroutine_steps_s and arbiter_s nest inside dispatch_s, so only the
    # top-level meters count toward "accounted" wall-clock.
    phases["other_s"] = max(wall - phases["dispatch_s"] - phases["heap_ops_s"], 0.0)
    return {
        "schema": "repro.perf.profile/1",
        "clients": clients,
        "wall_s": wall,
        "events": profile.events_dispatched,
        "phases": phases,
        "counts": snapshot["counts"],
        "top_labels": profile.top_labels(limit=10),
    }


#: Keys the ``profile`` section's ``phases`` mapping must carry.
PROFILE_PHASE_KEYS = (
    "dispatch_s", "heap_ops_s", "coroutine_steps_s", "arbiter_s", "other_s",
)

#: Keys the ``profile`` section's ``counts`` mapping must carry.
PROFILE_COUNT_KEYS = (
    "scheduled", "dispatched", "cancelled",
    "coroutine_steps", "arbiter_transitions",
)


def validate_profile(section: object) -> list[str]:
    """Schema-validate a ``profile`` section; returns human-readable errors.

    The ``--quick`` CI step runs this over the freshly written
    ``BENCH_perf.json`` so a refactor of the loop instrumentation cannot
    silently drop a phase or count from the payload.
    """
    errors: list[str] = []
    if not isinstance(section, dict):
        return [f"profile section must be an object, got {type(section).__name__}"]
    if section.get("schema") != "repro.perf.profile/1":
        errors.append(f"unexpected profile schema {section.get('schema')!r}")
    for key in ("clients", "events"):
        if not isinstance(section.get(key), int) or section.get(key, -1) < 0:
            errors.append(f"profile.{key} must be a non-negative integer")
    if not isinstance(section.get("wall_s"), (int, float)) or section.get("wall_s", -1) < 0:
        errors.append("profile.wall_s must be a non-negative number")
    phases = section.get("phases")
    if not isinstance(phases, dict):
        errors.append("profile.phases must be an object")
    else:
        for key in PROFILE_PHASE_KEYS:
            value = phases.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"profile.phases.{key} must be a non-negative number")
    counts = section.get("counts")
    if not isinstance(counts, dict):
        errors.append("profile.counts must be an object")
    else:
        for key in PROFILE_COUNT_KEYS:
            value = counts.get(key)
            if not isinstance(value, int) or value < 0:
                errors.append(f"profile.counts.{key} must be a non-negative integer")
    top_labels = section.get("top_labels")
    if not isinstance(top_labels, list):
        errors.append("profile.top_labels must be a list")
    else:
        for entry in top_labels:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("label"), str)
                or not isinstance(entry.get("self_s"), (int, float))
                or not isinstance(entry.get("dispatched"), int)
            ):
                errors.append(f"malformed top_labels entry: {entry!r}")
                break
    return errors


def compare_arbiters(
    clients: int = DEFAULT_COMPARE_CLIENTS, **macro_kwargs: object
) -> dict[str, object]:
    """Same scenario, both arbiters: speedup plus a fingerprint-drift check.

    The reference arbiter re-examines *every* active flow on each
    transition; the incremental arbiter touches only the two affected
    bottleneck groups.  Both must replay the workload byte-for-byte
    identically — ``fingerprints_identical`` is what CI gates on, because
    it is immune to timing noise.
    """
    incremental = macro_closed_loop(clients, arbiter="incremental", **macro_kwargs)
    reference = macro_closed_loop(clients, arbiter="reference", **macro_kwargs)
    identical = incremental.extra["fingerprint"] == reference.extra["fingerprint"]
    return {
        "clients": clients,
        "incremental_wall_s": incremental.wall_s,
        "reference_wall_s": reference.wall_s,
        "speedup": reference.wall_s / incremental.wall_s if incremental.wall_s > 0 else 0.0,
        "incremental_events_per_s": incremental.events_per_s,
        "reference_events_per_s": reference.events_per_s,
        "fingerprint": incremental.extra["fingerprint"],
        "fingerprints_identical": identical,
    }


# ---------------------------------------------------------------------- suite
#: Quick-mode rungs: 256 stays in so the CI throughput guard has a committed
#: ``events_per_s`` to compare against at a meaningful fleet size.
QUICK_CLIENT_COUNTS = (8, 64, 256)


def check_regression(
    payload: dict[str, object],
    baseline: dict[str, object],
    threshold: float = 0.30,
    min_clients: int = 256,
) -> list[str]:
    """Compare a fresh suite payload against a committed baseline.

    Returns one error string per macro rung present in *both* payloads whose
    fresh ``events_per_s`` fell more than ``threshold`` below the committed
    value.  Rungs only one side ran (quick mode trims the sweep) are
    skipped, as are rungs below ``min_clients`` — the small fleets finish
    in well under a second, so their events/s swings ±30 % run to run on
    interpreter warm-up alone and would make the gate flake.  Everything
    other than macro throughput is likewise ignored: micro timings and
    wall-clocks are too noisy to gate on.
    """
    errors: list[str] = []
    committed = {
        sample["clients"]: sample
        for sample in baseline.get("macro", ())
        if isinstance(sample, dict) and "clients" in sample
    }
    for sample in payload.get("macro", ()):
        if (sample.get("clients") or 0) < min_clients:
            continue
        reference = committed.get(sample.get("clients"))
        if reference is None:
            continue
        committed_rate = reference.get("events_per_s", 0.0)
        fresh_rate = sample.get("events_per_s", 0.0)
        if committed_rate > 0 and fresh_rate < (1.0 - threshold) * committed_rate:
            errors.append(
                f"macro.closed_loop[{sample['clients']}] throughput regressed: "
                f"{fresh_rate:.0f} events/s is more than {threshold:.0%} below "
                f"the committed {committed_rate:.0f} events/s"
            )
    return errors


def run_suite(
    client_counts: tuple[int, ...] | None = None,
    compare_clients: int | None = None,
    quick: bool = False,
    skip_compare: bool = False,
) -> dict[str, object]:
    """Run the full perf suite; returns the ``BENCH_perf.json`` payload.

    Args:
        client_counts: fleet sizes for the closed-loop macro sweep; when
            omitted, ``quick`` picks between the default and the trimmed
            CI sweep.  An explicit value is always honored as given.
        compare_clients: fleet size for the incremental-vs-reference
            comparison; when omitted, 256 (or the largest swept fleet
            under ``quick``).  An explicit value is always honored.
        quick: CI smoke mode — defaults to small fleets and compares at
            the largest of them, keeping the step seconds-fast.
        skip_compare: omit the arbiter comparison entirely.
    """
    if client_counts is None:
        client_counts = QUICK_CLIENT_COUNTS if quick else DEFAULT_CLIENT_COUNTS
    if compare_clients is None:
        compare_clients = max(client_counts) if quick else DEFAULT_COMPARE_CLIENTS
    micro = [
        micro_event_queue(events=10_000 if quick else 50_000),
        micro_flow_churn(flows=500 if quick else 2_000, arbiter="incremental"),
        micro_flow_churn(flows=500 if quick else 2_000, arbiter="reference"),
    ]
    # The comparison runs before the big sweeps so its timing is not skewed
    # by heap growth from the larger fleets; the micro pass above doubles as
    # cache warm-up (hash-ring points, shared RS matrices).
    comparison = None if skip_compare else compare_arbiters(compare_clients)
    macro = [macro_closed_loop(clients) for clients in client_counts]
    profile = profile_closed_loop(max(client_counts))
    payload: dict[str, object] = {
        "schema": "repro.perf/1",
        "quick": quick,
        "unix_time": time.time(),
        "micro": [sample.as_dict() for sample in micro],
        "macro": [sample.as_dict() for sample in macro],
        "profile": profile,
    }
    if comparison is not None:
        payload["arbiter_comparison"] = comparison
    return payload


def format_report(payload: dict[str, object]) -> str:
    """Human-readable rendering of a ``run_suite`` payload."""
    from repro.experiments.report import format_table

    micro_rows = [
        [sample["name"], sample["wall_s"], sample["events"], sample["events_per_s"]]
        for sample in payload["micro"]
    ]
    macro_rows = [
        [
            sample["clients"],
            sample["wall_s"],
            sample["events"],
            sample["events_per_s"],
            sample["peak_active_flows"],
            sample["sim_duration_s"],
        ]
        for sample in payload["macro"]
    ]
    lines = [
        format_table(
            ["benchmark", "wall_s", "events", "events/s"],
            micro_rows,
            title="Micro benchmarks (event queue + flow arbitration)",
        ),
        "",
        format_table(
            ["clients", "wall_s", "events", "events/s", "peak_flows", "sim_s"],
            macro_rows,
            title="Closed-loop macro sweep (incremental arbiter)",
        ),
    ]
    profile = payload.get("profile")
    if profile:
        phases = profile["phases"]
        phase_rows = [
            [key.removesuffix("_s"), phases[key], phases[key] / profile["wall_s"]
             if profile["wall_s"] > 0 else 0.0]
            for key in PROFILE_PHASE_KEYS
        ]
        lines.append("")
        lines.append(
            format_table(
                ["phase", "wall_s", "share"],
                phase_rows,
                title=(
                    f"Event-loop profile at {profile['clients']} clients "
                    "(phases are attributions, not a disjoint partition)"
                ),
            )
        )
        top = profile.get("top_labels") or []
        if top:
            lines.append(
                format_table(
                    ["label", "dispatched", "self_s"],
                    [[row["label"], row["dispatched"], row["self_s"]] for row in top[:5]],
                    title="Hottest callback labels",
                )
            )
    comparison = payload.get("arbiter_comparison")
    if comparison:
        lines.append("")
        lines.append(
            f"arbiter comparison at {comparison['clients']} clients: "
            f"incremental {comparison['incremental_wall_s']:.2f}s vs "
            f"reference {comparison['reference_wall_s']:.2f}s "
            f"-> {comparison['speedup']:.1f}x speedup; "
            "fingerprints "
            + ("identical" if comparison["fingerprints_identical"] else "DIVERGED")
        )
    return "\n".join(lines)
