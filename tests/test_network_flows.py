"""Tests for the flow-level network model: dynamic bandwidth sharing.

Satellite coverage for ``NetworkFabric`` shared-NIC accounting under flows
that join and leave mid-transfer — the dynamic path the event-driven
request drivers exercise — plus the differential property test pinning the
incremental bottleneck-group arbiter byte-for-byte against the
global-recompute reference.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import SimulationError
from repro.network.flows import FlowNetwork, ReferenceFlowNetwork, resolve_arbiter
from repro.network.topology import NetworkFabric
from repro.sim import EventLoop, first_n

MB = 1_000_000.0


def make_network(proxy_uplink_bps: float = 10_000 * MB) -> tuple[EventLoop, FlowNetwork]:
    loop = EventLoop()
    fabric = NetworkFabric(proxy_uplink_bps=proxy_uplink_bps)
    return loop, FlowNetwork(loop, fabric)


def start(net: FlowNetwork, *, size: float, host: str = "h0", cap: float = 100 * MB,
          fn_cap: float = 1_000 * MB, proxy: str = "p0", label: str = ""):
    return net.transfer(
        size_bytes=size, function_bandwidth_bps=fn_cap, host_id=host,
        host_capacity_bps=cap, proxy_id=proxy, label=label,
    )


class TestSoloFlow:
    def test_completes_at_size_over_bottleneck(self):
        loop, net = make_network()
        flow = start(net, size=100 * MB)  # host NIC 100 MB/s is the bottleneck
        done = []
        flow.future.add_done_callback(lambda f: done.append(loop.now))
        loop.run_all()
        assert done == [pytest.approx(1.0)]
        assert net.active_count == 0
        [interval] = net.trace
        assert interval.completed
        assert interval.started_at == 0.0
        assert interval.ended_at == pytest.approx(1.0)
        assert interval.bytes_moved == pytest.approx(100 * MB)

    def test_function_cap_binds_when_smaller(self):
        loop, net = make_network()
        flow = start(net, size=50 * MB, fn_cap=50 * MB)
        loop.run_all()
        assert flow.future.done
        assert net.trace[0].ended_at == pytest.approx(1.0)

    def test_rejects_degenerate_flows(self):
        loop, net = make_network()
        with pytest.raises(SimulationError):
            start(net, size=0)
        with pytest.raises(SimulationError):
            start(net, size=1.0, fn_cap=0)


class TestJoinAndLeaveMidTransfer:
    def test_joiner_slows_the_incumbent_and_departure_speeds_it_up(self):
        loop, net = make_network()
        nic_capacity = 100 * MB
        incumbent = start(net, size=100 * MB, cap=nic_capacity, label="incumbent")
        ends: dict[str, float] = {}
        incumbent.future.add_done_callback(lambda f: ends.setdefault("incumbent", loop.now))

        # At t=0.5 the incumbent has moved 50 MB; a joiner halves its share.
        loop.run_until(0.5)
        joiner = start(net, size=25 * MB, cap=nic_capacity, label="joiner")
        joiner.future.add_done_callback(lambda f: ends.setdefault("joiner", loop.now))
        nic = net.fabric.hosts["h0"]
        assert nic.concurrent_flows == 2
        assert incumbent.rate_bps == pytest.approx(nic_capacity / 2)

        loop.run_all()
        # Joiner: 25 MB at 50 MB/s -> finishes at t=1.0; incumbent then has
        # 25 MB left and the full NIC again -> finishes at t=1.25 (instead
        # of t=1.0 solo or t=1.5 under a static halved share).
        assert ends["joiner"] == pytest.approx(1.0)
        assert ends["incumbent"] == pytest.approx(1.25)
        assert nic.concurrent_flows == 0

    def test_nic_accounting_tracks_live_membership(self):
        loop, net = make_network()
        first = start(net, size=100 * MB)
        assert net.flows_on_host("h0") == 1
        loop.run_until(0.2)
        second = start(net, size=100 * MB)
        assert net.flows_on_host("h0") == 2
        # Per-flow share is capacity / live flows, straight from the NIC.
        assert net.fabric.hosts["h0"].effective_bandwidth() == pytest.approx(50 * MB)
        loop.run_all()
        assert net.flows_on_host("h0") == 0
        assert first.future.done and second.future.done

    def test_byte_conservation_across_rate_changes(self):
        loop, net = make_network()
        sizes = [80 * MB, 50 * MB, 20 * MB]
        flows = []
        for index, size in enumerate(sizes):
            loop.run_until(0.1 * index)
            flows.append(start(net, size=size, label=f"f{index}"))
        loop.run_all()
        assert len(net.trace) == 3
        for interval, size in zip(sorted(net.trace, key=lambda i: i.flow_id), sizes):
            assert interval.completed
            assert interval.bytes_moved == pytest.approx(size)


class TestCancellation:
    def test_cancel_releases_share_and_records_partial_progress(self):
        loop, net = make_network()
        survivor = start(net, size=100 * MB, label="survivor")
        straggler = start(net, size=100 * MB, label="straggler")
        loop.run_until(0.5)  # each has moved 25 MB at 50 MB/s
        assert net.cancel(straggler) is True
        assert straggler.future.cancelled
        partial = [i for i in net.trace if not i.completed]
        assert len(partial) == 1
        assert partial[0].label == "straggler"
        assert partial[0].bytes_moved == pytest.approx(25 * MB)
        loop.run_all()
        # Survivor gets the full NIC back: 75 MB at 100 MB/s from t=0.5.
        done = [i for i in net.trace if i.completed]
        assert done[0].ended_at == pytest.approx(1.25)
        assert net.fabric.hosts["h0"].concurrent_flows == 0

    def test_cancelling_the_future_tears_down_the_flow(self):
        loop, net = make_network()
        flow = start(net, size=100 * MB)
        loop.run_until(0.25)
        flow.future.cancel()
        assert net.active_count == 0
        assert not net.trace[0].completed
        loop.run_all()  # the stale completion event must not fire
        assert len(net.trace) == 1

    def test_double_cancel_is_a_noop(self):
        loop, net = make_network()
        flow = start(net, size=10 * MB)
        assert net.cancel(flow) is True
        assert net.cancel(flow) is False


class TestProxyUplinkSharing:
    def test_same_proxy_flows_split_the_uplink(self):
        loop, net = make_network(proxy_uplink_bps=100 * MB)
        a = start(net, size=50 * MB, host="h0", cap=1_000 * MB, proxy="p0")
        b = start(net, size=50 * MB, host="h1", cap=1_000 * MB, proxy="p0")
        assert a.rate_bps == pytest.approx(50 * MB)
        assert b.rate_bps == pytest.approx(50 * MB)
        assert net.streams_on_proxy("p0") == 2
        loop.run_all()
        assert net.trace[0].ended_at == pytest.approx(1.0)

    def test_distinct_proxies_do_not_contend(self):
        loop, net = make_network(proxy_uplink_bps=100 * MB)
        a = start(net, size=50 * MB, host="h0", cap=1_000 * MB, proxy="p0")
        b = start(net, size=50 * MB, host="h1", cap=1_000 * MB, proxy="p1")
        assert a.rate_bps == pytest.approx(100 * MB)
        assert b.rate_bps == pytest.approx(100 * MB)
        loop.run_all()
        assert all(i.ended_at == pytest.approx(0.5) for i in net.trace)


class TestTraceIntrospection:
    def test_max_concurrent_counts_overlapping_intervals(self):
        loop, net = make_network()
        start(net, size=100 * MB, host="h0")
        start(net, size=100 * MB, host="h1")
        loop.run_until(0.5)
        start(net, size=10 * MB, host="h2")
        loop.run_all()
        assert net.max_concurrent() == 3

    def test_intervals_overlap_predicate(self):
        loop, net = make_network()
        start(net, size=100 * MB, host="h0")
        start(net, size=50 * MB, host="h1")
        loop.run_all()
        first, second = net.trace
        assert first.overlaps(second) and second.overlaps(first)


# ---------------------------------------------------------------------- incremental arbiter
def _random_schedule(seed: int, operations: int = 120):
    """A reproducible join/leave/abandon schedule over shared NICs/uplinks.

    Returns ``(time, kind, params)`` records: ``start`` entries open a
    transfer at a staggered timestamp; ``abandon`` entries cancel a started
    transfer some time later (a no-op if it already completed, which both
    arbiters must agree on).
    """
    rng = random.Random(seed)
    schedule = []
    for index in range(operations):
        start_at = round(rng.uniform(0.0, 3.0), 6)
        params = dict(
            size_bytes=rng.choice([1, 4, 10, 25]) * MB,
            function_bandwidth_bps=rng.choice([40, 80, 1_000]) * MB,
            host_id=f"h{rng.randrange(6)}",
            host_capacity_bps=100 * MB,
            proxy_id=f"p{rng.randrange(3)}",
            label=f"op-{index}",
        )
        schedule.append((start_at, "start", params))
        if rng.random() < 0.35:
            schedule.append((round(start_at + rng.uniform(0.01, 1.0), 6), "abandon", f"op-{index}"))
    schedule.sort(key=lambda item: (item[0], item[1] == "start"))
    return schedule


def _drive(network_cls, seed: int):
    loop = EventLoop()
    net = network_cls(loop, NetworkFabric(proxy_uplink_bps=400 * MB))
    flows: dict[str, object] = {}

    def start(params):
        flows[params["label"]] = net.transfer(**params)

    def abandon(label):
        flow = flows.get(label)
        if flow is not None:
            net.cancel(flow)

    for time, kind, payload in _random_schedule(seed):
        if kind == "start":
            loop.schedule_at(time, lambda p=payload: start(p), label="diff.start")
        else:
            loop.schedule_at(time, lambda l=payload: abandon(l), label="diff.abandon")
    loop.run_all()
    return net, loop


class TestIncrementalMatchesReference:
    """The correctness pin: the incremental arbiter is byte-identical."""

    @pytest.mark.parametrize("network_cls", [pytest.param(FlowNetwork, id="incremental")])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2020, 31337])
    def test_differential_random_schedules(self, network_cls, seed):
        incremental, inc_loop = _drive(network_cls, seed)
        reference, ref_loop = _drive(ReferenceFlowNetwork, seed)
        # Byte-for-byte: every retired interval (timestamps, byte counts,
        # completion flags) and the retirement order itself must match.
        assert incremental.trace == reference.trace
        assert incremental.max_concurrent() == reference.max_concurrent()
        assert incremental.flow_stats() == reference.flow_stats()
        # Virtual time is identical; the *dispatch* counts may differ (the
        # lazy completion timers add cheap early firings that re-arm, while
        # the eager reference cancels and reschedules instead) — but the
        # lazy idiom must never cancel more events than the eager one.
        assert inc_loop.now == ref_loop.now
        assert (
            inc_loop.queue.stats()["cancelled"] <= ref_loop.queue.stats()["cancelled"]
        )

    def test_groups_empty_after_drain(self):
        net, _loop = _drive(FlowNetwork, seed=3)
        assert net.active_count == 0
        assert net._by_host == {}
        assert net._by_proxy == {}
        assert all(nic.concurrent_flows == 0 for nic in net.fabric.hosts.values())


class TestRunningPeak:
    def test_peak_is_running_high_water_mark(self):
        loop, net = make_network()
        start(net, size=100 * MB, host="h0")
        start(net, size=100 * MB, host="h1")
        assert net.max_concurrent() == 2
        loop.run_all()
        # The peak survives after every flow retires (O(1), no trace sweep).
        assert net.active_count == 0
        assert net.max_concurrent() == 2

    def test_peak_ignores_back_to_back_transfers(self):
        loop, net = make_network()
        first = start(net, size=10 * MB)
        loop.run_all()
        assert first.future.done
        start(net, size=10 * MB)
        loop.run_all()
        assert net.max_concurrent() == 1

    def test_peak_counts_abandoned_flows_while_live(self):
        loop, net = make_network()
        straggler = start(net, size=100 * MB)
        start(net, size=100 * MB)
        net.cancel(straggler)
        loop.run_all()
        assert net.max_concurrent() == 2


class TestTraceLimit:
    def test_rejects_negative_limit(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            FlowNetwork(loop, NetworkFabric(), trace_limit=-1)

    def test_retains_only_the_newest_intervals(self):
        loop = EventLoop()
        net = FlowNetwork(loop, NetworkFabric(proxy_uplink_bps=10_000 * MB), trace_limit=3)
        for index in range(8):
            loop.schedule_at(
                float(index),
                lambda i=index: net.transfer(
                    size_bytes=1 * MB, function_bandwidth_bps=100 * MB,
                    host_id=f"h{i}", host_capacity_bps=100 * MB,
                    proxy_id="p0", label=f"t{i}",
                ),
            )
        loop.run_all()
        assert len(net.trace) == 3
        assert [interval.label for interval in net.trace] == ["t5", "t6", "t7"]
        assert net.trace_dropped == 5

    def test_aggregates_unchanged_by_eviction(self):
        def totals(trace_limit):
            loop = EventLoop()
            net = FlowNetwork(
                loop, NetworkFabric(proxy_uplink_bps=10_000 * MB), trace_limit=trace_limit
            )
            flows = []
            for index in range(10):
                loop.schedule_at(
                    index * 0.1,
                    lambda i=index: flows.append(net.transfer(
                        size_bytes=5 * MB, function_bandwidth_bps=100 * MB,
                        host_id=f"h{i % 2}", host_capacity_bps=100 * MB,
                        proxy_id="p0", label=f"t{i}",
                    )),
                )
            loop.schedule_at(0.25, lambda: net.cancel(flows[0]))
            loop.run_all()
            return net.flow_stats(), net.max_concurrent()

        unbounded_stats, unbounded_peak = totals(None)
        bounded_stats, bounded_peak = totals(2)
        for key in ("completed_flows", "abandoned_flows", "bytes_completed",
                    "bytes_abandoned", "peak_concurrent_flows"):
            assert bounded_stats[key] == unbounded_stats[key]
        assert bounded_peak == unbounded_peak
        assert bounded_stats["trace_retained"] == 2.0

    def test_trace_since_survives_eviction(self):
        loop = EventLoop()
        net = FlowNetwork(loop, NetworkFabric(proxy_uplink_bps=10_000 * MB), trace_limit=2)
        marker = net.trace_marker()
        for index in range(5):
            loop.schedule_at(
                float(index),
                lambda i=index: net.transfer(
                    size_bytes=1 * MB, function_bandwidth_bps=100 * MB,
                    host_id="h0", host_capacity_bps=100 * MB,
                    proxy_id="p0", label=f"t{i}",
                ),
            )
        loop.run_all()
        # Three of the five intervals were evicted; the window degrades to
        # whatever is still retained instead of mis-slicing by stale index.
        assert [i.label for i in net.trace_since(marker)] == ["t3", "t4"]
        assert net.trace_since(net.trace_marker()) == []


class TestQuorumTieOrder:
    """Heap tie-breaking is observable: which straggler a first-d quorum
    abandons is decided by the ``(time, sequence)`` order of completion
    events that all land on the same float instant.  The lazy deadline
    timers and deferred-transition coalescing must reserve exactly the
    sequence numbers the eager cancel-and-reschedule idiom would have
    consumed, or a *different* chunk loses the race and every erasure-coded
    fingerprint flips.  This pins that invariant across all three arbiters.
    """

    CHUNKS = 11
    QUORUM = 10

    def _drive_quorum(self, network_cls):
        loop = EventLoop()
        net = network_cls(loop, NetworkFabric(proxy_uplink_bps=400 * MB))
        flows = [
            net.transfer(
                size_bytes=10 * MB,
                function_bandwidth_bps=80 * MB,
                host_id=f"h{index}",
                host_capacity_bps=100 * MB,
                proxy_id="p0",
                label=f"chunk-{index}",
            )
            for index in range(self.CHUNKS)
        ]
        gate = first_n(self.QUORUM, [flow.future for flow in flows])

        def abandon_stragglers(_):
            for flow in flows:
                if not flow.future.done:
                    net.cancel(flow)

        gate.add_done_callback(abandon_stragglers)
        loop.run_all()
        return [
            (interval.label, interval.completed, interval.ended_at)
            for interval in net.trace
        ]

    def test_all_arbiters_abandon_the_same_chunk(self):
        # Equal-size chunks through one shared proxy uplink finish at the
        # same instant; the quorum callback cancels whichever chunk's
        # completion event drew the *last* sequence number.
        expected = self._drive_quorum(ReferenceFlowNetwork)
        abandoned = [label for label, completed, _ in expected if not completed]
        assert len(abandoned) == 1
        ends = {end for _, _, end in expected}
        assert len(ends) == 1  # a genuine tie: every interval ends together
        assert self._drive_quorum(FlowNetwork) == expected


class TestArbiterResolution:
    """``resolve_arbiter`` maps config names to arbiter classes."""

    def test_scalar_names_resolve(self):
        assert resolve_arbiter("incremental") is FlowNetwork
        assert resolve_arbiter("reference") is ReferenceFlowNetwork

    def test_unknown_name_rejected(self):
        # ``vectorized`` is a retired name and must not alias another arbiter.
        for name in ("quantum", "vectorized"):
            with pytest.raises(SimulationError):
                resolve_arbiter(name)
