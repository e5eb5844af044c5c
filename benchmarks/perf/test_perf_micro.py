"""Micro benchmarks: event-queue churn and raw flow-arbitration cost.

Unlike the figure benchmarks (which regenerate paper content), the perf
suite measures the *simulator's own* throughput — events dispatched per
wall-clock second — so regressions in the engine or the flow arbiter show
up as timing deltas here and as events/sec drops in ``BENCH_perf.json``.
"""

from repro.experiments import perf


def test_bench_perf_event_queue(benchmark, timing_report_writer):
    sample = benchmark.pedantic(
        lambda: perf.micro_event_queue(events=20_000), rounds=1, iterations=1
    )
    timing_report_writer(
        "perf_event_queue",
        f"event queue micro: {sample.events} events in {sample.wall_s:.3f}s "
        f"({sample.events_per_s:,.0f} events/s; "
        f"{sample.extra['cancelled']} of {sample.extra['scheduled']} cancelled)",
    )
    # Half the scheduled events are cancelled before dispatch; the live
    # counter must see exactly the surviving half run.
    assert sample.events == sample.extra["scheduled"] - sample.extra["cancelled"]
    assert sample.events_per_s > 0


def test_bench_perf_flow_churn(benchmark, timing_report_writer):
    incremental = benchmark.pedantic(
        lambda: perf.micro_flow_churn(flows=1_000, arbiter="incremental"),
        rounds=1,
        iterations=1,
    )
    reference = perf.micro_flow_churn(flows=1_000, arbiter="reference")
    timing_report_writer(
        "perf_flow_churn",
        "flow churn micro (1000 staggered transfers over 32 NICs / 8 uplinks):\n"
        f"  incremental: {incremental.wall_s:.3f}s "
        f"({incremental.events_per_s:,.0f} events/s)\n"
        f"  reference:   {reference.wall_s:.3f}s "
        f"({reference.events_per_s:,.0f} events/s)",
    )
    # Identical workload, identical event counts — only the arbitration
    # strategy differs.
    assert incremental.events == reference.events
    assert incremental.extra["peak_active_flows"] == reference.extra["peak_active_flows"]
