"""Macro benchmark: the closed-loop fleet sweep plus the arbiter gate.

Runs the same scenarios as ``python -m repro perf`` at CI-friendly sizes.
The load-bearing assertion is fingerprint identity between the incremental
bottleneck-group arbiter and the global-recompute reference: any semantic
drift in the incremental arbitration fails this benchmark regardless of
timing noise.
"""

from repro.experiments import perf


def test_bench_perf_closed_loop_sweep(benchmark, timing_report_writer):
    samples = benchmark.pedantic(
        lambda: [perf.macro_closed_loop(clients) for clients in (8, 64)],
        rounds=1,
        iterations=1,
    )
    lines = ["closed-loop fleet sweep (incremental arbiter):"]
    for sample in samples:
        lines.append(
            f"  {sample.extra['clients']:>4} clients: {sample.wall_s:.3f}s, "
            f"{sample.events_per_s:,.0f} events/s, "
            f"peak {sample.extra['peak_active_flows']} active flows"
        )
    timing_report_writer("perf_closed_loop", "\n".join(lines))
    # Every client keeps d+p chunk flows in flight at peak.
    assert samples[1].extra["peak_active_flows"] > samples[0].extra["peak_active_flows"]
    assert all(sample.events > 0 for sample in samples)


def test_bench_perf_arbiter_fingerprint_gate(benchmark, timing_report_writer):
    comparison = benchmark.pedantic(
        lambda: perf.compare_arbiters(clients=64), rounds=1, iterations=1
    )
    timing_report_writer(
        "perf_arbiter_gate",
        f"arbiter comparison at {comparison['clients']} clients: "
        f"incremental {comparison['incremental_wall_s']:.3f}s vs "
        f"reference {comparison['reference_wall_s']:.3f}s "
        f"({comparison['speedup']:.1f}x); fingerprints "
        + ("identical" if comparison["fingerprints_identical"] else "DIVERGED"),
    )
    assert comparison["fingerprints_identical"], (
        "incremental arbiter diverged from the global-recompute reference"
    )
