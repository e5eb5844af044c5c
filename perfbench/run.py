"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_get_fanout --seed 7 --seconds 15 --trace 0

``--seed`` defaults to 2020, the seed ``perfbench/golden.json`` pins.

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  The exit
code is 0 only when every correctness check passed.  A manifest of the run
(metrics, work counters, machine and run metadata) is written under
``perfbench/out/``, which git ignores.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Benchmark the checkout's own source, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from layers import TIME_BUCKETS, LayerClock, untimed, window_delta  # noqa: E402
from workloads import WORKLOADS, State, Window  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration samples taken before and after each untraced set-up.
SETUP_CALIBRATIONS = 3
#: The seed whose fingerprints and work counters ``GOLDEN`` pins.
DEFAULT_SEED = 2020
#: Committed fingerprints and exact work counters, per (seed, seconds) scale.
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

#: Registry counters copied into the per-layer metrics.
_LAYER_COUNTERS = {
    "faas.cold_starts": "faas.cold_starts",
    "faas.reclaims": "faas.reclaims",
    "faas.instances_created": "faas.instances_created",
    "cache.chunk_retries": "proxy.chunk_retries",
    "cache.chunk_hedges": "proxy.chunk_hedges",
    "cache.breaker_rejections": "proxy.breaker_rejections",
    "cache.degraded_fallbacks": "proxy.degraded_fallbacks",
    "faults.windows": "chaos.faults_injected",
    "faults.injected": "faas.injected_faults",
}


# ---------------------------------------------------------------------- counters
def _work_snapshot(state: State) -> dict[str, float]:
    stats = state.loop.queue.stats()
    values = {
        "events_dispatched": float(state.loop.events_processed),
        "events_pushed": float(stats["pushed"]),
        "events_cancelled": float(stats["cancelled"]),
    }
    if state.flows is not None:
        flow = state.flows.flow_stats()
        for key in ("completed_flows", "abandoned_flows", "bytes_completed", "bytes_abandoned"):
            values[f"flows.{key}"] = float(flow[key])
    for name, value in untimed(state.registry, "counters")().items():
        values[f"counter.{name}"] = float(value)
    return values


def _work_counters(before: dict[str, float], after: dict[str, float], window: Window,
                   state: State) -> dict[str, float]:
    """Exact, deterministic work counters of one window."""
    counters = {key: after[key] - before.get(key, 0.0) for key in sorted(after)}
    # Segment markers are the benchmark's events, not the program's.
    counters["events_dispatched"] -= window.marker_events
    counters["events_pushed"] -= window.marker_events
    counters = {key: value for key, value in counters.items() if value}
    counters.update({
        "requests": float(window.requests),
        "gets": float(window.gets),
        "hits": float(window.hits),
        "misses": float(window.misses),
        "degraded": float(window.degraded),
        "resets": float(window.resets),
        "recoveries": float(window.recoveries),
        "peak_heap": float(state.loop.queue.stats()["peak_heap_size"]),
        "peak_concurrent_flows": float(
            state.flows.flow_stats()["peak_concurrent_flows"] if state.flows else 0.0
        ),
        "sim_end_us": float(round(state.loop.now * 1e6)),
        "cost_nano_usd": float(round(window.cost_usd * 1e9)),
    })
    return counters


# ---------------------------------------------------------------------- checks
def _check_window(window: Window, name: str) -> list[str]:
    """Invariants every window must satisfy, by name (failed operations are
    counted separately, in ``window.failed_ops``)."""
    problems = [f"{name}: {violation}" for violation in window.violations]
    if window.hits + window.misses + window.degraded != window.gets:
        problems.append(
            f"{name}: hits {window.hits} + misses {window.misses} + degraded "
            f"{window.degraded} != GETs {window.gets}"
        )
    if not window.cost_usd >= 0.0:
        problems.append(f"{name}: window cost {window.cost_usd} is negative")
    if window.requests < 1 or not window.us_per_request():
        problems.append(f"{name}: the window completed no request")
    return problems


def _check_golden(name: str, seed: int, seconds: float, fingerprint: str,
                  counters: dict[str, float]) -> list[str]:
    """Compare against the committed fingerprint and counters of this
    workload at this (seed, seconds) scale, if ``GOLDEN`` has them."""
    scales = json.loads(GOLDEN.read_text())["scales"]
    entry = next((scale["workloads"].get(name) for scale in scales
                  if scale["seed"] == seed and scale["seconds"] == seconds), None)
    if entry is None:
        return []
    problems = []
    if entry["fingerprint"] != fingerprint:
        problems.append(
            f"{name}: fingerprint {fingerprint} != committed {entry['fingerprint']}"
        )
    for key in sorted(set(entry["counters"]) | set(counters)):
        expected, actual = entry["counters"].get(key, 0.0), counters.get(key, 0.0)
        if expected != actual:
            problems.append(f"{name}: counter {key} = {actual} != committed {expected}")
    return problems


# ---------------------------------------------------------------------- runs
def _setup(workload, seed: int, seconds: float,
           calibrator: Calibrator | None = None) -> tuple[State, dict[str, float], float, float]:
    """One set-up: its state, step times, raw wall and reference-speed wall."""
    gc.collect()
    samples = [calibrator.sample() for _ in range(SETUP_CALIBRATIONS)] if calibrator else []
    started = perf_counter()
    state, steps = workload.setup(seed, seconds)
    wall = perf_counter() - started
    if calibrator is None:
        return state, steps, wall, wall
    samples += [calibrator.sample() for _ in range(SETUP_CALIBRATIONS)]
    return state, steps, wall, wall * calibrator.scale(samples)


def _timed_window(workload, state: State, calibrator: Calibrator | None = None,
                  clock: LayerClock | None = None):
    """Run the timed window: the window, its wall time, its work counters
    and (when ``clock`` is given) its layer-time delta.

    The layer clock is read right next to the wall clock, and nothing timed
    runs between the two, so the delta covers exactly the timed wall.
    """
    gc.collect()
    before = _work_snapshot(state)
    window = Window(calibrator=calibrator)
    clock_before = clock.snapshot() if clock else {}
    started = perf_counter()
    workload.run(state, window)
    wall = perf_counter() - started
    delta = window_delta(clock_before, clock.snapshot()) if clock else {}
    return window, wall, _work_counters(before, _work_snapshot(state), window, state), delta


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def run_untraced(workload, seed: int, seconds: float) -> dict:
    calibrator = Calibrator()
    setup_walls, setup_raw, fingerprints, state = [], [], [], None
    for _ in range(SETUP_REPEATS):
        state = None
        state, _steps, raw, calibrated = _setup(workload, seed, seconds, calibrator)
        setup_walls.append(calibrated)
        setup_raw.append(raw)
        fingerprints.append(state.fingerprint)
    window, wall, counters, _delta = _timed_window(workload, state, calibrator)
    problems = _check_window(window, workload.name)
    if len(set(fingerprints)) != 1:
        problems.append(f"{workload.name}: set-up repetitions disagree: {fingerprints}")
    problems += _check_golden(workload.name, seed, seconds, window.fingerprint, counters)
    samples = window.us_per_request(calibrated=True)
    raw_us = statistics.median(window.us_per_request())
    metrics = {
        "us_per_request": (statistics.median(samples), "us"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    report_only = {
        "raw_us_per_request": (raw_us, "us"),
        "raw_setup_s": (statistics.median(setup_raw), "s"),
        "cost_usd": (window.cost_usd, "USD"),
        "error_rate": (_error_rate(window, problems), "ratio"),
        "hit_ratio": (window.hits / window.gets if window.gets else None, "ratio"),
        "sim_get_p50_ms": (_percentile_ms(window.get_latencies_s, 50) if window.gets else None, "ms"),
        "sim_get_p99_ms": (_percentile_ms(window.get_latencies_s, 99) if window.gets else None, "ms"),
    }
    notes = [
        f"us_per_request: median of {len(samples)} segments, "
        f"{window.requests} requests in {wall:.3f} s",
        f"setup_s: median of {SETUP_REPEATS} set-ups {[round(w, 4) for w in setup_walls]}",
        f"calibration: median unit {statistics.median(window.calibrations):.5f} s in the "
        f"window, {REFERENCE_S} s at reference speed",
        f"sim GETs: {window.gets}",
    ]
    return {
        "metrics": metrics, "report_only": report_only, "notes": notes,
        "window": window, "counters": counters, "problems": problems,
        "segments_us": window.us_per_request(),
        "calibrations": {"memory": calibrator.memory_samples,
                         "compute": calibrator.compute_samples},
    }


def _error_rate(window: Window, problems: list[str]) -> float:
    return _failed(window, problems) / max(window.requests, 1)


def _failed(window: Window, problems: list[str]) -> int:
    """Failed operations, plus one for every failed check."""
    return window.failed_ops + len(problems)


def run_traced(workload, seed: int, seconds: float) -> dict:
    # Reference: the same window untraced, for the fingerprint and overhead.
    state, _steps, _raw, _wall = _setup(workload, seed, seconds)
    reference, reference_wall, reference_counters, _delta = _timed_window(workload, state)
    state = None
    clock = LayerClock()
    clock.install()
    try:
        state, steps, _raw, _wall = _setup(workload, seed, seconds)
        trace_gen_s = clock.self_s["workload.trace_gen_s"]
        profile = state.loop.enable_profiling()
        window, wall, counters, delta = _timed_window(workload, state, clock=clock)
        state.loop.disable_profiling()
    finally:
        clock.uninstall()
    problems = _check_window(window, workload.name)
    if window.fingerprint != reference.fingerprint:
        problems.append(
            f"{workload.name}: traced fingerprint {window.fingerprint} != untraced "
            f"{reference.fingerprint}"
        )
    if counters != reference_counters:
        changed = sorted(k for k in counters if counters[k] != reference_counters.get(k))
        problems.append(f"{workload.name}: tracing changed work counters {changed}")
    problems += _check_golden(workload.name, seed, seconds, window.fingerprint, counters)
    unattributed = wall - delta["_timed_total"]
    attributed = sum(delta[bucket] for bucket in TIME_BUCKETS)
    if abs(attributed + unattributed - wall) > 1e-6 * max(wall, 1.0):
        problems.append(
            f"{workload.name}: layer times {attributed} + unattributed {unattributed} "
            f"!= traced wall {wall}"
        )
    # A negative share means time was credited to a layer outside the wall
    # or twice; float rounding of the running sums stays far below 1 ns.
    for bucket, value in [*((b, delta[b]) for b in TIME_BUCKETS),
                          ("trace.unattributed_s", unattributed)]:
        if value < -1e-9:
            problems.append(f"{workload.name}: {bucket} = {value} s is negative")
    snapshot = profile.snapshot()["counts"]
    requests = max(window.requests, 1)
    pushed = counters.get("events_pushed", 0.0)
    done_bytes = counters.get("flows.bytes_completed", 0.0)
    moved_bytes = done_bytes + counters.get("flows.bytes_abandoned", 0.0)
    decodes = delta["_decode_calls"]
    metrics = {
        "sim.events_dispatched_per_req": (counters.get("events_dispatched", 0.0) / requests, "count"),
        "sim.events_pushed_per_req": (pushed / requests, "count"),
        "sim.events_cancelled_per_req": (counters.get("events_cancelled", 0.0) / requests, "count"),
        "sim.cancel_ratio": (counters.get("events_cancelled", 0.0) / pushed if pushed else 0.0, "ratio"),
        "sim.coroutine_steps_per_req": (snapshot["coroutine_steps"] / requests, "count"),
        "sim.peak_heap": (counters["peak_heap"], "count"),
        "sim.heap_s": (profile.heap_s, "s"),
        "sim.coroutine_s": (delta["sim.coroutine_s"], "s"),
        "sim.self_s": (delta["sim.loop_s"] + delta["sim.coroutine_s"] + delta["sim.callbacks_s"], "s"),
        "network.flows_per_req": (
            (counters.get("flows.completed_flows", 0.0) + counters.get("flows.abandoned_flows", 0.0))
            / requests, "count"),
        "network.transitions_per_req": (snapshot["arbiter_transitions"] / requests, "count"),
        "network.useful_byte_ratio": (done_bytes / moved_bytes if moved_bytes else 0.0, "ratio"),
        "network.peak_concurrent_flows": (counters["peak_concurrent_flows"], "count"),
        "network.arbiter_s": (delta["network.arbiter_s"], "s"),
        "faas.invocations_per_req": (counters.get("counter.faas.invocations", 0.0) / requests, "count"),
        "faas.invoke_s": (delta["faas.invoke_s"], "s"),
        "faas.billing_s": (delta["faas.billing_s"], "s"),
        "faas.sweep_s": (delta["faas.sweep_s"], "s"),
        "cache.hits": (float(window.hits), "count"),
        "cache.misses": (float(window.misses), "count"),
        "cache.degraded_hits": (float(window.degraded), "count"),
        "cache.resets": (float(window.resets), "count"),
        "cache.recoveries": (float(window.recoveries), "count"),
        "cache.hit_ratio": (window.hits / window.gets if window.gets else 0.0, "ratio"),
        "cache.get_p50_ms": (_percentile_ms(window.get_latencies_s, 50), "ms"),
        "cache.get_p99_ms": (_percentile_ms(window.get_latencies_s, 99), "ms"),
        "cache.warmup_s": (delta["cache.warmup_s"], "s"),
        "cache.backup_s": (delta["cache.backup_s"], "s"),
        "erasure.encode_calls": (delta["_encode_calls"], "count"),
        "erasure.decode_calls": (decodes, "count"),
        "erasure.bytes_coded_per_req": (delta["_bytes_coded"] / requests, "B"),
        "erasure.parity_decode_ratio": (delta["_parity_decodes"] / decodes if decodes else 0.0, "ratio"),
        "erasure.encode_s": (delta["erasure.encode_s"], "s"),
        "erasure.decode_s": (delta["erasure.decode_s"], "s"),
        "faults.s": (delta["faults.s"], "s"),
        "workload.requests": (float(window.requests), "count"),
        "workload.trace_gen_s": (trace_gen_s, "s"),
        "workload.driver_s": (delta["workload.driver_s"], "s"),
        "obs.metric_updates": (delta["_metric_updates"], "count"),
        "obs.metrics_s": (delta["obs.metrics_s"], "s"),
        "setup.build_s": (steps["build_s"], "s"),
        "setup.seed_s": (steps["seed_s"], "s"),
        "setup.warm_s": (steps["warm_s"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_pct": ((wall - reference_wall) / reference_wall * 100.0, "%"),
    }
    for metric, counter in _LAYER_COUNTERS.items():
        metrics[metric] = (counters.get(f"counter.{counter}", 0.0), "count")
    notes = [
        f"traced window {wall:.3f} s vs untraced {reference_wall:.3f} s",
        f"layer times + unattributed = {attributed + unattributed:.6f} s",
    ]
    return {
        "metrics": metrics, "report_only": {}, "notes": notes,
        "window": window, "counters": counters, "problems": problems,
        "segments_us": window.us_per_request(), "calibrations": {},
    }


# ---------------------------------------------------------------------- output
def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_sha256() -> str:
    """Digest of the program source the run measured (a code signature that
    also works where the checkout is not a git repository)."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(path.relative_to(ROOT).as_posix().encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(workload, seed: int, seconds: float, trace: int) -> dict:
    config = {
        key: value for key, value in vars(type(workload)).items()
        if not key.startswith("_") and isinstance(value, (int, float, str))
    }
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": config, "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seconds = int(args.seconds) if float(args.seconds).is_integer() else args.seconds
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    result = runner(workload, args.seed, seconds)
    window, problems = result["window"], result["problems"]
    failed = _failed(window, problems)
    attempted = max(window.requests, 1)
    if window.failed_ops:
        problems.append(
            f"{workload.name}: {window.failed_ops} operations raised or returned wrong bytes"
        )
    correct = not problems

    print(f"workload {workload.name} seed {args.seed} seconds {seconds} trace {args.trace}")
    for name, (value, unit) in {**result["metrics"], **result["report_only"]}.items():
        shown = "n/a (no GETs in this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown} {unit}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  fingerprint {window.fingerprint}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    metadata = _metadata(workload, args.seed, seconds, args.trace)
    manifest = {
        "schema": "perfbench.run/1", "metadata": metadata, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprint": window.fingerprint, "counters": result["counters"],
        "segments_us_per_request": result["segments_us"],
        "calibration_samples_s": result["calibrations"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "report_only": {k: {"value": v, "unit": u} for k, (v, u) in result["report_only"].items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"  manifest {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
