"""Exclusive per-layer wall-time attribution, installed from outside the program.

The traced run wraps public entry points of each layer (plus the event
loop's run methods and the coroutine step) in timing frames kept on one
stack.  A frame's *self* time is its wall time minus the wall time of the
frames nested inside it, so the self times of all frames, plus the time no
frame covered, add up to the traced wall time exactly: layers partition the
run instead of nesting.

Event callbacks are not wrapped.  The loop's own opt-in profiler
(``EventLoop.enable_profiling``) already times each callback; a hook on
``LoopProfile.note_dispatch`` subtracts the frames that ran inside the
callback and credits the rest to the layer its label prefix names.

Nothing here changes what the simulation does: wrappers call the original
function with the original arguments, and the profiler only reads the
clock, so a traced run replays the same fingerprint as an untraced one.
"""

from __future__ import annotations

from time import perf_counter

from repro.cache.backup import BackupManager
from repro.cache.proxy import Proxy
from repro.erasure.codec import ErasureCodec
from repro.faas.billing import BillingModel
from repro.faas.platform import FaaSPlatform
from repro.network.flows import FlowNetwork
from repro.sim.loop import EventLoop, LoopProfile
from repro.sim.process import Process
from repro.simulation.metrics import Counter, Gauge, MetricRegistry, TimeSeries
from repro.workload.docker_registry import DockerRegistryTraceGenerator
from repro.workload.replay import ClosedLoopDriver, OpenLoopDriver

#: Time buckets every traced window is split into.  Their sum plus
#: ``trace.unattributed_s`` is the traced wall time.
TIME_BUCKETS = (
    "sim.loop_s",
    "sim.coroutine_s",
    "sim.callbacks_s",
    "network.arbiter_s",
    "faas.invoke_s",
    "faas.billing_s",
    "faas.sweep_s",
    "cache.warmup_s",
    "cache.backup_s",
    "erasure.encode_s",
    "erasure.decode_s",
    "faults.s",
    "workload.driver_s",
    "workload.trace_gen_s",
    "obs.metrics_s",
)

#: ``(owner, method, bucket)`` for every wrapped entry point.
_TIMED_METHODS = (
    (EventLoop, "run_until", "sim.loop_s"),
    (EventLoop, "run_all", "sim.loop_s"),
    (EventLoop, "run_until_complete", "sim.loop_s"),
    # The generator resumption: request logic in the proxy and client runs
    # inside it and cannot be split from it without spans in the program.
    (Process, "_step", "sim.coroutine_s"),
    (FlowNetwork, "transfer", "network.arbiter_s"),
    (FlowNetwork, "cancel", "network.arbiter_s"),
    (FlowNetwork, "reassess_host", "network.arbiter_s"),
    (FaaSPlatform, "invoke", "faas.invoke_s"),
    (FaaSPlatform, "invoke_instance", "faas.invoke_s"),
    (FaaSPlatform, "complete_invocation", "faas.invoke_s"),
    (BillingModel, "charge_invocation", "faas.billing_s"),
    (Proxy, "warm_up_pool", "cache.warmup_s"),
    (BackupManager, "backup_all", "cache.backup_s"),
    (ErasureCodec, "encode", "erasure.encode_s"),
    (ErasureCodec, "decode", "erasure.decode_s"),
    (ClosedLoopDriver, "run", "workload.driver_s"),
    (OpenLoopDriver, "run", "workload.driver_s"),
    (DockerRegistryTraceGenerator, "generate", "workload.trace_gen_s"),
    (MetricRegistry, "counter", "obs.metrics_s"),
    (MetricRegistry, "gauge", "obs.metrics_s"),
    (MetricRegistry, "series", "obs.metrics_s"),
    (MetricRegistry, "counters", "obs.metrics_s"),
    (MetricRegistry, "gauges", "obs.metrics_s"),
    (MetricRegistry, "snapshot", "obs.metrics_s"),
    (Counter, "increment", "obs.metrics_s"),
    (Gauge, "set", "obs.metrics_s"),
    (Gauge, "add", "obs.metrics_s"),
    (TimeSeries, "record", "obs.metrics_s"),
)

#: Metric update entry points; their call count is ``obs.metric_updates``.
_UPDATE_METHODS = {(Counter, "increment"), (Gauge, "set"), (Gauge, "add"),
                   (TimeSeries, "record")}

#: Callback label key (text before the first colon) prefix -> bucket.  The
#: first matching prefix wins; unmatched labels (sleeps, timeouts, process
#: wake-ups) are event-loop work.
_LABEL_BUCKETS = (
    ("flow.", "network.arbiter_s"),
    ("faas.reclaim_sweep", "faas.sweep_s"),
    ("faas.", "faas.invoke_s"),
    ("billing.", "faas.billing_s"),
    ("cache.warmup", "cache.warmup_s"),
    ("cache.backup", "cache.backup_s"),
    ("cache.cost_sample", "obs.metrics_s"),
    ("chaos.", "faults.s"),
    ("driver.", "workload.driver_s"),
)


def bucket_for_label(label: str) -> str:
    """The time bucket an event callback with this label is credited to."""
    key = label.partition(":")[0]
    for prefix, bucket in _LABEL_BUCKETS:
        if key.startswith(prefix):
            return bucket
    return "sim.callbacks_s"


class LayerClock:
    """A stack of timing frames whose self times partition wall time."""

    def __init__(self) -> None:
        self.self_s = {bucket: 0.0 for bucket in TIME_BUCKETS}
        self.calls = {bucket: 0 for bucket in TIME_BUCKETS}
        self.metric_updates = 0
        self.encode_calls = 0
        self.decode_calls = 0
        self.parity_decodes = 0
        self.bytes_coded = 0
        #: Each frame is a one-element list holding its children's wall time;
        #: the bottom frame is the root, whose children are everything timed.
        self._stack: list[list[float]] = [[0.0]]
        #: Per open loop frame: its children's time when the last callback
        #: ended, so the frames nested in the next callback can be subtracted.
        self._dispatch_marks: list[float] = []
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------ frames
    def _timed(self, original, bucket: str, counts_update: bool, is_loop: bool):
        clock = self

        def timed(*args, **kwargs):
            stack = clock._stack
            frame = [0.0]
            stack.append(frame)
            if is_loop:
                clock._dispatch_marks.append(0.0)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if is_loop:
                    clock._dispatch_marks.pop()
                clock.self_s[bucket] += elapsed - frame[0]
                clock.calls[bucket] += 1
                stack[-1][0] += elapsed
                if counts_update:
                    clock.metric_updates += 1

        timed.__wrapped__ = original
        return timed

    def _note_dispatch_hook(self, original):
        clock = self

        def note_dispatch(profile, label, seconds):
            original(profile, label, seconds)
            # The innermost frame is the loop's run method; everything its
            # children accumulated since the previous callback ended ran
            # inside this callback.
            frame = clock._stack[-1]
            nested = frame[0] - clock._dispatch_marks[-1]
            bucket = bucket_for_label(label)
            clock.self_s[bucket] += seconds - nested
            clock.calls[bucket] += 1
            frame[0] += seconds - nested
            clock._dispatch_marks[-1] = frame[0]

        note_dispatch.__wrapped__ = original
        return note_dispatch

    def _codec_hook(self, original, decode: bool):
        clock = self

        def counted(codec, *args):
            if decode:
                clock.parity_decodes += codec.needs_decoding(args[0])
            result = original(codec, *args)
            if decode:
                clock.decode_calls += 1
                clock.bytes_coded += len(result)
            else:
                clock.encode_calls += 1
                clock.bytes_coded += len(args[1])
            return result

        counted.__wrapped__ = original
        return counted

    def _patch(self, owner: type, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every entry point; call once, and undo with :meth:`uninstall`."""
        for owner, name, bucket in _TIMED_METHODS:
            original = getattr(owner, name)
            if name in ("encode", "decode") and owner is ErasureCodec:
                original = self._codec_hook(original, decode=name == "decode")
            self._patch(owner, name, self._timed(
                original, bucket, (owner, name) in _UPDATE_METHODS,
                is_loop=owner is EventLoop,
            ))
        self._patch(LoopProfile, "note_dispatch",
                    self._note_dispatch_hook(LoopProfile.note_dispatch))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, previous in reversed(self._patched):
            if previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._patched.clear()

    # ------------------------------------------------------------------ reading
    def timed_total(self) -> float:
        """Wall time covered by frames and callbacks (the root's children)."""
        return self._stack[0][0]

    def snapshot(self) -> dict[str, float]:
        """Every bucket's self time plus the counters, for window deltas."""
        values: dict[str, float] = dict(self.self_s)
        values["_timed_total"] = self.timed_total()
        values["_metric_updates"] = float(self.metric_updates)
        values["_encode_calls"] = float(self.encode_calls)
        values["_decode_calls"] = float(self.decode_calls)
        values["_parity_decodes"] = float(self.parity_decodes)
        values["_bytes_coded"] = float(self.bytes_coded)
        return values


def untimed(obj, name: str):
    """``obj.<name>`` without its timing frame, for the benchmark's own reads
    (so they are not charged to the layer whose method they call)."""
    method = getattr(type(obj), name)
    return getattr(method, "__wrapped__", method).__get__(obj)


def window_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-key difference of two :meth:`LayerClock.snapshot` results."""
    return {key: after[key] - before[key] for key in after}
