"""Deployment-wide configuration for InfiniCache.

One :class:`InfiniCacheConfig` describes everything the paper's Section 5
setup varies: pool size and Lambda memory, the erasure code, warm-up and
backup intervals, straggler behaviour, and whether backup is enabled (the
"IC w/o backup" configuration of Table 1 and Figure 13(d)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.faas.limits import validate_memory_bytes
from repro.network.flows import ARBITER_NAMES
from repro.utils.units import MILLISECOND, MINUTE, MIB


@dataclass(frozen=True)
class StragglerModel:
    """Random slowdowns applied to individual chunk transfers.

    The paper attributes higher tail latency of the ``(10+0)`` configuration
    to Lambda stragglers and uses first-d redundancy to hide them.  Each chunk
    transfer is independently slowed down with probability ``probability`` by
    a factor drawn uniformly from ``[min_factor, max_factor]``.
    """

    probability: float = 0.05
    min_factor: float = 2.0
    max_factor: float = 8.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("straggler probability must be in [0, 1]")
        if self.min_factor < 1.0 or self.max_factor < self.min_factor:
            raise ConfigurationError("straggler factors must satisfy 1 <= min <= max")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry for transient chunk-transfer failures.

    The first retry sleeps ``base_backoff_s``; each further retry multiplies
    the sleep by ``backoff_multiplier``.  Every sleep is stretched by a
    seeded-jitter factor in ``[1, 1 + jitter_fraction]`` drawn from the
    proxy's dedicated retry stream — the draw happens only when a retry
    actually fires, so a fault-free run consumes no randomness.
    """

    max_attempts: int = 3
    base_backoff_s: float = 10 * MILLISECOND
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("retry max_attempts must be at least 1")
        if self.base_backoff_s <= 0:
            raise ConfigurationError("retry base backoff must be positive")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("retry backoff multiplier must be >= 1")
        if self.jitter_fraction < 0:
            raise ConfigurationError("retry jitter fraction must be non-negative")


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Per-node circuit breaker thresholds (see
    :class:`repro.cache.connection.CircuitBreaker`)."""

    failure_threshold: int = 3
    reset_timeout_s: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ConfigurationError("breaker failure threshold must be >= 1")
        if self.reset_timeout_s <= 0:
            raise ConfigurationError("breaker reset timeout must be positive")


@dataclass(frozen=True)
class ResilienceConfig:
    """Request-path hardening knobs; everything defaults to *off*.

    With the default (all-``None``) configuration the proxy takes the
    original un-instrumented GET/PUT code path byte for byte — no extra
    events, no extra RNG draws — which is what keeps the committed golden
    figure fingerprints stable.  Chaos scenarios switch the knobs on.
    """

    #: Retry transient chunk failures with exponential backoff; ``None``
    #: disables retries (a failed chunk is immediately unreachable).
    retry: RetryPolicy | None = None
    #: Per-chunk transfer deadline; on expiry a hedged re-fetch races the
    #: original attempt.  ``None`` disables timeouts and hedging.
    chunk_timeout_s: float | None = None
    #: Per-node circuit breaker; ``None`` disables it.
    circuit_breaker: CircuitBreakerPolicy | None = None
    #: When a GET cannot reach ``data_shards`` chunks, report a *degraded*
    #: result (the caller serves from the backing store and counts a degraded
    #: hit) instead of dropping the object and reporting a miss.
    degraded_fallback: bool = True

    def __post_init__(self):
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ConfigurationError("chunk timeout must be positive when set")

    @property
    def hardened(self) -> bool:
        """Whether any hardening feature is active (selects the proxy path)."""
        return (
            self.retry is not None
            or self.chunk_timeout_s is not None
            or self.circuit_breaker is not None
        )


@dataclass(frozen=True)
class InfiniCacheConfig:
    """Complete configuration of an InfiniCache deployment."""

    # --- topology ---------------------------------------------------------------
    num_proxies: int = 1
    lambdas_per_proxy: int = 400
    lambda_memory_bytes: int = 1536 * MIB
    #: Bounds the cluster autoscaler respects when resizing a proxy's pool.
    #: ``None`` leaves the corresponding direction unbounded (shrinking is
    #: still floored at the erasure stripe width so every stripe fits).
    min_lambdas_per_proxy: int | None = None
    max_lambdas_per_proxy: int | None = None

    # --- erasure coding ----------------------------------------------------------
    data_shards: int = 10
    parity_shards: int = 2

    # --- liveness maintenance ------------------------------------------------------
    warmup_interval_s: float = 1 * MINUTE
    backup_interval_s: float = 5 * MINUTE
    backup_enabled: bool = True

    # --- runtime behaviour -----------------------------------------------------------
    billing_buffer_s: float = 5 * MILLISECOND
    billing_extension_threshold: int = 2
    runtime_overhead_fraction: float = 0.10
    #: Client-side erasure coding throughput (bytes/s); the paper's client
    #: uses AVX-accelerated Reed-Solomon, so coding is fast but not free.
    encode_bandwidth_bps: float = 2_000_000_000.0
    decode_bandwidth_bps: float = 1_500_000_000.0

    # --- performance model --------------------------------------------------------------
    straggler: StragglerModel = field(default_factory=StragglerModel)
    base_network_latency_s: float = 1 * MILLISECOND
    #: Uniform per-chunk transfer-time jitter in ``[1, 1 + fraction]`` applied
    #: by the :class:`~repro.network.transfer.TransferModel` from a stream
    #: seeded off :attr:`seed` (deterministic per seed).  Distinct from the
    #: heavier-tailed :attr:`straggler` model, which fires with a probability.
    transfer_jitter_fraction: float = 0.0
    #: Which flow arbiter backs the event-driven request path:
    #: ``"incremental"`` (bottleneck-group arbitration, the default) or
    #: ``"reference"`` (the global-recompute sweep with eager completion
    #: events).  The two are byte-identical in settled bytes and finish
    #: times; the reference is kept as the differential-testing oracle and
    #: perf-harness baseline.  ``docs/performance.md`` ("Choosing the
    #: arbiter") records the measurements behind the default.
    flow_arbiter: str = "incremental"
    #: If set, the flow network retains at most this many finished/abandoned
    #: transfer intervals (aggregate flow statistics are unaffected).  Long
    #: open-loop replays use it to keep memory flat; ``None`` retains all.
    flow_trace_limit: int | None = None

    # --- recovery behaviour ----------------------------------------------------------------
    #: Re-insert chunks lost to reclamation when the object is still
    #: recoverable (the "Recovery" activity of Figure 14).
    repair_degraded_objects: bool = True
    #: Request-path hardening (retry/hedging/circuit breaker/degraded
    #: fallback); ``None`` behaves exactly like an all-defaults
    #: :class:`ResilienceConfig` — everything off.
    resilience: ResilienceConfig | None = None

    # --- determinism -----------------------------------------------------------------------
    seed: int = 2020

    def __post_init__(self):
        if self.num_proxies < 1:
            raise ConfigurationError("at least one proxy is required")
        if self.lambdas_per_proxy < 1:
            raise ConfigurationError("each proxy needs at least one Lambda node")
        validate_memory_bytes(self.lambda_memory_bytes)
        if self.data_shards < 1 or self.parity_shards < 0:
            raise ConfigurationError("invalid erasure code configuration")
        if self.data_shards + self.parity_shards > self.lambdas_per_proxy:
            raise ConfigurationError(
                "the erasure stripe is wider than the Lambda pool: "
                f"{self.data_shards}+{self.parity_shards} chunks over "
                f"{self.lambdas_per_proxy} nodes"
            )
        if self.min_lambdas_per_proxy is not None:
            if self.min_lambdas_per_proxy < 1:
                raise ConfigurationError("min_lambdas_per_proxy must be at least 1")
            if self.lambdas_per_proxy < self.min_lambdas_per_proxy:
                raise ConfigurationError(
                    f"pools start at {self.lambdas_per_proxy} nodes, below the "
                    f"autoscale floor of {self.min_lambdas_per_proxy}"
                )
        if self.max_lambdas_per_proxy is not None:
            floor = self.min_lambdas_per_proxy or 1
            if self.max_lambdas_per_proxy < max(floor, self.data_shards + self.parity_shards):
                raise ConfigurationError(
                    "max_lambdas_per_proxy must cover the erasure stripe and "
                    "min_lambdas_per_proxy"
                )
            if self.lambdas_per_proxy > self.max_lambdas_per_proxy:
                raise ConfigurationError(
                    f"pools start at {self.lambdas_per_proxy} nodes, above the "
                    f"autoscale ceiling of {self.max_lambdas_per_proxy}"
                )
        if self.warmup_interval_s <= 0 or self.backup_interval_s <= 0:
            raise ConfigurationError("warm-up and backup intervals must be positive")
        if self.encode_bandwidth_bps <= 0 or self.decode_bandwidth_bps <= 0:
            raise ConfigurationError("coding bandwidths must be positive")
        if self.transfer_jitter_fraction < 0:
            raise ConfigurationError("transfer jitter fraction must be non-negative")
        if self.flow_arbiter not in ARBITER_NAMES:
            raise ConfigurationError(
                f"flow_arbiter must be one of {ARBITER_NAMES}, "
                f"got {self.flow_arbiter!r}"
            )
        if self.flow_trace_limit is not None and self.flow_trace_limit < 0:
            raise ConfigurationError("flow_trace_limit must be >= 0 when set")

    @property
    def total_chunks(self) -> int:
        """Chunks per object (d + p)."""
        return self.data_shards + self.parity_shards

    @property
    def total_lambda_nodes(self) -> int:
        """Number of Lambda cache nodes across all proxies."""
        return self.num_proxies * self.lambdas_per_proxy

    def describe(self) -> dict[str, object]:
        """Key parameters, for experiment reports."""
        return {
            "proxies": self.num_proxies,
            "lambdas_per_proxy": self.lambdas_per_proxy,
            "autoscale_bounds": (self.min_lambdas_per_proxy, self.max_lambdas_per_proxy),
            "lambda_memory_MiB": self.lambda_memory_bytes // MIB,
            "rs_code": f"({self.data_shards}+{self.parity_shards})",
            "warmup_interval_s": self.warmup_interval_s,
            "backup_interval_s": self.backup_interval_s,
            "backup_enabled": self.backup_enabled,
        }
