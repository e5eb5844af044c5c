"""The InfiniCache proxy.

Each proxy owns a pool of Lambda cache nodes and performs, per the paper's
Section 3.2:

* **Pool management** — the chunk-to-node mapping table, per-node and
  pool-level memory accounting, and CLOCK-based LRU eviction at *object*
  granularity when the pool runs out of memory.
* **Parallel chunk I/O** — all chunks of a request are transferred
  concurrently; the contention model (per-VM-host NIC sharing plus the proxy
  uplink) determines each chunk's transfer time.
* **First-d streaming** — a GET completes as soon as the fastest ``d`` chunks
  have arrived; straggling chunks are abandoned, which is what keeps tail
  latency down for codes with parity.
* **Degraded-read recovery** — if some chunks were lost to reclamation but at
  least ``d`` survive, the proxy records a recovery and (optionally)
  re-inserts the missing chunks onto fresh nodes; if more than ``p`` chunks
  are gone the object is lost and the caller must RESET it from the backing
  store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.chunk import CacheChunk, ObjectDescriptor
from repro.cache.clock_lru import ClockLRU
from repro.cache.config import InfiniCacheConfig, ResilienceConfig, StragglerModel
from repro.cache.connection import CircuitBreaker
from repro.cache.namespacing import owner_of
from repro.cache.node import LambdaCacheNode
from repro.cache.runtime import RequestEnv
from repro.erasure.codec import Chunk as ErasureChunk
from repro.erasure.codec import ErasureCodec, StripeMetadata
from repro.exceptions import (
    CacheError,
    DecodingError,
    ObjectTooLargeError,
    TransientFaultError,
)
from repro.faas.platform import FaaSPlatform
from repro.network.transfer import TransferModel
from repro.sim.process import SimFuture, all_of, first_n
from repro.simulation.metrics import MetricRegistry
from repro.utils.rng import SeededRNG


@dataclass
class ChunkFetch:
    """Timing and provenance of one chunk transfer within a GET."""

    chunk_index: int
    node_id: str
    chunk: Optional[CacheChunk]
    time_s: float
    lost: bool
    #: Event-driven path only: the fetch was cancelled after the fastest
    #: ``d`` chunks completed (``time_s`` is then the partial transfer).
    abandoned: bool = False


@dataclass
class ProxyGetResult:
    """Outcome of a GET handled by one proxy."""

    key: str
    found: bool
    recoverable: bool
    descriptor: Optional[ObjectDescriptor]
    fetches: list[ChunkFetch] = field(default_factory=list)
    #: The fastest-d chunks actually used for reconstruction.
    used_chunks: list[CacheChunk] = field(default_factory=list)
    latency_s: float = 0.0
    chunks_lost: int = 0
    recovery_performed: bool = False
    hosts_touched: int = 0
    #: Hardened path only: fewer than ``data_shards`` chunks were *reachable*
    #: after retries and hedging, but the mapping table still holds the
    #: object — the caller serves the request from the backing store (a
    #: degraded hit, not a miss) and the failure detector heals the stripe.
    degraded: bool = False

    @property
    def is_miss(self) -> bool:
        """Whether the caller must fall back to the backing store."""
        return not self.found or not self.recoverable


@dataclass
class ProxyPutResult:
    """Outcome of a PUT handled by one proxy."""

    key: str
    latency_s: float
    node_ids: list[str]
    evicted_keys: list[str] = field(default_factory=list)
    hosts_touched: int = 0
    #: Hardened path only: ``False`` when at least one chunk store exhausted
    #: its retries, in which case the partial object was rolled back out of
    #: the mapping table (the caller may re-try the PUT later).
    complete: bool = True


@dataclass
class _ObjectEntry:
    descriptor: ObjectDescriptor
    #: chunk index -> node id
    placement: dict[int, str]
    inserted_at: float


class Proxy:
    """One InfiniCache proxy and its Lambda node pool."""

    def __init__(
        self,
        proxy_id: str,
        config: InfiniCacheConfig,
        platform: FaaSPlatform,
        transfer_model: TransferModel,
        rng: SeededRNG,
        metrics: MetricRegistry | None = None,
    ):
        self.proxy_id = proxy_id
        self.config = config
        self.platform = platform
        self.transfer_model = transfer_model
        self.rng = rng
        self.metrics = metrics or MetricRegistry()
        #: Request-path hardening knobs; the all-defaults config keeps every
        #: feature off and the proxy on the original un-instrumented path.
        self.resilience = config.resilience or ResilienceConfig()
        #: Chaos-engine override of the configured straggler model during a
        #: straggler-inflation fault window; ``None`` outside windows.
        self.straggler_override: Optional[StragglerModel] = None
        #: Jitter stream for retry backoff and hedging.  Child derivation is
        #: hash-based (consumes nothing from the placement stream) and the
        #: stream itself is drawn from only when a retry actually fires, so a
        #: fault-free run's randomness is untouched.
        self._retry_rng = rng.child("retry")
        self.nodes: list[LambdaCacheNode] = []
        self._nodes_by_id: dict[str, LambdaCacheNode] = {}
        self._nodes_by_function: dict[str, LambdaCacheNode] = {}
        #: Monotonic node-name counter; decommissioned names are never reused
        #: because the platform's function registry is append-only.
        self._next_node_index = 0
        for _ in range(config.lambdas_per_proxy):
            self._create_node()
        self._objects: dict[str, _ObjectEntry] = {}
        self._lru: ClockLRU[int] = ClockLRU()
        #: Codecs for stripe reconstruction, cached per (d, p) geometry.
        self._codecs: dict[tuple[int, int], ErasureCodec] = {}
        #: GET + PUT requests handled so far (the autoscaler samples deltas).
        self.requests_served = 0
        platform.on_reclaim(self._handle_reclaim)

    def _create_node(self) -> LambdaCacheNode:
        node = LambdaCacheNode(
            node_id=f"{self.proxy_id}-lambda-{self._next_node_index:04d}",
            platform=self.platform,
            memory_bytes=self.config.lambda_memory_bytes,
            billing_buffer_s=self.config.billing_buffer_s,
            billing_extension_threshold=self.config.billing_extension_threshold,
            runtime_overhead_fraction=self.config.runtime_overhead_fraction,
        )
        if self.resilience.circuit_breaker is not None:
            policy = self.resilience.circuit_breaker
            node.breaker = CircuitBreaker(
                failure_threshold=policy.failure_threshold,
                reset_timeout_s=policy.reset_timeout_s,
            )
        self._next_node_index += 1
        self.nodes.append(node)
        self._nodes_by_id[node.node_id] = node
        self._nodes_by_function[node.node_id] = node
        return node

    def __repr__(self) -> str:
        return f"Proxy({self.proxy_id}, nodes={len(self.nodes)}, objects={len(self._objects)})"

    # ------------------------------------------------------------------ introspection
    @property
    def pool_size(self) -> int:
        """Number of Lambda nodes currently in the pool."""
        return len(self.nodes)

    @property
    def pool_capacity_bytes(self) -> int:
        """Total chunk capacity across the pool."""
        return sum(node.capacity_bytes for node in self.nodes)

    def memory_pressure(self) -> float:
        """Fraction of the pool's chunk capacity currently in use."""
        capacity = self.pool_capacity_bytes
        return self.pool_bytes_used() / capacity if capacity else 0.0

    def object_keys(self) -> list[str]:
        """Keys of every object this proxy currently tracks."""
        return list(self._objects)

    def objects_on_node(self, node_id: str) -> list[str]:
        """Keys of objects with at least one chunk placed on the given node."""
        return [
            key
            for key, entry in self._objects.items()
            if node_id in entry.placement.values()
        ]

    def pool_bytes_used(self) -> int:
        """Bytes of chunk data currently stored across the pool."""
        return sum(node.bytes_used() for node in self.nodes)

    def object_count(self) -> int:
        """Number of objects this proxy currently tracks."""
        return len(self._objects)

    def contains(self, key: str) -> bool:
        """Whether the mapping table still has an entry for this key."""
        return key in self._objects

    def node(self, node_id: str) -> LambdaCacheNode:
        """Look up a node by identifier."""
        node = self._nodes_by_id.get(node_id)
        if node is None:
            raise CacheError(f"proxy {self.proxy_id} has no node {node_id!r}")
        return node

    # ------------------------------------------------------------------ reclaim handling
    def _handle_reclaim(self, instance) -> None:
        node = self._nodes_by_function.get(instance.function_name)
        if node is not None:
            node.on_instance_reclaimed(instance)

    # ------------------------------------------------------------------ pool elasticity
    def add_node(self) -> LambdaCacheNode:
        """Grow the pool by one freshly registered Lambda node."""
        node = self._create_node()
        self.metrics.counter("proxy.nodes_added").increment()
        return node

    def drain_node(self, node_id: str, now: float) -> tuple[int, int]:
        """Migrate every chunk off a node onto the rest of the pool.

        Chunks whose bytes are gone (the node was reclaimed) are EC-decoded
        back from the surviving stripe when possible, and rebuilt as
        size-only placeholders only when the stripe is unrecoverable.
        Returns ``(moved, dropped)`` chunk counts; a chunk is dropped when no
        other node has room for it, in which case its object keeps the stale
        placement and relies on erasure parity.  The migration traffic is
        billed under ``rebalance`` and charged back to the owning tenant.
        """
        return self._drain_chunks(self.node(node_id), now)

    def _drain_chunks(self, node: LambdaCacheNode, now: float) -> tuple[int, int]:
        moved = dropped = 0
        for key, entry in self._objects.items():
            reconstructed: Optional[dict[int, CacheChunk]] = None
            owner = owner_of(key)
            for chunk_index, placed_on in list(entry.placement.items()):
                if placed_on != node.node_id:
                    continue
                chunk_id = f"{key}#{chunk_index}"
                chunk: Optional[CacheChunk] = None
                if node.is_alive and node.has_chunk(chunk_id):
                    chunk = node.fetch_chunk(chunk_id)
                if chunk is None:
                    if reconstructed is None:
                        reconstructed = self._reconstruct_missing(
                            key, entry, self._surviving_chunks(key, entry)
                        )
                    chunk = self._rebuilt_chunk(key, entry, chunk_index, reconstructed)
                target = self._migration_target(entry, chunk.size, exclude=node.node_id)
                if target is None:
                    dropped += 1
                    continue
                target.ensure_active(now, "rebalance")
                target.record_service(
                    now, chunk.size / target.bandwidth_bps, "rebalance", owner
                )
                target.store_chunk(chunk)
                node.delete_chunk(chunk_id)
                entry.placement[chunk_index] = target.node_id
                moved += 1
        self.metrics.counter("proxy.chunks_drained").increment(moved)
        return moved, dropped

    def _migration_target(
        self, entry: _ObjectEntry, chunk_size: int, exclude: str
    ) -> Optional[LambdaCacheNode]:
        """An alive node with room that holds no other chunk of this object."""
        occupied = set(entry.placement.values())
        candidates = [
            node
            for node in self.nodes
            if node.node_id != exclude
            and node.node_id not in occupied
            and node.is_alive
            and node.free_bytes() >= chunk_size
        ]
        if not candidates:
            return None
        # Fill the emptiest node first to keep the pool balanced.
        return max(candidates, key=lambda node: (node.free_bytes(), node.node_id))

    def decommission_node(self, node_id: str, now: float) -> tuple[int, int]:
        """Drain a node, release its function instances, and shrink the pool."""
        if len(self.nodes) <= 1:
            raise CacheError(f"proxy {self.proxy_id} cannot drop its last node")
        node = self.node(node_id)
        self.nodes.remove(node)
        self._nodes_by_id.pop(node_id)
        self._nodes_by_function.pop(node_id)
        moved, dropped = self._drain_chunks(node, now)
        for instance in (node.primary, node.backup_peer):
            if instance is not None and instance.is_alive:
                self.platform.reclaim_instance(instance)
        node.finish_sessions()
        self.metrics.counter("proxy.nodes_removed").increment()
        return moved, dropped

    # ------------------------------------------------------------------ export / audit
    def _codec_for(self, descriptor: ObjectDescriptor) -> ErasureCodec:
        geometry = (descriptor.data_shards, descriptor.parity_shards)
        codec = self._codecs.get(geometry)
        if codec is None:
            codec = ErasureCodec(*geometry)
            self._codecs[geometry] = codec
        return codec

    def _surviving_chunks(self, key: str, entry: _ObjectEntry) -> dict[int, CacheChunk]:
        """Every stripe chunk whose bytes are still present, by index."""
        survivors: dict[int, CacheChunk] = {}
        for chunk_index, node_id in entry.placement.items():
            node = self._nodes_by_id.get(node_id)
            if node is None:
                continue
            chunk = node.peek_chunk(f"{key}#{chunk_index}")
            if chunk is not None:
                survivors[chunk_index] = chunk
        return survivors

    def _reconstruct_missing(
        self, key: str, entry: _ObjectEntry, survivors: dict[int, CacheChunk]
    ) -> dict[int, CacheChunk]:
        """EC-decode the lost chunks' real payloads from the survivors.

        Returns the rebuilt payload-carrying chunks by index — empty when the
        stripe cannot be reconstructed (size-only chunks, or fewer than
        ``data_shards`` payload-carrying survivors), in which case callers
        fall back to size-only placeholders.
        """
        descriptor = entry.descriptor
        with_payload = [
            chunk for chunk in survivors.values() if chunk.payload is not None
        ]
        if len(with_payload) < descriptor.data_shards:
            return {}
        metadata = StripeMetadata(
            key=descriptor.key,
            object_size=descriptor.object_size,
            data_shards=descriptor.data_shards,
            parity_shards=descriptor.parity_shards,
            chunk_size=descriptor.chunk_size,
        )
        erasure_chunks = [
            ErasureChunk(key=key, index=chunk.index, payload=chunk.payload,
                         metadata=metadata)
            for chunk in with_payload
        ]
        try:
            stripe = self._codec_for(descriptor).rebuild_missing(erasure_chunks)
        except DecodingError:
            return {}
        missing = set(range(descriptor.total_chunks)) - set(survivors)
        return {
            chunk.index: CacheChunk.from_erasure_chunk(chunk)
            for chunk in stripe
            if chunk.index in missing
        }

    def _rebuilt_chunk(
        self,
        key: str,
        entry: _ObjectEntry,
        chunk_index: int,
        reconstructed: dict[int, CacheChunk],
    ) -> CacheChunk:
        """A lost chunk's replacement: real payload if decodable, else a
        size-only placeholder (the stripe is then only nominally whole)."""
        rebuilt = reconstructed.get(chunk_index)
        if rebuilt is not None:
            return rebuilt
        return CacheChunk.sized(key, chunk_index, entry.descriptor.chunk_size)

    def export_object(
        self, key: str
    ) -> Optional[tuple[ObjectDescriptor, list[CacheChunk]]]:
        """Read an object's descriptor and chunks for cross-proxy migration.

        Chunks whose bytes were lost to reclamation are EC-decoded back from
        the surviving chunks whenever at least ``data_shards`` payload-carrying
        chunks remain, so migrated objects keep their real data.  Only a
        genuinely unrecoverable stripe (or a size-only replay stripe) falls
        back to size-only placeholders, and the export still always has
        ``total_chunks`` entries.
        """
        entry = self._objects.get(key)
        if entry is None:
            return None
        survivors = self._surviving_chunks(key, entry)
        reconstructed: dict[int, CacheChunk] = {}
        if len(survivors) < entry.descriptor.total_chunks:
            reconstructed = self._reconstruct_missing(key, entry, survivors)
        chunks: list[CacheChunk] = []
        for chunk_index in range(entry.descriptor.total_chunks):
            chunk = survivors.get(chunk_index)
            if chunk is None:
                chunk = self._rebuilt_chunk(key, entry, chunk_index, reconstructed)
            chunks.append(chunk)
        return entry.descriptor, chunks

    def audit_and_repair(
        self, now: float, on_loss: Optional[Callable[[str], None]] = None
    ) -> tuple[int, int]:
        """Proactively repair objects whose chunks were lost to reclamation.

        The failure detector calls this between requests so that losses are
        healed before the next degraded read.  Returns ``(repaired, lost)``
        object counts; objects with more than ``p`` chunks gone are dropped
        (the next GET would RESET them from the backing store anyway) and
        reported through ``on_loss`` so callers can reconcile accounting.
        """
        repaired = lost = 0
        for key in list(self._objects):
            entry = self._objects.get(key)
            if entry is None:
                # Dropped by a reclaim listener while an earlier repair in
                # this same sweep cold-started a replacement node.
                continue
            missing = [
                ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=None,
                           time_s=float("inf"), lost=True)
                for chunk_index, node_id in sorted(entry.placement.items())
                if not self._chunk_present(key, chunk_index, node_id)
            ]
            if not missing:
                continue
            surviving = entry.descriptor.total_chunks - len(missing)
            if surviving < entry.descriptor.data_shards:
                self._remove_object(key)
                self.metrics.counter("proxy.object_losses").increment()
                lost += 1
                if on_loss is not None:
                    on_loss(key)
                continue
            try:
                healed = self._repair_object(key, entry, missing, now, category="repair")
            except TransientFaultError:
                # A replacement node failed to come up (injected invocation
                # fault, reclaim racing the repair): leave the stale
                # placement for the next sweep instead of aborting it.
                self.metrics.counter("proxy.repair_faults").increment()
                continue
            if healed and key in self._objects:
                repaired += 1
        return repaired, lost

    def _chunk_present(self, key: str, chunk_index: int, node_id: str) -> bool:
        node = self._nodes_by_id.get(node_id)
        return node is not None and node.has_chunk(f"{key}#{chunk_index}")

    # ------------------------------------------------------------------ placement
    def choose_placement(self, total_chunks: int) -> list[str]:
        """Pick ``total_chunks`` distinct nodes uniformly at random.

        Mirrors the client library's random non-repetitive IDλ vector; the
        proxy performs the draw because it owns the pool membership.
        """
        if total_chunks > len(self.nodes):
            raise ObjectTooLargeError(
                f"an object needs {total_chunks} distinct nodes but the pool has {len(self.nodes)}"
            )
        indices = self.rng.sample_without_replacement(len(self.nodes), total_chunks)
        return [self.nodes[i].node_id for i in indices]

    # ------------------------------------------------------------------ timing helpers
    def _chunk_transfer_time(
        self,
        chunk_size: int,
        node: LambdaCacheNode,
        flows_per_host: dict[str, int],
        concurrent_streams: int,
        now: float,
        category: str,
        tenant: Optional[str] = None,
    ) -> float:
        """Invocation overhead + contention-aware transfer time for one chunk."""
        access = node.ensure_active(now, category)
        host_id = node.primary.host_id if node.primary is not None else node.node_id
        timing = self.transfer_model.chunk_transfer_timing(
            chunk_bytes=chunk_size,
            function_bandwidth_bps=node.bandwidth_bps,
            host_capacity_bps=self.platform.limits.host_nic_bandwidth,
            host_id=host_id,
            flows_on_host=flows_per_host.get(host_id, 1),
            concurrent_request_streams=concurrent_streams,
        )
        transfer_s = timing.transfer_s * self._straggler_factor()
        node.record_service(now, timing.latency_s + transfer_s, category, tenant)
        return access.overhead_s + timing.latency_s + transfer_s

    def _straggler_factor(self) -> float:
        """One multiplicative straggler draw from the proxy's seeded stream."""
        straggler = self.straggler_override or self.config.straggler
        if straggler.probability > 0 and self.rng.random() < straggler.probability:
            return self.rng.uniform(straggler.min_factor, straggler.max_factor)
        return 1.0

    def _flows_per_host(self, nodes: list[LambdaCacheNode]) -> dict[str, int]:
        flows: dict[str, int] = {}
        for node in nodes:
            host_id = node.primary.host_id if node.primary is not None else node.node_id
            flows[host_id] = flows.get(host_id, 0) + 1
        return flows

    def _hosts_touched(self, nodes: list[LambdaCacheNode]) -> int:
        hosts = set()
        for node in nodes:
            if node.primary is not None:
                hosts.add(node.primary.host_id)
        return len(hosts)

    # ------------------------------------------------------------------ eviction
    def _evict_until_fits(
        self, needed_by_node: dict[str, int], total_needed: int
    ) -> list[str]:
        """Evict whole objects (CLOCK order) until the new object fits.

        Eviction stops when both the pool as a whole and every destination
        node individually have room for the incoming chunks.
        """
        evicted: list[str] = []

        def fits() -> bool:
            if self.pool_bytes_used() + total_needed > self.pool_capacity_bytes:
                return False
            for node_id, needed in needed_by_node.items():
                if self.node(node_id).free_bytes() < needed:
                    return False
            return True

        while not fits():
            victim = self._lru.evict()
            if victim is None:
                raise ObjectTooLargeError(
                    "cannot make room in the Lambda pool even after evicting every object"
                )
            victim_key, _size = victim
            self._remove_object(victim_key)
            evicted.append(victim_key)
            self.metrics.counter("proxy.evictions").increment()
        return evicted

    def _remove_object(self, key: str) -> None:
        entry = self._objects.pop(key, None)
        if entry is None:
            return
        self._lru.remove(key)
        for chunk_index, node_id in entry.placement.items():
            chunk_id = f"{key}#{chunk_index}"
            node = self._nodes_by_id.get(node_id)
            if node is not None:
                node.delete_chunk(chunk_id)

    def invalidate(self, key: str) -> bool:
        """Drop an object from the cache (client-side invalidation on overwrite)."""
        existed = key in self._objects
        self._remove_object(key)
        return existed

    # ------------------------------------------------------------------ PUT
    def put(
        self,
        key: str,
        descriptor: ObjectDescriptor,
        chunks: list[CacheChunk],
        now: float,
        placement: Optional[list[str]] = None,
        category: str = "serving",
    ) -> ProxyPutResult:
        """Store an object's chunks on the pool and record the placement."""
        if len(chunks) != descriptor.total_chunks:
            raise CacheError(
                f"object {key!r} descriptor expects {descriptor.total_chunks} chunks, "
                f"got {len(chunks)}"
            )
        if placement is None:
            placement = self.choose_placement(descriptor.total_chunks)
        if len(placement) != descriptor.total_chunks:
            raise CacheError("placement vector length does not match the chunk count")
        if len(set(placement)) != len(placement):
            raise CacheError("placement vector must name distinct nodes")

        # Overwrite: drop the previous version first (write-through semantics).
        self._remove_object(key)

        needed_by_node = {
            node_id: chunk.size for node_id, chunk in zip(placement, chunks)
        }
        evicted = self._evict_until_fits(needed_by_node, sum(needed_by_node.values()))

        target_nodes = [self.node(node_id) for node_id in placement]
        flows = self._flows_per_host(target_nodes)
        owner = owner_of(key)
        chunk_times = []
        for chunk, node in zip(chunks, target_nodes):
            time_s = self._chunk_transfer_time(
                chunk.size, node, flows, len(chunks), now, category, owner
            )
            node.store_chunk(chunk)
            chunk_times.append(time_s)

        entry = _ObjectEntry(
            descriptor=descriptor,
            placement={chunk.index: node_id for chunk, node_id in zip(chunks, placement)},
            inserted_at=now,
        )
        self._objects[key] = entry
        self._lru.insert(key, descriptor.stored_bytes)
        if category == "serving":
            # Maintenance traffic (rebalance migrations) must not pollute the
            # autoscaler's client-request-rate signal.
            self.requests_served += 1
            self.metrics.counter("proxy.puts").increment()
        else:
            self.metrics.counter(f"proxy.{category}_puts").increment()
        self.metrics.gauge("proxy.bytes_used").set(self.pool_bytes_used())

        return ProxyPutResult(
            key=key,
            latency_s=max(chunk_times) if chunk_times else 0.0,
            node_ids=list(placement),
            evicted_keys=evicted,
            hosts_touched=self._hosts_touched(target_nodes),
        )

    # ------------------------------------------------------------------ GET
    def get(self, key: str, now: float) -> ProxyGetResult:
        """Fetch an object's chunks with first-d parallel streaming."""
        self.requests_served += 1
        entry = self._objects.get(key)
        if entry is None:
            self.metrics.counter("proxy.misses").increment()
            return ProxyGetResult(key=key, found=False, recoverable=False, descriptor=None)

        self._lru.touch(key)
        descriptor = entry.descriptor
        involved_nodes = [self.node(node_id) for node_id in entry.placement.values()]
        flows = self._flows_per_host(involved_nodes)
        owner = owner_of(key)
        fetches: list[ChunkFetch] = []
        for chunk_index, node_id in sorted(entry.placement.items()):
            node = self.node(node_id)
            chunk_id = f"{key}#{chunk_index}"
            chunk = node.fetch_chunk(chunk_id) if node.is_alive else None
            if chunk is None:
                fetches.append(
                    ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=None,
                               time_s=float("inf"), lost=True)
                )
                continue
            time_s = self._chunk_transfer_time(
                chunk.size, node, flows, descriptor.total_chunks, now, "serving", owner
            )
            fetches.append(
                ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=chunk,
                           time_s=time_s, lost=False)
            )

        available = [fetch for fetch in fetches if not fetch.lost]
        lost_count = descriptor.total_chunks - len(available)
        hosts_touched = self._hosts_touched(involved_nodes)

        if len(available) < descriptor.data_shards:
            # Unrecoverable: the caller must RESET from the backing store.
            self._remove_object(key)
            self.metrics.counter("proxy.object_losses").increment()
            self.metrics.counter("proxy.misses").increment()
            return ProxyGetResult(
                key=key,
                found=True,
                recoverable=False,
                descriptor=descriptor,
                fetches=fetches,
                chunks_lost=lost_count,
                hosts_touched=hosts_touched,
            )

        # First-d: the request completes when the fastest d chunks are in.
        fastest = sorted(available, key=lambda fetch: fetch.time_s)[: descriptor.data_shards]
        latency = max(fetch.time_s for fetch in fastest)
        used_chunks = [fetch.chunk for fetch in fastest]

        recovery_performed = False
        if lost_count > 0:
            self.metrics.counter("proxy.degraded_reads").increment()
            if self.config.repair_degraded_objects:
                recovery_performed = self._repair_object(key, entry, fetches, now)

        self.metrics.counter("proxy.hits").increment()
        return ProxyGetResult(
            key=key,
            found=True,
            recoverable=True,
            descriptor=descriptor,
            fetches=fetches,
            used_chunks=used_chunks,
            latency_s=latency,
            chunks_lost=lost_count,
            recovery_performed=recovery_performed,
            hosts_touched=hosts_touched,
        )

    # ------------------------------------------------------------------ event-driven path
    def _chunk_transfer_process(
        self,
        key: str,
        chunk_index: int,
        chunk: CacheChunk,
        effective_bytes: float,
        node: LambdaCacheNode,
        env: RequestEnv,
        owner: Optional[str],
        category: str,
        fetch: Optional[ChunkFetch] = None,
        store: bool = False,
        span_parent=None,
    ):
        """Coroutine moving one chunk between a node and this proxy.

        Invokes the node (opening its billed session), waits out the
        invocation overhead and network latency, then streams the bytes as a
        flow whose bandwidth share is recomputed as other flows come and go.
        If the process is cancelled mid-flow (an abandoned straggler fetch),
        the ``finally`` block still bills the partial transfer the Lambda
        actually performed.
        """
        arrival = env.now
        tracer = env.tracer
        span = tracer.begin("chunk.store" if store else "chunk.fetch", span_parent,
                            chunk=chunk_index, node=node.node_id)
        access = node.ensure_active(arrival, category)
        if store:
            node.store_chunk(chunk)
        env.begin_transfer(node)
        env.watch_session(node)
        latency = self.transfer_model.base_latency_s
        preamble = access.overhead_s + latency
        flow = None
        try:
            if preamble > 0:
                invoke_span = tracer.begin("lambda.invoke", span, node=node.node_id,
                                           cold=access.cold_start)
                try:
                    yield preamble
                finally:
                    tracer.finish(invoke_span)
            host_id = node.primary.host_id if node.primary is not None else node.node_id
            flow = env.flows.transfer(
                size_bytes=effective_bytes,
                function_bandwidth_bps=node.bandwidth_bps,
                host_id=host_id,
                host_capacity_bps=self.platform.limits.host_nic_bandwidth,
                proxy_id=self.proxy_id,
                label=f"{self.proxy_id}:{category}:{key}#{chunk_index}",
            )
            if span.recording:
                flow.parent_span = span
            yield flow.future
        finally:
            # Runs on completion *and* on abandonment (generator close): the
            # node is billed for the work it actually performed either way.
            # The busy interval is anchored to *end now* — anchoring it at
            # arrival would let the billing window lapse mid-flight when the
            # preamble includes a cold start.
            if flow is not None:
                service = latency + (env.now - flow.started_at)
            else:
                service = env.now - arrival
            env.end_transfer(node)
            node.record_service(env.now - service, service, category, owner)
            env.watch_session(node)
            if fetch is not None:
                fetch.time_s = env.now - arrival
            if span.recording and fetch is not None:
                span.annotate(abandoned=fetch.abandoned)
            tracer.finish(span)
        return fetch

    def get_process(self, key: str, env: RequestEnv, span=None):
        """Event-driven GET coroutine: the d-of-n chunk fetches genuinely race.

        Matches :meth:`get` for hits, misses, and degraded reads, with two
        refinements only the event engine can express: concurrent chunk
        flows share bandwidth dynamically while in flight, and once the
        fastest ``data_shards`` chunks have landed the stragglers are
        *abandoned* (billed for their partial transfer), as in the paper's
        first-d streaming.
        """
        if self.resilience.hardened:
            result = yield from self._get_process_hardened(key, env, span)
            return result
        start = env.now
        tracer = env.tracer
        op_span = tracer.begin("proxy.get", span, proxy=self.proxy_id, key=key)
        self.requests_served += 1
        entry = self._objects.get(key)
        if entry is None:
            self.metrics.counter("proxy.misses").increment()
            tracer.finish(op_span, outcome="miss")
            return ProxyGetResult(key=key, found=False, recoverable=False, descriptor=None)

        self._lru.touch(key)
        descriptor = entry.descriptor
        involved_nodes = [self.node(node_id) for node_id in entry.placement.values()]
        owner = owner_of(key)
        fetches: list[ChunkFetch] = []
        pending: list[tuple[ChunkFetch, LambdaCacheNode]] = []
        for chunk_index, node_id in sorted(entry.placement.items()):
            node = self.node(node_id)
            chunk = node.fetch_chunk(f"{key}#{chunk_index}") if node.is_alive else None
            if chunk is None:
                fetches.append(
                    ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=None,
                               time_s=float("inf"), lost=True)
                )
                continue
            fetch = ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=chunk,
                               time_s=0.0, lost=False)
            fetches.append(fetch)
            pending.append((fetch, node))

        lost_count = descriptor.total_chunks - len(pending)
        hosts_touched = self._hosts_touched(involved_nodes)

        if len(pending) < descriptor.data_shards:
            # Unrecoverable: no transfer is even attempted (the mapping table
            # already knows); the caller must RESET from the backing store.
            self._remove_object(key)
            self.metrics.counter("proxy.object_losses").increment()
            self.metrics.counter("proxy.misses").increment()
            tracer.finish(op_span, outcome="lost")
            return ProxyGetResult(
                key=key,
                found=True,
                recoverable=False,
                descriptor=descriptor,
                fetches=fetches,
                chunks_lost=lost_count,
                hosts_touched=hosts_touched,
            )

        tasks = []
        for fetch, node in pending:
            effective = (
                fetch.chunk.size
                * self._straggler_factor()
                * self.transfer_model.draw_jitter()
            )
            tasks.append(env.loop.spawn(
                self._chunk_transfer_process(
                    key, fetch.chunk_index, fetch.chunk, effective, node, env,
                    owner, "serving", fetch=fetch, span_parent=op_span,
                ),
                label=f"{self.proxy_id}:fetch:{key}#{fetch.chunk_index}",
            ))

        # First-d: the request completes when the fastest d chunks are in.
        winners = yield first_n(
            descriptor.data_shards, [task.future for task in tasks],
            label=f"{self.proxy_id}:first_d:{key}",
        )
        latency = env.now - start
        for (fetch, _node), task in zip(pending, tasks):
            if not task.done:
                fetch.abandoned = True
                task.cancel()
        used_chunks = [fetch.chunk for fetch in winners]

        recovery_performed = False
        if lost_count > 0:
            self.metrics.counter("proxy.degraded_reads").increment()
            if self.config.repair_degraded_objects:
                recovery_performed = self._repair_object(key, entry, fetches, env.now)

        self.metrics.counter("proxy.hits").increment()
        tracer.finish(op_span, outcome="hit", chunks_lost=lost_count)
        return ProxyGetResult(
            key=key,
            found=True,
            recoverable=True,
            descriptor=descriptor,
            fetches=fetches,
            used_chunks=used_chunks,
            latency_s=latency,
            chunks_lost=lost_count,
            recovery_performed=recovery_performed,
            hosts_touched=hosts_touched,
        )

    def put_process(
        self,
        key: str,
        descriptor: ObjectDescriptor,
        chunks: list[CacheChunk],
        env: RequestEnv,
        placement: Optional[list[str]] = None,
        category: str = "serving",
        span=None,
    ):
        """Event-driven PUT coroutine: all chunk uploads stream concurrently.

        Chunks are reserved on their nodes at arrival (so racing requests
        cannot oversubscribe a node's memory) and the coroutine completes
        when the slowest upload lands.
        """
        if self.resilience.hardened:
            result = yield from self._put_process_hardened(
                key, descriptor, chunks, env, placement, category, span
            )
            return result
        if len(chunks) != descriptor.total_chunks:
            raise CacheError(
                f"object {key!r} descriptor expects {descriptor.total_chunks} chunks, "
                f"got {len(chunks)}"
            )
        if placement is None:
            placement = self.choose_placement(descriptor.total_chunks)
        if len(placement) != descriptor.total_chunks:
            raise CacheError("placement vector length does not match the chunk count")
        if len(set(placement)) != len(placement):
            raise CacheError("placement vector must name distinct nodes")

        start = env.now
        tracer = env.tracer
        op_span = tracer.begin("proxy.put", span, proxy=self.proxy_id, key=key,
                               category=category)
        # Overwrite: drop the previous version first (write-through semantics).
        self._remove_object(key)
        needed_by_node = {
            node_id: chunk.size for node_id, chunk in zip(placement, chunks)
        }
        evicted = self._evict_until_fits(needed_by_node, sum(needed_by_node.values()))

        target_nodes = [self.node(node_id) for node_id in placement]
        owner = owner_of(key)
        tasks = []
        for chunk, node in zip(chunks, target_nodes):
            effective = (
                chunk.size * self._straggler_factor() * self.transfer_model.draw_jitter()
            )
            tasks.append(env.loop.spawn(
                self._chunk_transfer_process(
                    key, chunk.index, chunk, effective, node, env,
                    owner, category, store=True, span_parent=op_span,
                ),
                label=f"{self.proxy_id}:store:{key}#{chunk.index}",
            ))

        entry = _ObjectEntry(
            descriptor=descriptor,
            placement={chunk.index: node_id for chunk, node_id in zip(chunks, placement)},
            inserted_at=start,
        )
        self._objects[key] = entry
        self._lru.insert(key, descriptor.stored_bytes)

        yield all_of([task.future for task in tasks], label=f"{self.proxy_id}:put:{key}")

        if category == "serving":
            self.requests_served += 1
            self.metrics.counter("proxy.puts").increment()
        else:
            self.metrics.counter(f"proxy.{category}_puts").increment()
        self.metrics.gauge("proxy.bytes_used").set(self.pool_bytes_used())

        tracer.finish(op_span)
        return ProxyPutResult(
            key=key,
            latency_s=env.now - start,
            node_ids=list(placement),
            evicted_keys=evicted,
            hosts_touched=self._hosts_touched(target_nodes),
        )

    # ------------------------------------------------------------------ hardened path
    #
    # The methods below are taken only when ``config.resilience`` switches a
    # hardening feature on (chaos scenarios).  The un-hardened coroutines
    # above stay byte-for-byte on their original event/RNG sequence, which is
    # what keeps the committed golden figure fingerprints stable.

    def _attempt_chunk_process(
        self,
        key: str,
        chunk_index: int,
        chunk: CacheChunk,
        node: LambdaCacheNode,
        env: RequestEnv,
        owner: Optional[str],
        category: str,
        fetch: Optional[ChunkFetch] = None,
        store: bool = False,
        span_parent=None,
    ):
        """One guarded transfer attempt: resolves ``True`` on success.

        Transient failures (injected invocation faults, reclaimed-mid-flight)
        resolve ``False`` instead of raising — an exception out of a spawned
        process would escape into the event loop's callback chain and abort
        the whole run.  The node's circuit breaker (when installed) gates the
        attempt and records the outcome.
        """
        breaker = node.breaker
        if breaker is not None and not breaker.allow(env.now):
            self.metrics.counter("proxy.breaker_rejections").increment()
            return False
        effective = (
            chunk.size * self._straggler_factor() * self.transfer_model.draw_jitter()
        )
        try:
            yield from self._chunk_transfer_process(
                key, chunk_index, chunk, effective, node, env, owner, category,
                fetch=fetch, store=store, span_parent=span_parent,
            )
        except TransientFaultError:
            if breaker is not None:
                breaker.record_failure(env.now)
            self.metrics.counter("proxy.chunk_faults").increment()
            return False
        if breaker is not None:
            breaker.record_success(env.now)
        return True

    def _chunk_supervisor_process(
        self,
        key: str,
        chunk_index: int,
        chunk: CacheChunk,
        node: LambdaCacheNode,
        env: RequestEnv,
        owner: Optional[str],
        category: str,
        fetch: Optional[ChunkFetch] = None,
        store: bool = False,
        span_parent=None,
    ):
        """Retry/timeout/hedge harness around one chunk's transfer attempts.

        Per attempt: race the transfer against the configured chunk deadline;
        on deadline expiry spawn one *hedged* second attempt and take
        whichever settles first.  Between attempts sleep an exponential
        backoff stretched by seeded jitter (drawn from the dedicated retry
        stream only when a retry actually fires).  Resolves ``True`` once an
        attempt lands the chunk, ``False`` when the budget is exhausted;
        never raises.  Cancellation (straggler abandonment by the first-d
        quorum) propagates to the in-flight attempt, whose ``finally`` block
        bills the partial transfer as usual.
        """
        policy = self.resilience.retry
        timeout_s = self.resilience.chunk_timeout_s
        max_attempts = policy.max_attempts if policy is not None else 1
        task = hedge = None
        timer: Optional[SimFuture] = None
        try:
            for attempt in range(max_attempts):
                if attempt > 0:
                    backoff = (
                        policy.base_backoff_s
                        * policy.backoff_multiplier ** (attempt - 1)
                        * (1.0 + policy.jitter_fraction * self._retry_rng.random())
                    )
                    self.metrics.counter("proxy.chunk_retries").increment()
                    yield backoff
                hedge = None
                timer = None
                task = env.loop.spawn(
                    self._attempt_chunk_process(
                        key, chunk_index, chunk, node, env, owner, category,
                        fetch=fetch, store=store, span_parent=span_parent,
                    ),
                    label=f"{self.proxy_id}:attempt{attempt}:{key}#{chunk_index}",
                )
                if timeout_s is None:
                    succeeded = yield task.future
                else:
                    timer = env.loop.timeout(
                        timeout_s, label=f"{self.proxy_id}:deadline:{key}#{chunk_index}"
                    )
                    yield first_n(
                        1, [task.future, timer],
                        label=f"{self.proxy_id}:race:{key}#{chunk_index}",
                    )
                    if task.done:
                        timer.cancel()
                        succeeded = task.future.result
                    else:
                        # Deadline passed: hedge a second attempt against the
                        # original, under a second deadline of its own — if
                        # neither lands (the node's link is blackholed, say)
                        # the attempt pair counts as failed and the backoff/
                        # retry loop takes over instead of stalling until the
                        # fault clears.
                        self.metrics.counter("proxy.chunk_hedges").increment()
                        hedge = env.loop.spawn(
                            self._attempt_chunk_process(
                                key, chunk_index, chunk, node, env, owner,
                                category, store=store, span_parent=span_parent,
                            ),
                            label=f"{self.proxy_id}:hedge{attempt}:{key}#{chunk_index}",
                        )
                        timer = env.loop.timeout(
                            timeout_s,
                            label=f"{self.proxy_id}:hedge_deadline:{key}#{chunk_index}",
                        )
                        yield first_n(
                            1, [task.future, hedge.future, timer],
                            label=f"{self.proxy_id}:hedge_race:{key}#{chunk_index}",
                        )
                        if task.done or hedge.done:
                            timer.cancel()
                            winner, loser = (task, hedge) if task.done else (hedge, task)
                            succeeded = bool(winner.future.result)
                            loser.cancel()
                        else:
                            task.cancel()
                            hedge.cancel()
                            succeeded = False
                if succeeded:
                    return True
            return False
        finally:
            for running in (task, hedge):
                if running is not None and not running.done:
                    running.cancel()
            if timer is not None and not timer.done:
                timer.cancel()

    def _chunk_quorum(
        self,
        tasks: list[tuple[SimFuture, Optional[ChunkFetch]]],
        needed: int,
        label: str,
    ) -> SimFuture:
        """A future resolving with the first ``needed`` winning fetches, or
        ``None`` as soon as reaching the quorum becomes impossible.

        ``first_n`` cannot express this: a failed supervisor *resolves* (with
        ``False``) rather than cancelling, so counting resolutions would
        declare victory on failures.
        """
        quorum = SimFuture(label=label)
        winners: list[Optional[ChunkFetch]] = []
        state = {"failures": 0}
        total = len(tasks)

        def make_callback(fetch: Optional[ChunkFetch]):
            def on_done(future: SimFuture) -> None:
                if quorum.done:
                    return
                success = (not future.cancelled) and bool(future.result)
                if success:
                    winners.append(fetch)
                    if len(winners) >= needed:
                        quorum.resolve(list(winners))
                else:
                    state["failures"] += 1
                    if total - state["failures"] < needed:
                        quorum.resolve(None)
            return on_done

        for future, fetch in tasks:
            future.add_done_callback(make_callback(fetch))
        return quorum

    def _get_process_hardened(self, key: str, env: RequestEnv, span=None):
        """The GET coroutine with the request path hardened.

        Identical to :meth:`get_process` except that every chunk transfer
        runs under a retry/timeout/hedge supervisor, and a request that
        cannot reach ``data_shards`` chunks degrades gracefully (backing
        store fallback, mapping left intact for the failure detector)
        instead of raising or dropping the object.
        """
        start = env.now
        tracer = env.tracer
        op_span = tracer.begin("proxy.get", span, proxy=self.proxy_id, key=key)
        self.requests_served += 1
        entry = self._objects.get(key)
        if entry is None:
            self.metrics.counter("proxy.misses").increment()
            tracer.finish(op_span, outcome="miss")
            return ProxyGetResult(key=key, found=False, recoverable=False, descriptor=None)

        self._lru.touch(key)
        descriptor = entry.descriptor
        involved_nodes = [self.node(node_id) for node_id in entry.placement.values()]
        owner = owner_of(key)
        fetches: list[ChunkFetch] = []
        pending: list[tuple[ChunkFetch, LambdaCacheNode]] = []
        for chunk_index, node_id in sorted(entry.placement.items()):
            node = self.node(node_id)
            chunk = node.fetch_chunk(f"{key}#{chunk_index}") if node.is_alive else None
            if chunk is None:
                fetches.append(
                    ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=None,
                               time_s=float("inf"), lost=True)
                )
                continue
            fetch = ChunkFetch(chunk_index=chunk_index, node_id=node_id, chunk=chunk,
                               time_s=0.0, lost=False)
            fetches.append(fetch)
            pending.append((fetch, node))

        lost_count = descriptor.total_chunks - len(pending)
        hosts_touched = self._hosts_touched(involved_nodes)

        if len(pending) < descriptor.data_shards:
            # More than ``p`` chunks already gone from the mapping: this is
            # the ordinary RESET path, not a transient fault — the caller
            # re-fetches and re-inserts from the backing store.
            self._remove_object(key)
            self.metrics.counter("proxy.object_losses").increment()
            self.metrics.counter("proxy.misses").increment()
            tracer.finish(op_span, outcome="lost")
            return ProxyGetResult(
                key=key,
                found=True,
                recoverable=False,
                descriptor=descriptor,
                fetches=fetches,
                chunks_lost=lost_count,
                hosts_touched=hosts_touched,
            )

        tasks = []
        for fetch, node in pending:
            tasks.append(env.loop.spawn(
                self._chunk_supervisor_process(
                    key, fetch.chunk_index, fetch.chunk, node, env, owner,
                    "serving", fetch=fetch, span_parent=op_span,
                ),
                label=f"{self.proxy_id}:fetch:{key}#{fetch.chunk_index}",
            ))

        winners = yield self._chunk_quorum(
            [(task.future, fetch) for task, (fetch, _node) in zip(tasks, pending)],
            descriptor.data_shards,
            label=f"{self.proxy_id}:quorum:{key}",
        )
        latency = env.now - start
        for (fetch, _node), task in zip(pending, tasks):
            if not task.done:
                fetch.abandoned = True
                task.cancel()

        if winners is None:
            # Fewer than d chunks reachable after retries and hedging.
            self.metrics.counter("proxy.degraded_fallbacks").increment()
            if self.resilience.degraded_fallback:
                tracer.finish(op_span, outcome="degraded")
                return ProxyGetResult(
                    key=key,
                    found=True,
                    recoverable=True,
                    descriptor=descriptor,
                    fetches=fetches,
                    latency_s=latency,
                    chunks_lost=lost_count,
                    hosts_touched=hosts_touched,
                    degraded=True,
                )
            self._remove_object(key)
            self.metrics.counter("proxy.object_losses").increment()
            self.metrics.counter("proxy.misses").increment()
            tracer.finish(op_span, outcome="lost")
            return ProxyGetResult(
                key=key,
                found=True,
                recoverable=False,
                descriptor=descriptor,
                fetches=fetches,
                chunks_lost=lost_count,
                hosts_touched=hosts_touched,
            )

        used_chunks = [fetch.chunk for fetch in winners]
        recovery_performed = False
        if lost_count > 0:
            self.metrics.counter("proxy.degraded_reads").increment()
            if self.config.repair_degraded_objects:
                try:
                    recovery_performed = self._repair_object(key, entry, fetches, env.now)
                except TransientFaultError:
                    # A repair node faulted mid-repair; the stripe keeps its
                    # stale placement and the next audit sweep re-detects it.
                    self.metrics.counter("proxy.repair_faults").increment()

        self.metrics.counter("proxy.hits").increment()
        tracer.finish(op_span, outcome="hit", chunks_lost=lost_count)
        return ProxyGetResult(
            key=key,
            found=True,
            recoverable=True,
            descriptor=descriptor,
            fetches=fetches,
            used_chunks=used_chunks,
            latency_s=latency,
            chunks_lost=lost_count,
            recovery_performed=recovery_performed,
            hosts_touched=hosts_touched,
        )

    def _put_process_hardened(
        self,
        key: str,
        descriptor: ObjectDescriptor,
        chunks: list[CacheChunk],
        env: RequestEnv,
        placement: Optional[list[str]] = None,
        category: str = "serving",
        span=None,
    ):
        """The PUT coroutine with every chunk store under a retry supervisor.

        A chunk store that exhausts its retries rolls the partial object back
        out of the mapping table and flags the result ``complete=False``
        instead of raising into the driver.
        """
        if len(chunks) != descriptor.total_chunks:
            raise CacheError(
                f"object {key!r} descriptor expects {descriptor.total_chunks} chunks, "
                f"got {len(chunks)}"
            )
        if placement is None:
            placement = self.choose_placement(descriptor.total_chunks)
        if len(placement) != descriptor.total_chunks:
            raise CacheError("placement vector length does not match the chunk count")
        if len(set(placement)) != len(placement):
            raise CacheError("placement vector must name distinct nodes")

        start = env.now
        tracer = env.tracer
        op_span = tracer.begin("proxy.put", span, proxy=self.proxy_id, key=key,
                               category=category)
        self._remove_object(key)
        needed_by_node = {
            node_id: chunk.size for node_id, chunk in zip(placement, chunks)
        }
        evicted = self._evict_until_fits(needed_by_node, sum(needed_by_node.values()))

        target_nodes = [self.node(node_id) for node_id in placement]
        owner = owner_of(key)
        tasks = []
        for chunk, node in zip(chunks, target_nodes):
            tasks.append(env.loop.spawn(
                self._chunk_supervisor_process(
                    key, chunk.index, chunk, node, env, owner, category,
                    store=True, span_parent=op_span,
                ),
                label=f"{self.proxy_id}:store:{key}#{chunk.index}",
            ))

        entry = _ObjectEntry(
            descriptor=descriptor,
            placement={chunk.index: node_id for chunk, node_id in zip(chunks, placement)},
            inserted_at=start,
        )
        self._objects[key] = entry
        self._lru.insert(key, descriptor.stored_bytes)

        results = yield all_of(
            [task.future for task in tasks], label=f"{self.proxy_id}:put:{key}"
        )

        if not all(bool(result) for result in results):
            # At least one chunk store exhausted its retries: roll the
            # partial object back so a later GET is a clean miss rather than
            # a permanently degraded stripe.
            self._remove_object(key)
            self.metrics.counter("proxy.put_failures").increment()
            tracer.finish(op_span, outcome="failed")
            return ProxyPutResult(
                key=key,
                latency_s=env.now - start,
                node_ids=list(placement),
                evicted_keys=evicted,
                hosts_touched=self._hosts_touched(target_nodes),
                complete=False,
            )

        if category == "serving":
            self.requests_served += 1
            self.metrics.counter("proxy.puts").increment()
        else:
            self.metrics.counter(f"proxy.{category}_puts").increment()
        self.metrics.gauge("proxy.bytes_used").set(self.pool_bytes_used())

        tracer.finish(op_span)
        return ProxyPutResult(
            key=key,
            latency_s=env.now - start,
            node_ids=list(placement),
            evicted_keys=evicted,
            hosts_touched=self._hosts_touched(target_nodes),
        )

    # ------------------------------------------------------------------ recovery
    def _repair_object(
        self,
        key: str,
        entry: _ObjectEntry,
        fetches: list[ChunkFetch],
        now: float,
        category: str = "serving",
    ) -> bool:
        """Re-insert chunks lost to reclamation onto fresh nodes (EC recovery).

        When at least ``data_shards`` payload-carrying chunks survive, the
        lost chunks are EC-decoded and re-inserted with their *real* bytes;
        a size-only placeholder is stored only for stripes that carry no
        payloads (trace-replay mode).  The repair traffic is charged back to
        the owning tenant under ``category`` (``"serving"`` on the degraded
        GET path, ``"repair"`` from the failure detector's audit sweep).
        """
        descriptor = entry.descriptor
        lost_fetches = [fetch for fetch in fetches if fetch.lost]
        if not lost_fetches:
            return False
        occupied = set(entry.placement.values())
        replacements: list[LambdaCacheNode] = []
        candidates = [node for node in self.nodes if node.node_id not in occupied]
        if len(candidates) < len(lost_fetches):
            return False
        indices = self.rng.sample_without_replacement(len(candidates), len(lost_fetches))
        replacements = [candidates[i] for i in indices]

        reconstructed = self._reconstruct_missing(
            key, entry, self._surviving_chunks(key, entry)
        )
        owner = owner_of(key)
        placed = payload_repairs = 0
        for fetch, replacement in zip(lost_fetches, replacements):
            rebuilt = self._rebuilt_chunk(key, entry, fetch.chunk_index, reconstructed)
            if replacement.free_bytes() < rebuilt.size:
                continue
            replacement.ensure_active(now, category)
            replacement.record_service(
                now, rebuilt.size / replacement.bandwidth_bps, category, owner
            )
            replacement.store_chunk(rebuilt)
            entry.placement[fetch.chunk_index] = replacement.node_id
            placed += 1
            if rebuilt.payload is not None:
                payload_repairs += 1
        if placed:
            self.metrics.counter("proxy.recoveries").increment()
            self.metrics.series("proxy.recovery_events").record(now, 1.0)
        if payload_repairs:
            self.metrics.counter("proxy.payload_repairs").increment(payload_repairs)
        # Only a full repair counts: partially healed objects keep stale
        # placements and must be re-detected by the next audit sweep.
        return placed == len(lost_fetches)

    # ------------------------------------------------------------------ maintenance hooks
    def _tenant_bytes_by_node(self) -> dict[str, dict[str, int]]:
        """Per node: bytes stored for each owning tenant (chargeback weights)."""
        weights: dict[str, dict[str, int]] = {}
        for key, entry in self._objects.items():
            owner = owner_of(key)
            chunk_size = entry.descriptor.chunk_size
            for node_id in entry.placement.values():
                per_tenant = weights.setdefault(node_id, {})
                per_tenant[owner] = per_tenant.get(owner, 0) + chunk_size
        return weights

    def warm_up_pool(self, now: float, warmup_service_s: float = 0.001) -> None:
        """Invoke every node briefly so the provider keeps it warm.

        Each node's warm-up is charged back to the tenants whose bytes it is
        keeping warm, pro-rata by stored bytes; warming an empty node is
        unattributed (it lands in the cluster's own chargeback row).  A node
        whose warm-up invocation hits a transient fault (an injected
        invocation failure) is skipped until the next tick rather than
        aborting the whole round.
        """
        tenant_bytes = self._tenant_bytes_by_node()
        for node in self.nodes:
            try:
                node.ensure_active(now, "warmup")
            except TransientFaultError:
                self.metrics.counter("proxy.warmup_faults").increment()
                continue
            weights = tenant_bytes.get(node.node_id)
            attribution = {t: float(b) for t, b in weights.items()} if weights else None
            node.record_service(now, warmup_service_s, "warmup", attribution)
        self.metrics.counter("proxy.warmups").increment()

    def finish_sessions(self) -> None:
        """Flush every node's open billing session (end of simulation)."""
        for node in self.nodes:
            node.finish_sessions()
