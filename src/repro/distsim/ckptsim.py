"""Per-rank checkpoint workloads and durations for a deployment.

Bridges the model spec (bytes), the sharding planner (who writes what)
and the hardware profile (how fast) into the quantities the figures
plot: bottleneck-rank checkpoint bytes (Figure 10(b-d)), snapshot and
persist durations (Figure 11), and total persisted file size
(Figure 13(f)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.config import ShardingPolicy
from ..core.pec import PECPlan, PECPlanner
from ..core.sharding import (
    CheckpointWorkload,
    ShardPlan,
    ShardTopology,
    plan_checkpoint_shards,
)
from .hardware import ClusterSpec
from .modelspec import B_MASTER, B_MOMENTS, B_W, MoEModelSpec


def build_workload(spec: MoEModelSpec) -> CheckpointWorkload:
    """Translate a model spec into the sharding planner's byte inputs."""
    return CheckpointWorkload(
        non_expert_param_items=spec.non_expert_param_items(),
        expert_param_bytes=spec.expert_params * B_W,
        num_moe_layers=spec.num_moe_layers,
        num_experts=spec.num_experts,
        non_expert_master_bytes=spec.non_expert_params * B_MASTER,
        non_expert_moment_bytes=spec.non_expert_params * B_MOMENTS,
        expert_master_bytes=spec.expert_params * B_MASTER,
        expert_moment_bytes=spec.expert_params * B_MOMENTS,
        other_bytes=spec.other_state_bytes,
    )


@dataclass(frozen=True)
class CheckpointCost:
    """One checkpoint's cost under a given plan + hardware."""

    plan: ShardPlan
    bottleneck_rank_bytes: int
    total_bytes: int
    bottleneck_node_bytes: int
    snapshot_seconds: float  # bottleneck rank GPU->CPU
    persist_seconds: float  # bottleneck node CPU->storage


def checkpoint_cost(
    spec: MoEModelSpec,
    topology: ShardTopology,
    cluster: ClusterSpec,
    policy: ShardingPolicy,
    pec_plan: Optional[PECPlan] = None,
) -> CheckpointCost:
    """Cost of one checkpointing process for a deployment.

    Snapshot time is governed by the rank with the largest assignment
    (PCIe is per-GPU); persist time by the node with the largest
    aggregate (the node's storage link is shared by its ranks).
    """
    workload = build_workload(spec)
    plan = plan_checkpoint_shards(topology, workload, policy, pec_plan=pec_plan)
    bottleneck = plan.bottleneck_bytes()
    node_bytes = [plan.node_bytes(node) for node in range(topology.num_nodes)]
    bottleneck_node = max(node_bytes) if node_bytes else 0
    return CheckpointCost(
        plan=plan,
        bottleneck_rank_bytes=bottleneck,
        total_bytes=plan.total_bytes(),
        bottleneck_node_bytes=bottleneck_node,
        snapshot_seconds=bottleneck / cluster.gpu.d2h_bandwidth,
        persist_seconds=bottleneck_node / cluster.storage_bandwidth_per_node,
    )


def pec_plan_for(
    spec: MoEModelSpec,
    k_snapshot: int,
    k_persist: Optional[int] = None,
    checkpoint_index: int = 0,
    apply_to_weights: bool = True,
    apply_to_moments: bool = True,
) -> PECPlan:
    """Convenience: a sequential-selection PEC plan for a model spec."""
    from ..core.config import PECConfig

    k_persist = k_snapshot if k_persist is None else k_persist
    config = PECConfig(
        k_snapshot=min(k_snapshot, spec.num_experts),
        k_persist=min(k_persist, spec.num_experts),
        apply_to_weights=apply_to_weights,
        apply_to_moments=apply_to_moments,
    )
    planner = PECPlanner(config, spec.num_moe_layers, spec.num_experts)
    return planner.plan(checkpoint_index)


@dataclass(frozen=True)
class AsyncWriteWindow:
    """Overlap model for the double-buffered persist pipeline.

    Mirrors :class:`~repro.ckpt.async_writer.AsyncWriteBackend`: once a
    checkpoint's entries are staged, the write drains during subsequent
    training compute.  With ``queue_depth`` checkpoints' worth of staging
    buffers, a persist may keep draining until the buffer is needed again
    — ``queue_depth * checkpoint_interval`` iterations later.  Whatever
    does not fit in that window stalls the training loop.
    """

    window_seconds: float  # compute time available to hide the persist
    stall_seconds: float  # residual blocking time per checkpoint
    hidden_fraction: float  # share of the persist hidden under compute

    @property
    def fully_overlapped(self) -> bool:
        return self.stall_seconds == 0.0


def overlapped_write_window(
    persist_seconds: float,
    iteration_seconds: float,
    checkpoint_interval: int,
    queue_depth: int = 2,
) -> AsyncWriteWindow:
    """Stall per checkpoint under the async double-buffered pipeline.

    ``persist_seconds`` is the synchronous persist duration (e.g.
    :attr:`CheckpointCost.persist_seconds`); the returned stall is what
    remains after overlapping it with ``queue_depth`` checkpoint
    intervals of compute.
    """
    if iteration_seconds <= 0:
        raise ValueError("iteration_seconds must be positive")
    if checkpoint_interval < 1 or queue_depth < 1:
        raise ValueError("checkpoint_interval and queue_depth must be >= 1")
    window = queue_depth * checkpoint_interval * iteration_seconds
    stall = max(0.0, persist_seconds - window)
    hidden = 1.0 if persist_seconds <= 0 else (persist_seconds - stall) / persist_seconds
    return AsyncWriteWindow(
        window_seconds=window, stall_seconds=stall, hidden_fraction=hidden
    )


@dataclass(frozen=True)
class ReshardRecoveryCost:
    """Restore cost when the resume topology differs from the save one.

    Mirrors :mod:`repro.core.reshard` + the parallel restore pipeline:
    every persisted byte must be read back; ZeRO-2 optimizer partitions
    are re-sliced (misaligned partition boundaries split reads into
    extra segments); the parallel pipeline lets every target node drain
    its share concurrently while a serial restore funnels everything
    through one reader.
    """

    source: ShardTopology
    target: ShardTopology
    total_bytes: int
    bottleneck_rank_bytes: int
    read_ops: int  # entry reads + re-slice segments
    serial_seconds: float  # one reader drains everything
    parallel_seconds: float  # per-node concurrent readers

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.parallel_seconds if self.parallel_seconds > 0 else 1.0


def partition_overlap_segments(source_parts: int, target_parts: int) -> int:
    """Contiguous (source, target) overlap pairs when one byte range is
    equally partitioned two ways: ``S + T - gcd(S, T)``.

    Each pair is one read segment a re-slicing target rank must issue;
    aligned repartitions (``T`` divides ``S`` or vice versa) reduce to
    ``max(S, T)`` segments, the no-amplification case.
    """
    import math

    if source_parts < 1 or target_parts < 1:
        raise ValueError("partition counts must be >= 1")
    return source_parts + target_parts - math.gcd(source_parts, target_parts)


def reshard_recovery_cost(
    spec: MoEModelSpec,
    source: ShardTopology,
    target: ShardTopology,
    cluster: ClusterSpec,
    k_persist: Optional[int] = None,
    read_op_latency: float = 5e-4,
) -> ReshardRecoveryCost:
    """Cost one resharded restore of ``spec`` saved under ``source``.

    ``read_op_latency`` models the per-read round trip of a networked
    persist tier; bandwidth comes from the cluster's per-node storage
    link.  Serial restore pays every op's latency back to back; the
    parallel pipeline overlaps latency across a node's concurrent
    readers and lets nodes drain their byte shares simultaneously.
    """
    if spec.num_experts % target.d_ep != 0:
        raise ValueError(
            f"cannot reshard to d_ep={target.d_ep}: num_experts="
            f"{spec.num_experts} is not divisible by it"
        )
    total = persist_file_bytes(spec, source, k_persist)
    ranks = target.num_ranks
    per_rank = (total + ranks - 1) // ranks  # balanced re-slice
    selected = spec.num_experts if k_persist is None else min(k_persist, spec.num_experts)
    expert_entries = spec.num_moe_layers * selected * 2  # weights + optimizer
    ne_entries = len(spec.non_expert_param_items())
    reslice_segments = partition_overlap_segments(source.num_ranks, target.num_ranks)
    read_ops = ne_entries + expert_entries + reslice_segments

    bandwidth = cluster.storage_bandwidth_per_node
    serial = total / bandwidth + read_ops * read_op_latency
    nodes = target.num_nodes
    ranks_per_node = min(target.gpus_per_node, ranks)
    # A node never reads more than the checkpoint holds (the per-rank
    # ceil rounding would otherwise overshoot on a single node).
    bottleneck_node_bytes = min(per_rank * ranks_per_node, total)
    ops_per_node = (read_ops + nodes - 1) // nodes
    # Within a node, concurrent readers pipeline their request latency
    # while sharing the storage link's bandwidth.
    parallel = bottleneck_node_bytes / bandwidth + (
        ops_per_node / max(ranks_per_node, 1)
    ) * read_op_latency
    return ReshardRecoveryCost(
        source=source,
        target=target,
        total_bytes=total,
        bottleneck_rank_bytes=per_rank,
        read_ops=read_ops,
        serial_seconds=serial,
        parallel_seconds=parallel,
    )


@dataclass(frozen=True)
class DedupWriteCost:
    """Persisted-bytes-per-checkpoint model under chunk reuse.

    Mirrors :class:`~repro.ckpt.dedup.DedupBackend`: a PEC checkpoint
    accepts ``logical_bytes`` of serialized entries, but only chunks
    whose content changed since their last persisted version hit
    storage.  Whole-entry reuse (delta saves skipping untouched
    experts) removes bytes *and* manifest metadata; partial change
    dirties whole chunks (a single changed byte re-writes its chunk),
    which is the granularity tax ``chunk_bytes`` trades against
    manifest overhead (one digest per chunk, every save).
    """

    logical_bytes: int  # serialized bytes the checkpoint accepts
    unique_bytes: int  # novel chunk bytes written to storage
    manifest_bytes: int  # digest-list metadata journaled per save
    chunk_bytes: int
    chunks_referenced: int
    chunks_written: int

    @property
    def persisted_bytes(self) -> int:
        """What actually lands on storage for one checkpoint."""
        return self.unique_bytes + self.manifest_bytes

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes per persisted byte (>= 1 under reuse)."""
        if self.persisted_bytes <= 0:
            return 1.0
        return self.logical_bytes / self.persisted_bytes


def dedup_write_cost(
    spec: MoEModelSpec,
    k_persist: Optional[int] = None,
    chunk_bytes: int = 64 * 1024,
    changed_chunk_fraction: float = 1.0,
    unchanged_entry_fraction: float = 0.0,
    digest_bytes: int = 32,
) -> DedupWriteCost:
    """Steady-state persisted bytes for one PEC+dedup checkpoint.

    ``unchanged_entry_fraction`` is the share of the selected payload
    whose entries are bit-identical to their last persisted version
    (untouched experts under sparse routing, frozen layers): the
    manager's delta-save check drops them before serialization, so
    they cost neither chunks nor manifest digests.  Of the remaining
    bytes, ``changed_chunk_fraction`` of the chunks are dirty — a
    changed byte dirties its whole chunk, so this is a *chunk*-level
    fraction.  ``digest_bytes`` prices the manifest journal (one
    SHA-256 per referenced chunk, re-journaled every save).
    """
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    if not 0.0 <= changed_chunk_fraction <= 1.0:
        raise ValueError("changed_chunk_fraction must be in [0, 1]")
    if not 0.0 <= unchanged_entry_fraction <= 1.0:
        raise ValueError("unchanged_entry_fraction must be in [0, 1]")
    if digest_bytes < 0:
        raise ValueError("digest_bytes must be >= 0")
    logical = (
        spec.full_checkpoint_bytes()
        if k_persist is None
        else spec.pec_checkpoint_bytes(min(k_persist, spec.num_experts))
    )
    import math

    delta_logical = int(round(logical * (1.0 - unchanged_entry_fraction)))
    chunks_referenced = math.ceil(delta_logical / chunk_bytes) if delta_logical else 0
    chunks_written = math.ceil(chunks_referenced * changed_chunk_fraction)
    unique = min(chunks_written * chunk_bytes, delta_logical)
    return DedupWriteCost(
        logical_bytes=logical,
        unique_bytes=unique,
        manifest_bytes=chunks_referenced * digest_bytes,
        chunk_bytes=chunk_bytes,
        chunks_referenced=chunks_referenced,
        chunks_written=chunks_written,
    )


def persist_file_bytes(
    spec: MoEModelSpec, topology: ShardTopology, k_persist: Optional[int] = None
) -> int:
    """Total bytes landing on the cluster filesystem per checkpoint.

    ``k_persist=None`` means full saving.  Used for Figure 13(f)'s
    Base-Persist vs MoC-Persist comparison.
    """
    if k_persist is None:
        return spec.full_checkpoint_bytes()
    return spec.pec_checkpoint_bytes(k_persist)


def pec_local_hit_fraction(
    num_experts: int, k_persist: int, local_keep_stamps: int
) -> float:
    """Share of a restore served by a keep-last-k local tier under PEC.

    PEC's round-robin selection persists ``k_persist`` of
    ``num_experts`` experts per checkpoint, so the latest durable
    version of the full population spans the most recent
    ``ceil(E / K)`` checkpoint stamps.  A two-level store that keeps
    the newest ``local_keep_stamps`` stamps on its local tier therefore
    serves ``min(keep, span) / span`` of the restored expert entries
    locally — the rest fall through to the remote tier.  Growing either
    ``k_persist`` (shrinking the span) or ``local_keep_stamps`` widens
    local coverage, which is the Figure 15(a) mechanism: more of the
    recovery set resident on the fast tier.
    """
    import math

    if num_experts < 1 or k_persist < 1:
        raise ValueError("num_experts and k_persist must be >= 1")
    if local_keep_stamps < 0:
        raise ValueError("local_keep_stamps must be >= 0")
    span = math.ceil(num_experts / min(k_persist, num_experts))
    return min(local_keep_stamps, span) / span


@dataclass(frozen=True)
class TwoTierRecoveryCost:
    """Restore cost from a two-level (local cache + remote object) store.

    Mirrors :class:`~repro.ckpt.tiered.TieredBackend`: entries still
    resident on the local tier stream back at the node's storage
    bandwidth; evicted entries are fetched from the remote object tier,
    paying its per-request latency and (narrower) bandwidth, with
    transient faults retried — a fault rate ``p`` inflates each
    request's expected attempts to ``1 / (1 - p)``, and every retry
    re-transfers its payload.  ``remote_only_seconds`` is the
    storage-only baseline (everything from remote), so the Figure 15(a)
    comparison falls out directly: two-level recovery is never slower,
    and widening local coverage drives its cost toward the local-tier
    floor while the baseline stays flat.
    """

    total_bytes: int
    local_bytes: int
    remote_bytes: int
    remote_read_ops: int
    expected_remote_attempts: float  # per-request retry multiplier
    local_seconds: float
    remote_seconds: float
    remote_only_seconds: float  # baseline: the whole restore from remote

    @property
    def recovery_seconds(self) -> float:
        """Two-level restore wall time (tiers drain sequentially)."""
        return self.local_seconds + self.remote_seconds

    @property
    def local_fraction(self) -> float:
        return self.local_bytes / self.total_bytes if self.total_bytes else 1.0

    @property
    def speedup_vs_remote_only(self) -> float:
        if self.recovery_seconds <= 0:
            return 1.0
        return self.remote_only_seconds / self.recovery_seconds


def two_tier_recovery_cost(
    spec: MoEModelSpec,
    cluster: ClusterSpec,
    local_hit_fraction: float,
    k_persist: Optional[int] = None,
    remote_bandwidth: Optional[float] = None,
    remote_latency: float = 0.05,
    remote_fault_rate: float = 0.0,
    hedge_latency_factor: float = 1.0,
) -> TwoTierRecoveryCost:
    """Cost one recovery of ``spec`` from a two-level persist tier.

    ``local_hit_fraction`` is the share of restored bytes (and read
    requests) still resident on the local tier — compute it from a
    retention policy with :func:`pec_local_hit_fraction`, or pass a
    measured value.  ``remote_bandwidth`` defaults to an order of
    magnitude below the node's storage link, the usual NVMe-vs-object
    store gap; ``hedge_latency_factor`` scales the effective remote
    latency to credit hedged reads for clipping the slow tail
    (``1.0`` = no hedging benefit, ``0.5`` = tail halved).
    """
    if not 0.0 <= local_hit_fraction <= 1.0:
        raise ValueError("local_hit_fraction must be in [0, 1]")
    if not 0.0 <= remote_fault_rate < 1.0:
        raise ValueError("remote_fault_rate must be in [0, 1)")
    if remote_latency < 0 or hedge_latency_factor < 0:
        raise ValueError("remote_latency and hedge_latency_factor must be >= 0")
    total = (
        spec.full_checkpoint_bytes()
        if k_persist is None
        else spec.pec_checkpoint_bytes(min(k_persist, spec.num_experts))
    )
    selected = spec.num_experts if k_persist is None else min(k_persist, spec.num_experts)
    entries = len(spec.non_expert_param_items()) + spec.num_moe_layers * selected * 2
    local_bandwidth = cluster.storage_bandwidth_per_node
    if remote_bandwidth is None:
        remote_bandwidth = local_bandwidth / 10.0
    if remote_bandwidth <= 0 or local_bandwidth <= 0:
        raise ValueError("bandwidths must be positive")
    local_bytes = int(round(total * local_hit_fraction))
    remote_bytes = total - local_bytes
    remote_ops = int(round(entries * (1.0 - local_hit_fraction)))
    attempts = 1.0 / (1.0 - remote_fault_rate)
    effective_latency = remote_latency * hedge_latency_factor

    def remote_seconds_for(nbytes: int, ops: int) -> float:
        # Retries re-issue the request (latency) and re-pull the payload
        # (bandwidth), so both terms carry the attempt multiplier.
        return attempts * (nbytes / remote_bandwidth + ops * effective_latency)

    return TwoTierRecoveryCost(
        total_bytes=total,
        local_bytes=local_bytes,
        remote_bytes=remote_bytes,
        remote_read_ops=remote_ops,
        expected_remote_attempts=attempts,
        local_seconds=local_bytes / local_bandwidth,
        remote_seconds=remote_seconds_for(remote_bytes, remote_ops),
        remote_only_seconds=remote_seconds_for(total, entries),
    )


@dataclass(frozen=True)
class TwoTierUploadWindow:
    """Steady-state drain model for the write-back upload pipeline.

    The remote-tier analogue of :class:`AsyncWriteWindow`: each
    checkpoint's persisted bytes land on the local tier and return, and
    the background pipeline must push them to the remote object store
    before the next checkpoint arrives — otherwise the upload backlog
    (and the window in which a local-tier loss forfeits data) grows
    without bound.
    """

    upload_seconds: float  # expected drain time for one checkpoint
    window_seconds: float  # compute time between checkpoints
    backlog_growth_bytes: int  # bytes left pending per interval (0 = keeps up)
    expected_attempts: float


def two_tier_upload_window(
    persist_bytes: int,
    upload_ops: int,
    iteration_seconds: float,
    checkpoint_interval: int,
    remote_bandwidth: float,
    remote_latency: float = 0.05,
    remote_fault_rate: float = 0.0,
    upload_workers: int = 1,
) -> TwoTierUploadWindow:
    """Can the upload pipeline drain a checkpoint before the next one?

    Concurrent upload workers pipeline request latency but share the
    remote link's bandwidth, mirroring the restore model; transient
    faults multiply expected attempts by ``1 / (1 - p)``.
    """
    if iteration_seconds <= 0 or checkpoint_interval < 1:
        raise ValueError("iteration_seconds/checkpoint_interval must be positive")
    if not 0.0 <= remote_fault_rate < 1.0:
        raise ValueError("remote_fault_rate must be in [0, 1)")
    if remote_bandwidth <= 0 or upload_workers < 1:
        raise ValueError("remote_bandwidth and upload_workers must be positive")
    attempts = 1.0 / (1.0 - remote_fault_rate)
    upload = attempts * (
        persist_bytes / remote_bandwidth
        + (upload_ops / upload_workers) * remote_latency
    )
    window = checkpoint_interval * iteration_seconds
    growth = 0
    if upload > window and upload > 0:
        growth = int(round(persist_bytes * (upload - window) / upload))
    return TwoTierUploadWindow(
        upload_seconds=upload,
        window_seconds=window,
        backlog_growth_bytes=growth,
        expected_attempts=attempts,
    )
