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

