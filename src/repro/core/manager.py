"""MoCCheckpointManager — the system's orchestration layer.

Glues PEC planning, the two storage tiers, PLT tracking, Dynamic-K and
recovery into the interface the trainer uses:

* :meth:`note_routing`   — feed per-step routing counts (PLT bookkeeping)
* :meth:`maybe_checkpoint` / :meth:`checkpoint` — run a two-level save
* :meth:`recover`        — restore model + optimizer state after a fault

State layout: every non-expert parameter maps to one entry carrying all
components; every expert parameter maps to *two* entries — a weights
entry and an optimizer entry — so the "W" / "O" PEC variants of Table 3
can stale them independently.  Entries are only rewritten when their
component is selected, so the stores naturally retain the last-saved
version for stale experts (see DESIGN.md for how this relates to the
paper's byte accounting, which is handled in ``repro.distsim``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..ckpt.async_writer import AsyncWriteBackend
from ..ckpt.backend import CheckpointBackend
from ..ckpt.serializer import PayloadFrames, PipelineMeters
from ..obs import Observer
from ..obs.trace import span as _span
from ..ckpt.codec import PrecisionCodec
from ..ckpt.kvstore import InMemoryKVStore, _immutable
from ..ckpt.manifest import (
    CheckpointManifest,
    ManifestRecord,
    expert_entry_key,
    meta_entry_key,
    non_expert_entry_key,
)
from ..ckpt.restore import ParallelRestorer, ReadRequest, RestoreStats
from ..ckpt.tiered import TieredBackend
from ..models.optim import Adam
from ..models.serial import ExpertKey, expert_param_names, non_expert_param_names
from .config import MoCConfig, SelectionStrategy
from .pec import PECPlan, PECPlanner
from .plt import PERSIST_TIER, SNAPSHOT_TIER, PLTTracker
from .recovery import (
    RecoveryPlan,
    build_recovery_plan,
    default_expert_placement,
    placement_from_topology,
)
from .reshard import (
    ReshardPlan,
    TOPOLOGY_META_NAME,
    load_saved_topology,
    plan_reshard,
    reshard_read_requests,
    topology_meta_entry,
)
from .selection import DynamicKController
from .sharding import ShardTopology


@dataclass(frozen=True)
class SaveProfile:
    """Timing + pipeline-meter breakdown of one save call.

    Meter fields are *deltas* over the save (taken from the manager's
    :class:`~repro.ckpt.serializer.PipelineMeters`), so
    ``bytes_hashed / bytes_serialized`` is that save's hash passes per
    payload byte (1.0 on the single-pass path) and ``bytes_copied``
    its staging copies: 0 sync, where entries are the optimizer's own
    read-only arrays and neither tier copies them, and one per
    persisted byte async.  ``demo --profile`` renders these per
    checkpoint.

    With async writes the chunk codec runs as the background pipeline
    drains, so a save's compression bytes can land in the *following*
    profile window; the pipeline-meter totals are always exact.
    """

    iteration: int
    wall_seconds: float
    persist_entries: int
    persist_skipped: int
    bytes_serialized: int
    bytes_hashed: int
    bytes_copied: int
    #: Chunk-codec meters: raw bytes fed to the compressor and encoded
    #: bytes it produced (novel chunks only — dedup hits are never
    #: recompressed, so ``compression_passes`` ≤ 1 strictly).
    bytes_compressed: int = 0
    bytes_compressed_out: int = 0
    #: Precision-codec byte deltas over the save (entry bytes before and
    #: after dtype downcasting); equal when no codec is configured.
    precision_raw_bytes: int = 0
    precision_encoded_bytes: int = 0

    @property
    def hash_passes(self) -> float:
        return self.bytes_hashed / self.bytes_serialized if self.bytes_serialized else 0.0

    @property
    def copy_passes(self) -> float:
        return self.bytes_copied / self.bytes_serialized if self.bytes_serialized else 0.0

    @property
    def compression_passes(self) -> float:
        """Compressor input bytes per serialized byte (≤ 1.0 always)."""
        return self.bytes_compressed / self.bytes_serialized if self.bytes_serialized else 0.0

    @property
    def compression_ratio(self) -> float:
        """encoded/raw over compressed bytes; 1.0 when nothing compressed."""
        return (
            self.bytes_compressed_out / self.bytes_compressed
            if self.bytes_compressed else 1.0
        )

    @property
    def precision_ratio(self) -> float:
        """encoded/raw of the precision codec; 1.0 when none configured."""
        return (
            self.precision_encoded_bytes / self.precision_raw_bytes
            if self.precision_raw_bytes else 1.0
        )

    @property
    def storage_ratio(self) -> float:
        """Combined precision x compression byte shrink for this save."""
        return self.precision_ratio * (
            1.0
            - self.compression_passes
            + self.compression_passes * self.compression_ratio
        )


@dataclass
class RecoveryResult:
    """Outcome of :meth:`MoCCheckpointManager.recover`."""

    plan: RecoveryPlan
    resume_iteration: int
    plt_increment: float
    cumulative_plt: float
    k_after: int
    #: Topology-change bookkeeping; None for same-topology recovery on a
    #: topology-unaware manager.
    reshard: Optional[ReshardPlan] = None
    #: Read-pipeline stats (every recovery drains through the restore
    #: pipeline; ``restore_workers=1`` is a serial read loop).
    restore_stats: Optional[RestoreStats] = None


class _Persisted(NamedTuple):
    """The persist tier's last written version of one key."""

    digest: str
    nbytes: int
    stamp: int
    #: Optimizer version the entry was built from (None for meta entries).
    version: Optional[int]


class _Planned(NamedTuple):
    """One entry a checkpoint saves: its key, its parameter, the function
    that builds it from the optimizer's bound arrays, and its expert
    (None for a non-expert parameter)."""

    key: str
    name: str
    build: Callable[[str], Dict[str, np.ndarray]]
    expert: Optional[ExpertKey]


def _restored_arrays(entry: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """``entry``'s arrays as float64, bound by reference when every one
    is aligned and nothing can write it (:func:`_immutable`, the
    snapshot tier's rule), else each copied once.  Numpy computes on an
    unaligned view (a field at an odd payload offset) through other
    loops, whose rounding would make a resumed run drift from an
    uninterrupted one; and a bound view pins its whole fetched buffer,
    which would then hold the copied fields' bytes twice."""
    arrays = {
        name: np.asarray(entry[name], dtype=np.float64)
        for name in ("weights", "master", "m", "v") if name in entry
    }
    if all(array.flags.aligned and _immutable(array) for array in arrays.values()):
        return arrays
    return {name: np.array(array) for name, array in arrays.items()}


class MoCCheckpointManager:
    """Two-level PEC checkpointing for a live model + optimizer pair.

    Parameters
    ----------
    model:
        Any model exposing ``named_parameters``/``moe_layers``/
        ``routing_stats`` (``MoETransformerLM`` or ``MoEClassifier``).
    optimizer:
        The :class:`~repro.models.optim.Adam` instance holding master
        weights and moments.
    config:
        Full MoC configuration.
    disk_store:
        The persist tier: any :class:`~repro.ckpt.backend.CheckpointBackend`,
        opened by the caller (:func:`~repro.ckpt.backend.make_backend`
        parses every storage option).  The snapshot tier is always the
        manager's own :class:`~repro.ckpt.kvstore.InMemoryKVStore`,
        which can restamp retained entries.
    async_writes:
        Route persist-tier saves through an
        :class:`~repro.ckpt.async_writer.AsyncWriteBackend` so
        ``checkpoint`` returns once entries are staged; a deferred write
        error surfaces at the next checkpoint boundary.  Call
        :meth:`flush` for a durability barrier (``recover`` does so
        automatically).  The async staging copy is the one copy a saved
        byte makes; the chunk codec reads it in place.
    expert_placement:
        Hosting node(s) per expert for two-level recovery; defaults to a
        two-node striping (or is derived from ``topology`` when given).
    topology:
        The DP+EP rank layout this run trains under.  When set, it is
        persisted with every checkpoint (``meta:topology``) so an
        elastic resume can reshard onto a different layout, and the
        expert placement is derived from it.
    delta_saves:
        Skip persist-tier writes for entries unchanged since their last
        persisted version (the PEC synergy: a selected-but-untouched
        expert costs zero bytes).  The test is version first, digest
        second: an entry whose parameter's
        :attr:`~repro.models.optim.Adam.versions` counter has not moved
        since it was written is skipped before it is copied, framed or
        hashed; a changed one is framed and skipped only when its
        content digest still matches.  Skipped entries are reported on
        the manifest's ``persist_skipped`` records.  The cache behind
        both tests is dropped on any write/flush failure and on
        recovery, so a skip can never trust bytes that were discarded
        by a failed async pipeline.

    Independently of ``delta_saves``, a snapshot-tier entry whose
    version has not moved since it was materialized, and which survived
    every node fault since, is restamped in place instead of rebuilt.
    Each entry a checkpoint needs is built once and shared by both
    tiers.  It holds the optimizer's own arrays, which
    :meth:`~repro.models.optim.Adam.bind` made read-only: the snapshot
    tier keeps them by reference and the persist tier frames them
    without copying, so a synchronous save copies nothing before the
    pack write.
    """

    def __init__(
        self,
        model,
        optimizer: Adam,
        config: MoCConfig,
        disk_store: CheckpointBackend,
        async_writes: bool = False,
        expert_placement: Optional[Mapping[ExpertKey, Sequence[int]]] = None,
        num_nodes: int = 2,
        codec: Optional[PrecisionCodec] = None,
        topology: Optional[ShardTopology] = None,
        delta_saves: bool = False,
        observer: Optional[Observer] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.config = config
        self.observer = observer
        if async_writes and not isinstance(disk_store, AsyncWriteBackend):
            disk_store = AsyncWriteBackend(disk_store)
        self.memory_store = InMemoryKVStore()
        self.disk_store = disk_store
        # Optional precision codec: entries are downcast on save and
        # upcast on load (composes with PEC — orthogonal byte savings).
        self.codec = codec

        self._expert_params: Dict[ExpertKey, List[str]] = expert_param_names(model)
        self._non_expert_params: List[str] = non_expert_param_names(model)
        # Every entry a checkpoint can save, keyed once: each non-expert
        # parameter, and per expert parameter its (":w", ":o") pair.
        # ``_plan_entries`` only selects from these.
        self._non_expert_planned = [
            _Planned(non_expert_entry_key(name), name, self._full_entry, None)
            for name in self._non_expert_params
        ]
        self._expert_planned: Dict[ExpertKey, List[Tuple[_Planned, _Planned]]] = {
            expert_key: [
                (
                    _Planned(expert_entry_key(expert_key, name) + ":w", name,
                             self._weights_entry, expert_key),
                    _Planned(expert_entry_key(expert_key, name) + ":o", name,
                             self._optimizer_entry, expert_key),
                )
                for name in names
            ]
            for expert_key, names in self._expert_params.items()
        }
        moe_layers = model.moe_layers()
        self.num_moe_layers = len(moe_layers)
        self.num_experts = moe_layers[0].num_experts if moe_layers else 0
        top_k = moe_layers[0].top_k if moe_layers else 1

        self.planner = PECPlanner(config.pec, self.num_moe_layers, self.num_experts)
        self.plt_tracker = PLTTracker(self.num_moe_layers, self.num_experts, top_k=top_k)
        self.dynamic_k: Optional[DynamicKController] = None
        if config.pec.dynamic_k:
            self.dynamic_k = DynamicKController(
                num_experts=self.num_experts,
                threshold=config.pec.plt_threshold,
                initial_k=config.pec.k_persist,
            )
        self.topology = topology
        if topology is not None and self.num_experts > 0:
            if self.num_experts % topology.d_ep != 0:
                raise ValueError(
                    f"topology d_ep={topology.d_ep} does not divide "
                    f"num_experts={self.num_experts}"
                )
        if expert_placement is None:
            if topology is not None:
                expert_placement = placement_from_topology(
                    topology, self.num_moe_layers, self.num_experts
                )
            else:
                expert_placement = default_expert_placement(
                    self.num_moe_layers, self.num_experts, num_nodes=num_nodes
                )
        self.expert_placement = dict(expert_placement)
        self.num_nodes = max(
            (max(nodes) for nodes in self.expert_placement.values()), default=0
        ) + 1

        self.checkpoint_count = 0
        self.manifests: List[CheckpointManifest] = []
        self.delta_saves = delta_saves
        # key -> the last *written* persist-tier version; the delta-save
        # skip compares against it.
        self._persist_digests: Dict[str, _Persisted] = {}
        # key -> optimizer version its retained snapshot was built from.
        self._snapshot_versions: Dict[str, int] = {}
        # Persist-pipeline byte meters (serialized / hashed / copied) and
        # the per-save breakdown ``demo --profile`` renders.  Digests are
        # computed at the persist tier's chunk granularity so the dedup
        # backend reuses the same sweep — the single-hash-pass property
        # the meters let tests *pin* rather than assume.
        self.pipeline_meters = PipelineMeters(
            registry=observer.registry if observer is not None else None
        )
        self.save_profile: List[SaveProfile] = []
        # Phase-latency histograms live on the same registry as the
        # meters so a ``--metrics-dump`` shows latency next to bytes.
        self._h_save_seconds = self.pipeline_meters.registry.histogram(
            "moc_save_seconds", "Wall seconds per two-level checkpoint save."
        )
        self._h_recover_seconds = self.pipeline_meters.registry.histogram(
            "moc_recover_seconds", "Wall seconds per recovery (restore included)."
        )
        self._digest_chunk_bytes = self.disk_store.digest_chunk_bytes
        # A tiered persist store reports its upload pipeline (bytes
        # uploaded, backed-off retries) through the same meters, so
        # ``demo --profile`` shows the remote tier next to the
        # serialize/hash/copy counters.
        tier_target = getattr(self.disk_store, "inner", self.disk_store)
        if isinstance(tier_target, TieredBackend):
            tier_target.meters = self.pipeline_meters

    # ------------------------------------------------------------------
    # Entry extraction / injection
    # ------------------------------------------------------------------
    # The builders return the arrays the optimizer has bound, not
    # copies: ``Adam.bind`` froze them, and training rebinds rather than
    # writes, so what a checkpoint captured never changes afterwards.
    def _weights_entry(self, param_name: str) -> Dict[str, np.ndarray]:
        return {"weights": self.optimizer.params[param_name].data}

    def _optimizer_entry(self, param_name: str) -> Dict[str, np.ndarray]:
        state = self.optimizer.state[param_name]
        step = np.asarray(state.step)
        step.flags.writeable = False
        return {"master": state.master, "m": state.m, "v": state.v, "step": step}

    def _full_entry(self, param_name: str) -> Dict[str, np.ndarray]:
        entry = self._optimizer_entry(param_name)
        entry["weights"] = self.optimizer.params[param_name].data
        return entry

    def _encode(self, entry: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return self.codec.encode(entry) if self.codec is not None else entry

    def _decode(self, entry: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return self.codec.decode(entry) if self.codec is not None else entry

    def _load_entry(self, param_name: str, entry: Mapping[str, np.ndarray]) -> None:
        arrays = _restored_arrays(entry)
        master = arrays.get("master")
        step = None if master is None else int(np.asarray(entry["step"]).reshape(-1)[0])
        self.optimizer.bind(
            param_name,
            # Optimizer-only restore: the master copy governs the
            # parameter value going forward (mixed-precision rule).
            arrays.get("weights", master),
            master=master, m=arrays.get("m"), v=arrays.get("v"), step=step,
        )

    # ------------------------------------------------------------------
    # Routing / PLT feed
    # ------------------------------------------------------------------
    def note_routing(self, tokens_per_expert: Sequence[np.ndarray]) -> None:
        """Record one training step's per-layer expert token counts."""
        self.plt_tracker.record_batch(tokens_per_expert)

    def note_model_routing(self) -> None:
        """Convenience: pull routing stats straight off the model."""
        stats = self.model.routing_stats()
        self.note_routing([s.tokens_per_expert for s in stats])

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, iteration: int) -> Optional[CheckpointManifest]:
        interval = self.config.two_level.checkpoint_interval
        if interval <= 0 or iteration == 0 or iteration % interval != 0:
            return None
        return self.checkpoint(iteration)

    def _expert_nodes(self, key: ExpertKey) -> tuple:
        return tuple(self.expert_placement.get(key, [0]))

    def save_initial(self, iteration: int = 0) -> CheckpointManifest:
        """Write a full (every expert, every component) baseline checkpoint.

        Run once before training so that every entry exists in both tiers
        — recovery from the very first fault would otherwise find experts
        that were never saved.  Does not advance the PEC rotation.
        """
        with _span("save-initial", iteration=iteration):
            return self._save_initial(iteration)

    def _save_initial(self, iteration: int) -> CheckpointManifest:
        begin = time.perf_counter()
        meters_before = self.pipeline_meters.snapshot()
        codec_before = self._codec_stats()
        manifest = CheckpointManifest(checkpoint_index=-1, iteration=iteration)
        all_experts = {
            ExpertKey(layer, expert)
            for layer in range(self.num_moe_layers)
            for expert in range(self.num_experts)
        }
        planned = self._plan_entries(all_experts, all_experts)
        built: Dict[str, Dict[str, np.ndarray]] = {}
        self._snapshot_save(manifest, iteration, planned, built)
        self._persist_save(manifest, iteration, planned, built)
        self._persist_topology(iteration)
        meta_key = meta_entry_key("iteration")
        self.memory_store.put(meta_key, {"iteration": np.asarray(iteration)}, stamp=iteration)
        self._persist_put(meta_key, {"iteration": np.asarray(iteration)}, iteration)
        self.plt_tracker.record_save(SNAPSHOT_TIER, all_experts)
        self.plt_tracker.record_save(PERSIST_TIER, all_experts)
        self.manifests.append(manifest)
        self._record_profile(manifest, begin, meters_before, codec_before)
        return manifest

    def checkpoint(self, iteration: int) -> CheckpointManifest:
        """Run one two-level checkpoint at ``iteration``."""
        with _span("save", iteration=iteration):
            return self._checkpoint(iteration)

    def _checkpoint(self, iteration: int) -> CheckpointManifest:
        begin = time.perf_counter()
        meters_before = self.pipeline_meters.snapshot()
        codec_before = self._codec_stats()
        unsaved = None
        if self.config.pec.selection is SelectionStrategy.LOAD_AWARE:
            unsaved = self.plt_tracker.unsaved_tokens(PERSIST_TIER)
        if self.dynamic_k is not None:
            self.planner.set_k(k_persist=self.dynamic_k.k, k_snapshot=max(
                self.planner.k_snapshot, self.dynamic_k.k
            ))
        plan = self.planner.plan(self.checkpoint_count, unsaved_tokens=unsaved)
        manifest = CheckpointManifest(
            checkpoint_index=self.checkpoint_count, iteration=iteration
        )
        # Plan both tiers' key lists first; each entry is then built at
        # most once and the same dict serves both tiers.
        snapshot_weight_experts = self._component_experts(plan, "weights", tier="snapshot")
        snapshot_moment_experts = self._component_experts(plan, "moments", tier="snapshot")
        persist_weight_experts = self._component_experts(plan, "weights", tier="persist")
        persist_moment_experts = self._component_experts(plan, "moments", tier="persist")
        snapshot_planned = self._plan_entries(snapshot_weight_experts, snapshot_moment_experts)
        persist_planned = self._plan_entries(persist_weight_experts, persist_moment_experts)
        built: Dict[str, Dict[str, np.ndarray]] = {}

        # --- snapshot tier (GPU -> CPU memory) -------------------------
        self._snapshot_save(manifest, iteration, snapshot_planned, built)
        meta_key = meta_entry_key("iteration")
        self.memory_store.put(meta_key, {"iteration": np.asarray(iteration)}, stamp=iteration)
        self.plt_tracker.record_save(
            SNAPSHOT_TIER, snapshot_weight_experts & snapshot_moment_experts
        )

        # --- persist tier (CPU memory -> storage) ----------------------
        # Batched; with async_writes the batch is staged on the write
        # pipeline and drains while training computes.  The meta entry
        # goes last so a durable meta stamp implies its checkpoint's
        # entries were accepted before it.
        self._persist_save(manifest, iteration, persist_planned, built)
        # Topology before the iteration meta: the iteration entry is the
        # commit record, so a durable stamp implies the topology (and
        # every state entry) of its checkpoint was accepted first.
        self._persist_topology(iteration)
        self._persist_put(meta_key, {"iteration": np.asarray(iteration)}, iteration)
        self.plt_tracker.record_save(
            PERSIST_TIER, persist_weight_experts & persist_moment_experts
        )

        self.checkpoint_count += 1
        self.manifests.append(manifest)
        self._record_profile(manifest, begin, meters_before, codec_before)
        return manifest

    def _codec_stats(self) -> tuple:
        """Precision-codec (raw, encoded) byte counters, 0s when none."""
        if self.codec is None or not hasattr(self.codec, "stats"):
            return (0, 0)
        return (self.codec.stats.raw_bytes, self.codec.stats.encoded_bytes)

    def _record_profile(
        self, manifest: CheckpointManifest, begin: float, meters_before: Dict[str, int],
        codec_before: tuple = (0, 0),
    ) -> None:
        """Append one :class:`SaveProfile` covering the save just run."""
        after = self.pipeline_meters.snapshot()
        codec_after = self._codec_stats()
        wall = time.perf_counter() - begin
        self._h_save_seconds.observe(wall)
        self.save_profile.append(SaveProfile(
            iteration=manifest.iteration,
            wall_seconds=wall,
            persist_entries=len(manifest.persist_entries),
            persist_skipped=len(manifest.persist_skipped),
            bytes_serialized=after["bytes_serialized"] - meters_before["bytes_serialized"],
            bytes_hashed=after["bytes_hashed"] - meters_before["bytes_hashed"],
            bytes_copied=after["bytes_copied"] - meters_before["bytes_copied"],
            bytes_compressed=(
                after["bytes_compressed"] - meters_before["bytes_compressed"]
            ),
            bytes_compressed_out=(
                after["bytes_compressed_out"] - meters_before["bytes_compressed_out"]
            ),
            precision_raw_bytes=codec_after[0] - codec_before[0],
            precision_encoded_bytes=codec_after[1] - codec_before[1],
        ))

    @staticmethod
    def _record(records: List[ManifestRecord], items, sizes: Sequence[int]) -> None:
        for (key, _entry, stamp, _node), nbytes in zip(items, sizes):
            records.append(ManifestRecord(key, stamp, nbytes))

    def _frames(self, entry: Mapping[str, np.ndarray]) -> PayloadFrames:
        """Serialize an entry for the persist tier: zero-copy frames
        carrying the manager's pipeline meters."""
        return PayloadFrames.from_entry(entry, meters=self.pipeline_meters)

    def _plan_entries(
        self, weight_experts: Set[ExpertKey], moment_experts: Set[ExpertKey]
    ) -> List[_Planned]:
        """The entries one tier saves, in key order: every non-expert
        parameter, then the selected components of the selected experts."""
        planned = list(self._non_expert_planned)
        for expert_key in sorted(weight_experts | moment_experts):
            weights, moments = expert_key in weight_experts, expert_key in moment_experts
            for weights_entry, moments_entry in self._expert_planned[expert_key]:
                if weights:
                    planned.append(weights_entry)
                if moments:
                    planned.append(moments_entry)
        return planned

    def _entry(
        self, built: Dict[str, Dict[str, np.ndarray]], planned: _Planned
    ) -> Dict[str, np.ndarray]:
        """This checkpoint's one build of ``planned``'s entry, made on first use."""
        entry = built.get(planned.key)
        if entry is None:
            entry = built[planned.key] = self._encode(planned.build(planned.name))
        return entry

    def _snapshot_save(
        self, manifest: CheckpointManifest, iteration: int,
        planned: List[_Planned], built: Dict[str, Dict[str, np.ndarray]],
    ) -> None:
        """Write the snapshot tier, restamping clean entries in place.

        An entry is clean when its parameter's optimizer version equals
        the one its retained payload was built from and the payload
        survived every node fault since: rebuilding it would store the
        same bytes, so only its stamp and nodes move.  The manifest
        records are the same either way.
        """
        versions = self.optimizer.versions
        store = self.memory_store
        items: List = []
        fresh: List[tuple] = []
        sizes: List[Optional[int]] = []
        for entry in planned:
            node = self._expert_nodes(entry.expert) if entry.expert is not None else 0
            version = versions[entry.name]
            if self._snapshot_versions.get(entry.key) == version and store.has(entry.key):
                sizes.append(store.restamp(entry.key, iteration, node))
                continue
            items.append((entry.key, self._entry(built, entry), iteration, node))
            fresh.append((entry.key, version))
            sizes.append(None)
        with _span("snapshot-save", entries=len(items)):
            written = iter(store.put_many(items))
        self._snapshot_versions.update(fresh)
        for entry, nbytes in zip(planned, sizes):
            manifest.snapshot_entries.append(ManifestRecord(
                entry.key, iteration, nbytes if nbytes is not None else next(written)
            ))

    def _persist_save(
        self, manifest: CheckpointManifest, iteration: int,
        planned: List[_Planned], built: Dict[str, Dict[str, np.ndarray]],
    ) -> None:
        """Write a persist-tier batch, delta-skipping unchanged content.

        With ``delta_saves`` on, the skip test is version first, digest
        second.  An entry whose optimizer version equals the one it was
        last written at is skipped before it is built, framed or
        hashed.  Any other entry is serialized into a zero-copy frame
        rope whose content digest is derived from its chunk digests (at
        the persist tier's chunk granularity) — one SHA-256 sweep that
        the dedup backend then *reuses* for chunk addressing — and is
        still skipped when that digest matches its last written
        version.  Skips land on ``manifest.persist_skipped`` with the
        stored version's stamp and size, what the skip relies on.  Any
        write failure drops the whole cache: a deferred async error
        discards queued writes, so nothing accepted after the failure
        may be skipped on the strength of a stale record.
        """
        versions = self.optimizer.versions
        payload_items: List = []
        written: List[tuple] = []
        with _span("persist-serialize", items=len(planned)):
            for entry in planned:
                version = versions[entry.name]
                prev = self._persist_digests.get(entry.key) if self.delta_saves else None
                if prev is not None and prev.version == version:
                    manifest.persist_skipped.append(
                        ManifestRecord(entry.key, prev.stamp, prev.nbytes)
                    )
                    continue
                frames = self._frames(self._entry(built, entry))
                digest = None
                if self.delta_saves:
                    digest = frames.entry_digest(self._digest_chunk_bytes)
                    if prev is not None and prev.digest == digest:
                        self._persist_digests[entry.key] = prev._replace(version=version)
                        manifest.persist_skipped.append(
                            ManifestRecord(entry.key, prev.stamp, prev.nbytes)
                        )
                        continue
                payload_items.append((entry.key, frames, iteration, 0))
                written.append((digest, version))
        try:
            with _span("persist-save", entries=len(payload_items)):
                sizes = self.disk_store.put_many_serialized(payload_items)
        except BaseException:
            self._persist_digests.clear()
            raise
        self._record(manifest.persist_entries, payload_items, sizes)
        if self.delta_saves:
            for (key, _frames, _stamp, _node), (digest, version), nbytes in zip(
                payload_items, written, sizes
            ):
                self._persist_digests[key] = _Persisted(digest, nbytes, iteration, version)

    def _persist_put_frames(self, key: str, frames: PayloadFrames, stamp: int) -> int:
        """Single persist-tier put holding THE digest-cache failure rule:
        any write failure drops the whole cache.  Deferred async errors
        surface at the *next* write — often the meta/topology put of the
        same checkpoint — and must drop the cache there too, or the next
        checkpoint would skip entries whose bytes were discarded."""
        try:
            return self.disk_store.put_serialized(key, frames, stamp=stamp)
        except BaseException:
            self._persist_digests.clear()
            raise

    def _persist_put(self, key: str, entry: Mapping[str, np.ndarray], stamp: int) -> int:
        return self._persist_put_frames(key, self._frames(entry), stamp)

    def _persist_topology(self, iteration: int) -> None:
        """Record the save-time topology inside the checkpoint."""
        if self.topology is None:
            return
        key = meta_entry_key(TOPOLOGY_META_NAME)
        entry = topology_meta_entry(self.topology)
        if self.delta_saves:
            frames = self._frames(entry)
            digest = frames.entry_digest(self._digest_chunk_bytes)
            prev = self._persist_digests.get(key)
            if prev is not None and prev.digest == digest:
                return
            nbytes = self._persist_put_frames(key, frames, iteration)
            self._persist_digests[key] = _Persisted(digest, nbytes, iteration, None)
            return
        self._persist_put(key, entry, iteration)

    def flush(self) -> None:
        """Durability barrier over both tiers (async persist included)."""
        try:
            with _span("manager-flush"):
                self.memory_store.flush()
                self.disk_store.flush()
        except BaseException:
            self._persist_digests.clear()
            raise

    def close(self) -> None:
        """Flush and release store resources (async worker threads)."""
        self.memory_store.close()
        self.disk_store.close()

    def __enter__(self) -> "MoCCheckpointManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Flush *then* close, so a deferred async write error surfaces
        here (``AsyncWriteBackend.close`` stops the worker before it
        raises; an explicit flush turns a silent drop into the error
        the training loop must see).  Close runs even when the flush —
        or the ``with`` body — raised, so worker threads never leak.
        """
        try:
            self.flush()
        finally:
            self.close()

    def _component_experts(self, plan: PECPlan, component: str, tier: str) -> Set[ExpertKey]:
        """Experts whose ``component`` is written at ``tier`` this checkpoint."""
        restricted = plan.apply_to_weights if component == "weights" else plan.apply_to_moments
        if not restricted:
            return set(
                ExpertKey(layer, expert)
                for layer in range(self.num_moe_layers)
                for expert in range(self.num_experts)
            )
        return set(plan.snapshot_experts if tier == "snapshot" else plan.persist_experts)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _entry_keys_by_expert(self) -> Dict[ExpertKey, List[str]]:
        grouped: Dict[ExpertKey, List[str]] = {}
        for expert_key, names in self._expert_params.items():
            keys: List[str] = []
            for name in names:
                keys.append(expert_entry_key(expert_key, name) + ":w")
                keys.append(expert_entry_key(expert_key, name) + ":o")
            grouped[expert_key] = keys
        return grouped

    def recover(
        self,
        failed_nodes: Sequence[int] = (0,),
        target_topology: Optional[ShardTopology] = None,
        restore_workers: int = 1,
    ) -> RecoveryResult:
        """Restore model + optimizer state after a node fault.

        ``failed_nodes`` lose their in-memory snapshots; everything else
        may be restored from memory when two-level recovery is enabled.
        Training must resume from the last *persisted* checkpoint's
        iteration.

        ``target_topology`` reshards the restore onto a different DP+EP
        layout: entry reads are re-assigned to target ranks, experts
        whose snapshot nodes no longer exist fall back to the persist
        tier, and the manager adopts the target placement afterwards.
        ``restore_workers`` sizes the parallel read pipeline (1 = serial).
        """
        begin = time.perf_counter()
        with _span("recover", restore_workers=restore_workers):
            result = self._recover(failed_nodes, target_topology, restore_workers)
        self._h_recover_seconds.observe(time.perf_counter() - begin)
        return result

    def _recover(
        self,
        failed_nodes: Sequence[int],
        target_topology: Optional[ShardTopology],
        restore_workers: int,
    ) -> RecoveryResult:
        # Drain any in-flight async writes before reading: recovery must
        # observe every accepted put (and surface deferred write errors).
        # The delta-save digest cache is dropped either way — post-fault,
        # only the store's contents are truth.
        self._persist_digests.clear()
        self.disk_store.flush()
        if not self.disk_store.has(meta_entry_key("iteration")):
            raise RuntimeError("no persisted checkpoint to recover from")
        for node in failed_nodes:
            self.memory_store.drop_node(node)
        resume_iteration = int(
            np.asarray(self.disk_store.get(meta_entry_key("iteration"))["iteration"]).reshape(-1)[0]
        )
        reshard: Optional[ReshardPlan] = None
        target = target_topology if target_topology is not None else self.topology
        if target is not None:
            reshard = plan_reshard(
                self.memory_store,
                self.disk_store,
                self._entry_keys_by_expert(),
                [non_expert_entry_key(name) for name in self._non_expert_params],
                self.expert_placement,
                self.num_experts,
                target=target,
                source=load_saved_topology(self.disk_store) or self.topology,
                failed_nodes=failed_nodes,
                resume_iteration=resume_iteration,
                two_level=self.config.two_level.two_level_recovery,
            )
            plan = reshard.recovery
            requests = reshard_read_requests(reshard, self.memory_store, self.disk_store)
        else:
            plan = build_recovery_plan(
                self.memory_store,
                self.disk_store,
                self._entry_keys_by_expert(),
                [non_expert_entry_key(name) for name in self._non_expert_params],
                self.expert_placement,
                failed_nodes,
                resume_iteration,
                two_level=self.config.two_level.two_level_recovery,
            )
            requests = [
                ReadRequest(
                    key=entry_key,
                    store=(
                        self.memory_store
                        if plan.sources[entry_key] == SNAPSHOT_TIER
                        else self.disk_store
                    ),
                )
                for entry_key in plan.sources
            ]
        # Zero-copy reads: entries come back as frombuffer views (no
        # per-field allocation, and the snapshot tier's retained arrays
        # themselves); _load_entry binds them or copies them once.
        with _span("restore-fetch", requests=len(requests)):
            entries, restore_stats = ParallelRestorer(
                workers=restore_workers, copy=False
            ).fetch(requests)
        with _span("restore-apply", entries=len(entries)):
            self._apply_entries(entries)
        if target_topology is not None:
            self._adopt_topology(target_topology)

        fault_loss = self.plt_tracker.record_fault(
            recovery_tier_per_expert=plan.tier_per_expert, default_tier=PERSIST_TIER
        )
        k_after = self.planner.k_persist
        if self.dynamic_k is not None:
            k_after = self.dynamic_k.record_fault(fault_loss.plt_increment)
            self.planner.set_k(
                k_persist=k_after, k_snapshot=max(self.planner.k_snapshot, k_after)
            )
        return RecoveryResult(
            plan=plan,
            resume_iteration=resume_iteration,
            plt_increment=fault_loss.plt_increment,
            cumulative_plt=self.plt_tracker.plt(),
            k_after=k_after,
            reshard=reshard,
            restore_stats=restore_stats,
        )

    def _apply_entries(self, entries: Mapping[str, Dict[str, np.ndarray]]) -> None:
        """Load fetched checkpoint entries into the model + optimizer."""
        for name in self._non_expert_params:
            self._load_entry(name, self._decode(entries[non_expert_entry_key(name)]))
        for expert_key, names in self._expert_params.items():
            for name in names:
                entry: Dict[str, np.ndarray] = {}
                entry.update(entries[expert_entry_key(expert_key, name) + ":w"])
                entry.update(entries[expert_entry_key(expert_key, name) + ":o"])
                self._load_entry(name, self._decode(entry))

    def _adopt_topology(self, topology: ShardTopology) -> None:
        """Switch the manager onto a new rank layout after a reshard.

        Future checkpoints persist the new topology; snapshots on nodes
        that no longer exist are dropped from the memory tier.
        """
        old_nodes = self.num_nodes
        self.topology = topology
        self.expert_placement = placement_from_topology(
            topology, self.num_moe_layers, self.num_experts
        )
        for node in range(topology.num_nodes, old_nodes):
            self.memory_store.drop_node(node)
        self.num_nodes = topology.num_nodes

    def restore(
        self,
        topology: Optional[ShardTopology] = None,
        workers: int = 4,
        failed_nodes: Optional[Sequence[int]] = None,
    ) -> RecoveryResult:
        """Elastic restore: rebuild full state, optionally resharded.

        The cold-restart entry point: by default every save-time node is
        treated as failed (no CPU memory survives a job restart), so all
        state comes back from the persist tier through the parallel read
        pipeline.  Pass ``failed_nodes`` explicitly for a warm resize
        where surviving nodes keep their snapshots.
        """
        if failed_nodes is None:
            failed_nodes = sorted(
                {node for nodes in self.expert_placement.values() for node in nodes}
            )
        return self.recover(
            failed_nodes=failed_nodes,
            target_topology=topology if topology is not None else self.topology,
            restore_workers=workers,
        )
