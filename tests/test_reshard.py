"""Elastic reshard-on-resume: planner units + end-to-end bit-exactness.

The acceptance property: a checkpoint saved at DP=4/EP=2 restores
bit-exactly at DP=2/EP=4 (and vice versa) through the real manager and
every disk backend, with the parallel restore pipeline doing the reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import TINY, params_equal, snapshot_params, train_steps
from repro.ckpt import InMemoryKVStore, ShardedDiskKVStore, make_backend
from repro.core import (
    MoCConfig,
    MoCCheckpointManager,
    PECConfig,
    ReshardError,
    ShardTopology,
    TwoLevelConfig,
    grid_topology,
    load_saved_topology,
    lost_nodes_for_target,
    plan_reshard,
    topology_from_meta,
    topology_meta_entry,
)
from repro.core.plt import PERSIST_TIER, SNAPSHOT_TIER
from repro.models import Adam, MoETransformerLM
from repro.models.serial import ExpertKey
from repro.train import MarkovCorpus


def make_corpus(seed=31):
    return MarkovCorpus(vocab_size=TINY.vocab_size, num_domains=2, seq_len=12, seed=seed)


def full_config(interval=2):
    return MoCConfig(
        pec=PECConfig.full(TINY.num_experts),
        two_level=TwoLevelConfig(checkpoint_interval=interval),
    )


class TestGridTopology:
    def test_grid_maps_to_rank_layout(self):
        topo = grid_topology(4, 2, gpus_per_node=2)
        assert topo.num_ranks == 8
        assert topo.d_ep == 2
        assert topo.num_ep_groups == 4
        assert topo.num_nodes == 4

    def test_swapped_grid_keeps_world_size(self):
        a = grid_topology(4, 2)
        b = grid_topology(2, 4)
        assert a.num_ranks == b.num_ranks == 8
        assert a.d_ep != b.d_ep

    def test_invalid_grid_rejected(self):
        with pytest.raises(ReshardError):
            grid_topology(0, 2)
        with pytest.raises(ReshardError):
            grid_topology(2, -1)


class TestTopologyMeta:
    def test_meta_entry_roundtrip(self):
        topo = ShardTopology(d_dp=16, d_ep=4, gpus_per_node=8)
        assert topology_from_meta(topology_meta_entry(topo)) == topo

    def test_saved_topology_travels_with_checkpoint(self, tmp_path):
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        topo = grid_topology(2, 2, gpus_per_node=2)
        manager = MoCCheckpointManager(
            model, optimizer, full_config(),
            disk_store=make_backend("sharded", str(tmp_path)), topology=topo
        )
        manager.save_initial(0)
        assert load_saved_topology(manager.disk_store) == topo

    def test_topology_unaware_store_has_no_meta(self, tmp_path):
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        manager = MoCCheckpointManager(
            model, optimizer, full_config(),
            disk_store=make_backend("sharded", str(tmp_path))
        )
        manager.save_initial(0)
        assert load_saved_topology(manager.disk_store) is None


class TestLostNodes:
    def test_shrink_loses_high_nodes(self):
        placement = {ExpertKey(0, e): [e % 4] for e in range(4)}
        target = grid_topology(1, 2, gpus_per_node=2)  # 2 ranks, 1 node
        assert lost_nodes_for_target(placement, target) == {1, 2, 3}

    def test_grow_loses_nothing(self):
        placement = {ExpertKey(0, e): [e % 2] for e in range(4)}
        target = grid_topology(4, 2, gpus_per_node=2)  # 8 ranks, 4 nodes
        assert lost_nodes_for_target(placement, target) == set()


def populate_stores(num_experts=4, layers=1, nbytes_scale=1):
    """Synthetic stores: one w/o entry pair per expert + ne entries."""
    memory, disk = InMemoryKVStore(), InMemoryKVStore()
    entry_keys = {}
    for layer in range(layers):
        for expert in range(num_experts):
            key = ExpertKey(layer, expert)
            keys = [f"expert:l{layer}:e{expert}:fc.weight:w",
                    f"expert:l{layer}:e{expert}:fc.weight:o"]
            entry_keys[key] = keys
            for entry_key in keys:
                entry = {"x": np.full(4 * nbytes_scale, float(expert))}
                memory.put(entry_key, entry, stamp=2, node=expert % 2)
                disk.put(entry_key, entry, stamp=1)
    ne_keys = [f"ne:layer.{i}.weight" for i in range(6)]
    for i, key in enumerate(ne_keys):
        disk.put(key, {"x": np.ones(8 + i)}, stamp=1)
    return memory, disk, entry_keys, ne_keys


class TestPlanReshard:
    def test_indivisible_experts_rejected_with_context(self):
        memory, disk, entry_keys, ne_keys = populate_stores()
        target = ShardTopology(d_dp=3, d_ep=3)
        with pytest.raises(ReshardError, match="num_experts=4"):
            plan_reshard(memory, disk, entry_keys, ne_keys,
                         {k: [0] for k in entry_keys}, 4, target)

    def test_expert_reads_land_on_target_owner_ranks(self):
        memory, disk, entry_keys, ne_keys = populate_stores()
        target = grid_topology(2, 4, gpus_per_node=8)  # 8 ranks, ep groups of 4
        plan = plan_reshard(memory, disk, entry_keys, ne_keys,
                            {k: [0] for k in entry_keys}, 4, target,
                            failed_nodes=[0], two_level=False)
        for read in plan.reads:
            if read.kind != "expert":
                continue
            expert = int(read.entry_key.split(":e")[1].split(":")[0])
            hosts = target.ranks_hosting_expert(expert, 4)
            assert read.target_rank in hosts

    def test_moved_experts_detected_on_ep_change(self):
        memory, disk, entry_keys, ne_keys = populate_stores()
        source = grid_topology(4, 2)
        target = grid_topology(2, 4)
        plan = plan_reshard(memory, disk, entry_keys, ne_keys,
                            {k: [0] for k in entry_keys}, 4, target,
                            source=source, failed_nodes=[0], two_level=False)
        assert plan.moved_experts  # replica sets changed with the EP degree

    def test_fallback_experts_on_shrink(self):
        memory, disk, entry_keys, ne_keys = populate_stores()
        placement = {k: [k.expert % 2] for k in entry_keys}  # nodes 0 and 1
        target = grid_topology(1, 2, gpus_per_node=2)  # one node survives
        plan = plan_reshard(memory, disk, entry_keys, ne_keys,
                            placement, 4, target, two_level=True)
        # experts hosted on node 1 lost their snapshots to the resize
        assert plan.fallback_experts == sorted(
            k for k in entry_keys if k.expert % 2 == 1
        )
        for key in plan.fallback_experts:
            assert plan.recovery.tier_per_expert[key] == PERSIST_TIER
        # experts on the surviving node still restore from memory
        for key in entry_keys:
            if key not in plan.fallback_experts:
                assert plan.recovery.tier_per_expert[key] == SNAPSHOT_TIER

    def test_read_work_is_balanced(self):
        memory, disk, entry_keys, ne_keys = populate_stores(num_experts=8, layers=2)
        target = grid_topology(2, 2, gpus_per_node=2)
        plan = plan_reshard(memory, disk, entry_keys, ne_keys,
                            {k: [0] for k in entry_keys}, 8, target,
                            failed_nodes=[0], two_level=False)
        assert plan.total_bytes() == sum(plan.per_rank_bytes())
        assert plan.imbalance() < 2.0

    def test_read_order_interleaves_ranks(self):
        memory, disk, entry_keys, ne_keys = populate_stores(num_experts=8, layers=2)
        target = grid_topology(2, 2, gpus_per_node=2)
        plan = plan_reshard(memory, disk, entry_keys, ne_keys,
                            {k: [0] for k in entry_keys}, 8, target,
                            failed_nodes=[0], two_level=False)
        order = plan.read_order()
        assert len(order) == len(plan.reads)
        active_ranks = {read.target_rank for read in plan.reads}
        # the first wave touches every active rank before any rank repeats
        first_wave = [read.target_rank for read in order[: len(active_ranks)]]
        assert set(first_wave) == active_ranks


class TestTierOfDiagnostics:
    def test_unknown_entry_names_entry_and_tiers(self):
        from repro.core import RecoveryPlan

        plan = RecoveryPlan(sources={"ne:a": PERSIST_TIER, "ne:b": SNAPSHOT_TIER})
        with pytest.raises(KeyError, match=r"ne:ghost.*2 entries.*persist.*snapshot"):
            plan.tier_of("ne:ghost")

    def test_empty_plan_says_so(self):
        from repro.core import RecoveryPlan

        with pytest.raises(KeyError, match="empty"):
            RecoveryPlan().tier_of("ne:missing")


GRID_PAIRS = [((4, 2), (2, 4)), ((2, 4), (4, 2)), ((4, 2), (1, 2)), ((1, 4), (4, 1))]


class TestReshardedResumeBitExact:
    """The acceptance criterion, over every disk backend."""

    def _train_and_checkpoint(self, tmp_path, backend, source, async_writes=False):
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        manager = MoCCheckpointManager(
            model, optimizer, full_config(),
            disk_store=make_backend(backend, str(tmp_path)),
            async_writes=async_writes, topology=source,
        )
        manager.save_initial(0)
        train_steps(model, optimizer, make_corpus(), 4)
        manager.note_model_routing()
        manager.checkpoint(4)
        manager.flush()
        return model, optimizer, manager

    @pytest.mark.parametrize("backend", ["sharded", "dedup", "tiered"])
    @pytest.mark.parametrize("grids", GRID_PAIRS)
    def test_restore_is_bit_exact_across_topologies(self, tmp_path, backend, grids):
        source = grid_topology(*grids[0], gpus_per_node=2)
        target = grid_topology(*grids[1], gpus_per_node=2)
        model, optimizer, manager = self._train_and_checkpoint(
            tmp_path, backend, source
        )
        saved = snapshot_params(model)
        manager.close()

        fresh = MoETransformerLM(TINY)
        fresh_opt = Adam(fresh.named_parameters(), lr=1e-2)
        resumed = MoCCheckpointManager(
            fresh, fresh_opt, full_config(),
            disk_store=make_backend(backend, str(tmp_path)), topology=target,
        )
        result = resumed.restore(topology=target, workers=4)
        assert result.resume_iteration == 4
        assert params_equal(saved, snapshot_params(fresh))
        # optimizer state restores bit-exactly too
        for name in optimizer.state:
            assert np.array_equal(optimizer.state[name].m, fresh_opt.state[name].m)
            assert np.array_equal(optimizer.state[name].v, fresh_opt.state[name].v)
            assert optimizer.state[name].step == fresh_opt.state[name].step
        # reshard bookkeeping recorded the topology change
        assert result.reshard is not None
        assert result.reshard.source == source
        assert result.reshard.target == target
        assert result.restore_stats is not None
        assert result.restore_stats.entries == len(result.reshard.reads)
        resumed.close()

    def test_async_pipeline_backend_also_restores_bit_exact(self, tmp_path):
        source = grid_topology(4, 2, gpus_per_node=2)
        target = grid_topology(2, 4, gpus_per_node=2)
        model, _, manager = self._train_and_checkpoint(
            tmp_path, "sharded", source, async_writes=True
        )
        saved = snapshot_params(model)
        manager.close()
        fresh = MoETransformerLM(TINY)
        fresh_opt = Adam(fresh.named_parameters(), lr=1e-2)
        resumed = MoCCheckpointManager(
            fresh, fresh_opt, full_config(),
            disk_store=make_backend("sharded", str(tmp_path)),
            async_writes=True, topology=target,
        )
        resumed.restore(topology=target, workers=4)
        assert params_equal(saved, snapshot_params(fresh))
        resumed.close()

    def test_adopted_topology_governs_future_checkpoints(self, tmp_path):
        source = grid_topology(4, 2, gpus_per_node=2)
        target = grid_topology(2, 4, gpus_per_node=2)
        _, _, manager = self._train_and_checkpoint(tmp_path, "sharded", source)
        manager.close()
        fresh = MoETransformerLM(TINY)
        fresh_opt = Adam(fresh.named_parameters(), lr=1e-2)
        resumed = MoCCheckpointManager(
            fresh, fresh_opt, full_config(),
            disk_store=make_backend("sharded", str(tmp_path)), topology=target,
        )
        resumed.restore(topology=target, workers=2)
        assert resumed.topology == target
        assert resumed.num_nodes == target.num_nodes
        train_steps(fresh, fresh_opt, make_corpus(), 2, start=5)
        resumed.note_model_routing()
        resumed.checkpoint(6)
        assert load_saved_topology(resumed.disk_store) == target
        resumed.close()


class TestElasticResumeTraining:
    def test_resume_at_new_topology_matches_straight_run(self, tmp_path):
        """10 iters at DP=4/EP=2 + resharded resume at DP=2/EP=4 + 6 more
        equals 16 straight-through iterations (deterministic stream)."""
        from repro.train import Trainer, TrainerConfig, continue_run, resume_training

        source = grid_topology(4, 2, gpus_per_node=2)
        target = grid_topology(2, 4, gpus_per_node=2)

        def job(root, topology, total):
            model = MoETransformerLM(TINY)
            optimizer = Adam(model.named_parameters(), lr=1e-2)
            manager = MoCCheckpointManager(
                model, optimizer, full_config(),
                disk_store=make_backend("sharded", str(root)), topology=topology,
            )
            trainer = Trainer(
                model, optimizer, make_corpus(),
                TrainerConfig(total_iterations=total, batch_size=2),
                manager=manager,
            )
            trainer.run()
            return model

        job(tmp_path / "job", source, 10)
        resumed = resume_training(
            model_factory=lambda: MoETransformerLM(TINY),
            optimizer_factory=lambda m: Adam(m.named_parameters(), lr=1e-2),
            corpus=make_corpus(),
            moc_config=full_config(),
            trainer_config=TrainerConfig(total_iterations=16, batch_size=2),
            store=make_backend("sharded", str(tmp_path / "job")),
            target_topology=target,
            restore_workers=4,
        )
        assert resumed.resume_iteration == 10
        assert resumed.recovery is not None
        assert resumed.recovery.reshard is not None
        assert resumed.recovery.reshard.source == source
        continue_run(resumed)
        reference = job(tmp_path / "ref", source, 16)
        assert params_equal(snapshot_params(reference), snapshot_params(resumed.model))

    def test_resume_rejects_indivisible_topology(self, tmp_path):
        from repro.train import TrainerConfig, resume_training

        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        manager = MoCCheckpointManager(
            model, optimizer, full_config(),
            disk_store=make_backend("sharded", str(tmp_path)),
            topology=grid_topology(2, 2, gpus_per_node=2),
        )
        manager.save_initial(0)
        with pytest.raises(ValueError, match="d_ep=3"):
            resume_training(
                model_factory=lambda: MoETransformerLM(TINY),
                optimizer_factory=lambda m: Adam(m.named_parameters(), lr=1e-2),
                corpus=make_corpus(),
                moc_config=full_config(),
                trainer_config=TrainerConfig(total_iterations=12, batch_size=2),
                store=make_backend("sharded", str(tmp_path)),
                target_topology=ShardTopology(d_dp=3, d_ep=3),
            )


class TestWarmReshardRecovery:
    def test_surviving_snapshots_still_used_after_resize(self, tmp_path):
        """A warm shrink: snapshots on surviving nodes restore from
        memory; experts whose nodes vanished fall back to persist."""
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        # One EP group of 4 ranks over 2 nodes: experts 0-1 live only on
        # node 0, experts 2-3 only on node 1 (no cross-node replicas).
        source = grid_topology(1, 4, gpus_per_node=2)
        config = MoCConfig(
            pec=PECConfig(k_snapshot=TINY.num_experts, k_persist=TINY.num_experts),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=True),
        )
        manager = MoCCheckpointManager(
            model, optimizer, config,
            disk_store=make_backend("sharded", str(tmp_path)), topology=source
        )
        manager.save_initial(0)
        train_steps(model, optimizer, make_corpus(), 2)
        manager.note_model_routing()
        manager.checkpoint(2)
        target = grid_topology(1, 2, gpus_per_node=2)  # 2 ranks, node 1 gone
        result = manager.recover(
            failed_nodes=[], target_topology=target, restore_workers=2
        )
        tiers = set(result.plan.tier_per_expert.values())
        assert tiers == {SNAPSHOT_TIER, PERSIST_TIER}
        assert result.reshard.fallback_experts
        fallback_experts = {key.expert for key in result.reshard.fallback_experts}
        assert fallback_experts == {2, 3}  # node 1's experts
        assert manager.topology == target

    def test_replicated_snapshots_survive_losing_one_node(self, tmp_path):
        """With EP replicas on every node, a shrink keeps all snapshots."""
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        source = grid_topology(2, 2, gpus_per_node=2)  # replicas on both nodes
        config = MoCConfig(
            pec=PECConfig(k_snapshot=TINY.num_experts, k_persist=TINY.num_experts),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=True),
        )
        manager = MoCCheckpointManager(
            model, optimizer, config,
            disk_store=make_backend("sharded", str(tmp_path)), topology=source
        )
        manager.save_initial(0)
        train_steps(model, optimizer, make_corpus(), 2)
        manager.note_model_routing()
        manager.checkpoint(2)
        target = grid_topology(1, 2, gpus_per_node=2)
        result = manager.recover(
            failed_nodes=[], target_topology=target, restore_workers=2
        )
        assert set(result.plan.tier_per_expert.values()) == {SNAPSHOT_TIER}
        assert not result.reshard.fallback_experts


class TestRestorePipelineAlwaysRuns:
    def test_topology_unaware_recovery_reports_pipeline_stats(self, tmp_path):
        """Even without a topology, recovery drains through the restore
        pipeline and honours the worker count (regression: workers used
        to be silently ignored on topology-less managers)."""
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        manager = MoCCheckpointManager(
            model, optimizer, full_config(),
            disk_store=make_backend("sharded", str(tmp_path))
        )
        manager.save_initial(0)
        train_steps(model, optimizer, make_corpus(), 2)
        manager.note_model_routing()
        manager.checkpoint(2)
        result = manager.recover(failed_nodes=[0, 1], restore_workers=4)
        assert result.reshard is None  # no topology change involved
        assert result.restore_stats is not None
        assert result.restore_stats.workers == 4
        assert result.restore_stats.entries == len(result.plan.sources)


class TestDistsimReshardCost:
    def test_partition_overlap_formula(self):
        from repro.distsim import partition_overlap_segments

        assert partition_overlap_segments(4, 4) == 4
        assert partition_overlap_segments(4, 2) == 4   # aligned: max(S, T)
        assert partition_overlap_segments(4, 8) == 8
        assert partition_overlap_segments(3, 4) == 6   # misaligned amplification
        with pytest.raises(ValueError):
            partition_overlap_segments(0, 4)

    def test_parallel_restore_beats_serial_and_scales(self):
        from repro.distsim import A800_CLUSTER, llama_moe, reshard_recovery_cost

        spec = llama_moe(num_experts=64)
        speedups = []
        for gpus in (16, 64, 256):
            source = ShardTopology(d_dp=gpus, d_ep=min(gpus, 64))
            target = ShardTopology(d_dp=gpus // 2, d_ep=min(gpus // 2, 32))
            cost = reshard_recovery_cost(spec, source, target, A800_CLUSTER)
            assert cost.parallel_seconds <= cost.serial_seconds
            assert cost.total_bytes > 0
            speedups.append(cost.speedup)
        assert speedups == sorted(speedups)  # more nodes, more parallel reads

    def test_indivisible_target_rejected(self):
        from repro.distsim import A800_CLUSTER, llama_moe, reshard_recovery_cost

        spec = llama_moe(num_experts=64)
        with pytest.raises(ValueError):
            reshard_recovery_cost(
                spec, ShardTopology(d_dp=64, d_ep=64),
                ShardTopology(d_dp=48, d_ep=48), A800_CLUSTER,
            )
