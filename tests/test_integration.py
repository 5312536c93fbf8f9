"""Cross-module integration scenarios.

These tests exercise realistic end-to-end flows spanning the trainer,
checkpoint manager, stores, PLT tracking and the simulator — the kind of
composition bugs unit tests miss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import make_backend
from repro.testing import TINY, params_equal, snapshot_params
from repro.core import (
    MoCConfig,
    MoCCheckpointManager,
    PECConfig,
    SelectionStrategy,
    ShardTopology,
    ShardingPolicy,
    TwoLevelConfig,
    analytic_plt,
    placement_from_topology,
)
from repro.models import Adam, MoETransformerLM
from repro.train import (
    FaultEvent,
    FaultSchedule,
    MarkovCorpus,
    Trainer,
    TrainerConfig,
    lm_validation_loss,
)


def build(tmp_path, *, pec, interval=4, total=24, faults=None, two_level=True,
          placement=None, seed=7):
    model = MoETransformerLM(TINY)
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    corpus = MarkovCorpus(vocab_size=TINY.vocab_size, num_domains=2, seq_len=12, seed=seed)
    manager = MoCCheckpointManager(
        model, optimizer,
        MoCConfig(pec=pec, two_level=TwoLevelConfig(
            checkpoint_interval=interval, two_level_recovery=two_level)),
        disk_store=make_backend("sharded", str(tmp_path)),
        expert_placement=placement,
    )
    trainer = Trainer(
        model, optimizer, corpus,
        TrainerConfig(total_iterations=total, batch_size=2),
        manager=manager, fault_schedule=faults,
    )
    return trainer, model, manager


class TestMeasuredVsAnalyticPLT:
    def test_single_fault_matches_closed_form_order(self, tmp_path):
        """Measured PLT from a real run lands within 3x of the balanced
        closed form (routing is skewed, so exact equality is not
        expected)."""
        interval, total = 3, 30
        trainer, _, _ = build(
            tmp_path, pec=PECConfig(k_snapshot=1, k_persist=1),
            interval=interval, total=total,
            faults=FaultSchedule([FaultEvent(16, (0, 1))]),
            two_level=False,
        )
        history = trainer.run()
        predicted = analytic_plt(TINY.num_experts, 1, interval, 1, total)
        assert history.final_plt > 0
        assert 0.2 < history.final_plt / predicted < 4.0


class TestTopologyPlacementIntegration:
    def test_multi_group_placement_survives_single_node_fault(self, tmp_path):
        """With 2 EP groups, every expert has replicas on both nodes, so
        a single-node fault leaves all snapshots recoverable from memory
        and the PLT contribution is zero."""
        topo = ShardTopology(d_dp=8, d_ep=4, gpus_per_node=4)  # 2 nodes
        placement = placement_from_topology(topo, TINY.num_moe_layers, TINY.num_experts)
        trainer, _, manager = build(
            tmp_path,
            pec=PECConfig(k_snapshot=TINY.num_experts, k_persist=1),
            faults=FaultSchedule([FaultEvent(10, (0,))]),
            placement=placement,
            total=16,
        )
        history = trainer.run()
        recovery = history.recoveries[0]
        assert set(recovery.plan.tier_per_expert.values()) == {"snapshot"}

    def test_all_nodes_down_forces_storage(self, tmp_path):
        topo = ShardTopology(d_dp=8, d_ep=4, gpus_per_node=4)
        placement = placement_from_topology(topo, TINY.num_moe_layers, TINY.num_experts)
        trainer, _, _ = build(
            tmp_path,
            pec=PECConfig(k_snapshot=TINY.num_experts, k_persist=1),
            faults=FaultSchedule([FaultEvent(10, (0, 1))]),
            placement=placement,
            total=16,
        )
        history = trainer.run()
        recovery = history.recoveries[0]
        assert set(recovery.plan.tier_per_expert.values()) == {"persist"}


class TestLoadAwareEndToEnd:
    def test_load_aware_run_completes_and_covers_hot_experts(self, tmp_path):
        trainer, _, manager = build(
            tmp_path,
            pec=PECConfig(k_snapshot=2, k_persist=1,
                          selection=SelectionStrategy.LOAD_AWARE),
            faults=FaultSchedule([FaultEvent(14, (0,))]),
            total=20,
        )
        history = trainer.run()
        assert history.executed_iterations > 20
        assert history.final_plt >= 0


class TestCheckpointByteAccounting:
    def test_manifest_bytes_match_store_meters(self, tmp_path):
        """Bytes reported by manifests equal bytes metered by the store."""
        trainer, _, manager = build(
            tmp_path, pec=PECConfig(k_snapshot=2, k_persist=1), total=8,
        )
        trainer.run()
        manifest_total = sum(m.persist_bytes() for m in manager.manifests)
        # store also wrote per-checkpoint meta entries not in manifests
        meta_overhead = manager.disk_store.put_count - sum(
            len(m.persist_entries) for m in manager.manifests
        )
        assert manifest_total <= manager.disk_store.bytes_written
        assert manager.disk_store.bytes_written - manifest_total < meta_overhead * 1024

    def test_pec_persists_fewer_bytes_than_full(self, tmp_path):
        totals = {}
        for label, pec in (
            ("full", PECConfig.full(TINY.num_experts)),
            ("pec", PECConfig(k_snapshot=1, k_persist=1)),
        ):
            trainer, _, manager = build(tmp_path / label, pec=pec, total=12)
            trainer.run()
            steady = [m for m in manager.manifests if m.checkpoint_index >= 0]
            totals[label] = sum(m.persist_bytes() for m in steady)
        assert totals["pec"] < totals["full"]


class TestResumeAcrossManagers:
    def test_cold_restart_from_disk_store(self, tmp_path):
        """A brand-new manager (fresh process) can recover purely from
        the persisted store — the restart path after a full crash."""
        trainer, model, manager = build(
            tmp_path, pec=PECConfig.full(TINY.num_experts), total=8,
        )
        trainer.run()
        saved = snapshot_params(model)

        # simulate a new process: fresh model/optimizer/manager, same disk
        model2 = MoETransformerLM(TINY)
        optimizer2 = Adam(model2.named_parameters(), lr=1e-2)
        manager2 = MoCCheckpointManager(
            model2, optimizer2,
            MoCConfig(pec=PECConfig.full(TINY.num_experts),
                      two_level=TwoLevelConfig(checkpoint_interval=4,
                                               two_level_recovery=False)),
            disk_store=make_backend("sharded", str(tmp_path)),
        )
        result = manager2.recover(failed_nodes=[0, 1])
        assert result.resume_iteration == 8
        restored = snapshot_params(model2)
        assert params_equal(saved, restored)


class TestValidationContinuity:
    def test_recovered_run_validation_finite_and_reasonable(self, tmp_path):
        trainer, model, _ = build(
            tmp_path, pec=PECConfig(k_snapshot=2, k_persist=1),
            faults=FaultSchedule.periodic(8, 24), total=24,
        )
        corpus = trainer.data
        trainer.val_fn = lambda: lm_validation_loss(model, corpus.validation_set(2, 2))
        history = trainer.run()
        assert np.isfinite(history.final_val_loss)
        assert history.final_val_loss < np.log(TINY.vocab_size) + 0.5
