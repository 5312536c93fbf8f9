"""Checkpoint manager + recovery tests: the system's end-to-end semantics.

These are the tests that pin down what PEC recovery *means*: selected
experts come back fresh, unselected experts come back stale, non-expert
state is always fresh, and two-level recovery prefers surviving memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import TINY, params_equal, snapshot_params, train_steps
from repro.ckpt import InMemoryKVStore, make_backend
from repro.core import (
    MoCCheckpointManager,
    MoCConfig,
    PECConfig,
    SelectionStrategy,
    TwoLevelConfig,
)
from repro.core.recovery import (
    build_recovery_plan,
    default_expert_placement,
    placement_from_topology,
)
from repro.core import ShardTopology
from repro.models import Adam, MoETransformerLM, expert_param_names
from repro.models.serial import ExpertKey
from repro.train import MarkovCorpus


def build(tmp_path, pec=None, two_level=None, num_nodes=2):
    model = MoETransformerLM(TINY)
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    config = MoCConfig(
        pec=pec or PECConfig(k_snapshot=2, k_persist=1),
        two_level=two_level or TwoLevelConfig(checkpoint_interval=2),
    )
    manager = MoCCheckpointManager(
        model, optimizer, config,
        disk_store=make_backend("sharded", str(tmp_path / "store")), num_nodes=num_nodes,
    )
    corpus = MarkovCorpus(vocab_size=TINY.vocab_size, num_domains=2, seq_len=12, seed=9)
    return model, optimizer, manager, corpus


def run_and_note(model, optimizer, manager, corpus, iterations, start=1):
    for iteration in range(start, start + iterations):
        tokens, targets = corpus.batch(iteration, 2)
        optimizer.zero_grad()
        model.loss(tokens, targets).backward()
        optimizer.step()
        manager.note_model_routing()


class TestFullCheckpointRecovery:
    def test_exact_state_roundtrip(self, tmp_path):
        """Full checkpointing + recovery restores the exact saved state."""
        model, optimizer, manager, corpus = build(
            tmp_path, pec=PECConfig.full(TINY.num_experts)
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 4)
        manager.checkpoint(4)
        saved = snapshot_params(model)
        run_and_note(model, optimizer, manager, corpus, 3, start=5)
        assert not params_equal(saved, snapshot_params(model))
        result = manager.recover(failed_nodes=[0])
        assert result.resume_iteration == 4
        assert params_equal(saved, snapshot_params(model))
        assert result.plt_increment == 0.0

    def test_optimizer_state_restored(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path, pec=PECConfig.full(TINY.num_experts)
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 4)
        manager.checkpoint(4)
        name = next(iter(optimizer.state))
        saved_m = optimizer.state[name].m.copy()
        saved_step = optimizer.state[name].step
        run_and_note(model, optimizer, manager, corpus, 3, start=5)
        manager.recover(failed_nodes=[0])
        assert np.array_equal(optimizer.state[name].m, saved_m)
        assert optimizer.state[name].step == saved_step


class TestPECRecovery:
    def test_unselected_experts_are_stale(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(k_snapshot=1, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=False),
        )
        manager.save_initial(0)
        state_at_zero = snapshot_params(model)
        run_and_note(model, optimizer, manager, corpus, 2)
        manifest = manager.checkpoint(2)  # saves 1 expert per layer
        state_at_two = snapshot_params(model)
        saved_experts = {
            key for key in manager.planner.plan(0).persist_experts
        }
        run_and_note(model, optimizer, manager, corpus, 1, start=3)
        manager.recover(failed_nodes=[0, 1])
        grouped = expert_param_names(model)
        current = snapshot_params(model)
        for expert_key, names in grouped.items():
            for name in names:
                if expert_key in saved_experts:
                    assert np.array_equal(current[name], state_at_two[name]), (
                        f"selected expert {expert_key} should be fresh"
                    )
                else:
                    assert np.array_equal(current[name], state_at_zero[name]), (
                        f"unselected expert {expert_key} should be stale"
                    )

    def test_non_expert_always_fresh(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path, pec=PECConfig(k_snapshot=1, k_persist=1)
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 2)
        manager.checkpoint(2)
        state_at_two = snapshot_params(model)
        run_and_note(model, optimizer, manager, corpus, 2, start=3)
        manager.recover(failed_nodes=[0, 1])
        current = snapshot_params(model)
        from repro.models.serial import non_expert_param_names

        for name in non_expert_param_names(model):
            assert np.array_equal(current[name], state_at_two[name]), name

    def test_plt_positive_under_pec(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(k_snapshot=1, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=False),
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 5)
        manager.checkpoint(4)
        result = manager.recover(failed_nodes=[0, 1])
        assert result.plt_increment > 0.0

    def test_recover_without_checkpoint_raises(self, tmp_path):
        model, optimizer, manager, corpus = build(tmp_path)
        with pytest.raises(RuntimeError):
            manager.recover()


class TestTwoLevelRecovery:
    def test_surviving_node_recovers_from_memory(self, tmp_path):
        """Experts on surviving nodes restore newer (snapshot) state."""
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(k_snapshot=TINY.num_experts, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=True),
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 2)
        manager.checkpoint(2)  # snapshots ALL experts, persists 1
        run_and_note(model, optimizer, manager, corpus, 1, start=3)
        result = manager.recover(failed_nodes=[0])
        tiers = set(result.plan.tier_per_expert.values())
        assert "snapshot" in tiers  # surviving node's experts from memory
        assert "persist" in tiers  # failed node's experts from storage

    def test_two_level_reduces_plt(self, tmp_path):
        """Figure 15(a): larger K_snapshot lowers PLT under two-level."""
        increments = {}
        for k_snapshot in (1, TINY.num_experts):
            model, optimizer, manager, corpus = build(
                tmp_path / f"k{k_snapshot}",
                pec=PECConfig(k_snapshot=k_snapshot, k_persist=1),
                two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=True),
            )
            manager.save_initial(0)
            run_and_note(model, optimizer, manager, corpus, 6)
            manager.checkpoint(6)
            run_and_note(model, optimizer, manager, corpus, 1, start=7)
            increments[k_snapshot] = manager.recover(failed_nodes=[0]).plt_increment
        assert increments[TINY.num_experts] <= increments[1]

    def test_disabled_two_level_ignores_memory(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(k_snapshot=TINY.num_experts, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=False),
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 2)
        manager.checkpoint(2)
        result = manager.recover(failed_nodes=[0])
        assert set(result.plan.tier_per_expert.values()) == {"persist"}


class TestComponentVariants:
    def test_weights_only_pec_keeps_moments_fresh(self, tmp_path):
        """"W" variant: moments are persisted for every expert."""
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(k_snapshot=1, k_persist=1, apply_to_moments=False),
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 2)
        manifest = manager.checkpoint(2)
        optim_entries = [
            record for record in manifest.persist_entries if record.entry_key.endswith(":o")
        ]
        num_expert_params = len(expert_param_names(model)) * 4
        assert len(optim_entries) == num_expert_params  # all experts' moments

    def test_moments_only_pec_keeps_weights_fresh(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(k_snapshot=1, k_persist=1, apply_to_weights=False),
        )
        manager.save_initial(0)
        run_and_note(model, optimizer, manager, corpus, 2)
        manifest = manager.checkpoint(2)
        weight_entries = [
            record for record in manifest.persist_entries if record.entry_key.endswith(":w")
        ]
        assert len(weight_entries) == len(expert_param_names(model)) * 4

    def test_wo_pec_is_smallest(self, tmp_path):
        sizes = {}
        for label, (w, o) in {
            "W": (True, False),
            "O": (False, True),
            "WO": (True, True),
        }.items():
            model, optimizer, manager, corpus = build(
                tmp_path / label,
                pec=PECConfig(
                    k_snapshot=1, k_persist=1, apply_to_weights=w, apply_to_moments=o
                ),
            )
            manager.save_initial(0)
            run_and_note(model, optimizer, manager, corpus, 2)
            sizes[label] = manager.checkpoint(2).persist_bytes()
        assert sizes["WO"] < sizes["W"]
        assert sizes["WO"] < sizes["O"]


class TestDynamicKIntegration:
    def test_k_grows_with_faults(self, tmp_path):
        model, optimizer, manager, corpus = build(
            tmp_path,
            pec=PECConfig(
                k_snapshot=1, k_persist=1, dynamic_k=True, plt_threshold=0.05
            ),
            two_level=TwoLevelConfig(checkpoint_interval=2, two_level_recovery=False),
        )
        manager.save_initial(0)
        ks = []
        iteration = 1
        for _ in range(6):
            run_and_note(model, optimizer, manager, corpus, 2, start=iteration)
            iteration += 2
            manager.checkpoint(iteration - 1)
            run_and_note(model, optimizer, manager, corpus, 1, start=iteration)
            iteration += 1
            ks.append(manager.recover(failed_nodes=[0, 1]).k_after)
        assert ks == sorted(ks)
        assert ks[-1] >= ks[0]


class TestRecoveryPlanner:
    def test_default_placement_stripes(self):
        placement = default_expert_placement(2, 4, num_nodes=2)
        assert placement[ExpertKey(0, 0)] == [0]
        assert placement[ExpertKey(0, 3)] == [1]

    def test_topology_placement_multi_group(self):
        topo = ShardTopology(d_dp=8, d_ep=4, gpus_per_node=4)
        placement = placement_from_topology(topo, 1, 8)
        # expert replicas live in both EP groups => two nodes
        assert placement[ExpertKey(0, 0)] == [0, 1]

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            default_expert_placement(1, 2, num_nodes=0)

    def test_missing_persist_entry_raises(self, tmp_path):
        from repro.ckpt import ShardedDiskKVStore

        memory = InMemoryKVStore()
        disk = ShardedDiskKVStore(str(tmp_path))
        with pytest.raises(KeyError):
            build_recovery_plan(
                memory,
                disk,
                {ExpertKey(0, 0): ["expert:l0:e0:w:w"]},
                ["ne:missing"],
                {ExpertKey(0, 0): [0]},
                failed_nodes=[],
                resume_iteration=0,
            )


class TestCodecIntegration:
    def test_compressed_checkpoints_smaller_and_recoverable(self, tmp_path):
        """A manager with a precision codec persists fewer bytes and still
        recovers to a state close to the uncompressed recovery."""
        from repro.ckpt import PrecisionCodec

        sizes = {}
        recovered = {}
        for label, codec in (("plain", None), ("fp16", PrecisionCodec())):
            model = MoETransformerLM(TINY)
            optimizer = Adam(model.named_parameters(), lr=1e-2)
            config = MoCConfig(
                pec=PECConfig.full(TINY.num_experts),
                two_level=TwoLevelConfig(checkpoint_interval=2),
            )
            manager = MoCCheckpointManager(
                model, optimizer, config,
                disk_store=make_backend("sharded", str(tmp_path / label)), codec=codec,
            )
            corpus = MarkovCorpus(vocab_size=TINY.vocab_size, num_domains=2,
                                  seq_len=12, seed=9)
            manager.save_initial(0)
            run_and_note(model, optimizer, manager, corpus, 4)
            manager.checkpoint(4)
            sizes[label] = manager.manifests[-1].persist_bytes()
            run_and_note(model, optimizer, manager, corpus, 2, start=5)
            manager.recover(failed_nodes=[0, 1])
            recovered[label] = snapshot_params(model)
        assert sizes["fp16"] < sizes["plain"] * 0.5
        # compressed recovery is approximately the uncompressed one
        for name in recovered["plain"]:
            assert np.allclose(
                recovered["plain"][name], recovered["fp16"][name],
                rtol=2e-3, atol=1e-4,
            ), name

    def test_codec_stats_accumulate(self, tmp_path):
        from repro.ckpt import PrecisionCodec

        codec = PrecisionCodec()
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        manager = MoCCheckpointManager(
            model, optimizer,
            MoCConfig(pec=PECConfig(k_snapshot=1, k_persist=1),
                      two_level=TwoLevelConfig(checkpoint_interval=2)),
            disk_store=make_backend("sharded", str(tmp_path)), codec=codec,
        )
        manager.save_initial(0)
        assert codec.stats.raw_bytes > 0
        assert codec.stats.ratio < 0.6
