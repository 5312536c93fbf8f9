"""Edge-case coverage across modules: paths the mainline tests skip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import InMemoryKVStore, make_backend
from repro.testing import TINY
from repro.core import (
    MoCConfig,
    MoCCheckpointManager,
    PECConfig,
    ShardTopology,
    TwoLevelConfig,
)
from repro.models import Adam, MoETransformerLM
from repro.models import autograd as ag
from repro.models.autograd import Parameter, Tensor


class TestAutogradEdges:
    def test_concatenate_axis1_gradients(self):
        a = Parameter(np.ones((2, 2)))
        b = Parameter(np.ones((2, 3)))
        out = ag.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        assert a.grad.shape == (2, 2)
        assert np.allclose(a.grad, [[0, 1], [5, 6]])

    def test_transpose_default_reverses(self):
        a = Parameter(np.ones((2, 3, 4)))
        assert ag.transpose(a).shape == (4, 3, 2)

    def test_power_negative_exponent(self):
        a = Parameter(np.array([2.0]))
        (a**-2).backward()
        assert np.allclose(a.grad, [-2 * 2.0**-3])

    def test_tensor_repr_and_item(self):
        t = Tensor(np.asarray(3.5), name="x")
        assert "x" in repr(t)
        assert t.item() == 3.5

    def test_backward_default_grad_is_ones(self):
        p = Parameter(np.ones((2, 2)))
        (p * 2.0).backward()
        assert np.allclose(p.grad, 2.0)

    def test_shared_subexpression_single_traversal(self):
        """Diamond graph: shared node's backward runs once (correct sums)."""
        p = Parameter(np.array([3.0]))
        shared = p * 2.0
        out = shared + shared
        out.backward()
        assert np.allclose(p.grad, [4.0])

    def test_sum_multiple_axes(self):
        p = Parameter(np.ones((2, 3, 4)))
        out = ag.sum_(p, axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(p.grad, 1.0)

    def test_mean_negative_axis(self):
        p = Parameter(np.ones((2, 4)))
        assert ag.mean(p, axis=-1).shape == (2,)


class TestKVStoreEdges:
    def test_multi_node_put_and_partial_drop(self):
        store = InMemoryKVStore()
        store.put("k", {"x": np.ones(2)}, stamp=1, node=(0, 1))
        assert store.nodes_of("k") == (0, 1)
        assert store.drop_node(0) == []  # replica on node 1 survives
        assert store.has("k")
        assert store.drop_node(1) == ["k"]
        assert not store.has("k")

    def test_drop_unknown_node_noop(self):
        store = InMemoryKVStore()
        store.put("k", {"x": np.ones(1)}, stamp=0, node=0)
        assert store.drop_node(7) == []
        assert store.has("k")


class TestManagerEdges:
    def make(self, tmp_path, **kwargs):
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        config = MoCConfig(
            pec=kwargs.pop("pec", PECConfig(k_snapshot=2, k_persist=1)),
            two_level=kwargs.pop("two_level", TwoLevelConfig(checkpoint_interval=2)),
        )
        manager = MoCCheckpointManager(
            model, optimizer, config,
            disk_store=make_backend("sharded", str(tmp_path)), **kwargs
        )
        return model, optimizer, manager

    def test_requires_store_or_root(self):
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        with pytest.raises(TypeError):
            MoCCheckpointManager(model, optimizer, MoCConfig())

    def test_maybe_checkpoint_interval_zero_disabled(self, tmp_path):
        _, _, manager = self.make(
            tmp_path, two_level=TwoLevelConfig(checkpoint_interval=0)
        )
        assert manager.maybe_checkpoint(10) is None

    def test_maybe_checkpoint_skips_iteration_zero(self, tmp_path):
        _, _, manager = self.make(tmp_path)
        assert manager.maybe_checkpoint(0) is None

    def test_note_routing_direct(self, tmp_path):
        model, _, manager = self.make(tmp_path)
        counts = [np.full(TINY.num_experts, 2)] * TINY.num_moe_layers
        manager.note_routing(counts)
        assert manager.plt_tracker.total_assignments.sum() > 0

    def test_num_nodes_derived_from_placement(self, tmp_path):
        _, _, manager = self.make(tmp_path, num_nodes=3)
        assert manager.num_nodes == 3


class TestShardTopologyEdges:
    def test_single_rank_topology(self):
        topo = ShardTopology(d_dp=1, d_ep=1, gpus_per_node=1)
        assert topo.num_ep_groups == 1
        assert topo.num_nodes == 1
        assert topo.owner_rank(0, 3, 4) == 0

    def test_node_count_rounds_up(self):
        topo = ShardTopology(d_dp=10, d_ep=10, gpus_per_node=8)
        assert topo.num_nodes == 2


class TestSpecEdges:
    def test_other_state_bytes_in_full(self):
        from repro.distsim import MoEModelSpec

        spec = MoEModelSpec(
            name="t", vocab_size=100, hidden=32, num_layers=2, num_heads=2,
            head_dim=16, ffn_mult=2, num_moe_layers=1, num_experts=4,
            other_state_bytes=999,
        )
        base = spec.total_params * 14
        assert spec.full_checkpoint_bytes() == base + 999

    def test_a2a_payload_scales_with_topk(self):
        from repro.distsim import llama_moe

        one = llama_moe(num_experts=8, top_k=1)
        two = llama_moe(num_experts=8, top_k=2)
        assert two.a2a_bytes_per_token_per_layer() == 2 * one.a2a_bytes_per_token_per_layer()


class TestTimelineEdges:
    def test_zero_snapshot_instant(self):
        from repro.distsim import TimelineConfig, simulate_timeline

        result = simulate_timeline(
            TimelineConfig(t_fb=1.0, t_update=0.1, t_snapshot=0.0, t_persist=0.0,
                           num_iterations=10, checkpoint_interval=1, mode="async")
        )
        assert result.o_save == pytest.approx(0.0)
        assert result.checkpoints_persisted >= result.checkpoints_started - 1

    def test_interval_larger_than_run(self):
        from repro.distsim import TimelineConfig, simulate_timeline

        result = simulate_timeline(
            TimelineConfig(t_fb=1.0, t_update=0.1, t_snapshot=1.0, t_persist=1.0,
                           num_iterations=5, checkpoint_interval=10, mode="async")
        )
        assert result.checkpoints_started == 0
        assert result.achieved_interval == float("inf")
