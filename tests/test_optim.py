"""Adam optimizer tests: update math, state round-trips, clipping, and the
change versions (plus the snapshot-tier restamp the manager pairs them with)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import InMemoryKVStore, KVStoreError
from repro.models.autograd import Parameter
from repro.models.optim import Adam, AdamParamState


def make_param(value):
    return Parameter(np.asarray(value, dtype=np.float64))


class TestAdamStep:
    def test_matches_reference_formula(self):
        p = make_param([1.0, 2.0])
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        # one-step Adam: m_hat = g, v_hat = g^2 => update = lr * sign(g)
        expected = np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -0.5]) / (
            np.abs([0.5, -0.5]) + 1e-8
        )
        assert np.allclose(p.data, expected, atol=1e-6)

    def test_skips_params_without_grad(self):
        p, q = make_param([1.0]), make_param([2.0])
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert not np.allclose(p.data, [1.0])
        assert np.allclose(q.data, [2.0])
        assert opt.state["q"].step == 0

    def test_step_counter_per_param(self):
        p = make_param([1.0])
        opt = Adam([("p", p)])
        for _ in range(3):
            p.grad = np.array([1.0])
            opt.step()
        assert opt.state["p"].step == 3

    def test_weight_decay_pulls_toward_zero(self):
        p = make_param([10.0])
        opt = Adam([("p", p)], lr=0.1, weight_decay=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 10.0

    def test_master_and_data_in_sync(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert np.array_equal(p.data, opt.state["p"].master)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_zero_grad(self):
        p = make_param([1.0])
        opt = Adam([("p", p)])
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None


class TestGradClipping:
    def test_clips_large_norm(self):
        p = make_param([0.0, 0.0])
        opt = Adam([("p", p)], grad_clip=1.0)
        p.grad = np.array([30.0, 40.0])  # norm 50
        opt._clip_gradients()
        assert np.isclose(np.sqrt((p.grad**2).sum()), 1.0, atol=1e-6)

    def test_leaves_small_norm(self):
        p = make_param([0.0])
        opt = Adam([("p", p)], grad_clip=1.0)
        p.grad = np.array([0.5])
        opt._clip_gradients()
        assert np.allclose(p.grad, [0.5])


class TestStateDict:
    def test_roundtrip_restores_trajectory(self):
        p = make_param([1.0, 2.0])
        opt = Adam([("p", p)], lr=0.05)
        for _ in range(3):
            p.grad = np.array([0.3, -0.2])
            opt.step()
        saved_state = opt.state_dict()
        saved_value = p.data.copy()
        for _ in range(2):
            p.grad = np.array([1.0, 1.0])
            opt.step()
        opt.load_state_dict(saved_state)
        assert np.allclose(p.data, saved_value)
        # continuing from restored state reproduces the original future
        p.grad = np.array([0.3, -0.2])
        opt.step()
        first = p.data.copy()
        opt.load_state_dict(saved_state)
        p.grad = np.array([0.3, -0.2])
        opt.step()
        assert np.allclose(p.data, first)

    def test_strict_missing_raises(self):
        p = make_param([1.0])
        opt = Adam([("p", p)])
        with pytest.raises(KeyError):
            opt.load_state_dict({})

    def test_strict_unexpected_raises(self):
        p = make_param([1.0])
        opt = Adam([("p", p)])
        state = opt.state_dict()
        state["ghost"] = state["p"]
        with pytest.raises(KeyError):
            opt.load_state_dict(state)

    def test_non_strict_partial_load(self):
        p, q = make_param([1.0]), make_param([2.0])
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        p.grad = np.array([1.0])
        q.grad = np.array([1.0])
        opt.step()
        saved = opt.state_dict()
        p.grad = np.array([1.0])
        q.grad = np.array([1.0])
        opt.step()
        opt.load_state_dict({"p": saved["p"]}, strict=False)
        assert np.allclose(p.data, saved["p"]["master"])
        assert not np.allclose(q.data, saved["q"]["master"])

    def test_load_param_entry(self):
        p = make_param([5.0])
        opt = Adam([("p", p)], lr=0.1)
        entry = {
            "master": np.array([9.0]),
            "m": np.array([0.1]),
            "v": np.array([0.2]),
            "step": np.asarray(4),
        }
        opt.load_param_entry("p", entry)
        assert p.data[0] == 9.0
        assert opt.state["p"].step == 4


class TestAdamParamState:
    def test_copy_is_deep(self):
        state = AdamParamState(np.zeros(2), np.zeros(2), np.zeros(2), step=1)
        clone = state.copy()
        clone.master[0] = 5.0
        assert state.master[0] == 0.0


class TestVersions:
    """The change counter the checkpoint manager skips clean state on."""

    def test_step_bumps_only_params_with_a_grad(self):
        p, q = make_param([1.0]), make_param([2.0])
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        assert opt.versions == {"p": 0, "q": 0}
        p.grad = np.array([1.0])
        opt.step()
        assert opt.versions == {"p": 1, "q": 0}
        q.grad = np.array([1.0])
        opt.step()
        assert opt.versions == {"p": 2, "q": 1}
        opt.zero_grad()
        opt.step()
        assert opt.versions == {"p": 2, "q": 1}

    def test_load_state_dict_bumps_every_loaded_name(self):
        p, q, r = make_param([1.0]), make_param([2.0]), make_param([3.0])
        opt = Adam([("p", p), ("q", q), ("r", r)])
        saved = opt.state_dict()
        opt.load_state_dict(saved)
        assert opt.versions == {"p": 1, "q": 1, "r": 1}
        opt.load_state_dict({"q": saved["q"]}, strict=False)
        opt.load_param_entry("r", saved["r"])
        assert opt.versions == {"p": 1, "q": 2, "r": 2}

    def test_bump_version_marks_an_outside_write(self):
        p = make_param([1.0])
        opt = Adam([("p", p)])
        p.data += 1.0
        opt.bump_version("p")
        assert opt.versions["p"] == 1


class TestInMemoryRestamp:
    def test_restamp_keeps_payload_and_size_and_moves_stamp_and_nodes(self):
        store = InMemoryKVStore()
        store.put("k", {"x": np.arange(4.0)}, stamp=3, node=(0, 1))
        payload, nbytes = store._read("k"), store.nbytes_of("k")
        written = store.bytes_written
        assert store.restamp("k", 7, 2) == nbytes
        assert store.stamp_of("k") == 7
        assert store.nodes_of("k") == (2,)
        assert store.nbytes_of("k") == nbytes
        assert store._read("k") is payload  # metadata only: same bytes object
        assert store.bytes_written == written
        store.restamp("k", 8, [0, 2])
        assert store.nodes_of("k") == (0, 2)
        assert np.array_equal(store.get("k")["x"], np.arange(4.0))

    def test_restamp_missing_key_raises(self):
        store = InMemoryKVStore()
        with pytest.raises(KVStoreError):
            store.restamp("absent", 1, 0)
        store.put("k", {"x": np.ones(2)}, stamp=1, node=0)
        store.drop_node(0)
        with pytest.raises(KVStoreError):
            store.restamp("k", 2, 0)
