"""Skipping clean state on optimizer change versions, checked against content.

The manager skips a persist-tier entry whose parameter's
``Adam.versions`` counter has not moved since the entry was written, and
restamps a retained snapshot whose version has not moved since it was
materialized — in both cases without copying, framing or hashing it.
Two properties pin that this is only ever an optimization:

* **soundness** — over seeded runs with sparse routing (most experts
  untouched between checkpoints) interleaving training, checkpoints,
  one- and two-level node-fault recoveries and optimizer reloads, every
  skipped key's stored bytes equal the live state (the content digest
  is the oracle), and every snapshot entry, restamped or rebuilt,
  deserializes to the live arrays;
* **build-once never aliases** — each entry holds the optimizer's own
  (read-only) arrays and is shared by both tiers: an in-place write to
  them raises, and rebinding or stepping the optimizer after
  ``checkpoint()`` returns never changes the bytes either tier stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import entry_digest, make_backend
from repro.ckpt.manifest import parse_entry_key
from repro.core import MoCCheckpointManager, MoCConfig, PECConfig, TwoLevelConfig
from repro.models import Adam, MoEModelConfig, MoETransformerLM
from repro.testing import train_steps
from repro.train import MarkovCorpus

#: persist tier -> (store kind, async writes).
TIERS = {
    "sharded": ("sharded", False),
    "dedup": ("dedup", False),
    "async-tiered": ("tiered", True),
}
SEQ_LEN = 8
NUM_EXPERTS = 16


def sparse_run(tmp_path, tier: str, seed: int, pec: PECConfig = None, delta_saves=True):
    """A model whose 1x8-token batches leave most of 16 experts untouched."""
    model = MoETransformerLM(MoEModelConfig(
        vocab_size=32, max_seq_len=SEQ_LEN, dim=8, num_layers=4, num_heads=2,
        num_experts=NUM_EXPERTS, top_k=2, gate_noise_std=4.0, seed=seed,
    ))
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    kind, async_writes = TIERS[tier]
    manager = MoCCheckpointManager(
        model, optimizer,
        MoCConfig(pec=pec or PECConfig.full(NUM_EXPERTS),
                  two_level=TwoLevelConfig(checkpoint_interval=1)),
        disk_store=make_backend(kind, str(tmp_path)), async_writes=async_writes,
        delta_saves=delta_saves,
    )
    corpus = MarkovCorpus(vocab_size=32, seq_len=SEQ_LEN, seed=seed + 1)
    return model, optimizer, manager, corpus


def param_name(key: str) -> str:
    """The parameter an entry key is built from (expert keys end in :w/:o)."""
    kind, _expert, name = parse_entry_key(key)
    return name[:-2] if kind == "expert" else name


def live_entry(optimizer: Adam, key: str) -> dict:
    """The entry ``key`` holds, built straight from the live optimizer."""
    name = param_name(key)
    part = key[-1] if parse_entry_key(key)[0] == "expert" else "wo"
    state = optimizer.state[name]
    entry = {}
    if "w" in part:
        entry["weights"] = optimizer.params[name].data
    if "o" in part:
        entry.update(master=state.master, m=state.m, v=state.v, step=np.asarray(state.step))
    return entry


def assert_same_arrays(stored: dict, live: dict, key: str) -> None:
    assert set(stored) == set(live), key
    for field, array in live.items():
        assert stored[field].dtype == np.asarray(array).dtype, (key, field)
        assert np.array_equal(stored[field], array), (key, field)


class TestVersionSkipSoundness:
    # Full state, and PEC with every expert snapshotted but 4 persisted:
    # there a recovery can load persist versions older than the snapshots
    # left in memory, which only the loader's version bump tells apart.
    @pytest.mark.parametrize("k_persist", [NUM_EXPERTS, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_skipped_and_restamped_entries_match_live_state(
        self, tmp_path, tier, seed, k_persist
    ):
        model, optimizer, manager, corpus = sparse_run(
            tmp_path, tier, seed, pec=PECConfig(k_snapshot=NUM_EXPERTS, k_persist=k_persist)
        )
        rng = np.random.default_rng(seed)
        # (key, stamp) -> version the entry was built from, per write
        built_at = {}
        version_skips = restamps = 0
        iteration = 0
        saved_state = optimizer.state_dict()
        with manager:

            def checkpoint(manifest_of):
                nonlocal version_skips, restamps
                puts = manager.memory_store.put_count
                manifest = manifest_of(iteration)
                manager.flush()
                # snapshot tier: rebuilt and restamped entries alike
                for record in manifest.snapshot_entries:
                    assert manager.memory_store.stamp_of(record.entry_key) == iteration
                    assert_same_arrays(
                        manager.memory_store.get(record.entry_key),
                        live_entry(optimizer, record.entry_key), record.entry_key,
                    )
                # every put but the iteration meta rebuilt an entry
                restamps += len(manifest.snapshot_entries) - (
                    manager.memory_store.put_count - puts - 1
                )
                for record in manifest.persist_entries:
                    built_at[record.entry_key, record.stamp] = (
                        optimizer.versions[param_name(record.entry_key)]
                    )
                # persist tier: the digest is the oracle for every skip
                for record in manifest.persist_skipped:
                    key = record.entry_key
                    live = live_entry(optimizer, key)
                    assert manager.disk_store.stamp_of(key) == record.stamp, key
                    assert entry_digest(manager.disk_store.get(key)) == entry_digest(live), key
                    version_skips += (
                        built_at.get((key, record.stamp)) == optimizer.versions[param_name(key)]
                    )

            checkpoint(manager.save_initial)
            iteration += 1
            train_steps(model, optimizer, corpus, 1, start=iteration, batch_size=1)
            for _ in range(24):
                action = rng.choice(["train", "checkpoint", "recover", "reload"],
                                    p=[0.45, 0.35, 0.1, 0.1])
                if action == "train":
                    iteration += 1
                    train_steps(model, optimizer, corpus, 1, start=iteration, batch_size=1)
                    if rng.random() < 0.3:
                        saved_state = optimizer.state_dict()
                elif action == "checkpoint":
                    iteration += 1
                    manager.note_model_routing()
                    checkpoint(manager.checkpoint)
                elif action == "recover":
                    # A one-level recovery reads persist versions even
                    # where the snapshot it replaces survived the fault.
                    manager.config.two_level.two_level_recovery = bool(rng.random() < 0.5)
                    manager.recover(failed_nodes=[int(rng.integers(2))])
                else:
                    optimizer.load_state_dict(saved_state)
            iteration += 1
            checkpoint(manager.checkpoint)
        # the run exercised both shortcuts, so the checks above bit
        assert version_skips > 0
        assert restamps > 0

    def test_delta_saves_off_writes_every_persist_entry(self, tmp_path):
        model, optimizer, manager, corpus = sparse_run(
            tmp_path, "sharded", seed=3, delta_saves=False
        )
        with manager:
            manager.save_initial(0)
            train_steps(model, optimizer, corpus, 1, start=1, batch_size=1)
            manager.note_model_routing()
            manifest = manager.checkpoint(2)
            assert not manifest.persist_skipped
            assert len(manifest.persist_entries) == len(manifest.snapshot_entries)


class TestBuildOnceNeverAliases:
    def test_in_place_write_to_checkpointed_state_raises(self, tmp_path):
        model, optimizer, manager, corpus = sparse_run(
            tmp_path, "sharded", seed=4, pec=PECConfig(k_snapshot=NUM_EXPERTS, k_persist=4)
        )
        with manager:
            manager.save_initial(0)
            train_steps(model, optimizer, corpus, 2, start=1, batch_size=1)
            manager.note_model_routing()
            manifest = manager.checkpoint(3)
            for name, param in model.named_parameters():
                state = optimizer.state[name]
                for array in (param.data, state.master, state.m, state.v):
                    with pytest.raises(ValueError, match="read-only"):
                        array += 1.0
            for record in manifest.snapshot_entries:
                for array in manager.memory_store.get(record.entry_key, copy=False).values():
                    assert not array.flags.writeable, record.entry_key

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_mutation_after_checkpoint_never_changes_stored_bytes(self, tmp_path, tier):
        # Every expert snapshotted, so node 1's half survives the fault.
        model, optimizer, manager, corpus = sparse_run(
            tmp_path, tier, seed=4, pec=PECConfig(k_snapshot=NUM_EXPERTS, k_persist=4)
        )
        with manager:
            manager.save_initial(0)
            train_steps(model, optimizer, corpus, 2, start=1, batch_size=1)
            manager.note_model_routing()
            manifest = manager.checkpoint(3)
            expected = {
                record.entry_key: entry_digest(live_entry(optimizer, record.entry_key))
                for record in (manifest.snapshot_entries + manifest.persist_entries
                               + manifest.persist_skipped)
            }
            # Change everything after checkpoint() returned: rebind
            # every array the checkpoint read (in-place writes raise),
            # then Adam steps rebinding them, then a recover reloading
            # them.
            for name, param in model.named_parameters():
                state = optimizer.state[name]
                param.data = param.data + 1.0
                state.master, state.m, state.v = state.master + 1.0, state.m + 1.0, state.v + 1.0
                optimizer.bump_version(name)
            train_steps(model, optimizer, corpus, 3, start=4, batch_size=4)
            manager.recover(failed_nodes=[0])
            manager.flush()
            survivors = [
                record for record in manifest.snapshot_entries
                if manager.memory_store.has(record.entry_key)
            ]
            assert survivors
            for record in survivors:
                assert manager.memory_store.stamp_of(record.entry_key) == 3
                stored = manager.memory_store.get(record.entry_key)
                assert entry_digest(stored) == expected[record.entry_key], record.entry_key
            for record in manifest.persist_entries + manifest.persist_skipped:
                assert manager.disk_store.stamp_of(record.entry_key) == record.stamp
                stored = manager.disk_store.get(record.entry_key)
                assert entry_digest(stored) == expected[record.entry_key], record.entry_key
