"""Cold-restart resume and consistency verification tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import make_backend
from repro.testing import TINY, params_equal, snapshot_params
from repro.core import (
    MoCConfig,
    MoCCheckpointManager,
    PECConfig,
    TwoLevelConfig,
    verify_consistency,
)
from repro.models import Adam, MoETransformerLM
from repro.train import (
    FaultSchedule,
    MarkovCorpus,
    Trainer,
    TrainerConfig,
    continue_run,
    latest_persisted_iteration,
    resume_training,
)


def corpus():
    return MarkovCorpus(vocab_size=TINY.vocab_size, num_domains=2, seq_len=12, seed=31)


def run_job(tmp_path, total=10, interval=2, pec=None, kind="sharded"):
    model = MoETransformerLM(TINY)
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    moc = MoCConfig(
        pec=pec or PECConfig.full(TINY.num_experts),
        two_level=TwoLevelConfig(checkpoint_interval=interval),
    )
    manager = MoCCheckpointManager(
        model, optimizer, moc, disk_store=make_backend(kind, str(tmp_path))
    )
    trainer = Trainer(
        model, optimizer, corpus(),
        TrainerConfig(total_iterations=total, batch_size=2),
        manager=manager,
    )
    history = trainer.run()
    return model, manager, moc, history


class TestLatestPersistedIteration:
    def test_reads_meta(self, tmp_path):
        run_job(tmp_path, total=10, interval=2)
        assert latest_persisted_iteration(make_backend("sharded", str(tmp_path))) == 10

    def test_empty_store(self, tmp_path):
        assert latest_persisted_iteration(make_backend("sharded", str(tmp_path))) == -1


class TestResumeTraining:
    def make_resumed(self, tmp_path, total_after=16, interval=2, pec=None, kind="sharded"):
        model, manager, moc, _ = run_job(
            tmp_path, total=10, interval=interval, pec=pec, kind=kind
        )
        manager.close()
        # A cold restart: the resumed job opens the root afresh.
        return model, resume_training(
            model_factory=lambda: MoETransformerLM(TINY),
            optimizer_factory=lambda m: Adam(m.named_parameters(), lr=1e-2),
            corpus=corpus(),
            moc_config=moc,
            trainer_config=TrainerConfig(total_iterations=total_after, batch_size=2),
            store=make_backend(kind, str(tmp_path)),
        )

    def test_restores_persisted_state(self, tmp_path):
        original, resumed = self.make_resumed(tmp_path, total_after=10)
        assert resumed.resume_iteration == 10
        # full checkpointing: resumed state equals the job's final state
        assert params_equal(snapshot_params(original), snapshot_params(resumed.model))

    def test_no_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resume_training(
                model_factory=lambda: MoETransformerLM(TINY),
                optimizer_factory=lambda m: Adam(m.named_parameters(), lr=1e-2),
                corpus=corpus(),
                moc_config=MoCConfig(),
                trainer_config=TrainerConfig(total_iterations=5),
                store=make_backend("sharded", str(tmp_path / "empty")),
            )

    @pytest.mark.parametrize("kind", ["sharded", "dedup", "tiered"])
    def test_continue_run_matches_uninterrupted_job(self, tmp_path, kind):
        """10 iterations + cold restart + 6 more == 16 straight-through
        iterations (full checkpointing, deterministic stream), on every
        file-backed store."""
        _, resumed = self.make_resumed(tmp_path / "job", total_after=16, kind=kind)
        history = continue_run(resumed)
        resumed.manager.close()
        assert set(history.train_losses) == set(range(11, 17))

        reference_model = MoETransformerLM(TINY)
        reference_opt = Adam(reference_model.named_parameters(), lr=1e-2)
        reference = Trainer(
            reference_model, reference_opt, corpus(),
            TrainerConfig(total_iterations=16, batch_size=2),
            manager=MoCCheckpointManager(
                reference_model, reference_opt,
                MoCConfig(pec=PECConfig.full(TINY.num_experts),
                          two_level=TwoLevelConfig(checkpoint_interval=2)),
                disk_store=make_backend("sharded", str(tmp_path / "ref")),
            ),
        )
        reference.run()
        assert params_equal(
            snapshot_params(reference_model), snapshot_params(resumed.model)
        )

    def test_continue_run_handles_further_faults(self, tmp_path):
        _, resumed = self.make_resumed(tmp_path, total_after=18)
        resumed.trainer.faults = FaultSchedule.midpoint(28)  # iteration 14
        history = continue_run(resumed)
        assert history.fault_iterations == [14]
        assert history.executed_iterations > 8

    def test_pec_resume_has_mixed_versions(self, tmp_path):
        """Under PEC, cold restart restores stale experts — the trainer
        continues anyway and PLT reflects the loss."""
        _, resumed = self.make_resumed(
            tmp_path, total_after=14, pec=PECConfig(k_snapshot=1, k_persist=1)
        )
        history = continue_run(resumed)
        assert resumed.manager.plt_tracker.num_faults == 1  # the cold restart
        assert history.executed_iterations == 4


class TestVerifyConsistency:
    def test_fresh_after_checkpoint(self, tmp_path):
        model, manager, _, _ = run_job(tmp_path, total=10, interval=2)
        report = verify_consistency(manager)
        assert report.ok
        counts = report.counts()
        assert counts.get("missing", 0) == 0
        assert counts.get("fresh", 0) > 0

    def test_stale_between_checkpoints_still_ok(self, tmp_path):
        model, manager, _, _ = run_job(tmp_path, total=9, interval=2)
        # iteration 9 trained past the checkpoint at 8: live state ahead
        report = verify_consistency(manager)
        assert report.ok
        assert report.counts().get("stale", 0) > 0

    def test_pec_unselected_experts_read_stale(self, tmp_path):
        model, manager, _, _ = run_job(
            tmp_path, total=10, interval=2, pec=PECConfig(k_snapshot=1, k_persist=1)
        )
        report = verify_consistency(manager)
        assert report.ok
        stale_experts = [
            key for key, reports in report.expert.items()
            if any(r.status == "stale" for r in reports)
        ]
        assert stale_experts  # most experts were not in the last checkpoint

    def test_detects_corruption(self, tmp_path):
        model, manager, _, _ = run_job(tmp_path, total=4, interval=2)
        # corrupt one stored entry with a wrong-shaped tensor
        from repro.ckpt.manifest import non_expert_entry_key

        name = manager._non_expert_params[0]
        manager.disk_store.put(
            non_expert_entry_key(name), {"weights": np.zeros(3)}, stamp=99
        )
        report = verify_consistency(manager)
        assert not report.ok
        assert report.counts().get("mismatch", 0) == 1

    def test_detects_missing_entry(self, tmp_path):
        model, manager, _, _ = run_job(tmp_path, total=4, interval=2)
        from repro.ckpt.manifest import non_expert_entry_key

        name = manager._non_expert_params[0]
        manager.disk_store.delete(non_expert_entry_key(name))
        report = verify_consistency(manager)
        assert not report.ok
        assert report.counts().get("missing", 0) == 1
