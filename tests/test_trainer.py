"""Trainer tests: determinism, fault replay, history bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import make_backend
from repro.testing import TINY, params_equal, snapshot_params
from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
from repro.models import Adam, MoETransformerLM
from repro.train import (
    FaultEvent,
    FaultSchedule,
    MarkovCorpus,
    Trainer,
    TrainerConfig,
    lm_validation_loss,
)


def build_trainer(tmp_path, total=10, interval=3, faults=None, pec=None):
    model = MoETransformerLM(TINY)
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    corpus = MarkovCorpus(vocab_size=TINY.vocab_size, num_domains=2, seq_len=12, seed=11)
    config = MoCConfig(
        pec=pec or PECConfig(k_snapshot=2, k_persist=1),
        two_level=TwoLevelConfig(checkpoint_interval=interval),
    )
    manager = MoCCheckpointManager(
        model, optimizer, config,
        disk_store=make_backend("sharded", str(tmp_path / "store")),
    )
    trainer = Trainer(
        model,
        optimizer,
        corpus,
        TrainerConfig(total_iterations=total, batch_size=2),
        manager=manager,
        fault_schedule=faults,
    )
    return trainer, model, manager


class TestFaultSchedule:
    def test_midpoint(self):
        schedule = FaultSchedule.midpoint(100)
        assert schedule.events[0].iteration == 50

    def test_periodic(self):
        schedule = FaultSchedule.periodic(10, 35)
        assert [event.iteration for event in schedule.events] == [10, 20, 30]

    def test_consume_removes(self):
        schedule = FaultSchedule.midpoint(10)
        assert schedule.consume(5) is not None
        assert schedule.consume(5) is None
        assert schedule.num_faults == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule([FaultEvent(3), FaultEvent(3)])

    def test_fault_before_start_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            FaultSchedule.periodic(0, 10)


class TestTrainerBasics:
    def test_history_complete(self, tmp_path):
        trainer, _, _ = build_trainer(tmp_path, total=6, interval=2)
        history = trainer.run()
        assert set(history.train_losses) == set(range(1, 7))
        assert history.executed_iterations == 6
        assert history.fault_iterations == []

    def test_checkpoints_taken_on_interval(self, tmp_path):
        trainer, _, manager = build_trainer(tmp_path, total=9, interval=3)
        trainer.run()
        # initial + iterations 3, 6, 9
        assert len(manager.manifests) == 4

    def test_val_fn_called(self, tmp_path):
        trainer, model, _ = build_trainer(tmp_path, total=4, interval=2)
        corpus = trainer.data
        val = corpus.validation_set(1, 2)
        trainer.val_fn = lambda: lm_validation_loss(model, val)
        trainer.config.eval_every = 2
        history = trainer.run()
        assert set(history.val_losses) == {2, 4}
        assert history.final_val_loss is not None

    def test_deterministic_runs(self, tmp_path):
        results = []
        for attempt in range(2):
            trainer, model, _ = build_trainer(tmp_path / str(attempt), total=5)
            trainer.run()
            results.append(snapshot_params(model))
        assert params_equal(results[0], results[1])


class TestFaultHandling:
    def test_fault_rewinds_iteration(self, tmp_path):
        trainer, _, _ = build_trainer(
            tmp_path, total=10, interval=3,
            faults=FaultSchedule([FaultEvent(7, (0,))]),
        )
        history = trainer.run()
        assert history.fault_iterations == [7]
        # resumed from checkpoint at 6: iterations 7..10 re-run => 10 + (7-6)
        assert history.executed_iterations == 11
        assert history.recoveries[0].resume_iteration == 6

    def test_fault_without_manager_raises(self, tmp_path):
        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        corpus = MarkovCorpus(vocab_size=TINY.vocab_size, seq_len=12, seed=12)
        trainer = Trainer(
            model, optimizer, corpus,
            TrainerConfig(total_iterations=5, batch_size=2),
            fault_schedule=FaultSchedule([FaultEvent(2)]),
        )
        with pytest.raises(RuntimeError):
            trainer.run()

    def test_full_checkpoint_fault_run_matches_faultless_suffix(self, tmp_path):
        """With FULL checkpointing, a fault + replay converges to exactly
        the state of an uninterrupted run (data stream is identical and
        recovery is exact)."""
        pec = PECConfig.full(TINY.num_experts)
        plain, model_plain, _ = build_trainer(tmp_path / "plain", total=8, interval=2, pec=pec)
        plain.run()
        faulty, model_faulty, _ = build_trainer(
            tmp_path / "faulty", total=8, interval=2, pec=pec,
            faults=FaultSchedule([FaultEvent(5, (0, 1))]),
        )
        history = faulty.run()
        assert history.fault_iterations == [5]
        assert params_equal(snapshot_params(model_plain), snapshot_params(model_faulty))

    def test_pec_fault_run_differs_but_trains(self, tmp_path):
        plain, model_plain, _ = build_trainer(tmp_path / "p", total=8, interval=2)
        plain.run()
        faulty, model_faulty, _ = build_trainer(
            tmp_path / "f", total=8, interval=2,
            faults=FaultSchedule([FaultEvent(5, (0, 1))]),
        )
        history = faulty.run()
        assert history.final_plt >= 0.0
        # PEC recovery restored stale experts: states differ from faultless
        assert not params_equal(snapshot_params(model_plain), snapshot_params(model_faulty))

    def test_multiple_faults(self, tmp_path):
        trainer, _, _ = build_trainer(
            tmp_path, total=12, interval=2,
            faults=FaultSchedule.periodic(4, 12),
        )
        history = trainer.run()
        assert len(history.fault_iterations) == 2
        assert len(history.recoveries) == 2

    def test_runaway_guard(self, tmp_path):
        trainer, _, _ = build_trainer(tmp_path, total=5, interval=2)
        trainer.config.max_replayed_iterations = 2
        with pytest.raises(RuntimeError):
            trainer.run()


class TestTrainerConfigValidation:
    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            TrainerConfig(total_iterations=0)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
