"""Quickstart: PEC checkpointing and fault recovery in ~60 lines.

Trains a small MoE language model with the MoC-System checkpoint manager
(PEC with K_snapshot=2 / K_persist=1, two-level recovery), kills "node 0"
mid-training, recovers, and reports the Proportion of Lost Tokens.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

from repro import (
    Adam,
    FaultSchedule,
    MarkovCorpus,
    MoCCheckpointManager,
    MoCConfig,
    MoEModelConfig,
    MoETransformerLM,
    PECConfig,
    Trainer,
    TrainerConfig,
    TwoLevelConfig,
)
from repro.ckpt import make_backend
from repro.train import lm_validation_loss


def main() -> None:
    # 1. A small MoE transformer: 2 layers, the second carries 8 experts.
    model_config = MoEModelConfig(
        vocab_size=48, max_seq_len=20, dim=24,
        num_layers=2, num_heads=2, num_experts=8, top_k=2, seed=1,
    )
    model = MoETransformerLM(model_config)
    optimizer = Adam(model.named_parameters(), lr=3e-3)
    corpus = MarkovCorpus(vocab_size=48, num_domains=4, seq_len=20, seed=3)

    # 2. MoC-System: snapshot 2 experts per layer to CPU memory each
    #    checkpoint, persist 1 of them to storage, recover surviving
    #    nodes' experts from memory (two-level recovery).
    moc_config = MoCConfig(
        pec=PECConfig(k_snapshot=2, k_persist=1),
        two_level=TwoLevelConfig(checkpoint_interval=8, two_level_recovery=True),
    )

    with tempfile.TemporaryDirectory() as storage:
        manager = MoCCheckpointManager(
            model, optimizer, moc_config, disk_store=make_backend("sharded", storage)
        )
        validation = corpus.validation_set(3, 4)
        trainer = Trainer(
            model,
            optimizer,
            corpus,
            TrainerConfig(total_iterations=80, batch_size=4),
            manager=manager,
            fault_schedule=FaultSchedule.midpoint(80),  # node 0 dies at iter 40
            val_fn=lambda: lm_validation_loss(model, validation),
        )
        history = trainer.run()

    print(f"iterations executed (incl. replay): {history.executed_iterations}")
    print(f"fault struck at iteration:          {history.fault_iterations[0]}")
    recovery = history.recoveries[0]
    print(f"resumed from checkpoint iteration:  {recovery.resume_iteration}")
    memory_tier = sum(
        1 for tier in recovery.plan.tier_per_expert.values() if tier == "snapshot"
    )
    print(f"experts recovered from CPU memory:  {memory_tier}"
          f" / {len(recovery.plan.tier_per_expert)}")
    print(f"proportion of lost tokens (PLT):    {100 * history.final_plt:.2f}%")
    print(f"final validation loss:              {history.final_val_loss:.4f}")
    print(f"persisted checkpoint bytes:         {manager.disk_store.total_bytes():,}")


if __name__ == "__main__":
    main()
