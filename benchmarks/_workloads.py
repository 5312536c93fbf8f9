"""Shared training workloads for the accuracy-side benches.

The accuracy experiments (Figures 5, 14, 15 and Tables 3, 4) run real
gradient descent on a scaled-down GPT-MoE: 8 experts like GPT-125M-8E,
but sized so a full training run takes ~1 second.  Everything is
deterministic given the seed, so bench output is stable run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ckpt import make_backend
from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
from repro.models import Adam, MoEModelConfig, MoETransformerLM
from repro.train import (
    FaultSchedule,
    MarkovCorpus,
    Trainer,
    TrainerConfig,
    lm_validation_loss,
)

VOCAB = 48
SEQ_LEN = 20
NUM_EXPERTS = 8

LM_CONFIG = MoEModelConfig(
    vocab_size=VOCAB,
    max_seq_len=SEQ_LEN,
    dim=24,
    num_layers=2,
    num_heads=2,
    num_experts=NUM_EXPERTS,
    top_k=2,
    seed=1,
)


def make_corpus(seed: int = 3) -> MarkovCorpus:
    return MarkovCorpus(
        vocab_size=VOCAB, num_domains=4, seq_len=SEQ_LEN, seed=seed
    )


def make_lm() -> MoETransformerLM:
    return MoETransformerLM(LM_CONFIG)


@dataclass
class PretrainResult:
    model: MoETransformerLM
    history: object
    final_val_loss: float

    @property
    def plt(self) -> float:
        return self.history.final_plt


def pretrain(
    tmp_dir: str,
    total_iterations: int = 96,
    checkpoint_interval: int = 8,
    pec: Optional[PECConfig] = None,
    fault_iterations: Sequence[int] = (),
    two_level_recovery: bool = True,
    failed_nodes: Sequence[int] = (0,),
    lr: float = 3e-3,
    batch_size: int = 4,
    corpus_seed: int = 3,
) -> PretrainResult:
    """One pre-training run under a checkpointing configuration."""
    corpus = make_corpus(corpus_seed)
    model = make_lm()
    optimizer = Adam(model.named_parameters(), lr=lr)
    moc = MoCConfig(
        pec=pec if pec is not None else PECConfig.full(NUM_EXPERTS),
        two_level=TwoLevelConfig(
            checkpoint_interval=checkpoint_interval,
            two_level_recovery=two_level_recovery,
        ),
    )
    manager = MoCCheckpointManager(
        model, optimizer, moc, disk_store=make_backend("sharded", tmp_dir)
    )
    from repro.train.faults import FaultEvent

    schedule = FaultSchedule(
        [FaultEvent(iteration, tuple(failed_nodes)) for iteration in fault_iterations]
    )
    val = corpus.validation_set(3, 4)
    trainer = Trainer(
        model,
        optimizer,
        corpus,
        TrainerConfig(total_iterations=total_iterations, batch_size=batch_size),
        manager=manager,
        fault_schedule=schedule,
        val_fn=lambda: lm_validation_loss(model, val),
    )
    history = trainer.run()
    return PretrainResult(
        model=model, history=history, final_val_loss=history.final_val_loss
    )
