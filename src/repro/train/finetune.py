"""Fine-tuning harness for the Table 4 experiment.

Fine-tunes a pre-trained MoE LM on a shifted-domain corpus under four
regimes:

* ``BASE``     — no fine-tuning (the pre-trained model as-is);
* ``FT_WO_E``  — fine-tune with all expert parameters frozen;
* ``FT_FULL``  — fine-tune with full-state checkpointing and a midpoint
                 fault;
* ``FT_PEC``   — fine-tune with PEC (1/8 of experts per checkpoint) and
                 the same midpoint fault.

The paper's finding — PEC matches full-saving accuracy, and even frozen
experts lose little — rests on expert parameters tolerating missing
updates; the same comparison is reproduced here on the synthetic stack.
"""

from __future__ import annotations

import copy
import enum
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..ckpt.backend import make_backend
from ..core.config import MoCConfig, PECConfig, TwoLevelConfig
from ..core.manager import MoCCheckpointManager
from ..models.optim import Adam
from ..models.serial import classify_parameters
from .data import MarkovCorpus
from .faults import FaultSchedule
from .trainer import Trainer, TrainerConfig


class FinetuneVariant(str, enum.Enum):
    BASE = "Base"
    FT_WO_E = "FT-w.o.E"
    FT_FULL = "FT-Full"
    FT_PEC = "FT-PEC"


@dataclass
class FinetuneResult:
    variant: FinetuneVariant
    model: object
    history: Optional[object]


def clone_model_state(source_model, target_model) -> None:
    """Copy parameter values between identically-shaped models."""
    source = dict(source_model.named_parameters())
    for name, param in target_model.named_parameters():
        param.data = source[name].data.copy()


def run_finetune(
    pretrained_model,
    model_factory,
    corpus: MarkovCorpus,
    variant: FinetuneVariant,
    iterations: int = 60,
    batch_size: int = 4,
    lr: float = 5e-4,
    checkpoint_interval: int = 10,
    k_pec_fraction: int = 8,
) -> FinetuneResult:
    """Fine-tune a copy of ``pretrained_model`` under ``variant``.

    ``model_factory`` builds a fresh model of the same architecture (the
    copy target).  ``k_pec_fraction`` = 8 saves 1/8 of the experts per
    checkpoint, matching the paper's OLMoE setting.
    """
    if variant is FinetuneVariant.BASE:
        return FinetuneResult(variant=variant, model=pretrained_model, history=None)

    model = model_factory()
    clone_model_state(pretrained_model, model)
    config = TrainerConfig(total_iterations=iterations, batch_size=batch_size)

    if variant is FinetuneVariant.FT_WO_E:
        classes = classify_parameters(model)
        trainable = [
            (name, param)
            for name, param in model.named_parameters()
            if not classes[name].is_expert
        ]
        optimizer = Adam(trainable, lr=lr)
        trainer = Trainer(model, optimizer, corpus, config)
        history = trainer.run()
        return FinetuneResult(variant=variant, model=model, history=history)

    optimizer = Adam(model.named_parameters(), lr=lr)
    num_experts = model.moe_layers()[0].num_experts
    if variant is FinetuneVariant.FT_FULL:
        moc = MoCConfig.baseline(num_experts, checkpoint_interval=checkpoint_interval)
    elif variant is FinetuneVariant.FT_PEC:
        k = max(1, num_experts // k_pec_fraction)
        moc = MoCConfig(
            pec=PECConfig(k_snapshot=k, k_persist=k),
            two_level=TwoLevelConfig(checkpoint_interval=checkpoint_interval),
        )
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unhandled variant {variant!r}")

    with tempfile.TemporaryDirectory() as disk_root:
        manager = MoCCheckpointManager(
            model, optimizer, moc, disk_store=make_backend("sharded", disk_root)
        )
        trainer = Trainer(
            model,
            optimizer,
            corpus,
            config,
            manager=manager,
            fault_schedule=FaultSchedule.midpoint(iterations),
        )
        history = trainer.run()
    return FinetuneResult(variant=variant, model=model, history=history)
