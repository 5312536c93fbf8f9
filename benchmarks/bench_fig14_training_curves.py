"""Figure 14: training quality under periodic faults.

(a) GPT-MoE pre-training loss curves with faults every E iterations,
    comparing Baseline (full saving) against PEC on weights ("W"),
    optimizer states ("O"), both ("WO") and both with two-level recovery
    ("WO-2L") — all should track the baseline closely.
(b) The vision-classifier stand-in (SwinV2-MoE's role): baseline vs
    PEC-sequential vs PEC-load-aware test accuracy under faults — the
    paper reports <0.0012 accuracy spread after training.
"""

from __future__ import annotations

import numpy as np

from repro.testing import once
from repro.analysis import Series, render_series, render_table
from repro.ckpt import make_backend
from repro.core import (
    MoCConfig,
    MoCCheckpointManager,
    PECConfig,
    SelectionStrategy,
    TwoLevelConfig,
)
from repro.models import Adam, MoEClassifier, MoEClassifierConfig
from repro.train import FaultEvent, FaultSchedule, Trainer, TrainerConfig, make_vision_dataset
from _workloads import NUM_EXPERTS, pretrain

TOTAL = 90
FAULT_EVERY = 30

LM_VARIANTS = {
    "Baseline": dict(pec=None),
    "W": dict(
        pec=PECConfig(k_snapshot=4, k_persist=1, apply_to_moments=False)
    ),
    "O": dict(
        pec=PECConfig(k_snapshot=4, k_persist=1, apply_to_weights=False)
    ),
    "WO": dict(pec=PECConfig(k_snapshot=4, k_persist=1)),
    "WO-2L": dict(pec=PECConfig(k_snapshot=4, k_persist=1), two_level=True),
}


def run_lm_variants(tmp_root):
    results = {}
    for name, options in LM_VARIANTS.items():
        results[name] = pretrain(
            str(tmp_root / name.replace("-", "_")),
            total_iterations=TOTAL,
            checkpoint_interval=10,
            pec=options.get("pec"),
            fault_iterations=tuple(range(FAULT_EVERY, TOTAL, FAULT_EVERY)),
            two_level_recovery=options.get("two_level", False),
            failed_nodes=(0,),
        )
    return results


def run_vision_variants():
    data = make_vision_dataset(num_classes=4, input_dim=12, train_per_class=40,
                               test_per_class=24, seed=11)
    total, interval = 80, 8
    faults = (10, 40, 70)
    accuracy_curves = {}
    finals = {}
    for label, strategy in (
        ("Baseline", None),
        ("Sequential", SelectionStrategy.SEQUENTIAL),
        ("Load-aware", SelectionStrategy.LOAD_AWARE),
    ):
        config = MoEClassifierConfig(
            input_dim=12, dim=24, num_classes=4, num_blocks=2,
            num_experts=NUM_EXPERTS, top_k=2, seed=2,
        )
        model = MoEClassifier(config)
        optimizer = Adam(model.named_parameters(), lr=3e-3)
        if strategy is None:
            pec = PECConfig.full(NUM_EXPERTS)
        else:
            pec = PECConfig(k_snapshot=1, k_persist=1, selection=strategy)
        import tempfile

        with tempfile.TemporaryDirectory() as disk:
            manager = MoCCheckpointManager(
                model, optimizer,
                MoCConfig(pec=pec, two_level=TwoLevelConfig(checkpoint_interval=interval)),
                disk_store=make_backend("sharded", disk),
            )
            curve = Series(label)
            trainer = Trainer(
                model, optimizer, data,
                TrainerConfig(total_iterations=total, batch_size=16),
                manager=manager,
                fault_schedule=FaultSchedule([FaultEvent(f) for f in faults]),
            )
            history = trainer.run()
            # accuracy checkpoints every 20 iterations, replayed from history
            # (re-evaluate at the end; intermediate points from a fresh pass)
            finals[label] = model.accuracy(data.test_x, data.test_y)
            for it in sorted(history.train_losses)[::20]:
                curve.append(it, history.train_losses[it])
            accuracy_curves[label] = curve
    return finals, accuracy_curves


def test_fig14a_loss_curves(benchmark, report, tmp_path):
    results = once(benchmark, lambda: run_lm_variants(tmp_path))
    baseline_loss = results["Baseline"].final_val_loss
    rows = [
        (name, result.final_val_loss, result.final_val_loss - baseline_loss,
         100 * result.plt, len(result.history.fault_iterations))
        for name, result in results.items()
    ]
    curves = []
    for name, result in results.items():
        series = Series(name)
        for iteration in sorted(result.history.train_losses)[::10]:
            series.append(iteration, result.history.train_losses[iteration])
        curves.append(series)
    report(
        "fig14a_loss_curves",
        render_table(
            ["method", "final val loss", "delta vs baseline", "PLT %", "faults"],
            rows, precision=4,
        )
        + "\n\n" + render_series("train-loss curves (sampled)", curves, precision=3),
    )
    for name, result in results.items():
        assert len(result.history.fault_iterations) == 2, name
        # all PEC variants track the baseline loss closely (paper Fig 14a)
        assert abs(result.final_val_loss - baseline_loss) < 0.06, name
    # two-level recovery reduces PLT vs storage-only WO
    assert results["WO-2L"].plt <= results["WO"].plt + 1e-9


def test_fig14b_vision_selection_strategies(benchmark, report):
    finals, curves = once(benchmark, run_vision_variants)
    rows = [(label, 100 * acc) for label, acc in finals.items()]
    report(
        "fig14b_vision",
        render_table(["method", "final test acc %"], rows, precision=2)
        + "\n\n" + render_series("train-loss curves (sampled)", list(curves.values())),
    )
    accs = list(finals.values())
    # all methods land within a few points of each other and all learn
    assert max(accs) - min(accs) < 0.12
    assert min(accs) > 0.5
