"""Ablations beyond the paper's headline results.

1. **Selection strategy PLT** — sequential vs load-aware under skewed
   routing: load-aware should never lose more tokens (it checkpoints the
   hottest experts first), quantifying the accuracy-vs-control trade-off
   Section 3.2 discusses qualitatively.
2. **Buffer-count ablation** — double vs triple vs quadruple buffering:
   deferral counts and achieved checkpoint interval under a slow persist
   (motivating the triple-buffer choice of Section 5.2).
3. **Sharding-policy ladder under PEC** — bottleneck bytes per policy at
   every K, showing where adaptive sharding's advantage (Eq. 9 imbalance)
   appears and disappears.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import once
from repro.analysis import render_table
from repro.core import (
    PECConfig,
    PECPlanner,
    PERSIST_TIER,
    PLTTracker,
    SelectionStrategy,
    ShardingPolicy,
    pec_imbalance_condition,
)
from repro.distsim import GB, case3, checkpoint_cost, pec_plan_for
from repro.distsim import TimelineConfig, simulate_timeline
from _workloads import NUM_EXPERTS


def compute_selection_ablation():
    """Skewed routing: expert e's rate ~ 2^-e."""
    layers = 2
    rng = np.random.default_rng(0)
    rates = np.array([2.0 ** (-e) for e in range(NUM_EXPERTS)])
    rates = rates / rates.sum() * 800
    results = {}
    for strategy in (SelectionStrategy.SEQUENTIAL, SelectionStrategy.LOAD_AWARE):
        tracker = PLTTracker(layers, NUM_EXPERTS, top_k=1)
        planner = PECPlanner(
            PECConfig(k_snapshot=1, k_persist=1, selection=strategy),
            layers, NUM_EXPERTS,
        )
        from repro.models.serial import ExpertKey

        tracker.record_save(
            PERSIST_TIER,
            [ExpertKey(l, e) for l in range(layers) for e in range(NUM_EXPERTS)],
        )
        for checkpoint in range(64):
            counts = rng.poisson(rates)
            tracker.record_batch([counts for _ in range(layers)])
            loads = tracker.unsaved_tokens(PERSIST_TIER)
            plan = planner.plan(checkpoint, unsaved_tokens=loads)
            tracker.record_save(PERSIST_TIER, plan.persist_experts)
            if (checkpoint + 1) % 16 == 0:
                tracker.record_fault(default_tier=PERSIST_TIER)
        results[strategy.value] = tracker.plt()
    return results


def test_ablation_selection_strategy(benchmark, report):
    results = once(benchmark, compute_selection_ablation)
    report(
        "ablation_selection",
        render_table(
            ["strategy", "PLT % (skewed routing)"],
            [(name, 100 * plt) for name, plt in results.items()],
            precision=3,
        ),
    )
    # load-aware prioritises hot experts => lower or equal PLT
    assert results["load_aware"] <= results["sequential"] + 1e-9


def compute_buffer_ablation():
    rows = []
    for buffers in (2, 3, 4):
        result = simulate_timeline(
            TimelineConfig(
                t_fb=2.0, t_update=0.2, t_snapshot=1.0, t_persist=7.0,
                num_iterations=60, checkpoint_interval=1, mode="async",
                num_buffers=buffers,
            )
        )
        rows.append(
            (buffers, result.deferred_attempts, result.achieved_interval,
             result.checkpoints_persisted)
        )
    return rows


def test_ablation_buffer_count(benchmark, report):
    rows = once(benchmark, compute_buffer_ablation)
    report(
        "ablation_buffers",
        render_table(
            ["buffers", "deferred attempts", "achieved I_ckpt", "persisted"],
            rows, precision=2,
        ),
    )
    deferred = [row[1] for row in rows]
    assert deferred == sorted(deferred, reverse=True)
    # the persist phase is the structural bottleneck: extra buffers cannot
    # push the sustained interval below t_persist / iteration_time
    for _, _, interval, _ in rows:
        assert interval >= 7.0 / 2.2 - 1.0


def compute_sharding_ladder():
    deployment = case3()
    rows = []
    for k in (1, 2, 4, 8, 16):
        plan = pec_plan_for(deployment.spec, k)
        entry = [f"K={k}"]
        for policy in (ShardingPolicy.BASELINE, ShardingPolicy.EE,
                       ShardingPolicy.EE_EN, ShardingPolicy.EE_AN):
            cost = checkpoint_cost(
                deployment.spec, deployment.topology, deployment.cluster,
                policy, pec_plan=plan,
            )
            entry.append(cost.bottleneck_rank_bytes / GB)
        imbalanced = pec_imbalance_condition(
            k, deployment.spec.num_moe_layers,
            deployment.parallel.d_ep, deployment.parallel.d_dp,
        )
        entry.append("yes" if imbalanced else "no")
        rows.append(tuple(entry))
    return rows


def test_ablation_sharding_ladder(benchmark, report):
    rows = once(benchmark, compute_sharding_ladder)
    report(
        "ablation_sharding",
        render_table(
            ["K_pec", "Baseline GB", "EE GB", "EE+EN GB", "EE+AN GB", "Eq.9 imbalance"],
            rows, precision=3,
        ),
    )
    for row in rows:
        baseline, ee, en, an = row[1], row[2], row[3], row[4]
        assert an <= en + 1e-9
        assert en <= baseline + 1e-9
    # adaptive sharding's strict advantage appears in the PEC regime
    pec_rows = [row for row in rows if row[0] != "K=16"]
    assert any(row[4] < row[3] - 1e-6 for row in pec_rows)


def compute_compression_ablation():
    """Codec x PEC: byte ratio of each combination vs the plain full save."""
    import tempfile

    from repro.ckpt import PrecisionCodec, make_backend
    from repro.core import MoCConfig, MoCCheckpointManager, TwoLevelConfig
    from repro.models import Adam
    from _workloads import make_corpus, make_lm

    rows = []
    baseline_bytes = None
    for pec_label, pec in (
        ("full", PECConfig.full(NUM_EXPERTS)),
        ("K=1", PECConfig(k_snapshot=1, k_persist=1)),
    ):
        for codec_label, codec in (("fp64", None), ("fp16/32", PrecisionCodec())):
            model = make_lm()
            optimizer = Adam(model.named_parameters(), lr=3e-3)
            corpus = make_corpus(3)
            with tempfile.TemporaryDirectory() as disk:
                manager = MoCCheckpointManager(
                    model, optimizer,
                    MoCConfig(pec=pec, two_level=TwoLevelConfig(checkpoint_interval=4)),
                    disk_store=make_backend("sharded", disk), codec=codec,
                )
                manager.save_initial(0)
                for iteration in range(1, 5):
                    tokens, targets = corpus.batch(iteration, 2)
                    model.set_routing_step(iteration)
                    optimizer.zero_grad()
                    model.loss(tokens, targets).backward()
                    optimizer.step()
                    manager.note_model_routing()
                manifest = manager.checkpoint(4)
                nbytes = manifest.persist_bytes()
            if baseline_bytes is None:
                baseline_bytes = nbytes
            rows.append((pec_label, codec_label, nbytes, nbytes / baseline_bytes))
    return rows


def test_ablation_checkpoint_compression(benchmark, report):
    """Precision codecs compose multiplicatively with PEC: together they
    cut persisted bytes well below either alone."""
    rows = once(benchmark, compute_compression_ablation)
    report(
        "ablation_compression",
        render_table(
            ["PEC", "codec", "persist bytes", "ratio vs plain full"],
            rows, precision=3,
        ),
    )
    ratios = {(pec, codec): ratio for pec, codec, _, ratio in rows}
    assert ratios[("full", "fp16/32")] < 0.6
    assert ratios[("K=1", "fp64")] < 0.6
    combined = ratios[("K=1", "fp16/32")]
    assert combined < ratios[("full", "fp16/32")]
    assert combined < ratios[("K=1", "fp64")]
    assert combined < 0.3
