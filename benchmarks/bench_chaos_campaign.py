"""Chaos campaign throughput and the online adaptive loop's step response.

A fleet-scale robustness harness is only usable if each randomized run
is cheap: this bench measures campaign throughput (runs/second of the
full build-kill-recover-verify cycle) per backend, checks that a short
campaign still reaches full seam coverage, and quantifies how far the
online controller moves the checkpoint interval across a mid-campaign
fault-rate step.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import render_table
from repro.chaos import CampaignConfig, run_campaign, seams_for
from repro.obs.metrics import MetricsRegistry
from repro.testing import once

RUNS = 60
SEED = 2025
BASE_RATE = 0.15
STEP_RATE = 1.5
O_SAVE = 2.0


def compute_campaigns():
    rows = []
    step_response = {}
    for backend in ("dedup", "tiered", "async-tiered"):
        config = CampaignConfig(
            backend=backend,
            runs=RUNS,
            seed=SEED,
            base_rate=BASE_RATE,
            step_rate=STEP_RATE,
            o_save=O_SAVE,
        )
        started = time.perf_counter()
        result = run_campaign(config, registry=MetricsRegistry())
        elapsed = time.perf_counter() - started
        seams = seams_for(backend)
        covered = sum(1 for seam in seams if seam in result.seam_kills)
        rows.append((
            backend,
            result.runs_ok,
            result.kills_total,
            f"{covered}/{len(seams)}",
            result.escalations,
            RUNS / elapsed,
        ))
        pre = [d["checkpoint_interval"] for d in result.decisions[: RUNS // 2]]
        post = [d["checkpoint_interval"] for d in result.decisions[RUNS // 2 :]]
        step_response[backend] = (float(np.mean(pre)), float(np.mean(post)))
    return rows, step_response


def test_chaos_campaign(benchmark, report):
    rows, step_response = once(benchmark, compute_campaigns)
    pre, post = step_response["tiered"]
    report(
        "chaos_campaign",
        f"{RUNS} seeded runs/backend, kill rate {BASE_RATE}->{STEP_RATE} "
        f"mid-campaign, o_save={O_SAVE}\n"
        + render_table(
            ["backend", "ok", "kills", "seams", "escalations", "runs/s"],
            rows,
            precision=1,
        )
        + f"\nadaptive interval (tiered): pre-step {pre:.1f} -> post-step {post:.1f}",
    )
    for backend, ok, kills, seams, _escalations, runs_per_s in rows:
        assert ok == RUNS, f"{backend}: unrecoverable runs"
        assert kills > 0, f"{backend}: campaign injected nothing"
        covered, total = seams.split("/")
        assert covered == total, f"{backend}: seam coverage incomplete"
        # the harness must stay usable at fleet scale: a thousand-run
        # campaign should finish in minutes, not hours
        assert runs_per_s > 2.0, f"{backend}: {runs_per_s:.1f} runs/s too slow"
    # the step change visibly tightened the checkpoint cadence
    assert post < pre
