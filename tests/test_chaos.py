"""Chaos campaign engine: seeded fault injection, recovery, determinism.

The headline test is the ISSUE acceptance criterion: a seeded 1000-run
campaign over the tiered+dedup stack — kills at every registered seam —
completes with zero fsck errors and zero unrecoverable runs,
reproducibly by seed.
"""

from __future__ import annotations

import io
import threading

import numpy as np
import pytest

from repro.chaos import (
    ANY,
    CampaignConfig,
    ChaosFailure,
    ChaosRun,
    DEDUP_SEAMS,
    FaultRecord,
    FaultTrace,
    SeamInjector,
    TIERED_SEAMS,
    repro_command,
    run_campaign,
    run_seed_for,
    seams_for,
    synthetic_trace,
    trace_from_times,
)
from repro.ckpt.backend import CrashInjected
from repro.obs.metrics import MetricsRegistry


class TestSeamInjector:
    def test_counts_every_seam_hit(self):
        injector = SeamInjector()
        injector("a")
        injector("a")
        injector("b")
        assert injector.seen == {"a": 2, "b": 1}

    def test_armed_named_seam_fires_on_nth_hit(self):
        injector = SeamInjector()
        injector.arm("refs:mid-append", nth=2)
        injector("refs:mid-append")
        injector("chunk:durable")  # other seams never decrement
        with pytest.raises(CrashInjected):
            injector("refs:mid-append")
        assert injector.kills == [("refs:mid-append", "refs:mid-append")]
        assert not injector.armed  # one arm = at most one kill

    def test_any_target_fires_on_nth_hit_of_any_seam(self):
        injector = SeamInjector()
        injector.arm(ANY, nth=3)
        injector("a")
        injector("b")
        with pytest.raises(CrashInjected):
            injector("c")
        assert injector.kills == [(ANY, "c")]

    def test_disarm_and_disable(self):
        injector = SeamInjector()
        injector.arm("x")
        injector.disarm()
        injector("x")
        injector.arm("x")
        injector.enabled = False
        injector("x")  # circular-detection path: enabled=False mutes arms
        assert injector.kills == []

    def test_arm_rejects_nonpositive_nth(self):
        with pytest.raises(ValueError):
            SeamInjector().arm("x", nth=0)


class TestSeamRegistry:
    def test_tiered_superset_of_dedup(self):
        assert set(DEDUP_SEAMS) < set(TIERED_SEAMS)

    def test_seams_for_backends(self):
        assert seams_for("dedup") == DEDUP_SEAMS
        assert seams_for("tiered") == TIERED_SEAMS
        assert seams_for("async-tiered") == TIERED_SEAMS
        with pytest.raises(ValueError):
            seams_for("nope")

    def test_run_seed_deterministic_and_distinct(self):
        assert run_seed_for(7, 3) == run_seed_for(7, 3)
        assert run_seed_for(7, 3) != run_seed_for(7, 4)
        assert run_seed_for(7, 3) != run_seed_for(8, 3)


class TestSingleRun:
    def test_targeted_seam_kill_recovers(self, tmp_path):
        run = ChaosRun(
            backend="dedup", campaign_seed=5, runs=1, run_index=0,
            root=str(tmp_path / "r"), target="refs:mid-append",
            registry=MetricsRegistry(),
        )
        result = run.execute()
        assert result.ok
        assert [seam for _, seam in result.kills] == ["refs:mid-append"]
        assert "reopen" in result.recovery_actions

    def test_metrics_count_injected_faults(self, tmp_path):
        registry = MetricsRegistry()
        run = ChaosRun(
            backend="dedup", campaign_seed=5, runs=1, run_index=0,
            root=str(tmp_path / "r"), target="chunk:tmp-written",
            registry=registry,
        )
        run.execute()
        text = registry.render_prometheus()
        assert 'moc_chaos_faults_injected_total{seam="chunk:tmp-written"} 1' in text


class TestCampaign:
    @pytest.mark.parametrize("backend", ["dedup", "tiered", "async-tiered"])
    def test_small_campaign_clean(self, backend):
        seams = seams_for(backend)
        config = CampaignConfig(
            backend=backend, runs=len(seams) + 4, seed=7,
        )
        result = run_campaign(config, registry=MetricsRegistry())
        assert result.ok
        assert result.runs_ok == config.runs
        assert result.kills_total > 0

    def test_seam_coverage_guaranteed_prefix(self):
        """The first len(seams) runs target each seam in order, so every
        registered seam is killed at least once."""
        config = CampaignConfig(backend="tiered", runs=len(TIERED_SEAMS) + 2, seed=3)
        result = run_campaign(config, registry=MetricsRegistry())
        missing = [s for s in TIERED_SEAMS if s not in result.seam_kills]
        assert missing == []

    def test_same_seed_same_digest(self):
        config = CampaignConfig(backend="dedup", runs=10, seed=21)
        a = run_campaign(config, registry=MetricsRegistry())
        b = run_campaign(config, registry=MetricsRegistry())
        assert a.digest() == b.digest()

    def test_different_seed_different_digest(self):
        a = run_campaign(
            CampaignConfig(backend="dedup", runs=10, seed=21),
            registry=MetricsRegistry(),
        )
        b = run_campaign(
            CampaignConfig(backend="dedup", runs=10, seed=22),
            registry=MetricsRegistry(),
        )
        assert a.digest() != b.digest()

    def test_single_run_repro(self):
        """--run-index replays one run of the campaign bit-identically."""
        config = CampaignConfig(backend="dedup", runs=10, seed=21)
        full = run_campaign(config, registry=MetricsRegistry())
        solo = run_campaign(config, registry=MetricsRegistry(), run_index=3)
        assert solo.run_results[0]["kills"] == full.run_results[3]["kills"]
        assert solo.run_results[0]["seed"] == full.run_results[3]["seed"]

    def test_adaptive_decisions_recorded(self):
        config = CampaignConfig(backend="dedup", runs=12, seed=7)
        result = run_campaign(config, registry=MetricsRegistry())
        assert len(result.decisions) == config.runs
        last = result.decisions[-1]
        assert set(last) >= {
            "time", "fault_rate", "checkpoint_interval", "k_persist",
            "persist_tier", "faults_observed",
        }
        # kills happened, so the estimator saw a nonzero rate and the
        # interval came off its ceiling
        assert last["faults_observed"] > 0

    def test_report_roundtrip(self, tmp_path):
        config = CampaignConfig(backend="dedup", runs=6, seed=9)
        result = run_campaign(config, registry=MetricsRegistry())
        path = tmp_path / "report.json"
        result.save(str(path))
        import json

        payload = json.loads(path.read_text())
        assert payload["digest"] == result.digest()
        assert payload["runs_ok"] == config.runs

    def test_trace_export_matches_fault_times(self):
        config = CampaignConfig(backend="dedup", runs=8, seed=7)
        result = run_campaign(config, registry=MetricsRegistry())
        trace = result.trace()
        assert trace.fault_times() == result.fault_times


class TestFailureReporting:
    def test_repro_command_is_copy_pasteable(self):
        cmd = repro_command("tiered", 42, 1000, 17)
        assert "chaos run" in cmd
        assert "--backend tiered" in cmd
        assert "--seed 42" in cmd
        assert "--runs 1000" in cmd
        assert "--run-index 17" in cmd

    def test_chaos_failure_carries_seeds_and_repro(self):
        failure = ChaosFailure(
            "boom", backend="tiered", campaign_seed=42, runs=100,
            run_index=17, run_seed=run_seed_for(42, 17),
        )
        text = str(failure)
        assert "campaign_seed=42" in text
        assert "run_index=17" in text
        assert f"run_seed={run_seed_for(42, 17)}" in text
        assert repro_command("tiered", 42, 100, 17) in text
        assert isinstance(failure, AssertionError)


class TestTraces:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            FaultRecord(time=-1.0)
        with pytest.raises(ValueError):
            FaultRecord(time=0.0, kind="meteor")

    def test_jsonl_roundtrip(self):
        trace = FaultTrace(
            records=[
                FaultRecord(time=1.0, node=3, kind="crash"),
                FaultRecord(time=2.5, node=0, kind="straggler", duration=4.0),
            ],
            horizon=10.0,
            nodes=4,
        )
        buffer = io.StringIO()
        trace.to_jsonl(buffer)
        buffer.seek(0)
        back = FaultTrace.from_jsonl(buffer)
        assert back.horizon == trace.horizon
        assert back.nodes == trace.nodes
        assert [r.as_dict() for r in back] == [r.as_dict() for r in trace]

    def test_fault_times_filters_stragglers(self):
        trace = FaultTrace(
            records=[
                FaultRecord(time=1.0, kind="crash"),
                FaultRecord(time=2.0, kind="straggler", duration=1.0),
                FaultRecord(time=3.0, kind="preemption"),
            ],
        )
        assert trace.fault_times() == [1.0, 3.0]
        assert trace.fault_times(kinds=["straggler"]) == [2.0]

    def test_scaled_multiplies_rate_and_keeps_horizon(self):
        base = synthetic_trace("crash", nodes=8, horizon=500.0,
                               rate_per_node=0.01, seed=1)
        scaled = base.scaled(1024, seed=2)
        assert scaled.nodes == 1024
        assert scaled.horizon == base.horizon
        ratio = scaled.rate / base.rate
        assert ratio == pytest.approx(1024 / 8, rel=0.05)
        assert max(r.node for r in scaled) < 1024

    def test_scaled_rejects_scale_down(self):
        base = synthetic_trace("crash", nodes=8, horizon=100.0,
                               rate_per_node=0.05, seed=1)
        with pytest.raises(ValueError):
            base.scaled(4)

    def test_synthetic_kinds_and_rates(self):
        horizon, nodes, rate = 2000.0, 64, 0.005
        for kind in ("crash", "preemption"):
            trace = synthetic_trace(kind, nodes=nodes, horizon=horizon,
                                    rate_per_node=rate, seed=5)
            assert trace.rate == pytest.approx(rate * nodes, rel=0.25)
        stragglers = synthetic_trace("straggler", nodes=4, horizon=100.0,
                                     rate_per_node=0.1, seed=5)
        assert all(r.duration > 0 for r in stragglers)
        assert stragglers.fault_times() == []  # not node-killing

    def test_preemption_is_bursty(self):
        """Preemptions land in tight bursts: inter-arrival dispersion far
        above the Poisson baseline of the crash shape."""
        crash = synthetic_trace("crash", nodes=64, horizon=3000.0,
                                rate_per_node=0.004, seed=9)
        preempt = synthetic_trace("preemption", nodes=64, horizon=3000.0,
                                  rate_per_node=0.004, seed=9, burst_size=8)
        def dispersion(trace):
            times = np.array(trace.fault_times())
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))
        assert dispersion(preempt) > dispersion(crash)

    def test_trace_from_times(self):
        trace = trace_from_times([3.0, 1.0, 2.0], horizon=5.0)
        assert trace.fault_times() == [1.0, 2.0, 3.0]
        assert trace.nodes == 1

    def test_synthetic_deterministic_by_seed(self):
        a = synthetic_trace("preemption", nodes=32, horizon=1000.0,
                            rate_per_node=0.01, seed=4)
        b = synthetic_trace("preemption", nodes=32, horizon=1000.0,
                            rate_per_node=0.01, seed=4)
        assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


@pytest.mark.slow
class TestHeadlineCampaign:
    """The ISSUE acceptance criterion, verbatim."""

    def test_thousand_run_tiered_campaign_fsck_clean(self):
        # Rates chosen so both Young-Daly intervals sit strictly inside
        # the controller's [1, 200] clamp: the step must visibly move
        # the knob, not saturate it.
        config = CampaignConfig(
            backend="tiered", runs=1000, seed=1337,
            base_rate=0.15, step_rate=1.5, o_save=2.0,
        )
        result = run_campaign(config, registry=MetricsRegistry())
        assert result.ok, "campaign had unrecoverable runs"
        assert result.runs_failed == 0
        assert result.runs_ok == 1000
        # kills at every registered seam
        missing = [s for s in TIERED_SEAMS if s not in result.seam_kills]
        assert missing == [], f"seams never killed: {missing}"
        assert result.kills_total > 100
        # the online loop reacted to the step change: the post-step
        # interval dropped below the pre-step interval
        pre = [d["checkpoint_interval"] for d in result.decisions[300:500]]
        post = [d["checkpoint_interval"] for d in result.decisions[700:]]
        assert np.mean(post) < np.mean(pre)
