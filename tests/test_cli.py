"""CLI smoke tests: every subcommand runs and prints sensible output."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestEntryPoint:
    """The ``moc-repro`` console script (declared in setup.py)."""

    def test_setup_declares_console_script(self):
        import repro.cli

        setup_py = os.path.join(
            os.path.dirname(repro.cli.__file__), "..", "..", "setup.py"
        )
        with open(setup_py, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert "moc-repro = repro.cli:main" in text
        # the declared target resolves to a callable
        assert callable(repro.cli.main)

    def test_cli_module_entry_point_subprocess(self):
        """Invoke the CLI the way the installed script does — a fresh
        interpreter through the ``main`` entry point."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; sys.exit(main(['--version']))"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0
        assert "moc-repro" in result.stdout


class TestSize:
    def test_default_model(self, capsys):
        assert main(["size"]) == 0
        out = capsys.readouterr().out
        assert "GPT-350M-16E" in out
        assert "K_pec" in out
        assert "42." in out  # the 42.x% K=1 row

    def test_llama_moe(self, capsys):
        assert main(["size", "--model", "llama-moe", "--experts", "32"]) == 0
        assert "LLaMA-MoE-32E" in capsys.readouterr().out

    def test_gpt_125m(self, capsys):
        assert main(["size", "--model", "gpt-125m-8e"]) == 0
        assert "GPT-125M-8E" in capsys.readouterr().out


class TestPlan:
    def test_plan_runs(self, capsys):
        assert main(["plan", "--gpus", "16", "--mtbf-hours", "4"]) == 0
        out = capsys.readouterr().out
        assert "K_snapshot" in out
        assert "recommended I_ckpt" in out

    def test_h100(self, capsys):
        assert main(["plan", "--gpus", "16", "--gpu", "h100"]) == 0
        assert "H100" in capsys.readouterr().out


class TestSimulate:
    def test_both_modes_reported(self, capsys):
        assert main(["simulate", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "blocking" in out and "async" in out

    def test_async_beats_blocking_in_output(self, capsys):
        main(["simulate", "--snapshot", "5", "--persist", "5", "--iterations", "20"])
        out = capsys.readouterr().out.splitlines()
        table = [line for line in out if line.strip().startswith(("blocking", "async"))]
        blocking_total = float(table[0].split()[1])
        async_total = float(table[1].split()[1])
        assert async_total < blocking_total


class TestDemo:
    def test_demo_runs_with_fault(self, capsys):
        assert main(["demo", "--iterations", "12", "--interval", "4"]) == 0
        out = capsys.readouterr().out
        assert "fault at" in out
        assert "PLT %" in out

    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    def test_demo_backend_choices(self, capsys, backend):
        assert main(
            ["demo", "--iterations", "8", "--interval", "4", "--backend", backend]
        ) == 0
        assert backend in capsys.readouterr().out

    def test_demo_dedup_backend_reports_chunk_stats(self, capsys):
        assert main(
            ["demo", "--iterations", "8", "--interval", "4", "--backend", "dedup"]
        ) == 0
        out = capsys.readouterr().out
        assert "dedup ratio" in out
        assert "fsck errors: 0" in out
        assert "gc reclaimed" in out

    def test_demo_async_writes(self, capsys):
        assert main(
            ["demo", "--iterations", "8", "--interval", "4",
             "--backend", "sharded", "--async-writes"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded (async)" in out

    @pytest.mark.parametrize("backend", ["tape", "disk"])
    def test_demo_rejects_unknown_backend(self, backend):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--backend", backend])

    def test_demo_parallel_codec_dedup(self, capsys):
        assert main(
            ["demo", "--iterations", "8", "--interval", "4",
             "--backend", "dedup", "--codec", "zlib",
             "--parallel-workers", "1", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "chunk codec" in out
        assert "zlib" in out
        assert "compression ratio" in out

    def test_demo_codec_requires_dedup_backend(self, capsys):
        assert main(
            ["demo", "--iterations", "4", "--interval", "2",
             "--backend", "sharded", "--codec", "zlib"]
        ) == 2
        assert "dedup" in capsys.readouterr().err

    def test_demo_parallel_workers_require_dedup_backend(self, capsys):
        assert main(
            ["demo", "--iterations", "4", "--interval", "2",
             "--backend", "sharded", "--parallel-workers", "2"]
        ) == 2
        assert "dedup" in capsys.readouterr().err

    def test_demo_remote_options_require_tiered_backend(self, capsys):
        assert main(
            ["demo", "--iterations", "4", "--interval", "2",
             "--backend", "sharded", "--remote-fault-rate", "0.2"]
        ) == 2
        assert "tiered" in capsys.readouterr().err


def seeded_dedup_root(tmp_path) -> str:
    from repro.ckpt import DedupBackend

    root = str(tmp_path / "store")
    store = DedupBackend(root)
    store.put("a", {"x": np.ones(500)}, stamp=1)
    store.put("a", {"x": np.zeros(500)}, stamp=2)  # supersede: gc fodder
    store.put("b", {"x": np.zeros(500)}, stamp=2)
    return root


class TestGc:
    def test_gc_reclaims_and_reports(self, capsys, tmp_path):
        root = seeded_dedup_root(tmp_path)
        assert main(["gc", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "reclaimed chunks" in out
        assert "live bytes" in out

    def test_gc_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gc"])

    def test_gc_rejects_nonexistent_store(self, capsys, tmp_path):
        missing = str(tmp_path / "no-such-run")
        assert main(["gc", "--root", missing]) == 2
        assert "not a dedup or tiered checkpoint directory" in capsys.readouterr().err
        # the typo'd path was not silently created
        assert not os.path.exists(missing)


class TestFsck:
    def test_clean_store_exits_zero(self, capsys, tmp_path):
        root = seeded_dedup_root(tmp_path)
        assert main(["fsck", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "status: clean" in out

    def test_corruption_exits_nonzero(self, capsys, tmp_path):
        from repro.ckpt import DedupBackend

        root = seeded_dedup_root(tmp_path)
        store = DedupBackend(root)
        victim = store.chunks._path(store.chunks_of("b")[0])
        with open(victim, "r+b") as handle:
            handle.seek(1)
            handle.write(b"\x00\xff")
        assert main(["fsck", "--root", root]) == 1
        out = capsys.readouterr().out
        assert "ERRORS" in out
        assert "corrupt chunk" in out

    def test_fsck_rejects_nonexistent_store(self, capsys, tmp_path):
        """A typo'd --root must not be reported as a clean store."""
        missing = str(tmp_path / "no-such-run")
        assert main(["fsck", "--root", missing]) == 2
        assert "not a dedup or tiered checkpoint directory" in capsys.readouterr().err
        assert not os.path.exists(missing)

    def test_repair_clears_refcount_drift(self, capsys, tmp_path):
        from repro.ckpt import DedupBackend

        root = seeded_dedup_root(tmp_path)
        store = DedupBackend(root)
        store.chunks.apply_refs({store.chunks_of("b")[0]: 2}, {})  # leak
        assert main(["fsck", "--root", root]) == 0
        assert "refcount leaks (warning): 1" in capsys.readouterr().out
        assert main(["fsck", "--root", root, "--repair"]) == 0
        assert "repaired: True" in capsys.readouterr().out
        assert main(["fsck", "--root", root]) == 0
        assert "refcount leaks (warning): 0" in capsys.readouterr().out


class TestTraceAndStats:
    def test_demo_trace_and_metrics_dump(self, capsys, tmp_path):
        trace_path = str(tmp_path / "demo.json")
        assert main(
            ["demo", "--iterations", "8", "--interval", "4",
             "--backend", "tiered", "--remote-fault-rate", "0.2",
             "--upload-workers", "2",
             "--trace", trace_path, "--metrics-dump"]
        ) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "moc_tier_uploads_completed_total" in out
        assert "moc_save_seconds_count" in out

        from repro.obs import validate_trace

        with open(trace_path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        errors = validate_trace(trace)
        assert errors == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"save", "upload", "journal-append"} <= names

        # The dump's upload totals are tier_stats()'s counters — the
        # demo run must report identical numbers in both blocks.
        stats_line = next(l for l in out.splitlines()
                          if "remote uploads:" in l)
        reported = int(stats_line.split(":")[1])
        prom_line = next(l for l in out.splitlines()
                         if l.startswith("moc_tier_uploads_completed_total"))
        assert int(float(prom_line.split()[1])) == reported

        assert main(["stats", trace_path]) == 0
        assert "status: valid" in capsys.readouterr().out

    def test_stats_rejects_missing_and_garbage(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {", encoding="utf-8")
        assert main(["stats", str(garbage)]) == 2
        capsys.readouterr()

    def test_stats_flags_invalid_trace(self, capsys, tmp_path):
        unbalanced = tmp_path / "bad.json"
        unbalanced.write_text(json.dumps({"traceEvents": [
            {"name": "x", "cat": "moc", "ph": "B", "ts": 1,
             "pid": 1, "tid": 1},
        ]}), encoding="utf-8")
        assert main(["stats", str(unbalanced)]) == 1
        assert "unclosed" in capsys.readouterr().out


class TestChaos:
    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["chaos"])

    def test_chaos_run_small_campaign(self, capsys):
        # 12 runs > the 11-seam dedup registry, so the guaranteed
        # coverage prefix reaches every seam (incl. the iosched ones).
        assert main([
            "chaos", "run", "--backend", "dedup", "--runs", "12",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "runs ok: 12" in out
        assert "runs failed: 0" in out
        assert "seams killed: 11/11" in out
        assert "adaptive loop" in out

    def test_chaos_run_single_index_repro(self, capsys):
        assert main([
            "chaos", "run", "--backend", "dedup", "--runs", "10",
            "--seed", "7", "--run-index", "2",
        ]) == 0
        assert "runs ok: 1" in capsys.readouterr().out

    def test_chaos_run_report_and_trace_roundtrip(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "chaos", "run", "--backend", "dedup", "--runs", "9",
            "--seed", "3",
            "--report", str(report), "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["runs_failed"] == 0
        assert payload["digest"]

        assert main(["chaos", "report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "runs ok: 9" in out

        assert main([
            "chaos", "replay", "--trace", str(trace),
            "--iterations", "100", "--interval", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "static" in out and "adaptive" in out

    def test_chaos_replay_synthetic_with_scaling(self, capsys):
        assert main([
            "chaos", "replay", "--synthetic", "preemption",
            "--nodes", "16", "--scale-nodes", "64",
            "--rate", "0.001", "--horizon", "1000",
            "--iterations", "500", "--interval", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "nodes: 64" in out
        assert "adaptive controller" in out

    def test_chaos_replay_rejects_missing_trace(self, capsys, tmp_path):
        assert main([
            "chaos", "replay", "--trace", str(tmp_path / "nope.jsonl"),
        ]) == 2
        capsys.readouterr()

    def test_chaos_report_rejects_garbage(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {", encoding="utf-8")
        assert main(["chaos", "report", str(garbage)]) == 2
        capsys.readouterr()

    def test_chaos_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--backend", "floppy"])
