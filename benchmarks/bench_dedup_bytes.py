"""Microbenchmark: persisted bytes per checkpoint — full vs PEC vs PEC+dedup.

Drives the live manager over a 12-stamp run in four configurations:

* **full**   — every expert persisted every checkpoint (``PECConfig.full``)
               on the sharded journal store;
* **pec**    — K=1 partial-expert checkpointing on the sharded store;
* **pec+delta** — K=1 on the sharded store with manager delta saves on
               (unchanged entries are skipped before they are built);
* **pec+dedup** — K=1 through :class:`~repro.ckpt.dedup.DedupBackend`
               with manager delta saves on.

``pec+delta`` and ``pec+dedup`` differ only in the store, so the pair
separates the two byte levers: the delta skip and chunk dedup.

Write traffic is measured with the CounterPoint discipline — byte
counters, not assumptions: novel-chunk bytes (dedup) or payload bytes
(sharded) plus every journal append (manifest lists and refcount
records are real bytes; silently excluding them would flatter dedup).

Two workloads bound the dedup win from both sides:

* *pretrain* — every touched parameter changes every step, so dedup can
  only reclaim the occasional untouched expert; the savings are mostly
  PEC's.
* *finetune* — the non-expert backbone is frozen (the paper's Table 4
  regime): backbone entries are bit-identical across stamps, the
  manager's delta-save check drops them before serialization, and the
  persist stream shrinks to the touched experts.

After each dedup run, ``gc()`` reclaims superseded chunks and
``fsck()`` must report zero errors.
"""

from __future__ import annotations

import os
import time

from repro.testing import once
from repro.analysis import render_table
from repro.ckpt import DedupBackend, ShardedDiskKVStore
from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
from repro.models import Adam, MoEModelConfig, MoETransformerLM
from repro.models.serial import non_expert_param_names
from repro.train import MarkovCorpus

# Expert-heavy tiny model: 16 experts at top_k=1 keeps routing sparse
# enough that some selected experts are genuinely untouched between
# stamps (the PEC/dedup synergy the engine exists for).
CFG = MoEModelConfig(
    vocab_size=32, max_seq_len=12, dim=16, num_layers=2, num_heads=2,
    num_experts=16, top_k=1, seed=0,
)
N_STAMPS = 12
CHUNK_BYTES = 16 * 1024
CONFIGS = ("full", "pec", "pec+delta", "pec+dedup")


class TrafficMeter:
    """Bytes pushed to storage per checkpoint: payload + journal appends.

    Journal files only grow by appends (compaction shrinks them);
    counting positive size deltas therefore counts appended bytes
    without crediting compaction as negative traffic.
    """

    def __init__(self, store, root: str, dedup: bool) -> None:
        self.store = store
        self.dedup = dedup
        self.journals = (
            [os.path.join(root, "manifests.jsonl"),
             os.path.join(root, "chunks", "refs.jsonl")]
            if dedup else [os.path.join(root, "index.jsonl")]
        )
        self._journal_sizes = {path: 0 for path in self.journals}
        self._last_payload = 0
        self.take()  # absorb whatever construction wrote

    def take(self) -> int:
        payload = (
            self.store.chunks.chunk_bytes_written
            if self.dedup else self.store.bytes_written
        )
        delta = payload - self._last_payload
        self._last_payload = payload
        for path in self.journals:
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if size > self._journal_sizes[path]:
                delta += size - self._journal_sizes[path]
            self._journal_sizes[path] = size
        return delta


def run_config(root: str, kind: str, freeze_backbone: bool) -> dict:
    model = MoETransformerLM(CFG)
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    frozen = set(non_expert_param_names(model)) if freeze_backbone else set()
    pec = (
        PECConfig.full(CFG.num_experts)
        if kind == "full"
        else PECConfig(k_snapshot=2, k_persist=1)
    )
    config = MoCConfig(pec=pec, two_level=TwoLevelConfig(checkpoint_interval=1))
    dedup = kind == "pec+dedup"
    store = (
        DedupBackend(root, chunk_bytes=CHUNK_BYTES)
        if dedup else ShardedDiskKVStore(root)
    )
    manager = MoCCheckpointManager(
        model, optimizer, config, disk_store=store,
        delta_saves=kind in ("pec+delta", "pec+dedup"),
    )
    corpus = MarkovCorpus(vocab_size=CFG.vocab_size, seq_len=12, seed=3)
    manager.save_initial(0)
    meter = TrafficMeter(store, root, dedup)
    per_stamp = []
    save_wall = 0.0
    for iteration in range(1, N_STAMPS + 1):
        tokens, targets = corpus.batch(iteration, 2)
        optimizer.zero_grad()
        model.loss(tokens, targets).backward()
        for name, param in model.named_parameters():
            if name in frozen:
                param.grad = None
        optimizer.step()
        manager.note_model_routing()
        begin = time.perf_counter()
        manager.checkpoint(iteration)
        save_wall += time.perf_counter() - begin
        per_stamp.append(meter.take())
    result = {
        "bytes_per_ckpt": sum(per_stamp) / len(per_stamp),
        "per_stamp": per_stamp,
        "save_ms": 1e3 * save_wall / N_STAMPS,
        "skipped": sum(len(m.persist_skipped) for m in manager.manifests),
        "logical": store.bytes_written,
    }
    if dedup:
        gc_report = store.gc()
        fsck_report = store.fsck()
        result.update(
            gc_reclaimed=gc_report.reclaimed_bytes,
            live_bytes=gc_report.live_bytes,
            fsck_errors=len(fsck_report.errors),
            fsck_warnings=len(fsck_report.warnings),
        )
    manager.close()
    return result


def compute_matrix(tmpdir: str) -> dict:
    matrix = {}
    for workload, freeze in (("pretrain", False), ("finetune", True)):
        matrix[workload] = {}
        for kind in CONFIGS:
            root = os.path.join(tmpdir, f"{workload}-{kind.replace('+', '-')}")
            matrix[workload][kind] = run_config(root, kind, freeze)
    return matrix


def test_dedup_bytes_microbench(benchmark, report, tmp_path):
    matrix = once(benchmark, lambda: compute_matrix(str(tmp_path)))
    lines = []
    for workload, runs in matrix.items():
        full = runs["full"]["bytes_per_ckpt"]
        rows = [
            (
                kind,
                run["bytes_per_ckpt"] / 1024.0,
                full / run["bytes_per_ckpt"],
                run["skipped"],
                run["save_ms"],
            )
            for kind, run in runs.items()
        ]
        lines.append(f"[{workload}] {N_STAMPS} stamps, 16 experts, top_k=1, "
                     f"{CHUNK_BYTES // 1024}KiB chunks")
        lines.append(render_table(
            ["config", "KiB/ckpt", "vs full x", "delta-skips", "save ms"],
            rows, precision=2,
        ))
        dd = runs["pec+dedup"]
        lines.append(
            f"dedup store: gc reclaimed {dd['gc_reclaimed']} B, "
            f"live {dd['live_bytes']} B, fsck errors={dd['fsck_errors']} "
            f"warnings={dd['fsck_warnings']}"
        )
    report("dedup_bytes", "\n".join(lines))

    for workload, runs in matrix.items():
        # the engine's integrity contract holds after every live run
        assert runs["pec+dedup"]["fsck_errors"] == 0
        # the headline acceptance: >=3x fewer persisted bytes/ckpt than
        # full saves, with journal overheads counted against dedup
        assert runs["full"]["bytes_per_ckpt"] >= 3 * runs["pec+dedup"]["bytes_per_ckpt"]
    # pretraining: almost everything changes every step, so PEC+dedup
    # may not beat plain PEC by much — but must never be *worse* than
    # PEC by more than the manifest overhead it pays for integrity
    pre = matrix["pretrain"]
    assert pre["pec+dedup"]["bytes_per_ckpt"] <= 1.1 * pre["pec"]["bytes_per_ckpt"]
    # frozen-backbone finetune: delta saves drop the unchanged backbone
    # entirely — dedup's own multiple over PEC, not PEC's over full
    fin = matrix["finetune"]
    assert fin["pec"]["bytes_per_ckpt"] >= 4 * fin["pec+dedup"]["bytes_per_ckpt"]
    assert fin["pec+dedup"]["skipped"] > 0
    # the delta skip carries that reduction, not chunk dedup: on the
    # pack store alone it cuts PEC's bytes 4x too, and chunk dedup saves
    # at most a tenth more on top of it
    assert fin["pec"]["bytes_per_ckpt"] >= 4 * fin["pec+delta"]["bytes_per_ckpt"]
    assert fin["pec+delta"]["bytes_per_ckpt"] <= 1.1 * fin["pec+dedup"]["bytes_per_ckpt"]
