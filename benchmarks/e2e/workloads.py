"""The four workloads and the one way each builds its trainer and store.

A workload is data: model shape, batch shape, PEC setting and storage
configuration.  Every random choice the program sees (model init, corpus,
remote faults, retry backoff) is derived from the benchmark's ``--seed``.
Sizes are chosen so the fixed sample counts of the lifecycle (40 steady,
20 durable, 5 warm, 5 cold) fit the run's time budget on a 2-core box;
shrink the state, never the sample counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    num_experts: int
    #: (batch_size, seq_len): how many tokens reach the experts per step.
    batch: Tuple[int, int]
    #: Experts per MoE layer persisted / snapshotted per checkpoint;
    #: ``None`` means full-state checkpoints (K = E).
    k_persist: Optional[int]
    k_snapshot: Optional[int]
    backend: str
    store_options: Dict[str, object] = field(default_factory=dict)
    async_writes: bool = False
    delta_saves: bool = False
    #: Reader lanes of the warm ``recover`` and of the cold ``restore``;
    #: the defaults are the API's own.
    recover_workers: int = 1
    restore_workers: int = 4


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sharded_pec_dense",
            why="PEC K=2/16 on the sharded journal store, synchronous, dense batch: "
                "serialize + journal append + device write do all the work",
            dim=64, num_experts=16, batch=(4, 32), k_persist=2, k_snapshot=4,
            backend="sharded",
        ),
        Workload(
            name="dedup_full_sparse",
            why="full-state checkpoints on the dedup store with delta saves and a tiny "
                "batch: every byte is hashed while most experts are unchanged",
            dim=32, num_experts=32, batch=(1, 8), k_persist=None, k_snapshot=None,
            backend="dedup", delta_saves=True,
        ),
        Workload(
            name="dedup_zlib_workers",
            why="PEC K=2/16 on dedup with the zlib chunk codec and 2 worker processes: "
                "compression and the process pool dominate save and restore",
            dim=32, num_experts=16, batch=(4, 32), k_persist=2, k_snapshot=4,
            backend="dedup",
            store_options={"codec": "zlib", "parallel_workers": 2},
            # ParallelRestorer(workers>=2) over a dedup store with a codec and
            # worker processes deadlocks (two lanes block in
            # ChunkWorkerPool.collect on one result queue); see README.
            restore_workers=1,
        ),
        Workload(
            name="tiered_async_faulty",
            why="same model as sharded_pec_dense behind the async writer and a tiered "
                "store whose remote is slow and faulty: staging, scheduler, upload "
                "retries and remote reads do the work",
            dim=64, num_experts=16, batch=(4, 32), k_persist=2, k_snapshot=4,
            backend="tiered",
            store_options={
                "remote_latency": 0.002, "remote_fault_rate": 0.05,
                "upload_workers": 2, "local_keep_stamps": 2,
            },
            async_writes=True,
            # A serial warm recover through the slow, faulty remote is mostly
            # retry backoff (27 % spread from one recover to the next); four
            # lanes overlap the backoffs and the median repeats.
            recover_workers=4,
        ),
    )
}

VOCAB = 64
NUM_LAYERS = 4  # every second block is MoE: two MoE layers
#: Routing noise far above the learned logits: which experts a step touches
#: is then close to uniform for every seed, so the share of state that
#: changes between checkpoints (and with it write_amp) repeats across seeds.
GATE_NOISE_STD = 4.0


def build_trainer(workload: Workload, seed: int):
    """A fresh (model, optimizer, trainer) triple for ``seed``."""
    from repro.models import Adam, MoEModelConfig, MoETransformerLM
    from repro.train.data import MarkovCorpus
    from repro.train.trainer import Trainer, TrainerConfig

    batch_size, seq_len = workload.batch
    model = MoETransformerLM(MoEModelConfig(
        vocab_size=VOCAB, max_seq_len=seq_len, dim=workload.dim,
        num_layers=NUM_LAYERS, num_heads=2, num_experts=workload.num_experts,
        top_k=2, gate_noise_std=GATE_NOISE_STD, seed=seed,
    ))
    optimizer = Adam(model.named_parameters(), lr=1e-2)
    corpus = MarkovCorpus(vocab_size=VOCAB, seq_len=seq_len, seed=seed + 1)
    trainer = Trainer(
        model, optimizer, corpus,
        TrainerConfig(total_iterations=1, batch_size=batch_size),
    )
    return model, optimizer, trainer


def open_store(workload: Workload, root: str, seed: int, replica: int = 0):
    """Open (or create) the workload's persist tier under ``root``.

    ``replica`` numbers the cold restarts: each draws its own remote
    faults and backoff, as separate restarts of a real job would.
    """
    from repro.ckpt import tiered
    from repro.ckpt.backend import make_backend

    if workload.backend == "tiered":
        # make_backend has no seed parameters; the tiered opener does.
        # Looked up through the module so the traced pass sees the seam.
        return tiered.open_tiered_root(
            root, remote_seed=seed + 2 + 100 * replica, backoff_seed=seed + 3 + 100 * replica,
            **workload.store_options,
        )
    os.makedirs(root, exist_ok=True)
    return make_backend(workload.backend, root, **workload.store_options)


def build_manager(workload: Workload, model, optimizer, store):
    from repro.core.config import MoCConfig, PECConfig
    from repro.core.manager import MoCCheckpointManager

    if workload.k_persist is None:
        pec = PECConfig.full(workload.num_experts)
    else:
        pec = PECConfig(k_snapshot=workload.k_snapshot, k_persist=workload.k_persist)
    return MoCCheckpointManager(
        model, optimizer, MoCConfig(pec=pec), disk_store=store,
        async_writes=workload.async_writes, delta_saves=workload.delta_saves,
    )
