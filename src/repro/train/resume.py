"""Cold-restart orchestration: resume training from a persisted store.

A node fault handled by :meth:`MoCCheckpointManager.recover` keeps the
process alive; a *job* failure (or preemption) loses everything but the
persist tier.  This module rebuilds the full training stack from a disk
store — fresh model, fresh optimizer, manager, trainer — restores the
mixed-version PEC state, and continues the run to completion, replaying
the deterministic data stream from the resume iteration.

This is the paper's "restart" path (the O_restart of Eq. 3) made
concrete, and is what `examples/quickstart.py`-style jobs would wrap in
a supervisor loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..ckpt.backend import CheckpointBackend
from ..ckpt.manifest import meta_entry_key
from ..core.config import MoCConfig
from ..core.manager import MoCCheckpointManager, RecoveryResult
from ..core.sharding import ShardTopology
from ..models.optim import Adam
from .faults import FaultSchedule
from .trainer import TrainHistory, Trainer, TrainerConfig


@dataclass
class ResumedRun:
    """Everything reconstructed by :func:`resume_training`."""

    trainer: Trainer
    manager: MoCCheckpointManager
    model: object
    optimizer: Adam
    resume_iteration: int
    #: Full recovery outcome, including the reshard plan and parallel
    #: restore stats when the resume changed topology.
    recovery: Optional[RecoveryResult] = None


def latest_persisted_iteration(store: CheckpointBackend) -> int:
    """The iteration of the newest durable checkpoint in ``store``, or -1."""
    key = meta_entry_key("iteration")
    if not store.has(key):
        return -1
    return int(np.asarray(store.get(key)["iteration"]).reshape(-1)[0])


def resume_training(
    model_factory: Callable[[], object],
    optimizer_factory: Callable[[object], Adam],
    corpus,
    moc_config: MoCConfig,
    trainer_config: TrainerConfig,
    store: CheckpointBackend,
    async_writes: bool = False,
    fault_schedule: Optional[FaultSchedule] = None,
    val_fn_factory: Optional[Callable[[object], Callable[[], float]]] = None,
    target_topology: Optional[ShardTopology] = None,
    restore_workers: int = 1,
) -> ResumedRun:
    """Rebuild a training stack from a persisted store.

    ``store`` is the persist tier the job saved to, opened by the
    caller (see :func:`~repro.ckpt.backend.make_backend`); the resumed
    manager saves to it as well.  ``model_factory`` must construct the
    same architecture the store was written from (entry keys are
    parameter names); ``optimizer_factory`` receives the model and
    returns its Adam.  The returned trainer is positioned to continue
    from the persisted iteration — call :func:`continue_run` (or
    ``trainer.run`` manually after adjusting iteration bookkeeping) to
    finish the job.  A store holding no checkpoint raises
    ``FileNotFoundError``.

    ``target_topology`` resumes the job on a different DP+EP layout than
    it was saved under (elastic reshard-on-resume): the restored state
    is identical, expert placement and future checkpoints follow the new
    layout, and ``restore_workers`` readers drain the persist tier in
    parallel.
    """
    if latest_persisted_iteration(store) < 0:
        raise FileNotFoundError("no persisted checkpoint in the store — cannot resume")
    model = model_factory()
    optimizer = optimizer_factory(model)
    manager = MoCCheckpointManager(
        model, optimizer, moc_config, disk_store=store,
        async_writes=async_writes, topology=target_topology,
    )
    # A cold restart has no surviving CPU memory anywhere: every node of
    # the placement is "failed" from the snapshot tier's perspective.
    result = manager.restore(topology=target_topology, workers=restore_workers)
    trainer = Trainer(
        model,
        optimizer,
        corpus,
        trainer_config,
        manager=manager,
        fault_schedule=fault_schedule,
        val_fn=val_fn_factory(model) if val_fn_factory is not None else None,
    )
    return ResumedRun(
        trainer=trainer,
        manager=manager,
        model=model,
        optimizer=optimizer,
        resume_iteration=result.resume_iteration,
        recovery=result,
    )


def continue_run(resumed: ResumedRun) -> TrainHistory:
    """Run the remaining iterations of a resumed job.

    The trainer's loop normally begins at iteration 1 and writes an
    initial full checkpoint; for a resumed job we skip both and continue
    from ``resume_iteration + 1``, replaying the deterministic stream.
    """
    trainer = resumed.trainer
    config = trainer.config
    history = TrainHistory()
    iteration = resumed.resume_iteration + 1
    executed = 0
    while iteration <= config.total_iterations:
        executed += 1
        if executed > config.max_replayed_iterations:
            raise RuntimeError("exceeded max_replayed_iterations")
        loss_value = trainer.train_step(iteration)
        history.train_losses[iteration] = loss_value
        trainer.manager.note_model_routing()

        fault = trainer.faults.consume(iteration)
        if fault is not None:
            history.fault_iterations.append(iteration)
            result = trainer.manager.recover(failed_nodes=list(fault.failed_nodes))
            history.recoveries.append(result)
            iteration = result.resume_iteration + 1
            continue

        trainer.manager.maybe_checkpoint(iteration)
        if (
            trainer.val_fn is not None
            and config.eval_every > 0
            and iteration % config.eval_every == 0
        ):
            history.val_losses[iteration] = trainer.val_fn()
        iteration += 1

    history.executed_iterations = executed
    history.final_plt = trainer.manager.plt_tracker.plt()
    if trainer.val_fn is not None:
        history.final_val_loss = trainer.val_fn()
    return history
