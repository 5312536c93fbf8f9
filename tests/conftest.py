"""Shared fixtures: tiny models, corpora and managers for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import make_backend
from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
from repro.models import Adam, MoEModelConfig, MoETransformerLM
from repro.testing import TINY, params_equal, snapshot_params, train_steps
from repro.train import MarkovCorpus


@pytest.fixture
def tiny_config() -> MoEModelConfig:
    return TINY


@pytest.fixture
def tiny_model() -> MoETransformerLM:
    return MoETransformerLM(TINY)


@pytest.fixture
def tiny_optimizer(tiny_model) -> Adam:
    return Adam(tiny_model.named_parameters(), lr=1e-2)


@pytest.fixture
def tiny_corpus() -> MarkovCorpus:
    return MarkovCorpus(vocab_size=32, num_domains=2, seq_len=12, seed=5)


@pytest.fixture
def tiny_manager(tiny_model, tiny_optimizer, tmp_path) -> MoCCheckpointManager:
    config = MoCConfig(
        pec=PECConfig(k_snapshot=2, k_persist=1),
        two_level=TwoLevelConfig(checkpoint_interval=2),
    )
    return MoCCheckpointManager(
        tiny_model, tiny_optimizer, config,
        disk_store=make_backend("sharded", str(tmp_path / "ckpt")),
    )


# train_steps / snapshot_params / params_equal live in repro.testing and
# are re-imported above for any remaining `from conftest import` users.
