"""Shared fixtures: one small synthetic world reused across test modules.

Session scope keeps the expensive pieces (pre-training three
participants) to a single run; everything downstream copies models
before mutating them, so sharing is safe.
"""

import numpy as np
import pytest

from kdsim.nn import TrainConfig
from kdsim.orchestrate import PartitionSpec, PoolSpec, build_scenario, pretrain_participants
from kdsim.toydata import gaussian_blobs

WORLD_SEED = 11
WORLD_CLASSES = 6
WORLD_DIM = 6
WORLD_K = 3
WORLD_POOL = 120

# accuracy band the uniform-shard participants are expected to land in;
# wide on purpose, it only guards against degenerate training collapses
UNIFORM_ACCURACY_BAND = (0.5, 1.0)


@pytest.fixture(scope="session")
def blobs():
    return gaussian_blobs(
        classes=WORLD_CLASSES,
        dim=WORLD_DIM,
        train_per_class=80,
        test_per_class=20,
        spread=2.5,
        seed=WORLD_SEED,
    )


@pytest.fixture(scope="session")
def scenario(blobs):
    train, test = blobs
    return build_scenario(
        train,
        test,
        partition=PartitionSpec(strategy="uniform", k=WORLD_K, val_fraction=0.2),
        pool=PoolSpec(size=WORLD_POOL),
        master_seed=WORLD_SEED,
    )


@pytest.fixture(scope="session")
def train_cfg():
    return TrainConfig(
        optimizer="adam",
        learning_rate=5e-3,
        weight_decay=4e-4,
        batch_size=32,
        max_epochs=40,
        patience=12,
    )


@pytest.fixture(scope="session")
def pretrained(scenario, train_cfg):
    models = pretrain_participants(scenario, (12,), train_cfg, WORLD_SEED)
    accs = [rep.overall_accuracy for _, rep in models]
    assert all(UNIFORM_ACCURACY_BAND[0] <= a <= UNIFORM_ACCURACY_BAND[1] for a in accs)
    return models


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
