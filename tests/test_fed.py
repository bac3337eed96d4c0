"""Federated averaging: aggregation math, schedules, paired arms."""

import numpy as np
import pytest

from kdsim.data import LabeledDataset
from kdsim.errors import ConfigError, DataError, DomainError, ShapeError
from kdsim.fed import (
    FedConfig,
    FedTrajectory,
    fedavg_aggregate,
    local_update,
    preconsolidated_fedavg,
    rounds_to_target,
    run_federated,
)
from kdsim.nn import ArchSpec, init_model, models_equal

ARCH = ArchSpec(input_dim=3, hidden_layers=(6,), num_classes=4)


def _shard(rng, n=40, dim=3, classes=4):
    return LabeledDataset(
        features=rng.normal(0, 1, size=(n, dim)),
        labels=rng.integers(0, classes, size=n).astype(np.int64),
        class_count=classes,
    )


# -- config -----------------------------------------------------------------


def test_fed_config_accepts_zero_learning_rate():
    FedConfig(learning_rate=0.0)
    for kwargs in (
        dict(rounds=0),
        dict(local_epochs=0),
        dict(participation_rate=0.0),
        dict(participation_rate=1.5),
        dict(optimizer="lion"),
        dict(learning_rate=-1.0),
        dict(momentum=1.0),
        dict(batch_size=0),
        dict(batch_size="8"),
        dict(batch_size=True),
        dict(rounds=True),
        dict(learning_rate="0.1"),
    ):
        with pytest.raises(ConfigError):
            FedConfig(**kwargs)


# -- aggregation ------------------------------------------------------------


def test_aggregate_matches_per_scalar_weighted_mean(rng):
    models = [init_model(ARCH, s) for s in range(3)]
    sizes = [10, 25, 5]
    merged = fedavg_aggregate(models, sizes)
    total = float(sum(sizes))
    for li in range(len(merged.weights)):
        expect = np.zeros_like(merged.weights[li])
        for m, s in zip(models, sizes):
            expect += (s / total) * m.weights[li]
        assert np.array_equal(merged.weights[li], expect)
    for li in range(len(merged.biases)):
        expect = np.zeros_like(merged.biases[li])
        for m, s in zip(models, sizes):
            expect += (s / total) * m.biases[li]
        assert np.array_equal(merged.biases[li], expect)


def test_aggregate_single_client_is_identity():
    model = init_model(ARCH, 9)
    merged = fedavg_aggregate([model], [17])
    assert models_equal(merged, model)
    assert merged is not model


def test_aggregate_equal_models_is_identity():
    model = init_model(ARCH, 2)
    merged = fedavg_aggregate([model.copy(), model.copy(), model.copy()], [1, 2, 3])
    # averaging identical parameters with float64 accumulation cannot
    # drift: sum of fractions times the same value
    for a, b in zip(merged.weights, model.weights):
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_aggregate_refuses_a_non_finite_mean():
    good = init_model(ARCH, 0)
    bad = init_model(ARCH, 1)
    bad.biases[0][2] = np.nan
    with pytest.raises(DomainError, match="not finite after the FedAvg aggregate"):
        fedavg_aggregate([good, bad], [3, 4])


def test_aggregate_argument_checks():
    model = init_model(ARCH, 0)
    other = init_model(ArchSpec(input_dim=3, hidden_layers=(7,), num_classes=4), 0)
    with pytest.raises(ConfigError):
        fedavg_aggregate([], [])
    with pytest.raises(ConfigError):
        fedavg_aggregate([model], [1, 2])
    with pytest.raises(ConfigError):
        fedavg_aggregate([model], [0])
    with pytest.raises(ShapeError):
        fedavg_aggregate([model, other], [1, 1])


# -- local updates and rounds -----------------------------------------------


def test_local_update_is_deterministic_and_pure(rng):
    shard = _shard(rng)
    start = init_model(ARCH, 1)
    cfg = FedConfig(local_epochs=2)
    a = local_update(start, shard, cfg, 3, 0, 42)
    b = local_update(start, shard, cfg, 3, 0, 42)
    c = local_update(start, shard, cfg, 4, 0, 42)
    assert models_equal(a, b)
    assert not models_equal(a, c)  # round index feeds the batch stream
    assert models_equal(start, init_model(ARCH, 1))
    with pytest.raises(DataError):
        local_update(start, shard.subset(np.array([], dtype=np.int64)), cfg, 1, 0, 0)


def test_single_client_federation_equals_local_training(rng):
    # with one client, aggregation is the identity, so the global model
    # after R rounds is exactly R sequential local updates
    shard = _shard(rng, n=60)
    test = _shard(rng, n=30)
    init = init_model(ARCH, 5)
    cfg = FedConfig(rounds=3, local_epochs=2)
    traj_model = init.copy()
    for rnd in (1, 2, 3):
        traj_model = local_update(traj_model, shard, cfg, rnd, 0, 77)
    fed = run_federated(init, [shard], test, cfg, 77)
    # rebuild the final model independently and compare trajectories
    assert len(fed.accuracies) == 3
    from kdsim.nn import evaluate

    assert fed.accuracies[-1] == evaluate(traj_model, test).overall_accuracy


def test_zero_learning_rate_federation_is_flat(rng):
    shards = [_shard(rng) for _ in range(3)]
    test = _shard(rng, n=50)
    init = init_model(ARCH, 8)
    cfg = FedConfig(rounds=4, learning_rate=0.0, weight_decay=0.0)
    traj = run_federated(init, shards, test, cfg, 1)
    assert all(acc == traj.init_accuracy for acc in traj.accuracies)


def test_full_participation_every_round(rng):
    shards = [_shard(rng, n=20) for _ in range(4)]
    traj = run_federated(
        init_model(ARCH, 0), shards, _shard(rng), FedConfig(rounds=2), 0
    )
    assert traj.participants_per_round == [[0, 1, 2, 3], [0, 1, 2, 3]]


def test_partial_participation_counts_and_membership(rng):
    shards = [_shard(rng, n=20) for _ in range(5)]
    cfg = FedConfig(rounds=6, participation_rate=0.5)
    traj = run_federated(init_model(ARCH, 0), shards, _shard(rng), cfg, 3)
    rounds_seen = set()
    for sel in traj.participants_per_round:
        assert len(sel) == 3  # ceil(0.5 * 5)
        assert sel == sorted(set(sel))
        assert all(0 <= c < 5 for c in sel)
        rounds_seen.add(tuple(sel))
    assert len(rounds_seen) > 1  # sampling varies across rounds
    again = run_federated(init_model(ARCH, 0), shards, _shard(rng), cfg, 3)
    assert again.participants_per_round == traj.participants_per_round


def test_federation_learns_a_separable_problem(blobs, scenario):
    train, test = blobs
    shards = [train.subset(idx) for idx in scenario.participant_indices]
    init = init_model(
        ArchSpec(input_dim=test.feature_dim, hidden_layers=(12,), num_classes=test.class_count),
        4,
    )
    cfg = FedConfig(rounds=15, local_epochs=2, learning_rate=0.05)
    traj = run_federated(init, shards, test, cfg, 6)
    assert traj.accuracies[-1] > traj.init_accuracy + 0.3
    assert max(traj.accuracies) > 0.7


# -- trajectory helpers -----------------------------------------------------


def test_rounds_to_target_first_crossing():
    traj = FedTrajectory(init_tag="random", init_accuracy=0.1)
    traj.accuracies = [0.2, 0.5, 0.4, 0.6]
    assert rounds_to_target(traj, 0.5) == 2
    assert rounds_to_target(traj, 0.6) == 4
    assert rounds_to_target(traj, 0.9) is None
    with pytest.raises(ConfigError):
        rounds_to_target(traj, 0.0)
    with pytest.raises(ConfigError):
        rounds_to_target(traj, 1.5)


# -- paired arms ------------------------------------------------------------


def test_paired_arms_share_schedules(rng):
    shards = [_shard(rng, n=25) for _ in range(4)]
    test = _shard(rng, n=40)
    cfg = FedConfig(rounds=3, participation_rate=0.5)
    rand_arm, cons_arm = preconsolidated_fedavg(
        init_model(ARCH, 1), init_model(ARCH, 2), shards, test, cfg, 9
    )
    assert rand_arm.init_tag == "random"
    assert cons_arm.init_tag == "preconsolidated"
    # identical seed streams: same clients picked in both arms each round
    assert rand_arm.participants_per_round == cons_arm.participants_per_round
    assert len(rand_arm.accuracies) == len(cons_arm.accuracies) == 3


def test_paired_arms_identical_inits_coincide(rng):
    shards = [_shard(rng, n=25) for _ in range(2)]
    test = _shard(rng, n=40)
    init = init_model(ARCH, 3)
    a, b = preconsolidated_fedavg(init, init.copy(), shards, test, FedConfig(rounds=2), 5)
    assert a.accuracies == b.accuracies


def test_paired_arms_need_one_architecture(rng):
    other = init_model(ArchSpec(input_dim=3, hidden_layers=(5,), num_classes=4), 0)
    with pytest.raises(ShapeError):
        preconsolidated_fedavg(
            init_model(ARCH, 0), other, [_shard(rng)], _shard(rng), FedConfig(rounds=1), 0
        )
