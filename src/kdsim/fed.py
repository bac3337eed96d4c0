"""Synchronous FedAvg simulation and the pre-consolidation comparison.

One round: every participating client copies the global model, runs a
few local epochs of SGD on its own shard, and the server replaces the
global parameters with the shard-size-weighted mean of the client
parameters (biases included). Client sampling, local shuffling and
aggregation are all driven by derived seed streams, so a whole
federation is reproducible bit for bit, and two arms started from
different initial models see exactly the same data order.

`FedConfig` is both the library's federation recipe and the run
configuration's `fed` section; its rules live in `FedConfig.problems()`
and share the optimizer checks of `nn.optimizer_problems`.

Wall-clock timings are collected per round but never persisted; result
files must be byte-identical across reruns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .data import LabeledDataset
from .errors import ConfigError, DataError, ShapeError
from .nn import (
    Model,
    check,
    check_finite,
    evaluate,
    is_int,
    is_number,
    make_optimizer,
    onehot,
    optimizer_problems,
    raise_problems,
    train_epoch,
)
from .seeding import rng_for


@dataclass(eq=False)
class FedConfig:
    """Federation schedule and the shared local training recipe; the
    `fed` config section.

    learning_rate may be zero (a frozen federation is a useful probe);
    everything else follows the usual constraints.
    """

    rounds: int = 100
    local_epochs: int = 2
    participation_rate: float = 1.0
    optimizer: str = "sgd"
    learning_rate: float = 0.01
    weight_decay: float = 4e-4
    momentum: float = 0.0
    batch_size: int = 32

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found = optimizer_problems(self, zero_learning_rate=True)
        rate = self.participation_rate
        check(found, is_int(self.rounds) and self.rounds >= 1, "rounds",
              "must be an integer >= 1")
        check(found, is_int(self.local_epochs) and self.local_epochs >= 1, "local_epochs",
              "must be an integer >= 1")
        check(found, is_number(rate) and 0 < rate <= 1, "participation_rate",
              "must lie in (0, 1]")
        return found


@dataclass(eq=False)
class FedTrajectory:
    """Per-round test accuracy of one federation arm.

    accuracies[r - 1] is the global model's accuracy after round r;
    init_accuracy is the starting model's accuracy before any training.
    participants_per_round records which clients contributed to each
    aggregate. wall_times (per-round seconds) and final_model stay
    in-memory only; persisted trajectories carry neither.
    """

    init_tag: str
    init_accuracy: float
    accuracies: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    participants_per_round: list[list[int]] = field(default_factory=list)
    final_model: Model | None = None


def fedavg_aggregate(models: list[Model], sizes: list[int]) -> Model:
    """Dataset-size-weighted mean of client parameters, biases included.

    Client parameter vectors are accumulated in list order with float64
    arithmetic; a single client therefore aggregates to itself
    bit-exactly. Raises DomainError if the mean is not finite.
    """
    if not models:
        raise ConfigError("nothing to aggregate")
    if len(models) != len(sizes):
        raise ConfigError(f"{len(models)} models but {len(sizes)} sizes")
    if any(s <= 0 for s in sizes):
        raise ConfigError("every client size must be > 0")
    arch = models[0].arch
    for m in models[1:]:
        if m.arch != arch:
            raise ShapeError("all clients must share one architecture")
    total = float(sum(sizes))
    out = models[0].copy()
    out.params[:] = 0.0
    for model, size in zip(models, sizes):
        out.params += (size / total) * model.params
    check_finite(out, "after the FedAvg aggregate")
    return out


def local_update(
    global_model: Model,
    shard: LabeledDataset,
    cfg: FedConfig,
    round_index: int,
    client_id: int,
    fed_seed: int,
) -> Model:
    """One client's local training for a round, from the global model."""
    if len(shard) == 0:
        raise DataError(f"client {client_id} has an empty shard")
    work = global_model.copy()
    opt, _ = make_optimizer(
        cfg.optimizer, cfg.learning_rate, cfg.weight_decay, cfg.momentum, work
    )
    targets = onehot(shard.labels, work.arch.num_classes)
    for epoch in range(1, cfg.local_epochs + 1):
        rng = rng_for(fed_seed, "local", round_index, client_id, epoch)
        train_epoch(work, opt, shard.features, cfg.batch_size, rng, hard=targets)
    return work


def _round_participants(
    k: int, rate: float, round_index: int, fed_seed: int
) -> list[int]:
    if rate >= 1.0:
        return list(range(k))
    count = max(1, int(math.ceil(rate * k)))
    rng = rng_for(fed_seed, "participation", round_index)
    return sorted(int(c) for c in rng.choice(k, size=count, replace=False))


def run_federated(
    init: Model,
    shards: list[LabeledDataset],
    test: LabeledDataset,
    cfg: FedConfig,
    fed_seed: int,
    init_tag: str = "random",
) -> FedTrajectory:
    """Run a synchronous federation and record its accuracy trajectory."""
    if not shards:
        raise ConfigError("federation needs at least one client shard")
    for i, shard in enumerate(shards):
        if len(shard) == 0:
            raise DataError(f"client {i} has an empty shard")
    traj = FedTrajectory(
        init_tag=init_tag, init_accuracy=evaluate(init, test).overall_accuracy
    )
    global_model = init.copy()
    for round_index in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        participants = _round_participants(
            len(shards), cfg.participation_rate, round_index, fed_seed
        )
        updates = [
            local_update(global_model, shards[c], cfg, round_index, c, fed_seed)
            for c in participants
        ]
        global_model = fedavg_aggregate(updates, [len(shards[c]) for c in participants])
        traj.accuracies.append(evaluate(global_model, test).overall_accuracy)
        traj.wall_times.append(time.perf_counter() - started)
        traj.participants_per_round.append(participants)
    traj.final_model = global_model
    return traj


def rounds_to_target(traj: FedTrajectory, target: float) -> int | None:
    """First 1-indexed round whose accuracy reaches the target, if any."""
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target accuracy must lie in (0, 1], got {target}")
    for i, acc in enumerate(traj.accuracies, start=1):
        if acc >= target:
            return i
    return None


def preconsolidated_fedavg(
    random_init: Model,
    consolidated: Model,
    shards: list[LabeledDataset],
    test: LabeledDataset,
    cfg: FedConfig,
    fed_seed: int,
) -> tuple[FedTrajectory, FedTrajectory]:
    """Paired federations differing only in the initial model.

    Both arms share shards, schedule and every derived seed stream, so
    client sampling and batch orders are identical; the second arm
    starts from the distillation-consolidated model instead of a fresh
    initialization.
    """
    if random_init.arch != consolidated.arch:
        raise ShapeError("both arms must share one architecture")
    random_arm = run_federated(random_init, shards, test, cfg, fed_seed, init_tag="random")
    consolidated_arm = run_federated(
        consolidated, shards, test, cfg, fed_seed, init_tag="preconsolidated"
    )
    return random_arm, consolidated_arm
