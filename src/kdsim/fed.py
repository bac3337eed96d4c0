"""Synchronous FedAvg simulation and the pre-consolidation comparison.

One round: every participating client copies the global model, runs a
few local epochs of SGD on its own shard, and the server replaces the
global parameters with the shard-size-weighted mean of the client
parameters (biases included). Client sampling, local shuffling and
aggregation are all driven by derived seed streams, so a whole
federation is reproducible bit for bit, and two arms started from
different initial models see exactly the same data order.

`run_federated` advances one or more arms side by side, round by round.
What the arms share is drawn once: each round's participants, each
participant's local-epoch row orders (`client_round`) and, once per
federation, each shard's one-hot targets. Every arm's clients then train
on those same draws, so an arm's trajectory is bit-identical to a
federation run alone from its initial model. A client model is plain,
so `nn.train_epoch` takes its drawn row order in place of a generator.
Each arm builds one client
optimizer from the `FedConfig` (`nn.make_optimizer`), which owns the
client model it steps; every local update resets it to the global model
and a new optimizer's state.

`FedConfig` is both the library's federation recipe and the run
configuration's `fed` section; its rules live in `FedConfig.problems()`
and share the optimizer checks of `nn.optimizer_problems`.

No wall-clock time is taken: a federation's result is its accuracies,
byte-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, DataError, ShapeError
from .nn import (
    Model,
    _Optimizer,
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
    aggregate. final_model stays in memory only; persisted trajectories
    do not carry it.
    """

    init_tag: str
    init_accuracy: float
    accuracies: list[float] = field(default_factory=list)
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


class ClientRound(NamedTuple):
    """One client's draws for one round: its shard's one-hot targets and
    the row order of each local epoch."""

    targets: np.ndarray
    orders: list[np.ndarray]


def client_round(
    shard: LabeledDataset,
    num_classes: int,
    cfg: FedConfig,
    round_index: int,
    client_id: int,
    fed_seed: int,
    targets: np.ndarray | None = None,
) -> ClientRound:
    """The draws of one client's round: epoch e of round r shuffles the
    shard with the stream derived from (fed_seed, "local", r, client_id,
    e). The one-hot targets, the same in every round, are built unless
    given."""
    if targets is None:
        targets = onehot(shard.labels, num_classes)
    orders = [
        rng_for(fed_seed, "local", round_index, client_id, epoch).permutation(len(shard))
        for epoch in range(1, cfg.local_epochs + 1)
    ]
    return ClientRound(targets, orders)


def local_update(
    global_model: Model,
    shard: LabeledDataset,
    cfg: FedConfig,
    round_index: int,
    client_id: int,
    fed_seed: int,
    draws: ClientRound | None = None,
    opt: _Optimizer | None = None,
) -> Model:
    """One client's local training for a round, from the global model.

    `draws` are the client's draws for this round (`client_round`), made
    here when not given; a federation passes the same draws to every arm.
    With `opt` the client trains in the model that optimizer steps, after
    `opt.reset` copies the global model in, and that model is returned, to
    be overwritten by the next update; without it a new model and
    optimizer are built.
    """
    if len(shard) == 0:
        raise DataError(f"client {client_id} has an empty shard")
    if draws is None:
        draws = client_round(
            shard, global_model.arch.num_classes, cfg, round_index, client_id, fed_seed
        )
    if opt is None:
        opt = make_optimizer(cfg, global_model.copy())
    else:
        opt.reset(global_model.params)
    for order in draws.orders:
        train_epoch(opt, shard.features, cfg.batch_size, order, hard=draws.targets)
    return opt.model


def _round_participants(
    k: int, rate: float, round_index: int, fed_seed: int
) -> list[int]:
    if rate >= 1.0:
        return list(range(k))
    count = max(1, int(math.ceil(rate * k)))
    rng = rng_for(fed_seed, "participation", round_index)
    return sorted(int(c) for c in rng.choice(k, size=count, replace=False))


def run_federated(
    inits: list[Model],
    tags: list[str],
    shards: list[LabeledDataset],
    test: LabeledDataset,
    cfg: FedConfig,
    fed_seed: int,
) -> list[FedTrajectory]:
    """Run synchronous federations, one arm per initial model and tag,
    and return each arm's accuracy trajectory, in the order given.

    The arms advance round by round side by side. A round's participants
    and each participant's draws (`client_round`) are made once and
    serve every arm; each shard's one-hot targets are built once, and
    each arm's client optimizer, with the client model it steps, once.
    """
    if not inits or len(inits) != len(tags):
        raise ConfigError(
            f"a federation needs one tag per arm and at least one arm; got "
            f"{len(inits)} initial models and {len(tags)} tags"
        )
    arch = inits[0].arch
    if any(init.arch != arch for init in inits[1:]):
        raise ShapeError("every arm must share one architecture")
    if not shards:
        raise ConfigError("federation needs at least one client shard")
    for i, shard in enumerate(shards):
        if len(shard) == 0:
            raise DataError(f"client {i} has an empty shard")
    trajs = [
        FedTrajectory(init_tag=tag, init_accuracy=evaluate(init, test).overall_accuracy)
        for init, tag in zip(inits, tags)
    ]
    models = [init.copy() for init in inits]
    opts = [make_optimizer(cfg, init.copy()) for init in inits]
    targets: dict[int, np.ndarray] = {}
    for round_index in range(1, cfg.rounds + 1):
        participants = _round_participants(
            len(shards), cfg.participation_rate, round_index, fed_seed
        )
        draws = []
        for c in participants:
            draw = client_round(
                shards[c], arch.num_classes, cfg, round_index, c, fed_seed, targets.get(c)
            )
            targets[c] = draw.targets
            draws.append(draw)
        sizes = [len(shards[c]) for c in participants]
        for arm, traj in enumerate(trajs):
            updates = [
                local_update(
                    models[arm], shards[c], cfg, round_index, c, fed_seed, draw, opts[arm]
                ).copy()
                for c, draw in zip(participants, draws)
            ]
            models[arm] = fedavg_aggregate(updates, sizes)
            traj.accuracies.append(evaluate(models[arm], test).overall_accuracy)
            traj.participants_per_round.append(participants)
    for traj, model in zip(trajs, models):
        traj.final_model = model
    return trajs


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
    initialization. The two arms are one `run_federated` call, which
    makes their shared draws once.
    """
    random_arm, consolidated_arm = run_federated(
        [random_init, consolidated], ["random", "preconsolidated"], shards, test, cfg, fed_seed
    )
    return random_arm, consolidated_arm
