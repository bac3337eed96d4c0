"""Knowledge transfer between trained classifiers.

Every mechanism trains on the soft-target objective (1 - alpha) * CE +
alpha * T^2 * KL of Hinton et al. (2015), or on a part of it, and only
builds per-sample targets for the one minibatch loop, `nn.train_steps`.
Alpha becomes that loop's two loss weights in `_distill`: (1 - alpha,
alpha) on labeled data, the KL term alone at weight 1 without labels.

* fixed-parameter distillation against one or more frozen teachers
  (`distill_vanilla`): the mean teacher distribution, the (temperature=1,
  alpha=0.5) configuration being the canonical baseline;
* mask-routed distillation where each transfer sample is answered either
  by the teacher or by a frozen snapshot of the student's starting
  point, whichever was more confident up front (`distill_dpkd`);
* many-to-one consolidation with per-class accuracy weights
  (`distill_multi_teacher`): the weighted teacher mean, with the total
  weight scaling each sample's KL term;
* mutual learning between two live peers (`distill_dml`), on CE + KL
  at unit weights and temperature 1: each peer's target is the other
  peer itself, whose current prediction the loop reads at every
  minibatch, and the two peers' passes step in turn. Both trained peers
  are returned: when both peers train on one set, the run serves the
  transfer in either direction (the matrix reads both peers of a public
  pair's run, see `orchestrate.run_pairwise_matrix`).

Teacher models are never mutated: targets are read from them once up
front and only the student copy is ever stepped. Every run is
deterministic per (models, transfer set, config, seed).

Runs on one transfer set that differ only in start model, teachers,
alpha and seed (and, for vanilla runs, temperature) are cells:
`distill_vanilla_benches` (one teacher bench per cell),
`distill_dpkd_cells` and `distill_dml_cells` train them as one stack of
models (see `nn`), each cell with its own generators, and every cell
comes out bit-identical to its own one-cell run. A stack trains under
one optimizer, built from the run's `DistillConfig`
(`nn.make_optimizer`), which owns the stack it steps. Work the cells
share is done once: each distinct model's logits and its soft targets
at each temperature its cells use, the frozen self of each distinct
student, and DPKD's snapshot probabilities of each distinct student.
`distill_vanilla`, `distill_dpkd` and `distill_dml` are the one-cell
cases; a run of one cell, these and `distill_multi_teacher` included,
trains as a plain model rather than a one-cell stack: the loop's one
step on fewer axes, with the same bits.

Temperatures above 1 shrink softened-softmax gradients by roughly T^2,
so the KL objectives here carry an explicit T^2 factor to keep gradient
magnitudes comparable across temperature settings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .data import PUBLIC_TRANSFER_OPTIONS, TransferSet
from .errors import ConfigError, DataError, ShapeError
from .nn import (
    EvalReport,
    Model,
    _clamped_log,
    check,
    check_finite,
    forward_logits,
    is_int,
    is_number,
    kl_loss,
    make_optimizer,
    onehot,
    optimizer_problems,
    raise_problems,
    softmax,
    train_epoch,
    train_steps,
)
from .seeding import rng_for


@dataclass(eq=False)
class DistillConfig:
    """The training recipe of one distillation run, shared by every
    method; the `distill` config section extends it.

    temperature and alpha follow the usual soft-target convention:
    alpha mixes the hard-label term against the distillation term, and
    temperature softens both endpoint distributions of the KL.
    """

    temperature: float = 1.0
    alpha: float = 0.5
    epochs: int = 30
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 4e-4
    batch_size: int = 32
    momentum: float = 0.0

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found = optimizer_problems(self)
        check(found, is_number(self.temperature) and self.temperature > 0, "temperature",
              "must be > 0")
        check(found, is_number(self.alpha) and 0 <= self.alpha <= 1, "alpha",
              "must lie in [0, 1]")
        check(found, is_int(self.epochs) and self.epochs >= 1, "epochs",
              "must be an integer >= 1")
        return found


def _check_transfer(model: Model, transfer: TransferSet) -> None:
    if len(transfer) == 0:
        raise DataError("transfer set is empty")
    if transfer.features.shape[1] != model.arch.input_dim:
        raise ShapeError(
            f"transfer features have dim {transfer.features.shape[1]}, model "
            f"expects {model.arch.input_dim}"
        )


def _hard_target(model: Model, transfer: TransferSet) -> np.ndarray | None:
    if not transfer.labeled:
        return None
    return onehot(transfer.labels, model.arch.num_classes)


def _stack(models: list[Model]) -> Model:
    """One stack whose cells start at the given models' parameters; one
    model alone is a plain copy, which trains as a plain model."""
    params = np.stack([m.params for m in models])
    return Model.from_params(
        models[0].arch, params[0] if len(models) == 1 else params, models[0].seed
    )


def _unstack(stack: Model, like: list[Model]) -> list[Model]:
    """One model per cell, each with the seed of the model it started from."""
    rows = stack.params.reshape(len(like), -1)
    return [Model.from_params(m.arch, row.copy(), m.seed) for m, row in zip(like, rows)]


def _per_cell(work: Model, values: list):
    """What `nn.train_epoch` takes per cell of `work`: the list for a
    stack, its one entry for a plain model."""
    return values if work.params.ndim == 2 else values[0]


def _distill(
    students: list[Model],
    transfer: TransferSet,
    cfg: DistillConfig,
    alphas: list[float],
    temperatures: list[float],
    seeds: list[int],
    *,
    soft: np.ndarray,
    hard: np.ndarray | None = None,
    weight: np.ndarray | None = None,
) -> list[Model]:
    """Train one copy of each cell's start model, one cell per (student,
    alpha, temperature, seed), all as one stack (one cell as a plain
    model), on the fixed targets `nn.train_epoch` takes; `soft` is
    shared, (n, C), or one block per cell, (S, n, C). With hard targets
    each cell weighs the CE and KL terms (1 - alpha, alpha); without them
    the KL term trains alone."""
    opt = make_optimizer(cfg, _stack(students))
    work = opt.model
    if soft.ndim == 3:
        soft = _per_cell(work, soft)
    weights = {}
    if hard is not None:
        weights = dict(
            ce_weight=_per_cell(work, [1.0 - a for a in alphas]),
            kd_weight=_per_cell(work, alphas),
        )
    for epoch in range(1, cfg.epochs + 1):
        train_epoch(
            opt, transfer.features, cfg.batch_size,
            _per_cell(work, [rng_for(seed, "epoch", epoch) for seed in seeds]),
            hard=hard, soft=soft, weight=weight, temperature=_per_cell(work, temperatures),
            **weights,
        )
    return _unstack(work, students)


def _distinct(models: list[Model]) -> dict[int, Model]:
    """The distinct models of a list by `id`, in first-seen order."""
    return {id(m): m for m in models}


# --------------------------------------------------------------------------
# Vanilla KD
# --------------------------------------------------------------------------


def effective_teachers(student: Model, teachers: list[Model], origin: str) -> list[Model]:
    """Teacher bench for a vanilla run.

    On a public transfer set a frozen copy of the student's own starting
    point joins the bench, anchoring the student to what it already
    knows while it absorbs the external teachers.
    """
    bench = list(teachers)
    if origin in PUBLIC_TRANSFER_OPTIONS:
        bench.append(student.copy())
    return bench


def distill_vanilla(
    student: Model,
    teachers: list[Model],
    transfer: TransferSet,
    cfg: DistillConfig,
    seed: int,
) -> Model:
    """Fixed-parameter distillation against frozen teachers.

    Labeled transfer data trains on (1 - alpha) * CE + alpha * T^2 * KL,
    the CE term at temperature 1 and the KL term against the mean
    teacher distribution at cfg.temperature. Without labels the loss is
    the KL term alone. This is the one-cell case of
    `distill_vanilla_benches`.
    """
    return distill_vanilla_benches([student], [teachers], transfer, cfg, [cfg.alpha], [seed])[0]


def distill_vanilla_benches(
    students: list[Model],
    benches: list[list[Model]],
    transfer: TransferSet,
    cfg: DistillConfig,
    alphas: list[float],
    seeds: list[int],
    temperatures: list[float] | None = None,
) -> list[Model]:
    """Vanilla runs, one per (student, teachers, alpha, seed) cell, each
    at its own temperature, or at cfg.temperature without `temperatures`.

    Each distinct model's logits, a teacher's and on public data those of
    each distinct student's frozen self, are computed once for all cells,
    and its soft targets once per temperature its cells use; a model's
    logits are dropped once those are made. Each cell's target is the
    mean over its own bench, built in place in the stack's one (S, n, C)
    block. Cells that use the same loss terms train together as one
    stack, whatever their temperatures; on labeled data alpha = 0 drops
    the KL term and alpha = 1 the CE term, so those cells form stacks of
    their own. Every returned model is bit-identical to its one-cell
    `distill_vanilla` run at its temperature.
    """
    if temperatures is None:
        temperatures = [cfg.temperature] * len(seeds)
    if not all(benches):
        raise ConfigError("vanilla distillation needs at least one teacher")
    if not len(students) == len(benches) == len(alphas) == len(temperatures) == len(seeds):
        raise ConfigError(
            f"{len(students)} students, {len(benches)} benches, {len(alphas)} alphas, "
            f"{len(temperatures)} temperatures but {len(seeds)} seeds"
        )
    _check_transfer(students[0], transfer)
    # one frozen self per distinct student, shared by all its cells
    own = {i: effective_teachers(s, [], transfer.origin) for i, s in _distinct(students).items()}
    full = [[*bench, *own[id(s)]] for s, bench in zip(students, benches)]
    # the temperatures at which each distinct model's soft targets are used
    used: dict[int, tuple[Model, set[float]]] = {}
    for bench, temperature in zip(full, temperatures):
        for m in bench:
            used.setdefault(id(m), (m, set()))[1].add(temperature)
    probs = {}  # (id of a model, temperature) -> its soft targets
    for i, (m, temps) in used.items():
        logits = forward_logits(m, transfer.features)
        for temperature in temps:
            probs[i, temperature] = softmax(logits, temperature)
    hard = _hard_target(students[0], transfer)
    stacks: dict[tuple[bool, ...], list[int]] = {}
    for i, alpha in enumerate(alphas):
        terms = () if hard is None else (alpha < 1.0, alpha > 0.0)
        stacks.setdefault(terms, []).append(i)
    trained: dict[int, Model] = {}
    for cells in stacks.values():
        soft = np.empty((len(cells), len(transfer), students[0].arch.num_classes))
        for target, i in zip(soft, cells):
            # the bench mean as np.mean gives it: a sum in bench order, then
            # one division, which a bench of one skips (x / 1 is x)
            first, *rest = full[i]
            np.copyto(target, probs[id(first), temperatures[i]])
            if rest:
                for m in rest:
                    target += probs[id(m), temperatures[i]]
                target /= len(full[i])
        models = _distill(
            [students[i] for i in cells], transfer, cfg, [alphas[i] for i in cells],
            [temperatures[i] for i in cells], [seeds[i] for i in cells], hard=hard, soft=soft,
        )
        trained.update(zip(cells, models))
    return [trained[i] for i in range(len(alphas))]


# --------------------------------------------------------------------------
# Deep mutual learning
# --------------------------------------------------------------------------


def distill_dml(
    peer_a: Model,
    peer_b: Model,
    transfer_a: TransferSet,
    transfer_b: TransferSet,
    cfg: DistillConfig,
    seed: int,
) -> tuple[Model, Model]:
    """Two peers teach each other with alternating per-minibatch updates.

    Each peer minimizes CE against its labels plus KL toward the
    partner's current predictions; both terms carry unit weight at
    temperature 1, so cfg.temperature and cfg.alpha are ignored here.
    Peer B's update in each step already sees peer A's fresh parameters.

    The mechanism expects labeled transfer data; unlabeled sets are
    allowed but drop the CE term and raise a warning. When the two
    transfer sets differ in length the peers run in lockstep over the
    shorter batch schedule. This is the one-cell case of
    `distill_dml_cells`.
    """
    (a,), (b,) = distill_dml_cells([peer_a], [peer_b], transfer_a, transfer_b, cfg, [seed])
    return a, b


def distill_dml_cells(
    peers_a: list[Model],
    peers_b: list[Model],
    transfer_a: TransferSet,
    transfer_b: TransferSet,
    cfg: DistillConfig,
    seeds: list[int],
) -> tuple[list[Model], list[Model]]:
    """Mutual-learning runs, one per (peer A, peer B, seed) cell.

    All A peers train on transfer_a and all B peers on transfer_b, so
    the cells step as two stacks in lockstep, each cell shuffling with
    its own generators. Returns the trained A peers and B peers; every
    cell is bit-identical to its one-cell `distill_dml` run.
    """
    if not len(peers_a) == len(peers_b) == len(seeds):
        raise ConfigError(
            f"{len(peers_a)} A peers, {len(peers_b)} B peers but {len(seeds)} seeds"
        )
    _check_transfer(peers_a[0], transfer_a)
    _check_transfer(peers_b[0], transfer_b)
    if not transfer_a.labeled or not transfer_b.labeled:
        warnings.warn(
            "mutual learning without labels drops the supervised term and "
            "tends to degrade both peers",
            stacklevel=2,
        )
    sets = [transfer_a, transfer_b]
    opts = [make_optimizer(cfg, _stack(peers)) for peers in (peers_a, peers_b)]
    hard = [_hard_target(opt.model, t) for opt, t in zip(opts, sets)]
    steps = -(-min(map(len, sets)) // cfg.batch_size)  # the shorter batch schedule
    for epoch in range(1, cfg.epochs + 1):
        # each peer's target is the other's current prediction
        passes = [
            train_steps(
                opts[me], sets[me].features, cfg.batch_size,
                _per_cell(opts[me].model, [rng_for(s, peer, epoch) for s in seeds]),
                hard=hard[me], soft=opts[1 - me].model,
            )
            for me, peer in enumerate(("peer-a", "peer-b"))
        ]
        # A steps, then B against A's fresh parameters; islice stops
        # before zip could step A once more past B's last minibatch
        for _ in islice(zip(*passes), steps):
            pass
        for opt in opts:
            check_finite(opt.model, "after a mutual-learning pass")
    return _unstack(opts[0].model, peers_a), _unstack(opts[1].model, peers_b)


# --------------------------------------------------------------------------
# Mask-routed distillation (frozen-snapshot fallback)
# --------------------------------------------------------------------------


@dataclass(eq=False)
class MaskPair:
    """Per-sample routing between the teacher and the frozen snapshot.

    teacher_mask marks samples answered by the live teacher;
    snapshot_mask is its complement and routes to the frozen copy of the
    student's starting parameters. Confidence ties go to the snapshot.
    """

    teacher_mask: np.ndarray
    snapshot_mask: np.ndarray


def dpkd_masks(
    teacher: Model, snapshot: Model, transfer: TransferSet, supervised: bool
) -> MaskPair:
    """Compare teacher and snapshot confidence once, before training.

    Supervised mode compares the probability each model assigns to the
    ground-truth class; unsupervised mode compares the models' maximum
    class probabilities. The teacher wins only strictly greater
    comparisons, so a tie keeps the sample with the snapshot.
    """
    _check_transfer(teacher, transfer)
    return _route_masks(
        softmax(forward_logits(teacher, transfer.features), 1.0),
        softmax(forward_logits(snapshot, transfer.features), 1.0),
        transfer,
        supervised,
    )


def _route_masks(
    teacher_probs: np.ndarray, snapshot_probs: np.ndarray, transfer: TransferSet, supervised: bool
) -> MaskPair:
    """`dpkd_masks` from the two models' probabilities at temperature 1."""
    if supervised:
        if not transfer.labeled:
            raise ConfigError("supervised mask computation needs a labeled transfer set")
        rows = np.arange(len(transfer))
        teacher_score = teacher_probs[rows, transfer.labels]
        snapshot_score = snapshot_probs[rows, transfer.labels]
    else:
        teacher_score = teacher_probs.max(axis=1)
        snapshot_score = snapshot_probs.max(axis=1)
    teacher_mask = teacher_score > snapshot_score
    return MaskPair(teacher_mask=teacher_mask, snapshot_mask=~teacher_mask)


def masked_targets(
    teacher_probs: np.ndarray,
    snapshot_probs: np.ndarray,
    masks: MaskPair,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample target distribution selected by the mask pair, written
    into `out` if given."""
    if teacher_probs.shape != snapshot_probs.shape:
        raise ShapeError("teacher and snapshot probability shapes differ")
    if out is None:
        out = np.empty_like(snapshot_probs)
    np.copyto(out, snapshot_probs)
    np.copyto(out, teacher_probs, where=masks.teacher_mask[:, None])
    return out


def masked_distillation_loss(
    student_logits: np.ndarray, target_probs: np.ndarray, temperature: float
) -> float:
    """T^2 * mean KL between the tempered student and the routed targets."""
    probs = softmax(student_logits, temperature)
    return temperature**2 * kl_loss(probs, target_probs)


def distill_dpkd(
    student: Model,
    teacher: Model,
    transfer: TransferSet,
    cfg: DistillConfig,
    seed: int,
    supervised: bool = False,
) -> Model:
    """Distill from whichever of (teacher, frozen starting student) was
    more confident per sample.

    Masks are computed once against a frozen snapshot of the student's
    starting parameters and held fixed for the whole run, comparing the
    true class's probability when `supervised` and the top probability
    otherwise (see `dpkd_masks`); the loss is T^2 * mean of mask-routed
    KL terms with no supervised component. This is the one-cell case of
    `distill_dpkd_cells`.
    """
    return distill_dpkd_cells([student], [teacher], transfer, cfg, [seed], supervised)[0]


def _probabilities(model: Model, features: np.ndarray, temperature: float):
    """Softmax of one forward pass at temperature 1 and at `temperature`."""
    logits = forward_logits(model, features)
    at_one = softmax(logits, 1.0)
    return at_one, at_one if temperature == 1.0 else softmax(logits, temperature)


def distill_dpkd_cells(
    students: list[Model],
    teachers: list[Model],
    transfer: TransferSet,
    cfg: DistillConfig,
    seeds: list[int],
    supervised: bool = False,
) -> list[Model]:
    """DPKD runs, one per (student, teacher, seed) cell, as one stack,
    every cell routing by the same rule (`supervised`, see `distill_dpkd`).

    Each distinct model's probabilities, a student's as its snapshot, are
    computed once for all cells, and once for both the masks (temperature
    1) and the targets (cfg.temperature); each cell's routed targets are
    written in place into the stack's one (S, n, C) block. Every returned
    model is bit-identical to its one-cell `distill_dpkd` run.
    """
    if not len(students) == len(teachers) == len(seeds):
        raise ConfigError(
            f"{len(students)} students, {len(teachers)} teachers but {len(seeds)} seeds"
        )
    models = _distinct([*students, *teachers])
    for model in models.values():
        _check_transfer(model, transfer)
    probs = {
        i: _probabilities(m, transfer.features, cfg.temperature) for i, m in models.items()
    }
    soft = np.empty((len(seeds), len(transfer), students[0].arch.num_classes))
    for target, student, teacher in zip(soft, students, teachers):
        (snap_one, snap_t), (teach_one, teach_t) = probs[id(student)], probs[id(teacher)]
        masks = _route_masks(teach_one, snap_one, transfer, supervised)
        masked_targets(teach_t, snap_t, masks, out=target)
    return _distill(
        students, transfer, cfg, [cfg.alpha] * len(seeds), [cfg.temperature] * len(seeds), seeds,
        soft=soft,
    )


# --------------------------------------------------------------------------
# Multi-teacher consolidation
# --------------------------------------------------------------------------


@dataclass(eq=False)
class TeacherWeights:
    """Per-teacher, per-class KL weights.

    Entries are non-negative and each class column sums to at most 1
    (the student's own share of competence absorbs the rest).
    """

    per_teacher: list[np.ndarray]

    def __post_init__(self) -> None:
        self.per_teacher = [np.asarray(w, dtype=np.float64) for w in self.per_teacher]
        if not self.per_teacher:
            raise ConfigError("teacher weights must cover at least one teacher")
        width = self.per_teacher[0].shape
        for w in self.per_teacher:
            if w.ndim != 1 or w.shape != width:
                raise ShapeError("every teacher weight vector must share one length")
            if np.any(w < 0):
                raise ConfigError("teacher weights must be non-negative")
        total = np.sum(self.per_teacher, axis=0)
        if np.any(total > 1.0 + 1e-9):
            raise ConfigError("per-class teacher weights must sum to at most 1")


def adaptive_teacher_weights(
    student_eval: EvalReport, teacher_evals: list[EvalReport]
) -> TeacherWeights:
    """Class-wise competence shares.

    For class c, teacher j gets Acc_j^c / (Acc_student^c + sum_i
    Acc_i^c); a class nobody predicts correctly gets weight 0 for every
    teacher.
    """
    if not teacher_evals:
        raise ConfigError("need at least one teacher evaluation")
    classes = len(student_eval.per_class_accuracy)
    for rep in teacher_evals:
        if len(rep.per_class_accuracy) != classes:
            raise ShapeError("teacher and student reports disagree on class count")
    denom = student_eval.per_class_accuracy.copy()
    for rep in teacher_evals:
        denom = denom + rep.per_class_accuracy
    weights = []
    for rep in teacher_evals:
        w = np.zeros(classes, dtype=np.float64)
        positive = denom > 0
        w[positive] = rep.per_class_accuracy[positive] / denom[positive]
        weights.append(w)
    return TeacherWeights(per_teacher=weights)


def equal_teacher_weights(num_teachers: int, num_classes: int) -> TeacherWeights:
    """Flat 1 / (J + 1) weights; the +1 keeps the student's own share."""
    if num_teachers < 1:
        raise ConfigError("need at least one teacher")
    share = 1.0 / (num_teachers + 1)
    return TeacherWeights(
        per_teacher=[np.full(num_classes, share) for _ in range(num_teachers)]
    )


def weighted_ensemble_kl(
    student_logits: np.ndarray,
    teacher_probs: list[np.ndarray],
    sample_weights: list[np.ndarray],
    temperature: float,
) -> float:
    """T^2 * sum over teachers of the weighted mean per-sample KL."""
    probs = softmax(student_logits, temperature)
    total = 0.0
    for target, w in zip(teacher_probs, sample_weights):
        per_sample = np.sum(target * (_clamped_log(target) - _clamped_log(probs)), axis=1)
        total += float(np.mean(w * per_sample))
    return temperature**2 * total


def merged_teacher_target(
    teacher_probs: list[np.ndarray], sample_weights: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One target q and weight W per sample for the weighted ensemble KL.

    sum_j w_j * (s - t_j) equals W * (s - q) with W = sum_j w_j and
    q = sum_j w_j * t_j / W, so T * W * (s - q) / n is the gradient of
    `weighted_ensemble_kl`. Where W = 0 no teacher speaks and q is 0.
    """
    total = np.sum(sample_weights, axis=0)
    mixed = sum(w[:, None] * t for t, w in zip(teacher_probs, sample_weights))
    target = np.divide(
        mixed, total[:, None], out=np.zeros_like(mixed), where=total[:, None] > 0
    )
    return target, total


def distill_multi_teacher(
    student: Model,
    teachers: list[Model],
    weights: TeacherWeights,
    transfer: TransferSet,
    cfg: DistillConfig,
    seed: int,
) -> Model:
    """Consolidate several teachers into one student.

    Each teacher's KL contribution is scaled per sample by its class
    weight at the class it predicts for that sample. Labeled transfer
    data adds the usual (1 - alpha) CE term; unlabeled data trains on
    the weighted KL sum alone.
    """
    if not teachers:
        raise ConfigError("multi-teacher distillation needs at least one teacher")
    if len(weights.per_teacher) != len(teachers):
        raise ConfigError(
            f"{len(teachers)} teachers but {len(weights.per_teacher)} weight vectors"
        )
    _check_transfer(student, transfer)
    teacher_probs = [
        softmax(forward_logits(t, transfer.features), cfg.temperature) for t in teachers
    ]
    # per-sample weight: the teacher's class weight at its argmax class
    sample_w = [
        w[np.argmax(probs, axis=1)] for w, probs in zip(weights.per_teacher, teacher_probs)
    ]
    soft, total = merged_teacher_target(teacher_probs, sample_w)
    return _distill(
        [student], transfer, cfg, [cfg.alpha], [cfg.temperature], [seed],
        hard=_hard_target(student, transfer), soft=soft, weight=total,
    )[0]
