"""Experiment orchestration: scenarios, pretraining, pairwise transfer.

A Scenario materializes one experimental world: a public pool carved out
of the training data before partitioning, participant shards built by a
partitioning strategy, per-participant train/validation splits (drawn on
first use) and one shared held-out test set. On top of that the
orchestrator runs the full ordered teacher -> student matrix (K
participants give K * (K - 1) pairs), temperature/alpha grid searches,
many-to-one consolidation, and turns experience into method
recommendations via a data-encoded rule table.

`PartitionSpec`, `PoolSpec`, `GridSpec` and `ConsolidateSpec` are both
these steps' recipes and the run configuration's sections of those names:
each states its defaults once, and its rules once, in `problems()`.

Seed policy: every pairwise cell derives its seed from (master seed,
teacher id, student id, method, temperature, alpha), so cells are
independent, reproducible and insensitive to execution order. Grid
cells hash as vanilla runs at their grid point, which makes the default
(1, 0.5) cell bit-identical to the standalone vanilla baseline. On a
transfer set without labels, where alpha never enters the loss, the
search trains only the configured alpha's cells, each bit-identical to
that cell of the full grid.

Cells that share a transfer set train as one stack of models (see
`nn`), which changes no cell's bits; pretraining trains all K
participants as one ragged stack, each on its own shard. In the matrix,
vanilla, DML and DPKD train each group of cells as one stack
(`distill.distill_vanilla_benches`, `distill_dml_cells`,
`distill_dpkd_cells`); the cells of a group differ in student, teacher
and seed. On student_data each student has its own transfer set, so the
K - 1 cells of one student in one (method, option) block form a group.
On a public option every student draws the same set, so the whole
K * (K - 1)-cell block shares its rows and forms one group. There DML's
two ordered cells of a pair {lo, hi} would train the same two peers on
the same rows, so they share one run, that of cell (hi -> lo) and its
seed: peer A is model lo and gives that cell's record, peer B is model
hi and gives the record of (lo -> hi). A group is sorted by student and
split into balanced stacks of at most `STACK_CELLS` runs, both cells of
a pair in one stack (see `STACK_CELLS` for why that width).

The tuned cells of one student and option run their grid searches side
by side (`grid_search_teachers`): the cells each phase of the searches
needs, of every teacher and temperature, train in balanced stacks of at
most `STACK_CELLS`, temperatures mixed, and the tuned method takes each
search's winner instead of training it again. When vanilla is requested
too, a student's vanilla and tuned cells of one option form one group,
and a vanilla record takes the model of the search's grid cell at the
configured (temperature, alpha): the seed policy gives that cell the
vanilla record's seed. Only vanilla cells the search did not train are
trained as a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import (
    PARTITION_STRATEGIES,
    TRANSFER_OPTIONS,
    LabeledDataset,
    PartitionPlan,
    TransferSet,
    build_transfer_set,
    make_partition,
    read_only,
    split_train_val,
    validate_plan,
)
from .distill import (
    DistillConfig,
    adaptive_teacher_weights,
    distill_dml_cells,
    distill_dpkd_cells,
    distill_multi_teacher,
    distill_vanilla_benches,
    equal_teacher_weights,
)
from .errors import ConfigError, DataError
from .metrics import PairResult, build_pair_result, canonical_order, points
from .nn import (
    ArchSpec,
    EvalReport,
    Model,
    TrainConfig,
    check,
    evaluate,
    init_model,
    is_int,
    is_number,
    overall_accuracies,
    raise_problems,
    train_supervised_cells,
)
from .seeding import stable_seed

MATRIX_METHODS = ("vanilla", "dml", "dpkd", "tuned")
START_POLICIES = ("worst", "best", "untrained")
WEIGHTINGS = ("adaptive", "equal")

# The widest stack of vanilla, DML or DPKD runs in the matrix (one run per
# cell, except one DML run per unordered pair on a public option) and of
# a grid search's cells. One minibatch step, kernel and Adam step at
# T = 2 (8 inputs, 64 hidden units, 10 classes, 32 rows; 2 vCPUs, numpy
# 2.4.6 with OpenBLAS), costs about 41 us per cell at 2 cells, 27-30 us at
# 10, 16 and 22, and 32-34 us at 110; each stack also pays its set-up once,
# and the soft targets it holds grow with its width.
STACK_CELLS = 16

DEFAULT_GRID_TEMPERATURES = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0)
DEFAULT_GRID_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(eq=False)
class GridSpec:
    """The temperature/alpha search grid and its search mode; the `grid`
    config section.

    Exhaustive mode trains every (temperature, alpha) cell; `sequential`
    tunes alpha at one anchor temperature first, then temperature at the
    chosen alpha (see `grid_search_tuned`). On a transfer set without
    labels the search reads no `alphas`: it runs every temperature at the
    run's configured alpha, in either mode. The axes may be lists or
    tuples and keep the values given; the search reads them as floats.
    """

    temperatures: list[float] = field(default_factory=lambda: list(DEFAULT_GRID_TEMPERATURES))
    alphas: list[float] = field(default_factory=lambda: list(DEFAULT_GRID_ALPHAS))
    sequential: bool = False

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found: list[str] = []
        ok = isinstance(self.temperatures, (list, tuple)) and self.temperatures and all(
            is_number(t) and t > 0 for t in self.temperatures
        )
        check(found, ok, "temperatures", "must be a non-empty list of positives")
        ok = isinstance(self.alphas, (list, tuple)) and self.alphas and all(
            is_number(a) and 0 <= a <= 1 for a in self.alphas
        )
        check(found, ok, "alphas", "must be a non-empty list of values in [0, 1]")
        check(found, isinstance(self.sequential, bool), "sequential", "must be a boolean")
        return found


@dataclass(eq=False)
class PartitionSpec:
    """How the data left after the pool is split into `k` shards, and each
    shard's validation share; the `partition` config section. A strategy
    reads one more field (see `data.make_partition`)."""

    strategy: str = "uniform"
    k: int = 10
    beta: float = 0.5
    dominant_fraction: float = 0.91
    min_chunk: int = 10
    betas: list[float] | None = None
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found: list[str] = []
        check(found, self.strategy in PARTITION_STRATEGIES, "strategy",
              f"must be one of {PARTITION_STRATEGIES}")
        check(found, is_int(self.k) and self.k >= 1, "k", "must be an integer >= 1")
        check(found, is_number(self.beta) and self.beta > 0, "beta", "must be > 0")
        check(found, is_number(self.dominant_fraction) and 0 < self.dominant_fraction < 1,
              "dominant_fraction", "must lie in (0, 1)")
        check(found, is_int(self.min_chunk) and self.min_chunk >= 1, "min_chunk",
              "must be an integer >= 1")
        if self.betas is not None:
            ok = isinstance(self.betas, list) and len(self.betas) == self.k and all(
                is_number(b) and b > 0 for b in self.betas
            )
            check(found, ok, "betas", f"must be a list of {self.k} positive numbers")
        check(found, is_number(self.val_fraction) and 0 < self.val_fraction < 1,
              "val_fraction", "must lie in (0, 1)")
        return found


@dataclass(eq=False)
class PoolSpec:
    """The public pool's size and each public option's draw from it; the
    `pool` config section."""

    size: int = 600
    labeled: int = 50
    unlabeled_small: int = 50
    unlabeled_large: int = 500

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found: list[str] = []
        for name in ("size", "labeled", "unlabeled_small", "unlabeled_large"):
            value = getattr(self, name)
            check(found, is_int(value) and value >= 1, name, "must be an integer >= 1")
        return found

    def draws(self, option: str) -> int:
        """The samples public transfer option `option` draws from the pool."""
        return {
            "public_labeled": self.labeled,
            "public_unlabeled_small": self.unlabeled_small,
            "public_unlabeled_large": self.unlabeled_large,
        }[option]


@dataclass(eq=False)
class ConsolidateSpec:
    """How `consolidate_models` merges the participants into one model;
    the `consolidate` config section."""

    start_policy: str = "best"
    weighting: str = "adaptive"
    transfer_option: str = "public_unlabeled_large"
    epochs: int = 30

    def __post_init__(self) -> None:
        raise_problems(self)

    def problems(self) -> list[str]:
        """Every type and range finding, as "key: message"."""
        found: list[str] = []
        check(found, self.start_policy in START_POLICIES, "start_policy",
              f"must be one of {START_POLICIES}")
        check(found, self.weighting in WEIGHTINGS, "weighting", f"must be one of {WEIGHTINGS}")
        check(found, self.transfer_option in TRANSFER_OPTIONS, "transfer_option",
              f"must be one of {TRANSFER_OPTIONS}")
        if self.start_policy == "untrained":
            check(found, self.transfer_option != "student_data", "transfer_option",
                  "an untrained start has no own dataset; pick a public option")
        check(found, is_int(self.epochs) and self.epochs >= 1, "epochs",
              "must be an integer >= 1")
        return found


@dataclass(eq=False)
class ParticipantData:
    """One participant's full shard and its stratified train/validation
    split, drawn from `seed` on first access to `train` or `val` and kept.
    Federated runs train on the whole `shard`; a stage that never reads a
    participant's split never draws it. The split's arrays are read-only,
    like the shard's (see `scenario_from_plan`)."""

    shard: LabeledDataset
    val_fraction: float
    seed: int

    @cached_property
    def _split(self) -> tuple[LabeledDataset, LabeledDataset]:
        split = split_train_val(self.shard, self.val_fraction, self.seed)
        for part in split:
            read_only(part.features, part.labels)
        return split

    @property
    def train(self) -> LabeledDataset:
        return self._split[0]

    @property
    def val(self) -> LabeledDataset:
        return self._split[1]


@dataclass(eq=False)
class Scenario:
    """One materialized experimental world.

    `participants[i].shard` is participant i's data, the rows
    `participant_indices[i]` of the training set; its train/validation
    split is drawn lazily (see `ParticipantData`).
    """

    label: str
    participants: list[ParticipantData]
    test: LabeledDataset
    public_pool: LabeledDataset
    pool_indices: np.ndarray
    remainder_indices: np.ndarray
    participant_indices: list[np.ndarray]
    partition: PartitionPlan

    @property
    def k(self) -> int:
        return len(self.participants)


def carve_public_pool(
    train_data: LabeledDataset, pool_size: int, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reserve the public pool before any partitioning.

    Returns (pool indices, remainder indices), both into train_data and
    mutually disjoint by construction.
    """
    if not 0 < pool_size < len(train_data):
        raise ConfigError(
            f"pool size must lie in (0, {len(train_data)}), got {pool_size}"
        )
    rng = np.random.default_rng(stable_seed(master_seed, "public-pool"))
    pool = np.sort(rng.choice(len(train_data), size=pool_size, replace=False))
    mask = np.ones(len(train_data), dtype=bool)
    mask[pool] = False
    return pool.astype(np.int64), np.flatnonzero(mask).astype(np.int64)


def scenario_from_plan(
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    plan: PartitionPlan,
    pool_indices: np.ndarray,
    remainder_indices: np.ndarray,
    val_fraction: float,
    master_seed: int,
    label: str | None = None,
) -> Scenario:
    """Assemble a Scenario from a persisted plan and pool reservation.

    No shard is split here; each participant splits on first use. Every
    array made here is read-only: a Scenario is a stage's input, and the
    command line shares one between the commands of a process.
    """
    pool_indices = np.array(pool_indices, dtype=np.int64)
    remainder_indices = np.array(remainder_indices, dtype=np.int64)
    public_pool = train_data.subset(pool_indices)
    read_only(pool_indices, remainder_indices, public_pool.features, public_pool.labels)
    participants = []
    participant_indices = []
    for i, shard in enumerate(plan.participants):
        global_idx = remainder_indices[shard]
        participant_indices.append(global_idx)
        data = train_data.subset(global_idx)
        read_only(global_idx, data.features, data.labels)
        participants.append(ParticipantData(
            shard=data,
            val_fraction=val_fraction,
            seed=stable_seed(master_seed, "participant-split", i),
        ))
    return Scenario(
        label=label if label is not None else plan.strategy,
        participants=participants,
        test=test_data,
        public_pool=public_pool,
        pool_indices=pool_indices,
        remainder_indices=remainder_indices,
        participant_indices=participant_indices,
        partition=plan,
    )


def plan_partition(
    train_data: LabeledDataset,
    partition: PartitionSpec,
    pool: PoolSpec,
    master_seed: int,
) -> tuple[PartitionPlan, np.ndarray, np.ndarray]:
    """Carve the pool, then partition and validate the remainder.

    Returns (plan, pool indices, remainder indices); the plan indexes
    into the remainder.
    """
    pool_idx, remainder_idx = carve_public_pool(train_data, pool.size, master_seed)
    remainder = train_data.subset(remainder_idx)
    plan = make_partition(remainder, partition, stable_seed(master_seed, "partition"))
    validate_plan(plan, len(remainder))
    return plan, pool_idx, remainder_idx


def build_scenario(
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    partition: PartitionSpec,
    pool: PoolSpec,
    master_seed: int,
    label: str | None = None,
) -> Scenario:
    """`plan_partition`, then `scenario_from_plan`."""
    plan, pool_idx, remainder_idx = plan_partition(train_data, partition, pool, master_seed)
    return scenario_from_plan(
        train_data,
        test_data,
        plan,
        pool_idx,
        remainder_idx,
        partition.val_fraction,
        master_seed,
        label=label,
    )


# --------------------------------------------------------------------------
# Pre-training
# --------------------------------------------------------------------------


def participant_arch(scenario: Scenario, hidden_layers: tuple[int, ...]) -> ArchSpec:
    return ArchSpec(
        input_dim=scenario.test.feature_dim,
        hidden_layers=tuple(hidden_layers),
        num_classes=scenario.test.class_count,
    )


def pretrain_participants(
    scenario: Scenario,
    hidden_layers: tuple[int, ...],
    cfg: TrainConfig,
    master_seed: int,
) -> list[tuple[Model, EvalReport]]:
    """Train one model per participant on its own shard.

    Each participant gets its own init seed derived from the master
    seed, trains with early stopping on its validation split, and is
    evaluated on the shared test set. All participants train side by
    side as one ragged stack (`nn.train_supervised_cells`), each
    bit-identical to its own `train_supervised` run.
    """
    arch = participant_arch(scenario, hidden_layers)
    parts = scenario.participants
    models = [
        init_model(arch, stable_seed(master_seed, "participant-init", i))
        for i in range(len(parts))
    ]
    trained = train_supervised_cells(
        models, [p.train for p in parts], [p.val for p in parts], cfg
    )
    return [(model, evaluate(model, scenario.test)) for model in trained]


# --------------------------------------------------------------------------
# Pairwise matrix
# --------------------------------------------------------------------------


def pair_seed(
    master_seed: int,
    teacher_id: int,
    student_id: int,
    method: str,
    temperature: float,
    alpha: float,
) -> int:
    """Seed for one pairwise cell; the documented seed policy."""
    return stable_seed(
        master_seed, "pair", teacher_id, student_id, method, float(temperature), float(alpha)
    )


def transfer_set_for(
    scenario: Scenario,
    option: str,
    student_id: int | None,
    pool: PoolSpec,
    master_seed: int,
) -> TransferSet:
    """One transfer option's set for one student: read-only views of the
    student's own training split for student_data, otherwise the
    public-pool draw every student shares (`student_id` is then unused)."""
    if option == "student_data":
        train = scenario.participants[student_id].train
        return build_transfer_set(option, None, train, pool, 0)
    return build_transfer_set(
        option, scenario.public_pool, None, pool, stable_seed(master_seed, "transfer-sample")
    )


@dataclass(eq=False)
class PairCell:
    """One teacher -> student transfer of the matrix, sent whole to a worker."""

    scenario: str
    method: str
    option: str
    teacher_id: int
    student_id: int
    teacher: Model
    teacher_eval: EvalReport
    student: Model
    student_eval: EvalReport
    student_val: LabeledDataset
    transfer: TransferSet
    test: LabeledDataset
    cfg: DistillConfig
    grid: GridSpec | None
    master_seed: int

    def seed(self, method: str, temperature: float, alpha: float) -> int:
        return pair_seed(
            self.master_seed, self.teacher_id, self.student_id, method, temperature, alpha
        )


def _dml_run(cell: PairCell) -> tuple[tuple[int, int], tuple[Model, Model]]:
    """The mutual-learning run whose peer is `cell`'s record: its (peer A,
    peer B) ids and models. On student_data that is the cell's own run,
    peer A its student. On a public option the cells (hi -> lo) and
    (lo -> hi) train the same two models on one set, so both read the run
    of cell (hi -> lo), peer A model lo."""
    if cell.option != "student_data" and cell.teacher_id < cell.student_id:
        return (cell.teacher_id, cell.student_id), (cell.teacher, cell.student)
    return (cell.student_id, cell.teacher_id), (cell.student, cell.teacher)


def _train_stack(cells: list[PairCell]) -> tuple[float, float, list[Model]]:
    """The (temperature, alpha) recorded for a stack of vanilla, DML or
    DPKD cells of one method and one transfer set, and the models it
    trains; each cell starts from its own student. DML trains one run
    per `_dml_run` in the stack, and each cell takes the run's peer that
    started from its student: on a public option the cell (lo -> hi)
    takes peer B of the run of (hi -> lo), both cells of a pair sharing
    that run."""
    head = cells[0]
    cfg = head.cfg
    temperature, alpha = cfg.temperature, cfg.alpha
    students = [cell.student for cell in cells]
    teachers = [cell.teacher for cell in cells]
    if head.method == "vanilla":
        seeds = [cell.seed("vanilla", temperature, alpha) for cell in cells]
        distilled = distill_vanilla_benches(
            students, [[t] for t in teachers], head.transfer, cfg, [alpha] * len(cells), seeds
        )
    elif head.method == "dml":
        # mutual learning has no temperature/alpha knobs; record the
        # canonical baseline values
        temperature, alpha = 1.0, 0.5
        runs = {}  # (peer A's id, peer B's id) -> (peer A, peer B)
        keys = []
        for cell in cells:
            key, peers = _dml_run(cell)
            runs.setdefault(key, peers)
            keys.append(key)
        seeds = [
            pair_seed(head.master_seed, b, a, "dml", temperature, alpha) for a, b in runs
        ]
        peers_a, peers_b = distill_dml_cells(
            [a for a, _ in runs.values()], [b for _, b in runs.values()], head.transfer, cfg, seeds
        )
        trained = dict(zip(runs, zip(peers_a, peers_b)))
        # peer A started from model key[0], peer B from model key[1]
        distilled = [
            trained[key][key[0] != cell.student_id] for cell, key in zip(cells, keys)
        ]
    else:
        seeds = [cell.seed("dpkd", temperature, alpha) for cell in cells]
        distilled = distill_dpkd_cells(
            students, teachers, head.transfer, cfg, seeds,
            supervised=head.option == "public_labeled",
        )
    return temperature, alpha, distilled


def _run_group(cells: list[PairCell]) -> list[PairResult]:
    """Records of one group: cells of one method and one transfer set
    (see `run_pairwise_matrix`), or one student's vanilla and tuned cells
    of one option together. The tuned cells' searches run side by side;
    the rest train as one stack."""
    head = cells[0]
    cfg = head.cfg
    trained: dict[int, tuple[float, float, Model]] = {}  # by id(cell)
    tuned = [cell for cell in cells if cell.method == "tuned"]
    if tuned:
        if head.grid is None:
            raise ConfigError("tuned method needs a search grid")
        keep = (cfg.temperature, cfg.alpha)
        searches = grid_search_teachers(
            head.student,
            [cell.teacher for cell in tuned],
            head.transfer,
            head.grid,
            cfg,
            head.student_val,
            [lambda t, a, cell=cell: cell.seed("vanilla", t, a) for cell in tuned],
            keep=keep,
        )
        shared = {}
        for cell, search in zip(tuned, searches):
            trained[id(cell)] = (search.best_temperature, search.best_alpha, search.best_model)
            if search.kept_model is not None:
                shared[cell.teacher_id] = (*keep, search.kept_model)
        for cell in cells:
            if cell.method == "vanilla" and cell.teacher_id in shared:
                trained[id(cell)] = shared[cell.teacher_id]
    rest = [cell for cell in cells if id(cell) not in trained]
    if rest:
        temperature, alpha, models = _train_stack(rest)
        for cell, model in zip(rest, models):
            trained[id(cell)] = (temperature, alpha, model)
    records = []
    for cell in cells:
        temperature, alpha, model = trained[id(cell)]
        records.append(build_pair_result(
            cell.scenario,
            cell.method,
            cell.option,
            cell.teacher_id,
            cell.student_id,
            temperature,
            alpha,
            cell.student_eval,
            evaluate(model, cell.test),
            cell.teacher_eval,
        ))
    return records


def run_pairwise_matrix(
    pretrained: list[tuple[Model, EvalReport]] | dict[int, tuple[Model, EvalReport]],
    scenario: Scenario,
    methods: list[str],
    transfer_options: list[str],
    cfg: DistillConfig,
    grid: GridSpec | None,
    pool: PoolSpec,
    master_seed: int,
    jobs: int = 1,
    pairs: list[tuple[int, int]] | None = None,
) -> list[PairResult]:
    """Every ordered teacher -> student pair for every method and option.

    With K participants each (method, option) block holds exactly
    K * (K - 1) records; self-transfers are excluded. `pairs` restricts
    the run to the given (teacher, student) pairs. `pretrained` holds
    participant i's (model, report) at index or key i; it needs an entry
    for every participant in `pairs`, or for all K without `pairs`. Each
    record's pre-distillation evaluation is the stored pre-training
    report, not a recomputation. The vanilla, DML and DPKD cells of one
    (method, option) block train in stacks, each run with its own seed
    under the seed policy, so a record does not depend on which other
    pairs run beside it. Each cell is one run, except on a public option
    under DML: there the cells (hi -> lo) and (lo -> hi) train the same
    two models on one set, so they share the run of cell (hi -> lo),
    whose peer A (model lo) is that cell's record and whose peer B
    (model hi) is the record of (lo -> hi). On student_data a student's
    cells form a group, on a public option the whole block does; each
    group is sorted by student and split into balanced stacks of at most
    `STACK_CELLS` runs, both cells of a pair in one stack, so a one-pair
    run trains the same run as the full matrix. A student's tuned cells
    of one option search side by side, and its vanilla cells of that
    option join them (see the module docstring). Groups are independent,
    so `jobs` > 1 fans them out over processes without changing any
    result. The tuned method searches `grid`, in its own mode.
    """
    if pairs is None:
        need = set(range(scenario.k))
        pairs = [(t, s) for t in range(scenario.k) for s in range(scenario.k) if t != s]
    else:
        need = {i for pair in pairs for i in pair}
    have = set(pretrained) if isinstance(pretrained, dict) else set(range(len(pretrained)))
    if not need <= have <= set(range(scenario.k)):
        raise ConfigError(
            f"pretrained models for participants {sorted(have)}; "
            f"this run of {scenario.k} participants needs {sorted(need)}"
        )
    for m in methods:
        if m not in MATRIX_METHODS:
            raise ConfigError(f"unknown method {m!r}; choose one of {MATRIX_METHODS}")
    # one set per public option, which every student draws, and one per
    # student on student_data, which all of that student's cells share
    public = {
        option: transfer_set_for(scenario, option, None, pool, master_seed)
        for option in transfer_options
        if option != "student_data"
    }
    own = {
        student_id: transfer_set_for(scenario, "student_data", student_id, pool, master_seed)
        for student_id in sorted({s for _, s in pairs})
        if "student_data" in transfer_options
    }
    cells = [
        PairCell(
            scenario=scenario.label,
            method=method,
            option=option,
            teacher_id=teacher_id,
            student_id=student_id,
            teacher=pretrained[teacher_id][0],
            teacher_eval=pretrained[teacher_id][1],
            student=pretrained[student_id][0],
            student_eval=pretrained[student_id][1],
            student_val=scenario.participants[student_id].val,
            transfer=public[option] if option in public else own[student_id],
            test=scenario.test,
            cfg=cfg,
            grid=grid,
            master_seed=master_seed,
        )
        for method in methods
        for option in transfer_options
        for teacher_id, student_id in pairs
    ]
    blocks: dict[tuple, list[PairCell]] = {}
    for cell in cells:
        # vanilla cells join the tuned searches, which train their grid cell
        method = "tuned" if cell.method == "vanilla" and "tuned" in methods else cell.method
        # searches and student_data runs are per student; public rows are shared
        per_student = method == "tuned" or cell.option not in public
        key = (method, cell.option, cell.student_id if per_student else None)
        blocks.setdefault(key, []).append(cell)
    groups = []
    for (method, _, _), block in blocks.items():
        if method == "tuned":
            groups.append(block)
            continue
        # a stack is split by runs: one per cell, except that both cells
        # of a pair in a public DML block share one run and one stack
        runs: dict = {}
        for cell in sorted(block, key=lambda c: c.student_id):
            runs.setdefault(_dml_run(cell)[0] if method == "dml" else id(cell), []).append(cell)
        groups += [
            [cell for run in stack for cell in run]
            for stack in _balanced(list(runs.values()), STACK_CELLS)
        ]
    if jobs > 1:
        # imported here: a run at jobs = 1 never loads the worker pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_group, groups))
    else:
        done = [_run_group(group) for group in groups]
    return canonical_order([record for records in done for record in records])


def _balanced(items: list, most: int) -> list[list]:
    """`items` in order, split into the fewest runs of at most `most`,
    whose lengths differ by at most one (the longer runs first)."""
    count = -(-len(items) // most)
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# --------------------------------------------------------------------------
# Grid search
# --------------------------------------------------------------------------


@dataclass(eq=False)
class GridSearchResult:
    """The searched surface, its argmax, the model the argmax cell trained
    and that of the cell the search was asked to keep, if it trained that
    cell. The models are None where `_search`'s cell callback returns
    none."""

    best_temperature: float
    best_alpha: float
    surface: dict[tuple[float, float], float]
    best_model: Model | None = None
    kept_model: Model | None = None


def _rank(key: tuple[float, float], gain: float) -> tuple:
    """(-gain, key): the search's order of cells, lowest first, is highest
    gain, then smaller temperature, then smaller alpha."""
    return (-gain, key)


def argmax_surface(surface: dict[tuple[float, float], float]) -> tuple[float, float]:
    """The surface's first cell in the order of `_rank`."""
    if not surface:
        raise ConfigError("empty gain surface")
    return min(surface, key=lambda key: _rank(key, surface[key]))


def _search(count: int, grid: GridSpec, run_cells, keep=None) -> list[GridSearchResult]:
    """The one search loop: `count` searches over `grid`, side by side.

    Each search visits the cells `grid_search_tuned` describes, in the
    grid's mode: exhaustive mode in one phase, every (temperature, alpha)
    cell; sequential mode in two, the anchor temperature's row, then each
    other temperature at the search's chosen alpha. One call
    `run_cells(cells)` per phase gets that phase's cells of every
    search, temperatures mixed, as (search, temperature, alpha) with
    float values whatever the grid holds, ordered by temperature, then
    search, then alpha; it returns or yields one (gain, model or None)
    per cell, in order, and each is read before the next is asked for.
    Only each search's best cell so far (by `_rank`) and its model are
    kept, and the model of its `keep` cell.
    """
    surfaces: list[dict[tuple[float, float], float]] = [{} for _ in range(count)]
    best: list[tuple | None] = [None] * count  # (rank, model) of the best cell so far
    kept: list[Model | None] = [None] * count

    def search(cells: list[tuple[int, float, float]]) -> None:
        for (i, t, a), (gain, model) in zip(cells, run_cells(cells)):
            key = (t, a)
            surfaces[i][key] = gain
            rank = _rank(key, gain)
            if best[i] is None or rank < best[i][0]:
                best[i] = (rank, model)
            if key == keep:
                kept[i] = model

    temperatures = sorted({float(t) for t in grid.temperatures})
    alphas = sorted({float(a) for a in grid.alphas})
    if grid.sequential:
        anchor = 1.0 if 1.0 in temperatures else temperatures[len(temperatures) // 2]
        search([(i, anchor, a) for i in range(count) for a in alphas])
        best_alphas = [argmax_surface(surface)[1] for surface in surfaces]
        rest = [
            (i, t, a)
            for t in temperatures
            for i, a in enumerate(best_alphas)
            if (t, a) not in surfaces[i]
        ]
        if rest:
            search(rest)
    else:
        search([(i, t, a) for t in temperatures for i in range(count) for a in alphas])
    return [
        GridSearchResult(*key, surface, model, kept_model)
        for surface, ((_, key), model), kept_model in zip(surfaces, best, kept)
    ]


def grid_search_teachers(
    student: Model,
    teachers: list[Model],
    transfer: TransferSet,
    grid: GridSpec,
    cfg: DistillConfig,
    select_data: LabeledDataset,
    seed_fns: list,
    keep: tuple[float, float] | None = None,
) -> list[GridSearchResult]:
    """`grid_search_tuned` for each teacher of one student, side by side.

    Teacher i's cells take their seeds from seed_fns[i]. The cells each
    phase of `_search` needs, of every teacher and temperature, train in
    order in balanced stacks of at most `STACK_CELLS`, temperatures mixed
    (`distill_vanilla_benches` with one temperature per cell), and each
    stack is scored with one stacked forward pass and handed back before
    the next trains, so a phase holds one stack's models at a time. Every
    cell is bit-identical to its own `distill_vanilla` run, so each
    result equals the one-teacher search. A result's `kept_model` is the
    model of its `keep` cell, if the search trained that cell.

    Without labels the KL term trains alone and alpha never enters the
    loss, so each alpha would train the same cell under another seed, and
    the search would pick a seed, not an alpha. On such a set only the
    temperatures are searched, every cell at `cfg.alpha`.
    """
    if not transfer.labeled:
        grid = replace(grid, alphas=[cfg.alpha])
    pre_acc = evaluate(student, select_data).overall_accuracy

    def train(stack: list[tuple[int, float, float]]) -> list[tuple[float, Model]]:
        models = distill_vanilla_benches(
            [student] * len(stack), [[teachers[i]] for i, _, _ in stack], transfer, cfg,
            [a for _, _, a in stack], [seed_fns[i](t, a) for i, t, a in stack],
            [t for _, t, _ in stack],
        )
        accs = overall_accuracies(models, select_data)
        return [(points(pre_acc, acc), model) for acc, model in zip(accs, models)]

    def run_cells(cells: list[tuple[int, float, float]]):
        # no name holds a stack's models once they are read, so the next
        # stack trains beside only the models `_search` keeps
        for stack in _balanced(cells, STACK_CELLS):
            yield from train(stack)

    return _search(len(teachers), grid, run_cells, keep)


def grid_search_tuned(
    student: Model,
    teacher: Model,
    transfer: TransferSet,
    grid: GridSpec,
    cfg: DistillConfig,
    select_data: LabeledDataset,
    seed_fn,
) -> GridSearchResult:
    """Search the temperature/alpha grid for the best vanilla-KD setting.

    Every cell runs the same vanilla distillation, differing only in
    (temperature, alpha) and the cell seed produced by seed_fn; the gain
    used for selection is measured on select_data (the student's
    validation split in orchestrated runs). Exhaustive mode scans the
    full Cartesian product; sequential mode (`grid.sequential`) tunes
    alpha first at temperature 1, or at the median temperature when 1 is
    off the grid, then temperature at the chosen alpha, trading
    optimality for a linear number of cells. On a transfer set without
    labels alpha never enters the loss, so both modes scan the
    temperatures at cfg.alpha alone and the result reports cfg.alpha.

    This is the one-teacher case of `grid_search_teachers`: the cells of
    each phase train in stacks across temperatures, sharing each model's
    logits and its soft targets per temperature, each cell bit-identical
    to its own `distill_vanilla` run. Only the best model so far is kept,
    and returned as `best_model`.
    """
    return grid_search_teachers(
        student, [teacher], transfer, grid, cfg, select_data, [seed_fn]
    )[0]


# --------------------------------------------------------------------------
# Aggregation over results
# --------------------------------------------------------------------------


def best_teacher_frequency(results: list[PairResult]) -> dict[int, int]:
    """How often each teacher produced a student's highest gain.

    Per student the winning teacher is the one with the maximum gain,
    ties going to the lowest teacher id; the returned counts cover every
    teacher appearing in the results, including zero-count ones, and sum
    to the number of distinct students.
    """
    if not results:
        raise DataError("no results to aggregate")
    by_student: dict[int, list[PairResult]] = {}
    teachers: set[int] = set()
    for r in results:
        by_student.setdefault(r.student_id, []).append(r)
        teachers.add(r.teacher_id)
    counts = {t: 0 for t in sorted(teachers)}
    for student_id in sorted(by_student):
        rows = by_student[student_id]
        best = max(rows, key=lambda r: (r.gain_points, -r.teacher_id))
        counts[best.teacher_id] += 1
    return counts


# --------------------------------------------------------------------------
# Method recommendation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferContext:
    """What is known about a transfer situation before choosing a method."""

    teacher_strength: str = "strong"  # weak | comparable | strong
    transfer_labeled: bool = False
    student_data_available: bool = False
    tuning_budget: bool = False


@dataclass(frozen=True)
class Recommendation:
    method: str
    reason: str


# Ordered rule table; the first rule whose `when` clause matches the
# context wins. Callers may pass their own table, so policy changes are
# configuration, not code edits. The unlabeled guard sits above the
# weak-teacher rule on purpose: mutual learning is never recommended
# without labels or student data.
DEFAULT_RECOMMENDATION_RULES: list[dict] = [
    {
        "when": {"tuning_budget": True},
        "method": "tuned",
        "reason": "a searched temperature/alpha setting dominates any fixed choice",
    },
    {
        "when": {"transfer_labeled": False, "student_data_available": False},
        "method": "vanilla",
        "reason": "without labels or local data mutual learning degrades; "
        "fixed-parameter distillation is the safe default",
    },
    {
        "when": {"teacher_strength": "weak"},
        "method": "dml",
        "reason": "mutual learning recovers positive transfer from a weaker "
        "teacher when labeled or local data is available",
    },
    {
        "when": {},
        "method": "vanilla",
        "reason": "with a comparable or stronger teacher the fixed-parameter "
        "baseline transfers reliably",
    },
]


def recommend_kd_method(
    context: TransferContext, rules: list[dict] | None = None
) -> Recommendation:
    """Pick a transfer method for a context via the ordered rule table."""
    if context.teacher_strength not in ("weak", "comparable", "strong"):
        raise ConfigError(
            f"teacher_strength must be weak, comparable or strong, "
            f"got {context.teacher_strength!r}"
        )
    table = DEFAULT_RECOMMENDATION_RULES if rules is None else rules
    for rule in table:
        if all(getattr(context, key) == value for key, value in rule["when"].items()):
            return Recommendation(method=rule["method"], reason=rule["reason"])
    raise ConfigError("no recommendation rule matched the context")


# --------------------------------------------------------------------------
# Consolidation
# --------------------------------------------------------------------------


def consolidate_models(
    pretrained: list[tuple[Model, EvalReport]],
    scenario: Scenario,
    spec: ConsolidateSpec,
    cfg: DistillConfig,
    pool: PoolSpec,
    master_seed: int,
) -> tuple[Model, EvalReport]:
    """Merge every participant's knowledge into one model by distillation.

    The starting student is the worst participant, the best one, or a
    fresh untrained model; all remaining participants teach. Teacher
    weights are either class-wise competence shares or flat 1 / (J + 1).
    """
    if len(pretrained) < 2:
        raise ConfigError("consolidation needs at least two participants")

    overall = [rep.overall_accuracy for _, rep in pretrained]
    if spec.start_policy == "worst":
        chosen = int(np.argmin(overall))
    elif spec.start_policy == "best":
        chosen = int(np.argmax(overall))
    else:
        chosen = None

    if chosen is None:
        arch = pretrained[0][0].arch
        student = init_model(arch, stable_seed(master_seed, "consolidation-init"))
        student_eval = evaluate(student, scenario.test)
        teachers = [m for m, _ in pretrained]
        teacher_evals = [rep for _, rep in pretrained]
    else:
        student = pretrained[chosen][0]
        student_eval = pretrained[chosen][1]
        teachers = [m for i, (m, _) in enumerate(pretrained) if i != chosen]
        teacher_evals = [rep for i, (_, rep) in enumerate(pretrained) if i != chosen]

    if spec.weighting == "adaptive":
        weights = adaptive_teacher_weights(student_eval, teacher_evals)
    else:
        weights = equal_teacher_weights(len(teachers), scenario.test.class_count)

    option = spec.transfer_option
    transfer = transfer_set_for(scenario, option, chosen, pool, master_seed)
    run_cfg = replace(cfg, epochs=spec.epochs)
    seed = stable_seed(master_seed, "consolidate", spec.start_policy, spec.weighting, option)
    merged = distill_multi_teacher(student, teachers, weights, transfer, run_cfg, seed)
    return merged, evaluate(merged, scenario.test)
