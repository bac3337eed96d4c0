"""Experiment orchestration: scenarios, pretraining, pairwise transfer.

A Scenario materializes one experimental world: a public pool carved out
of the training data before partitioning, participant shards built by a
partitioning strategy, per-participant train/validation splits (drawn on
first use) and one shared held-out test set. On top of that the
orchestrator runs the full ordered teacher -> student matrix (K
participants give K * (K - 1) pairs), temperature/alpha grid searches,
many-to-one consolidation, and turns experience into method
recommendations via a data-encoded rule table.

Seed policy: every pairwise cell derives its seed from (master seed,
teacher id, student id, method, temperature, alpha), so cells are
independent, reproducible and insensitive to execution order. Grid
cells hash as vanilla runs at their grid point, which makes the default
(1, 0.5) cell bit-identical to the standalone vanilla baseline.

Cells that share a starting point train as one stack of models (see
`nn`), which changes no cell's bits; pretraining trains all K
participants as one ragged stack, each on its own shard. In the matrix,
the K - 1 cells of one student in one (method, option) block form a
group: they share the student's parameters and the transfer set and
differ only in teacher and seed, so vanilla, DML and DPKD train each
group as one stack (`distill.distill_vanilla_benches`,
`distill_dml_cells`, `distill_dpkd_cells`). The tuned cells of a group run their grid
searches side by side (`grid_search_teachers`): each temperature row
trains every teacher's cells as one stack, and the tuned method takes
each search's winner instead of training it again. When vanilla is
requested too, a student's vanilla and tuned cells of one option form
one group, and a vanilla record takes the model of the search's grid
cell at the configured (temperature, alpha): the seed policy gives that
cell the vanilla record's seed. Only vanilla cells the search did not
train are trained as a stack.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import (
    LabeledDataset,
    PartitionPlan,
    TransferSet,
    TransferSizes,
    build_transfer_set,
    make_partition,
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
from .metrics import PairResult, build_pair_result, canonical_order
from .nn import (
    ArchSpec,
    EvalReport,
    Model,
    TrainConfig,
    check,
    evaluate,
    init_model,
    is_number,
    overall_accuracies,
    raise_problems,
    train_supervised_cells,
)
from .seeding import stable_seed

MATRIX_METHODS = ("vanilla", "dml", "dpkd", "tuned")
START_POLICIES = ("worst", "best", "untrained")
WEIGHTINGS = ("adaptive", "equal")

DEFAULT_GRID_TEMPERATURES = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0)
DEFAULT_GRID_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(eq=False)
class GridSpec:
    """The temperature/alpha search grid and its search mode; the `grid`
    config section.

    Exhaustive mode trains every (temperature, alpha) cell; `sequential`
    tunes alpha at one anchor temperature first, then temperature at the
    chosen alpha (see `grid_search_tuned`). The axes may be lists or
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
class ParticipantData:
    """One participant's full shard and its stratified train/validation
    split, drawn from `seed` on first access to `train` or `val` and kept.
    Federated runs train on the whole `shard`; a stage that never reads a
    participant's split never draws it."""

    shard: LabeledDataset
    val_fraction: float
    seed: int

    @cached_property
    def _split(self) -> tuple[LabeledDataset, LabeledDataset]:
        return split_train_val(self.shard, self.val_fraction, self.seed)

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

    No shard is split here; each participant splits on first use.
    """
    pool_indices = np.asarray(pool_indices, dtype=np.int64)
    remainder_indices = np.asarray(remainder_indices, dtype=np.int64)
    participants = []
    participant_indices = []
    for i, shard in enumerate(plan.participants):
        global_idx = remainder_indices[shard]
        participant_indices.append(global_idx)
        participants.append(ParticipantData(
            shard=train_data.subset(global_idx),
            val_fraction=val_fraction,
            seed=stable_seed(master_seed, "participant-split", i),
        ))
    return Scenario(
        label=label if label is not None else plan.strategy,
        participants=participants,
        test=test_data,
        public_pool=train_data.subset(pool_indices),
        pool_indices=pool_indices,
        remainder_indices=remainder_indices,
        participant_indices=participant_indices,
        partition=plan,
    )


def plan_partition(
    train_data: LabeledDataset,
    strategy: str,
    k: int,
    partition_params: dict,
    pool_size: int,
    master_seed: int,
) -> tuple[PartitionPlan, np.ndarray, np.ndarray]:
    """Carve the pool, then partition and validate the remainder.

    Returns (plan, pool indices, remainder indices); the plan indexes
    into the remainder.
    """
    pool_idx, remainder_idx = carve_public_pool(train_data, pool_size, master_seed)
    remainder = train_data.subset(remainder_idx)
    plan = make_partition(
        remainder, strategy, k, partition_params, stable_seed(master_seed, "partition")
    )
    validate_plan(plan, len(remainder))
    return plan, pool_idx, remainder_idx


def build_scenario(
    train_data: LabeledDataset,
    test_data: LabeledDataset,
    strategy: str,
    k: int,
    partition_params: dict,
    pool_size: int,
    val_fraction: float,
    master_seed: int,
    label: str | None = None,
) -> Scenario:
    """`plan_partition`, then `scenario_from_plan`."""
    plan, pool_idx, remainder_idx = plan_partition(
        train_data, strategy, k, partition_params, pool_size, master_seed
    )
    return scenario_from_plan(
        train_data,
        test_data,
        plan,
        pool_idx,
        remainder_idx,
        val_fraction,
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
    sizes: TransferSizes,
    master_seed: int,
) -> TransferSet:
    """One transfer option's set for one student: a copy of the student's
    own training data for student_data, otherwise the public-pool draw
    every student shares (`student_id` is then unused)."""
    if option == "student_data":
        train = scenario.participants[student_id].train
        return build_transfer_set(option, None, train, sizes, 0)
    return build_transfer_set(
        option, scenario.public_pool, None, sizes, stable_seed(master_seed, "transfer-sample")
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


def _train_stack(cells: list[PairCell]) -> tuple[float, float, list[Model]]:
    """The (temperature, alpha) recorded for a stack of one student's
    vanilla, DML or DPKD cells of one option, and the models it trains."""
    head = cells[0]
    cfg = head.cfg
    temperature, alpha = cfg.temperature, cfg.alpha
    teachers = [cell.teacher for cell in cells]
    if head.method == "vanilla":
        seeds = [cell.seed("vanilla", temperature, alpha) for cell in cells]
        distilled = distill_vanilla_benches(
            head.student, [[t] for t in teachers], head.transfer, cfg,
            [alpha] * len(cells), seeds,
        )
    elif head.method == "dml":
        # mutual learning has no temperature/alpha knobs; record the
        # canonical baseline values
        temperature, alpha = 1.0, 0.5
        seeds = [cell.seed("dml", temperature, alpha) for cell in cells]
        distilled, _ = distill_dml_cells(
            [head.student] * len(cells), teachers, head.transfer, head.transfer, cfg, seeds
        )
    else:
        seeds = [cell.seed("dpkd", temperature, alpha) for cell in cells]
        distilled = distill_dpkd_cells(
            head.student, teachers, head.transfer, cfg, seeds,
            supervised=head.option == "public_labeled",
        )
    return temperature, alpha, distilled


def _run_group(cells: list[PairCell]) -> list[PairResult]:
    """Records of one group: one student's cells of one option and one
    method, or its vanilla and tuned cells together. The tuned cells'
    searches run side by side; the rest train as one stack."""
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
    sizes: TransferSizes,
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
    report, not a recomputation. The cells of one student in one
    (method, option) block train as one stack, each with its own seed
    under the seed policy, so a record does not depend on which other
    pairs run beside it. A student's tuned cells of one option search
    side by side, and its vanilla cells of that option join them (see
    the module docstring). Groups are independent, so `jobs` > 1 fans
    them out over processes without changing any result. The tuned
    method searches `grid`, in its own mode.
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
    public = {
        option: transfer_set_for(scenario, option, None, sizes, master_seed)
        for option in transfer_options
        if option != "student_data"
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
            transfer=(
                public[option]
                if option in public
                else transfer_set_for(scenario, option, student_id, sizes, master_seed)
            ),
            test=scenario.test,
            cfg=cfg,
            grid=grid,
            master_seed=master_seed,
        )
        for method in methods
        for option in transfer_options
        for teacher_id, student_id in pairs
    ]
    groups: dict[tuple, list[PairCell]] = {}
    for cell in cells:
        # vanilla cells join the tuned searches, which train their grid cell
        method = "tuned" if cell.method == "vanilla" and "tuned" in methods else cell.method
        groups.setdefault((method, cell.option, cell.student_id), []).append(cell)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_group, groups.values()))
    else:
        done = [_run_group(group) for group in groups.values()]
    return canonical_order([record for records in done for record in records])


# --------------------------------------------------------------------------
# Grid search
# --------------------------------------------------------------------------


@dataclass(eq=False)
class GridSearchResult:
    """The searched surface, its argmax, the model the argmax cell trained
    and that of the cell the search was asked to keep, if it trained that
    cell. The models are None where `_search`'s row runner returns none."""

    best_temperature: float
    best_alpha: float
    surface: dict[tuple[float, float], float]
    best_model: Model | None = None
    kept_model: Model | None = None


def argmax_surface(surface: dict[tuple[float, float], float]) -> tuple[float, float]:
    """Highest-gain cell; ties resolve to smaller temperature, then alpha."""
    if not surface:
        raise ConfigError("empty gain surface")
    best_key = None
    best_gain = -np.inf
    for key in sorted(surface):
        if surface[key] > best_gain:
            best_gain = surface[key]
            best_key = key
    return best_key


def _search(count: int, grid: GridSpec, run_row, keep=None) -> list[GridSearchResult]:
    """The one search loop: `count` searches over `grid`, side by side.

    Each search visits its cells in the order `grid_search_tuned`
    describes, in the grid's mode, and all searches share each
    temperature row, whose values are floats whatever the grid holds:
    `run_row(temperature, cells)` gets the row's (search, alpha) cells,
    search-major, and returns one (gain, model or None) per cell. Only
    each search's best model so far is kept, and the model of its `keep`
    cell.
    """
    surfaces: list[dict[tuple[float, float], float]] = [{} for _ in range(count)]
    best: list[tuple | None] = [None] * count
    kept: list[Model | None] = [None] * count

    def search_row(temperature: float, cells: list[tuple[int, float]]) -> None:
        for (i, a), (gain, model) in zip(cells, run_row(temperature, cells)):
            key = (temperature, a)
            surfaces[i][key] = gain
            # the order argmax_surface picks by: highest gain, then lowest key
            if best[i] is None or (-gain, key) < best[i][0]:
                best[i] = ((-gain, key), model)
            if key == keep:
                kept[i] = model

    temperatures = sorted({float(t) for t in grid.temperatures})
    alphas = sorted({float(a) for a in grid.alphas})
    every_alpha = [(i, a) for i in range(count) for a in alphas]
    if grid.sequential:
        anchor = 1.0 if 1.0 in temperatures else temperatures[len(temperatures) // 2]
        search_row(anchor, every_alpha)
        best_alphas = [argmax_surface(surface)[1] for surface in surfaces]
        for t in temperatures:
            cells = [(i, a) for i, a in enumerate(best_alphas) if (t, a) not in surfaces[i]]
            if cells:
                search_row(t, cells)
    else:
        for t in temperatures:
            search_row(t, every_alpha)
    return [
        GridSearchResult(*argmax_surface(surface), surface, top[1], model)
        for surface, top, model in zip(surfaces, best, kept)
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

    Teacher i's cells take their seeds from seed_fns[i]. Each
    temperature row trains every teacher's cells of that row as one
    stack (`distill_vanilla_benches`) and evaluates them with one
    stacked forward pass; every cell is bit-identical to its own
    `distill_vanilla` run, so each result equals the one-teacher search.
    A result's `kept_model` is the model of its `keep` cell, if the
    search trained that cell.
    """
    pre_acc = evaluate(student, select_data).overall_accuracy

    def run_row(temperature: float, cells: list[tuple[int, float]]) -> list:
        models = distill_vanilla_benches(
            student, [[teachers[i]] for i, _ in cells], transfer,
            replace(cfg, temperature=temperature), [a for _, a in cells],
            [seed_fns[i](temperature, a) for i, a in cells],
        )
        accs = overall_accuracies(models, select_data)
        return [((acc - pre_acc) * 100.0, model) for acc, model in zip(accs, models)]

    return _search(len(teachers), grid, run_row, keep)


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
    optimality for a linear number of cells.

    This is the one-teacher case of `grid_search_teachers`: the cells of
    one temperature row share their soft targets and train as stacks,
    each bit-identical to its own `distill_vanilla` run. Only the best
    model so far is kept, and returned as `best_model`.
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
    start_policy: str,
    weighting: str,
    ts_option: str,
    epochs: int,
    cfg: DistillConfig,
    sizes: TransferSizes,
    master_seed: int,
) -> tuple[Model, EvalReport]:
    """Merge every participant's knowledge into one model by distillation.

    The starting student is the worst participant, the best one, or a
    fresh untrained model; all remaining participants teach. Teacher
    weights are either class-wise competence shares or flat 1 / (J + 1).
    """
    if len(pretrained) < 2:
        raise ConfigError("consolidation needs at least two participants")
    if start_policy not in START_POLICIES:
        raise ConfigError(
            f"start_policy must be one of {START_POLICIES}, got {start_policy!r}"
        )
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")

    overall = [rep.overall_accuracy for _, rep in pretrained]
    if start_policy == "worst":
        chosen = int(np.argmin(overall))
    elif start_policy == "best":
        chosen = int(np.argmax(overall))
    else:
        chosen = None

    if chosen is None:
        if ts_option == "student_data":
            raise ConfigError(
                "an untrained start has no own dataset; pick a public transfer option"
            )
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

    if weighting == "adaptive":
        weights = adaptive_teacher_weights(student_eval, teacher_evals)
    else:
        weights = equal_teacher_weights(len(teachers), scenario.test.class_count)

    transfer = transfer_set_for(scenario, ts_option, chosen, sizes, master_seed)
    run_cfg = replace(cfg, epochs=epochs)
    seed = stable_seed(master_seed, "consolidate", start_policy, weighting, ts_option)
    merged = distill_multi_teacher(student, teachers, weights, transfer, run_cfg, seed)
    return merged, evaluate(merged, scenario.test)
