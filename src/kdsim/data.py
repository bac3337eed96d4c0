"""Datasets, heterogeneous partitioning strategies and transfer sets.

A LabeledDataset is an (n, d) float64 feature matrix plus an int label
vector. Partitioners split one dataset across K participants according
to a named heterogeneity strategy and return a PartitionPlan of index
lists; the plan, not the materialized shards, is the artifact of record
so runs can be reproduced and audited.

`make_partition` passes a strategy the one key of the
`orchestrate.PartitionSpec` it reads; a public transfer option draws the
count `orchestrate.PoolSpec` gives it.

All strategies draw their randomness from streams derived with
stable_seed, so a (data, params, seed) triple always yields the same
plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, ParseError, PartitionError
from .seeding import rng_for

if TYPE_CHECKING:
    from .orchestrate import PartitionSpec, PoolSpec

PARTITION_STRATEGIES = (
    "uniform",
    "quantity_skew",
    "specialized",
    "label_skew_chunks",
    "label_skew_dirichlet",
)

TRANSFER_OPTIONS = (
    "student_data",
    "public_labeled",
    "public_unlabeled_small",
    "public_unlabeled_large",
)
PUBLIC_TRANSFER_OPTIONS = (
    "public_labeled",
    "public_unlabeled_small",
    "public_unlabeled_large",
)

# bounded redraws for strategies that can produce an empty participant
_MAX_REDRAWS = 100


def read_only(*arrays: np.ndarray) -> None:
    """Forbid writes into arrays that several readers share, so a reader
    that writes into one fails loudly instead of changing what the next
    one reads."""
    for a in arrays:
        a.flags.writeable = False


@dataclass(eq=False)
class LabeledDataset:
    """Feature matrix with integer class labels.

    labels are validated to lie in [0, class_count); feature rows and
    labels must agree in length.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise DataError(f"labels must be 1-d, got shape {self.labels.shape}")
        if len(self.features) != len(self.labels):
            raise DataError(
                f"{len(self.features)} feature rows but {len(self.labels)} labels"
            )
        if self.class_count < 1:
            raise DataError(f"class_count must be >= 1, got {self.class_count}")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise DataError(
                f"labels must lie in [0, {self.class_count}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            class_count=self.class_count,
        )

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)


@dataclass(eq=False)
class TransferSet:
    """Samples a student trains on during distillation.

    labels is None exactly for the unlabeled public options; origin
    records which transfer option produced the set.
    """

    features: np.ndarray
    labels: np.ndarray | None
    origin: str

    def __post_init__(self) -> None:
        if self.origin not in TRANSFER_OPTIONS:
            raise ConfigError(f"unknown transfer origin {self.origin!r}")
        labeled_origin = self.origin in ("student_data", "public_labeled")
        if labeled_origin and self.labels is None:
            raise ConfigError(f"origin {self.origin!r} requires labels")
        if not labeled_origin and self.labels is not None:
            raise ConfigError(f"origin {self.origin!r} must not carry labels")
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.features):
                raise DataError("transfer labels and features disagree in length")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def labeled(self) -> bool:
        return self.labels is not None


@dataclass(eq=False)
class PartitionPlan:
    """Index lists assigning samples of a source dataset to participants."""

    strategy: str
    seed: int
    params: dict = field(default_factory=dict)
    participants: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.participants = [
            np.sort(np.asarray(p, dtype=np.int64)) for p in self.participants
        ]

    @property
    def k(self) -> int:
        return len(self.participants)

    def sizes(self) -> list[int]:
        return [len(p) for p in self.participants]

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "params": self.params,
            "participants": [p.tolist() for p in self.participants],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PartitionPlan":
        return cls(
            strategy=payload["strategy"],
            seed=payload["seed"],
            params=dict(payload["params"]),
            participants=[index_array(p) for p in payload["participants"]],
        )


def index_array(values: list) -> np.ndarray:
    """A JSON list of row indices as an int64 array. np.array would
    truncate a float and read a boolean as 0 or 1, so an entry of any type
    but int raises ValueError."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"index {v!r} is not an integer")
    return np.array(values, dtype=np.int64)


def validate_plan(plan: PartitionPlan, source_size: int) -> None:
    """Check disjointness, index range and non-emptiness of a plan."""
    seen: set[int] = set()
    for pid, idx in enumerate(plan.participants):
        if len(idx) == 0:
            raise PartitionError(f"participant {pid} received no samples")
        if len(idx) and (idx.min() < 0 or idx.max() >= source_size):
            raise PartitionError(f"participant {pid} holds out-of-range indices")
        as_set = set(int(i) for i in idx)
        if len(as_set) != len(idx) or seen & as_set:
            raise PartitionError(f"participant {pid} overlaps another shard")
        seen |= as_set


# --------------------------------------------------------------------------
# CSV persistence
# --------------------------------------------------------------------------


def save_dataset(data: LabeledDataset, path: str | Path) -> None:
    """Write `label,f0..fD-1` rows; floats use repr so reloads are exact."""
    path = Path(path)
    dim = data.feature_dim
    header = "label," + ",".join(f"f{j}" for j in range(dim))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row, label in zip(data.features, data.labels):
            fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_dataset(path: str | Path, class_count: int | None = None) -> LabeledDataset:
    """Parse a dataset CSV; malformed content names the 1-based line."""
    path = Path(path)
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ParseError(f"{path}: line 1: header must be label,f0..fD-1")
    dim = len(header) - 1
    for j, name in enumerate(header[1:]):
        if name != f"f{j}":
            raise ParseError(f"{path}: line 1: column {j + 2} must be named f{j}")
    if len(lines) == 1:
        raise ParseError(f"{path}: no data rows")

    features = np.empty((len(lines) - 1, dim), dtype=np.float64)
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParseError(f"{path}: line {i}: expected {dim + 1} fields, got {len(cells)}")
        try:
            label = int(cells[0])
        except ValueError:
            raise ParseError(f"{path}: line {i}: label {cells[0]!r} is not an integer") from None
        if label < 0:
            raise ParseError(f"{path}: line {i}: negative label {label}")
        labels[i - 2] = label
        try:
            features[i - 2] = [float(c) for c in cells[1:]]
        except ValueError:
            raise ParseError(f"{path}: line {i}: non-numeric feature value") from None
    count = class_count if class_count is not None else int(labels.max()) + 1
    return LabeledDataset(features=features, labels=labels, class_count=count)


# --------------------------------------------------------------------------
# Splitting
# --------------------------------------------------------------------------


def split_train_val(
    data: LabeledDataset, val_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified split; classes with at least two samples land on both sides.

    Per class the validation share is round(val_fraction * n_c), clipped
    so train and validation each keep at least one sample. A class with
    a single sample keeps it on the train side: skewed partitions
    produce such shards routinely and refusing them would make whole
    scenarios unusable.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if len(data) == 0:
        raise DataError("cannot split an empty dataset")
    rng = rng_for(seed, "train-val-split")
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for c in range(data.class_count):
        idx = data.class_indices(c)
        if len(idx) == 0:
            continue
        if len(idx) < 2:
            train_idx.append(idx)
            continue
        shuffled = rng.permutation(idx)
        n_val = int(math.floor(val_fraction * len(idx) + 0.5))
        n_val = min(max(n_val, 1), len(idx) - 1)
        val_idx.append(shuffled[:n_val])
        train_idx.append(shuffled[n_val:])
    if not val_idx:
        raise DataError("no class has two samples; cannot form a validation split")
    train = np.sort(np.concatenate(train_idx))
    val = np.sort(np.concatenate(val_idx))
    return data.subset(train), data.subset(val)


# --------------------------------------------------------------------------
# Partitioning strategies
# --------------------------------------------------------------------------


def partition_uniform(data: LabeledDataset, k: int, seed: int) -> PartitionPlan:
    """IID split: every participant draws floor(n_c / K) samples per class.

    The remainder of each class is dropped so all shards share one exact
    class profile.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    counts = data.class_counts()
    present = np.flatnonzero(counts)
    if len(present) == 0:
        raise DataError("cannot partition an empty dataset")
    if counts[present].min() < k:
        raise PartitionError(
            f"uniform split needs >= {k} samples of every class; "
            f"smallest class has {int(counts[present].min())}"
        )
    rng = rng_for(seed, "uniform")
    shards: list[list[np.ndarray]] = [[] for _ in range(k)]
    for c in range(data.class_count):
        idx = data.class_indices(c)
        if len(idx) == 0:
            continue
        shuffled = rng.permutation(idx)
        per = len(idx) // k
        for i in range(k):
            shards[i].append(shuffled[i * per : (i + 1) * per])
    participants = [np.concatenate(s) for s in shards]
    return PartitionPlan(
        strategy="uniform", seed=seed, params={"k": k}, participants=participants
    )


def _splittable(data: LabeledDataset, shard: np.ndarray) -> bool:
    """A shard is usable only if some class in it has two samples;
    otherwise no stratified train/validation split can exist."""
    if len(shard) < 2:
        return False
    counts = np.bincount(data.labels[shard])
    return bool(counts.max() >= 2)


def partition_quantity_skew(
    data: LabeledDataset, k: int, beta: float, seed: int
) -> PartitionPlan:
    """Shard sizes follow a symmetric Dirichlet(beta) draw over K.

    All n samples are assigned: participant i takes a ceil(q_i * n)
    sized slice of one global shuffle, capped by what is left, and the
    last participant absorbs the remainder. Draws leaving any
    participant empty or unable to support a stratified split are
    redrawn (bounded).
    """
    if k < 2:
        raise ConfigError(f"quantity skew needs k >= 2, got {k}")
    if beta <= 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    n = len(data)
    if n < k:
        raise PartitionError(f"cannot give {k} participants >= 1 sample from {n}")
    for attempt in range(_MAX_REDRAWS):
        rng = rng_for(seed, "quantity-skew", attempt)
        q = rng.dirichlet([beta] * k)
        order = rng.permutation(n)
        sizes: list[int] = []
        remaining = n
        for i in range(k - 1):
            take = min(int(math.ceil(q[i] * n)), remaining)
            sizes.append(take)
            remaining -= take
        sizes.append(remaining)
        if min(sizes) >= 1:
            participants = []
            start = 0
            for size in sizes:
                participants.append(order[start : start + size])
                start += size
            if all(_splittable(data, p) for p in participants):
                return PartitionPlan(
                    strategy="quantity_skew",
                    seed=seed,
                    params={"k": k, "beta": beta},
                    participants=participants,
                )
    raise PartitionError(
        f"no quantity-skew draw with {k} usable shards in {_MAX_REDRAWS} attempts"
    )


def _specialized_counts(
    class_sizes: np.ndarray, k: int, dominant_fraction: float
) -> np.ndarray:
    """Per-participant per-class count matrix for the specialized strategy.

    Participant i is dominated by class i; the non-dominant remainder is
    spread evenly (within 1) over the other classes, the +1 extras
    rotated per participant so no class is systematically over-drawn.
    The common shard size starts at the smallest class and shrinks until
    every class can supply its total demand.
    """
    c = k
    size = int(class_sizes.min())
    while size >= 1:
        dominant = int(math.floor(dominant_fraction * size + 0.5))
        rest = size - dominant
        if dominant < 1 or rest < c - 1:
            raise PartitionError(
                f"shard size {size} cannot hold a {dominant_fraction:.2f} dominant "
                f"share plus >= 1 sample of each of the other {c - 1} classes"
            )
        counts = np.zeros((k, c), dtype=np.int64)
        base, extra = divmod(rest, c - 1)
        for i in range(k):
            counts[i, i] = dominant
            others = [(i + 1 + j) % c for j in range(c - 1)]
            for rank, cls in enumerate(others):
                counts[i, cls] = base + (1 if rank < extra else 0)
        if np.all(counts.sum(axis=0) <= class_sizes):
            return counts
        size -= 1
    raise PartitionError("specialized partition infeasible for this dataset")


def partition_specialized(
    data: LabeledDataset, k: int, dominant_fraction: float, seed: int
) -> PartitionPlan:
    """One expert participant per class.

    Requires K == class_count. Participant i's shard is dominated by
    class i (dominant_fraction of the shard, 0.91 by default) with the
    remainder spread evenly over the other classes.
    """
    if not 0.0 < dominant_fraction < 1.0:
        raise ConfigError(
            f"dominant_fraction must be in (0, 1), got {dominant_fraction}"
        )
    if k != data.class_count:
        raise ConfigError(
            f"specialized partition needs k == class_count "
            f"({k} != {data.class_count})"
        )
    class_sizes = data.class_counts()
    if class_sizes.min() == 0:
        raise PartitionError("specialized partition needs every class present")
    counts = _specialized_counts(class_sizes, k, dominant_fraction)
    rng = rng_for(seed, "specialized")
    shards: list[list[np.ndarray]] = [[] for _ in range(k)]
    for c in range(data.class_count):
        shuffled = rng.permutation(data.class_indices(c))
        start = 0
        for i in range(k):
            take = int(counts[i, c])
            shards[i].append(shuffled[start : start + take])
            start += take
    participants = [np.concatenate(s) for s in shards]
    return PartitionPlan(
        strategy="specialized",
        seed=seed,
        params={"k": k, "dominant_fraction": dominant_fraction},
        participants=participants,
    )


def partition_label_skew_chunks(
    data: LabeledDataset, k: int, min_chunk: int, seed: int
) -> PartitionPlan:
    """Each participant holds contiguous chunks of a few random classes.

    Per participant: draw a class count uniformly in [1, class_count],
    pick that many classes among those still holding >= min_chunk
    unassigned samples, and take one chunk of uniform size in
    [min_chunk, 2 * min_chunk] (capped by availability) from each.
    Restricting the pick to classes with min_chunk left keeps every
    per-class count either 0 or >= min_chunk.
    """
    if min_chunk < 1:
        raise ConfigError(f"min_chunk must be >= 1, got {min_chunk}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    rng = rng_for(seed, "label-skew-chunks")
    pools = [list(rng.permutation(data.class_indices(c))) for c in range(data.class_count)]
    shards: list[list[np.ndarray]] = [[] for _ in range(k)]
    for i in range(k):
        eligible = [c for c in range(data.class_count) if len(pools[c]) >= min_chunk]
        if not eligible:
            raise PartitionError(
                f"class pools exhausted before participant {i} received a chunk"
            )
        want = int(rng.integers(1, data.class_count + 1))
        want = min(want, len(eligible))
        chosen = rng.choice(len(eligible), size=want, replace=False)
        for pos in chosen:
            c = eligible[int(pos)]
            chunk = int(rng.integers(min_chunk, 2 * min_chunk + 1))
            chunk = min(chunk, len(pools[c]))
            taken = pools[c][:chunk]
            pools[c] = pools[c][chunk:]
            shards[i].append(np.asarray(taken, dtype=np.int64))
    participants = [np.concatenate(s) for s in shards]
    return PartitionPlan(
        strategy="label_skew_chunks",
        seed=seed,
        params={"k": k, "min_chunk": min_chunk},
        participants=participants,
    )


def alternating_betas(k: int, low: float = 0.1, high: float = 0.5) -> list[float]:
    """Default concentration vector for the Dirichlet label-skew strategy."""
    return [low if i % 2 == 0 else high for i in range(k)]


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round total * proportions to integers that sum to total."""
    raw = proportions * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        # stable sort keeps the lowest index first on fractional-part ties
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def partition_label_skew_dirichlet(
    data: LabeledDataset, k: int, betas: list[float], seed: int
) -> PartitionPlan:
    """Per-class Dirichlet allocation with per-participant concentrations.

    For each class c a proportion vector p ~ Dirichlet(betas) decides how
    the class spreads over participants; counts come from largest
    remainder rounding of p * n_c. Asymmetric betas make some
    participants systematically poor in most classes. A draw that leaves
    a participant empty or unable to support a stratified split is
    redrawn (bounded).
    """
    if len(betas) != k:
        raise ConfigError(f"betas must have length k={k}, got {len(betas)}")
    if any(b <= 0 for b in betas):
        raise ConfigError("every beta must be > 0")
    if len(data) == 0:
        raise DataError("cannot partition an empty dataset")
    for attempt in range(_MAX_REDRAWS):
        rng = rng_for(seed, "label-skew-dirichlet", attempt)
        shards: list[list[np.ndarray]] = [[] for _ in range(k)]
        for c in range(data.class_count):
            idx = data.class_indices(c)
            if len(idx) == 0:
                continue
            proportions = rng.dirichlet(betas)
            counts = _largest_remainder(proportions, len(idx))
            shuffled = rng.permutation(idx)
            start = 0
            for i in range(k):
                take = int(counts[i])
                shards[i].append(shuffled[start : start + take])
                start += take
        participants = [
            np.concatenate(s) if s else np.empty(0, dtype=np.int64) for s in shards
        ]
        if all(_splittable(data, p) for p in participants):
            return PartitionPlan(
                strategy="label_skew_dirichlet",
                seed=seed,
                params={"k": k, "betas": list(betas)},
                participants=participants,
            )
    raise PartitionError(
        f"no Dirichlet draw with {k} usable shards in {_MAX_REDRAWS} attempts"
    )


def make_partition(data: LabeledDataset, partition: PartitionSpec, seed: int) -> PartitionPlan:
    """Dispatch to `partition.strategy`, passing it the one field it reads
    as a float (min_chunk as an int); betas default to `alternating_betas`."""
    strategy, k = partition.strategy, partition.k
    if strategy == "uniform":
        return partition_uniform(data, k, seed)
    if strategy == "quantity_skew":
        return partition_quantity_skew(data, k, float(partition.beta), seed)
    if strategy == "specialized":
        return partition_specialized(data, k, float(partition.dominant_fraction), seed)
    if strategy == "label_skew_chunks":
        return partition_label_skew_chunks(data, k, int(partition.min_chunk), seed)
    if strategy == "label_skew_dirichlet":
        betas = partition.betas or alternating_betas(k)
        return partition_label_skew_dirichlet(data, k, [float(b) for b in betas], seed)
    raise ConfigError(
        f"unknown partition strategy {strategy!r}; choose one of {PARTITION_STRATEGIES}"
    )


# --------------------------------------------------------------------------
# Transfer sets
# --------------------------------------------------------------------------


def build_transfer_set(
    option: str,
    public_pool: LabeledDataset | None,
    student_data: LabeledDataset | None,
    pool: PoolSpec,
    seed: int,
) -> TransferSet:
    """Materialize one transfer option. The set's arrays are read-only.

    Public options sample `pool.draws(option)` rows without replacement
    from the reserved pool (labels kept only for public_labeled);
    student_data passes the student's own training samples through as
    views, without a copy.
    """
    if option == "student_data":
        if student_data is None or len(student_data) == 0:
            raise ConfigError("student_data transfer option needs the student's dataset")
        features, labels = student_data.features.view(), student_data.labels.view()
        read_only(features, labels)
        return TransferSet(features=features, labels=labels, origin="student_data")
    if option not in PUBLIC_TRANSFER_OPTIONS:
        raise ConfigError(
            f"unknown transfer option {option!r}; choose one of {TRANSFER_OPTIONS}"
        )
    wanted = pool.draws(option)
    if public_pool is None or len(public_pool) < wanted:
        have = 0 if public_pool is None else len(public_pool)
        raise ConfigError(
            f"public pool holds {have} samples but option {option} needs {wanted}"
        )
    rng = rng_for(seed, "transfer", option)
    pick = rng.choice(len(public_pool), size=wanted, replace=False)
    features = public_pool.features[pick]
    read_only(features)
    labels = None
    if option == "public_labeled":
        labels = public_pool.labels[pick]
        read_only(labels)
    return TransferSet(features=features, labels=labels, origin=option)
