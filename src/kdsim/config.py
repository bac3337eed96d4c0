"""Run configuration: YAML tree, strict validation, flag overrides.

The configuration is one nested tree mirroring the pipeline stages. A
missing file section falls back to its defaults, unknown keys are
rejected, and validation collects every problem before failing so a bad
config reports all of its mistakes in one pass. Command-line overrides
(seed, output directory, jobs) are applied onto the tree before
validation.

The `pretrain`, `fed` and `grid` sections are library classes
themselves, `nn.TrainConfig`, `fed.FedConfig` and `orchestrate.GridSpec`,
and the `distill` section is `distill.DistillConfig` plus the matrix's
`methods` and `transfer_options`: each class states its rules once, in
its `problems()`, and validation here reports them under the section's
name. No check counts a boolean as a number.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .data import PARTITION_STRATEGIES, TRANSFER_OPTIONS, TransferSizes
from .distill import DistillConfig
from .errors import ConfigError
from .fed import FedConfig
from .nn import TrainConfig, check, is_int, is_number
from .orchestrate import MATRIX_METHODS, START_POLICIES, WEIGHTINGS, GridSpec

DATASET_KINDS = ("toy", "csv")
REPORT_FORMATS = ("csv", "json")

# libyaml's loader when PyYAML was built with it: the same tree, some 8x
# faster than the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class DatasetSection:
    kind: str = "toy"
    classes: int = 10
    dim: int = 8
    train_per_class: int = 160
    test_per_class: int = 40
    spread: float = 2.5
    train_path: str | None = None
    test_path: str | None = None


@dataclass
class PartitionSection:
    strategy: str = "uniform"
    k: int = 10
    beta: float = 0.5
    dominant_fraction: float = 0.91
    min_chunk: int = 10
    betas: list[float] | None = None
    val_fraction: float = 0.1


@dataclass
class PoolSection:
    size: int = 600
    labeled: int = 50
    unlabeled_small: int = 50
    unlabeled_large: int = 500


@dataclass
class ModelSection:
    hidden_layers: list[int] = field(default_factory=lambda: [64])


@dataclass(eq=False)
class DistillSection(DistillConfig):
    """The training recipe of every pairwise run, and which methods and
    transfer options the matrix runs."""

    methods: list[str] = field(default_factory=lambda: ["vanilla"])
    transfer_options: list[str] = field(default_factory=lambda: ["student_data"])

    def problems(self) -> list[str]:
        found = super().problems()
        for key, allowed in (("methods", MATRIX_METHODS), ("transfer_options", TRANSFER_OPTIONS)):
            entries = getattr(self, key)
            ok = isinstance(entries, list) and entries and all(e in allowed for e in entries)
            check(found, ok, key, f"must be a non-empty subset of {allowed}")
            if isinstance(entries, list):
                for i, entry in enumerate(entries):
                    first = entries.index(entry) == i
                    check(found, not first or entries.count(entry) == 1, key,
                          f"repeated entry {entry!r}")
        return found


@dataclass
class ConsolidateSection:
    start_policy: str = "best"
    weighting: str = "adaptive"
    transfer_option: str = "public_unlabeled_large"
    epochs: int = 30


@dataclass
class ReportSection:
    format: str = "csv"


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    jobs: int = 1
    dataset: DatasetSection = field(default_factory=DatasetSection)
    partition: PartitionSection = field(default_factory=PartitionSection)
    pool: PoolSection = field(default_factory=PoolSection)
    model: ModelSection = field(default_factory=ModelSection)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    distill: DistillSection = field(default_factory=DistillSection)
    grid: GridSpec = field(default_factory=GridSpec)
    consolidate: ConsolidateSection = field(default_factory=ConsolidateSection)
    fed: FedConfig = field(default_factory=FedConfig)
    report: ReportSection = field(default_factory=ReportSection)

    def transfer_sizes(self) -> TransferSizes:
        return TransferSizes(
            labeled=self.pool.labeled,
            unlabeled_small=self.pool.unlabeled_small,
            unlabeled_large=self.pool.unlabeled_large,
        )

    def as_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {
    "dataset": DatasetSection,
    "partition": PartitionSection,
    "pool": PoolSection,
    "model": ModelSection,
    "pretrain": TrainConfig,
    "distill": DistillSection,
    "grid": GridSpec,
    "consolidate": ConsolidateSection,
    "fed": FedConfig,
    "report": ReportSection,
}
_TOP_SCALARS = ("seed", "out_dir", "jobs")


def _build_tree(raw: dict, errors: list[str]) -> RunConfig:
    cfg = RunConfig()
    for key, value in raw.items():
        if key in _TOP_SCALARS:
            setattr(cfg, key, value)
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                errors.append(f"{key}: expected a mapping")
                continue
            section = getattr(cfg, key)
            known = set(section.__dataclass_fields__)
            for sub, subval in value.items():
                if sub not in known:
                    errors.append(f"{key}.{sub}: unknown key")
                else:
                    setattr(section, sub, subval)
        else:
            errors.append(f"{key}: unknown key")
    return cfg


def _validate(cfg: RunConfig, errors: list[str]) -> None:
    check(errors, isinstance(cfg.seed, int) and not isinstance(cfg.seed, bool) and cfg.seed >= 0,
          "seed", "must be a non-negative integer")
    check(errors, isinstance(cfg.out_dir, str) and cfg.out_dir != "", "out_dir",
          "must be a non-empty path")
    check(errors, isinstance(cfg.jobs, int) and not isinstance(cfg.jobs, bool) and cfg.jobs >= 1,
          "jobs", "must be an integer >= 1")

    d = cfg.dataset
    check(errors, d.kind in DATASET_KINDS, "dataset.kind",
          f"must be one of {DATASET_KINDS}")
    if d.kind == "toy":
        check(errors, is_int(d.classes) and d.classes >= 2, "dataset.classes",
              "must be an integer >= 2")
        check(errors, is_int(d.dim) and d.dim >= 1, "dataset.dim",
              "must be an integer >= 1")
        check(errors, is_int(d.train_per_class) and d.train_per_class >= 1,
              "dataset.train_per_class", "must be an integer >= 1")
        check(errors, is_int(d.test_per_class) and d.test_per_class >= 1,
              "dataset.test_per_class", "must be an integer >= 1")
        check(errors, is_number(d.spread) and d.spread > 0, "dataset.spread", "must be > 0")
    elif d.kind == "csv":
        check(errors, isinstance(d.train_path, str) and d.train_path, "dataset.train_path",
              "required for csv datasets")
        check(errors, isinstance(d.test_path, str) and d.test_path, "dataset.test_path",
              "required for csv datasets")

    p = cfg.partition
    check(errors, p.strategy in PARTITION_STRATEGIES, "partition.strategy",
          f"must be one of {PARTITION_STRATEGIES}")
    check(errors, is_int(p.k) and p.k >= 1, "partition.k",
          "must be an integer >= 1")
    check(errors, is_number(p.beta) and p.beta > 0, "partition.beta", "must be > 0")
    check(errors, is_number(p.dominant_fraction) and 0 < p.dominant_fraction < 1,
          "partition.dominant_fraction", "must lie in (0, 1)")
    check(errors, is_int(p.min_chunk) and p.min_chunk >= 1, "partition.min_chunk",
          "must be an integer >= 1")
    if p.betas is not None:
        ok = isinstance(p.betas, list) and len(p.betas) == p.k and all(
            is_number(b) and b > 0 for b in p.betas
        )
        check(errors, ok, "partition.betas", f"must be a list of {p.k} positive numbers")
    check(errors, is_number(p.val_fraction) and 0 < p.val_fraction < 1,
          "partition.val_fraction", "must lie in (0, 1)")
    if p.strategy == "specialized" and d.kind == "toy" and is_int(d.classes):
        check(errors, p.k == d.classes, "partition.k",
              f"specialized strategy needs k == dataset.classes ({d.classes})")

    pool = cfg.pool
    for name in ("size", "labeled", "unlabeled_small", "unlabeled_large"):
        val = getattr(pool, name)
        check(errors, is_int(val) and val >= 1, f"pool.{name}",
              "must be an integer >= 1")
    used_options = [cfg.consolidate.transfer_option]
    if isinstance(cfg.distill.transfer_options, list):
        used_options += cfg.distill.transfer_options
    need = {
        "public_labeled": pool.labeled,
        "public_unlabeled_small": pool.unlabeled_small,
        "public_unlabeled_large": pool.unlabeled_large,
    }
    for option, count in need.items():
        if option in used_options and is_int(count) and is_int(pool.size):
            check(errors, pool.size >= count, "pool.size",
                  f"must cover the {count} samples option {option} draws")

    m = cfg.model
    ok = (
        isinstance(m.hidden_layers, list)
        and all(is_int(w) and w >= 1 for w in m.hidden_layers)
    )
    check(errors, ok, "model.hidden_layers", "must be a list of integers >= 1")

    # the library sections state their own rules
    for name in ("pretrain", "distill", "grid", "fed"):
        errors += [f"{name}.{msg}" for msg in getattr(cfg, name).problems()]

    c = cfg.consolidate
    check(errors, c.start_policy in START_POLICIES, "consolidate.start_policy",
          f"must be one of {START_POLICIES}")
    check(errors, c.weighting in WEIGHTINGS, "consolidate.weighting",
          f"must be one of {WEIGHTINGS}")
    check(errors, c.transfer_option in TRANSFER_OPTIONS, "consolidate.transfer_option",
          f"must be one of {TRANSFER_OPTIONS}")
    if c.start_policy == "untrained":
        check(errors, c.transfer_option != "student_data", "consolidate.transfer_option",
              "an untrained start has no own dataset; pick a public option")
    check(errors, is_int(c.epochs) and c.epochs >= 1, "consolidate.epochs",
          "must be an integer >= 1")

    check(errors, cfg.report.format in REPORT_FORMATS, "report.format",
          f"must be one of {REPORT_FORMATS}")


def parse_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Load, override and validate a run configuration.

    Raises ConfigError listing every violation, or naming the line and
    column of malformed YAML; an absent path or empty file yields pure
    defaults.
    """
    raw: dict = {}
    if path is not None:
        text = Path(path).read_text()
        try:
            loaded = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            # the parser's line and column, 1-based, when it reports them
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(f"{path}: malformed YAML{where}: {problem}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        raw = loaded
    if overrides:
        raw = dict(raw)
        for key, value in overrides.items():
            if value is not None:
                raw[key] = value
    errors: list[str] = []
    cfg = _build_tree(raw, errors)
    if not errors:
        _validate(cfg, errors)
    if errors:
        raise ConfigError(
            "invalid configuration:\n  " + "\n  ".join(sorted(errors))
        )
    return cfg
