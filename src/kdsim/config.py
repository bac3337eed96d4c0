"""Run configuration: YAML tree, strict validation, flag overrides.

The configuration is one nested tree mirroring the pipeline stages. A
missing file section falls back to its defaults, unknown keys are
rejected, and validation collects every problem before failing so a bad
config reports all of its mistakes in one pass. Command-line overrides
(seed, output directory, jobs) are applied onto the tree before
validation.

The `pretrain`, `fed`, `grid`, `partition`, `pool` and `consolidate`
sections are library classes themselves (`nn.TrainConfig`,
`fed.FedConfig`, `orchestrate.GridSpec`, `PartitionSpec`, `PoolSpec`,
`ConsolidateSpec`), and the `distill` section is `distill.DistillConfig`
plus the matrix's `methods` and `transfer_options`: each class states
its defaults and rules once, and validation here reports them under the
section's name, adding only the rules that join two sections.
`dataset`, `model` and `report` feed no library recipe and stay plain
sections. No check counts a boolean as a number.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .data import PUBLIC_TRANSFER_OPTIONS, TRANSFER_OPTIONS
from .distill import DistillConfig
from .errors import ConfigError
from .fed import FedConfig
from .nn import TrainConfig, check, is_int, is_number
from .orchestrate import MATRIX_METHODS, ConsolidateSpec, GridSpec, PartitionSpec, PoolSpec

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
class ReportSection:
    format: str = "csv"


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    jobs: int = 1
    dataset: DatasetSection = field(default_factory=DatasetSection)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    model: ModelSection = field(default_factory=ModelSection)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    distill: DistillSection = field(default_factory=DistillSection)
    grid: GridSpec = field(default_factory=GridSpec)
    consolidate: ConsolidateSpec = field(default_factory=ConsolidateSpec)
    fed: FedConfig = field(default_factory=FedConfig)
    report: ReportSection = field(default_factory=ReportSection)

    def as_dict(self) -> dict:
        return asdict(self)


_TOP_SCALARS = ("seed", "out_dir", "jobs")
_SECTIONS = tuple(name for name in RunConfig.__dataclass_fields__ if name not in _TOP_SCALARS)


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
                    # `raw` may be a shared tree (see `_yaml_tree`); a valid
                    # list holds only scalars
                    setattr(section, sub, list(subval) if isinstance(subval, list) else subval)
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

    # the rules that join two sections
    p = cfg.partition
    if p.strategy == "specialized" and d.kind == "toy" and is_int(d.classes):
        check(errors, p.k == d.classes, "partition.k",
              f"specialized strategy needs k == dataset.classes ({d.classes})")
    pool = cfg.pool
    used_options = [cfg.consolidate.transfer_option]
    if isinstance(cfg.distill.transfer_options, list):
        used_options += cfg.distill.transfer_options
    for option in PUBLIC_TRANSFER_OPTIONS:
        count = pool.draws(option)
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
    for name in ("partition", "pool", "pretrain", "distill", "grid", "consolidate", "fed"):
        errors += [f"{name}.{msg}" for msg in getattr(cfg, name).problems()]

    check(errors, cfg.report.format in REPORT_FORMATS, "report.format",
          f"must be one of {REPORT_FORMATS}")


@functools.lru_cache(maxsize=2)
def _yaml_tree(path: str, text: str) -> dict:
    """The top-level mapping of the YAML `text`, read from `path`. Every
    caller shares it, so it is read, never written."""
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
    return loaded


def parse_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Load, override and validate a run configuration.

    Raises ConfigError listing every violation, or naming the line and
    column of malformed YAML; an absent path or empty file yields pure
    defaults. The file is read on every call and its YAML parsed once per
    process for each text (`_yaml_tree`).
    """
    raw: dict = {}
    if path is not None:
        raw = _yaml_tree(str(path), Path(path).read_text())
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
