"""Command-line pipeline driver.

Stages run as subcommands against one run directory:

    kdsim partition    carve the public pool, partition the remainder
    kdsim pretrain     train one model per participant
    kdsim distill      transfer one teacher -> student pair
    kdsim grid         temperature/alpha search for one pair
    kdsim matrix       the full ordered pairwise matrix
    kdsim consolidate  merge all participants into one model
    kdsim fedavg       paired federations: random vs consolidated start
    kdsim report       emit the canonical result files

Each stage records its outputs in the run manifest under a fingerprint
of the configuration slice it depends on; downstream stages refuse stale
artifacts unless --force is given. Exit codes: 0 success, 1 bad
configuration or usage, 2 runtime failure.

`main` may be called many times in one process, say by a driver that
sends many small requests against one run directory. Every call reads
the config, the manifest, `plan.json`, `pool.json`,
`pretrain_evals.json` and the model files it needs again, and runs every
check; what it builds from them (the YAML tree, the toy dataset, the
Scenario with the splits drawn so far, the evaluations, each Model) is
made once per process for each content of those files and shared by
later calls. A shared object's arrays are read-only: a stage that wrote
into one would fail instead of changing the next call's input. Within
one call the manifest is read once and each stage fingerprint computed
once (`artifacts.RunDir`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    RunDir,
    decoding,
    load_model,
    parse_json,
    read_bytes,
    save_model,
    write_json,
)
from .config import DatasetSection, RunConfig, parse_config
from .data import LabeledDataset, PartitionPlan, index_array, load_dataset, read_only, validate_plan
from .errors import ConfigError, DataError, KdsimError, ParseError, PartitionError
from .fed import FedTrajectory, preconsolidated_fedavg, rounds_to_target
from .metrics import (
    cumulative_gain,
    emit_report,
    parse_results_json,
    parse_trajectories_json,
    trajectories_payload,
)
from .nn import EvalReport, Model, init_model
from .orchestrate import (
    Scenario,
    best_teacher_frequency,
    consolidate_models,
    grid_search_tuned,
    pair_seed,
    participant_arch,
    plan_partition,
    pretrain_participants,
    run_pairwise_matrix,
    scenario_from_plan,
    transfer_set_for,
)
from .seeding import stable_seed
from .toydata import gaussian_blobs

ENV_OUT_DIR = "KDSIM_OUT_DIR"

PLAN_FILE = "plan.json"
POOL_FILE = "pool.json"
PRETRAIN_EVALS_FILE = "pretrain_evals.json"
PRETRAIN_EVALS_SCHEMA_VERSION = 1
RESULTS_FILE = "results.json"
CONSOLIDATED_MODEL = "consolidated.kdsm"
CONSOLIDATE_FILE = "consolidate.json"
TRAJECTORIES_FILE = "trajectories.json"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage mistakes as configuration errors."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves
    it unchanged, so every `main` call can share it."""
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run configuration")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument(
        "--out-dir", metavar="PATH", help=f"run directory (or ${ENV_OUT_DIR})"
    )
    common.add_argument("--jobs", type=int, help="worker processes for the matrix")
    common.add_argument(
        "--force",
        action="store_true",
        help="consume artifacts even if their config fingerprint is stale",
    )

    pair = _Parser(add_help=False)
    pair.add_argument("--teacher", type=int, required=True, help="teacher participant id")
    pair.add_argument("--student", type=int, required=True, help="student participant id")

    parser = _Parser(prog="kdsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kdsim {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("partition", parents=[common], help="carve pool and shards")
    sub.add_parser("pretrain", parents=[common], help="train every participant")

    p = sub.add_parser("distill", parents=[common, pair], help="one pairwise transfer")
    p.add_argument("--method", default="vanilla", help="vanilla, dml, dpkd or tuned")
    p.add_argument("--transfer-option", default="student_data", dest="transfer_option")

    p = sub.add_parser("grid", parents=[common, pair], help="search one pair's grid")
    p.add_argument("--transfer-option", default="student_data", dest="transfer_option")

    sub.add_parser("matrix", parents=[common], help="full pairwise matrix")
    sub.add_parser("consolidate", parents=[common], help="merge into one model")
    sub.add_parser("fedavg", parents=[common], help="paired federation arms")
    sub.add_parser("report", parents=[common], help="emit canonical result files")
    return parser


def _load_config(args) -> RunConfig:
    out_dir = args.out_dir if args.out_dir is not None else os.environ.get(ENV_OUT_DIR)
    overrides = {"seed": args.seed, "out_dir": out_dir, "jobs": args.jobs}
    path = args.config
    if path is not None and not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path, overrides)


# -- shared stage plumbing --------------------------------------------------


def _base_data(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """The run's train and test sets. A toy draw is made once per process
    for each dataset section and seed (see `_toy_data`); CSV files are
    read on every call."""
    d = cfg.dataset
    if d.kind == "toy":
        return _toy_data(astuple(d), cfg.seed)
    train = load_dataset(d.train_path)
    test = load_dataset(d.test_path, class_count=train.class_count)
    return train, test


@functools.lru_cache(maxsize=4)
def _toy_data(dataset: tuple, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """`gaussian_blobs` of a toy dataset section, given as the tuple of
    its field values, under a master seed. Every stage call of one
    process shares the result, so its arrays are read-only."""
    d = DatasetSection(*dataset)
    sets = gaussian_blobs(
        d.classes,
        d.dim,
        d.train_per_class,
        d.test_per_class,
        d.spread,
        stable_seed(seed, "dataset"),
    )
    for data in sets:
        read_only(data.features, data.labels)
    return sets


def _file(path: Path) -> tuple[Path, bytes]:
    return path, read_bytes(path)


def _scenario(run: RunDir) -> Scenario:
    """The Scenario of this run's partition artifacts, shared by every
    call with the same plan and pool bytes, datasets, partition settings
    and seed (see `_scenario_from`).

    The partition fingerprint leaves out `pool`, so a pool carved at
    another `pool.size` is refused here, on every call, unless --force is
    given.
    """
    cfg = run.cfg
    arts = run.require("partition")
    train, test = _base_data(cfg)
    scenario = _scenario_from(
        _file(run.out / arts["plan"]),
        _file(run.out / arts["pool"]),
        train,
        test,
        cfg.partition.val_fraction,
        cfg.partition.strategy,
        cfg.seed,
    )
    held = len(scenario.pool_indices)
    if held != cfg.pool.size and not run.force:
        raise ConfigError(
            f"the public pool in {run.out} holds {held} samples, but pool.size "
            f"is {cfg.pool.size}; rerun `kdsim partition` or pass --force"
        )
    return scenario


@functools.lru_cache(maxsize=2)
def _scenario_from(
    plan: tuple[Path, bytes],
    pool: tuple[Path, bytes],
    train: LabeledDataset,
    test: LabeledDataset,
    val_fraction: float,
    label: str,
    seed: int,
) -> Scenario:
    """`orchestrate.scenario_from_plan` on the (path, bytes) of `plan.json`
    and `pool.json`. Datasets key by identity: a toy draw is one object
    per process (`_toy_data`), a CSV read a new one each time. Every array
    is read-only, the splits drawn on first use included, and those splits
    are kept with the Scenario.

    Every index must be a JSON integer (`data.index_array`). The pool
    and remainder indices must be unique, disjoint rows of `train`, and
    the plan's shards must be disjoint, non-empty sets of remainder
    positions (`data.validate_plan`); else a ParseError names the file."""
    read_only(test.features, test.labels)
    payload = parse_json(*pool)
    with decoding(pool[0]):
        pool_indices = index_array(payload["pool_indices"])
        remainder_indices = index_array(payload["remainder_indices"])
        rows = np.concatenate([pool_indices, remainder_indices])
        if not np.all((rows >= 0) & (rows < len(train))):
            raise ParseError(
                f"{pool[0]}: pool and remainder indices must be rows in [0, {len(train)})"
            )
        # np.unique would import numpy.ma, 2 MiB of peak memory
        if np.bincount(rows, minlength=1).max() > 1:
            raise ParseError(f"{pool[0]}: pool and remainder indices must be unique and disjoint")
    payload = parse_json(*plan)
    with decoding(plan[0]):
        partition = PartitionPlan.from_json_dict(payload)
        try:
            validate_plan(partition, len(remainder_indices))
        except PartitionError as exc:
            raise ParseError(
                f"{plan[0]}: {exc} (the remainder holds {len(remainder_indices)} rows)"
            ) from None
    read_only(*partition.participants)
    return scenario_from_plan(
        train,
        test,
        partition,
        pool_indices,
        remainder_indices,
        val_fraction,
        seed,
        label=label,
    )


def _model_path(i: int) -> str:
    return f"models/participant_{i:02d}.kdsm"


def _load_pretrained(
    run: RunDir, scenario: Scenario, ids: tuple[int, ...] | None = None
) -> dict[int, tuple[Model, EvalReport]]:
    """The pretrained (model, report) of each participant in `ids` (all of
    the scenario's k by default), keyed by id.

    The evaluations' schema, count and shape (see `_pretrain_reports`)
    and the manifest entry of every participant's model are checked; only
    the model files of `ids` are read.
    """
    arts = run.require("pretrain")
    fingerprint = run.fingerprint("pretrain")
    k, test = scenario.k, scenario.test
    reports = _pretrain_reports(_file(run.out / arts["evals"]), test.class_count, len(test))
    if len(reports) != k:
        raise ConfigError(
            f"{len(reports)} pretrained models for {k} participants; rerun `kdsim pretrain`"
        )
    for i in range(k):
        if f"model_{i:02d}" not in arts:
            raise ConfigError(
                f"pretrained model {i} missing from manifest; rerun `kdsim pretrain`"
            )
    return {
        i: (load_model(run.out / arts[f"model_{i:02d}"], fingerprint, run.force), reports[i])
        for i in (range(k) if ids is None else ids)
    }


@functools.lru_cache(maxsize=2)
def _pretrain_reports(
    evals: tuple[Path, bytes], classes: int, test_size: int
) -> tuple[EvalReport, ...]:
    """The read-only reports the (path, bytes) of `pretrain_evals.json`
    hold, after a schema check and a check that each report has one
    accuracy and one support per class of the test set, `classes`, with
    supports summing to its `test_size` rows."""
    path, blob = evals
    payload = parse_json(path, blob)
    with decoding(path):
        version = payload.get("schema_version")
        if version != PRETRAIN_EVALS_SCHEMA_VERSION:
            raise DataError(
                f"{path}: unsupported pretrain evaluations schema {version!r}; "
                f"rerun `kdsim pretrain`"
            )
        reports = tuple(EvalReport.from_dict(item) for item in payload["reports"])
        for i, rep in enumerate(reports):
            lengths = len(rep.per_class_accuracy), len(rep.per_class_support)
            if lengths != (classes, classes) or rep.per_class_support.sum() != test_size:
                raise ParseError(
                    f"{path}: participant {i}'s report has {lengths[0]} accuracies and "
                    f"{lengths[1]} supports summing to {rep.per_class_support.sum()}, for a "
                    f"test set of {test_size} rows in {classes} classes; rerun `kdsim pretrain`"
                )
    for rep in reports:
        read_only(rep.per_class_accuracy, rep.per_class_support)
    return reports


def _check_pair(args, k: int) -> tuple[int, int]:
    teacher, student = args.teacher, args.student
    for label, value in (("teacher", teacher), ("student", student)):
        if not 0 <= value < k:
            raise ConfigError(f"--{label} must lie in [0, {k - 1}], got {value}")
    if teacher == student:
        raise ConfigError("teacher and student must differ")
    return teacher, student


# -- subcommands ------------------------------------------------------------


def _contents(out: Path, names: tuple[str, ...]) -> list[bytes | None]:
    return [(out / name).read_bytes() if (out / name).exists() else None for name in names]


def cmd_partition(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    out.mkdir(parents=True, exist_ok=True)
    train, _ = _base_data(cfg)
    plan, pool_idx, remainder_idx = plan_partition(train, cfg.partition, cfg.pool, cfg.seed)
    files = (PLAN_FILE, POOL_FILE)
    before = _contents(out, files)
    write_json(out / PLAN_FILE, plan.to_json_dict())
    write_json(
        out / POOL_FILE,
        {"pool_indices": pool_idx.tolist(), "remainder_indices": remainder_idx.tolist()},
    )
    # The partition fingerprint leaves out pool.size and the rows of a CSV
    # dataset, so a rerun may carve other shards under the same
    # fingerprint; the stages built on the old ones are then stale.
    run.record(
        "partition", {"plan": PLAN_FILE, "pool": POOL_FILE}, changed=_contents(out, files) != before
    )
    sizes = plan.sizes()
    print(
        f"partitioned {sum(sizes)} samples into {plan.k} shards "
        f"({cfg.partition.strategy}): {sizes}"
    )
    print(f"public pool: {len(pool_idx)} samples")
    return 0


def cmd_pretrain(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    scenario = _scenario(run)
    pretrained = pretrain_participants(
        scenario, tuple(cfg.model.hidden_layers), cfg.pretrain, cfg.seed
    )
    (out / "models").mkdir(exist_ok=True)
    fingerprint = run.fingerprint("pretrain")
    artifacts = {"evals": PRETRAIN_EVALS_FILE}
    for i, (model, _report) in enumerate(pretrained):
        rel = _model_path(i)
        save_model(out / rel, model, fingerprint)
        artifacts[f"model_{i:02d}"] = rel
    write_json(
        out / PRETRAIN_EVALS_FILE,
        {
            "schema_version": PRETRAIN_EVALS_SCHEMA_VERSION,
            "reports": [rep.as_dict() for _, rep in pretrained],
        },
    )
    run.record("pretrain", artifacts)
    for i, (_model, rep) in enumerate(pretrained):
        print(f"participant {i}: test accuracy {rep.overall_accuracy:.4f}")
    return 0


def cmd_distill(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    scenario = _scenario(run)
    teacher, student = _check_pair(args, scenario.k)
    pretrained = _load_pretrained(run, scenario, (teacher, student))
    option = args.transfer_option
    (result,) = run_pairwise_matrix(
        pretrained,
        scenario,
        [args.method],
        [option],
        cfg.distill,
        cfg.grid,
        cfg.pool,
        cfg.seed,
        pairs=[(teacher, student)],
    )
    rel = f"distill_t{teacher}_s{student}_{args.method}_{option}.json"
    write_json(out / rel, result.to_json_dict())
    run.record("distill", {"result": rel})
    print(
        f"{args.method} transfer {teacher} -> {student} via {option}: "
        f"gain {result.gain_points:+.2f} points "
        f"({result.pre_eval.overall_accuracy:.4f} -> "
        f"{result.post_eval.overall_accuracy:.4f})"
    )
    return 0


def cmd_grid(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    scenario = _scenario(run)
    teacher, student = _check_pair(args, scenario.k)
    pretrained = _load_pretrained(run, scenario, (teacher, student))
    option = args.transfer_option
    transfer = transfer_set_for(scenario, option, student, cfg.pool, cfg.seed)
    search = grid_search_tuned(
        pretrained[student][0],
        pretrained[teacher][0],
        transfer,
        cfg.grid,
        cfg.distill,
        scenario.participants[student].val,
        seed_fn=lambda t, a: pair_seed(cfg.seed, teacher, student, "vanilla", t, a),
    )
    rel = f"grid_t{teacher}_s{student}_{option}.json"
    write_json(
        out / rel,
        {
            "best_alpha": search.best_alpha,
            "best_temperature": search.best_temperature,
            "student": student,
            "surface": [
                {"alpha": a, "gain_points": g, "temperature": t}
                for (t, a), g in sorted(search.surface.items())
            ],
            "teacher": teacher,
            "transfer_option": option,
        },
    )
    run.record("grid", {"surface": rel})
    print(
        f"grid for {teacher} -> {student} via {option}: best T = "
        f"{search.best_temperature:g}, alpha = {search.best_alpha:g} "
        f"({len(search.surface)} cells)"
    )
    return 0


def cmd_matrix(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    scenario = _scenario(run)
    pretrained = _load_pretrained(run, scenario)
    results = run_pairwise_matrix(
        pretrained,
        scenario,
        list(cfg.distill.methods),
        list(cfg.distill.transfer_options),
        cfg.distill,
        cfg.grid,
        cfg.pool,
        cfg.seed,
        jobs=cfg.jobs,
    )
    emit_report(results, [], "json", run.out)
    run.record("matrix", {"results": RESULTS_FILE})
    totals = cumulative_gain(results)
    print(f"{len(results)} pairwise records")
    for method in sorted(totals):
        print(f"  {method}: cumulative gain {totals[method]:+.2f} points")
    return 0


def cmd_consolidate(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    scenario = _scenario(run)
    pretrained = list(_load_pretrained(run, scenario).values())
    c = cfg.consolidate
    merged, report = consolidate_models(pretrained, scenario, c, cfg.distill, cfg.pool, cfg.seed)
    save_model(out / CONSOLIDATED_MODEL, merged, run.fingerprint("consolidate"))
    write_json(
        out / CONSOLIDATE_FILE,
        {
            "participant_accuracies": [
                rep.overall_accuracy for _, rep in pretrained
            ],
            "post_eval": report.as_dict(),
            "start_policy": c.start_policy,
            "transfer_option": c.transfer_option,
            "weighting": c.weighting,
        },
    )
    run.record("consolidate", {"model": CONSOLIDATED_MODEL, "summary": CONSOLIDATE_FILE})
    best = max(rep.overall_accuracy for _, rep in pretrained)
    print(
        f"consolidated ({c.start_policy} start, {c.weighting} weights): "
        f"test accuracy {report.overall_accuracy:.4f} (best single {best:.4f})"
    )
    return 0


def cmd_fedavg(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    scenario = _scenario(run)
    arts = run.require("consolidate")
    consolidated = load_model(out / arts["model"], run.fingerprint("consolidate"), run.force)
    arch = participant_arch(scenario, tuple(cfg.model.hidden_layers))
    random_init = init_model(arch, stable_seed(cfg.seed, "fed-init"))
    random_arm, consolidated_arm = preconsolidated_fedavg(
        random_init,
        consolidated,
        [part.shard for part in scenario.participants],
        scenario.test,
        cfg.fed,
        stable_seed(cfg.seed, "fed"),
    )
    write_json(out / TRAJECTORIES_FILE, trajectories_payload([random_arm, consolidated_arm]))
    run.record("fedavg", {"trajectories": TRAJECTORIES_FILE})
    for traj in (random_arm, consolidated_arm):
        final = traj.accuracies[-1]
        print(
            f"{traj.init_tag}: start {traj.init_accuracy:.4f}, "
            f"final {final:.4f} after {len(traj.accuracies)} rounds"
        )
    # a random arm that never classifies a test row right sets no target
    target = max(random_arm.accuracies)
    reached = rounds_to_target(consolidated_arm, target) if target > 0 else None
    if reached is not None:
        print(
            f"consolidated start reaches the random arm's best accuracy "
            f"({target:.4f}) in round {reached}"
        )
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    run = RunDir(cfg.out_dir, cfg, args.force)
    out = run.out
    arts = run.require("matrix")
    results = parse_results_json(out / arts["results"])
    trajectories: list[FedTrajectory] = []
    if "fedavg" in run.manifest()["stages"]:
        fed_arts = run.require("fedavg")
        trajectories = parse_trajectories_json(out / fed_arts["trajectories"])
    written = emit_report(results, trajectories, cfg.report.format, out)
    totals = cumulative_gain(results)
    frequency = best_teacher_frequency(results)
    for path in written:
        print(f"wrote {path}")
    for method in sorted(totals):
        print(f"  {method}: cumulative gain {totals[method]:+.2f} points")
    winners = ", ".join(f"{t}:{n}" for t, n in frequency.items())
    print(f"  best-teacher wins per student: {winners}")
    return 0


_COMMANDS = {
    "partition": cmd_partition,
    "pretrain": cmd_pretrain,
    "distill": cmd_distill,
    "grid": cmd_grid,
    "matrix": cmd_matrix,
    "consolidate": cmd_consolidate,
    "fedavg": cmd_fedavg,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("no command given; see kdsim --help")
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"kdsim: {exc}", file=sys.stderr)
        return 1
    except KdsimError as exc:
        print(f"kdsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
