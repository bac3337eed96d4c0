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
    config_fingerprint,
    load_manifest,
    load_model,
    read_json,
    record_stage,
    require_stage,
    save_model,
    write_json,
)
from .config import DatasetSection, RunConfig, parse_config
from .data import LabeledDataset, PartitionPlan, load_dataset
from .errors import ConfigError, DataError, KdsimError
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
        data.features.flags.writeable = False
        data.labels.flags.writeable = False
    return sets


def _partition_params(cfg: RunConfig) -> dict:
    p = cfg.partition
    params = {
        "beta": p.beta,
        "dominant_fraction": p.dominant_fraction,
        "min_chunk": p.min_chunk,
    }
    if p.betas is not None:
        params["betas"] = list(p.betas)
    return params


def _scenario(cfg: RunConfig, out: Path, force: bool) -> Scenario:
    """Rebuild the Scenario for this run from the partition artifacts.

    Shards are split into train and validation sets only when a stage
    reads them (see `orchestrate.ParticipantData`).
    """
    arts = require_stage(out, cfg, "partition", force)
    train, test = _base_data(cfg)
    plan = PartitionPlan.from_json_dict(read_json(out / arts["plan"]))
    pool = read_json(out / arts["pool"])
    pool_idx = np.asarray(pool["pool_indices"], dtype=np.int64)
    remainder_idx = np.asarray(pool["remainder_indices"], dtype=np.int64)
    return scenario_from_plan(
        train,
        test,
        plan,
        pool_idx,
        remainder_idx,
        cfg.partition.val_fraction,
        cfg.seed,
        label=cfg.partition.strategy,
    )


def _model_path(i: int) -> str:
    return f"models/participant_{i:02d}.kdsm"


def _load_pretrained(
    cfg: RunConfig, out: Path, force: bool, k: int, ids: tuple[int, ...] | None = None
) -> dict[int, tuple[Model, EvalReport]]:
    """The pretrained (model, report) of each participant in `ids` (all k
    by default), keyed by id.

    The evaluations' schema and count and the manifest entry of every
    participant's model are checked; only the model files of `ids` are
    read.
    """
    arts = require_stage(out, cfg, "pretrain", force)
    fingerprint = config_fingerprint(cfg, "pretrain")
    payload = read_json(out / arts["evals"])
    if payload.get("schema_version") != PRETRAIN_EVALS_SCHEMA_VERSION:
        raise DataError(
            f"unsupported pretrain evaluations schema {payload.get('schema_version')!r}; "
            f"rerun `kdsim pretrain`"
        )
    reports = [EvalReport.from_dict(item) for item in payload["reports"]]
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
        i: (load_model(out / arts[f"model_{i:02d}"], fingerprint, force), reports[i])
        for i in (range(k) if ids is None else ids)
    }


def _check_pair(args, k: int) -> tuple[int, int]:
    teacher, student = args.teacher, args.student
    for label, value in (("teacher", teacher), ("student", student)):
        if not 0 <= value < k:
            raise ConfigError(f"--{label} must lie in [0, {k - 1}], got {value}")
    if teacher == student:
        raise ConfigError("teacher and student must differ")
    return teacher, student


# -- subcommands ------------------------------------------------------------


def cmd_partition(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, _ = _base_data(cfg)
    plan, pool_idx, remainder_idx = plan_partition(
        train, cfg.partition.strategy, cfg.partition.k, _partition_params(cfg),
        cfg.pool.size, cfg.seed,
    )
    write_json(out / PLAN_FILE, plan.to_json_dict())
    write_json(
        out / POOL_FILE,
        {"pool_indices": pool_idx.tolist(), "remainder_indices": remainder_idx.tolist()},
    )
    record_stage(out, cfg, "partition", {"plan": PLAN_FILE, "pool": POOL_FILE})
    sizes = plan.sizes()
    print(
        f"partitioned {sum(sizes)} samples into {plan.k} shards "
        f"({cfg.partition.strategy}): {sizes}"
    )
    print(f"public pool: {len(pool_idx)} samples")
    return 0


def cmd_pretrain(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    scenario = _scenario(cfg, out, args.force)
    pretrained = pretrain_participants(
        scenario, tuple(cfg.model.hidden_layers), cfg.pretrain, cfg.seed
    )
    (out / "models").mkdir(exist_ok=True)
    fingerprint = config_fingerprint(cfg, "pretrain")
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
    record_stage(out, cfg, "pretrain", artifacts)
    for i, (_model, rep) in enumerate(pretrained):
        print(f"participant {i}: test accuracy {rep.overall_accuracy:.4f}")
    return 0


def cmd_distill(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    scenario = _scenario(cfg, out, args.force)
    teacher, student = _check_pair(args, scenario.k)
    pretrained = _load_pretrained(cfg, out, args.force, scenario.k, (teacher, student))
    option = args.transfer_option
    (result,) = run_pairwise_matrix(
        pretrained,
        scenario,
        [args.method],
        [option],
        cfg.distill,
        cfg.grid,
        cfg.transfer_sizes(),
        cfg.seed,
        pairs=[(teacher, student)],
    )
    rel = f"distill_t{teacher}_s{student}_{args.method}_{option}.json"
    write_json(out / rel, result.to_json_dict())
    record_stage(out, cfg, "distill", {"result": rel})
    print(
        f"{args.method} transfer {teacher} -> {student} via {option}: "
        f"gain {result.gain_points:+.2f} points "
        f"({result.pre_eval.overall_accuracy:.4f} -> "
        f"{result.post_eval.overall_accuracy:.4f})"
    )
    return 0


def cmd_grid(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    scenario = _scenario(cfg, out, args.force)
    teacher, student = _check_pair(args, scenario.k)
    pretrained = _load_pretrained(cfg, out, args.force, scenario.k, (teacher, student))
    option = args.transfer_option
    transfer = transfer_set_for(scenario, option, student, cfg.transfer_sizes(), cfg.seed)
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
    record_stage(out, cfg, "grid", {"surface": rel})
    print(
        f"grid for {teacher} -> {student} via {option}: best T = "
        f"{search.best_temperature:g}, alpha = {search.best_alpha:g} "
        f"({len(search.surface)} cells)"
    )
    return 0


def cmd_matrix(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    scenario = _scenario(cfg, out, args.force)
    pretrained = _load_pretrained(cfg, out, args.force, scenario.k)
    results = run_pairwise_matrix(
        pretrained,
        scenario,
        list(cfg.distill.methods),
        list(cfg.distill.transfer_options),
        cfg.distill,
        cfg.grid,
        cfg.transfer_sizes(),
        cfg.seed,
        jobs=cfg.jobs,
    )
    emit_report(results, [], "json", out)
    record_stage(out, cfg, "matrix", {"results": RESULTS_FILE})
    totals = cumulative_gain(results)
    print(f"{len(results)} pairwise records")
    for method in sorted(totals):
        print(f"  {method}: cumulative gain {totals[method]:+.2f} points")
    return 0


def cmd_consolidate(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    scenario = _scenario(cfg, out, args.force)
    pretrained = list(_load_pretrained(cfg, out, args.force, scenario.k).values())
    c = cfg.consolidate
    merged, report = consolidate_models(
        pretrained,
        scenario,
        c.start_policy,
        c.weighting,
        c.transfer_option,
        c.epochs,
        cfg.distill,
        cfg.transfer_sizes(),
        cfg.seed,
    )
    save_model(out / CONSOLIDATED_MODEL, merged, config_fingerprint(cfg, "consolidate"))
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
    record_stage(
        out,
        cfg,
        "consolidate",
        {"model": CONSOLIDATED_MODEL, "summary": CONSOLIDATE_FILE},
    )
    best = max(rep.overall_accuracy for _, rep in pretrained)
    print(
        f"consolidated ({c.start_policy} start, {c.weighting} weights): "
        f"test accuracy {report.overall_accuracy:.4f} (best single {best:.4f})"
    )
    return 0


def cmd_fedavg(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    scenario = _scenario(cfg, out, args.force)
    arts = require_stage(out, cfg, "consolidate", args.force)
    consolidated = load_model(
        out / arts["model"], config_fingerprint(cfg, "consolidate"), args.force
    )
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
    record_stage(out, cfg, "fedavg", {"trajectories": TRAJECTORIES_FILE})
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
    out = Path(cfg.out_dir)
    arts = require_stage(out, cfg, "matrix", args.force)
    results = parse_results_json(out / arts["results"])
    trajectories: list[FedTrajectory] = []
    if "fedavg" in load_manifest(out)["stages"]:
        fed_arts = require_stage(out, cfg, "fedavg", args.force)
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
