"""Compare what two kdsim trees compute, case by case.

    python3 .github/compare.py --base DIR --head DIR [--case NAME]

Each case of CASES runs kdsim from a tree's src/ on one config at each of
its seeds, in a fresh run directory, and compares:

* every file the case lists, every ``.kdsm`` and ``results.json``, by
  SHA-256;
* ``results.json`` record by record, matched by (scenario, method,
  transfer option, teacher, student);
* a digest of every model the matrix trains, keyed by (method, option,
  teacher, student, temperature, alpha), so a difference names the
  cell that moved. The run takes them from outside the package: it
  wraps ``orchestrate.evaluate`` and ``orchestrate.build_pair_result``,
  and each record takes the model evaluated just before it is built.
  Worker processes cannot report to that wrapper, so a case at ``--jobs``
  above 1 takes them from a ``--jobs 1`` run, whose results.json must
  equal its own.

A case on a benchmark workload without stages runs ``perfbench/run.py``
for one second and compares the artifacts and the peak RSS it reports.
A rerun case runs the head tree twice and fails on any difference. Every
other case needs ``--base``; a difference from it is a warning, not a
failure, because a change may move artifact bytes when it says why. One
summary table, with each run's wall seconds, goes to stdout and to
``$GITHUB_STEP_SUMMARY`` when that is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Case:
    name: str
    config: dict | str  # inline config sections, or a perfbench workload name
    argv: tuple = ()  # stage argvs, run in order; none runs perfbench/run.py
    seeds: tuple = (11, 23)
    jobs: int = 1
    files: tuple = ()  # glob patterns in the run directory
    one_process: bool = False  # run every argv through one kdsim.cli.main process
    ignore: tuple = ()  # benchmark artifacts left out of the comparison
    rerun: bool = False  # run the head tree twice instead of base and head


def stages(*argvs: str) -> tuple:
    return tuple(argv.split() for argv in argvs)


SMALL = {
    "dataset": {"classes": 3, "dim": 3, "train_per_class": 40, "test_per_class": 15},
    "partition": {"k": 4},
    "pool": {"size": 45, "labeled": 12, "unlabeled_small": 10, "unlabeled_large": 30},
    "model": {"hidden_layers": [8]},
    "pretrain": {"max_epochs": 4, "patience": 4},
}


def small(**sections: dict) -> dict:
    """SMALL with each of `sections` merged into the section of its name."""
    cfg = {name: dict(keys) for name, keys in SMALL.items()}
    for name, keys in sections.items():
        cfg.setdefault(name, {}).update(keys)
    return cfg


MATRIX = stages("partition", "pretrain", "matrix")
THREE_OPTIONS = ["student_data", "public_labeled", "public_unlabeled_small"]
PARTITIONS = {
    **{s: {"strategy": s} for s in (
        "uniform", "quantity_skew", "specialized", "label_skew_chunks", "label_skew_dirichlet",
    )},
    "dirichlet_betas": {"strategy": "label_skew_dirichlet", "betas": [0.3, 1, 2.5]},
}
PLAIN = small(
    model={"hidden_layers": [8, 4]},
    distill={"temperature": 2, "epochs": 2, "batch_size": 8},
    consolidate={"start_policy": "untrained", "transfer_option": "public_labeled"},
    fed={"optimizer": "adam", "rounds": 3, "batch_size": 8},
)
PLAIN_STAGES = stages(
    "partition",
    "pretrain",
    "distill --teacher 0 --student 1 --method vanilla --transfer-option public_labeled",
    "distill --teacher 1 --student 2 --method dpkd --transfer-option public_labeled",
    "distill --teacher 2 --student 3 --method tuned --transfer-option public_unlabeled_small",
    "consolidate",
    "fedavg",
)
PLAIN_FILES = ("distill_*.json", "consolidate.json", "trajectories.json")
WORKLOADS = ("matrix", "grid", "federate", "requests")

CASES = [
    # Every benchmark workload for one second. requests' manifest.json is
    # left out: it depends on the repetition count.
    *(
        Case(f"{prefix}{w}", w, seeds=seeds, rerun=rerun,
             ignore=("manifest.json",) if w == "requests" else ())
        for prefix, seeds, rerun in (("rerun-", (11,), True), ("bench-", (11, 23), False))
        for w in WORKLOADS
    ),
    # federate runs full participation at momentum 0 only.
    Case(
        "fedavg-partial",
        small(
            consolidate={"epochs": 2},
            fed={"rounds": 4, "local_epochs": 2, "participation_rate": 0.5,
                 "momentum": 0.9, "batch_size": 8},
        ),
        stages("partition", "pretrain", "consolidate", "fedavg"),
        files=("trajectories.json",),
    ),
    # The matrix workload runs only public_unlabeled_large at --jobs 1. This
    # runs DPKD's supervised masks, vanilla's CE + KD and DML on a shared
    # public set.
    Case(
        "matrix-paths",
        small(distill={"methods": ["vanilla", "dml", "dpkd"],
                       "transfer_options": THREE_OPTIONS, "epochs": 2, "batch_size": 8}),
        MATRIX,
        jobs=2,
    ),
    Case("matrix-workload", "matrix", MATRIX),
    # bench-grid compares files only: a cell whose model changed but whose
    # evaluations did not would go unseen there. This digests the grid
    # workload's tuned and vanilla models.
    Case("grid-workload", "grid", MATRIX),
    # Every other config pretrains with patience == max_epochs. Here cells
    # leave the pretraining stack at different epochs (4 -> 3 -> 2 -> 1
    # cells at seed 11, 4 -> 3 -> 1 at seed 23) before a sequential search.
    Case(
        "early-stop",
        small(
            dataset={"train_per_class": 60},
            partition={"strategy": "quantity_skew", "val_fraction": 0.3},
            pretrain={"max_epochs": 12, "patience": 2, "batch_size": 8, "learning_rate": 0.02},
            distill={"methods": ["vanilla", "tuned"], "transfer_options": THREE_OPTIONS,
                     "epochs": 2, "batch_size": 8},
            grid={"sequential": True, "temperatures": [0.5, 1, 2], "alphas": [0.25, 0.5]},
        ),
        MATRIX,
    ),
    # On a set without labels the search scans temperatures only. On
    # labeled options alpha weighs the CE and KL terms, and alpha 0 and 1
    # drop a term and train in stacks of their own.
    Case(
        "labeled-tuned",
        small(
            distill={"methods": ["vanilla", "tuned"],
                     "transfer_options": ["student_data", "public_labeled"],
                     "epochs": 2, "batch_size": 8},
            grid={"temperatures": [0.5, 1, 2], "alphas": [0, 0.5, 1]},
        ),
        MATRIX,
    ),
    # Every strategy, with every partition and pool key off its default.
    *(
        Case(
            f"partition-{name}",
            small(
                partition={**keys, "k": 3, "beta": 2, "min_chunk": 4,
                           "dominant_fraction": 0.8, "val_fraction": 0.2},
                pool={"size": 30, "labeled": 8, "unlabeled_small": 6, "unlabeled_large": 20},
                pretrain={"learning_rate": 0.05},
            ),
            stages("partition", "pretrain"),
            files=("plan.json", "pool.json", "pretrain_evals.json", "manifest.json"),
        )
        for name, keys in PARTITIONS.items()
    ),
    # Requests after the first reuse what earlier ones parsed.
    Case(
        "request-mix",
        small(
            dataset={"train_per_class": 80},
            partition={"val_fraction": 0.2},
            pretrain={"learning_rate": 0.05},
            distill={"epochs": 3, "batch_size": 8, "learning_rate": 0.05},
            grid={"temperatures": [1.0, 2.0], "alphas": [0.25, 0.5]},
        ),
        stages(
            "partition",
            "pretrain",
            *(
                f"distill --teacher {i % 3} --student {i % 3 + 1} --method {m} --transfer-option {o}"
                for i, (m, o) in enumerate([
                    ("vanilla", "student_data"), ("dml", "student_data"),
                    ("dpkd", "student_data"), ("tuned", "student_data"),
                    ("vanilla", "public_labeled"), ("dpkd", "public_labeled"),
                    ("vanilla", "student_data"),
                ])
            ),
            "grid --teacher 3 --student 0 --transfer-option student_data",
            "grid --teacher 3 --student 0 --transfer-option public_labeled",
        ),
        files=("manifest.json", "distill_*.json", "grid_*.json"),
        one_process=True,
    ),
    # The report stage's CSV files, which print each record's gain and
    # teacher-minus-student delta and each FedAvg round's accuracy.
    Case(
        "report-csv",
        small(
            distill={"methods": ["vanilla", "tuned"],
                     "transfer_options": ["student_data", "public_unlabeled_small"],
                     "epochs": 2, "batch_size": 8},
            grid={"temperatures": [1, 2], "alphas": [0.25, 0.5]},
            consolidate={"epochs": 2},
            fed={"rounds": 3, "batch_size": 8},
            report={"format": "csv"},
        ),
        stages("partition", "pretrain", "matrix", "consolidate", "fedavg", "report"),
        files=("results.csv", "gain_scatter.csv", "trajectories.csv"),
    ),
    # Plain models on fixed targets: CE plus KD at T = 2, supervised masks,
    # one-cell search rows, consolidation from an untrained start and Adam
    # FedAvg; plain-b1 gives every product of those steps a one-row operand.
    Case("plain", PLAIN, PLAIN_STAGES, files=PLAIN_FILES),
    Case(
        "plain-b1",
        {**PLAIN, "distill": {**PLAIN["distill"], "batch_size": 1},
         "fed": {**PLAIN["fed"], "batch_size": 1}},
        PLAIN_STAGES,
        seeds=(11,),
        files=PLAIN_FILES,
    ),
]


def case_config(case: Case, seed: int) -> dict:
    if isinstance(case.config, dict):
        return case.config
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS[case.config].config(seed)


# --------------------------------------------------------------------------
# One tree's run of one case at one seed
# --------------------------------------------------------------------------


@dataclass
class Run:
    files: dict = field(default_factory=dict)  # name -> SHA-256
    records: dict | None = None  # results.json's records by key
    # (method, option, teacher, student, temperature, alpha) -> [digest, ...]
    models: dict | None = None
    wall: float = 0.0
    rss: float | None = None  # a benchmark run's peak MiB
    repetitions: int | None = None
    error: str = ""


def records_of(path: Path) -> dict:
    """results.json's records by (scenario, method, transfer option,
    teacher, student)."""
    return {
        (r["scenario"], r["method"], r["transfer_option"], r["teacher_id"], r["student_id"]): r
        for r in json.loads(path.read_text())["results"]
    }


def record_changes(base: dict, head: dict) -> list:
    """Keys of the records that differ; ValueError if the keys differ."""
    if base.keys() != head.keys():
        raise ValueError(
            f"the record keys differ: {len(base)} records at base, {len(head)} at head"
        )
    return [key for key in base if base[key] != head[key]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def model_digest(model) -> str:
    """SHA-256 of a model's seed, weights and biases."""
    h = hashlib.sha256(str(model.seed).encode())
    for array in (*model.weights, *model.biases):
        h.update(repr(array.shape).encode() + array.tobytes())
    return h.hexdigest()


def drive(spec: dict) -> None:
    """Run each argv of `spec` through kdsim.cli.main in this process, then
    write the seconds they took and each trained model's digest."""
    import kdsim
    from kdsim import cli, orchestrate

    if not Path(kdsim.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"kdsim was imported from {kdsim.__file__}, not {spec['src']}")
    models = []
    if spec["models"]:
        evaluated = {}
        evaluate, build = orchestrate.evaluate, orchestrate.build_pair_result

        def evaluate_hook(model, *args):
            evaluated["model"] = model
            return evaluate(model, *args)

        def build_hook(*args):
            # build_pair_result(scenario, method, option, teacher, student,
            # temperature, alpha, ...)
            models.append([*args[1:7], model_digest(evaluated.pop("model"))])
            return build(*args)

        orchestrate.evaluate, orchestrate.build_pair_result = evaluate_hook, build_hook
    seconds = 0.0
    for argv in spec["argvs"]:
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds += time.perf_counter() - start
        if rc != 0:
            raise SystemExit(f"kdsim {argv[0]} exited with {rc}")
    Path(spec["report"]).write_text(json.dumps({"seconds": seconds, "models": models}))


def run_stages(tree: Path, case: Case, seed: int, config: Path, jobs: int) -> Run:
    """Run the case's stages from tree/src in a fresh run directory; take
    model digests at --jobs 1."""
    run = Run(models={} if jobs == 1 else None)
    with tempfile.TemporaryDirectory() as tmp:
        out, report = Path(tmp) / "run", Path(tmp) / "report.json"
        common = ["--config", str(config), "--seed", str(seed), "--jobs", str(jobs),
                  "--out-dir", str(out)]
        for argvs in [case.argv] if case.one_process else [[argv] for argv in case.argv]:
            spec = {"src": str(tree / "src"), "argvs": [[*argv, *common] for argv in argvs],
                    "models": jobs == 1, "report": str(report)}
            proc = subprocess.run(
                [sys.executable, __file__, "--drive", json.dumps(spec)],
                env={**os.environ, "PYTHONPATH": str(tree / "src")},
                capture_output=True, text=True,
            )
            if proc.returncode:
                run.error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                return run
            done = json.loads(report.read_text())
            run.wall += done["seconds"]
            for *key, digest in done["models"]:
                run.models.setdefault(tuple(key), []).append(digest)
        for pattern in ("**/*.kdsm", *case.files):
            found = sorted(out.glob(pattern))
            if not found:
                run.error = f"no file matches {pattern}"
            run.files.update((str(p.relative_to(out)), sha256(p)) for p in found)
        if (out / "results.json").exists():
            run.files["results.json"] = sha256(out / "results.json")
            run.records = records_of(out / "results.json")
    return run


def run_bench(tree: Path, case: Case, seed: int) -> Run:
    """One second of the case's benchmark workload through tree's
    perfbench/run.py."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", case.config,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    run = Run()
    for line in proc.stdout.splitlines():
        words = line.split()
        if line.startswith("artifacts sha256="):
            run.files = json.loads(line.split(" ", 2)[2])
        elif line.startswith("metric peak_rss_mb = "):
            run.rss = float(words[3])
        elif line.startswith("metric wall_s = "):
            run.wall, run.repetitions = float(words[3]), int(words[-2])
        elif line.startswith("check failed: "):
            run.error = line
    for name in case.ignore:
        run.files.pop(name, None)
    if proc.returncode and not run.error:
        run.error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    if not run.files and not run.error:
        run.error = "no artifacts left to compare"
    return run


def run_case(tree: Path, case: Case, seed: int) -> Run:
    if not case.argv:
        return run_bench(tree, case, seed)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        # JSON is valid YAML
        config.write_text(json.dumps(case_config(case, seed), indent=1) + "\n")
        run = run_stages(tree, case, seed, config, case.jobs)
        if case.jobs > 1 and not run.error:
            serial = run_stages(tree, case, seed, config, 1)
            run.models = serial.models
            if serial.error:
                run.error = f"at --jobs 1: {serial.error}"
            elif serial.files.get("results.json") != run.files.get("results.json"):
                run.error = f"results.json differs between --jobs 1 and --jobs {case.jobs}"
    return run


# --------------------------------------------------------------------------
# Comparison and summary
# --------------------------------------------------------------------------


def compare(a: Run, b: Run, sides: tuple) -> tuple[bool, list[str]]:
    """Whether two runs of one case differ, and a line for each kind of
    output they hold, then one for each record or model that differs."""
    errors = [f"{side} failed: {run.error}" for side, run in zip(sides, (a, b)) if run.error]
    if errors:
        return True, errors
    lines, details = [], []
    files = sorted(n for n in a.files.keys() | b.files.keys() if a.files.get(n) != b.files.get(n))
    lines.append(f"{len(files)} of {len(a.files.keys() | b.files.keys())} files differ")
    details += [f"file {name}" for name in files]
    differs = bool(files)
    if a.records is not None and b.records is not None:
        try:
            changed = record_changes(a.records, b.records)
        except ValueError as exc:
            lines.append(str(exc))
            differs = True
        else:
            lines.append(f"{len(changed)} of {len(a.records)} records differ")
            details += [f"record {key}" for key in changed]
            differs |= bool(changed)
    if a.models or b.models:
        keys = sorted(a.models.keys() | b.models.keys(), key=repr)
        changed = [key for key in keys if a.models.get(key) != b.models.get(key)]
        lines.append(f"{len(changed)} of {len(keys)} trained models differ")
        details += [f"model {key}" for key in changed]
        differs |= bool(changed)
    return differs, lines + details


def main(argv: list[str] | None = None) -> int:
    names = [case.name for case in CASES]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--head", type=Path, required=True, help="the tree under test")
    p.add_argument("--base", type=Path, help="the tree to compare with; without it "
                   "only the rerun cases run")
    p.add_argument("--case", action="append", choices=names, metavar="NAME",
                   help=f"run only this case (repeatable): {', '.join(names)}")
    args = p.parse_args(argv)
    cases = [c for c in CASES if args.case is None or c.name in args.case]
    if args.base is None and not all(c.rerun for c in cases):
        if args.case:
            p.error("a case other than rerun-* needs --base")
        cases = [c for c in cases if c.rerun]
    head = args.head.resolve()
    base = args.base.resolve() if args.base else None
    rows, failed = [], False
    for case in cases:
        for seed in case.seeds:
            a = run_case(head if case.rerun else base, case, seed)
            b = run_case(head, case, seed)
            differs, lines = compare(a, b, ("run 1", "run 2") if case.rerun else ("base", "head"))
            where = f"{case.name}@{seed}"
            print(f"{where}: " + "; ".join(lines[:3]), *lines[3:], sep="\n  ", flush=True)
            result = "differs" if differs else "identical"
            if differs and case.rerun:
                failed = True
                print(f"::error::{where}: two runs of the head tree differ: {lines[0]}")
            elif differs:
                print(f"::warning::{where}: differs from the base commit: {'; '.join(lines[:3])}")
            if not case.rerun and a.rss and b.rss and b.rss > 1.01 * a.rss:
                result += ", RSS +1 %"
                print(f"::warning::{where}: peak_rss_mb {b.rss} MiB is more than 1 % "
                      f"above the base commit's {a.rss} MiB")
            rss = " / ".join(
                "-" if r.rss is None else f"{r.rss:.2f} ({r.repetitions})" for r in (a, b)
            )
            rows.append(f"| {case.name} | {seed} | {result}: {'; '.join(lines[:3])} "
                        f"| {a.wall:.2f} / {b.wall:.2f} | {rss} |")
    summary = "\n".join([
        "### Artifacts of two trees, case by case (`.github/compare.py`)",
        "",
        "Each row compares base / head, or for rerun-* two runs of head. A rerun that "
        "differs fails; a difference from base is a warning, and the change must say "
        "why its artifact bytes moved. Wall seconds and peak RSS are information only "
        "(RSS grows with the repetition count, in parentheses).",
        "",
        "| case | seed | result | wall s | peak RSS MiB (repetitions) |",
        "| --- | --- | --- | --- | --- |",
        *rows,
    ])
    print(summary)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as fh:
            fh.write(summary + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--drive"]:
        drive(json.loads(sys.argv[2]))
    else:
        sys.exit(main())
