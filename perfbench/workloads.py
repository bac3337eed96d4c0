"""The four benchmark workloads and the output check run after every stage.

Each workload is a kdsim run configuration plus the list of stage
invocations that one measured repetition makes. Set-up (data generation,
``partition`` and ``pretrain``) is shared by all of them. Every
invocation goes through ``kdsim.cli.main`` in this process with
``jobs: 1``.

Distillation epochs are cut from the default 30 so that one measured
repetition of ``matrix`` or ``grid``, a single stage invocation, lasts
one to two seconds: the reference-loop samples that bracket it
(reference.Speed) then follow the machine's speed closely enough.

Pretraining runs a fixed number of epochs (``patience`` equals
``max_epochs``, so early stopping never cuts it short). The amount of
set-up work then hardly depends on the seed, and neither does the work
of the measured stages: every student appears in K - 1 pairs, so the
transfer sets of all pairs together always hold (K - 1) times the
participants' training data, however the partition splits it. Only the
rounding up of each shard to whole minibatches varies, which moved the
optimizer step count of ``federate`` by 3.5 % across five seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SETUP_STAGES = (["partition"], ["pretrain"])

_BASE = {
    "jobs": 1,
    "report": {"format": "json"},
    "partition": {"strategy": "label_skew_dirichlet"},
    "pretrain": {"max_epochs": 30, "patience": 30},
}


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    sections: dict

    def config(self, seed: int) -> dict:
        cfg = json.loads(json.dumps(_BASE))
        cfg["seed"] = seed
        cfg["partition"]["k"] = self.k
        for section, values in self.sections.items():
            cfg.setdefault(section, {}).update(values)
        return cfg

    @property
    def matrix_records(self) -> int:
        """Pairwise records one matrix stage writes."""
        d = self.sections.get("distill", {})
        cells = len(d.get("methods", ())) * len(d.get("transfer_options", ()))
        return cells * self.k * (self.k - 1)

    def measured_stages(self, rng: random.Random) -> list[list[str]]:
        """Stage invocations of one measured repetition, in order."""
        if self.name in ("matrix", "grid"):
            return [["matrix"]]
        if self.name == "federate":
            return [["consolidate"], ["fedavg"]]
        pairs = [(t, s) for t in range(self.k) for s in range(self.k) if t != s]
        rng.shuffle(pairs)
        return [
            [
                "distill",
                "--teacher", str(t),
                "--student", str(s),
                "--method", "vanilla",
                "--transfer-option", "student_data",
            ]
            for t, s in pairs
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Long Adam minibatch loops of 180 pairwise runs (3 methods x 2
        # options x 30 pairs); bypasses grid search, fed, and per-request
        # config and artifact work.
        Workload(
            name="matrix",
            k=6,
            sections={
                "distill": {
                    "methods": ["vanilla", "dml", "dpkd"],
                    "transfer_options": ["student_data", "public_unlabeled_large"],
                    "epochs": 3,
                },
            },
        ),
        # 684 short vanilla runs in 12 grid searches, dominated by per-run
        # set-up and repeated soft targets; bypasses dml, dpkd,
        # multi-teacher distillation and fed.
        Workload(
            name="grid",
            k=3,
            sections={
                "distill": {
                    "methods": ["vanilla", "tuned"],
                    "transfer_options": ["student_data", "public_unlabeled_small"],
                    "epochs": 2,
                },
                # explicit, so the work stays the same whatever the default becomes
                "grid": {"sequential": False},
            },
        ),
        # Multi-teacher consolidation, then two SGD FedAvg arms with a
        # per-round evaluate; bypasses pairwise distillation, grid search
        # and result records.
        Workload(
            name="federate",
            k=10,
            sections={
                "consolidate": {"epochs": 200},
                "fed": {"rounds": 60},
            },
        ),
        # Closed loop, one client: 90 distill calls, each re-reading config,
        # plan and models; bypasses grid search, dml, dpkd, multi-teacher
        # distillation and fed.
        Workload(
            name="requests",
            k=10,
            sections={},
        ),
    )
}


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def _accuracy_ok(report: dict) -> bool:
    values = [report["overall_accuracy"], *report["per_class_accuracy"]]
    return all(
        isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0 for v in values
    )


def _check_records(payloads: list[dict], problems: list[str]) -> None:
    from kdsim.metrics import PairResult, reconciliation_residual

    for payload in payloads:
        where = (
            f"{payload.get('method')} {payload.get('teacher_id')}->{payload.get('student_id')}"
        )
        for key in ("pre_eval", "post_eval", "teacher_eval"):
            if not _accuracy_ok(payload[key]):
                problems.append(f"{where}: {key} accuracy not finite in [0, 1]")
        residual = reconciliation_residual(PairResult.from_json_dict(payload))
        if not residual <= 1e-9:
            problems.append(f"{where}: reconciliation residual {residual!r}")


def check_stage(workload: Workload, argv: list[str], out: Path) -> list[str]:
    """Problems with the outputs one stage invocation just wrote."""
    problems: list[str] = []
    stage = argv[0]
    manifest = json.loads((out / "manifest.json").read_text())
    if stage not in manifest["stages"]:
        return [f"{stage}: not recorded in the manifest"]
    arts = manifest["stages"][stage]["artifacts"]
    if stage == "partition":
        plan = json.loads((out / arts["plan"]).read_text())
        if len(plan["participants"]) != workload.k:
            problems.append(f"partition: {len(plan['participants'])} shards, want {workload.k}")
    elif stage == "pretrain":
        reports = json.loads((out / arts["evals"]).read_text())["reports"]
        models = [key for key in arts if key.startswith("model_")]
        if len(reports) != workload.k or len(models) != workload.k:
            problems.append(f"pretrain: {len(reports)} reports, {len(models)} models")
        if not all(_accuracy_ok(r) for r in reports):
            problems.append("pretrain: accuracy not finite in [0, 1]")
    elif stage == "matrix":
        records = json.loads((out / arts["results"]).read_text())["results"]
        if len(records) != workload.matrix_records:
            problems.append(f"matrix: {len(records)} records, want {workload.matrix_records}")
        _check_records(records, problems)
    elif stage == "consolidate":
        summary = json.loads((out / arts["summary"]).read_text())
        if not _accuracy_ok(summary["post_eval"]):
            problems.append("consolidate: accuracy not finite in [0, 1]")
    elif stage == "fedavg":
        rounds = workload.sections["fed"]["rounds"]
        trajectories = json.loads((out / arts["trajectories"]).read_text())["trajectories"]
        if len(trajectories) != 2:
            problems.append(f"fedavg: {len(trajectories)} trajectories, want 2")
        for t in trajectories:
            accs = [t["init_accuracy"], *t["accuracies"]]
            if len(t["accuracies"]) != rounds:
                problems.append(
                    f"fedavg {t['init_tag']}: {len(t['accuracies'])} rounds, want {rounds}"
                )
            if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs):
                problems.append(f"fedavg {t['init_tag']}: accuracy not finite in [0, 1]")
    elif stage == "distill":
        teacher, student = int(argv[2]), int(argv[4])
        payload = json.loads((out / arts["result"]).read_text())
        if (payload["teacher_id"], payload["student_id"]) != (teacher, student):
            problems.append(f"distill: result is for another pair than {teacher}->{student}")
        _check_records([payload], problems)
    return problems
