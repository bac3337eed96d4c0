"""Result records, accuracy deltas and report files.

Accuracy gains are expressed in percentage points throughout: a model
moving from 0.60 to 0.65 overall gained +5.0 points. Each number has
one definition. Overall accuracy is hits over rows (`nn._accuracy`).
`points` turns two accuracies into points: a record's gain, its
teacher-minus-student `strength_delta` (`teacher_strength`, which also
labels it) and each cell of the tuned search's surface
(`orchestrate.grid_search_teachers`). Per-class movement
(`learning_forgetting`) splits into learning (classes that improved)
and forgetting (classes that regressed); their support-weighted
difference reconciles exactly with the overall gain because both sides
are computed on the same evaluation set. `build_pair_result` assembles
a record from these alone.

`emit_report` writes the canonical result files. CSV output rounds
percentage values to 2 decimal places for reading; the JSON mirror keeps
full float precision and round-trips records losslessly, so it is the
file of record. FedAvg trajectories have one JSON serializer
(`trajectories_payload`) and one parser (`parse_trajectories_json`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import atomic_write, decoding, read_json, write_json
from .errors import ConfigError, DataError
from .fed import FedTrajectory
from .nn import EvalReport

RESULTS_SCHEMA_VERSION = 1

RESULT_COLUMNS = (
    "scenario",
    "method",
    "transfer_option",
    "teacher_id",
    "student_id",
    "T",
    "alpha",
    "pre_acc",
    "post_acc",
    "gain_points",
    "teacher_acc",
    "strength_delta",
)


@dataclass(eq=False)
class PairResult:
    """Everything recorded about one teacher -> student transfer."""

    scenario: str
    method: str
    transfer_option: str
    teacher_id: int
    student_id: int
    temperature: float
    alpha: float
    pre_eval: EvalReport
    post_eval: EvalReport
    teacher_eval: EvalReport
    gain_points: float
    strength_delta: float
    strength: str
    learning: np.ndarray
    forgetting: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "method": self.method,
            "transfer_option": self.transfer_option,
            "teacher_id": self.teacher_id,
            "student_id": self.student_id,
            "T": self.temperature,
            "alpha": self.alpha,
            "pre_eval": self.pre_eval.as_dict(),
            "post_eval": self.post_eval.as_dict(),
            "teacher_eval": self.teacher_eval.as_dict(),
            "gain_points": self.gain_points,
            "strength_delta": self.strength_delta,
            "strength": self.strength,
            "learning": [float(v) for v in self.learning],
            "forgetting": [float(v) for v in self.forgetting],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PairResult":
        return cls(
            scenario=payload["scenario"],
            method=payload["method"],
            transfer_option=payload["transfer_option"],
            teacher_id=int(payload["teacher_id"]),
            student_id=int(payload["student_id"]),
            temperature=float(payload["T"]),
            alpha=float(payload["alpha"]),
            pre_eval=EvalReport.from_dict(payload["pre_eval"]),
            post_eval=EvalReport.from_dict(payload["post_eval"]),
            teacher_eval=EvalReport.from_dict(payload["teacher_eval"]),
            gain_points=float(payload["gain_points"]),
            strength_delta=float(payload["strength_delta"]),
            strength=payload["strength"],
            learning=np.asarray(payload["learning"], dtype=np.float64),
            forgetting=np.asarray(payload["forgetting"], dtype=np.float64),
        )


def points(before: float, after: float) -> float:
    """The move from accuracy `before` to `after`, in percentage points."""
    return (after - before) * 100.0


def teacher_strength(pre: EvalReport, teacher: EvalReport) -> tuple[str, float]:
    """Label the teacher relative to the student's starting accuracy.

    Positive delta (teacher minus student, in points) means a stronger
    teacher, negative a weaker one, an exact tie is labeled comparable.
    """
    delta = points(pre.overall_accuracy, teacher.overall_accuracy)
    if delta > 0:
        label = "strong"
    elif delta < 0:
        label = "weak"
    else:
        label = "comparable"
    return label, delta


def learning_forgetting(pre: EvalReport, post: EvalReport) -> tuple[np.ndarray, np.ndarray]:
    """Per-class (learning, forgetting): improvement and regression, both
    clipped at zero."""
    if len(pre.per_class_accuracy) != len(post.per_class_accuracy):
        raise DataError("pre and post reports disagree on class count")
    diff = post.per_class_accuracy - pre.per_class_accuracy
    return np.maximum(diff, 0.0), np.maximum(-diff, 0.0)


def cumulative_gain(results: list[PairResult]) -> dict[str, float]:
    """Total gain points per method over all records."""
    totals: dict[str, float] = {}
    for r in results:
        totals[r.method] = totals.get(r.method, 0.0) + r.gain_points
    return totals


def build_pair_result(
    scenario: str,
    method: str,
    transfer_option: str,
    teacher_id: int,
    student_id: int,
    temperature: float,
    alpha: float,
    pre_eval: EvalReport,
    post_eval: EvalReport,
    teacher_eval: EvalReport,
) -> PairResult:
    strength, delta = teacher_strength(pre_eval, teacher_eval)
    learning, forgetting = learning_forgetting(pre_eval, post_eval)
    return PairResult(
        scenario=scenario,
        method=method,
        transfer_option=transfer_option,
        teacher_id=teacher_id,
        student_id=student_id,
        temperature=temperature,
        alpha=alpha,
        pre_eval=pre_eval,
        post_eval=post_eval,
        teacher_eval=teacher_eval,
        gain_points=points(pre_eval.overall_accuracy, post_eval.overall_accuracy),
        strength_delta=delta,
        strength=strength,
        learning=learning,
        forgetting=forgetting,
    )


# --------------------------------------------------------------------------
# Report files
# --------------------------------------------------------------------------


def canonical_order(results: list[PairResult]) -> list[PairResult]:
    return sorted(
        results,
        key=lambda r: (
            r.scenario,
            r.method,
            r.transfer_option,
            r.teacher_id,
            r.student_id,
            r.temperature,
            r.alpha,
        ),
    )


def _result_csv_row(r: PairResult) -> str:
    cells = [
        r.scenario,
        r.method,
        r.transfer_option,
        str(r.teacher_id),
        str(r.student_id),
        repr(float(r.temperature)),
        repr(float(r.alpha)),
        f"{r.pre_eval.overall_accuracy * 100.0:.2f}",
        f"{r.post_eval.overall_accuracy * 100.0:.2f}",
        f"{r.gain_points:.2f}",
        f"{r.teacher_eval.overall_accuracy * 100.0:.2f}",
        f"{r.strength_delta:.2f}",
    ]
    return ",".join(cells)


def trajectories_payload(trajectories: list[FedTrajectory]) -> dict:
    """JSON form of FedAvg trajectories; the final models stay out."""
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "trajectories": [
            {
                "init_tag": t.init_tag,
                "init_accuracy": t.init_accuracy,
                "accuracies": [float(a) for a in t.accuracies],
                "participants_per_round": t.participants_per_round,
            }
            for t in trajectories
        ],
    }


def emit_report(
    results: list[PairResult],
    trajectories: list[FedTrajectory],
    fmt: str,
    out_dir: str | Path,
) -> list[Path]:
    """Write canonical result files and return their paths.

    fmt chooses csv (rounded, human-oriented, plus a gain-vs-strength
    scatter file) or json (full precision, lossless round-trip). Output
    is byte-deterministic for a fixed input: records are canonically
    ordered and floats formatted the same way every run.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = canonical_order(results)
    if fmt == "csv":
        files = {
            "results.csv": [",".join(RESULT_COLUMNS)] + [_result_csv_row(r) for r in ordered],
            "gain_scatter.csv": ["strength_delta,gain_points,method,transfer_option,scenario"]
            + [
                f"{r.strength_delta:.2f},{r.gain_points:.2f},"
                f"{r.method},{r.transfer_option},{r.scenario}"
                for r in ordered
            ],
        }
        if trajectories:
            files["trajectories.csv"] = ["init_tag,round,accuracy"] + [
                f"{traj.init_tag},{rnd},{acc!r}"
                for traj in trajectories
                for rnd, acc in enumerate(traj.accuracies, start=1)
            ]
        for name, lines in files.items():
            with atomic_write(out / name) as fh:
                fh.writelines(line + "\n" for line in lines)
    else:
        files = {
            "results.json": {
                "schema_version": RESULTS_SCHEMA_VERSION,
                "results": [r.to_json_dict() for r in ordered],
            }
        }
        if trajectories:
            files["trajectories.json"] = trajectories_payload(trajectories)
        for name, payload in files.items():
            write_json(out / name, payload)
    return [out / name for name in files]


def parse_results_json(path: str | Path) -> list[PairResult]:
    payload = read_json(path)
    with decoding(path):
        version = payload.get("schema_version")
        if version != RESULTS_SCHEMA_VERSION:
            raise DataError(f"{path}: unsupported results schema {version!r}")
        return [PairResult.from_json_dict(item) for item in payload["results"]]


def parse_trajectories_json(path: str | Path) -> list[FedTrajectory]:
    payload = read_json(path)
    with decoding(path):
        version = payload.get("schema_version")
        if version != RESULTS_SCHEMA_VERSION:
            raise DataError(f"{path}: unsupported trajectories schema {version!r}")
        return [
            FedTrajectory(
                init_tag=item["init_tag"],
                init_accuracy=float(item["init_accuracy"]),
                accuracies=[float(a) for a in item["accuracies"]],
                participants_per_round=[
                    [int(c) for c in row] for row in item["participants_per_round"]
                ],
            )
            for item in payload["trajectories"]
        ]


def reconciliation_residual(result: PairResult) -> float:
    """|support-weighted (learning - forgetting) - overall gain| in fractions.

    Zero up to float error by construction; reports use it as a
    consistency check on emitted records.
    """
    support = result.pre_eval.per_class_support.astype(np.float64)
    total = support.sum()
    if total == 0:
        raise DataError("cannot reconcile a report with zero total support")
    weighted = float(np.sum(support * (result.learning - result.forgetting)) / total)
    overall = result.post_eval.overall_accuracy - result.pre_eval.overall_accuracy
    return abs(weighted - overall)
