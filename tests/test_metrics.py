"""Gain records, learning/forgetting accounting, report files."""

import json

import numpy as np
import pytest

from kdsim.errors import ConfigError, DataError
from kdsim.fed import FedTrajectory
from kdsim.metrics import (
    PairResult,
    build_pair_result,
    canonical_order,
    cumulative_gain,
    emit_report,
    learning_forgetting,
    parse_results_json,
    parse_trajectories_json,
    points,
    reconciliation_residual,
    teacher_strength,
)
from kdsim.nn import EvalReport


def _report(rng, classes=4):
    """Internally consistent report: overall is the support-weighted mean."""
    support = rng.integers(1, 30, size=classes)
    acc = rng.uniform(0, 1, size=classes)
    overall = float(np.sum(support * acc) / support.sum())
    return EvalReport(
        overall_accuracy=overall,
        per_class_accuracy=acc,
        per_class_support=support.astype(np.int64),
    )


def _flat_report(overall, classes=2, support=10):
    return EvalReport(
        overall_accuracy=overall,
        per_class_accuracy=np.full(classes, overall),
        per_class_support=np.full(classes, support, dtype=np.int64),
    )


def _result(rng, **overrides):
    pre = _report(rng)
    post = _report(rng)
    teacher = _report(rng)
    kwargs = dict(
        scenario="uniform",
        method="vanilla",
        transfer_option="student_data",
        teacher_id=0,
        student_id=1,
        temperature=1.0,
        alpha=0.5,
        pre_eval=pre,
        post_eval=post,
        teacher_eval=teacher,
    )
    kwargs.update(overrides)
    return build_pair_result(**kwargs)


# -- gains ------------------------------------------------------------------


def test_gain_is_in_percentage_points():
    assert points(0.60, 0.65) == pytest.approx(5.0)
    assert points(0.5, 0.4) == pytest.approx(-10.0)
    assert points(0.5, 0.5) == 0.0

    def record(pre, post, teacher):
        return build_pair_result("uniform", "vanilla", "student_data", 0, 1, 1.0, 0.5,
                                 _flat_report(pre), _flat_report(post), _flat_report(teacher))

    rec = record(0.60, 0.65, 0.80)
    assert rec.gain_points == pytest.approx(5.0)
    assert rec.strength_delta == pytest.approx(20.0)
    rec = record(0.5, 0.4, 0.5)
    assert rec.gain_points == pytest.approx(-10.0)
    assert rec.strength_delta == 0.0


def test_teacher_strength_labels():
    assert teacher_strength(_flat_report(0.5), _flat_report(0.7))[0] == "strong"
    assert teacher_strength(_flat_report(0.5), _flat_report(0.3))[0] == "weak"
    label, delta = teacher_strength(_flat_report(0.5), _flat_report(0.5))
    assert label == "comparable" and delta == 0.0


def test_learning_forgetting_split():
    pre = EvalReport(0.5, np.array([0.5, 0.9, 0.2]), np.array([5, 5, 5]))
    post = EvalReport(0.5, np.array([0.6, 0.7, 0.2]), np.array([5, 5, 5]))
    learning, forgetting = learning_forgetting(pre, post)
    assert np.allclose(learning, [0.1, 0.0, 0.0])
    assert np.allclose(forgetting, [0.0, 0.2, 0.0])
    with pytest.raises(DataError):
        learning_forgetting(pre, EvalReport(0.5, np.zeros(2), np.zeros(2, dtype=np.int64)))


def test_cumulative_gain_sums_per_method(rng):
    rows = [
        _result(rng, method="vanilla"),
        _result(rng, method="vanilla"),
        _result(rng, method="dml"),
    ]
    totals = cumulative_gain(rows)
    assert set(totals) == {"vanilla", "dml"}
    assert totals["vanilla"] == pytest.approx(rows[0].gain_points + rows[1].gain_points)


def test_reconciliation_closes_for_consistent_reports(rng):
    # overall gain must equal support-weighted learning minus forgetting
    for _ in range(200):
        data = _report(rng)
        post = EvalReport(
            overall_accuracy=0.0,
            per_class_accuracy=rng.uniform(0, 1, size=4),
            per_class_support=data.per_class_support,
        )
        post.overall_accuracy = float(
            np.sum(post.per_class_support * post.per_class_accuracy)
            / post.per_class_support.sum()
        )
        res = build_pair_result(
            "s", "vanilla", "student_data", 0, 1, 1.0, 0.5, data, post, _report(rng)
        )
        assert reconciliation_residual(res) < 1e-12


def test_reconciliation_rejects_zero_support(rng):
    res = _result(rng)
    res.pre_eval.per_class_support = np.zeros(4, dtype=np.int64)
    with pytest.raises(DataError):
        reconciliation_residual(res)


# -- ordering ---------------------------------------------------------------


def test_canonical_order_key(rng):
    rows = [
        _result(rng, scenario="b"),
        _result(rng, scenario="a", method="vanilla"),
        _result(rng, scenario="a", method="dml"),
        _result(rng, scenario="a", method="dml", teacher_id=2),
        _result(rng, scenario="a", method="dml", teacher_id=2, temperature=0.5),
    ]
    ordered = canonical_order(rows)
    keys = [
        (r.scenario, r.method, r.transfer_option, r.teacher_id, r.student_id, r.temperature, r.alpha)
        for r in ordered
    ]
    assert keys == sorted(keys)
    assert ordered[-1].scenario == "b"


# -- report files -----------------------------------------------------------


def test_csv_report_layout(rng, tmp_path):
    res = _result(rng, temperature=2.0, alpha=0.25)
    paths = emit_report([res], [], "csv", tmp_path)
    assert [p.name for p in paths] == ["results.csv", "gain_scatter.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[0].startswith("scenario,method,transfer_option,teacher_id,")
    cells = lines[1].split(",")
    assert cells[0] == "uniform"
    assert cells[5] == "2.0" and cells[6] == "0.25"
    assert cells[9] == f"{res.gain_points:.2f}"
    scatter = paths[1].read_text().splitlines()
    assert scatter[0] == "strength_delta,gain_points,method,transfer_option,scenario"
    assert len(scatter) == 2


def test_csv_report_includes_trajectories_when_present(rng, tmp_path):
    traj = FedTrajectory(init_tag="random", init_accuracy=0.1)
    traj.accuracies = [0.2, 0.3]
    traj.participants_per_round = [[0], [0]]
    paths = emit_report([_result(rng)], [traj], "csv", tmp_path)
    assert paths[-1].name == "trajectories.csv"
    lines = paths[-1].read_text().splitlines()
    assert lines[0] == "init_tag,round,accuracy"
    assert lines[1] == "random,1,0.2"
    assert lines[2] == "random,2,0.3"


def test_json_report_round_trips_exactly(rng, tmp_path):
    rows = [_result(rng) for _ in range(5)]
    paths = emit_report(rows, [], "json", tmp_path)
    back = parse_results_json(paths[0])
    assert len(back) == 5
    for a, b in zip(canonical_order(rows), back):
        assert a.to_json_dict() == b.to_json_dict()


def test_json_report_carries_trajectories(rng, tmp_path):
    traj = FedTrajectory(init_tag="preconsolidated", init_accuracy=0.5)
    traj.accuracies = [0.6]
    traj.participants_per_round = [[0, 1]]
    paths = emit_report([_result(rng)], [traj], "json", tmp_path)
    payload = json.loads(paths[-1].read_text())
    assert payload["trajectories"][0]["init_tag"] == "preconsolidated"
    assert payload["trajectories"][0]["accuracies"] == [0.6]


def test_reports_are_byte_deterministic(rng, tmp_path):
    rows = [_result(rng, student_id=i) for i in range(4)]
    for fmt in ("csv", "json"):
        d1, d2 = tmp_path / f"{fmt}1", tmp_path / f"{fmt}2"
        p1 = emit_report(list(reversed(rows)), [], fmt, d1)
        p2 = emit_report(rows, [], fmt, d2)
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()


def test_report_rejects_unknown_format(rng, tmp_path):
    with pytest.raises(ConfigError):
        emit_report([_result(rng)], [], "xml", tmp_path)


def test_parse_rejects_unknown_schema(tmp_path):
    path = tmp_path / "results.json"
    path.write_text('{"schema_version": 99, "results": []}')
    with pytest.raises(DataError):
        parse_results_json(path)


def test_pair_result_json_dict_uses_short_temperature_key(rng):
    payload = _result(rng, temperature=4.0).to_json_dict()
    assert payload["T"] == 4.0
    assert "temperature" not in payload
    again = PairResult.from_json_dict(payload)
    assert again.temperature == 4.0


@pytest.mark.parametrize("header", ['"schema_version": 99, ', ""])
def test_parse_trajectories_rejects_unknown_or_missing_schema(tmp_path, header):
    path = tmp_path / "trajectories.json"
    path.write_text("{" + header + '"trajectories": []}')
    with pytest.raises(DataError, match="schema"):
        parse_trajectories_json(path)
