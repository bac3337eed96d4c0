"""The case table and record diff of `.github/compare.py`, the script that
compares two trees' artifacts in CI. Nothing here runs a pipeline."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kdsim import cli
from kdsim.config import parse_config

_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "compare.py"
_spec = importlib.util.spec_from_file_location("compare", _SCRIPT)
compare = sys.modules["compare"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


@pytest.mark.parametrize("case", compare.CASES, ids=lambda case: case.name)
def test_every_case_config_parses_and_every_argv_is_a_command(case, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(compare.case_config(case, 11)))
    parse_config(config)
    for argv in case.argv:
        args = cli._build_parser().parse_args(
            [*argv, "--config", str(config), "--seed", "11", "--jobs", str(case.jobs)]
        )
        assert args.command == argv[0]


def test_case_names_are_unique():
    names = [case.name for case in compare.CASES]
    assert len(names) == len(set(names))


def _results(tmp_path, name, records):
    path = tmp_path / name
    path.write_text(json.dumps({"results": records}))
    return compare.records_of(path)


def _record(teacher, student, method="vanilla", **fields):
    return {"scenario": "uniform", "method": method, "transfer_option": "student_data",
            "teacher_id": teacher, "student_id": student, "post_accuracy": 0.5, **fields}


def test_record_changes_names_exactly_the_changed_keys(tmp_path):
    base = [_record(t, s, m) for m in ("vanilla", "dml") for t, s in ((0, 1), (1, 0))]
    head = [dict(r) for r in base]
    head[1]["post_accuracy"] = 0.75
    head[2]["temperature"] = 2.0
    changed = compare.record_changes(_results(tmp_path, "a", base), _results(tmp_path, "b", head))
    assert changed == [
        ("uniform", "vanilla", "student_data", 1, 0),
        ("uniform", "dml", "student_data", 0, 1),
    ]
    assert compare.record_changes(_results(tmp_path, "a", base), _results(tmp_path, "c", base)) == []


def test_record_changes_refuses_files_with_other_record_keys(tmp_path):
    base = _results(tmp_path, "a", [_record(0, 1), _record(1, 0)])
    head = _results(tmp_path, "b", [_record(0, 1), _record(1, 0, method="dml")])
    with pytest.raises(ValueError, match="record keys differ"):
        compare.record_changes(base, head)
    with pytest.raises(ValueError, match="2 records at base, 1 at head"):
        compare.record_changes(base, _results(tmp_path, "c", [_record(0, 1)]))
