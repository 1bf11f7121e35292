"""``tools/report_diff.py`` on two tiny in-test reports."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import report_diff  # noqa: E402


def _trial(i, margin, psi, passed=True):
    return {"trial_id": i, "inputs_digest": f"d{i}", "margin": margin, "bending_residual": None,
            "certificate": {"psi": psi, "min_turning": 0.25}, "passed": passed,
            "failure_reason": None if passed else "min turning -1.000e-03"}


def _suite(path, trials):
    failed = [t["trial_id"] for t in trials if not t["passed"]]
    aggregate = {"suite": "cone", "trials": len(trials), "failures": len(failed),
                 "failed_trials": failed}
    rows = trials + [{"aggregate": aggregate}]
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return str(path)


def _lines(capsys):
    return {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}


def test_a_report_against_itself_moves_nothing(tmp_path, capsys):
    a = _suite(tmp_path / "a.jsonl", [_trial(0, 0.5, 1.0), _trial(1, 0.7, 2.0)])
    assert report_diff.main([a, a]) == 0
    lines = _lines(capsys)
    assert lines["margin"] == ["0/2", "-", "-"]
    assert lines["aggregate.failed_trials"] == ["0/1", "-", "-"]
    assert lines["passed"] == ["flips:", "0"]
    assert lines["exit"] == ["status:", "0", "->", "0"]


def test_moved_values_are_counted_with_the_worst_delta_and_its_trial(tmp_path, capsys):
    a = _suite(tmp_path / "a.jsonl", [_trial(0, 0.5, 1.0), _trial(1, 0.7, 2.0), _trial(2, 0.1, 3.0)])
    b = _suite(tmp_path / "b.jsonl", [_trial(0, 0.5, 1.0 + 2e-16), _trial(1, 0.7, 2.0 - 1e-12),
                                      _trial(2, 0.1, 3.0)])
    assert report_diff.main([a, b]) == 0
    lines = _lines(capsys)
    assert lines["certificate.psi"] == ["2/3", "1e-12", "trial", "1"]
    assert lines["margin"] == ["0/3", "-", "-"]


def test_a_passed_flip_fails_and_names_its_trial(tmp_path, capsys):
    a = _suite(tmp_path / "a.jsonl", [_trial(0, 0.5, 1.0), _trial(1, 0.7, 2.0)])
    b = _suite(tmp_path / "b.jsonl", [_trial(0, 0.5, 1.0), _trial(1, 0.7, 2.0, passed=False)])
    assert report_diff.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "passed flips: 1\n  trial 1: True -> False\n" in out
    assert "exit status: 0 -> 2" in out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert lines["failure_reason"] == ["1/2", "-", "trial", "1"]
    assert lines["aggregate.failed_trials"] == ["1/1", "-", "aggregate"]


def test_documents_are_diffed_by_path(tmp_path, capsys):
    level = {"psi": 0.5, "combined": {"vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}}
    moved = {"psi": 0.5, "combined": {"vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 3e-17]]}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"levels": [level, level], "hausdorff": [0.1]}))
    b.write_text(json.dumps({"levels": [level, moved], "hausdorff": [0.1]}))
    assert report_diff.main([str(a), str(b)]) == 0
    lines = _lines(capsys)
    assert lines["levels[].combined.vertices[][]"] == ["1/12", "3e-17",
                                                       "levels[1].combined.vertices[1][2]"]
    assert lines["hausdorff[]"] == ["0/1", "-", "-"]
    assert "exit" not in lines


def test_a_suite_report_and_a_document_are_not_compared(tmp_path):
    a = _suite(tmp_path / "a.jsonl", [_trial(0, 0.5, 1.0)])
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"hausdorff": []}))
    with pytest.raises(SystemExit) as exc:
        report_diff.main([a, str(b)])
    assert exc.value.code == 2


def test_a_trial_on_one_side_only_counts_as_moved(tmp_path, capsys):
    a = _suite(tmp_path / "a.jsonl", [_trial(0, 0.5, 1.0)])
    b = _suite(tmp_path / "b.jsonl", [_trial(0, 0.5, 1.0), _trial(1, 0.7, 2.0)])
    assert report_diff.main([a, b]) == 1
    out = capsys.readouterr().out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert lines["margin"] == ["1/2", "-", "trial", "1"]
    assert "  trial 1: - -> True\n" in out
