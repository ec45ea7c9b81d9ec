import json
import math

import numpy as np
import pytest

from hyposcreen.errors import ReportError
from hyposcreen.reports import (
    roc_svg_text,
    write_json,
    write_json_lines,
    write_leaderboard_csv,
    write_predictions_csv,
    write_projection_csv,
    write_roc_csv,
    write_shap_csv,
)


def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"b": 2, "a": [1.5, None]}, path)
    text = path.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 2\n}\n'
    write_json({"b": 2, "a": [1.5, None]}, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text


def test_write_json_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    write_json_lines([{"z": 1, "a": 2}, {"k": None}], path)
    lines = path.read_text().splitlines()
    assert lines == ['{"a": 2, "z": 1}', '{"k": null}']
    assert [json.loads(l) for l in lines] == [{"a": 2, "z": 1}, {"k": None}]


def test_roc_csv_round_trips_floats(tmp_path):
    pts = [(0.0, 0.0, math.inf), (0.25, 0.75, 0.6), (1.0, 1.0, 0.1)]
    path = tmp_path / "roc.csv"
    write_roc_csv(pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert lines[1] == "0.0,0.0,inf"
    assert lines[2] == "0.25,0.75,0.6"
    with pytest.raises(ReportError):
        write_roc_csv([], tmp_path / "empty.csv")


def test_roc_svg_perfect_classifier_polyline():
    pts = [(0.0, 0.0, math.inf), (0.0, 1.0, 0.9), (1.0, 1.0, 0.1)]
    svg = roc_svg_text(pts)
    assert 'points="40.00,440.00 40.00,40.00 440.00,40.00"' in svg
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert 'width="480"' in svg and svg.endswith("</svg>\n")
    assert "false positive rate" in svg and "true positive rate" in svg
    with pytest.raises(ReportError):
        roc_svg_text([])


def test_predictions_csv_layout(tmp_path):
    path = tmp_path / "preds.csv"
    write_predictions_csv(["p1", "p2", "p3"], np.array([0.9, 0.5, 0.2]),
                          [1, 0, 0], path, 0.5)
    assert path.read_text().splitlines() == [
        "participant_id,score,predicted_label,label",
        "p1,0.9,1,1",
        "p2,0.5,1,0",  # threshold rule includes equality
        "p3,0.2,0,0",
    ]


def test_shap_and_projection_csv_layout(tmp_path):
    shap_path = tmp_path / "shap.csv"
    write_shap_csv([("p1", "f0", 0.25, 1.5), ("p1", "f1", -0.5, 2.0)],
                   shap_path)
    lines = shap_path.read_text().splitlines()
    assert lines[0] == "row_id,feature,shap_value,feature_value"
    assert lines[1] == "p1,f0,0.25,1.5"
    assert lines[2] == "p1,f1,-0.5,2.0"

    proj_path = tmp_path / "proj.csv"
    write_projection_csv(["p1", "p2"], np.array([[0.5, -1.5], [2.0, 0.25]]),
                         [1, 0], proj_path)
    lines = proj_path.read_text().splitlines()
    assert lines[0] == "row_id,pc1,pc2,label"
    assert lines[1] == "p1,0.5,-1.5,1"
    assert lines[2] == "p2,2.0,0.25,0"


def test_leaderboard_csv_column_ordering(tmp_path):
    path = tmp_path / "board.csv"
    write_leaderboard_csv(
        [{"config_id": "abc", "auroc_mean": 0.9, "extra": "ignored"},
         {"config_id": "def", "auroc_mean": 0.8, "extra": "ignored"}],
        path, columns=["config_id", "auroc_mean"])
    lines = path.read_text().splitlines()
    assert lines == ["config_id,auroc_mean", "abc,0.9", "def,0.8"]
