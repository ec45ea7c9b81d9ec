"""Serialization of run outputs: JSON reports, csv tables, ROC SVG."""

from __future__ import annotations

import csv
import json

from .errors import ReportError
from .util import open_output

SVG_SIZE = 480
SVG_MARGIN = 40
_PLOT = SVG_SIZE - 2 * SVG_MARGIN


def write_json(obj, path) -> None:
    with open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json_lines(records, path) -> None:
    with open_output(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_roc_csv(points, path) -> None:
    if not points:
        raise ReportError("ROC has no points")
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fpr", "tpr", "threshold"])
        for fpr, tpr, thr in points:
            w.writerow([repr(float(fpr)), repr(float(tpr)), repr(float(thr))])


def roc_svg_text(points) -> str:
    """Standalone SVG with the ROC polyline and the chance diagonal."""
    if not points:
        raise ReportError("ROC has no points")

    def px(fpr, tpr):
        x = SVG_MARGIN + fpr * _PLOT
        y = SVG_MARGIN + (1.0 - tpr) * _PLOT
        return f"{x:.2f},{y:.2f}"

    poly = " ".join(px(fpr, tpr) for fpr, tpr, _ in points)
    lo, hi = SVG_MARGIN, SVG_MARGIN + _PLOT
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'  <rect x="{lo}" y="{lo}" width="{_PLOT}" height="{_PLOT}" '
        f'fill="none" stroke="black"/>\n'
        f'  <line x1="{lo}" y1="{hi}" x2="{hi}" y2="{lo}" '
        f'stroke="gray" stroke-dasharray="4 4"/>\n'
        f'  <polyline fill="none" stroke="crimson" stroke-width="1.5" '
        f'points="{poly}"/>\n'
        f'  <text x="{SVG_SIZE // 2}" y="{SVG_SIZE - 8}" '
        f'text-anchor="middle" font-size="12">false positive rate</text>\n'
        f'  <text x="12" y="{SVG_SIZE // 2}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 12 {SVG_SIZE // 2})">'
        f'true positive rate</text>\n'
        f'</svg>\n'
    )


def write_roc_svg(points, path) -> None:
    with open_output(path) as fh:
        fh.write(roc_svg_text(points))


def write_predictions_csv(participant_ids, scores, labels, path,
                          threshold: float) -> None:
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["participant_id", "score", "predicted_label", "label"])
        for pid, s, lab in zip(participant_ids, scores, labels):
            w.writerow([pid, repr(float(s)), int(float(s) >= threshold), int(lab)])


def write_shap_csv(rows, path) -> None:
    """rows: iterable of (row_id, feature, shap_value, feature_value)."""
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_id", "feature", "shap_value", "feature_value"])
        for row_id, feature, shap_value, feature_value in rows:
            w.writerow([row_id, feature, repr(float(shap_value)),
                        repr(float(feature_value))])


def write_projection_csv(row_ids, coords, labels, path) -> None:
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_id", "pc1", "pc2", "label"])
        for rid, (x, y), lab in zip(row_ids, coords, labels):
            w.writerow([rid, repr(float(x)), repr(float(y)), int(lab)])


def write_leaderboard_csv(entries, path, columns) -> None:
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for entry in entries:
            w.writerow([entry[c] for c in columns])
