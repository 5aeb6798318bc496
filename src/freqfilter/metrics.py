"""MAE / RMSE / MAPE with explicit masking of near-zero targets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    """Error triple plus how many entries the percentage error actually used.

    mape_percent is None when every target was masked; n_evaluated and
    n_masked always sum to the total number of comparisons.
    """

    mae: float
    rmse: float
    mape_percent: float | None
    n_evaluated: int
    n_masked: int


def error_sums(pred, target, mask_epsilon: float = 1e-6) -> np.ndarray:
    """The one place errors are computed: (5, steps) sums over every axis but axis 1, the horizon step.

    Rows: sum |e|, sum e^2, sum |e/y| over |y| > mask_epsilon, that count, all entries; blocks add up.
    """
    if mask_epsilon < 0:
        raise ValueError(f"mask_epsilon must be >= 0, got {mask_epsilon}")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    abs_err = np.abs(pred - target)
    abs_target = np.abs(target)
    kept = abs_target > mask_epsilon
    pct = np.divide(abs_err, abs_target, out=np.zeros_like(abs_err), where=kept)
    axes = (0, *range(2, pred.ndim))
    sums = [x.sum(axis=axes) for x in (abs_err, np.square(abs_err), pct, kept)]
    return np.array([*sums, np.full(pred.shape[1], pred.size // pred.shape[1])], dtype=np.float64)


def reports_from_sums(sums: np.ndarray) -> tuple[tuple[MetricsReport, ...], MetricsReport]:
    """(one report per horizon step, the aggregate over all steps) from summed error_sums."""
    return tuple(_report(*column) for column in sums.T), _report(*sums.sum(axis=1))


def _report(abs_sum, sq_sum, pct_sum, n_evaluated, n_total) -> MetricsReport:
    mape = float(pct_sum / n_evaluated * 100.0) if n_evaluated > 0 else None
    return MetricsReport(
        float(abs_sum / n_total), float(np.sqrt(sq_sum / n_total)), mape, int(n_evaluated), int(n_total - n_evaluated)
    )


def compute_metrics(pred, target, mask_epsilon: float = 1e-6) -> MetricsReport:
    """MAE and RMSE over all entries; MAPE over targets with |target| > mask_epsilon.

    Exact-zero targets are always excluded from MAPE (division by zero is
    never performed), so mask_epsilon=0 reproduces the unguarded percentage
    formula on every nonzero target.
    """
    sums = error_sums(np.expand_dims(pred, (0, 1)), np.expand_dims(target, (0, 1)), mask_epsilon)
    return reports_from_sums(sums)[1]


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def render_metrics_table(rows: Sequence[tuple[str, MetricsReport]]) -> str:
    """Aligned plain-text table, one row per (label, report)."""
    header = ("", "MAE", "RMSE", "MAPE%", "n", "masked")
    body = [
        (label, _fmt(r.mae), _fmt(r.rmse), _fmt(r.mape_percent), str(r.n_evaluated + r.n_masked), str(r.n_masked))
        for label, r in rows
    ]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.rjust(w) if i else cell.ljust(w) for i, (cell, w) in enumerate(zip(row, widths))))
    return "\n".join(lines)


METRICS_CSV_HEADER = "horizon_step,mae,rmse,mape,n,n_masked"


def metrics_csv_line(step_label: str, r: MetricsReport) -> str:
    mape = "" if r.mape_percent is None else f"{r.mape_percent:.6f}"
    return f"{step_label},{r.mae:.6f},{r.rmse:.6f},{mape},{r.n_evaluated + r.n_masked},{r.n_masked}"
