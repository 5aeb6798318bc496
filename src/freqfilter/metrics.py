"""MAE / RMSE / MAPE with explicit masking of near-zero targets."""

from __future__ import annotations

import math
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
    """The one place errors are computed: (5, steps) sums over every axis but axis -2, the horizon step.

    Rows: sum |e|, sum e^2, sum |e/y| over |y| > mask_epsilon, that count, all entries; blocks add up.
    The targets are copied once, in C order. Masked ones are found by C-order index and their
    quotients zeroed with np.put (.flat's order), so each adds exactly 0 to the |e/y| sum, whatever
    the prediction, and the kept count per step is rows minus masked. Each quantity is laid out as
    (rows, steps), rows in the order of the leading axes. With two or more steps and a C-contiguous
    layout (one feature, or more than one leading window) the rows are added one after another in
    that order. Otherwise (one step, or (steps, features >= 2) with one leading window) each step's rows
    lie together, and einsum sums them as np.einsum("i->") does, in two interleaved partial sums.
    """
    if not (math.isfinite(mask_epsilon) and mask_epsilon >= 0):  # NaN or inf would mask every target
        raise ValueError(f"mask_epsilon must be finite and >= 0, got {mask_epsilon}")
    pred = np.asarray(pred, dtype=np.float64)
    abs_target = np.array(target, dtype=np.float64, order="C")  # a copy, not asarray: written in place
    if pred.shape != abs_target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {abs_target.shape}")
    if pred.ndim < 2:
        raise ValueError(f"pred and target must have shape (..., steps, features), got {pred.shape}")
    steps = pred.shape[-2]
    # C order, so with one feature (evaluation blocks) the (rows, steps) layouts below are views.
    abs_err = np.subtract(pred, abs_target, order="C")
    abs_err = np.abs(abs_err, out=abs_err).swapaxes(-1, -2).reshape(-1, steps)
    abs_target = np.abs(abs_target, out=abs_target).swapaxes(-1, -2).reshape(-1, steps)
    masked = np.flatnonzero(~(abs_target > mask_epsilon))  # NaN targets too
    with np.errstate(divide="ignore", invalid="ignore"):  # the masked quotients are discarded
        pct = np.divide(abs_err, abs_target, out=abs_target)
    np.put(pct, masked, 0.0)  # not pct * kept (NaN * 0 is NaN), nor reshape(-1), which copies a strided pct
    sums = np.empty((5, steps))
    np.einsum("ij->j", abs_err, out=sums[0])
    np.einsum("ij,ij->j", abs_err, abs_err, out=sums[1])
    np.einsum("ij->j", pct, out=sums[2])
    sums[3] = abs_err.shape[0] - np.bincount(masked % steps, minlength=steps)
    sums[4] = abs_err.shape[0]
    return sums


def reports_from_sums(sums: np.ndarray) -> tuple[tuple[MetricsReport, ...], MetricsReport]:
    """(one report per horizon step, the aggregate over all steps) from summed error_sums."""
    # On Python floats a report costs about half what it costs on NumPy scalars, with the same bits.
    return tuple(_report(*column) for column in sums.T.tolist()), _report(*sums.sum(axis=1).tolist())


def _report(abs_sum, sq_sum, pct_sum, n_evaluated, n_total) -> MetricsReport:
    mape = pct_sum / n_evaluated * 100.0 if n_evaluated > 0 else None
    mae, mse = (abs_sum / n_total, sq_sum / n_total) if n_total > 0 else (math.nan, math.nan)
    return MetricsReport(mae, math.sqrt(mse), mape, int(n_evaluated), int(n_total - n_evaluated))


def compute_metrics(pred, target, mask_epsilon: float = 1e-6) -> MetricsReport:
    """MAE and RMSE over all entries; MAPE over targets with |target| > mask_epsilon.

    Exact-zero targets are always excluded from MAPE (division by zero is
    never performed), so mask_epsilon=0 reproduces the unguarded percentage
    formula on every nonzero target.
    """
    sums = error_sums(np.expand_dims(pred, (-2, -1)), np.expand_dims(target, (-2, -1)), mask_epsilon)
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
