"""The scoring path as it was before targets became strided views, kept as a bit-for-bit oracle.

error_sums reduces with NumPy's sum over every axis but axis 1,
reports_from_sums computes on NumPy scalars, and gathered_rolling_evaluate
cuts every block's targets, predecessors and histories one window at a time
by plain slicing into flat (windows, steps, features) arrays. It shares no
window code with the package.
"""

import numpy as np

import freqfilter.predictors
from freqfilter.metrics import MetricsReport
from freqfilter.predictors import FilterPredictorState, RollingReport, window_anchors


def error_sums(pred, target, mask_epsilon=1e-6):
    """(5, steps) sums over every axis but axis 1, the horizon step."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    abs_err = np.abs(pred - target)
    abs_target = np.abs(target)
    kept = abs_target > mask_epsilon
    pct = np.divide(abs_err, abs_target, out=np.zeros_like(abs_err), where=kept)
    axes = (0, *range(2, pred.ndim))
    sums = [x.sum(axis=axes) for x in (abs_err, np.square(abs_err), pct, kept)]
    return np.array([*sums, np.full(pred.shape[1], pred.size // pred.shape[1])], dtype=np.float64)


def reports_from_sums(sums):
    """(one report per horizon step, the aggregate over all steps) from summed error_sums."""
    return tuple(_report(*column) for column in sums.T), _report(*sums.sum(axis=1))


def _report(abs_sum, sq_sum, pct_sum, n_evaluated, n_total):
    mape = float(pct_sum / n_evaluated * 100.0) if n_evaluated > 0 else None
    return MetricsReport(
        float(abs_sum / n_total), float(np.sqrt(sq_sum / n_total)), mape, int(n_evaluated), int(n_total - n_evaluated)
    )


def _sliced_windows(values, starts, length):
    """values[v, s : s + length] for each start s, then each node v: (windows, length, features)."""
    return np.stack([values[v, s : s + length] for s in starts for v in range(values.shape[0])])


def gathered_rolling_evaluate(predictor, series, history, horizon, stride=1, predecessor_mode=False, mape_epsilon=1e-6):
    """rolling_evaluate's result, from gathered (windows, steps, features) blocks of WINDOW_BLOCK windows."""
    values = series.values
    anchors = window_anchors(values.shape[1], history, horizon, stride)
    if predecessor_mode:
        source = predictor.transform_series(values)
    elif isinstance(predictor, FilterPredictorState):
        predictor = predictor.fold()
    per_block = max(1, freqfilter.predictors.WINDOW_BLOCK // values.shape[0])
    sums = 0.0
    for lo in range(0, anchors.size, per_block):
        starts = anchors[lo : lo + per_block]
        targets = _sliced_windows(values, starts + history, horizon)
        if predecessor_mode:
            preds = _sliced_windows(source, starts + history - 1, horizon)
        else:
            preds = predictor.predict(_sliced_windows(values, starts, history))
        sums += error_sums(preds, targets, mape_epsilon)
    return RollingReport(*reports_from_sums(sums), series.interval_seconds)
