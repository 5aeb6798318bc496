import warnings

import numpy as np
import pytest

from freqfilter.metrics import (
    METRICS_CSV_HEADER,
    compute_metrics,
    error_sums,
    metrics_csv_line,
    render_metrics_table,
    reports_from_sums,
)
from scoring_reference import error_sums as reference_error_sums
from scoring_reference import reports_from_sums as reference_reports_from_sums


def test_hand_arithmetic_example():
    r = compute_metrics(np.array([3.0, 5.0]), np.array([1.0, 1.0]))
    assert r.mae == pytest.approx(3.0, abs=1e-12)
    assert r.rmse == pytest.approx(np.sqrt(10.0), abs=1e-12)
    assert r.mape_percent == pytest.approx(300.0, abs=1e-9)
    assert r.n_evaluated == 2
    assert r.n_masked == 0


def test_perfect_prediction_is_all_zero():
    x = np.arange(1.0, 7.0).reshape(2, 3)
    r = compute_metrics(x, x)
    assert r.mae == 0.0
    assert r.rmse == 0.0
    assert r.mape_percent == 0.0


def test_zero_target_excluded_from_mape_only():
    pred = np.array([1.0, 2.0])
    target = np.array([0.0, 4.0])
    r = compute_metrics(pred, target, mask_epsilon=0.0)
    assert r.n_masked == 1
    assert r.n_evaluated == 1
    # MAE/RMSE still include the masked entry
    assert r.mae == pytest.approx(1.5)
    assert r.mape_percent == pytest.approx(50.0)


def test_no_entries_give_nan_errors_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = compute_metrics(np.array([]), np.array([]))
    assert np.isnan(r.mae) and np.isnan(r.rmse)
    assert (r.mape_percent, r.n_evaluated, r.n_masked) == (None, 0, 0)


def test_all_targets_masked_reports_absent_mape():
    r = compute_metrics(np.ones(3), np.zeros(3))
    assert r.mape_percent is None
    assert r.n_evaluated == 0
    assert r.n_masked == 3


def test_epsilon_widens_the_mask():
    pred = np.array([1.0, 1.0])
    target = np.array([1e-8, 10.0])
    strict = compute_metrics(pred, target, mask_epsilon=0.0)
    relaxed = compute_metrics(pred, target, mask_epsilon=1e-6)
    assert strict.n_evaluated == 2
    assert relaxed.n_evaluated == 1


def test_rmse_at_least_mae_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        size = int(rng.integers(1, 40))
        pred = rng.standard_normal(size) * rng.uniform(0.1, 10)
        target = rng.standard_normal(size) * rng.uniform(0.1, 10)
        r = compute_metrics(pred, target)
        assert r.rmse >= r.mae - 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal(50)
    target = rng.standard_normal(50) + 3.0
    perm = rng.permutation(50)
    a = compute_metrics(pred, target)
    b = compute_metrics(pred[perm], target[perm])
    assert a.mae == pytest.approx(b.mae, abs=1e-12)
    assert a.rmse == pytest.approx(b.rmse, abs=1e-12)
    assert a.mape_percent == pytest.approx(b.mape_percent, abs=1e-9)


def test_translation_leaves_mae_rmse_but_not_mape():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal(30) + 10.0
    target = rng.standard_normal(30) + 10.0
    base = compute_metrics(pred, target)
    shifted = compute_metrics(pred + 100.0, target + 100.0)
    assert shifted.mae == pytest.approx(base.mae, abs=1e-9)
    assert shifted.rmse == pytest.approx(base.rmse, abs=1e-9)
    assert shifted.mape_percent != pytest.approx(base.mape_percent, abs=1e-6)


def test_positive_scaling_preserves_mape_scales_others():
    rng = np.random.default_rng(3)
    pred = rng.standard_normal(30) + 10.0
    target = rng.standard_normal(30) + 10.0
    alpha = 3.5
    base = compute_metrics(pred, target)
    scaled = compute_metrics(alpha * pred, alpha * target)
    assert scaled.mape_percent == pytest.approx(base.mape_percent, rel=1e-9)
    assert scaled.mae == pytest.approx(alpha * base.mae, rel=1e-12)
    assert scaled.rmse == pytest.approx(alpha * base.rmse, rel=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        compute_metrics(np.zeros(3), np.zeros(4))


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.zeros(2), np.ones(2), mask_epsilon=-1.0)


def test_nan_epsilon_rejected():
    # NaN compares false with every bound, so unchecked it would mask every target.
    with pytest.raises(ValueError, match=r"^mask_epsilon must be >= 0, got nan$"):
        error_sums(np.zeros((2, 1)), np.ones((2, 1)), mask_epsilon=float("nan"))


def test_table_and_csv_rendering():
    r = compute_metrics(np.array([3.0, 5.0]), np.array([1.0, 1.0]))
    table = render_metrics_table([("step 1", r)])
    assert "MAE" in table and "step 1" in table and "3.0000" in table
    line = metrics_csv_line("1", r)
    assert line.startswith("1,3.000000,")
    assert METRICS_CSV_HEADER.split(",") == ["horizon_step", "mae", "rmse", "mape", "n", "n_masked"]
    absent = compute_metrics(np.ones(2), np.zeros(2))
    assert ",," in metrics_csv_line("2", absent)  # empty mape field


def scoring_block(shape, seed):
    """Random forecasts and targets of one feature, with exact zeros, targets at 1e-6 and an infinite forecast at a zero target."""
    rng = np.random.default_rng(seed)
    pred = rng.normal(50.0, 20.0, shape) * 10.0 ** rng.integers(-3, 4, shape)
    target = rng.normal(50.0, 20.0, shape)
    pick = rng.random(shape) < 0.2
    target[pick] = rng.choice([0.0, 1e-6, -1e-6, 1e-6 * (1 + 2**-40)], size=int(pick.sum()))
    target.flat[0] = 0.0
    pred.flat[0] = np.inf
    return pred, target


@pytest.mark.parametrize("mask_epsilon", [0.0, 1e-6])
@pytest.mark.parametrize("shape", [(1, 2, 1), (7, 3, 1), (4140, 12, 1), (1, 1, 2, 1), (5, 3, 4, 1), (19, 207, 12, 1)])
def test_error_sums_equals_numpy_sums_on_the_flat_block(shape, mask_epsilon):
    pred, target = scoring_block(shape, seed=sum(shape))
    flat = (-1, shape[-2], 1)  # (windows, steps, 1): the blocks the NumPy sums scored
    got = error_sums(pred, target, mask_epsilon)
    np.testing.assert_array_equal(got, reference_error_sums(pred.reshape(flat), target.reshape(flat), mask_epsilon))
    assert got[0, 0] == np.inf and np.isfinite(got[2]).all()  # the infinite error adds 0 to the |e/y| sum
    # A strided target view scores the bits of its copy.
    view = np.zeros(shape[:-2] + (2 * shape[-2], 1))[..., ::2, :]
    view[...] = target
    np.testing.assert_array_equal(error_sums(pred, view, mask_epsilon), got)


def test_error_sums_sums_over_every_axis_but_the_step_axis():
    pred, target = scoring_block((30, 40, 5, 3), seed=9)
    got = error_sums(pred, target)
    assert got.shape == (5, 5)
    np.testing.assert_allclose(got, reference_error_sums(pred.reshape(-1, 5, 3), target.reshape(-1, 5, 3)), rtol=1e-14)


def test_single_step_sums_match_numpy_to_rounding():
    pred, target = scoring_block((55_000, 1, 1), seed=1)
    pred.flat[0] = 0.0
    np.testing.assert_allclose(error_sums(pred, target), reference_error_sums(pred, target), rtol=1e-14)


def test_error_sums_rejects_blocks_without_a_step_axis():
    with pytest.raises(ValueError, match=r"^pred and target must have shape \(\.\.\., steps, features\), got \(3,\)$"):
        error_sums(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("steps", [1, 2, 12, 13])
def test_reports_equal_the_numpy_scalar_reports(steps):
    rng = np.random.default_rng(steps)
    for _ in range(200):
        n_total = rng.integers(1, 10**7, steps).astype(float)
        n_evaluated = np.minimum(n_total, rng.integers(0, 10**7, steps))
        n_evaluated[0] = 0.0  # a step whose targets are all masked
        scale = 10.0 ** rng.integers(-6, 6)
        sums = np.array([rng.random(steps) * n_total * scale, rng.random(steps) * n_total * scale**2,
                         rng.random(steps) * n_evaluated, n_evaluated, n_total])
        assert reports_from_sums(sums) == reference_reports_from_sums(sums)
