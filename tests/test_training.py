import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfilter.predictors
import freqfilter.training

from freqfilter.data_io import NormStats, SyntheticConfig, fit_normalization, generate_synthetic
from freqfilter.predictors import CopyLastStepPredictor, FilterPredictorState, rolling_evaluate
from freqfilter.tensor import TimeSeriesTensor, slice_window
from freqfilter.training import (
    SGD,
    Adam,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    evaluate_loss,
    mae_loss,
    make_windows,
    train,
)

from numgrad import central_difference, max_relative_error

UNIT_NORM = NormStats([0.0], [1.0])


def toy_series(n_steps, n_nodes=1, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(50.0, 5.0, (n_nodes, n_steps, 1))
    return TimeSeriesTensor(values, tuple(f"n{i}" for i in range(n_nodes)))


def anchors(ds, split):
    """A split's history starts: the first steps of its range, one per window."""
    return ds.split_ranges[split][0] + np.arange(ds.n_windows(split))


class TestMakeWindows:
    def test_minimal_series_single_split(self):
        series = toy_series(7)
        ds = make_windows(series, 4, 3, (1.0, 0.0, 0.0))
        assert ds.n_windows("train") == 1
        assert ds.n_windows("val") == 0
        assert ds.n_windows("test") == 0

    def test_window_count_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = int(rng.integers(1, 6))
            t = int(rng.integers(1, 6))
            length = int(rng.integers(h + t, h + t + 30))
            series = toy_series(length)
            ds = make_windows(series, h, t, (1.0, 0.0, 0.0))
            # enumerate valid anchors by hand
            expected = sum(1 for a in range(length) if a + h + t <= length)
            assert ds.n_windows("train") == expected == length - h - t + 1

    def test_chronological_split_order(self):
        series = toy_series(200)
        ds = make_windows(series, 6, 3, (0.5, 0.2, 0.3))
        assert anchors(ds, "train").max() < anchors(ds, "val").min()
        assert anchors(ds, "val").max() < anchors(ds, "test").min()

    def test_no_window_straddles_a_split_boundary(self):
        series = toy_series(100)
        ds = make_windows(series, 5, 4, (0.6, 0.2, 0.2))
        for name, (start, stop) in ds.split_ranges.items():
            for anchor in anchors(ds, name):
                assert start <= anchor
                assert anchor + 5 + 4 <= stop

    @settings(max_examples=200, deadline=None)
    @given(
        n_steps=st.integers(2, 400),
        history=st.integers(1, 30),
        horizon=st.integers(1, 12),
        weights=st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)).filter(any),
    )
    def test_no_window_crosses_its_split_property(self, n_steps, history, horizon, weights):
        ratios = tuple(w / sum(weights) for w in weights)
        try:
            ds = make_windows(toy_series(n_steps), history, horizon, ratios)
        except ValueError as exc:
            assert "split has" in str(exc)
            return
        for name, (start, stop) in ds.split_ranges.items():
            assert 0 <= start <= stop <= n_steps
            for anchor in anchors(ds, name):
                assert start <= anchor
                assert anchor + history + horizon <= stop

    def test_targets_follow_history_immediately(self):
        series = toy_series(40)
        ds = make_windows(series, 5, 4, (1.0, 0.0, 0.0))
        hist, targ = ds.gather("train", 3 * ds.n_nodes + np.arange(ds.n_nodes))  # window 3, every node
        np.testing.assert_array_equal(hist, series.values[:, 3:8, :])
        np.testing.assert_array_equal(targ, series.values[:, 8:12, :])

    def test_gather_cuts_each_sample_from_its_node_and_anchor(self):
        values = np.random.default_rng(5).normal(size=(3, 60, 2))
        ds = make_windows(TimeSeriesTensor(values, ("a", "b", "c")), 5, 4, (0.5, 0.5, 0.0))
        ids = np.random.default_rng(6).permutation(ds.n_samples("val"))[:20]
        hist, targ = ds.gather("val", ids)
        for i, sample in enumerate(ids):  # sample id = window * n_nodes + node
            node, anchor = sample % 3, ds.split_ranges["val"][0] + sample // 3
            np.testing.assert_array_equal(hist[i], values[node, anchor : anchor + 5])
            np.testing.assert_array_equal(targ[i], values[node, anchor + 5 : anchor + 9])
        assert hist.shape == (20, 5, 2) and targ.shape == (20, 4, 2)

    @pytest.mark.parametrize("features", [1, 2])
    def test_gather_equals_a_history_gather_and_a_target_gather(self, features):
        values = np.random.default_rng(features).normal(size=(4, 90, features))
        ds = make_windows(TimeSeriesTensor(values, ("a", "b", "c", "d")), 7, 3, (0.6, 0.25, 0.15))
        rng = np.random.default_rng(9)
        for split in ("train", "val", "test"):
            assert ds.n_samples(split) > 0
            ids = np.concatenate([[0, ds.n_samples(split) - 1], rng.integers(0, ds.n_samples(split), 50)])
            nodes, starts = ids % 4, ds.split_ranges[split][0] + ids // 4
            hist, targ = ds.gather(split, ids)
            expected_hist = np.stack([values[v, s : s + 7] for v, s in zip(nodes, starts)])
            expected_targ = np.stack([values[v, s + 7 : s + 10] for v, s in zip(nodes, starts)])
            assert hist.shape == expected_hist.shape and hist.tobytes() == expected_hist.tobytes()
            assert targ.shape == expected_targ.shape and targ.tobytes() == expected_targ.tobytes()

    def test_gather_rejects_ids_outside_the_split(self):
        ds = make_windows(toy_series(60, n_nodes=2), 5, 4, (0.5, 0.5, 0.0))
        for ids in ([-1], [ds.n_samples("train")], [0, ds.n_samples("train")]):
            with pytest.raises(IndexError, match=r"^sample ids must lie in \[0, 44\) for the train split$"):
                ds.gather("train", np.array(ids))

    def test_window_counts_at_the_edges(self):
        ds = make_windows(toy_series(30), 5, 4, (0.3, 0.7, 0.0))
        assert ds.split_ranges["train"] == (0, 9)  # exactly history + horizon steps
        assert ds.n_windows("train") == 1
        assert ds.split_ranges["test"] == (30, 30)
        assert ds.n_windows("test") == 0 and ds.n_samples("test") == 0

    def test_insufficient_length_reports_requirement(self):
        series = toy_series(20)
        with pytest.raises(ValueError, match="at least 15"):
            make_windows(series, 10, 5, (0.5, 0.3, 0.2))

    def test_ratio_validation(self):
        series = toy_series(50)
        with pytest.raises(ValueError, match="sum to 1"):
            make_windows(series, 4, 2, (0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="non-negative"):
            make_windows(series, 4, 2, (1.2, -0.1, -0.1))

    def test_nan_ratio_is_rejected_by_name(self):
        # NaN compares false with everything: it must fail the sign check, not reach int() later.
        with pytest.raises(ValueError, match=r"^split_ratios must be three non-negative numbers, got \(nan, 0\.5, 0\.5\)$"):
            make_windows(toy_series(50), 4, 2, (float("nan"), 0.5, 0.5))


class TestMaeLoss:
    def test_zero_on_equal_inputs(self):
        x = np.arange(6.0).reshape(2, 3)
        loss, grad = mae_loss(x, x)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_single_element(self):
        loss, grad = mae_loss(np.array([2.0]), np.array([0.0]))
        assert loss == 2.0
        np.testing.assert_array_equal(grad, np.array([1.0]))

    def test_matches_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(2)
        target = rng.standard_normal((4, 3))
        pred = target + rng.choice([-1.0, 1.0], size=(4, 3)) * rng.uniform(0.5, 2.0, (4, 3))
        _, grad = mae_loss(pred, target)

        def loss():
            return mae_loss(pred, target)[0]

        numeric = central_difference(loss, pred, eps=1e-6)
        assert max_relative_error(grad, numeric) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae_loss(np.zeros(3), np.zeros(4))


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_bitwise(self):
        param = np.array([1.25, -3.5])
        before = param.copy()
        m = np.zeros(2)
        v = np.zeros(2)
        adam_step(param, np.zeros(2), m, v, step=1, lr=0.1)
        np.testing.assert_array_equal(param, before)

    def test_first_step_closed_form(self):
        param = np.array([0.0])
        m = np.zeros(1)
        v = np.zeros(1)
        adam_step(param, np.array([1.0]), m, v, step=1, lr=0.1)
        assert abs(param[0] + 0.1) < 1e-8

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(FloatingPointError):
            adam_step(np.zeros(1), np.array([np.nan]), np.zeros(1), np.zeros(1), step=1, lr=0.1)

    def test_pinned_imaginary_bins_survive_many_steps(self):
        rng = np.random.default_rng(3)
        state = FilterPredictorState.initialize(8, 2, 1, 2, UNIT_NORM)
        _, _, k_re, k_im, _, _ = state.parameters()
        opt = Adam(state, lr=0.05)
        for _ in range(100):
            k_re.grad[...] = rng.standard_normal(k_re.grad.shape)
            k_im.grad[...] = rng.standard_normal(k_im.grad.shape)
            opt.step()
        rows = [0, 4]
        assert k_im.pin_mask[rows].all()
        np.testing.assert_array_equal(state.k_im[rows], np.zeros((len(rows), 2)))


@pytest.mark.parametrize("optimizer", [Adam, SGD])
def test_a_pin_set_through_pin_mask_holds_through_pullback_and_every_step(optimizer):
    state = FilterPredictorState.initialize(8, 2, 1, 2, UNIT_NORM)
    k_re = state.parameters()[2]
    k_re.pin_mask[3, 0] = True
    state.apply_pins()
    assert state.k_re[3, 0] == 0.0
    rng = np.random.default_rng(5)
    histories, targets = rng.standard_normal((16, 8, 1)), rng.standard_normal((16, 2, 1))
    opt = optimizer(state, lr=0.01)
    for _ in range(5):
        forecaster, pullback = state.fold_and_pullback()
        pullback(histories, mae_loss(forecaster.predict(histories), targets)[1])
        assert k_re.grad[3, 0] == 0.0 and k_re.grad[2, 0] != 0.0  # its neighbour bin still learns
        opt.step()
        assert state.k_re[3, 0] == 0.0
    assert state.k_re[2, 0] != 1.0


def state_with_one_bad_gradient():
    state = FilterPredictorState.initialize(8, 2, 1, 2, UNIT_NORM)
    state.grads[...] = 1.0
    state.parameters()[3].grad[1, 0] = np.inf  # filter.kernel.im
    return state


def test_sgd_names_the_slot_with_a_non_finite_gradient():
    state = state_with_one_bad_gradient()
    before = state.params.copy()
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient in filter\.kernel\.im$"):
        SGD(state, lr=0.1).step()
    np.testing.assert_array_equal(state.params, before)  # nothing moved, not even the slots before the bad one


def test_adam_names_the_slot_with_a_non_finite_gradient():
    state = state_with_one_bad_gradient()
    before = state.params.copy()
    opt = Adam(state, lr=0.1)
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient in filter\.kernel\.im$"):
        opt.step()
    np.testing.assert_array_equal(state.params, before)
    assert opt.step_count == 0
    assert not opt.m.any() and not opt.v.any()


def test_adam_checks_the_gradient_before_the_update(monkeypatch):
    calls = []
    monkeypatch.setattr(freqfilter.training, "adam_step", lambda *args: calls.append(args))
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient in filter\.kernel\.im$"):
        Adam(state_with_one_bad_gradient(), lr=0.1).step()
    assert calls == []


def test_a_moment_overflow_raises_the_updates_own_error():
    state = FilterPredictorState.initialize(8, 2, 1, 2, UNIT_NORM)
    state.grads[...] = 1e200  # finite, but its square is not
    before = state.params.copy()
    opt = Adam(state, lr=0.1)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        opt.step()
    np.testing.assert_array_equal(state.params, before)
    assert opt.step_count == 0


def test_adam_steps_through_the_public_update(monkeypatch):
    steps = []

    def spy(param, grad, m, v, step, lr):
        steps.append(step)
        adam_step(param, grad, m, v, step, lr)

    monkeypatch.setattr(freqfilter.training, "adam_step", spy)
    state = FilterPredictorState.initialize(8, 2, 1, 2, UNIT_NORM)
    state.grads[...] = 1.0
    opt = Adam(state, lr=0.1)
    opt.step()
    opt.step()
    assert steps == [1, 2] and opt.step_count == 2


class PerSlotAdam:
    """Adam as one update per parameter slot, each with its own moments: the reference for the buffer update."""

    def __init__(self, slots, lr):
        self.slots = slots
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(s.value) for s in slots]
        self.v = [np.zeros_like(s.value) for s in slots]

    def step(self):
        self.step_count += 1
        for slot, m, v in zip(self.slots, self.m, self.v):
            adam_step(slot.value, slot.grad, m, v, self.step_count, self.lr)
            slot.apply_pins()


class PerSlotSGD:
    """Gradient descent slot by slot: the reference for the buffer update."""

    def __init__(self, slots, lr):
        self.slots = slots
        self.lr = lr

    def step(self):
        for slot in self.slots:
            slot.value -= self.lr * slot.grad
            slot.apply_pins()


@pytest.mark.parametrize(
    "buffered, per_slot, lr", [(Adam, PerSlotAdam, 0.01), (SGD, PerSlotSGD, 0.05)], ids=["adam", "sgd"]
)
def test_buffer_optimizer_matches_the_per_slot_loop_bitwise(buffered, per_slot, lr):
    mine = FilterPredictorState.initialize(8, 3, 2, 3, NormStats([0.0, 0.0], [1.0, 1.0]), seed=4)
    reference = FilterPredictorState.initialize(8, 3, 2, 3, NormStats([0.0, 0.0], [1.0, 1.0]), seed=4)
    opt, ref_opt = buffered(mine, lr), per_slot(reference.parameters(), lr)
    rng = np.random.default_rng(4)
    for _ in range(20):
        grads = rng.standard_normal(mine.grads.shape)  # nonzero at the pinned entries too
        mine.grads[...] = grads
        reference.grads[...] = grads
        opt.step()
        ref_opt.step()
    for got, want in zip(mine.parameters(), reference.parameters()):
        np.testing.assert_array_equal(got.value, want.value, err_msg=got.name)
        np.testing.assert_array_equal(got.grad, want.grad, err_msg=got.name)
    assert mine.pin_mask.any() and not mine.params[mine.pin_mask].any()


def test_parameter_slots_are_views_into_the_buffer():
    norm = NormStats(np.array([50.0, 20.0]), np.array([10.0, 4.0]))
    state = FilterPredictorState.initialize(6, 2, 2, 3, norm, seed=1)
    slots = state.parameters()
    assert [s.name for s in slots] == [
        "filter.lift.weight", "filter.lift.bias", "filter.kernel.re", "filter.kernel.im", "readout.weight", "readout.bias"
    ]
    assert sum(s.value.size for s in slots) == state.params.size == state.grads.size == state.pin_mask.size
    kernel_start = slots[0].value.size + slots[1].value.size
    before = state.fold().weight.copy()
    slots[2].value[1, 0] = 0.5
    assert state.params[kernel_start + state.width] == 0.5
    assert state.k_re[1, 0] == 0.5
    assert not np.array_equal(state.fold().weight, before)
    im_start = kernel_start + slots[2].value.size
    pinned = [im_start + row * state.width + c for row in (0, 3) for c in range(state.width)]
    np.testing.assert_array_equal(np.flatnonzero(state.pin_mask), pinned)
    slots[3].value[0, 1] = 2.0
    slots[3].grad[0, 1] = 1.0
    slots[3].apply_pins()
    assert state.params[im_start + 1] == 0.0 and state.grads[im_start + 1] == 0.0


def prepared_state(series, h=12, t=12, width=4, seed=0):
    ds = make_windows(series, h, t, (0.7, 0.1, 0.2))
    norm = fit_normalization(series, ds.split_ranges["train"])
    state = FilterPredictorState.initialize(h, t, series.n_features, width, norm, seed=seed)
    return state, ds


class TestTrain:
    def test_zero_learning_rate_is_a_no_op(self):
        series = generate_synthetic(SyntheticConfig(n_nodes=2, n_days=2, rng_seed=4))
        state, ds = prepared_state(series)
        before = [s.value.copy() for s in state.parameters()]
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=64, seed=1)
        log = train(state, ds, cfg)
        for slot, saved in zip(state.parameters(), before):
            np.testing.assert_array_equal(slot.value, saved)
        vals = [entry[2] for entry in log.entries]
        assert all(v == vals[0] for v in vals)

    def test_epoch_zero_val_loss_equals_copy_last_step(self):
        # clean sinusoid, untrained predictor: the initialization contract makes
        # epoch-0 validation loss the CopyLastStep MAE on the validation windows
        cfg = SyntheticConfig(
            n_nodes=2, n_days=3, gaussian_noise_std=0.0, spike_probability=0.0, rng_seed=5
        )
        series = generate_synthetic(cfg)
        state, ds = prepared_state(series)
        log = train(state, ds, TrainConfig(learning_rate=0.0, epochs=1, seed=0))
        start, stop = ds.split_ranges["val"]
        val_region = slice_window(series, start, stop - start)
        copy = rolling_evaluate(CopyLastStepPredictor(12), val_region, 12, 12)
        assert log.entries[0][2] == pytest.approx(copy.aggregate.mae, abs=1e-9)

    def test_validation_loss_reads_histories_without_a_gather(self, monkeypatch):
        series = generate_synthetic(SyntheticConfig(n_nodes=3, n_days=3, gaussian_noise_std=2.0, rng_seed=13))
        state, ds = prepared_state(series)
        state.readout_weight += np.random.default_rng(13).normal(0.0, 0.1, state.readout_weight.shape)
        hist, targ = ds.gather("val", np.arange(ds.n_samples("val")))
        expected = float(np.mean(np.abs(state.predict(hist) - targ)))

        def no_gather(*args):
            raise AssertionError("evaluate_loss gathered windows")

        monkeypatch.setattr(freqfilter.predictors, "_gather", no_gather)
        assert evaluate_loss(state, ds, "val") == pytest.approx(expected, rel=1e-12)

    def test_validation_loss_improves_on_noisy_data(self):
        series = generate_synthetic(
            SyntheticConfig(n_nodes=2, n_days=4, gaussian_noise_std=2.0, spike_probability=0.02, rng_seed=6)
        )
        state, ds = prepared_state(series)
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=128, seed=6)
        log = train(state, ds, cfg)
        assert log.entries[-1][2] < log.entries[0][2]

    def test_one_step_changes_at_least_one_kernel_parameter(self):
        series = generate_synthetic(
            SyntheticConfig(n_nodes=2, n_days=2, gaussian_noise_std=1.5, rng_seed=7)
        )
        state, ds = prepared_state(series)
        before = state.k_re.copy()
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4096, seed=7)
        train(state, ds, cfg)
        assert not np.array_equal(before, state.k_re)

    def test_divergence_aborts_with_epoch_and_batch(self):
        series = generate_synthetic(SyntheticConfig(n_nodes=2, n_days=2, rng_seed=8))
        # 1e200 and 1e300 overflow while folding the parameters a step left, before any loss is formed.
        for lr in (1e150, 1e200, 1e300):
            state, ds = prepared_state(series)
            cfg = TrainConfig(learning_rate=lr, epochs=5, batch_size=64, seed=8)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDivergedError, match=r"epoch \d+, batch \d+"
            ):
                train(state, ds, cfg)

    def test_determinism_same_seed_bitwise(self):
        def run():
            series = generate_synthetic(
                SyntheticConfig(n_nodes=2, n_days=3, gaussian_noise_std=2.0, rng_seed=9)
            )
            state, ds = prepared_state(series, seed=9)
            log = train(state, ds, TrainConfig(learning_rate=1e-3, epochs=2, batch_size=128, seed=9))
            return [s.value.copy() for s in state.parameters()], log.to_text()

        params_a, log_a = run()
        params_b, log_b = run()
        assert log_a == log_b
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a, b)

    def test_early_stopping_restores_best_parameters(self):
        series = generate_synthetic(
            SyntheticConfig(n_nodes=2, n_days=4, gaussian_noise_std=2.0, rng_seed=10)
        )
        state, ds = prepared_state(series)
        cfg = TrainConfig(learning_rate=1e-3, epochs=40, batch_size=256, seed=10, early_stop_patience=2)
        log = train(state, ds, cfg)
        assert log.stopped_early
        # restored parameters must reproduce the best validation loss
        best_val = min(entry[2] for entry in log.entries)
        assert evaluate_loss(state, ds, "val") == pytest.approx(best_val, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0).validate()
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=lr).validate()
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop").validate()

    def test_sgd_optimizer_also_trains(self):
        series = generate_synthetic(
            SyntheticConfig(n_nodes=1, n_days=3, gaussian_noise_std=1.0, rng_seed=11)
        )
        state, ds = prepared_state(series)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=256, optimizer="sgd", seed=11)
        log = train(state, ds, cfg)
        assert log.entries[-1][1] <= log.entries[0][1]

    def test_multi_feature_series_learns_cross_feature_structure(self):
        # the second feature leads the first by eight steps, so a trained
        # predictor can beat last-value copying by reading it through the lift
        rng = np.random.default_rng(20)
        steps = 1200
        t = np.arange(steps + 8)
        clean = 10.0 * np.sin(2 * np.pi * t / 96.0)
        lagging = clean[:steps] + rng.normal(0, 1.0, (3, steps)) + 50.0
        leading = clean[8 : steps + 8] + rng.normal(0, 1.0, (3, steps)) + 30.0
        series = TimeSeriesTensor(np.stack([lagging, leading], axis=2), ("a", "b", "c"))
        ds = make_windows(series, 8, 4, (0.7, 0.1, 0.2))
        norm = fit_normalization(series, ds.split_ranges["train"])
        state = FilterPredictorState.initialize(8, 4, 2, 3, norm, seed=1)
        train(state, ds, TrainConfig(learning_rate=2e-3, epochs=8, batch_size=128, seed=1))
        start, stop = ds.split_ranges["test"]
        region = slice_window(series, start, stop - start)
        model = rolling_evaluate(state, region, 8, 4)
        copy = rolling_evaluate(CopyLastStepPredictor(4), region, 8, 4)
        assert model.aggregate.mae < 0.9 * copy.aggregate.mae


@pytest.mark.parametrize("features", [1, 2])
@pytest.mark.parametrize("history", [12, 53])  # at 53 fold() correlates at a padded length
def test_validation_loss_is_rolling_evaluate_on_the_split(monkeypatch, features, history):
    rng = np.random.default_rng(history + features)
    series = TimeSeriesTensor(rng.normal(40.0, 10.0, (3, 400, features)), ("a", "b", "c"))
    ds = make_windows(series, history, 3, (0.6, 0.2, 0.2))
    norm = fit_normalization(series, ds.split_ranges["train"])
    state = FilterPredictorState.initialize(history, 3, features, features + 1, norm, seed=features)
    state.params += rng.normal(0.0, 0.05, state.params.shape)
    state.apply_pins()
    monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 7)  # two anchors of three nodes per block
    for split in ("train", "val", "test"):
        assert ds.n_windows(split) > 2  # several blocks
        start, stop = ds.split_ranges[split]
        region = slice_window(series, start, stop - start)
        loss = evaluate_loss(state, ds, split)
        assert loss == rolling_evaluate(state, region, history, 3).aggregate.mae
        hist, targ = ds.gather(split, np.arange(ds.n_samples(split)))
        assert loss == pytest.approx(float(np.mean(np.abs(state.forward(hist) - targ))), rel=1e-9)
    no_val = make_windows(series, history, 3, (0.8, 0.0, 0.2))
    assert no_val.n_samples("val") == 0 and np.isnan(evaluate_loss(state, no_val, "val"))


def scripted_validation(monkeypatch, val_losses):
    """Make training read val_losses[k] at its k-th validation loss; returns the parameters seen at each."""
    snapshots = []
    real = freqfilter.training.evaluate_loss

    def evaluate(state, data, split):
        if split != "val":
            return real(state, data, split)
        snapshots.append(state.params.copy())
        return val_losses[len(snapshots) - 1]

    monkeypatch.setattr(freqfilter.training, "evaluate_loss", evaluate)
    return snapshots


def stop_rule_run(epochs, patience, split=(0.6, 0.2, 0.2)):
    series = toy_series(120, n_nodes=2, seed=14)
    ds = make_windows(series, 6, 3, split)
    state = FilterPredictorState.initialize(6, 3, 1, 2, fit_normalization(series, ds.split_ranges["train"]), seed=14)
    cfg = TrainConfig(learning_rate=1e-2, epochs=epochs, batch_size=32, seed=14, early_stop_patience=patience)
    log = train(state, ds, cfg)
    return state, log


class TestStopRule:
    @pytest.mark.parametrize(
        "val_losses, patience, best",
        [
            ([5.0, 4.0, 3.0, 3.5, 3.0, 4.0, 2.0, 1.0], 2, 2),  # the tie at epoch 4 is no improvement
            ([5.0, 4.0, 4.0, 1.0], 0, 1),  # patience 0 stops at the first epoch not strictly lower
            ([5.0, 5.0, 1.0], 0, 0),  # the untrained parameters come back
            ([5.0, 6.0, 7.0, 4.0, 8.0, 9.0, 9.0, 9.0, 1.0], 3, 3),
        ],
    )
    def test_stops_after_patience_and_restores_the_best_epoch(self, monkeypatch, val_losses, patience, best):
        snapshots = scripted_validation(monkeypatch, val_losses)
        state, log = stop_rule_run(len(val_losses) - 1, patience)
        assert log.best_epoch == best
        assert len(log.entries) - 1 == best + patience + 1
        assert log.stopped_early
        assert log.final_val_loss() == val_losses[best]
        assert [e[2] for e in log.entries] == val_losses[: best + patience + 2]
        assert state.params.tobytes() == snapshots[best].tobytes()
        assert not np.array_equal(state.params, snapshots[-1])

    def test_runs_every_epoch_while_the_loss_keeps_falling(self, monkeypatch):
        val_losses = [5.0, 4.0, 3.0, 3.0, 2.0, 1.0]
        snapshots = scripted_validation(monkeypatch, val_losses)
        state, log = stop_rule_run(5, 1)
        assert log.best_epoch == 5
        assert len(log.entries) == 6 and not log.stopped_early
        assert log.final_val_loss() == 1.0
        assert state.params.tobytes() == snapshots[-1].tobytes()

    def test_no_validation_split_runs_every_epoch(self):
        state, log = stop_rule_run(4, 0, split=(0.8, 0.0, 0.2))
        assert len(log.entries) == 5
        assert all(np.isnan(e[2]) for e in log.entries)
        assert log.best_epoch == 0
        assert not log.stopped_early
        assert np.isnan(log.final_val_loss())


def test_log_serialization_round_trip_text():
    series = generate_synthetic(SyntheticConfig(n_nodes=1, n_days=2, rng_seed=12))
    ds = make_windows(series, 12, 12, (0.7, 0.1, 0.2))
    norm = fit_normalization(series, ds.split_ranges["train"])
    state = FilterPredictorState.initialize(12, 12, 1, 4, norm)
    log = train(state, ds, TrainConfig(epochs=2, batch_size=256, seed=12))
    text = log.to_text()
    lines = text.strip().splitlines()
    assert len(lines) == len(log.entries)
    first = lines[0].split()
    assert first[0] == "0" and len(first) == 3
