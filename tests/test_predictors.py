import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfilter.filters
import freqfilter.metrics
import freqfilter.predictors
import scoring_reference
from freqfilter.data_io import NormStats, SyntheticConfig, fit_normalization, generate_synthetic
from freqfilter.predictors import (
    CopyLastStepPredictor,
    FilteredCopyLastStepPredictor,
    FilterPredictorState,
    copy_last_step,
    rolling_evaluate,
)
from freqfilter.filters import filter_forward, smooth
from freqfilter.spectral import takes_bluestein
from freqfilter.tensor import TimeSeriesTensor
from freqfilter.training import TrainConfig, make_windows, train
from numgrad import central_difference, max_relative_error
from scoring_reference import gathered_rolling_evaluate


def ramp_series(n_steps=60, slope=0.5, n_nodes=1):
    values = np.tile(slope * np.arange(n_steps, dtype=np.float64)[None, :, None], (n_nodes, 1, 1))
    values = values + 5.0  # keep targets away from the MAPE mask
    return TimeSeriesTensor(values, tuple(f"n{i}" for i in range(n_nodes)))


class TestCopyLastStep:
    def test_repeats_final_observation(self):
        history = np.array([[55.0], [58.0], [60.0]])
        np.testing.assert_array_equal(copy_last_step(history, 3), np.full((3, 1), 60.0))

    def test_constant_history_perfect_on_constant_series(self):
        series = TimeSeriesTensor(np.full((2, 30, 1), 7.0), ("a", "b"))
        report = rolling_evaluate(CopyLastStepPredictor(4), series, history=6, horizon=4)
        assert report.aggregate.mae == 0.0
        assert report.aggregate.rmse == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="time step"):
            copy_last_step(np.zeros((0, 1)), 3)

    def test_scale_equivariance_is_exact(self):
        rng = np.random.default_rng(0)
        history = rng.standard_normal((4, 12, 2))
        alpha = 3.7
        np.testing.assert_array_equal(
            copy_last_step(alpha * history, 5), alpha * copy_last_step(history, 5)
        )

    def test_rolling_mode_equals_one_step_shift(self):
        # with rolling predecessors, the prediction for time t is the series at t-1
        cfg = SyntheticConfig(n_nodes=2, n_days=1, rng_seed=3)
        series = generate_synthetic(cfg)
        h, t = 4, 3
        report = rolling_evaluate(CopyLastStepPredictor(t), series, h, t, predecessor_mode=True)
        values = series.values
        diffs = np.abs(values[:, h:, 0] - values[:, h - 1 : -1, 0])
        # every (window, step) target/prediction pair is one of these shifted diffs;
        # per-step MAE is the mean over the aligned slice
        n_windows = series.n_steps - h - t + 1
        for step in range(t):
            expected = float(np.mean(diffs[:, step : step + n_windows]))
            assert report.per_step[step].mae == pytest.approx(expected, abs=1e-12)


class TestFilteredCopyLastStep:
    def test_constant_history_matches_plain_copy(self):
        history = np.full((10, 1), 42.0)
        np.testing.assert_allclose(
            FilteredCopyLastStepPredictor(3).predict(history), copy_last_step(history, 3), atol=1e-12
        )

    def test_matches_copy_when_only_the_tail_is_constant(self):
        rng = np.random.default_rng(8)
        history = rng.normal(0, 5, (12, 1))
        history[-5:] = 7.5  # constant over the whole filter window
        np.testing.assert_allclose(
            FilteredCopyLastStepPredictor(3, window=5).predict(history), copy_last_step(history, 3), atol=1e-12
        )

    def test_spike_tail_pulled_toward_pre_spike_level(self):
        history = np.full((12, 1), 10.0)
        history[-1, 0] = 30.0  # spike on the final step
        plain = copy_last_step(history, 2)
        filtered = FilteredCopyLastStepPredictor(2, window=5).predict(history)
        assert np.all(np.abs(filtered - 10.0) < np.abs(plain - 10.0))

    def test_smoothing_beats_raw_copy_on_noisy_spiky_series(self):
        cfg = SyntheticConfig(
            n_nodes=3, n_days=4, gaussian_noise_std=2.0, spike_probability=0.03, rng_seed=11
        )
        series = generate_synthetic(cfg)
        raw = rolling_evaluate(CopyLastStepPredictor(12), series, 12, 12, predecessor_mode=True)
        filt = rolling_evaluate(FilteredCopyLastStepPredictor(12, 5), series, 12, 12, predecessor_mode=True)
        assert filt.aggregate.mae < raw.aggregate.mae

    @pytest.mark.parametrize("layout", ["contiguous", "window_view"])
    @pytest.mark.parametrize("history", [1, 5, 12])
    @pytest.mark.parametrize("window", [1, 3, 5, 8, 9, 12, 20])
    def test_smoothing_the_tail_equals_smoothing_the_whole_history(self, history, window, layout):
        # From 8 values on, NumPy's pairwise sum may add a run in another order than one value at a time.
        values = np.random.default_rng(history * 100 + window).normal(50.0, 10.0, (3, history + 1, 2))
        histories = freqfilter.predictors._window_view(values, 0, 1, 2, history)  # (2 anchors, 3 nodes, history, 2)
        if layout == "contiguous":
            histories = np.ascontiguousarray(histories)
        got = FilteredCopyLastStepPredictor(4, window).predict(histories)
        np.testing.assert_array_equal(got, copy_last_step(smooth(histories, window), 4))

    @pytest.mark.parametrize("window", [0, -1, 2.5, float("inf"), float("nan")])
    def test_bad_window_rejected_at_construction(self, window):
        with pytest.raises(ValueError, match=rf"^window must be a positive integer, got {window!r}$"):
            FilteredCopyLastStepPredictor(12, window)

    @pytest.mark.parametrize("cls", [CopyLastStepPredictor, FilteredCopyLastStepPredictor])
    @pytest.mark.parametrize("horizon", [0, -2])
    def test_bad_horizon_rejected_at_construction(self, cls, horizon):
        with pytest.raises(ValueError, match=rf"^horizon must be >= 1, got {horizon}$"):
            cls(horizon)


class TestFilterPredictor:
    def make_state(self, history=12, horizon=12, features=1, width=4, seed=0):
        norm = NormStats(np.full(features, 50.0), np.full(features, 10.0))
        return FilterPredictorState.initialize(history, horizon, features, width, norm, seed=seed)

    def test_untrained_state_reproduces_copy_last_step(self):
        rng = np.random.default_rng(1)
        state = self.make_state()
        histories = rng.normal(50.0, 10.0, (6, 12, 1))
        np.testing.assert_allclose(
            state.predict(histories), copy_last_step(histories, 12), atol=1e-6
        )

    @pytest.mark.parametrize("history, horizon, features, width", [(1, 1, 1, 1), (5, 3, 2, 3), (4, 7, 3, 5)])
    def test_untrained_readout_copies_each_feature_of_the_last_step(self, history, horizon, features, width):
        expected = np.zeros((history * width, horizon * features))
        for step in range(horizon):  # reference loop: output (step, f) reads lifted channel f of the last step
            for f in range(features):
                expected[(history - 1) * width + f, step * features + f] = 1.0
        state = self.make_state(history, horizon, features, width)
        np.testing.assert_array_equal(state.readout_weight, expected)
        np.testing.assert_array_equal(state.readout_bias, np.zeros(horizon * features))

    def test_single_window_and_batch_agree(self):
        state = self.make_state()
        rng = np.random.default_rng(2)
        h = rng.normal(50, 10, (12, 1))
        single = state.predict(h)
        batch = state.predict(h[None])
        np.testing.assert_allclose(single, batch[0], atol=1e-12)

    def test_normalization_is_required(self):
        with pytest.raises(TypeError, match="norm"):
            FilterPredictorState.initialize(12, 12, 1, 4)
        with pytest.raises(TypeError, match="norm"):
            FilterPredictorState(12, 12, 1, 4)

    def test_normalization_cannot_be_reassigned(self):
        state = self.make_state()
        norm = state.norm
        with pytest.raises(AttributeError):
            state.norm = NormStats([0.0, 0.0], [1.0, 1.0])
        assert state.norm is norm

    def test_width_below_features_rejected(self):
        with pytest.raises(ValueError, match="width"):
            FilterPredictorState.initialize(8, 4, 3, 2, NormStats(np.zeros(3), np.ones(3)))

    def test_normalization_of_another_feature_count_rejected(self):
        with pytest.raises(ValueError, match=r"^normalization statistics have 2 features, the predictor 1$"):
            FilterPredictorState.initialize(6, 3, 1, 2, NormStats([0.0, 0.0], [1.0, 1.0]))

    def test_wrong_history_shape_names_expectation(self):
        state = self.make_state()
        with pytest.raises(ValueError, match=r"\(12, 1\)"):
            state.predict(np.zeros((24, 1)))


class TestLeadingAxes:
    """Histories (..., history, features) in, (..., horizon, features) out: any leading axes give the
    bits of the same windows flattened into one (B, history, features) batch."""

    lead = (2, 3)

    def setup_method(self):
        self.state = perturbed_state(6, 3, 2, 3, seed=21)
        rng = np.random.default_rng(21)
        self.histories = rng.normal(50.0, 10.0, self.lead + (6, 2))
        self.flat = self.histories.reshape(-1, 6, 2)

    def assert_flattened_call(self, call, out_shape):
        got = call(self.histories)
        assert got.shape == self.lead + out_shape
        np.testing.assert_array_equal(got, call(self.flat).reshape(got.shape))

    def test_affine_forecaster_predict(self):
        self.assert_flattened_call(self.state.fold().predict, (3, 2))

    def test_state_predict(self):
        self.assert_flattened_call(self.state.predict, (3, 2))

    def test_state_forward(self):
        self.assert_flattened_call(self.state.forward, (3, 2))

    def test_filter_forward(self):
        self.assert_flattened_call(lambda x: filter_forward(self.state, x), (6, 3))

    def test_pullback(self):
        grad_out = np.random.default_rng(22).standard_normal(self.lead + (3, 2))
        _, pullback = self.state.fold_and_pullback()
        grad_x = pullback(self.histories, grad_out)
        grads = self.state.grads.copy()
        assert grad_x.shape == self.histories.shape
        flat_grad_x = pullback(self.flat, grad_out.reshape(-1, 3, 2))
        np.testing.assert_array_equal(grad_x, flat_grad_x.reshape(grad_x.shape))
        np.testing.assert_array_equal(grads, self.state.grads)

    def test_pullback_gradient_shape_must_match_the_leading_axes(self):
        _, pullback = self.state.fold_and_pullback()
        with pytest.raises(ValueError, match=r"forecast shape \(2, 3, 3, 2\)"):
            pullback(self.histories, np.zeros((6, 3, 2)))


def perturbed_state(history, horizon, features, width, seed=0, scale=0.3, norm=None):
    rng = np.random.default_rng(seed)
    if norm is None:
        norm = NormStats(rng.normal(50.0, 5.0, features), rng.uniform(1.0, 10.0, features))
    state = FilterPredictorState.initialize(history, horizon, features, width, norm, seed=seed)
    for slot in state.parameters():
        slot.value += rng.normal(0.0, scale, slot.value.shape)
        slot.apply_pins()
    return state


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture
def transform_calls(monkeypatch):
    """(name, columns) of every rfft/irfft the filter and predictor modules make; columns = trailing axes."""
    calls = []

    def spy(name, fn, transformed):
        def wrapped(*args):
            result = fn(*args)
            calls.append((name, int(np.prod(np.shape(transformed(args[0], result))[1:]))))
            return result
        return wrapped

    rfft_spy = spy("rfft", freqfilter.predictors.rfft, lambda x, _: x)
    irfft_spy = spy("irfft", freqfilter.predictors.irfft, lambda _, y: y)
    for module in (freqfilter.filters, freqfilter.predictors):
        monkeypatch.setattr(module, "rfft", rfft_spy)
        monkeypatch.setattr(module, "irfft", irfft_spy)
    return calls


class TestFold:
    @pytest.mark.parametrize(
        "history,horizon,features,width",
        [
            (12, 12, 1, 4), (11, 3, 2, 5), (10, 4, 2, 2), (2016, 12, 1, 4),
            (67, 4, 1, 3), (97, 4, 2, 3), (106, 3, 1, 2), (4099, 12, 1, 4),
        ],
    )
    def test_folded_matches_unfolded_on_random_parameters(self, history, horizon, features, width):
        state = perturbed_state(history, horizon, features, width, seed=history)
        histories = np.random.default_rng(1).normal(50.0, 10.0, (9, history, features))
        unfolded = state.forward(histories)
        assert relative_error(state.fold().predict(histories), unfolded) <= 1e-12
        assert relative_error(state.predict(histories[0]), unfolded[0]) <= 1e-12

    def test_folded_matches_unfolded_on_trained_model(self):
        series = generate_synthetic(
            SyntheticConfig(n_nodes=5, n_days=30, spike_probability=0.02, gaussian_noise_std=2.0, rng_seed=42)
        )
        ds = make_windows(series, 12, 12, (0.7, 0.1, 0.2))
        norm = fit_normalization(series, ds.split_ranges["train"])
        state = FilterPredictorState.initialize(12, 12, 1, 4, norm, seed=42)
        cfg = TrainConfig(learning_rate=1e-3, epochs=50, batch_size=256, seed=42, early_stop_patience=5)
        train(state, ds, cfg)
        histories, _ = ds.gather("test", np.arange(ds.n_samples("test")))
        unfolded = state.forward(histories)
        assert relative_error(state.fold().predict(histories), unfolded) <= 1e-12

    @pytest.mark.parametrize("history,features,width", [(12, 1, 4), (9, 2, 3), (97, 1, 4), (4099, 1, 4)])
    def test_identity_init_folds_to_copy_last_step(self, history, features, width):
        norm = NormStats(np.full(features, 50.0), np.full(features, 10.0))
        state = FilterPredictorState.initialize(history, 5, features, width, norm, seed=3)
        histories = np.random.default_rng(4).normal(50.0, 10.0, (8, history, features))
        copied = copy_last_step(histories, 5)
        assert relative_error(state.fold().predict(histories), copied) <= 1e-12

    def test_folded_map_works_in_original_units_for_features_of_different_scales(self):
        # std_out / std_in is 200 or 1/200 across features
        state = perturbed_state(8, 3, 2, 3, seed=8, norm=NormStats([50.0, 0.2], [10.0, 0.05]))
        histories = np.random.default_rng(8).normal(state.norm.mean, state.norm.std, (4, 5, 8, 2))
        forecaster = state.fold()
        assert not hasattr(forecaster, "norm")
        got, want = forecaster.predict(histories), state.forward(histories)
        assert got.shape == (4, 5, 3, 2)
        for f in range(2):
            assert relative_error(got[..., f], want[..., f]) <= 1e-12

    def test_fold_is_one_transform_pair_whatever_the_batch(self, transform_calls):
        history, horizon, features, width = 10, 3, 2, 4
        state = perturbed_state(history, horizon, features, width)
        histories = np.random.default_rng(2).normal(50.0, 10.0, (500, history, features))
        state.predict(histories)
        assert transform_calls == [("rfft", width * horizon * features), ("irfft", features * horizon * features)]

    @pytest.mark.parametrize(
        "history,padded",
        [(12, False), (13, False), (49, False), (67, True), (97, True), (288, False),
         (2016, False), (2017, True), (4096, False), (4099, True)],
    )
    def test_fold_pads_exactly_the_lengths_that_meet_the_bluestein_precondition(self, history, padded):
        assert takes_bluestein(history) is padded
        state = perturbed_state(history, 2, 1, 2, seed=history)
        assert np.array_equal(state.fold().weight, state.fold_and_pullback()[0].weight) is not padded

    @pytest.mark.parametrize("history", [12, 288, 2016])
    def test_fold_has_the_bits_of_the_training_fold_off_the_bluestein_lengths(self, history):
        state = perturbed_state(history, 3, 2, 3, seed=history)
        folded, trained = state.fold(), state.fold_and_pullback()[0]
        assert np.array_equal(folded.weight, trained.weight) and np.array_equal(folded.bias, trained.bias)

    @pytest.mark.parametrize("history,horizon,features,width", [(53, 2, 2, 2), (97, 4, 2, 3), (106, 3, 1, 2), (4099, 12, 1, 4)])
    def test_padded_fold_matches_the_training_fold(self, history, horizon, features, width):
        state = perturbed_state(history, horizon, features, width, seed=history + 1)
        folded, trained = state.fold(), state.fold_and_pullback()[0]
        assert relative_error(folded.weight, trained.weight) <= 1e-12
        assert relative_error(folded.bias, trained.bias) <= 1e-12

    @pytest.mark.parametrize("history,row", [(12, 0), (12, 6), (106, 0), (106, 53), (4099, 0)])
    def test_fold_rejects_a_nonzero_pinned_imaginary_bin(self, history, row):
        state = perturbed_state(history, 2, 1, 2, seed=history)
        state.k_im[row, 1] = 0.5  # written past the pins, as a corrupted buffer would be
        where = "bin 0" if row == 0 else "the Nyquist bin"
        with pytest.raises(ValueError, match=f"imaginary part at {where}"):
            state.fold()

    def test_fold_reads_the_normalization_given_at_construction(self):
        state = perturbed_state(6, 3, 1, 2, seed=6)
        rescaled = FilterPredictorState(6, 3, 1, 2, NormStats(state.norm.mean + 1.0, state.norm.std))
        rescaled.params[...] = state.params
        histories = np.random.default_rng(6).normal(50.0, 10.0, (4, 6, 1))
        shift = rescaled.fold().predict(histories + 1.0) - state.fold().predict(histories)
        np.testing.assert_allclose(shift, 1.0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        history=st.integers(1, 24),
        horizon=st.integers(1, 5),
        features=st.integers(1, 3),
        extra_width=st.integers(0, 3),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_folded_equals_unfolded_property(self, history, horizon, features, extra_width, batch, seed):
        state = perturbed_state(history, horizon, features, features + extra_width, seed=seed)
        histories = np.random.default_rng(seed + 1).normal(50.0, 10.0, (batch, history, features))
        unfolded = state.forward(histories)
        assert relative_error(state.fold().predict(histories), unfolded) <= 1e-12


class TestPullback:
    @pytest.mark.parametrize(
        "history,horizon,features,width",
        [(8, 4, 2, 3), (7, 3, 2, 4), (12, 2, 1, 3), (2, 2, 1, 2), (1, 3, 2, 2)],
    )
    def test_matches_finite_differences(self, history, horizon, features, width):
        state = perturbed_state(history, horizon, features, width, seed=history, scale=0.5)
        rng = np.random.default_rng(history + 100)
        histories = rng.normal(50.0, 10.0, (3, history, features))
        loss_weights = rng.standard_normal((3, horizon, features))

        def loss():
            return float(np.sum(loss_weights * state.forward(histories)))

        _, pullback = state.fold_and_pullback()
        grad_x = pullback(histories, loss_weights)
        for slot in state.parameters():
            numeric = central_difference(loss, slot.value, skip_mask=slot.pin_mask)
            assert max_relative_error(slot.grad, numeric) < 1e-4, slot.name
            if slot.pin_mask is not None:
                assert np.all(slot.grad[slot.pin_mask] == 0.0), slot.name
        assert max_relative_error(grad_x, central_difference(loss, histories)) < 1e-4

    def test_zero_gradient_in_zero_gradient_out(self):
        state = perturbed_state(8, 4, 2, 3, seed=7)
        for slot in state.parameters():
            np.testing.assert_array_equal(slot.grad, np.zeros_like(slot.grad), err_msg=slot.name)
            slot.grad[...] = 1.0  # stale buffers are overwritten, not accumulated into
        histories = np.random.default_rng(7).normal(50.0, 10.0, (5, 8, 2))
        _, pullback = state.fold_and_pullback()
        grad_x = pullback(histories, np.zeros((5, 4, 2)))
        np.testing.assert_array_equal(grad_x, np.zeros_like(histories))
        for slot in state.parameters():
            np.testing.assert_array_equal(slot.grad, np.zeros_like(slot.grad), err_msg=slot.name)

    def test_identity_init_pulls_a_sum_loss_back_to_the_last_step(self):
        # The untrained predictor copies the last step to every horizon step, so
        # d(sum of forecasts)/d(history) is `horizon` at the last step and 0 before it.
        norm = NormStats(np.array([50.0, 20.0]), np.array([10.0, 4.0]))
        state = FilterPredictorState.initialize(9, 5, 2, 3, norm, seed=3)
        histories = np.random.default_rng(9).normal(50.0, 10.0, (4, 9, 2))
        _, pullback = state.fold_and_pullback()
        expected = np.zeros_like(histories)
        expected[:, -1, :] = 5.0
        np.testing.assert_allclose(pullback(histories, np.ones((4, 5, 2))), expected, atol=1e-12)

    def test_batch_gradient_is_the_sum_over_its_windows(self):
        state = perturbed_state(10, 3, 2, 4, seed=11)
        rng = np.random.default_rng(11)
        histories = rng.normal(50.0, 10.0, (3, 10, 2))
        loss_weights = rng.standard_normal((3, 3, 2))
        _, pullback = state.fold_and_pullback()
        singles, summed = [], [np.zeros_like(slot.grad) for slot in state.parameters()]
        for x, g in zip(histories, loss_weights):
            singles.append(pullback(x, g))
            for total, slot in zip(summed, state.parameters()):
                total += slot.grad
        assert relative_error(pullback(histories, loss_weights), np.stack(singles)) <= 1e-12
        for slot, total in zip(state.parameters(), summed):
            assert relative_error(slot.grad, total) <= 1e-12, slot.name

    def test_gradient_shape_must_match_the_forecasts(self):
        state = perturbed_state(6, 3, 1, 2)
        _, pullback = state.fold_and_pullback()
        with pytest.raises(ValueError, match=r"\(4, 3, 1\)"):
            pullback(np.zeros((4, 6, 1)), np.zeros((4, 2, 1)))

    @pytest.mark.parametrize("n_nodes", [1, 40])
    def test_training_step_is_a_fixed_set_of_transforms_whatever_the_batch(self, transform_calls, n_nodes):
        history, horizon, features, width = 12, 4, 2, 3
        values = np.random.default_rng(n_nodes).normal(50.0, 10.0, (n_nodes, 40, features))
        series = TimeSeriesTensor(values, tuple(f"n{i}" for i in range(n_nodes)))
        ds = make_windows(series, history, horizon, (1.0, 0.0, 0.0))
        norm = NormStats(np.full(features, 50.0), np.full(features, 10.0))
        state = FilterPredictorState.initialize(history, horizon, features, width, norm)
        train(state, ds, TrainConfig(epochs=1, batch_size=ds.n_samples("train")))
        outer, inner = width * horizon * features, features * horizon * features
        fold = [("rfft", outer), ("irfft", inner)]
        pullback = [("rfft", inner), ("irfft", outer)]
        # The epoch-0 training loss, then one step (the validation split is empty).
        assert transform_calls == fold + fold + pullback


def windows_by_hand(predictor, values, history, horizon, stride, predecessor_mode):
    """(predictions, targets), each (windows * nodes, horizon, F), gathered one window at a time."""
    n_nodes, total, _ = values.shape
    keys = [(a, v) for a in range(0, total - history - horizon + 1, stride) for v in range(n_nodes)]
    targets = np.stack([values[v, a + history : a + history + horizon] for a, v in keys])
    if predecessor_mode:
        source = predictor.transform_series(values)
        preds = np.stack([source[v, a + history - 1 : a + history - 1 + horizon] for a, v in keys])
    else:
        preds = predictor.predict(np.stack([values[v, a : a + history] for a, v in keys]))
    return preds, targets


def plain_metrics(pred, target, eps):
    """(mae, rmse, mape %, n_evaluated, n_masked) over whole arrays, straight from the definitions."""
    err = pred - target
    keep = np.abs(target) > eps
    n_eval = int(np.count_nonzero(keep))
    mape = float(np.mean(np.abs(err[keep] / target[keep])) * 100.0) if n_eval else None
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err))), mape, n_eval, err.size - n_eval


def assert_report_matches(report, want):
    got = (report.mae, report.rmse, report.mape_percent, report.n_evaluated, report.n_masked)
    assert got[3:] == want[3:]
    for g, w in zip(got[:3], want[:3]):
        if w is None:
            assert g is None
        else:
            assert abs(g - w) <= 1e-12 * abs(w)


class TestRollingEvaluate:
    def test_linear_ramp_error_grows_with_horizon_step(self):
        slope = 0.5
        series = ramp_series(slope=slope)
        report = rolling_evaluate(CopyLastStepPredictor(6), series, history=8, horizon=6)
        for step in range(6):
            assert report.per_step[step].mae == pytest.approx((step + 1) * slope, abs=1e-9)

    def test_perfect_oracle_scores_zero(self):
        cfg = SyntheticConfig(n_nodes=2, n_days=1, rng_seed=5)
        series = generate_synthetic(cfg)

        class Oracle:
            def __init__(self, values, horizon):
                self.values = values
                self.horizon = horizon
                self.cursor = 0

            def predict(self, histories):  # (anchor, node, history, F): one block holds every anchor
                idx = np.arange(histories.shape[0])[:, None] + 8 + np.arange(self.horizon)[None, :]
                return self.values[:, idx, :].transpose(1, 0, 2, 3)

        report = rolling_evaluate(Oracle(series.values, 4), series, history=8, horizon=4)
        assert report.aggregate.mae == 0.0
        assert report.aggregate.rmse == 0.0

    def test_stride_two_halves_window_count(self):
        series = ramp_series(n_steps=61)
        one = rolling_evaluate(CopyLastStepPredictor(4), series, 8, 4, stride=1)
        two = rolling_evaluate(CopyLastStepPredictor(4), series, 8, 4, stride=2)

        def windows(r):
            total = r.aggregate.n_evaluated + r.aggregate.n_masked
            return total // 4  # nodes * horizon * features = 1 * 4 * 1

        assert abs(windows(one) - 2 * windows(two)) <= 1

    def test_node_permutation_invariance(self):
        cfg = SyntheticConfig(n_nodes=4, n_days=1, rng_seed=7)
        series = generate_synthetic(cfg)
        perm = [2, 0, 3, 1]
        shuffled = TimeSeriesTensor(
            series.values[perm], tuple(series.node_ids[i] for i in perm), series.interval_seconds
        )
        a = rolling_evaluate(CopyLastStepPredictor(3), series, 6, 3)
        b = rolling_evaluate(CopyLastStepPredictor(3), shuffled, 6, 3)
        assert a.aggregate.mae == pytest.approx(b.aggregate.mae, abs=1e-12)
        assert a.aggregate.rmse == pytest.approx(b.aggregate.rmse, abs=1e-12)

    def test_too_short_series_rejected(self):
        series = ramp_series(n_steps=10)
        with pytest.raises(ValueError, match="10 steps"):
            rolling_evaluate(CopyLastStepPredictor(8), series, 8, 8)

    def test_rolling_mode_needs_series_transform(self):
        state = FilterPredictorState.initialize(6, 3, 1, 2, NormStats([0.0], [1.0]))
        series = ramp_series(n_steps=30)
        with pytest.raises(TypeError, match="rolling-predecessor"):
            rolling_evaluate(state, series, 6, 3, predecessor_mode=True)

    def test_predictor_of_the_wrong_shape_is_rejected(self):
        class OneStepShort:
            def predict(self, histories):
                return copy_last_step(histories, 2)

        with pytest.raises(ValueError, match=r"^predictor returned shape \(22, 1, 2, 1\), expected \(22, 1, 3, 1\)$"):
            rolling_evaluate(OneStepShort(), ramp_series(n_steps=30), 6, 3)

    def test_predecessor_series_too_short_for_the_windows_is_rejected(self):
        class ShortTransform(CopyLastStepPredictor):
            def transform_series(self, values):
                return values[:, :-2]

        with pytest.raises(ValueError, match=r"^22 windows of 3 steps from step 5 run past a series of 28 steps$"):
            rolling_evaluate(ShortTransform(3), ramp_series(n_steps=30), 6, 3, predecessor_mode=True)

    def test_step_minutes_follow_interval(self):
        series = ramp_series(n_steps=40)
        report = rolling_evaluate(CopyLastStepPredictor(3), series, 6, 3)
        assert report.step_minutes(2) == pytest.approx(15.0)  # 3 steps at 300 s

    @settings(max_examples=60, deadline=None)
    @given(
        n_nodes=st.integers(1, 4),
        features=st.integers(1, 2),
        history=st.integers(1, 8),
        horizon=st.integers(1, 5),
        extra_steps=st.integers(0, 30),
        stride=st.integers(1, 4),
        eps=st.sampled_from([0.0, 1e-6, 0.5, 40.0]),
        kind=st.sampled_from(["copy", "filtered", "filter", "copy-predecessor", "filtered-predecessor"]),
        block=st.sampled_from([1, 3, 7]),
        seed=st.integers(0, 2**16),
    )
    def test_blocked_scores_match_whole_array_formulas(
        self, n_nodes, features, history, horizon, extra_steps, stride, eps, kind, block, seed
    ):
        rng = np.random.default_rng(seed)
        shape = (n_nodes, history + horizon + extra_steps, features)
        values = rng.normal(50.0, 20.0, shape)
        # exact zeros and targets at, just above and just below the MAPE threshold
        specials = np.array([0.0, eps, -eps, eps * (1 + 2**-40), -eps * (1 - 2**-40)])
        pick = rng.random(shape) < 0.3
        values[pick] = rng.choice(specials, size=int(pick.sum()))
        series = TimeSeriesTensor(values, tuple(f"n{i}" for i in range(n_nodes)))
        predecessor_mode = kind.endswith("predecessor")
        predictor = {
            "copy": CopyLastStepPredictor(horizon),
            "filtered": FilteredCopyLastStepPredictor(horizon, window=3),
            "filter": perturbed_state(history, horizon, features, features + 1, seed=seed),
        }[kind.split("-")[0]]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(freqfilter.predictors, "WINDOW_BLOCK", block)
            report = rolling_evaluate(
                predictor, series, history, horizon, stride=stride,
                predecessor_mode=predecessor_mode, mape_epsilon=eps,
            )

        preds, targets = windows_by_hand(predictor, series.values, history, horizon, stride, predecessor_mode)
        assert len(report.per_step) == horizon
        for step, got in enumerate(report.per_step):
            assert_report_matches(got, plain_metrics(preds[:, step], targets[:, step], eps))
        assert_report_matches(report.aggregate, plain_metrics(preds, targets, eps))

    def test_memory_is_one_block_whatever_the_window_count(self, monkeypatch):
        monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 256)
        predictor = CopyLastStepPredictor(12)

        def peak(n_steps):
            values = np.random.default_rng(n_steps).normal(50.0, 10.0, (8, n_steps, 1))
            series = TimeSeriesTensor(values, tuple(f"n{i}" for i in range(8)))
            tracemalloc.start()
            try:
                rolling_evaluate(predictor, series, 12, 12)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1_000), peak(4_000)
        assert large <= 1.5 * small, (small, large)

    def test_folds_once_per_call_with_the_bits_of_a_fold_per_block(self, monkeypatch):
        monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 8)
        state = perturbed_state(6, 3, 1, 3, seed=4)
        series = TimeSeriesTensor(np.random.default_rng(4).normal(50.0, 9.0, (3, 80, 1)), ("a", "b", "c"))

        class RefoldingPredictor:
            """Exposes only predict, so every block folds again: the per-block path."""

            def predict(self, histories):
                return state.predict(histories)

        folds = []
        fold = FilterPredictorState.fold
        monkeypatch.setattr(FilterPredictorState, "fold", lambda self: folds.append(1) or fold(self))
        once = rolling_evaluate(state, series, 6, 3, stride=2)
        assert len(folds) == 1
        per_block = rolling_evaluate(RefoldingPredictor(), series, 6, 3, stride=2)
        assert len(folds) == 1 + 18  # 36 anchors of 3 nodes, 2 anchors per block
        assert once == per_block

    @pytest.mark.parametrize("features", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["copy", "filter", "copy-predecessor", "filtered-predecessor"])
    def test_bits_of_the_gathered_loop(self, monkeypatch, stride, kind, features):
        monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 7)  # 2 anchors of 3 nodes per block
        history, horizon = 6, 4
        rng = np.random.default_rng(stride)
        values = rng.normal(50.0, 20.0, (3, 66, features))
        values[rng.random(values.shape) < 0.1] = 0.0  # masked targets
        series = TimeSeriesTensor(values, ("a", "b", "c"))
        predictor = {
            "copy": CopyLastStepPredictor(horizon),
            "filter": perturbed_state(history, horizon, features, 3, seed=stride),
            "filtered": FilteredCopyLastStepPredictor(horizon, window=3),
        }[kind.split("-")[0]]
        predecessor_mode = kind.endswith("predecessor")
        n_anchors = freqfilter.predictors.window_anchors(66, history, horizon, stride).size
        assert n_anchors > 2 and n_anchors % 2 == 1  # several blocks, the last one partial
        if features > 1:
            # The oracle's pairwise sum adds a block's features in another order than error_sums,
            # so here it scores with error_sums and checks what is cut and forecast, bit for bit.
            monkeypatch.setattr(scoring_reference, "error_sums", freqfilter.metrics.error_sums)

        got = rolling_evaluate(predictor, series, history, horizon, stride, predecessor_mode)
        assert got == gathered_rolling_evaluate(predictor, series, history, horizon, stride, predecessor_mode)

    @pytest.mark.parametrize("history, horizon", [(6, 3), (3, 6), (5, 5)])
    def test_predecessor_mode_gathers_no_histories(self, monkeypatch, history, horizon):
        monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 8)
        series = TimeSeriesTensor(np.random.default_rng(2).normal(50.0, 9.0, (3, 70, 1)), ("a", "b", "c"))
        predictor = FilteredCopyLastStepPredictor(horizon, window=3)

        # The previous loop: every block's histories gathered, then left unread.
        source = predictor.transform_series(series.values)
        anchors = freqfilter.predictors.window_anchors(70, history, horizon, 1)
        sums = 0.0
        nodes = np.arange(3)
        for span, _, targets in freqfilter.predictors.iter_windows(series.values, 0, 1, anchors.size, history, horizon):
            sums += freqfilter.predictors.error_sums(
                freqfilter.predictors._gather(source, nodes, anchors[span, None] + history - 1, horizon), targets
            )
        previous = freqfilter.predictors.RollingReport(
            *freqfilter.predictors.reports_from_sums(sums), series.interval_seconds
        )

        def no_gather(*args):
            raise AssertionError("predecessor mode gathered windows")

        monkeypatch.setattr(freqfilter.predictors, "_gather", no_gather)
        report = rolling_evaluate(predictor, series, history, horizon, predecessor_mode=True)
        assert report == previous

    def test_folded_map_reads_histories_without_a_gather(self, monkeypatch):
        monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 8)
        state = perturbed_state(6, 3, 1, 3, seed=5)
        series = TimeSeriesTensor(np.random.default_rng(5).normal(50.0, 9.0, (3, 70, 1)), ("a", "b", "c"))
        gathered = gathered_rolling_evaluate(state, series, 6, 3, stride=2)

        def no_gather(*args):
            raise AssertionError("the folded map's histories were gathered")

        monkeypatch.setattr(freqfilter.predictors, "_gather", no_gather)
        assert rolling_evaluate(state, series, 6, 3, stride=2) == gathered
        assert rolling_evaluate(state.fold(), series, 6, 3, stride=2) == gathered
