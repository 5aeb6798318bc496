import numpy as np
import pytest

from freqfilter.data_io import NormStats
from freqfilter.filters import filter_forward, moving_average, smooth
from freqfilter.predictors import FilterPredictorState
from freqfilter.spectral import irfft

from numgrad import central_difference, max_relative_error
from spectral_reference import circular_convolve


class TestMovingAverage:
    def test_constant_sequence_unchanged(self):
        x = np.full((9, 1), 4.2)
        for window in (1, 3, 5, 20):
            np.testing.assert_allclose(moving_average(x, window), x, atol=1e-12)

    def test_hand_evaluated_impulse(self):
        x = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])[:, None]
        expected = np.array([0.0, 0.0, 0.0, 0.25, 0.2, 0.2, 0.2])[:, None]
        np.testing.assert_allclose(moving_average(x, 5), expected, atol=1e-12)

    def test_window_one_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((11, 1))
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_window_zero_rejected(self):
        with pytest.raises(ValueError, match="window"):
            moving_average(np.ones((4, 1)), 0)

    def test_output_stays_in_input_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((rng.integers(1, 200), 1)) * 50
            y = moving_average(x, int(rng.integers(1, 12)))
            assert y.min() >= x.min() - 1e-12
            assert y.max() <= x.max() + 1e-12

    def test_applies_along_requested_axis(self):
        # Time is axis -2 whatever the leading axes: each (node, feature) column is averaged on its own.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 10, 2))
        y = moving_average(x, 4)
        for a in range(2):
            for v in range(3):
                for f in range(2):
                    np.testing.assert_array_equal(y[a, v, :, f], moving_average(x[a, v, :, f, None], 4)[:, 0])

    @pytest.mark.parametrize("shape", [(), (5,), (2, 0, 1)])
    def test_series_without_time_and_feature_axes_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(\.\.\., time, features\)"):
            moving_average(np.zeros(shape), 3)


class TestBlend:
    """smooth, the fixed smoother: the trailing mean blended 50/50 with the original."""

    def test_idempotent_on_equal_inputs(self):
        x = np.full((6, 2), -2.5)  # a constant series is its own trailing mean
        np.testing.assert_array_equal(smooth(x, 3), x)

    def test_arithmetic_mean(self):
        x = np.array([0.0, 2.0, 4.0])[:, None]  # trailing means with window 2: 0, 1, 3
        np.testing.assert_array_equal(smooth(x, 2), np.array([0.0, 1.5, 3.5])[:, None])

    def test_reduces_peak_deviation_on_spike(self):
        x = np.full((20, 1), 10.0)
        x[12] = 25.0  # one-step spike on a constant level
        blended = smooth(x, 5)
        assert np.max(np.abs(blended - 10.0)) < np.max(np.abs(x - 10.0))


def filter_module(n, features, width):
    """A predictor with an identity lift, an all-ones kernel, an identity readout and normalization (0, 1).

    Its forecasts are the filtered window reshaped to (horizon, features),
    so its pullback is the filter module's, and filter_forward(state, x)
    evaluates the module directly.
    """
    assert (n * width) % features == 0, "the identity readout needs history * width divisible by features"
    norm = NormStats(np.zeros(features), np.ones(features))
    state = FilterPredictorState(n, n * width // features, features, width, norm)
    state.lift_weight[...] = np.eye(features, width)
    state.k_re[...] = 1.0
    state.readout_weight[...] = np.eye(n * width)
    return state


def identity_module(n, d):
    return filter_module(n, d, d)


def filter_slots(predictor):
    return [slot for slot in predictor.parameters() if slot.name.startswith("filter.")]


def pin_kernel(state):
    """Zero the kernel's pinned imaginary bins through the slot that carries the pin mask."""
    (im,) = [slot for slot in state.parameters() if slot.name == "filter.kernel.im"]
    im.apply_pins()


class TestFilterForward:
    def test_identity_kernel_identity_lift_is_passthrough(self):
        rng = np.random.default_rng(3)
        state = identity_module(12, 2)
        x = rng.standard_normal((12, 2))
        np.testing.assert_allclose(filter_forward(state, x), x, atol=1e-9)

    def test_zero_kernel_annihilates(self):
        rng = np.random.default_rng(4)
        state = identity_module(8, 2)
        state.k_re[...] = 0.0
        x = rng.standard_normal((8, 2))
        np.testing.assert_allclose(filter_forward(state, x), np.zeros((8, 2)), atol=1e-12)

    def test_matches_circular_convolution_with_time_kernel(self):
        rng = np.random.default_rng(5)
        n, d = 8, 3
        state = identity_module(n, d)
        state.k_re[...] = rng.standard_normal(state.k_re.shape)
        state.k_im[...] = rng.standard_normal(state.k_im.shape)
        pin_kernel(state)
        x = rng.standard_normal((n, d))
        y = filter_forward(state, x)
        for c in range(d):
            time_kernel = irfft(state.coefficients[:, c], n)
            expected = circular_convolve(x[:, c], time_kernel)
            np.testing.assert_allclose(y[:, c], expected, atol=1e-8)

    def test_shape_mismatch_names_expected_dims(self):
        state = identity_module(8, 2)
        with pytest.raises(ValueError, match=r"\(8, 2\)"):
            filter_forward(state, np.zeros((9, 2)))

    def test_output_is_real_and_finite_for_random_kernels(self):
        rng = np.random.default_rng(6)
        for n in (2, 7, 12):
            state = identity_module(n, 2)
            state.k_re[...] = rng.standard_normal(state.k_re.shape)
            state.k_im[...] = rng.standard_normal(state.k_im.shape)
            pin_kernel(state)
            y = filter_forward(state, rng.standard_normal((n, 2)))
            assert y.dtype == np.float64
            assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("n", list(range(2, 33)))
    def test_convolution_equivalence_across_window_lengths(self, n):
        rng = np.random.default_rng(n + 300)
        state = identity_module(n, 1)
        state.k_re[...] = rng.standard_normal(state.k_re.shape)
        state.k_im[...] = rng.standard_normal(state.k_im.shape)
        pin_kernel(state)
        x = rng.standard_normal((n, 1))
        y = filter_forward(state, x)
        time_kernel = irfft(state.coefficients[:, 0], n)
        np.testing.assert_allclose(y[:, 0], circular_convolve(x[:, 0], time_kernel), atol=1e-8)


def random_module(rng, n=8, features=2, width=3):
    state = filter_module(n, features, width)
    state.lift_weight[...] = rng.normal(0, 0.8, state.lift_weight.shape)
    state.lift_bias[...] = rng.normal(0, 0.3, state.lift_bias.shape)
    state.k_re[...] = rng.normal(0, 0.8, state.k_re.shape)
    state.k_im[...] = rng.normal(0, 0.8, state.k_im.shape)
    pin_kernel(state)
    return state


def filter_pullback(predictor, x, grad):
    """Gradients of sum(grad * filter_forward(predictor, x)) for a predictor built by filter_module.

    Writes the filter's gradients into filter_slots(predictor) and returns the input gradient.
    """
    _, pullback = predictor.fold_and_pullback()
    grad = np.asarray(grad, dtype=np.float64)
    return pullback(x, grad.reshape(grad.shape[:-2] + (predictor.horizon, predictor.features)))


class TestFilterBackward:
    def test_zero_gradient_in_zero_gradient_out(self):
        rng = np.random.default_rng(7)
        state = random_module(rng)
        x = rng.standard_normal((8, 2))
        grad_x = filter_pullback(state, x, np.zeros((8, 3)))
        np.testing.assert_array_equal(grad_x, np.zeros((8, 2)))
        for slot in filter_slots(state):
            np.testing.assert_array_equal(slot.grad, np.zeros_like(slot.grad))

    def test_finite_difference_check_all_parameters_and_inputs(self):
        rng = np.random.default_rng(8)
        state = random_module(rng)
        x = rng.standard_normal((8, 2))
        weights = rng.standard_normal((8, 3))

        def loss():
            return float(np.sum(weights * filter_forward(state, x)))

        grad_x = filter_pullback(state, x, weights)

        for slot in filter_slots(state):
            numeric = central_difference(loss, slot.value, skip_mask=slot.pin_mask)
            assert max_relative_error(slot.grad, numeric) < 1e-4, slot.name
        numeric_x = central_difference(loss, x)
        assert max_relative_error(grad_x, numeric_x) < 1e-4

    def test_identity_map_sum_loss_gives_unit_input_gradient(self):
        # identity lift and all-ones kernel make the module an identity map,
        # so d(sum of outputs)/dx is all ones; cross-checked by differences.
        state = identity_module(8, 2)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 2))
        grad_x = filter_pullback(state, x, np.ones((8, 2)))
        np.testing.assert_allclose(grad_x, np.ones((8, 2)), atol=1e-9)

        def loss():
            return float(np.sum(filter_forward(state, x)))

        numeric = central_difference(loss, x)
        assert max_relative_error(grad_x, numeric) < 1e-4


class TestZeroGradients:
    def test_fresh_state_has_zero_buffers(self):
        state = identity_module(6, 2)
        for slot in filter_slots(state):
            np.testing.assert_array_equal(slot.grad, np.zeros_like(slot.grad))

    def test_zeroing_after_backward(self):
        # The pullback overwrites the buffers: a zero gradient after a non-zero
        # one leaves nothing of the first pass behind.
        rng = np.random.default_rng(10)
        state = random_module(rng)
        x = rng.standard_normal((8, 2))
        filter_pullback(state, x, rng.standard_normal((8, 3)))
        filter_pullback(state, x, np.zeros((8, 3)))
        for slot in filter_slots(state):
            np.testing.assert_array_equal(slot.grad, np.zeros_like(slot.grad))

    def test_accumulation_is_sum_of_single_passes(self):
        # A batch's gradient is the sum of its windows' gradients.
        rng = np.random.default_rng(11)
        state = random_module(rng)
        x1, x2 = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
        g1, g2 = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))

        def grads_after(x, g):
            filter_pullback(state, x, g)
            return [slot.grad.copy() for slot in filter_slots(state)]

        combined = grads_after(np.stack([x1, x2]), np.stack([g1, g2]))
        first = grads_after(x1, g1)
        second = grads_after(x2, g2)
        for c, a, b in zip(combined, first, second):
            np.testing.assert_allclose(c, a + b, atol=1e-12)


class TestKernelInvariants:
    def test_pinned_rows_for_even_and_odd_windows(self):
        for n, rows in ((8, [0, 4]), (7, [0])):
            state = identity_module(n, 2)
            (im,) = [slot for slot in state.parameters() if slot.name == "filter.kernel.im"]
            np.testing.assert_array_equal(np.flatnonzero(im.pin_mask.any(axis=1)), rows)
            assert im.pin_mask[rows].all()
            assert state.pin_mask.sum() == im.pin_mask.sum()  # nothing outside the imaginary plane

    def test_identity_initialization(self):
        state = FilterPredictorState.initialize(10, 2, 3, 3, NormStats(np.zeros(3), np.ones(3)))
        np.testing.assert_array_equal(state.k_re, np.ones((6, 3)))
        np.testing.assert_array_equal(state.k_im, np.zeros((6, 3)))
        np.testing.assert_array_equal(state.lift_weight, np.eye(3))
        np.testing.assert_array_equal(state.lift_bias, np.zeros(3))

    def test_batched_forward_matches_per_window(self):
        rng = np.random.default_rng(12)
        state = random_module(rng)
        batch = rng.standard_normal((4, 8, 2))
        out = filter_forward(state, batch)
        for i in range(4):
            np.testing.assert_allclose(out[i], filter_forward(state, batch[i]), atol=1e-12)


def test_lift_backward_matches_differences():
    # The lift of an identity-kernel module, so the module's output is the lift alone, x @ weight + bias.
    rng = np.random.default_rng(13)
    state = filter_module(6, 3, 2)
    state.lift_weight[...] = rng.standard_normal((3, 2))
    state.lift_bias[...] = rng.standard_normal(2)
    weight, bias = filter_slots(state)[:2]
    x = rng.standard_normal((6, 3))
    w = rng.standard_normal((6, 2))

    def loss():
        return float(np.sum(w * (x @ state.lift_weight + state.lift_bias)))

    grad_x = filter_pullback(state, x, w)
    assert max_relative_error(weight.grad, central_difference(loss, weight.value)) < 1e-4
    assert max_relative_error(bias.grad, central_difference(loss, bias.value)) < 1e-4
    assert max_relative_error(grad_x, central_difference(loss, x)) < 1e-4
