"""Denoisers: a fixed trailing moving average and a trainable spectral filter.

The trainable module lifts each time step with a per-step linear map, moves
every lifted channel to the frequency domain, multiplies by a learned complex
kernel, and transforms back. Everything here is linear, so the predictor
folds the module into one affine map and trains through that map (see
FilterPredictorState.fold_and_pullback); `filter_forward` is the direct
evaluation the fold is tested against, and it caches nothing.
"""

from __future__ import annotations

import numpy as np

from .spectral import half_length, irfft, rfft

EXTRA_COLUMN_STD = 0.05  # std of the random lift columns past the identity embedding


def moving_average(x, window: int, time_axis: int = 0) -> np.ndarray:
    """Causal trailing mean; the window shrinks at the start so length is preserved."""
    if int(window) != window or window < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    window = int(window)
    x = np.asarray(x, dtype=np.float64)
    moved = np.moveaxis(x, time_axis, 0)
    n = moved.shape[0]
    w = min(window, n)
    out = np.empty_like(moved)
    sliding = np.lib.stride_tricks.sliding_window_view(moved, w, axis=0)
    out[w - 1 :] = sliding.mean(axis=-1)
    for t in range(w - 1):
        out[t] = moved[: t + 1].mean(axis=0)
    return np.moveaxis(out, 0, time_axis)


def blend_with_original(x, y) -> np.ndarray:
    """Elementwise mean of a signal and its filtered version."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    return (x + y) / 2.0


class PointwiseLinear:
    """Linear map over the trailing feature axis, applied independently per position.

    Equivalent to a width-1 convolution along time: every time step is mapped
    by the same (d_in, d_out) weight and bias. Its gradients g_weight and g_bias
    exist once a FilterPredictorState has adopted the layer.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        weight = np.array(weight, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1 or bias.shape[0] != weight.shape[1]:
            raise ValueError(
                f"expected weight (d_in, d_out) and bias (d_out,), got {weight.shape} and {bias.shape}"
            )
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueError("parameters must be finite")
        self.weight = weight
        self.bias = bias

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.d_in:
            raise ValueError(f"expected trailing width {self.d_in}, got {x.shape[-1]}")
        return x @ self.weight + self.bias


class SpectralKernel:
    """Trainable complex filter over the half spectrum, one coefficient per (bin, channel).

    Initialized to the identity filter (1 + 0i), i.e. no filtering until
    training says otherwise. Imaginary parts at bin 0 and at the Nyquist bin
    (even windows) are pinned to zero: those frequencies must stay real for
    the filtered spectrum to invert to a real sequence.

    The real and imaginary parts live in two real arrays, k_re and k_im,
    stored in that order by checkpoints; their gradients g_re and g_im exist
    once a FilterPredictorState has adopted the kernel. `coefficients` joins
    them into the complex kernel that the filter multiplies by.
    """

    def __init__(self, window_length: int, width: int):
        if window_length < 1 or width < 1:
            raise ValueError("window_length and width must be >= 1")
        self.window_length = window_length
        self.width = width
        n_half = half_length(window_length)
        self.k_re = np.ones((n_half, width))
        self.k_im = np.zeros((n_half, width))

    @property
    def n_half(self) -> int:
        return self.k_re.shape[0]

    @property
    def coefficients(self) -> np.ndarray:
        """The kernel as one complex (n_half, width) array, built from the two parameter planes."""
        return self.k_re + 1j * self.k_im

    @property
    def pinned_rows(self) -> tuple[int, ...]:
        if self.window_length % 2 == 0 and self.n_half > 1:
            return (0, self.n_half - 1)
        return (0,)


class FilterModuleState:
    """Per-step lift followed by the learnable frequency-domain filter.

    Holds parameters only, no activations: the predictor's pullback writes
    the gradients and needs nothing from a forward pass but the input windows.
    """

    def __init__(self, lift: PointwiseLinear, kernel: SpectralKernel):
        if lift.d_out != kernel.width:
            raise ValueError(
                f"lift output width {lift.d_out} != kernel width {kernel.width}"
            )
        self.lift = lift
        self.kernel = kernel
        self.window_length = kernel.window_length

    @classmethod
    def initialize(
        cls,
        window_length: int,
        in_features: int,
        width: int,
        rng: np.random.Generator | None = None,
    ) -> "FilterModuleState":
        """Identity-style init: embed the input features, pass extra channels through zero.

        The first in_features lift columns form an identity embedding. Extra
        columns (width > in_features) start at small random values when an
        rng is supplied so they can break symmetry during training; they do
        not affect the output until a downstream readout picks them up.
        """
        if width < in_features:
            raise ValueError(
                f"width {width} must be >= in_features {in_features} for the identity embedding"
            )
        weight = np.zeros((in_features, width))
        weight[np.arange(in_features), np.arange(in_features)] = 1.0
        if rng is not None and width > in_features:
            weight[:, in_features:] = rng.normal(0.0, EXTRA_COLUMN_STD, (in_features, width - in_features))
        lift = PointwiseLinear(weight, np.zeros(width))
        return cls(lift, SpectralKernel(window_length, width))

    @property
    def in_features(self) -> int:
        return self.lift.d_in

    @property
    def width(self) -> int:
        return self.kernel.width


def _as_batched_window(x, window_length: int, features: int, what: str):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    batched = x[None] if single else x
    if batched.ndim != 3 or batched.shape[1] != window_length or batched.shape[2] != features:
        raise ValueError(
            f"{what} must have shape ({window_length}, {features}) per window, got {x.shape}"
        )
    return batched, single


def filter_forward(state: FilterModuleState, x) -> np.ndarray:
    """Lift, transform, multiply by the kernel, transform back.

    Accepts one (n, F) window or a batch (B, n, F); returns the filtered
    window(s) with the lifted width. With the identity kernel this is a
    pass-through of the lifted signal.
    """
    xb, single = _as_batched_window(x, state.window_length, state.in_features, "input window")
    lifted = state.lift.forward(xb)
    # (n_half, B, width) spectra times the shared (n_half, width) kernel.
    spectrum = rfft(lifted.transpose(1, 0, 2))
    filtered = irfft(state.kernel.coefficients[:, None, :] * spectrum, state.window_length)
    out = filtered.transpose(1, 0, 2)
    return out[0] if single else out
