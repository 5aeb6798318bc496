"""Denoisers: a fixed smoother and a trainable spectral filter.

Time is axis -2 of every series and window here, features axis -1, and any
leading axes (nodes, batch) are carried through. The fixed smoother `smooth`
blends a causal trailing mean 50/50 with the original.

The trainable module lifts each time step with a per-step linear map, moves
every lifted channel to the frequency domain, multiplies by a learned complex
kernel, and transforms back; FilterPredictorState owns its parameters.
Everything here is linear, so the predictor
folds the module into one affine map and trains through that map (see
FilterPredictorState.fold_and_pullback); `filter_forward` is the direct
evaluation the fold is tested against, and it caches nothing.
"""

from __future__ import annotations

import numpy as np

from .spectral import irfft, rfft


def check_smoothing_window(window) -> int:
    """window as an int, after checking that it is a positive integer."""
    try:
        valid = int(window) == window and window >= 1
    except (OverflowError, ValueError):  # int() of inf or NaN
        valid = False
    if not valid:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    return int(window)


def _check_series(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ValueError(f"series must have shape (..., time, features) with at least one time step, got {x.shape}")
    return x


def _full_window_means(x: np.ndarray, w: int) -> np.ndarray:
    """The mean of every run of w consecutive steps along axis -2, as one reduction over a sliding-window view."""
    return np.lib.stride_tricks.sliding_window_view(x, w, axis=-2).mean(axis=-1)


def moving_average(x, window: int) -> np.ndarray:
    """Causal trailing mean along axis -2; the window shrinks at the start so length is preserved."""
    window = check_smoothing_window(window)
    x = _check_series(x)
    w = min(window, x.shape[-2])
    out = np.empty_like(x)
    out[..., w - 1 :, :] = _full_window_means(x, w)
    for t in range(w - 1):
        out[..., t, :] = x[..., : t + 1, :].mean(axis=-2)
    return out


def smooth(x, window: int) -> np.ndarray:
    """The fixed smoother: the trailing mean blended 50/50 with the original, along axis -2."""
    x = np.asarray(x, dtype=np.float64)
    return (x + moving_average(x, window)) / 2.0


def smooth_last_step(x, window: int) -> np.ndarray:
    """smooth(x, window)[..., -1:, :] with the same bits, read from the last min(window, time) steps only."""
    window = check_smoothing_window(window)
    x = _check_series(x)
    w = min(window, x.shape[-2])
    return (x[..., -1:, :] + _full_window_means(x[..., -w:, :], w)) / 2.0


def check_window_shape(x, window_length: int, features: int, what: str) -> np.ndarray:
    """x as float64, after checking that its last two axes are one (window_length, features) window."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2:] != (window_length, features):
        raise ValueError(f"{what} must have shape ({window_length}, {features}) per window, got {x.shape}")
    return x


def filter_forward(state, x) -> np.ndarray:
    """Lift, transform, multiply by the kernel, transform back: the filter module of a FilterPredictorState.

    Takes windows of shape (..., history, features) and returns the filtered
    windows, (..., history, width). With the identity kernel this is a
    pass-through of the lifted signal.
    """
    x = check_window_shape(x, state.history, state.features, "input window")
    lifted = x.reshape(-1, state.history, state.features) @ state.lift_weight + state.lift_bias
    # (n_half, B, width) spectra times the shared (n_half, width) kernel.
    spectrum = rfft(lifted.transpose(1, 0, 2))
    filtered = irfft(state.coefficients[:, None, :] * spectrum, state.history)
    return filtered.transpose(1, 0, 2).reshape(x.shape[:-1] + (state.width,))
