"""Denoisers: a fixed trailing moving average and a trainable spectral filter.

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


def _as_batched_window(x, window_length: int, features: int, what: str):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    batched = x[None] if single else x
    if batched.ndim != 3 or batched.shape[1] != window_length or batched.shape[2] != features:
        raise ValueError(
            f"{what} must have shape ({window_length}, {features}) per window, got {x.shape}"
        )
    return batched, single


def filter_forward(state, x) -> np.ndarray:
    """Lift, transform, multiply by the kernel, transform back: the filter module of a FilterPredictorState.

    Accepts one (history, features) window or a batch (B, history, features);
    returns the filtered window(s) with the lifted width. With the identity
    kernel this is a pass-through of the lifted signal.
    """
    xb, single = _as_batched_window(x, state.history, state.features, "input window")
    lifted = xb @ state.lift_weight + state.lift_bias
    # (n_half, B, width) spectra times the shared (n_half, width) kernel.
    spectrum = rfft(lifted.transpose(1, 0, 2))
    filtered = irfft(state.coefficients[:, None, :] * spectrum, state.history)
    out = filtered.transpose(1, 0, 2)
    return out[0] if single else out
