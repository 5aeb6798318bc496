"""Direct O(n^2) evaluations of the transforms and of cyclic convolution: the oracles rfft/irfft are tested against.

Each is the plainest evaluation of its definition, with no cache and nothing shared with freqfilter.spectral.
"""

import numpy as np


def dft_reference(x) -> np.ndarray:
    """Direct O(n^2) DFT of a 1-D sequence, with the e^{-i 2 pi n k / N} kernel and no scale factor."""
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dft_reference expects a non-empty 1-D sequence")
    n = x.size
    k = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return kernel @ x.astype(np.complex128)


def idft_reference(spectrum) -> np.ndarray:
    """Direct inverse DFT with the 1/n factor; inverse of dft_reference."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise ValueError("idft_reference expects a non-empty 1-D sequence")
    n = spectrum.size
    k = np.arange(n)
    kernel = np.exp(2j * np.pi * np.outer(k, k) / n)
    return (kernel @ spectrum) / n


def spectrum_to_full(half, n: int) -> np.ndarray:
    """Full complex spectrum of a real length-n window, implied by its half spectrum's conjugate symmetry."""
    half = np.asarray(half, dtype=np.complex128)
    if half.shape != (n // 2 + 1,):
        raise ValueError(f"expected {n // 2 + 1} bins for window length {n}, got shape {half.shape}")
    # Bins n-1 down to n//2+1 are the conjugates of bins 1 up to (n-1)//2.
    mirrored = np.conj(half[1 : (n - 1) // 2 + 1][::-1])
    return np.concatenate([half, mirrored])


def circular_convolve(x, k) -> np.ndarray:
    """Cyclic convolution (x * k)[m] = sum_i x[i] k[(m - i) mod n], evaluated term by term."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if x.ndim != 1 or k.ndim != 1:
        raise ValueError("circular_convolve expects 1-D sequences")
    if x.shape[0] != k.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {k.shape[0]}")
    n = x.shape[0]
    out = np.zeros(n)
    for m in range(n):
        acc = 0.0
        for i in range(n):
            acc += x[i] * k[(m - i) % n]
        out[m] = acc
    return out
