"""Discrete Fourier transforms on half spectra.

Conventions: the forward transform carries no scale factor and uses the
e^{-i 2 pi n k / N} kernel; the inverse carries the 1/N factor. Real windows
are represented by their half spectrum: bins 0..floor(n/2) as a complex128
array along axis 0. Conjugate symmetry of the remaining bins is structural,
so inverting a filtered half spectrum always produces a real sequence rather
than one whose imaginary residue has to be discarded by convention. The bin
count fixes n only up to parity, so `irfft` takes the window length too.

`rfft`/`irfft` are NumPy's real-input transforms along axis 0 (pocketfft,
O(n log n) for every n), whose default normalisation is the convention above.
A length with a large prime factor (`takes_bluestein`) is slow: pocketfft takes
Bluestein's chirp path, or a generic radix pass where it guesses that cheaper.
At 4,099 a column costs about twice one at the 5-smooth length 8,640
(`smooth_length`), and each call builds its chirp plan anew.
"""

from __future__ import annotations

import numpy as np


def half_length(n: int) -> int:
    """Number of half-spectrum bins for a real window of length n."""
    return n // 2 + 1


def takes_bluestein(n: int) -> bool:
    """Whether n meets pocketfft's precondition for Bluestein's path: n >= 50 and (largest prime factor)^2 > n.

    Below it pocketfft factors n into radix passes; from it on, a cost guess picks between
    Bluestein's path and one generic pass over the large prime factor.
    """
    if n < 50:
        return False
    m, largest, p = n, 1, 2
    while p * p <= m:
        while m % p == 0:
            largest, m = p, m // p
        p += 1
    return max(largest, m) ** 2 > n


def smooth_length(n: int) -> int:
    """The smallest 5-smooth length (2^a 3^b 5^c) >= n, which pocketfft factors into its fastest radices."""
    best = 1 << max(n - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            m = odd
            while m < n:
                m *= 2
            best = min(best, m)
            odd *= 3
        odd5 *= 5
    return best


def half_bin_multiplicity(n: int) -> np.ndarray:
    """How many full-spectrum bins each half-spectrum bin stands for (1 or 2)."""
    mult = np.full(half_length(n), 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    return mult


def _check_half_spectrum(half: np.ndarray, n: int) -> None:
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    if half.ndim == 0 or half.shape[0] != half_length(n):
        raise ValueError(f"expected {half_length(n)} bins for window length {n}, got shape {half.shape}")
    # Conjugate symmetry of a real window's spectrum makes these bins real.
    if np.any(half[0].imag != 0.0):
        raise ValueError("imaginary part at bin 0 must be zero for a real window")
    if n % 2 == 0 and np.any(half[n // 2].imag != 0.0):
        raise ValueError("imaginary part at the Nyquist bin must be zero for a real window")


def rfft(x) -> np.ndarray:
    """Complex half spectrum of a real window along axis 0; further axes are independent columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[0] == 0:
        raise ValueError(f"rfft expects a non-empty real array with time on axis 0, got shape {x.shape}")
    n = x.shape[0]
    # NumPy transforms a 2-D (n, columns) array several times faster than
    # the same columns laid out in more dimensions or strided.
    # NumPy's real transform returns the boundary bins with imaginary parts exactly 0.
    return np.fft.rfft(x.reshape(n, -1), axis=0).reshape((half_length(n),) + x.shape[1:])


def irfft(half, n: int) -> np.ndarray:
    """Real window of length n recovered from its half spectrum (1/n-scaled inverse).

    The bin count must match n and the boundary bins must be real: a violated
    boundary bin would ask for a non-real reconstruction, and a wrong bin
    count would otherwise be cropped or zero-padded silently.
    """
    half = np.asarray(half, dtype=np.complex128)
    _check_half_spectrum(half, n)
    x = np.fft.irfft(half.reshape(half.shape[0], -1), n=n, axis=0)
    return x.reshape((n,) + half.shape[1:])
