"""Discrete Fourier transforms on half spectra, plus reference oracles.

Conventions: the forward transform carries no scale factor and uses the
e^{-i 2 pi n k / N} kernel; the inverse carries the 1/N factor. Real windows
are represented by their half spectrum (bins 0..floor(n/2)); conjugate
symmetry of the remaining bins is structural, so inverting a filtered half
spectrum always produces a real sequence rather than one whose imaginary
residue has to be discarded by convention.

`rfft`/`irfft` are NumPy's real-input transforms along axis 0 (pocketfft,
O(n log n) for every n), whose default normalisation is the convention
above. The O(n^2) `dft_reference`/`idft_reference` and `circular_convolve`
are independent oracles they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ComplexPlane


def dft_reference(x) -> np.ndarray:
    """Direct O(n^2) DFT of a 1-D sequence; the oracle the fast path is tested against."""
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


def half_length(n: int) -> int:
    """Number of half-spectrum bins for a real window of length n."""
    return n // 2 + 1


def half_bin_multiplicity(n: int) -> np.ndarray:
    """How many full-spectrum bins each half-spectrum bin stands for (1 or 2)."""
    mult = np.full(half_length(n), 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    return mult


@dataclass(frozen=True)
class Spectrum:
    """Half spectrum of a real window along the time axis.

    planes holds bins 0..floor(n/2) of the full transform; the imaginary
    part must vanish at bin 0 and, for even windows, at the Nyquist bin,
    which is exactly the conjugate-symmetry boundary condition of a real
    signal's spectrum.
    """

    planes: ComplexPlane
    window_length: int

    def __post_init__(self) -> None:
        n = self.window_length
        if n < 1:
            raise ValueError(f"window_length must be >= 1, got {n}")
        if self.planes.shape[0] != half_length(n):
            raise ValueError(
                f"expected {half_length(n)} bins for window length {n}, got {self.planes.shape[0]}"
            )
        _check_boundary_bins(self.planes.im, n)

    @property
    def n_half(self) -> int:
        return self.planes.shape[0]


def _check_boundary_bins(im: np.ndarray, n: int) -> None:
    if np.any(im[0] != 0.0):
        raise ValueError("imaginary part at bin 0 must be zero for a real window")
    if n % 2 == 0 and np.any(im[n // 2] != 0.0):
        raise ValueError("imaginary part at the Nyquist bin must be zero for a real window")


def rfft(x) -> Spectrum:
    """Half spectrum of a real window; 2-D input transforms each column."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] == 0:
        raise ValueError(f"rfft expects a non-empty 1-D or 2-D real array, got shape {x.shape}")
    n = x.shape[0]
    half = np.fft.rfft(x.reshape(n, -1), axis=0)
    re = np.ascontiguousarray(half.real)
    im = np.ascontiguousarray(half.imag)
    # Boundary bins of a real signal are real; zero the rounding residue so
    # the invariant is exact rather than approximate.
    im[0] = 0.0
    if n % 2 == 0:
        im[n // 2] = 0.0
    shape = (half_length(n),) if x.ndim == 1 else (half_length(n), x.shape[1])
    return Spectrum(ComplexPlane(re.reshape(shape), im.reshape(shape)), n)


def spectrum_to_full(s: Spectrum) -> np.ndarray:
    """Full complex spectrum implied by the half spectrum's conjugate symmetry."""
    half = s.planes.re + 1j * s.planes.im
    # Bins n-1 down to n//2+1 are the conjugates of bins 1 up to (n-1)//2.
    mirrored = np.conj(half[1 : (s.window_length - 1) // 2 + 1][::-1])
    return np.concatenate([half, mirrored])


def irfft(s: Spectrum) -> np.ndarray:
    """Real window recovered from a half spectrum (1/n-scaled inverse)."""
    n = s.window_length
    re = s.planes.re.reshape(s.n_half, -1)
    im = s.planes.im.reshape(s.n_half, -1)
    # Planes are not defensively copied at construction, so revalidate here:
    # a violated boundary bin would ask for a non-real reconstruction.
    _check_boundary_bins(im, n)
    x = np.fft.irfft(re + 1j * im, n=n, axis=0)
    if s.planes.re.ndim == 1:
        return np.ascontiguousarray(x[:, 0])
    return np.ascontiguousarray(x)


def circular_convolve(x, k) -> np.ndarray:
    """Cyclic convolution (x * k)[m] = sum_i x[i] k[(m - i) mod n].

    Direct O(n^2) evaluation; kept as the time-domain oracle for the
    frequency-domain kernel-multiplication path, not used in hot loops.
    """
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
