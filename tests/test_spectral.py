import numpy as np
import pytest

from freqfilter.spectral import half_bin_multiplicity, half_length, irfft, rfft, smooth_length, takes_bluestein

from spectral_reference import circular_convolve, dft_reference, idft_reference, spectrum_to_full


class TestDftReference:
    def test_unit_impulse_has_flat_spectrum(self):
        out = dft_reference([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, np.ones(4), atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        c = 2.5
        out = dft_reference([c, c, c, c])
        np.testing.assert_allclose(out, [4 * c, 0, 0, 0], atol=1e-12)

    def test_matches_trig_form_double_loop(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(7)
        n = 7
        expected = np.zeros(n, dtype=complex)
        for k in range(n):
            for t in range(n):
                angle = 2.0 * np.pi * t * k / n
                expected[k] += x[t] * (np.cos(angle) - 1j * np.sin(angle))
        np.testing.assert_allclose(dft_reference(x), expected, atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dft_reference([])


class TestIdftReference:
    def test_dc_only_gives_constant(self):
        n, c = 6, 1.75
        spec = np.zeros(n, dtype=complex)
        spec[0] = n * c
        np.testing.assert_allclose(idft_reference(spec), np.full(n, c), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(5)
        back = idft_reference(dft_reference(x))
        np.testing.assert_allclose(back.real, x, atol=1e-10)
        np.testing.assert_allclose(back.imag, np.zeros(5), atol=1e-10)

    def test_zeros_map_to_zeros(self):
        np.testing.assert_array_equal(idft_reference(np.zeros(4, dtype=complex)), np.zeros(4))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            idft_reference([])


class TestRfft:
    def test_impulse(self):
        s = rfft([1.0, 0.0, 0.0, 0.0])
        assert s.shape == (3,)
        assert s.dtype == np.complex128
        np.testing.assert_allclose(s.real, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(s.imag, np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("n", list(range(1, 18)) + [31, 32, 67, 97, 100, 127, 288, 1031])
    def test_matches_reference_bins(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            x = rng.standard_normal(n)
            ref = dft_reference(x)[: half_length(n)]
            got = rfft(x)
            np.testing.assert_allclose(got, ref, atol=1e-9 * n)

    def test_pure_sine_concentrates_at_its_bin(self):
        n, k = 16, 3
        t = np.arange(n)
        x = np.sin(2.0 * np.pi * k * t / n)
        mags = np.abs(rfft(x))
        assert mags[k] == pytest.approx(n / 2, abs=1e-9)
        others = np.delete(mags, k)
        assert np.max(others) < 1e-9

    def test_boundary_bins_exactly_real(self):
        rng = np.random.default_rng(12)
        for n in (2, 8, 9, 12):
            s = rfft(rng.standard_normal(n))
            assert s.imag[0] == 0.0
            if n % 2 == 0:
                assert s.imag[-1] == 0.0
        # rfft relies on NumPy for these zeros in every column; a -0.0 would also change downstream bits.
        for columns in ((), (3,), (48,), (4, 3)):
            for n in (1, 7, 288, 1031, 2016, 4096, 4099):
                scale = rng.choice([1e-6, 1.0, 1e6], (n, *columns))
                s = rfft(rng.standard_normal((n, *columns)) * scale)
                boundary = s.imag[[0, n // 2] if n % 2 == 0 else [0]]
                assert np.all(boundary == 0.0)
                assert not np.any(np.signbit(boundary))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            rfft(np.zeros(0))

    def test_two_dimensional_input_transforms_columns(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((12, 3))
        s = rfft(x)
        for c in range(3):
            col = rfft(x[:, c])
            np.testing.assert_allclose(s.real[:, c], col.real, atol=1e-12)
            np.testing.assert_allclose(s.imag[:, c], col.imag, atol=1e-12)


class TestIrfft:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 100, 2016, 4099])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(irfft(rfft(x), n), x, atol=1e-9)

    def test_dc_only_spectrum_gives_constant(self):
        n, c = 8, 3.25
        half = np.zeros(half_length(n), dtype=np.complex128)
        half[0] = n * c
        np.testing.assert_allclose(irfft(half, n), np.full(n, c), atol=1e-12)

    def test_zero_spectrum_gives_zero(self):
        n = 5
        half = np.zeros(half_length(n), dtype=np.complex128)
        np.testing.assert_array_equal(irfft(half, n), np.zeros(n))

    def test_violated_boundary_bin_rejected_at_construction(self):
        n = 4
        half = np.zeros(half_length(n), dtype=np.complex128)
        half[0] = 0.5j
        with pytest.raises(ValueError, match="bin 0"):
            irfft(half, n)

    def test_violated_nyquist_bin_rejected(self):
        n = 4
        half = np.zeros(half_length(n), dtype=np.complex128)
        half[-1] = 0.5j
        with pytest.raises(ValueError, match="Nyquist"):
            irfft(half, n)

    def test_mutated_planes_rejected_by_irfft(self):
        s = rfft(np.arange(4.0))
        s.imag[0] = 1.0
        with pytest.raises(ValueError, match="bin 0"):
            irfft(s, 4)

    @pytest.mark.parametrize("n, bins", [(8, 4), (8, 6), (7, 5), (1, 2)])
    def test_wrong_bin_count_rejected(self, n, bins):
        with pytest.raises(ValueError, match=f"expected {half_length(n)} bins for window length {n}"):
            irfft(np.zeros(bins, dtype=np.complex128), n)

    def test_non_positive_window_length_rejected(self):
        with pytest.raises(ValueError, match="window length must be >= 1"):
            irfft(np.zeros(1, dtype=np.complex128), 0)

    def test_batched_columns_round_trip(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((12, 3, 4))
        s = rfft(x)
        assert s.shape == (half_length(12), 3, 4)
        np.testing.assert_allclose(s[:, 1, 2], rfft(x[:, 1, 2]), atol=1e-12)
        np.testing.assert_allclose(irfft(s, 12), x, atol=1e-12)


class TestCircularConvolve:
    def test_identity_with_unit_impulse(self):
        x = np.array([3.0, -1.0, 2.0, 5.0])
        delta = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(circular_convolve(x, delta), x, atol=1e-12)

    def test_shifted_impulse_cycles_the_input(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        for shift in range(4):
            k = np.zeros(4)
            k[shift] = 1.0
            expected = np.roll(x, shift)
            np.testing.assert_allclose(circular_convolve(x, k), expected, atol=1e-12)

    def test_agrees_with_frequency_domain_product(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(8)
        k = rng.standard_normal(8)
        via_fft = irfft(rfft(x) * rfft(k), 8)
        np.testing.assert_allclose(circular_convolve(x, k), via_fft, atol=1e-8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3.*4"):
            circular_convolve(np.zeros(3), np.zeros(4))


class TestSpectralProperties:
    def test_linearity(self):
        rng = np.random.default_rng(15)
        n = 16
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        alpha, beta = 1.7, -0.4
        combined = rfft(alpha * x + beta * y)
        sx, sy = rfft(x), rfft(y)
        np.testing.assert_allclose(
            combined.real, alpha * sx.real + beta * sy.real, atol=1e-9
        )
        np.testing.assert_allclose(
            combined.imag, alpha * sx.imag + beta * sy.imag, atol=1e-9
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 32])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 100)
        x = rng.standard_normal(n)
        full = spectrum_to_full(rfft(x), n)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(full) ** 2)) / n
        assert freq_energy == pytest.approx(time_energy, rel=1e-8)

    def test_half_bin_multiplicity_matches_full_expansion(self):
        for n in range(1, 12):
            mult = half_bin_multiplicity(n)
            assert mult.sum() == n

    @pytest.mark.parametrize("n", list(range(1, 33)))
    def test_convolution_theorem(self, n):
        rng = np.random.default_rng(n + 200)
        x = rng.standard_normal(n)
        k = rng.standard_normal(n)
        via_fft = irfft(rfft(x) * rfft(k), n)
        np.testing.assert_allclose(circular_convolve(x, k), via_fft, atol=1e-8)


class TestTransformLengths:
    def test_smooth_length_is_the_next_5_smooth_integer(self):
        def is_smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 3000):
            got = smooth_length(n)
            assert got >= n and is_smooth(got)
            assert not any(is_smooth(m) for m in range(n, got))
        assert smooth_length(2 * 4099 - 1) == 8640

    def test_bluestein_rule_is_a_large_prime_factor_from_50_on(self):
        def largest_prime_factor(n):
            return max(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))

        for n in range(1, 400):
            assert takes_bluestein(n) == (n >= 50 and largest_prime_factor(n) ** 2 > n), n
