import freqfilter


def test_every_export_resolves_once():
    names = freqfilter.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(freqfilter, name)]
    assert missing == []


def test_spectral_oracles_live_in_the_tests():
    oracles = {"dft_reference", "idft_reference", "circular_convolve", "spectrum_to_full"}
    assert oracles.isdisjoint(freqfilter.__all__)
    assert not any(hasattr(freqfilter.spectral, name) for name in oracles)
