import tracemalloc

import numpy as np
import pytest

from freqfilter.tensor import TimeSeriesTensor, slice_window


def series_from_values(values, interval=300):
    values = np.asarray(values, dtype=np.float64)
    ids = tuple(f"n{i}" for i in range(values.shape[0]))
    return TimeSeriesTensor(values, ids, interval)


class TestTimeSeriesTensor:
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_rejects_nan_and_inf_at_every_position(self, bad_value):
        for position in np.ndindex(2, 3, 2):
            bad = np.arange(12.0).reshape(2, 3, 2)
            bad[position] = bad_value
            with pytest.raises(ValueError, match="NaN or Inf"):
                series_from_values(bad)

    def test_rejects_duplicate_node_ids(self):
        with pytest.raises(ValueError, match="unique"):
            TimeSeriesTensor(np.zeros((2, 3, 1)), ("a", "a"))

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            TimeSeriesTensor(np.zeros((0, 3, 1)), ())

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            TimeSeriesTensor(np.zeros((1, 2, 1)), ("a",), interval_seconds=0)

    def test_values_are_frozen(self):
        t = series_from_values(np.ones((1, 4, 1)))
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 5.0

    def test_writeable_input_is_copied(self):
        source = np.ones((1, 4, 1))
        t = TimeSeriesTensor(source, ("a",))
        source[0, 0, 0] = 5.0
        assert t.values[0, 0, 0] == 1.0

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        source = np.ones((1, 4, 1))
        view = source[:, :, :]
        view.setflags(write=False)
        t = TimeSeriesTensor(view, ("a",))
        source[0, 0, 0] = 5.0
        assert t.values[0, 0, 0] == 1.0
        assert not np.shares_memory(t.values, source)

    def test_read_only_array_of_another_dtype_is_copied(self):
        source = np.ones((1, 4, 1), dtype=np.float32)
        source.setflags(write=False)
        t = TimeSeriesTensor(source, ("a",))
        assert t.values.dtype == np.float64 and t.values.base is None

    def test_read_only_view_of_another_dtype_is_copied(self):
        source = np.zeros((1, 4, 1), dtype=np.int64)
        source.setflags(write=False)
        t = TimeSeriesTensor(source.view(np.float64), ("a",))
        assert t.values.base is None and not np.shares_memory(t.values, source)

    def test_read_only_view_of_a_read_only_array_owning_its_data_is_adopted(self):
        source = np.array([[[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]])
        source.setflags(write=False)
        view = source[:, 2:5]
        t = TimeSeriesTensor(view, ("a",))
        assert t.values is view and t.values.base is source

    def test_read_only_array_owning_its_data_is_adopted(self):
        source = np.array([[[0.0], [1.0], [2.0], [3.0]]])
        source.setflags(write=False)
        t = TimeSeriesTensor(source, ("a",))
        assert t.values is source
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 5.0
        np.testing.assert_array_equal(t.values[0, :, 0], [0.0, 1.0, 2.0, 3.0])


class TestSliceWindow:
    def test_full_slice_is_identity(self):
        rng = np.random.default_rng(3)
        t = series_from_values(rng.standard_normal((2, 10, 1)))
        s = slice_window(t, 0, 10)
        np.testing.assert_array_equal(s.values, t.values)
        assert s.node_ids == t.node_ids
        assert s.interval_seconds == t.interval_seconds

    def test_picks_requested_indices(self):
        # value at (node, t, feature) encodes the time index
        values = np.tile(np.arange(10.0)[None, :, None], (2, 1, 1))
        t = series_from_values(values)
        s = slice_window(t, 3, 2)
        np.testing.assert_array_equal(s.values[0, :, 0], [3.0, 4.0])

    def test_concatenating_slices_reproduces_original(self):
        rng = np.random.default_rng(4)
        t = series_from_values(rng.standard_normal((3, 17, 2)))
        for k in (1, 5, 16):
            a = slice_window(t, 0, k)
            b = slice_window(t, k, t.n_steps - k)
            joined = np.concatenate([a.values, b.values], axis=1)
            np.testing.assert_array_equal(joined, t.values)

    def test_out_of_range_reports_both_ranges(self):
        t = series_from_values(np.zeros((1, 10, 1)))
        with pytest.raises(ValueError, match=r"\[8, 13\).*\[0, 10\)"):
            slice_window(t, 8, 5)

    def test_slice_is_a_view_of_its_series(self):
        t = series_from_values(np.random.default_rng(4).standard_normal((40, 8000, 1)))
        tracemalloc.start()
        try:
            s = slice_window(t, 1000, 6000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.values.base is t.values
        # The finite check's min and max read the strided view through NumPy's fixed 64 KiB buffer.
        assert peak < 2**17 < s.values.nbytes / 10, peak
        np.testing.assert_array_equal(s.values, t.values[:, 1000:7000])

    def test_slice_is_isolated_from_source(self):
        t = series_from_values(np.ones((1, 6, 1)))
        s = slice_window(t, 0, 3)
        with pytest.raises(ValueError):
            s.values[0, 0, 0] = 99.0
        np.testing.assert_array_equal(t.values, np.ones((1, 6, 1)))
