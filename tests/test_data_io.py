import csv
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfilter
import freqfilter.data_io

from freqfilter.data_io import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CsvFormatError,
    NormStats,
    SyntheticConfig,
    fit_normalization,
    generate_synthetic,
    load_checkpoint,
    load_csv,
    _Cursor,
    save_checkpoint,
    save_csv,
)
from freqfilter.predictors import FilterPredictorState
from freqfilter.tensor import TimeSeriesTensor

import synthetic_reference
from csv_blocks import blocks, no_locator

DATA = Path(__file__).parent / "data"


class TestLoadCsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "two_nodes.csv"
        path.write_text("timestamp,a,b\n0,1.5,2.5\n1,3.0,4.0\n2,5.5,6.5\n")
        t = load_csv(path)
        assert t.values.shape == (2, 3, 1)
        np.testing.assert_array_equal(t.values[0, :, 0], [1.5, 3.0, 5.5])
        assert t.node_ids == ("a", "b")
        assert t.interval_seconds == 300  # integer-index timestamps use the default

    def test_iso_timestamps_fix_the_interval(self, tmp_path):
        path = tmp_path / "iso.csv"
        path.write_text(
            "timestamp,a\n"
            "2024-01-01T00:00:00,1.0\n"
            "2024-01-01T00:05:00,2.0\n"
            "2024-01-01T00:10:00,3.0\n"
        )
        t = load_csv(path)
        assert t.interval_seconds == 300
        assert t.values.shape == (1, 3, 1)
        with pytest.raises(TypeError):  # no override: the stamps' spacing is the interval
            load_csv(path, interval_seconds=60)

    def test_naive_iso_stamps_ignore_host_timezone(self, tmp_path):
        # 5-minute stamps across the 2024-03-10 US daylight-saving change; read
        # as local time, 02:00-02:55 would not exist under a US zone.
        path = tmp_path / "dst.csv"
        rows = [f"2024-03-10T{m // 60:02d}:{m % 60:02d}:00,{m / 5:.1f}" for m in range(60, 240, 5)]
        path.write_text("timestamp,a\n" + "\n".join(rows) + "\n")
        env = dict(os.environ, TZ="PST8PDT,M3.2.0,M11.1.0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(freqfilter.__file__).resolve().parent.parent), env.get("PYTHONPATH", "")]
        )
        code = (
            "import sys; from freqfilter.data_io import load_csv; "
            "t = load_csv(sys.argv[1]); print(t.n_steps, t.interval_seconds)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(len(rows)), "300"]

    def test_aware_iso_stamps_keep_their_offsets(self, tmp_path):
        path = tmp_path / "aware.csv"
        path.write_text(
            "timestamp,a\n"
            "2024-03-10T01:50:00-08:00,1.0\n"
            "2024-03-10T01:55:00-08:00,2.0\n"
            "2024-03-10T03:00:00-07:00,3.0\n"
        )
        assert load_csv(path).interval_seconds == 300

    def test_missing_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("timestamp,a,b\n0,1.0,2.0\n1,3.0,\n")
        with pytest.raises(CsvFormatError, match="row 3.*'b'"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("timestamp,a,b\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    def test_non_monotonic_timestamps_rejected(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("timestamp,a\n0,1.0\n2,2.0\n1,3.0\n")
        with pytest.raises(CsvFormatError, match="increasing"):
            load_csv(path)

    def test_gapped_timestamps_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("timestamp,a\n0,1.0\n1,2.0\n3,3.0\n")
        with pytest.raises(CsvFormatError, match="equally spaced"):
            load_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("timestamp,a\n0,1.0\n1,nan\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    def test_mixed_timestamp_kinds_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("timestamp,a\n0,1.0\n2024-01-01T00:05:00,2.0\n")
        with pytest.raises(CsvFormatError, match="mixed"):
            load_csv(path)

    def test_empty_and_headerless_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(empty)
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("time,a\n0,1.0\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(wrong)

    @pytest.mark.parametrize(
        "header, match",
        [
            ("timestamp,a,b,a", "header column 4: duplicate node id 'a' \\(first in column 2\\)"),
            ("timestamp,a, a ", "header column 3: duplicate node id 'a'"),
            ("timestamp,a,,b", "header column 3: empty node id"),
            ("timestamp,a,b, ", "header column 4: empty node id"),
        ],
        ids=["duplicate", "duplicate-after-strip", "empty", "blank"],
    )
    def test_bad_node_ids_name_their_column(self, tmp_path, header, match):
        path = tmp_path / "ids.csv"
        n = header.count(",")
        path.write_text(header + "\n" + "0" + ",1.0" * n + "\n" + "1" + ",2.0" * n + "\n")
        with pytest.raises(CsvFormatError, match=match):
            load_csv(path)

    @pytest.mark.parametrize("spacing", ["00:00:01.500000", "00:00:00.500000"])
    def test_fractional_iso_spacing_rejected(self, tmp_path, spacing):
        seconds = float(spacing.rsplit(":", 1)[1])
        path = tmp_path / "fraction.csv"
        path.write_text(
            "timestamp,a\n"
            "2024-01-01T00:00:00,1.0\n"
            f"2024-01-01T{spacing},2.0\n"
            f"2024-01-01T00:00:{2 * seconds:09.6f},3.0\n"
        )
        with pytest.raises(CsvFormatError, match=f"spacing {seconds:g} s is not a whole number of seconds"):
            load_csv(path)

    def test_save_with_iso_start_timestamp(self, tmp_path):
        from datetime import datetime

        series = TimeSeriesTensor(np.ones((1, 4, 1)), ("a",), interval_seconds=300)
        path = tmp_path / "iso_out.csv"
        save_csv(series, path, start_timestamp=datetime(2024, 3, 1))
        lines = path.read_text().splitlines()
        assert lines[1].startswith("2024-03-01T00:00:00")
        assert lines[2].startswith("2024-03-01T00:05:00")
        assert load_csv(path).interval_seconds == 300

    def test_round_trip_preserves_numeric_content(self, tmp_path):
        rng = np.random.default_rng(0)
        series = TimeSeriesTensor(rng.uniform(0, 80, (3, 20, 1)), ("x", "y", "z"))
        first = tmp_path / "first.csv"
        save_csv(series, first)
        reloaded = load_csv(first)
        second = tmp_path / "second.csv"
        save_csv(reloaded, second)
        assert first.read_text() == second.read_text()
        np.testing.assert_allclose(reloaded.values, series.values, atol=5e-7)

    def test_peak_is_the_blocks_and_the_series(self, tmp_path, monkeypatch):
        path = tmp_path / "wide.csv"
        series = generate_synthetic(SyntheticConfig(n_nodes=300, n_days=2, rng_seed=4))
        save_csv(series, path)
        # Small blocks, so the text of the block being parsed stays small beside this small file.
        # The blocks and the series are 2x the series; node ids and stamps add about 0.1x.
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", 2**10)
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * loaded.values.nbytes, peak / loaded.values.nbytes
        np.testing.assert_allclose(loaded.values, series.values, atol=5e-7)


def save_csv_by_rows(series, path, start_timestamp=None):
    """The row-at-a-time writer that save_csv replaced, kept as its byte-for-byte oracle."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(series.node_ids))
        for t in range(series.n_steps):
            if start_timestamp is None:
                stamp = str(t)
            else:
                stamp = (start_timestamp + timedelta(seconds=t * series.interval_seconds)).isoformat()
            writer.writerow([stamp] + [f"{v:.6f}" for v in series.values[:, t, 0]])


# Each malformed input and its whole message, as the row-at-a-time reader gave it.
_MALFORMED_CSVS = [
    ("missing-cell", "timestamp,a,b\n0,1.0,2.0\n1,3.0,\n", "row 3, column 'b': non-numeric cell ''"),
    ("ragged", "timestamp,a,b\n0,1.0,2.0\n1,3.0\n", "row 3: expected 3 cells, got 2"),
    ("long-row", "timestamp,a\n0,1.0\n1,2.0,3.0\n", "row 3: expected 2 cells, got 3"),
    ("rows-that-even-out", "timestamp,a,b\n0,1.0,2.0,3\n1,4.0\n", "row 2: expected 3 cells, got 4"),
    ("non-monotonic", "timestamp,a\n0,1.0\n2,2.0\n1,3.0\n", "row 4: timestamps must be strictly increasing"),
    ("gapped", "timestamp,a\n0,1.0\n1,2.0\n3,3.0\n", "row 4: timestamps must be equally spaced"),
    ("nan", "timestamp,a\n0,1.0\n1,nan\n", "row 3, column 'a': non-finite cell 'nan'"),
    ("padded-inf", "timestamp,a\n0, inf \n", "row 2, column 'a': non-finite cell ' inf '"),
    ("mixed", "timestamp,a\n0,1.0\n2024-01-01T00:05:00,2.0\n", "{path}: mixed integer and ISO timestamps"),
    ("empty", "", "{path}: file is empty"),
    ("header", "time,a\n0,1.0\n", "{path}: header must be 'timestamp,<node>,...', got ['time', 'a']"),
    ("duplicate-id", "timestamp,a,b,a\n0,1,2,3\n", "{path}: header column 4: duplicate node id 'a' (first in column 2)"),
    ("empty-id", "timestamp,a,,b\n0,1,2,3\n", "{path}: header column 3: empty node id"),
    ("no-rows", "timestamp,a\n", "{path}: no data rows"),
    ("bad-stamp", "timestamp,a\n0,1.0\nnoon,2.0\n", "row 3: timestamp 'noon' is neither an integer index nor ISO-8601"),
    ("blank-line", "timestamp,a\n0,1.0\n\n1,2.0\n", "row 3: expected 2 cells, got 0"),
    ("trailing-blank-line", "timestamp,a\n0,1.0\n1,2.0\n\n", "row 4: expected 2 cells, got 0"),
    # At 4 cells a block, two lines: the last two blocks hold only blank lines.
    ("trailing-blank-lines", "timestamp,a\n0,1.0\n1,2.0\n\n\n\n", "row 4: expected 2 cells, got 0"),
    ("quoted-comma", 'timestamp,a\n0,"1,5"\n', "row 2, column 'a': non-numeric cell '1,5'"),
    ("underscore", "timestamp,a,b\n0, 1.5 ,2.5\n1,3.5,4_5e-1\n", "row 3, column 'b': non-numeric cell '4_5e-1'"),
    ("non-ascii-digit", "timestamp,a\n0,1.0\n1,\uff15\n", "row 3, column 'a': non-numeric cell '\uff15'"),
    ("cr-line-ends", "timestamp,a,b\r0,1.0,2.0\r1,x,2.0\r", "row 3, column 'a': non-numeric cell 'x'"),
    (
        "fractional-spacing",
        "timestamp,a\n2024-01-01T00:00:00,1.0\n2024-01-01T00:00:01.500000,2.0\n2024-01-01T00:00:03,3.0\n",
        "{path}: timestamp spacing 1.5 s is not a whole number of seconds",
    ),
    # The first error in file order wins, whatever its kind, and a row's timestamp comes before its cells.
    (
        "first-error-wins",
        "timestamp,a,b\n" + "".join(f"{t},1.0,2.0\n" for t in range(12)) + "12,1.0,bad\n13,1.0\nlate,x,2.0\n",
        "row 14, column 'b': non-numeric cell 'bad'",
    ),
    ("stamp-before-cell", "timestamp,a\n0,1.0\nlate,x\n", "row 3: timestamp 'late' is neither an integer index nor ISO-8601"),
    # A quote left open at a line's end would run on into the next line; at 4 cells a block,
    # row 3 is a block's last line, where it would run on unseen.
    ("open-quote", 'timestamp,a\n0,1.0\n1,"2.0\n2,3.0\n', "row 3: a quote is left open at the end of the line"),
    (
        "late-row",
        "timestamp,a,b\n" + "".join(f"{t},1.0,2.0\n" for t in range(15)) + "15,1e999,2.0\n",
        "row 17, column 'a': non-finite cell '1e999'",
    ),
]


_WIDE_BLOCKS = blocks(
    st.integers(-(2**53), 2**53).map(str) | st.just("2024-01-01T00:00:00"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


_LOCAL = datetime(2024, 3, 10, 1, 30)
_OFFSET = datetime(2024, 1, 1, tzinfo=timezone(timedelta(hours=-8)))


class TestCsvContract:
    """save_csv writes the bytes the row writer wrote; load_csv reads in bulk but reports like the row reader."""

    @pytest.mark.parametrize("block_cells", [3, 10, freqfilter.data_io.CSV_BLOCK_CELLS])
    # (start passed to save_csv, interval, start the row writer is given): only a 300 s series with
    # no start gets index stamps; any other interval without a start is stamped from the epoch.
    @pytest.mark.parametrize(
        "start, interval, rows_start",
        [
            (None, 300, None),
            (None, 60, datetime(1970, 1, 1)),
            (_LOCAL, 60, _LOCAL),
            (_OFFSET, 60, _OFFSET),
        ],
        ids=["index", "epoch", "iso", "iso-offset"],
    )
    def test_save_csv_writes_the_bytes_of_the_row_writer(
        self, tmp_path, monkeypatch, block_cells, start, interval, rows_start
    ):
        rng = np.random.default_rng(block_cells)
        values = rng.normal(0.0, 1.0, (4, 23, 1)) * np.array([1e-7, 1.0, 80.0, 1e12])[:, None, None]
        values[0, :3, 0] = [-4e-7, 5e-7, -0.0]  # rounds to -0.000000, a half-way case, negative zero
        node_ids = ("a", "b,c", 'say "hi"', "50%")
        series = TimeSeriesTensor(values, node_ids, interval_seconds=interval)
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", block_cells)
        save_csv(series, tmp_path / "bulk.csv", start_timestamp=start)
        save_csv_by_rows(series, tmp_path / "rows.csv", start_timestamp=rows_start)
        written = (tmp_path / "bulk.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\r\n") == 1 + series.n_steps
        reloaded = load_csv(tmp_path / "bulk.csv")
        assert reloaded.node_ids == node_ids
        assert reloaded.interval_seconds == interval
        np.testing.assert_allclose(reloaded.values, values, atol=5e-7)

    def test_round_trip_keeps_a_60_s_interval(self, tmp_path):
        series = generate_synthetic(SyntheticConfig(n_nodes=2, n_days=1, interval_seconds=60, rng_seed=4))
        save_csv(series, tmp_path / "i60.csv")
        assert (tmp_path / "i60.csv").read_text().splitlines()[1].startswith("1970-01-01T00:00:00,")
        loaded = load_csv(tmp_path / "i60.csv")
        assert loaded.interval_seconds == 60
        np.testing.assert_allclose(loaded.values, series.values, atol=5e-7)

    @pytest.mark.parametrize("start", [None, datetime(2024, 1, 1)])
    def test_a_one_step_series_off_300_s_is_refused_not_saved_at_300_s(self, tmp_path, start):
        series = TimeSeriesTensor(np.ones((1, 1, 1)), ("a",), interval_seconds=60)
        with pytest.raises(ValueError, match=r"^cannot save a one-step series at 60 s: it would load at 300 s$"):
            save_csv(series, tmp_path / "one.csv", start_timestamp=start)
        assert not (tmp_path / "one.csv").exists()

    @settings(max_examples=40, deadline=None)
    @given(
        columns=st.integers(1, 4),
        data=st.data(),
        iso=st.booleans(),
        interval=st.sampled_from([1, 60, 300, 3600]),
        block_cells=st.sampled_from([2, 9, freqfilter.data_io.CSV_BLOCK_CELLS]),
    )
    def test_round_trip_rounds_to_six_decimals(self, columns, data, iso, interval, block_cells):
        steps = data.draw(st.integers(1, 30))
        cells = data.draw(
            st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=columns * steps, max_size=columns * steps)
        )
        values = np.array(cells).reshape(columns, steps, 1)
        series = TimeSeriesTensor(values, tuple(f"n{i}" for i in range(columns)), interval_seconds=interval)
        start = datetime(2023, 12, 31, 23, 0) if iso else None
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", block_cells)
            path = Path(tmp) / "series.csv"
            if steps == 1 and interval != 300:  # one row cannot show its spacing
                with pytest.raises(ValueError, match=f"one-step series at {interval} s"):
                    save_csv(series, path, start_timestamp=start)
                assert not path.exists()
                return
            save_csv(series, path, start_timestamp=start)
            loaded = load_csv(path)
        rounded = np.array([float(f"{v:.6f}") for v in cells]).reshape(values.shape)
        assert loaded.values.tobytes() == rounded.tobytes()  # bit for bit, the sign of zero too
        assert loaded.node_ids == series.node_ids
        assert loaded.interval_seconds == interval

    @pytest.mark.parametrize("block_cells", [4, freqfilter.data_io.CSV_BLOCK_CELLS])
    @pytest.mark.parametrize("content, message", [case[1:] for case in _MALFORMED_CSVS], ids=[c[0] for c in _MALFORMED_CSVS])
    def test_malformed_input_keeps_its_message(self, tmp_path, monkeypatch, recwarn, block_cells, content, message):
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", block_cells)
        path = tmp_path / "bad.csv"
        path.write_bytes(content.encode())
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == message.format(path=path)
        assert not recwarn.list  # np.loadtxt warns on a block of blank lines; the reader keeps that warning to itself

    @pytest.mark.parametrize("block_cells", [4, freqfilter.data_io.CSV_BLOCK_CELLS])
    @pytest.mark.parametrize(
        "content",
        [
            'timestamp,"a,b",c\r\n0,"1.5", 2.5\r\n1,3.5,"4.5"\r\n',
            "timestamp,a,b\r0,1.5,2.5\r1,3.5,4.5",
            "timestamp,a,b\n0, 1.5 ,2.5\n1,3.5,4.5\n",
        ],
        ids=["quoted-cells", "cr-line-ends", "spaces"],
    )
    def test_inputs_the_row_reader_accepts_still_load(self, tmp_path, monkeypatch, block_cells, content):
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", block_cells)
        path = tmp_path / "ok.csv"
        path.write_bytes(content.encode())
        loaded = load_csv(path)
        assert loaded.values[:, :, 0].T.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_cells_padded_with_ascii_separators_load(self, tmp_path):
        # NumPy's C reader strips \x1c-\x1f as whitespace; Python's float rejected them.
        path = tmp_path / "ok.csv"
        path.write_text("timestamp,a\n0,\x1c1.5\x1f\n1,2.5\n")
        assert load_csv(path).values[0, :, 0].tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("start", [None, datetime(2024, 3, 10, 1, 30)], ids=["index", "iso"])
    def test_well_formed_files_never_reach_the_locator(self, tmp_path, monkeypatch, start):
        values = np.random.default_rng(5).normal(50.0, 10.0, (3, 40, 1))
        values[0, 0, 0] = -0.0
        node_ids = ("a,b", 'say "hi"', "50%")
        path = tmp_path / "series.csv"
        save_csv(TimeSeriesTensor(values, node_ids, interval_seconds=60), path, start_timestamp=start)
        assert path.read_bytes().startswith(b'timestamp,"a,b","say ""hi""",50%\r\n')
        monkeypatch.setattr(freqfilter.data_io, "_locate_bad_row", no_locator)
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", 10)
        loaded = load_csv(path)
        rounded = np.array([float(f"{v:.6f}") for v in values.ravel()]).reshape(values.shape)
        assert loaded.values.tobytes() == rounded.tobytes()
        assert loaded.node_ids == node_ids

    @settings(max_examples=300, deadline=None)
    @given(_WIDE_BLOCKS)
    def test_block_converts_exactly_when_the_locator_finds_nothing(self, rows):
        header = ["timestamp", "a", "b"]
        lines = [",".join(row) + "\n" for row in rows]
        try:
            freqfilter.data_io._locate_bad_row(lines, header, 2)
        except CsvFormatError:
            expected = None
        else:
            stamps = [freqfilter.data_io._parse_timestamp(row[0], 2 + i) for i, row in enumerate(rows)]
            expected = stamps, np.array([list(map(float, row[1:])) for row in rows])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(freqfilter.data_io, "_locate_bad_row", no_locator)
            try:
                got = freqfilter.data_io._parse_block(lines, header, 2)
            except AssertionError:
                got = None
        if expected is None:
            assert got is None
        else:
            assert got[0] == expected[0]
            assert got[1].tobytes() == expected[1].tobytes()


_BEYOND_2_53 = "is beyond ±2^53, where float64 skips integers"


class TestExactIntegerStamps:
    """Index stamps travel as float64, which holds every integer up to 2^53 in magnitude and skips some past it."""

    @pytest.mark.parametrize("block_cells", [4, freqfilter.data_io.CSV_BLOCK_CELLS])
    @pytest.mark.parametrize(
        "content, message",
        [
            ("timestamp,a\n0,1.0\n" + "9" * 400 + ",2.0\n", f"row 3: integer timestamp '{'9' * 400}' {_BEYOND_2_53}"),
            (
                "timestamp,a\n9007199254740992,1.0\n9007199254740993,2.0\n",
                f"row 3: integer timestamp '9007199254740993' {_BEYOND_2_53}",
            ),
            ("timestamp,a\n-9007199254740993,1.0\n", f"row 2: integer timestamp '-9007199254740993' {_BEYOND_2_53}"),
            ("timestamp,a,b\n" + "".join(f"{t},1,2\n" for t in range(9)) + " 1" + "0" * 30 + " ,1,2\n", None),
        ],
        ids=["400-digits", "2^53+1", "-2^53-1", "late-padded"],
    )
    def test_stamps_beyond_2_53_rejected(self, tmp_path, monkeypatch, block_cells, content, message):
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", block_cells)
        path = tmp_path / "big.csv"
        path.write_text(content)
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == (message or f"row 11: integer timestamp '1{'0' * 30}' {_BEYOND_2_53}")

    @pytest.mark.parametrize("block_cells", [4, freqfilter.data_io.CSV_BLOCK_CELLS])
    def test_stamps_up_to_2_53_load(self, tmp_path, monkeypatch, block_cells):
        monkeypatch.setattr(freqfilter.data_io, "CSV_BLOCK_CELLS", block_cells)
        path = tmp_path / "edge.csv"
        path.write_text("timestamp,a\n9007199254740990,1.0\n9007199254740991,2.0\n9007199254740992,3.0\n")
        assert load_csv(path).values[0, :, 0].tolist() == [1.0, 2.0, 3.0]

    def test_cli_reports_the_stamp_without_a_traceback(self, tmp_path, capsys):
        from freqfilter.cli import main

        path = tmp_path / "big.csv"
        path.write_text("timestamp,a\n0,1.0\n" + "9" * 400 + ",2.0\n")
        assert main(["filter", "--data", str(path), "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: row 3: integer timestamp '{'9' * 400}' {_BEYOND_2_53}\n"


class TestSynthetic:
    def test_same_seed_is_bitwise_identical(self):
        cfg = SyntheticConfig(n_nodes=3, n_days=2, rng_seed=42)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noiseless_output_is_the_daily_trend(self):
        # no noise and no spikes: the fixed daily trend alone, which repeats exactly every day
        cfg = SyntheticConfig(n_nodes=2, n_days=3, gaussian_noise_std=0.0, spike_probability=0.0, rng_seed=1)
        series = generate_synthetic(cfg)
        steps = cfg.steps_per_day
        x = series.values[:, :, 0]
        assert x[:, :steps].tobytes() == x[:, steps : 2 * steps].tobytes() == x[:, 2 * steps :].tobytes()

    def test_spike_count_matches_binomial_expectation(self):
        base = dict(n_nodes=1, n_days=10, gaussian_noise_std=0.0, rng_seed=123)
        clean = generate_synthetic(SyntheticConfig(spike_probability=0.0, **base))
        spiky = generate_synthetic(SyntheticConfig(spike_probability=0.01, **base))
        count = int(np.count_nonzero(clean.values != spiky.values))
        n = clean.n_steps
        expected = n * 0.01
        sigma = np.sqrt(n * 0.01 * 0.99)
        assert abs(count - expected) <= 3 * sigma

    @pytest.mark.parametrize("seed", [1, 5])
    def test_matches_the_whole_array_formula_in_a_few_copies_of_the_series(self, seed):
        cfg = SyntheticConfig(n_nodes=20, n_days=30, spike_probability=0.05, gaussian_noise_std=3.0, rng_seed=seed)
        tracemalloc.start()
        try:
            series = generate_synthetic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * series.values.nbytes

        rng = np.random.default_rng(seed)
        n, steps = cfg.n_nodes, cfg.n_steps
        # The fixed trend: base level, amplitude, rush hours at 08:00 and 17:30, their width and depth, floor.
        base = rng.uniform(48.0, 62.0, n)
        amplitude = rng.uniform(6.0, 12.0, n)
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        rush_hours = (28800.0, 63000.0)
        depths = rng.uniform(8.0, 18.0, (len(rush_hours), n))
        tod = (np.arange(steps) * cfg.interval_seconds) % 86400
        trend = base[:, None] + amplitude[:, None] * np.sin(2.0 * np.pi * tod[None, :] / 86400 + phase[:, None])
        for depth, center in zip(depths, rush_hours):
            dist = np.minimum(np.abs(tod - center), 86400 - np.abs(tod - center))
            trend -= depth[:, None] * np.exp(-(dist**2) / (2.0 * 5400.0**2))[None, :]
        noise = rng.normal(0.0, 1.0, (n, steps)) * cfg.gaussian_noise_std
        spiked = rng.random((n, steps)) < cfg.spike_probability
        magnitudes = rng.uniform(*cfg.spike_magnitude_range, (n, steps))
        signs = np.where(rng.random((n, steps)) < 0.5, -1.0, 1.0)
        expected = np.maximum(trend + noise + np.where(spiked, signs * magnitudes, 0.0), 1.0)
        assert np.count_nonzero(spiked) > 0
        assert series.values[:, :, 0].tobytes() == expected.tobytes()

    # 675 s steps make 128 steps a day, so 512 one-day nodes fill one spike-draw chunk exactly.
    @pytest.mark.parametrize(
        "settings",
        [
            dict(spike_probability=0.0),
            dict(spike_probability=0.02),
            dict(spike_probability=1.0),
            dict(n_nodes=1, n_days=40),
            dict(n_nodes=40, n_days=1),
            dict(gaussian_noise_std=0.0),
            dict(n_nodes=511, n_days=1, interval_seconds=675),
            dict(n_nodes=512, n_days=1, interval_seconds=675),
            dict(n_nodes=513, n_days=1, interval_seconds=675),
            dict(n_nodes=513, n_days=1, interval_seconds=675, spike_probability=1.0),
            dict(n_nodes=30, n_days=30, spike_probability=0.05, rng_seed=11),
        ],
    )
    def test_chunked_spike_draws_keep_the_whole_array_bits(self, settings):
        cfg = SyntheticConfig(**{"n_nodes": 6, "n_days": 3, "rng_seed": 3, **settings})
        expected = synthetic_reference.generate_synthetic(cfg).values
        assert generate_synthetic(cfg).values.tobytes() == expected.tobytes()

    def test_chunk_boundary_configs_sit_on_the_boundary(self):
        steps = SyntheticConfig(n_days=1, interval_seconds=675).n_steps
        assert 512 * steps == freqfilter.data_io.SYNTHETIC_CHUNK_VALUES

    def test_peak_is_the_series_plus_less_than_a_megabyte(self):
        # 64 x 9,216 values: 9 chunks. Beside the series: one chunk's draw (512 KiB and its 64 KiB
        # comparison), the one-day trend (147 KB) and 16 B for each of the ~5,900 spikes.
        generate_synthetic(SyntheticConfig(n_nodes=1, n_days=1))  # a first call imports NumPy modules, not the series' cost
        cfg = SyntheticConfig(n_nodes=64, n_days=32, rng_seed=2)
        tracemalloc.start()
        try:
            series = generate_synthetic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - series.values.nbytes < 1e6, peak - series.values.nbytes
        assert series.values.size > 8 * freqfilter.data_io.SYNTHETIC_CHUNK_VALUES

    def test_config_validation(self):
        with pytest.raises(ValueError, match="spike_probability"):
            SyntheticConfig(spike_probability=1.5)
        with pytest.raises(ValueError, match="interval"):
            SyntheticConfig(interval_seconds=7)
        with pytest.raises(ValueError, match="^spike_magnitude_range is inverted"):
            SyntheticConfig(spike_magnitude_range=(25.0, 8.0))

    @pytest.mark.parametrize(
        "field",
        [
            "base_level_range",
            "daily_amplitude_range",
            "rush_hour_centers",
            "rush_hour_width_seconds",
            "rush_hour_depth_range",
            "min_value",
        ],
    )
    def test_the_daily_trend_has_no_settings(self, field):
        with pytest.raises(TypeError, match=field):
            SyntheticConfig(**{field: 1.0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gaussian_noise_std", float("nan")),
            ("gaussian_noise_std", float("inf")),
            ("spike_magnitude_range", (8.0, float("inf"))),
        ],
    )
    def test_non_finite_settings_name_their_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SyntheticConfig(**{field: value})

    def test_respects_minimum_value(self):
        cfg = SyntheticConfig(
            n_nodes=2, n_days=2, gaussian_noise_std=30.0, spike_probability=0.1, rng_seed=2
        )
        series = generate_synthetic(cfg)
        assert series.values.min() == 1.0  # noise of std 30 pushes some steps below the floor


class TestNormalization:
    def test_zero_variance_feature_rejected(self):
        series = TimeSeriesTensor(np.full((2, 10, 1), 3.0), ("a", "b"))
        with pytest.raises(ValueError, match="zero variance"):
            fit_normalization(series, (0, 10))

    def test_standard_normal_feature_recovers_unit_stats(self):
        rng = np.random.default_rng(3)
        n = 10_000
        series = TimeSeriesTensor(rng.standard_normal((1, n, 1)), ("a",))
        stats = fit_normalization(series, (0, n))
        assert abs(stats.mean[0]) < 5.0 / np.sqrt(n)
        assert abs(stats.std[0] - 1.0) < 5.0 / np.sqrt(n)

    def test_apply_invert_is_identity(self):
        rng = np.random.default_rng(4)
        stats = NormStats(np.array([3.0, -2.0]), np.array([1.5, 0.25]))
        x = rng.standard_normal((5, 7, 2)) * 10
        np.testing.assert_allclose(stats.invert(stats.apply(x)), x, atol=1e-10)

    def test_stats_use_training_range_only(self):
        values = np.concatenate([np.zeros((1, 50, 1)), np.full((1, 50, 1), 100.0)], axis=1)
        values[0, :50, 0] = np.linspace(0, 1, 50)
        series = TimeSeriesTensor(values, ("a",))
        stats = fit_normalization(series, (0, 50))
        assert stats.mean[0] == pytest.approx(0.5, abs=0.01)

    def test_non_positive_std_rejected(self):
        with pytest.raises(ValueError, match="std"):
            NormStats(np.array([0.0]), np.array([0.0]))

    @pytest.mark.parametrize(
        "mean, std, message",
        [
            ([float("nan")], [1.0], "feature 0 has non-finite mean nan"),
            ([0.0], [float("inf")], "feature 0 has non-finite std inf"),
            ([0.0, float("-inf")], [1.0, 1.0], "feature 1 has non-finite mean -inf"),
            ([0.0, 0.0], [1.0, float("nan")], "feature 1 has non-finite std nan"),
        ],
    )
    def test_non_finite_stats_rejected_naming_the_feature(self, mean, std, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NormStats(mean, std)

    def test_a_predictor_cannot_be_built_to_forecast_nan(self):
        with pytest.raises(ValueError, match="non-finite std"):
            FilterPredictorState.initialize(4, 2, 1, 2, NormStats([0.0], [float("nan")]))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("features", [1, 2])
    def test_stats_of_a_window_in_one_block_are_numpys_bits(self, features, order):
        values = np.array(np.random.default_rng(features).normal(50.0, 10.0, (7, 3001, features)), order=order)
        assert values.size <= freqfilter.data_io.NORM_BLOCK_VALUES
        series = TimeSeriesTensor(values, tuple("abcdefg"))
        stats = fit_normalization(series, (13, 2990))
        window = series.values[:, 13:2990, :]  # strided
        assert stats.mean.tobytes() == window.mean(axis=(0, 1)).tobytes()
        assert stats.std.tobytes() == window.std(axis=(0, 1)).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("features", [1, 2])
    def test_stats_over_several_blocks_match_to_rounding(self, features, order, monkeypatch):
        monkeypatch.setattr(freqfilter.data_io, "NORM_BLOCK_VALUES", 2**12)  # 1 or 2 nodes a block
        values = np.array(np.random.default_rng(features).normal(50.0, 10.0, (23, 2000, features)), order=order)
        series = TimeSeriesTensor(values, tuple(f"n{i}" for i in range(23)))
        stats = fit_normalization(series, (13, 1990))
        window = series.values[:, 13:1990, :]
        assert stats.mean.tobytes() == window.mean(axis=(0, 1)).tobytes()
        deviations = window - stats.mean
        exact = [math.sqrt(math.fsum((deviations[..., f] ** 2).ravel()) / deviations[..., f].size) for f in range(features)]
        np.testing.assert_allclose(stats.std, exact, rtol=1e-15)
        if order == "F" or features == 1:
            # NumPy's own std of a C-order window with 2 features runs its innermost loop over the
            # features, so it adds values one after another, and strays up to 6e-15 from the fsum value.
            np.testing.assert_allclose(stats.std, window.std(axis=(0, 1)), rtol=1e-15)

    def test_peak_is_a_small_fraction_of_the_window(self):
        values = np.random.default_rng(5).normal(50.0, 10.0, (128, 20_000, 1))
        values.setflags(write=False)
        series = TimeSeriesTensor(values, tuple(f"n{i}" for i in range(128)))
        window_bytes = values[:, 1000:].nbytes
        tracemalloc.start()
        try:
            fit_normalization(series, (1000, 20_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The block being summed and the next one, which is made before the last is dropped.
        assert peak <= 2 * 8 * freqfilter.data_io.NORM_BLOCK_VALUES + 2**16, peak
        assert peak <= 0.25 * window_bytes, peak / window_bytes


def trained_like_state(seed=0):
    norm = NormStats(np.array([55.0]), np.array([9.0]))
    state = FilterPredictorState.initialize(12, 12, 1, 4, norm, seed=seed)
    rng = np.random.default_rng(seed)
    for slot in state.parameters():
        slot.value[...] = rng.normal(0, 0.5, slot.value.shape)
        slot.apply_pins()
    return state


class TestCheckpoints:
    def test_checkpoint_written_by_an_earlier_build_loads_and_resaves_identically(self, tmp_path):
        # checkpoint_v1.ckpt was written by the build that kept the filter's
        # layers as separate classes: history 6, horizon 3, 2 features, width 2,
        # every parameter perturbed from the identity init. Its forecasts for
        # three fixed histories were saved beside it.
        path = DATA / "checkpoint_v1.ckpt"
        state = load_checkpoint(path)
        assert (state.history, state.horizon, state.features, state.width) == (6, 3, 2, 2)
        with np.load(DATA / "checkpoint_v1_forecasts.npz") as expected:
            histories, forecasts = expected["histories"], expected["forecasts"]
        np.testing.assert_allclose(state.predict(histories), forecasts, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.forward(histories), forecasts, rtol=0, atol=1e-12)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(state, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_round_trip_predictions_bit_identical(self, tmp_path):
        state = trained_like_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(5)
        histories = rng.normal(55, 9, (4, 12, 1))
        np.testing.assert_array_equal(state.predict(histories), loaded.predict(histories))

    def test_truncated_file_reports_truncation(self, tmp_path):
        state = trained_like_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        data = path.read_bytes()
        for cut in (4, len(data) // 2, len(data) - 3):
            clipped = tmp_path / f"cut_{cut}.ckpt"
            clipped.write_bytes(data[:cut])
            with pytest.raises(CheckpointTruncatedError):
                load_checkpoint(clipped)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        state = trained_like_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        data[len(CHECKPOINT_MAGIC)] = 99  # bump the little-endian version field
        bumped = tmp_path / "future.ckpt"
        bumped.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(bumped)

    def test_trailing_bytes_rejected(self, tmp_path):
        state = trained_like_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(padded)

    def test_inconsistent_header_shape_rejected(self, tmp_path):
        state = trained_like_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        # header layout: magic, u32 version, then u32 history
        offset = len(CHECKPOINT_MAGIC) + 4
        data[offset : offset + 4] = (24).to_bytes(4, "little")
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(bytes(data))
        with pytest.raises((CheckpointShapeError, CheckpointTruncatedError)):
            load_checkpoint(broken)

    def test_huge_header_dimensions_report_truncation(self, tmp_path, monkeypatch):
        # The sizes are checked against the file before any state is built.
        def no_state(*args):
            raise AssertionError("load_checkpoint built a state for a truncated file")

        monkeypatch.setattr(FilterPredictorState, "__init__", no_state)
        header = struct.pack("<I5IB", CHECKPOINT_VERSION, 12, 12, 2**32 - 1, 2**32 - 1, 7, 1)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + header + b"\x00" * 64)
        with pytest.raises(CheckpointTruncatedError, match=r"^checkpoint truncated while reading normalization mean: "):
            load_checkpoint(path)

    def test_payload_size_of_huge_dimensions_is_counted_without_overflow(self):
        # (2**32 - 1)**2 values overflow int64; counted as such, the reader
        # would step backwards instead of reporting truncation.
        cursor = _Cursor(b"\x00" * 64)
        need = (2**32 - 1) ** 2 * 8
        message = rf"^checkpoint truncated while reading slot: need {need} bytes at offset 0, have 64$"
        with pytest.raises(CheckpointTruncatedError, match=message):
            cursor.take_array((2**32 - 1, 2**32 - 1), "slot")

    def test_history_mismatch_surfaces_at_prediction(self, tmp_path):
        state = trained_like_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        with pytest.raises(ValueError, match=r"\(12, 1\).*\(4, 24, 1\)"):
            loaded.predict(np.zeros((4, 24, 1)))

    def test_pinned_bin_violation_rejected(self, tmp_path):
        state = trained_like_state()
        state.k_im[0, 0] = 0.7  # corrupt the pinned bin
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match="pinned"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "plane",
        [
            "k_re",
            "k_im",
            "lift_weight",
            "lift_bias",
            "readout_weight",
            "readout_bias",
            "norm_mean",
            "norm_std",
            "norm_std_zero",
        ],
    )
    def test_non_finite_kernel_rejected(self, tmp_path, plane):
        state = trained_like_state()
        arrays = {  # the array and the name the error gives it
            "k_re": (state.k_re, "filter.kernel.re"),
            "k_im": (state.k_im, "filter.kernel.im"),
            "lift_weight": (state.lift_weight, "filter.lift.weight"),
            "lift_bias": (state.lift_bias, "filter.lift.bias"),
            "readout_weight": (state.readout_weight, "readout.weight"),
            "readout_bias": (state.readout_bias, "readout.bias"),
            "norm_mean": (state.norm.mean, "normalization mean"),
            "norm_std": (state.norm.std, "normalization std"),
            "norm_std_zero": (state.norm.std, "normalization std"),
        }
        bad, named = arrays[plane]
        if plane == "norm_std_zero":
            bad.flat[bad.size // 2] = 0.0
        else:
            bad.flat[bad.size // 2] = np.inf if plane.endswith(("bias", "std")) else np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match=f"^{re.escape(named)} "):
            load_checkpoint(path)

    def test_checkpoint_without_norm_stats_rejected(self, tmp_path):
        # The layout once written for a predictor without normalization: flag 0, no stats, then the payload.
        state = trained_like_state()
        path = tmp_path / "nonorm.ckpt"
        save_checkpoint(state, path)
        offset = len(CHECKPOINT_MAGIC) + 4 + 20  # magic, u32 version, five u32 dimensions, then the flag
        data = path.read_bytes()
        path.write_bytes(data[:offset] + b"\x00" + data[offset + 1 + 2 * 8 * state.features :])
        with pytest.raises(CheckpointError, match=r"^normalization flag 0 at byte offset 32 is not 1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [2, 255])
    def test_normalization_flag_other_than_1_rejected(self, tmp_path, flag):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_like_state(), path)
        data = bytearray(path.read_bytes())
        offset = len(CHECKPOINT_MAGIC) + 4 + 20  # magic, u32 version, five u32 dimensions, then the flag
        assert data[offset] == 1
        data[offset] = flag
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=rf"^normalization flag {flag} at byte offset 32 is not 1$"):
            load_checkpoint(path)

    def test_zero_history_in_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_like_state(), path)
        data = bytearray(path.read_bytes())
        offset = len(CHECKPOINT_MAGIC) + 4  # magic, u32 version, then u32 history
        data[offset : offset + 4] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointShapeError, match="^non-positive dimensions in header: history=0 horizon=12 "):
            load_checkpoint(path)
