import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqfilter.cli
import freqfilter.data_io
import freqfilter.predictors
import freqfilter.training
from freqfilter.cli import main
from freqfilter.data_io import NormStats, load_checkpoint, load_csv, save_checkpoint, save_csv
from freqfilter.predictors import (
    CopyLastStepPredictor,
    FilteredCopyLastStepPredictor,
    FilterPredictorState,
    iter_windows,
    rolling_evaluate,
    window_anchors,
)
from freqfilter.tensor import TimeSeriesTensor
from freqfilter.training import evaluate_loss, make_windows
from freqfilter.filters import smooth

from csv_blocks import blocks, no_locator


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main([
        "generate", "--out", str(path),
        "--nodes", "2", "--days", "3", "--noise-std", "1.5",
        "--spike-prob", "0.02", "--seed", "7",
    ])
    assert code == 0
    return path


def test_generate_writes_loadable_csv(small_csv):
    series = load_csv(small_csv)
    assert series.values.shape == (2, 3 * 288, 1)


def test_filter_matches_library_pipeline(tmp_path, small_csv):
    out = tmp_path / "filtered.csv"
    assert main(["filter", "--data", str(small_csv), "--out", str(out), "--window", "5"]) == 0
    raw = load_csv(small_csv)
    filtered = load_csv(out)
    expected = smooth(raw.values, 5)
    np.testing.assert_allclose(filtered.values, expected, atol=5e-7)


def test_baseline_prints_both_models(small_csv, capsys):
    assert main(["baseline", "--data", str(small_csv), "--history", "6", "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    assert "CopyLastStep" in out
    assert "FilteredCopyLastStep" in out
    assert "aggregate" in out


def test_a_60_s_series_keeps_its_interval_through_generate_and_filter(tmp_path, capsys):
    generated, smoothed = tmp_path / "i60.csv", tmp_path / "i60s.csv"
    argv = ["generate", "--out", str(generated), "--nodes", "2", "--days", "2", "--interval", "60", "--seed", "1"]
    assert main(argv) == 0
    assert main(["filter", "--data", str(generated), "--out", str(smoothed)]) == 0
    for path in (generated, smoothed):
        capsys.readouterr()
        assert main(["baseline", "--data", str(path), "--horizon", "3"]) == 0
        out = capsys.readouterr().out
        assert "step 1 (1 min)" in out and "step 3 (3 min)" in out
        assert load_csv(path).interval_seconds == 60


@pytest.mark.parametrize("setting", [["--window", "0"], ["--window", "-3"]])
def test_baseline_checks_its_predictors_before_it_prints(small_csv, capsys, setting):
    assert main(["baseline", "--data", str(small_csv), "--history", "6", "--horizon", "3", *setting]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_baseline_rolling_mode_runs(small_csv, capsys):
    assert main([
        "baseline", "--data", str(small_csv), "--history", "6", "--horizon", "3", "--rolling",
    ]) == 0
    assert "rolling-predecessor" in capsys.readouterr().out


def test_train_predict_evaluate_pipeline(tmp_path, small_csv, capsys):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "train.log"
    assert main([
        "train", "--data", str(small_csv), "--checkpoint", str(ckpt), "--log", str(log),
        "--history", "6", "--horizon", "3", "--width", "2",
        "--epochs", "2", "--batch-size", "256", "--seed", "1",
    ]) == 0
    assert ckpt.exists()
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 3  # epoch 0 plus two epochs
    assert lines[0].split()[0] == "0"

    forecast = tmp_path / "forecast.csv"
    assert main([
        "predict", "--checkpoint", str(ckpt), "--data", str(small_csv),
        "--out", str(forecast), "--stride", "24",
    ]) == 0
    header = forecast.read_text().splitlines()[0]
    assert header == "timestamp,node_id,horizon_step,predicted,actual"

    assert main(["evaluate", "--forecast", str(forecast)]) == 0
    out = capsys.readouterr().out
    assert "aggregate" in out

    csv_out = tmp_path / "metrics.csv"
    assert main([
        "evaluate", "--checkpoint", str(ckpt), "--data", str(small_csv),
        "--csv-out", str(csv_out),
    ]) == 0
    assert csv_out.read_text().startswith("horizon_step,mae,rmse,mape,n,n_masked")


def test_predict_csv_matches_unfolded_forward(tmp_path, small_csv, monkeypatch):
    h, t = 6, 3
    state = FilterPredictorState.initialize(h, t, 1, 3, NormStats([50.0], [8.0]), seed=5)
    rng = np.random.default_rng(5)
    for slot in state.parameters():
        slot.value += rng.normal(0.0, 0.2, slot.value.shape)
        slot.apply_pins()
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(state, ckpt)
    series = load_csv(small_csv)
    anchors = range(0, series.n_steps - h - t + 1, 5)
    lines = ["timestamp,node_id,horizon_step,predicted,actual\n"]
    for a in anchors:
        pred = state.forward(series.values[:, a : a + h, :])
        for step in range(t):
            ts = a + h + step
            for v, node in enumerate(series.node_ids):
                lines.append(f"{ts},{node},{step + 1},{pred[v, step, 0]:.6f},{series.values[v, ts, 0]:.6f}\n")

    monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 32)  # 16 anchors of 2 nodes: several blocks, the last one partial
    out = tmp_path / "forecast.csv"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(small_csv), "--out", str(out), "--stride", "5"]) == 0
    assert len(anchors) % 16 != 0
    assert out.read_bytes() == "".join(lines).encode()


def forecast_csv_by_rows(state, series, stride):
    """The row-at-a-time forecast writer that cmd_predict replaced, kept as its byte-for-byte oracle."""
    h, t = state.history, state.horizon
    forecaster = state.fold()
    lines = ["timestamp,node_id,horizon_step,predicted,actual\n"]
    anchors = window_anchors(series.n_steps, h, t, stride)
    for span, hist, targ in iter_windows(series.values, stride, anchors.size, h, t):
        block = anchors[span]
        preds = forecaster.predict(hist).reshape(block.size, series.n_nodes, t, -1)
        for a, pred, act in zip(block, preds, targ.reshape(preds.shape)):
            for step in range(t):
                for v, node in enumerate(series.node_ids):
                    lines.append(f"{a + h + step},{node},{step + 1},{pred[v, step, 0]:.6f},{act[v, step, 0]:.6f}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("window_block", [5, freqfilter.predictors.WINDOW_BLOCK])
def test_predict_writes_the_bytes_of_the_row_writer(tmp_path, monkeypatch, stride, window_block):
    h, t = 5, 4
    state = FilterPredictorState.initialize(h, t, 1, 2, NormStats([40.0], [15.0]), seed=2)
    rng = np.random.default_rng(2)
    for slot in state.parameters():
        slot.value += rng.normal(0.0, 0.3, slot.value.shape)
        slot.apply_pins()
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(state, ckpt)
    values = rng.normal(40.0, 15.0, (3, 90, 1))
    values[0, ::4, 0] = -1e-7  # forecasts and actuals that round to -0.000000
    data = tmp_path / "data.csv"
    save_csv(TimeSeriesTensor(values, ("n%d", "50%", "a b")), data)
    series = load_csv(data)

    monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", window_block)
    out = tmp_path / "forecast.csv"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out), "--stride", str(stride)]) == 0
    written = out.read_bytes()
    assert written == forecast_csv_by_rows(state, series, stride)
    assert b"\r" not in written


def test_predict_reads_histories_without_a_gather(tmp_path, small_csv, small_ckpt, monkeypatch):
    expected = forecast_csv_by_rows(load_checkpoint(small_ckpt), load_csv(small_csv), 5)

    def no_gather(*args):
        raise AssertionError("predict gathered windows")

    monkeypatch.setattr(freqfilter.predictors, "_gather", no_gather)
    out = tmp_path / "forecast.csv"
    assert main(["predict", "--checkpoint", str(small_ckpt), "--data", str(small_csv), "--out", str(out), "--stride", "5"]) == 0
    assert out.read_bytes() == expected


def test_every_scorer_takes_its_blocks_from_iter_windows(tmp_path, small_csv, small_ckpt, monkeypatch):
    monkeypatch.setattr(freqfilter.predictors, "WINDOW_BLOCK", 6)  # 3 anchors of 2 nodes per block
    spans = []

    def spy(*args):
        for block in iter_windows(*args):
            spans.append(block[0])
            yield block

    for module in (freqfilter.predictors, freqfilter.cli):
        monkeypatch.setattr(module, "iter_windows", spy)

    def blocks_of(n_anchors):
        return [slice(lo, lo + 3) for lo in range(0, n_anchors, 3)]

    series = load_csv(small_csv)
    state = load_checkpoint(small_ckpt)
    h, t = state.history, state.horizon
    scorers = [
        lambda: rolling_evaluate(CopyLastStepPredictor(t), series, h, t, stride=5),
        lambda: rolling_evaluate(state, series, h, t, stride=5),
        lambda: rolling_evaluate(FilteredCopyLastStepPredictor(t), series, h, t, stride=5, predecessor_mode=True),
        lambda: main(["predict", "--checkpoint", str(small_ckpt), "--data", str(small_csv),
                      "--out", str(tmp_path / "forecast.csv"), "--stride", "5"]),
    ]
    for score in scorers:
        spans.clear()
        score()
        assert spans == blocks_of(window_anchors(series.n_steps, h, t, 5).size)

    data = make_windows(series, h, t, (0.6, 0.2, 0.2))
    spans.clear()
    evaluate_loss(state, data, "val")
    assert spans == blocks_of(data.n_windows("val"))


_SCORING_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["baseline"],
        ["baseline", "--rolling"],
        ["evaluate", "--checkpoint", "{ckpt}"],
        ["evaluate", "--forecast", "{forecast}"],
    ],
    ids=["baseline", "baseline-rolling", "evaluate-checkpoint", "evaluate-forecast"],
)


@_SCORING_COMMANDS
def test_nan_mape_epsilon_is_rejected(tmp_path, small_csv, small_ckpt, capsys, argv):
    assert _run_with_mape_epsilon(tmp_path, small_csv, small_ckpt, capsys, argv, "nan") == (
        1, "error: mask_epsilon must be finite and >= 0, got nan\n"
    )


@_SCORING_COMMANDS
def test_infinite_mape_epsilon_is_rejected(tmp_path, small_csv, small_ckpt, capsys, argv):
    # inf masks every target, so MAPE would print n/a and the command would succeed.
    assert _run_with_mape_epsilon(tmp_path, small_csv, small_ckpt, capsys, argv, "inf") == (
        1, "error: mask_epsilon must be finite and >= 0, got inf\n"
    )


def _run_with_mape_epsilon(tmp_path, small_csv, small_ckpt, capsys, argv, epsilon):
    """(exit code, stderr) of argv run with --mape-epsilon epsilon on small_csv or its forecast."""
    forecast = tmp_path / "forecast.csv"
    assert main(["predict", "--checkpoint", str(small_ckpt), "--data", str(small_csv), "--out", str(forecast)]) == 0
    argv = [arg.format(ckpt=small_ckpt, forecast=forecast) for arg in argv]
    data = [] if "--forecast" in argv else ["--data", str(small_csv)]
    capsys.readouterr()
    code = main(argv + data + ["--mape-epsilon", epsilon])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--noise-std", "nan"], "gaussian_noise_std must be finite and >= 0, got nan"),
        (["--noise-std", "inf"], "gaussian_noise_std must be finite and >= 0, got inf"),
        (["--spike-min", "nan"], "spike_magnitude_range must be finite, got (nan, 25.0)"),
        (["--spike-max", "inf"], "spike_magnitude_range must be finite, got (8.0, inf)"),
    ],
)
def test_generate_rejects_non_finite_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "data.csv"
    assert main(["generate", "--out", str(out), "--nodes", "2", "--days", "1"] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_predict_rejects_bad_stride(tmp_path, small_csv, capsys, stride):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(FilterPredictorState.initialize(6, 3, 1, 2, NormStats([50.0], [8.0])), ckpt)
    out = tmp_path / "forecast.csv"
    code = main(["predict", "--checkpoint", str(ckpt), "--data", str(small_csv), "--out", str(out), "--stride", stride])
    assert code == 1
    assert "error: stride must be >= 1" in capsys.readouterr().err
    assert not out.exists()


_FORECAST_ROWS = [
    "timestamp,node_id,horizon_step,predicted,actual",
    "6,a,1,50.000000,51.000000",
    "7,a,2,50.500000,49.000000",
    "7,a,1,52.000000,53.000000",
]


@pytest.mark.parametrize(
    "line, cells, match",
    [
        (2, "6,a,one,50.0,51.0", "column 'horizon_step': non-numeric cell 'one'"),
        (3, "7,a,2,abc,49.0", "column 'predicted': non-numeric cell 'abc'"),
        (4, "7,a,1,52.0,", "column 'actual': non-numeric cell ''"),
        (2, "6,a,1,nan,51.0", "column 'predicted': non-finite cell nan"),
        (4, "7,a,1,52.0,-inf", "column 'actual': non-finite cell -inf"),
    ],
    ids=["step", "predicted", "actual-empty", "predicted-nan", "actual-inf"],
)
def test_evaluate_forecast_locates_bad_cells(tmp_path, capsys, line, cells, match):
    rows = list(_FORECAST_ROWS)
    rows[line - 1] = cells
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--forecast", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}:{line}: {match}" in err


def test_evaluate_forecast_scores_each_step(tmp_path, capsys):
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(_FORECAST_ROWS) + "\n")
    csv_out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--forecast", str(path), "--csv-out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[1:] == [
        "1,1.000000,1.000000,1.923788,2,0",
        "2,1.500000,1.500000,3.061224,1,0",
        "aggregate,1.166667,1.190238,2.302934,3,0",
    ]


def test_evaluate_forecast_peak_is_the_blocks_and_the_table(tmp_path, monkeypatch):
    rows = 24_000
    values = np.random.default_rng(6).normal(50.0, 10.0, (rows, 2))
    path = tmp_path / "forecast.csv"
    with path.open("w") as fh:
        fh.write("timestamp,node_id,horizon_step,predicted,actual\n")
        fh.writelines(f"{i // 24},n{i % 2},{i % 12 + 1},{p:.6f},{a:.6f}\n" for i, (p, a) in enumerate(values))
    # Small blocks, so the text of the block being parsed stays small beside this small file. The
    # parsed blocks and their concatenation are 2x the (rows, 3) table; grouping rows by step adds
    # an index of a third of it and one step's rows.
    monkeypatch.setattr(freqfilter.cli, "CSV_BLOCK_CELLS", 2**10)
    tracemalloc.start()
    try:
        freqfilter.cli._evaluate_forecast_csv(str(path), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = rows * 3 * 8
    assert peak <= 2.3 * table_bytes, peak / table_bytes


# Each malformed forecast CSV and its whole message, as the row-at-a-time reader gave it.
_MALFORMED_FORECASTS = [
    ("header", "time,node_id\n6,a,1,50.0,51.0\n", "{path}: not a forecast CSV (unexpected header 'time,node_id')"),
    ("no-rows", "timestamp,node_id,horizon_step,predicted,actual\n", "{path}: no forecast rows"),
    ("short-row", "timestamp,node_id,horizon_step,predicted,actual\n6,a,1,50.0\n", "{path}:2: expected 5 cells, got 4"),
    ("blank-line", "timestamp,node_id,horizon_step,predicted,actual\n6,a,1,50.0,51.0\n\n", "{path}:3: expected 5 cells, got 1"),
    # At 3 lines a block, the second block holds only blank lines.
    ("trailing-blank-lines", "\n".join(_FORECAST_ROWS) + "\n\n\n\n", "{path}:5: expected 5 cells, got 1"),
    (
        "rows-that-even-out",
        "timestamp,node_id,horizon_step,predicted,actual\n6,a,1,50.0,51.0,1\n7,2,1,50.0\n",
        "{path}:2: expected 5 cells, got 6",
    ),
    *(
        (
            f"bad-cell-line-{line}",
            "\n".join(_FORECAST_ROWS[: line - 1] + [cells] + _FORECAST_ROWS[line:]) + "\n",
            f"{{path}}:{line}: {match}",
        )
        for line, cells, match in [
            (2, "6,a,one,50.0,51.0", "column 'horizon_step': non-numeric cell 'one'"),
            (3, "7,a,2,abc,49.0", "column 'predicted': non-numeric cell 'abc'"),
            (4, "7,a,1,52.0,", "column 'actual': non-numeric cell ''"),
            (2, "6,a,1,nan,51.0", "column 'predicted': non-finite cell nan"),
            (4, "7,a,1,52.0,-inf", "column 'actual': non-finite cell -inf"),
        ]
    ),
    # Every cell is parsed before any is checked for finiteness, so a later non-numeric cell wins.
    (
        "non-numeric-after-non-finite",
        "timestamp,node_id,horizon_step,predicted,actual\n6,a,1,inf,51.0\n" + "7,a,1,50.0,51.0\n" * 9 + "8,a,x,50.0,51.0\n",
        "{path}:12: column 'horizon_step': non-numeric cell 'x'",
    ),
    (
        "late-line",
        "timestamp,node_id,horizon_step,predicted,actual\n" + "7,a,1,50.0,51.0\n" * 11 + "8,a,1,50.0\n",
        "{path}:13: expected 5 cells, got 4",
    ),
    # By CSV rules the quoted "6,a" is one cell, so the line has 4, whatever the other lines of its block hold.
    (
        "quoted-comma-short-row",
        'timestamp,node_id,horizon_step,predicted,actual\n"6,a",1,50.0,51.0\n7,a,2,50.5,49.0\n7,a,1,52.0,53.0\n',
        "{path}:2: expected 5 cells, got 4",
    ),
    (
        "quoted-comma-short-row-beside-quoted-comma",
        'timestamp,node_id,horizon_step,predicted,actual\n"6,a",1,50.0,51.0\n7,"a,b",2,50.5,49.0\n7,a,1,52.0,53.0\n',
        "{path}:2: expected 5 cells, got 4",
    ),
    # A quote left open at a line's end would run on into the next line; at 3 lines a block,
    # line 4 is a block's last line, where it would run on unseen.
    *(
        (
            f"open-quote-line-{line}",
            "\n".join(_FORECAST_ROWS[: line - 1] + ['7,a,1,52.0,"53.0'] + _FORECAST_ROWS[line:] + ["8,a,1,50.0,51.0"]) + "\n",
            f"{{path}}:{line}: a quote is left open at the end of the line",
        )
        for line in (3, 4)
    ),
]


@pytest.mark.parametrize("block_cells", [15, freqfilter.data_io.CSV_BLOCK_CELLS])
@pytest.mark.parametrize("content, message", [c[1:] for c in _MALFORMED_FORECASTS], ids=[c[0] for c in _MALFORMED_FORECASTS])
def test_malformed_forecast_keeps_its_message(tmp_path, capsys, monkeypatch, recwarn, block_cells, content, message):
    monkeypatch.setattr(freqfilter.cli, "CSV_BLOCK_CELLS", block_cells)  # 3 lines per block at 15
    path = tmp_path / "forecast.csv"
    path.write_text(content)
    assert main(["evaluate", "--forecast", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not recwarn.list  # np.loadtxt warns on a block of blank lines; the reader keeps that warning to itself


def _predict_and_score(tmp_path, name, node_ids):
    """Forecast a seeded series under these node ids and score the forecast CSV: (forecast text, metrics CSV bytes)."""
    state = FilterPredictorState.initialize(5, 3, 1, 2, NormStats([40.0], [15.0]), seed=4)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(state, ckpt)
    data, forecast, metrics = (tmp_path / f"{name}.{kind}.csv" for kind in ("data", "forecast", "metrics"))
    save_csv(TimeSeriesTensor(np.random.default_rng(4).normal(40.0, 15.0, (len(node_ids), 40, 1)), node_ids), data)
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(forecast), "--stride", "3"]) == 0
    assert main(["evaluate", "--forecast", str(forecast), "--csv-out", str(metrics)]) == 0
    return forecast.read_text(), metrics.read_bytes()


@pytest.mark.parametrize("block_cells", [15, freqfilter.data_io.CSV_BLOCK_CELLS])
def test_forecast_csv_keeps_quoted_node_ids(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(freqfilter.cli, "CSV_BLOCK_CELLS", block_cells)
    quoted_ids = ("a,b", 'q"x', '"', "50%,")
    quoted, quoted_metrics = _predict_and_score(tmp_path, "quoted", quoted_ids)
    plain, plain_metrics = _predict_and_score(tmp_path, "plain", ("n0", "n1", "n2", "n3"))
    assert quoted_metrics == plain_metrics
    rows = list(csv.reader(quoted.splitlines()))
    assert [row[1] for row in rows[1:5]] == list(quoted_ids)
    # Apart from the node id cell, every row is the row written for plain ids.
    assert [row[:1] + row[2:] for row in rows] == [row.split(",")[:1] + row.split(",")[2:] for row in plain.splitlines()]
    assert quoted.splitlines()[1].split(",", 1)[1].startswith('"a,b",1,')


def test_forecast_csv_parses_in_bulk_whatever_its_node_ids(tmp_path, monkeypatch):
    _, plain_metrics = _predict_and_score(tmp_path, "unpatched", ("n0", "n1", "n2", "n3"))
    monkeypatch.setattr(freqfilter.cli, "_locate_bad_forecast_line", no_locator)
    monkeypatch.setattr(freqfilter.data_io, "_locate_bad_row", no_locator)
    for name, node_ids in [
        ("plain", ("n0", "n1", "n2", "n3")),
        ("quoted", ('q"x', '"', "50%", "n3")),
        ("quoted-comma", ("a,b", 'q"x', '"', "50%,")),
    ]:
        _, metrics = _predict_and_score(tmp_path, name, node_ids)
        assert metrics == plain_metrics, name


_FORECAST_BLOCKS = blocks(
    st.sampled_from(["6", "a", '"a,b"', '"q""x"']),
    st.sampled_from(["a", '"a,b"', '"6,a"']),
    st.integers(-(2**53), 2**53).map(str),
    st.floats().map(repr),  # NaN and inf convert; the whole table is checked for them later
    st.floats().map(repr),
)


@settings(max_examples=300, deadline=None)
@given(_FORECAST_BLOCKS)
def test_forecast_block_converts_exactly_when_the_locator_finds_nothing(rows):
    lines = [",".join(row) + "\n" for row in rows]
    try:
        freqfilter.cli._locate_bad_forecast_line("f.csv", 2, lines)
    except freqfilter.data_io.CsvFormatError:
        expected = None
    else:
        parts = [next(csv.reader([line.strip()])) for line in lines]
        expected = np.array([[int(p[2]), float(p[3]), float(p[4])] for p in parts])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freqfilter.cli, "_locate_bad_forecast_line", no_locator)
        try:
            table = freqfilter.cli._parse_forecast_block("f.csv", 2, lines)
        except AssertionError:
            table = None
    if expected is None:
        assert table is None
    else:
        assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("node", ["a\nb", "c\rd", "e\r\nf"])
def test_predict_rejects_node_ids_with_line_breaks(tmp_path, capsys, small_ckpt, node):
    data = tmp_path / "data.csv"
    save_csv(TimeSeriesTensor(np.full((2, 20, 1), 50.0), ("ok", node)), data)
    assert load_csv(data).node_ids == ("ok", node)
    out = tmp_path / "forecast.csv"
    assert main(["predict", "--checkpoint", str(small_ckpt), "--data", str(data), "--out", str(out)]) == 1
    message = f"node id {node!r} contains a line break, which a forecast CSV row cannot hold"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("block_cells", [15, freqfilter.data_io.CSV_BLOCK_CELLS])
@pytest.mark.parametrize(
    "step",
    ["9" * 400, str(2**63), str(2**63 - 1), str(-(2**63)), str(2**53 + 1), str(-(2**53) - 1)],
    ids=["400-digits", "2^63", "2^63-1", "-2^63", "2^53+1", "-2^53-1"],
)
def test_evaluate_forecast_rejects_steps_float64_cannot_hold(tmp_path, capsys, monkeypatch, block_cells, step):
    monkeypatch.setattr(freqfilter.cli, "CSV_BLOCK_CELLS", block_cells)
    rows = list(_FORECAST_ROWS)
    rows[2] = f"7,a,{step},50.5,49.0"
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--forecast", str(path)]) == 1
    message = f"{path}:3: column 'horizon_step': integer cell {step!r} is beyond ±2^53, where float64 skips integers"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_warning_from_the_c_reader_fails_the_cell(tmp_path, capsys, monkeypatch, recwarn):
    real_loadtxt = np.loadtxt

    def numpy_1_loadtxt(lines, dtype, **kwargs):
        """np.loadtxt as NumPy 1.x ran it: an integer field took '1.0' through float, with a warning."""
        lines = list(lines)
        if np.dtype(dtype) == np.int64 or "horizon_step" in (np.dtype(dtype).names or ()):
            read = [line.replace(",1.0,", ",1,") for line in lines]
            if read != lines:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            lines = read
        return real_loadtxt(lines, dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", numpy_1_loadtxt)
    rows = list(_FORECAST_ROWS)
    rows[2] = "7,a,1.0,50.5,49.0"
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--forecast", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: column 'horizon_step': non-numeric cell '1.0'\n"
    assert not recwarn.list


@pytest.mark.parametrize("block_cells", [15, freqfilter.data_io.CSV_BLOCK_CELLS])
def test_evaluate_forecast_scores_steps_up_to_2_53(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(freqfilter.cli, "CSV_BLOCK_CELLS", block_cells)
    rows = list(_FORECAST_ROWS)
    rows[2] = f"7,a,{2**53},50.5,49.0"
    rows[3] = f"7,a,{-(2**53)},52.0,53.0"
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(rows) + "\n")
    csv_out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--forecast", str(path), "--csv-out", str(csv_out)]) == 0
    assert [line.split(",")[0] for line in csv_out.read_text().splitlines()[1:]] == [
        str(-(2**53)), "1", str(2**53), "aggregate"
    ]


@pytest.mark.parametrize(
    "flags, entries, option",
    [
        (["--stride", "1"], [], "stride"),
        (["--region", "all"], [], "region"),
        (["--split=0.7,0.1,0.2"], [], "split"),
        (["--reg", "test"], [], "region"),
        ([], ["stride=12"], "stride"),
        ([], ["mape_epsilon=0.5", "split=0.6,0.2,0.2"], "split"),
        (["--checkpoint", "missing.ckpt"], [], "checkpoint"),
        (["--data", "missing.csv"], [], "data"),
        ([], ["checkpoint=missing.ckpt"], "checkpoint"),
    ],
    ids=["stride", "region", "split", "abbreviated", "config-stride", "config-split", "checkpoint", "data", "config-checkpoint"],
)
def test_evaluate_forecast_rejects_checkpoint_options(tmp_path, capsys, flags, entries, option):
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(_FORECAST_ROWS) + "\n")
    argv = ["evaluate", "--forecast", str(path), *flags]
    if entries:
        argv += ["--config", _config(tmp_path, *entries)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: evaluate --forecast does not take --{option}: it applies only to --checkpoint scoring\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["baseline", "train", "evaluate"])
def test_nan_split_is_rejected_by_name(tmp_path, small_csv, small_ckpt, capsys, command):
    extra = {"train": ["--checkpoint", str(tmp_path / "m.ckpt")], "evaluate": ["--checkpoint", str(small_ckpt)]}
    assert main([command, "--data", str(small_csv), "--split", "nan,0.5,0.5", *extra.get(command, [])]) == 1
    assert capsys.readouterr().err == "error: split_ratios must be three non-negative numbers, got (nan, 0.5, 0.5)\n"


def test_evaluate_forecast_takes_its_own_options_from_config(tmp_path, capsys):
    path = tmp_path / "forecast.csv"
    path.write_text("\n".join(_FORECAST_ROWS) + "\n")
    assert main(["evaluate", "--forecast", str(path), "--config", _config(tmp_path, "mape_epsilon=52")]) == 0
    assert "aggregate" in capsys.readouterr().out


def test_train_with_seed_list_reports_spread(tmp_path, small_csv, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main([
        "train", "--data", str(small_csv), "--checkpoint", str(ckpt),
        "--history", "6", "--horizon", "3", "--width", "2",
        "--epochs", "1", "--batch-size", "512", "--seeds", "1,2",
    ]) == 0
    out = capsys.readouterr().out
    assert "mean" in out and "+/-" in out
    assert ckpt.with_suffix(ckpt.suffix + ".seed1").exists()
    assert ckpt.with_suffix(ckpt.suffix + ".seed2").exists()


def test_train_prints_the_val_mae_of_the_saved_parameters_after_an_early_stop(tmp_path, capsys):
    data, ckpt = tmp_path / "data.csv", tmp_path / "model.ckpt"
    assert main(["generate", "--out", str(data), "--nodes", "3", "--days", "6", "--seed", "2"]) == 0
    capsys.readouterr()
    run = ["train", "--data", str(data), "--epochs", "40", "--patience", "1", "--lr", "3e-3"]
    assert main(run + ["--checkpoint", str(ckpt), "--seeds", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    windows = make_windows(load_csv(data), 12, 12, (0.7, 0.1, 0.2))
    saved = []
    for seed, line in zip((1, 2), lines):
        path = tmp_path / f"model.ckpt.seed{seed}"
        saved.append(evaluate_loss(load_checkpoint(path), windows, "val"))
        last_epoch = (tmp_path / f"model.ckpt.seed{seed}.log").read_text().splitlines()[-1].split()
        assert float(last_epoch[2]) > saved[-1]  # stopped early: the last epoch is not the one saved
        assert line == f"seed {seed}: {last_epoch[0]} epochs, final val MAE {saved[-1]:.4f} -> {path}"
    assert lines[2] == f"val MAE over 2 seeds: mean {np.mean(saved):.4f} +/- {np.std(saved):.4f}"


def test_train_seed_list_with_a_log_path_writes_one_log_per_seed(tmp_path, small_csv):
    ckpt, log = tmp_path / "model.ckpt", tmp_path / "run.log"
    assert main([
        "train", "--data", str(small_csv), "--checkpoint", str(ckpt), "--log", str(log),
        "--history", "6", "--horizon", "3", "--width", "2",
        "--epochs", "1", "--batch-size", "512", "--seeds", "1,2",
    ]) == 0
    assert not log.exists()
    for seed in (1, 2):
        assert [line.split()[0] for line in (tmp_path / f"run.log.seed{seed}").read_text().splitlines()] == ["0", "1"]
        assert not (tmp_path / f"model.ckpt.seed{seed}.log").exists()
    assert (tmp_path / "run.log.seed1").read_text() != (tmp_path / "run.log.seed2").read_text()


def test_config_comments_and_blank_lines_are_skipped(tmp_path, small_csv):
    by_config, by_flag = tmp_path / "by_config.csv", tmp_path / "by_flag.csv"
    cfg = _config(tmp_path, "# smoothing", "", "   ", "  # indented comment", "window = 3")
    assert main(["filter", "--data", str(small_csv), "--out", str(by_config), "--config", cfg]) == 0
    assert main(["filter", "--data", str(small_csv), "--out", str(by_flag), "--window", "3"]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_config_line_without_equals_is_located(tmp_path, small_csv, capsys):
    cfg = _config(tmp_path, "# comment", "bogus line", "window=3")
    out = tmp_path / "out.csv"
    assert main(["filter", "--data", str(small_csv), "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'bogus line'\n"
    assert not out.exists()


def test_config_file_supplies_defaults_and_flags_win(tmp_path, small_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=3\n")
    out_cfg = tmp_path / "by_config.csv"
    assert main(["filter", "--data", str(small_csv), "--out", str(out_cfg), "--config", str(cfg)]) == 0
    raw = load_csv(small_csv)
    expected3 = smooth(raw.values, 3)
    np.testing.assert_allclose(load_csv(out_cfg).values, expected3, atol=5e-7)

    out_flag = tmp_path / "by_flag.csv"
    assert main([
        "filter", "--data", str(small_csv), "--out", str(out_flag),
        "--config", str(cfg), "--window", "5",
    ]) == 0
    expected5 = smooth(raw.values, 5)
    np.testing.assert_allclose(load_csv(out_flag).values, expected5, atol=5e-7)


def test_unknown_config_key_fails(tmp_path, small_csv, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n")
    out = tmp_path / "out.csv"
    assert main(["filter", "--data", str(small_csv), "--out", str(out), "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    assert main(["filter", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_requires_a_source(capsys):
    assert main(["evaluate"]) == 1
    assert "either --forecast" in capsys.readouterr().err


def test_train_width_below_features_is_a_clean_error(tmp_path, small_csv, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(small_csv), "--checkpoint", str(ckpt), "--width", "0"]) == 1
    assert capsys.readouterr().err == "error: width 0 must be >= features 1 for the identity embedding\n"
    assert not ckpt.exists()


@pytest.fixture()
def small_ckpt(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FilterPredictorState.initialize(6, 3, 1, 2, NormStats([50.0], [8.0]), seed=3), path)
    return path


def _config(tmp_path, *lines):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--split", "0.5,0.5"], "argument --split: expected three comma-separated ratios, got '0.5,0.5'"),
        (["--split", "a,b,c"], "argument --split: expected three comma-separated ratios, got 'a,b,c'"),
        (["--seeds", "1,x"], "argument --seeds: expected comma-separated integer seeds, got '1,x'"),
        (["--seeds", "1,2,01"], "argument --seeds: seed 1 is repeated in '1,2,01'"),
    ],
    ids=["split-count", "split-text", "seeds", "seeds-repeated"],
)
def test_bad_flag_values_name_the_expected_form(tmp_path, small_csv, capsys, argv, message):
    base = ["train", "--data", str(small_csv), "--checkpoint", str(tmp_path / "m.ckpt")]
    with pytest.raises(SystemExit) as exc:
        main(base + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(base + ["--config", _config(tmp_path, f"{argv[0][2:]}={argv[1]}")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bad_rolling_value_is_rejected(small_csv, capsys):
    with pytest.raises(SystemExit):
        main(["baseline", "--data", str(small_csv), "--rolling", "maybe"])
    assert "argument --rolling: expected true/false" in capsys.readouterr().err


def test_config_region_all_in_baseline(tmp_path, small_csv, capsys):
    argv = ["baseline", "--data", str(small_csv), "--history", "6", "--horizon", "3", "--stride", "24"]
    assert main(argv + ["--config", _config(tmp_path, "region=all")]) == 0
    assert "evaluation region: 864 steps" in capsys.readouterr().out


def test_config_region_all_and_csv_out_in_evaluate(tmp_path, small_csv, small_ckpt):
    by_flag = tmp_path / "flag.csv"
    argv = ["evaluate", "--checkpoint", str(small_ckpt), "--data", str(small_csv)]
    assert main(argv + ["--region", "all", "--stride", "12", "--csv-out", str(by_flag)]) == 0
    by_config = tmp_path / "config.csv"
    cfg = _config(tmp_path, "region=all", "stride=12", f"csv_out={by_config}")
    assert main(argv + ["--config", cfg]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    steps = [line.split(",")[0] for line in by_config.read_text().splitlines()]
    assert steps == ["horizon_step", "1", "2", "3", "aggregate"]


def test_config_log_path_in_train(tmp_path, small_csv):
    log = tmp_path / "from_config.log"
    ckpt = tmp_path / "model.ckpt"
    assert main([
        "train", "--data", str(small_csv), "--checkpoint", str(ckpt),
        "--config", _config(tmp_path, f"log={log}", "epochs=1", "history=6", "horizon=3", "width=2"),
    ]) == 0
    assert [line.split()[0] for line in log.read_text().splitlines()] == ["0", "1"]
    assert not ckpt.with_suffix(ckpt.suffix + ".log").exists()


@pytest.mark.parametrize(
    "entry, flags, mode",
    [
        ("rolling=true", [], "rolling-predecessor"),
        ("rolling=false", [], "one-shot"),
        ("rolling=false", ["--rolling"], "rolling-predecessor"),
        ("rolling=true", ["--rolling=off"], "one-shot"),
    ],
)
def test_config_rolling_and_flag_precedence(tmp_path, small_csv, capsys, entry, flags, mode):
    argv = ["baseline", "--data", str(small_csv), "--history", "6", "--horizon", "3", "--stride", "24"]
    assert main(argv + ["--config", _config(tmp_path, entry)] + flags) == 0
    assert f"mode: {mode}" in capsys.readouterr().out


def test_config_choice_is_checked_like_the_flag(tmp_path, small_csv, capsys):
    base = ["train", "--data", str(small_csv), "--checkpoint", str(tmp_path / "m.ckpt")]
    with pytest.raises(SystemExit):
        main(base + ["--optimizer", "rmsprop"])
    by_flag = capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(base + ["--config", _config(tmp_path, "optimizer=rmsprop")])
    assert capsys.readouterr().err == by_flag
    assert "argument --optimizer: invalid choice: 'rmsprop'" in by_flag


def test_config_key_abbreviation_is_unknown(tmp_path, small_csv, capsys):
    argv = ["baseline", "--data", str(small_csv), "--config", _config(tmp_path, "hist=6")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "unknown config keys for this subcommand: ['hist']" in captured.err
    assert captured.out == ""
