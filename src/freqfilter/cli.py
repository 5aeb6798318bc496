"""Command-line entry point.

Subcommands: generate, filter, baseline, train, predict, evaluate. Each option
is declared once, in its add_argument call, with its type, choices and default.
Every option with a default can also come from a flat key=value config file via
--config: the entries are parsed as flags ahead of the explicit ones, so explicit
flags win over config entries, which win over the defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .data_io import (
    CSV_BLOCK_CELLS,
    EXACT_INT_LIMIT,
    CheckpointError,
    CsvFormatError,
    SyntheticConfig,
    fit_normalization,
    generate_synthetic,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    save_csv,
)
from .filters import smooth
from .metrics import METRICS_CSV_HEADER, error_sums, metrics_csv_line, render_metrics_table, reports_from_sums
from .predictors import (
    DEFAULT_SMOOTHING_WINDOW,
    CopyLastStepPredictor,
    FilteredCopyLastStepPredictor,
    FilterPredictorState,
    RollingReport,
    iter_windows,
    rolling_evaluate,
    window_anchors,
)
from .tensor import TimeSeriesTensor, slice_window
from .training import TrainConfig, TrainingDivergedError, make_windows, train


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, yes/no, on/off or 1/0, got {text!r}")


def _parse_ratios(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated ratios, got {text!r}")
    return parts  # type: ignore[return-value]


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer seeds, got {text!r}") from None
    repeated = [seed for i, seed in enumerate(seeds) if seed in seeds[:i]]
    if repeated:  # each seed writes <checkpoint>.seed<n>; a repeat would overwrite its first run
        raise argparse.ArgumentTypeError(f"seed {repeated[0]} is repeated in {text!r}")
    return seeds


class _StoreGiven(argparse.Action):
    """Store the value and add the option's dest to namespace.given: set by a flag or a config key, not defaulted."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.dest)


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_num, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_num}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _parse_with_config(parser: argparse.ArgumentParser, argv: list[str], args: argparse.Namespace):
    """Parse again with the config entries as flags ahead of the explicit ones, which therefore win."""
    entries = _load_config_file(args.config)
    # Exact names only: argparse would take a key such as hist=6 as an abbreviation of --history.
    unknown = set(entries) - (set(vars(args)) - {"command", "func", "config", "given"})
    if unknown:
        raise ValueError(f"unknown config keys for this subcommand: {sorted(unknown)}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]
    return parser.parse_args([args.command, *flags, *argv[1:]])


def _test_region(series: TimeSeriesTensor, history: int, horizon: int, ratios) -> TimeSeriesTensor:
    ds = make_windows(series, history, horizon, ratios)
    start, stop = ds.split_ranges["test"]
    return slice_window(series, start, stop - start)


def _rolling_rows(report: RollingReport) -> list[tuple[str, str, object]]:
    """(CSV step column, table label, report) per horizon step, then the aggregate."""
    steps = [(str(i + 1), f"step {i + 1} ({report.step_minutes(i):g} min)", r) for i, r in enumerate(report.per_step)]
    return steps + [("aggregate", "aggregate", report.aggregate)]


def _print_table(rows: list[tuple[str, str, object]]) -> None:
    print(render_metrics_table([(label, r) for _, label, r in rows]))


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(
        n_nodes=args.nodes,
        n_days=args.days,
        interval_seconds=args.interval,
        gaussian_noise_std=args.noise_std,
        spike_probability=args.spike_prob,
        spike_magnitude_range=(args.spike_min, args.spike_max),
        rng_seed=args.seed,
    )
    series = generate_synthetic(cfg)
    save_csv(series, args.out)
    print(f"wrote {series.n_nodes} nodes x {series.n_steps} steps to {args.out}")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    out = TimeSeriesTensor(smooth(series.values, args.window), series.node_ids, series.interval_seconds)
    save_csv(out, args.out)
    print(f"wrote smoothed series (window {args.window}, blended) to {args.out}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    region = series if args.region == "all" else _test_region(series, args.history, args.horizon, args.split)
    mode = "rolling-predecessor" if args.rolling else "one-shot"
    print(f"evaluation region: {region.n_steps} steps, mode: {mode}")
    for name, predictor in (
        ("CopyLastStep", CopyLastStepPredictor(args.horizon)),
        (f"FilteredCopyLastStep(window={args.window})", FilteredCopyLastStepPredictor(args.horizon, args.window)),
    ):
        report = rolling_evaluate(
            predictor, region, args.history, args.horizon,
            stride=args.stride, predecessor_mode=args.rolling, mape_epsilon=args.mape_epsilon,
        )
        print(f"== {name}")
        _print_table(_rolling_rows(report))
        print()
    return 0


def _train_once(series: TimeSeriesTensor, args: argparse.Namespace, seed: int):
    ds = make_windows(series, args.history, args.horizon, args.split)
    norm = fit_normalization(series, ds.split_ranges["train"])
    state = FilterPredictorState.initialize(
        args.history, args.horizon, series.n_features, args.width, norm, seed=seed,
    )
    cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        optimizer=args.optimizer,
        seed=seed,
        # a negative patience disables early stopping
        early_stop_patience=args.patience if args.patience >= 0 else None,
    )
    log = train(state, ds, cfg)
    return state, log


def cmd_train(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    seeds = args.seeds or (args.seed,)
    finals = []
    for seed in seeds:
        state, log = _train_once(series, args, seed)
        ckpt_path = Path(args.checkpoint)
        if len(seeds) > 1:
            ckpt_path = ckpt_path.with_suffix(ckpt_path.suffix + f".seed{seed}")
        save_checkpoint(state, ckpt_path)
        log_path = Path(args.log) if args.log else ckpt_path.with_suffix(ckpt_path.suffix + ".log")
        if args.log and len(seeds) > 1:
            log_path = log_path.with_suffix(log_path.suffix + f".seed{seed}")
        log_path.write_text(log.to_text())
        final = log.final_val_loss()
        finals.append(final)
        print(f"seed {seed}: {len(log.entries) - 1} epochs, final val MAE {final:.4f} -> {ckpt_path}")
    if len(finals) > 1:
        arr = np.asarray(finals)
        print(f"val MAE over {len(finals)} seeds: mean {arr.mean():.4f} +/- {arr.std():.4f}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    state = load_checkpoint(args.checkpoint)
    series = load_csv(args.data)
    h, t = state.history, state.horizon
    anchors = window_anchors(series.n_steps, h, t, args.stride)
    forecaster = state.fold()
    node_cells = [node.replace("%", "%%") for node in _forecast_ids(series)]
    # One anchor's rows, step-major then node; each row's timestamp, predicted and actual are filled in.
    anchor_rows = "".join(f"%d,{node},{step + 1},%.6f,%.6f\n" for step in range(t) for node in node_cells)
    offsets = np.repeat(np.arange(h, h + t, dtype=np.float64), series.n_nodes)  # row timestamp - anchor
    with Path(args.out).open("w") as fh:
        fh.write(_FORECAST_HEADER + "\n")
        for block, hist, targ in iter_windows(series.values, anchors, h, t):
            preds = forecaster.predict(hist).reshape(block.size, series.n_nodes, t).transpose(0, 2, 1)
            actual = targ.reshape(block.size, series.n_nodes, t).transpose(0, 2, 1)
            for a, pred, act in zip(block, preds, actual):
                cells = np.column_stack([offsets + a, pred.ravel(), act.ravel()])
                fh.write(anchor_rows % tuple(cells.ravel().tolist()))
    print(f"wrote forecasts for {anchors.size} windows to {args.out}")
    return 0


def _forecast_ids(series: TimeSeriesTensor) -> list[str]:
    """Node ids as forecast CSV cells, quoted the way csv.writer quotes the data header."""
    cells = []
    for node in series.node_ids:
        if "\n" in node or "\r" in node:
            raise ValueError(f"node id {node!r} contains a line break, which a forecast CSV row cannot hold")
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="").writerow([node])
        cells.append(buffer.getvalue())
    return cells


def _horizon_step(text: str) -> int:
    step = int(text)
    if abs(step) > EXACT_INT_LIMIT:  # the step travels through a float64 table
        raise CsvFormatError(f"integer cell {text!r} is beyond ±2^53, where float64 skips integers")
    return step


_FORECAST_HEADER = "timestamp,node_id,horizon_step,predicted,actual"
_FORECAST_NUMBERS = (("horizon_step", _horizon_step), ("predicted", float), ("actual", float))


def _parse_forecast_rows(path: str, first_line: int, lines: list[str]) -> np.ndarray:
    """(rows, 3) horizon_step, predicted, actual, one line at a time: the first bad line raises."""
    rows = []
    for line_num, line in enumerate(lines, start=first_line):
        text = line.strip()
        parts = next(csv.reader([text])) if '"' in text else text.split(",")  # node ids may be quoted
        if len(parts) != 5:
            raise CsvFormatError(f"{path}:{line_num}: expected 5 cells, got {len(parts)}")
        row = []
        for (column, convert), cell in zip(_FORECAST_NUMBERS, parts[2:]):
            try:
                row.append(convert(cell))
            except CsvFormatError as exc:
                raise CsvFormatError(f"{path}:{line_num}: column {column!r}: {exc}") from None
            except ValueError:
                raise CsvFormatError(f"{path}:{line_num}: column {column!r}: non-numeric cell {cell!r}") from None
        rows.append(row)
    return np.array(rows)


def _parse_forecast_block(path: str, first_line: int, lines: list[str]) -> np.ndarray:
    """What _parse_forecast_rows returns, with every cell of the block split and converted at once."""
    stripped = list(map(str.strip, lines))
    if set(map(str.count, stripped, repeat(","))) == {4}:
        cells = ",".join(stripped).split(",")
        try:
            columns = [list(map(convert, cells[k::5])) for k, (_, convert) in enumerate(_FORECAST_NUMBERS, start=2)]
            return np.array(columns).T
        except ValueError:
            pass
    return _parse_forecast_rows(path, first_line, lines)  # names the first bad line


def _evaluate_forecast_csv(path: str, mape_epsilon: float) -> list[tuple[str, str, object]]:
    blocks = []
    with Path(path).open() as fh:
        header = fh.readline().strip()
        if header != _FORECAST_HEADER:
            raise CsvFormatError(f"{path}: not a forecast CSV (unexpected header {header!r})")
        first_line = 2
        while lines := list(islice(fh, CSV_BLOCK_CELLS // 5)):
            blocks.append(_parse_forecast_block(path, first_line, lines))
            first_line += len(lines)
    if not blocks:
        raise CsvFormatError(f"{path}: no forecast rows")
    table = np.concatenate(blocks)  # (rows, 3): horizon_step, predicted, actual
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        column = _FORECAST_NUMBERS[col][0]
        raise CsvFormatError(f"{path}:{row + 2}: column {column!r}: non-finite cell {float(table[row, col])}")
    labels, step_index = np.unique(table[:, 0].astype(np.int64), return_inverse=True)
    steps = [table[step_index == k] for k in range(labels.size)]
    sums = [error_sums(s[:, None, 1:2], s[:, None, 2:3], mape_epsilon) for s in steps]  # (rows, 1 step, 1 feature)
    per_step, aggregate = reports_from_sums(np.hstack(sums))
    return [(str(k), f"step {k}", r) for k, r in zip(labels, per_step)] + [("aggregate", "aggregate", aggregate)]


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.forecast:
        if args.given:
            raise ValueError(f"evaluate --forecast does not take --{args.given[0]}: it applies only to --checkpoint scoring")
        rows = _evaluate_forecast_csv(args.forecast, args.mape_epsilon)
    else:
        if not (args.checkpoint and args.data):
            raise ValueError("evaluate needs either --forecast or both --checkpoint and --data")
        state = load_checkpoint(args.checkpoint)
        series = load_csv(args.data)
        region = series if args.region == "all" else _test_region(series, state.history, state.horizon, args.split)
        report = rolling_evaluate(
            state, region, state.history, state.horizon,
            stride=args.stride, mape_epsilon=args.mape_epsilon,
        )
        rows = _rolling_rows(report)
    _print_table(rows)
    if args.csv_out:
        lines = [METRICS_CSV_HEADER, *(metrics_csv_line(step, r) for step, _, r in rows)]
        Path(args.csv_out).write_text("\n".join(lines) + "\n")
        print(f"wrote metrics CSV to {args.csv_out}")
    return 0


_DEFAULT_SPLIT = (0.7, 0.1, 0.2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqfilter",
        description="Frequency-domain denoising and short-horizon forecasting for evenly sampled series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic dataset as CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--interval", type=int, default=300)
    p.add_argument("--noise-std", type=float, default=2.0)
    p.add_argument("--spike-prob", type=float, default=0.01)
    p.add_argument("--spike-min", type=float, default=8.0)
    p.add_argument("--spike-max", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="apply the trailing moving average + blend to a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_SMOOTHING_WINDOW)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("baseline", help="rolling evaluation of the last-value baselines")
    p.add_argument("--data", required=True)
    p.add_argument("--history", type=int, default=12)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--window", type=int, default=DEFAULT_SMOOTHING_WINDOW)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--split", type=_parse_ratios, default=_DEFAULT_SPLIT)
    p.add_argument("--region", choices=("test", "all"), default="test")
    p.add_argument("--rolling", type=_parse_bool, nargs="?", const=True, default=False,
                   help="predict each step from its true predecessor instead of one-shot")
    p.add_argument("--mape-epsilon", type=float, default=1e-6)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("train", help="train the spectral-filter predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="training log path (default: <checkpoint>.log)")
    p.add_argument("--history", type=int, default=12)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--width", type=int, default=4, help="lifted channel count of the filter module")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--patience", type=int, default=5, help="early-stop patience in epochs; negative disables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list; reports mean +/- std")
    p.add_argument("--split", type=_parse_ratios, default=_DEFAULT_SPLIT)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write rolling forecasts for a CSV using a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics per horizon step from a forecast CSV or checkpoint+data")
    p.add_argument("--forecast")
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    # Checkpoint scoring only; --forecast rejects them when given.
    p.add_argument("--stride", type=int, default=1, action=_StoreGiven)
    p.add_argument("--split", type=_parse_ratios, default=_DEFAULT_SPLIT, action=_StoreGiven)
    p.add_argument("--region", choices=("test", "all"), default="test", action=_StoreGiven)
    p.add_argument("--mape-epsilon", type=float, default=1e-6)
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_evaluate, given=())

    for p in sub.choices.values():
        p.add_argument("--config", help="flat key=value config file (flags take precedence)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _parse_with_config(parser, argv, args)
        return args.func(args)
    except (ValueError, CsvFormatError, CheckpointError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
