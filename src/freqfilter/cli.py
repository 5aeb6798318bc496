"""Command-line entry point.

Subcommands: generate, filter, baseline, train, predict, evaluate. Every
option can also come from a flat key=value config file via --config; explicit
flags win over config entries, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data_io import (
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
from .filters import blend_with_original, moving_average
from .metrics import METRICS_CSV_HEADER, error_sums, metrics_csv_line, render_metrics_table, reports_from_sums
from .predictors import (
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
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated ratios, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


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


_CONVERTERS = {
    "nodes": int, "days": int, "interval": int, "seed": int, "epochs": int,
    "batch_size": int, "history": int, "horizon": int, "width": int,
    "window": int, "stride": int, "patience": int,
    "noise_std": float, "spike_prob": float, "spike_min": float, "spike_max": float,
    "lr": float, "mape_epsilon": float,
    "rolling": _parse_bool,
    "split": _parse_ratios,
    "seeds": _parse_seeds,
}


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flags > config file entries > defaults."""
    config = _load_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        explicit = getattr(args, key, None)
        if explicit is not None:
            resolved[key] = explicit
        elif key in config:
            converter = _CONVERTERS.get(key, str)
            resolved[key] = converter(config[key])
        else:
            resolved[key] = default
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys for this subcommand: {sorted(unknown)}")
    return resolved


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file (flags take precedence)")


def _test_region(series: TimeSeriesTensor, history: int, horizon: int, ratios) -> TimeSeriesTensor:
    ds = make_windows(series, history, horizon, ratios)
    start, stop = ds.split_ranges["test"]
    return slice_window(series, start, stop - start)


def _rolling_rows(report: RollingReport) -> list[tuple[str, object]]:
    steps = [(f"step {i + 1} ({report.step_minutes(i):g} min)", r) for i, r in enumerate(report.per_step)]
    return steps + [("aggregate", report.aggregate)]


def _print_rolling(name: str, report: RollingReport) -> None:
    print(f"== {name}")
    print(render_metrics_table(_rolling_rows(report)))
    print()


def cmd_generate(args: argparse.Namespace) -> int:
    opts = _resolve(args, {
        "nodes": 5, "days": 30, "interval": 300, "noise_std": 2.0,
        "spike_prob": 0.01, "spike_min": 8.0, "spike_max": 25.0, "seed": 0,
    })
    cfg = SyntheticConfig(
        n_nodes=opts["nodes"],
        n_days=opts["days"],
        interval_seconds=opts["interval"],
        gaussian_noise_std=opts["noise_std"],
        spike_probability=opts["spike_prob"],
        spike_magnitude_range=(opts["spike_min"], opts["spike_max"]),
        rng_seed=opts["seed"],
    )
    series = generate_synthetic(cfg)
    save_csv(series, args.out)
    print(f"wrote {series.n_nodes} nodes x {series.n_steps} steps to {args.out}")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    opts = _resolve(args, {"window": 5})
    series = load_csv(args.data)
    smoothed = moving_average(series.values, opts["window"], time_axis=1)
    blended = blend_with_original(series.values, smoothed)
    out = TimeSeriesTensor(blended, series.node_ids, series.interval_seconds)
    save_csv(out, args.out)
    print(f"wrote smoothed series (window {opts['window']}, blended) to {args.out}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    opts = _resolve(args, {
        "history": 12, "horizon": 12, "window": 5, "stride": 1,
        "split": (0.7, 0.1, 0.2), "rolling": False, "mape_epsilon": 1e-6,
    })
    series = load_csv(args.data)
    region = series if args.region == "all" else _test_region(series, opts["history"], opts["horizon"], opts["split"])
    mode = "rolling-predecessor" if opts["rolling"] else "one-shot"
    print(f"evaluation region: {region.n_steps} steps, mode: {mode}")
    for name, predictor in (
        ("CopyLastStep", CopyLastStepPredictor(opts["horizon"])),
        (f"FilteredCopyLastStep(window={opts['window']})", FilteredCopyLastStepPredictor(opts["horizon"], opts["window"])),
    ):
        report = rolling_evaluate(
            predictor, region, opts["history"], opts["horizon"],
            stride=opts["stride"], predecessor_mode=opts["rolling"], mape_epsilon=opts["mape_epsilon"],
        )
        _print_rolling(name, report)
    return 0


def _train_once(series: TimeSeriesTensor, opts: dict, seed: int):
    ds = make_windows(series, opts["history"], opts["horizon"], opts["split"])
    norm = fit_normalization(series, ds.split_ranges["train"])
    state = FilterPredictorState.initialize(
        opts["history"], opts["horizon"], series.n_features, opts["width"], norm, seed=seed,
    )
    cfg = TrainConfig(
        learning_rate=opts["lr"],
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        optimizer=opts["optimizer"],
        seed=seed,
        # a negative patience disables early stopping
        early_stop_patience=opts["patience"] if opts["patience"] >= 0 else None,
    )
    log = train(state, ds, cfg)
    return state, log


def cmd_train(args: argparse.Namespace) -> int:
    opts = _resolve(args, {
        "history": 12, "horizon": 12, "width": 4, "lr": 1e-3, "epochs": 50,
        "batch_size": 128, "optimizer": "adam", "patience": 5, "seed": 0,
        "seeds": None, "split": (0.7, 0.1, 0.2),
    })
    series = load_csv(args.data)
    seeds = opts["seeds"] if opts["seeds"] else (opts["seed"],)
    finals = []
    for seed in seeds:
        state, log = _train_once(series, opts, seed)
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
    opts = _resolve(args, {"stride": 1})
    state = load_checkpoint(args.checkpoint)
    series = load_csv(args.data)
    h, t = state.history, state.horizon
    anchors = window_anchors(series.n_steps, h, t, opts["stride"])
    forecaster = state.fold()
    with Path(args.out).open("w") as fh:
        fh.write("timestamp,node_id,horizon_step,predicted,actual\n")
        for block, hist, targ in iter_windows(series.values, anchors, h, t):
            preds = forecaster.predict(hist).reshape(block.size, series.n_nodes, t, -1)
            for a, pred, act in zip(block, preds, targ.reshape(preds.shape)):
                for step in range(t):
                    for v, node in enumerate(series.node_ids):
                        fh.write(f"{a + h + step},{node},{step + 1},{pred[v, step, 0]:.6f},{act[v, step, 0]:.6f}\n")
    print(f"wrote forecasts for {anchors.size} windows to {args.out}")
    return 0


_FORECAST_NUMBERS = (("horizon_step", int), ("predicted", float), ("actual", float))


def _evaluate_forecast_csv(path: str, mape_epsilon: float) -> list[tuple[str, object]]:
    rows = []
    with Path(path).open() as fh:
        header = fh.readline().strip()
        if header != "timestamp,node_id,horizon_step,predicted,actual":
            raise CsvFormatError(f"{path}: not a forecast CSV (unexpected header {header!r})")
        for line_num, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 5:
                raise CsvFormatError(f"{path}:{line_num}: expected 5 cells, got {len(parts)}")
            try:
                rows.append((int(parts[2]), float(parts[3]), float(parts[4])))
            except ValueError:
                for (column, convert), text in zip(_FORECAST_NUMBERS, parts[2:]):
                    try:
                        convert(text)
                    except ValueError:
                        raise CsvFormatError(f"{path}:{line_num}: column {column!r}: non-numeric cell {text!r}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no forecast rows")
    table = np.array(rows)  # (rows, 3): horizon_step, predicted, actual
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        column = _FORECAST_NUMBERS[col][0]
        raise CsvFormatError(f"{path}:{row + 2}: column {column!r}: non-finite cell {float(table[row, col])}")
    labels, step_index = np.unique(table[:, 0].astype(np.int64), return_inverse=True)
    steps = [table[step_index == k] for k in range(labels.size)]
    per_step, aggregate = reports_from_sums(np.hstack([error_sums(s[:, 1:2], s[:, 2:3], mape_epsilon) for s in steps]))
    return [(f"step {label}", r) for label, r in zip(labels, per_step)] + [("aggregate", aggregate)]


def cmd_evaluate(args: argparse.Namespace) -> int:
    opts = _resolve(args, {
        "stride": 1, "split": (0.7, 0.1, 0.2), "mape_epsilon": 1e-6,
    })
    if args.forecast:
        rows = _evaluate_forecast_csv(args.forecast, opts["mape_epsilon"])
    else:
        if not (args.checkpoint and args.data):
            raise ValueError("evaluate needs either --forecast or both --checkpoint and --data")
        state = load_checkpoint(args.checkpoint)
        series = load_csv(args.data)
        region = series if args.region == "all" else _test_region(series, state.history, state.horizon, opts["split"])
        report = rolling_evaluate(
            state, region, state.history, state.horizon,
            stride=opts["stride"], mape_epsilon=opts["mape_epsilon"],
        )
        rows = _rolling_rows(report)
    print(render_metrics_table(rows))
    if args.csv_out:
        lines = [METRICS_CSV_HEADER]
        for label, r in rows:
            step = label.split()[1].rstrip(")") if label.startswith("step") else label
            lines.append(metrics_csv_line(step, r))
        Path(args.csv_out).write_text("\n".join(lines) + "\n")
        print(f"wrote metrics CSV to {args.csv_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqfilter",
        description="Frequency-domain denoising and short-horizon forecasting for evenly sampled series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic dataset as CSV")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--interval", type=int)
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--spike-prob", type=float, dest="spike_prob")
    p.add_argument("--spike-min", type=float, dest="spike_min")
    p.add_argument("--spike-max", type=float, dest="spike_max")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("filter", help="apply the trailing moving average + blend to a CSV")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("baseline", help="rolling evaluation of the last-value baselines")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--history", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--split", type=_parse_ratios)
    p.add_argument("--region", choices=("test", "all"), default="test")
    p.add_argument("--rolling", action="store_const", const=True, default=None,
                   help="predict each step from its true predecessor instead of one-shot")
    p.add_argument("--mape-epsilon", type=float, dest="mape_epsilon")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("train", help="train the spectral-filter predictor")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="training log path (default: <checkpoint>.log)")
    p.add_argument("--history", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--width", type=int, help="lifted channel count of the filter module")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--patience", type=int, help="early-stop patience in epochs; negative disables")
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list; reports mean +/- std")
    p.add_argument("--split", type=_parse_ratios)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write rolling forecasts for a CSV using a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics per horizon step from a forecast CSV or checkpoint+data")
    _add_common(p)
    p.add_argument("--forecast")
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--stride", type=int)
    p.add_argument("--split", type=_parse_ratios)
    p.add_argument("--region", choices=("test", "all"), default="test")
    p.add_argument("--mape-epsilon", type=float, dest="mape_epsilon")
    p.add_argument("--csv-out", dest="csv_out")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CsvFormatError, CheckpointError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
