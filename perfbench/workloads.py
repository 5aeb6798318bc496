"""The benchmark's workloads: inputs made from the seed, the operations of one pass, and checks.

Every library call goes through a module attribute (`data_io.load_csv`, not a
name imported here), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from freqfilter import cli, data_io, predictors, tensor, training

HISTORY = 12
HORIZON = 12
WIDTH = 4


@dataclass
class Op:
    """One timed call into the library.

    kind groups operations for the end-to-end metrics; fn returns the work it
    completed, as a dict with any of windows, samples, bytes and rows.
    """

    name: str
    kind: str
    fn: Callable[[], dict]


class CheckFailed(Exception):
    pass


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _n_windows(series, history: int, horizon: int) -> int:
    return (series.n_steps - history - horizon + 1) * series.n_nodes


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"freqfilter {argv[0]} exited with {code}")


class Workload:
    """Inputs, operations and checks of one workload.

    Speed on a shared machine drifts within seconds, so cheap operations are
    repeated and spread over the pass: each figure then samples the whole pass
    rather than one stretch of it.
    """

    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, toy: bool):
        self.seed = seed
        self.workdir = workdir
        self.toy = toy
        self.mae_ratio = math.nan

    def setup(self) -> None:
        """Build the inputs; timed as setup_s and repeated, so it must be idempotent."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed reference values and one-off checks, run once after set-up."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


class TrainC6(Workload):
    """The acceptance criterion-6 run, in memory: train until early stop, then score."""

    name = "train-c6"
    EVAL_REPEATS = 50
    BASELINE_REPEATS = 800

    def __init__(self, seed: int, workdir: Path, toy: bool):
        super().__init__(seed, workdir, toy)
        self.test_maes: set[float] = set()
        self.checkpoints: set[str] = set()

    def setup(self) -> None:
        days = 6 if self.toy else 30
        cfg = data_io.SyntheticConfig(
            n_nodes=5, n_days=days, spike_probability=0.02, gaussian_noise_std=2.0, rng_seed=self.seed
        )
        self.series = data_io.generate_synthetic(cfg)
        self.data = training.make_windows(self.series, HISTORY, HORIZON, (0.7, 0.1, 0.2))
        self.norm = data_io.fit_normalization(self.series, self.data.split_ranges["train"])
        start, stop = self.data.split_ranges["test"]
        self.test = tensor.slice_window(self.series, start, stop - start)

    def ops(self) -> list[Op]:
        state = predictors.FilterPredictorState.initialize(HISTORY, HORIZON, 1, WIDTH, self.norm, seed=self.seed)
        n_test = _n_windows(self.test, HISTORY, HORIZON)
        copy = predictors.CopyLastStepPredictor(HORIZON)
        found = {}

        def train():
            cfg = training.TrainConfig(
                learning_rate=1e-3, epochs=50, batch_size=256, optimizer="adam",
                seed=self.seed, early_stop_patience=5,
            )
            log = training.train(state, self.data, cfg)
            samples = (len(log.entries) - 1) * self.data.n_samples("train")
            return {"samples": samples, "windows": samples}

        def evaluate():
            found["filter"] = predictors.rolling_evaluate(state, self.test, HISTORY, HORIZON)
            return {"windows": n_test}

        def baseline():
            found["copy"] = predictors.rolling_evaluate(copy, self.test, HISTORY, HORIZON)
            return {"windows": n_test}

        def checkpoint():
            path = self.workdir / "c6.ckpt"
            data_io.save_checkpoint(state, path)
            self.checkpoints.add(hashlib.sha256(path.read_bytes()).hexdigest())
            mae = found["filter"].aggregate.mae
            self.test_maes.add(mae)
            self.mae_ratio = mae / found["copy"].aggregate.mae
            _check(self.toy or self.mae_ratio <= 0.90, f"test MAE ratio {self.mae_ratio:.4f} > 0.90")
            _check(len(self.test_maes) == 1, f"test MAE differs between passes: {sorted(self.test_maes)}")
            _check(len(self.checkpoints) == 1, "checkpoint bytes differ between passes")
            return {}

        # Every baseline call runs after training, between the evaluate calls:
        # calls made before training ran faster, and with both kinds in a run
        # the median depended on how many epochs the seed's data needed.
        base = Op("rolling_evaluate.copy", "baseline", baseline)
        evaluate_op = Op("rolling_evaluate.filter", "eval", evaluate)
        return [
            Op("train", "train", train),
            *([evaluate_op] + [base] * (self.BASELINE_REPEATS // self.EVAL_REPEATS)) * self.EVAL_REPEATS,
            Op("save_checkpoint", "other", checkpoint),
        ]


class LongWindow(Workload):
    """History 4099 (prime, the chirp path), a few nodes with a fixed number of windows each."""

    name = "long-window"
    NODES = 4
    WINDOWS_PER_NODE = 4
    BASELINE_REPEATS = 1500

    def setup(self) -> None:
        self.history = 67 if self.toy else 4099
        steps = self.history + HORIZON + self.WINDOWS_PER_NODE - 1
        days = math.ceil(steps * 300 / 86400)
        series = data_io.generate_synthetic(data_io.SyntheticConfig(n_nodes=self.NODES, n_days=days, rng_seed=self.seed))
        self.region = tensor.slice_window(series, 0, steps)
        self.data = training.make_windows(self.region, self.history, HORIZON, (1.0, 0.0, 0.0))
        self.norm = data_io.fit_normalization(self.region, self.data.split_ranges["train"])

    def _fresh_state(self):
        return predictors.FilterPredictorState.initialize(self.history, HORIZON, 1, WIDTH, self.norm, seed=self.seed)

    def prepare(self) -> None:
        # Criterion 4 at n=4099: the untrained predictor is the last-value copy.
        ids = np.arange(self.data.n_samples("train"))
        histories, _ = self.data.gather("train", ids)
        forecast = self._fresh_state().predict(histories)
        worst = float(np.max(np.abs(forecast - predictors.copy_last_step(histories, HORIZON))))
        _check(worst <= 1e-9, f"untrained forecast differs from copy_last_step by {worst:.3g}")
        self.copy_mae = predictors.rolling_evaluate(
            predictors.CopyLastStepPredictor(HORIZON), self.region, self.history, HORIZON
        ).aggregate.mae

    def ops(self) -> list[Op]:
        state = self._fresh_state()
        n = _n_windows(self.region, self.history, HORIZON)
        copy = predictors.CopyLastStepPredictor(HORIZON)

        def evaluate_untrained():
            mae = predictors.rolling_evaluate(state, self.region, self.history, HORIZON).aggregate.mae
            _check(abs(mae - self.copy_mae) <= 1e-9 * self.copy_mae, f"untrained MAE {mae!r} != copy MAE {self.copy_mae!r}")
            return {"windows": n}

        def baseline():
            predictors.rolling_evaluate(copy, self.region, self.history, HORIZON)
            return {"windows": n}

        def train():
            # Adam moves every weight by about lr per step, and the readout has
            # 4099 x 4 inputs per output, so a long window needs a small lr.
            cfg = training.TrainConfig(learning_rate=1e-5, epochs=1, batch_size=8, optimizer="adam", seed=self.seed)
            log = training.train(state, self.data, cfg)
            _check(len(log.entries) == 2 and math.isfinite(log.entries[1][1]), f"one-epoch log {log.entries!r}")
            samples = self.data.n_samples("train")
            return {"samples": samples, "windows": samples}

        def evaluate_trained():
            mae = predictors.rolling_evaluate(state, self.region, self.history, HORIZON).aggregate.mae
            _check(math.isfinite(mae), f"trained MAE {mae!r}")
            self.mae_ratio = mae / self.copy_mae
            return {"windows": n}

        base = [Op("rolling_evaluate.copy", "baseline", baseline)] * (self.BASELINE_REPEATS // 5)
        trained = Op("rolling_evaluate.trained", "eval", evaluate_trained)
        return [
            *base, Op("rolling_evaluate.untrained", "eval", evaluate_untrained),
            *base, Op("train", "train", train),
            *base, trained, *base, trained, *base,
        ]


class MetrInfer(Workload):
    """A METR-LA-shaped series (207 sensors, 5-minute steps): CSV I/O, baselines, scoring, CLI predict."""

    name = "metr-infer"
    setup_repeats = 5

    def setup(self) -> None:
        nodes, days, week, day = (12, 8, 288, 96) if self.toy else (207, 119, 2016, 288)
        self.series = data_io.generate_synthetic(data_io.SyntheticConfig(n_nodes=nodes, n_days=days, rng_seed=self.seed))
        split = training.make_windows(self.series, HISTORY, HORIZON, (0.7, 0.1, 0.2))
        self.norm = data_io.fit_normalization(self.series, split.split_ranges["train"])
        start, stop = split.split_ranges["test"]
        self.test = tensor.slice_window(self.series, start, stop - start)
        self.week = tensor.slice_window(self.series, start, week)
        self.week_csv = self.workdir / "week.csv"
        data_io.save_csv(self.week, self.week_csv)
        self.day_csv = self.workdir / "day.csv"
        data_io.save_csv(tensor.slice_window(self.series, start, day), self.day_csv)

        state = predictors.FilterPredictorState.initialize(HISTORY, HORIZON, 1, WIDTH, self.norm, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        for slot in state.parameters():
            slot.value += rng.normal(0.0, 0.005, slot.value.shape)
            slot.apply_pins()
        self.checkpoint = self.workdir / "metr.ckpt"
        data_io.save_checkpoint(state, self.checkpoint)
        self.state = data_io.load_checkpoint(self.checkpoint)

    def prepare(self) -> None:
        # Warm-up: the first multi-GiB evaluate of a process maps fresh memory
        # and took 4.9 s where later ones took 2.8-3.4 s, so the timed passes
        # start warm and do not depend on how many of them fit in the budget.
        with contextlib.suppress(MemoryError):
            predictors.rolling_evaluate(self.state, self.test, HISTORY, HORIZON)
        self.copy_mae = predictors.rolling_evaluate(
            predictors.CopyLastStepPredictor(HORIZON), self.week, HISTORY, HORIZON
        ).aggregate.mae
        day = data_io.load_csv(self.day_csv)
        self.day_report = predictors.rolling_evaluate(self.state, day, HISTORY, HORIZON)
        self.forecast_rows = _n_windows(day, HISTORY, HORIZON) * HORIZON

    def ops(self) -> list[Op]:
        found = {}
        n_test = _n_windows(self.test, HISTORY, HORIZON)
        n_week = _n_windows(self.week, HISTORY, HORIZON)
        forecast_csv = self.workdir / "forecast.csv"
        metrics_csv = self.workdir / "forecast_metrics.csv"
        week_out = self.workdir / "week_out.csv"

        def load():
            loaded = data_io.load_csv(self.week_csv)
            worst = float(np.max(np.abs(loaded.values - self.week.values)))
            _check(worst <= 1e-6, f"load_csv differs from the generated values by {worst:.3g}")
            found["week"] = loaded
            return {"bytes": self.week_csv.stat().st_size}

        def baseline(predictor, predecessor_mode):
            def run():
                report = predictors.rolling_evaluate(
                    predictor, self.week, HISTORY, HORIZON, predecessor_mode=predecessor_mode
                )
                _check(math.isfinite(report.aggregate.mae), f"baseline MAE {report.aggregate.mae!r}")
                return {"windows": n_week}
            return run

        def evaluate_test():
            # The whole 6,855-step test region at once: 1.41M windows.
            report = predictors.rolling_evaluate(self.state, self.test, HISTORY, HORIZON)
            _check(math.isfinite(report.aggregate.mae), f"filter MAE {report.aggregate.mae!r}")
            return {"windows": n_test}

        def evaluate_week():
            report = predictors.rolling_evaluate(self.state, self.week, HISTORY, HORIZON)
            self.mae_ratio = report.aggregate.mae / self.copy_mae
            return {"windows": n_week}

        def predict():
            _run_cli(["predict", "--checkpoint", str(self.checkpoint), "--data", str(self.day_csv), "--out", str(forecast_csv)])
            return {"rows": self.forecast_rows, "windows": self.forecast_rows // HORIZON}

        def score():
            _run_cli(["evaluate", "--forecast", str(forecast_csv), "--csv-out", str(metrics_csv)])
            lines = metrics_csv.read_text().splitlines()[1:]
            per_step = {row.split(",")[0]: float(row.split(",")[1]) for row in lines}
            for i, ref in enumerate(self.day_report.per_step):
                got = per_step.get(str(i + 1), math.nan)
                _check(abs(got - ref.mae) <= 5e-6, f"step {i + 1}: forecast CSV MAE {got} vs library {ref.mae}")
            return {"rows": self.forecast_rows, "windows": self.forecast_rows // HORIZON}

        def save():
            data_io.save_csv(found.get("week", self.week), week_out)
            return {"bytes": week_out.stat().st_size}

        baselines = [
            Op("baseline.copy_last_step", "baseline", baseline(predictors.CopyLastStepPredictor(HORIZON), False)),
            Op("baseline.filtered_copy", "baseline", baseline(predictors.FilteredCopyLastStepPredictor(HORIZON), False)),
            Op("baseline.filtered_copy.predecessor", "baseline", baseline(predictors.FilteredCopyLastStepPredictor(HORIZON), True)),
        ]
        return [
            Op("load_csv", "load", load),
            *baselines,
            Op("rolling_evaluate.filter.test_region", "eval", evaluate_test),
            Op("rolling_evaluate.filter.week", "eval", evaluate_week),
            Op("cli.predict", "predict", predict),
            *baselines,
            Op("cli.evaluate_forecast", "score", score),
            Op("save_csv", "save", save),
        ]


WORKLOADS = {w.name: w for w in (TrainC6, MetrInfer, LongWindow)}
