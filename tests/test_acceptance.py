"""Acceptance suite: every release criterion with its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion as it completes.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import freqfilter as ff
import freqfilter.training
from freqfilter.spectral import half_length

from numgrad import central_difference, max_relative_error
from spectral_reference import circular_convolve, dft_reference

METR_LA_CSV = os.environ.get("METR_LA_CSV", "data/metr_la.csv")


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bench_series():
    cfg = ff.SyntheticConfig(
        n_nodes=5,
        n_days=30,
        spike_probability=0.02,
        gaussian_noise_std=2.0,
        rng_seed=42,
    )
    return ff.generate_synthetic(cfg)


def _train_benchmark_model(series):
    ds = ff.make_windows(series, 12, 12, (0.7, 0.1, 0.2))
    norm = ff.fit_normalization(series, ds.split_ranges["train"])
    state = ff.FilterPredictorState.initialize(12, 12, series.n_features, 4, norm, seed=42)
    cfg = ff.TrainConfig(
        learning_rate=1e-3,
        epochs=50,
        batch_size=256,
        optimizer="adam",
        seed=42,
        early_stop_patience=5,
    )
    log = ff.train(state, ds, cfg)
    start, stop = ds.split_ranges["test"]
    test_region = ff.slice_window(series, start, stop - start)
    report = ff.rolling_evaluate(state, test_region, 12, 12)
    return state, log, test_region, report


def _checkpoint_bytes(state, tmp_path, name):
    path = tmp_path / name
    ff.save_checkpoint(state, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def trained_model(bench_series, tmp_path_factory):
    t0 = time.monotonic()
    state, log, test_region, report = _train_benchmark_model(bench_series)
    elapsed = time.monotonic() - t0
    tmp = tmp_path_factory.mktemp("ckpt")
    blob = _checkpoint_bytes(state, tmp, "run1.ckpt")
    return {
        "state": state,
        "log": log,
        "test_region": test_region,
        "report": report,
        "elapsed": elapsed,
        "checkpoint": blob,
    }


def test_criterion_1_spectral_correctness():
    t0 = time.monotonic()
    lengths = list(range(1, 65)) + [97, 128, 1000]
    worst_fwd = 0.0
    worst_rt = 0.0
    for n in lengths:
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(n)
            spectrum = ff.rfft(x)
            reference = dft_reference(x)[: half_length(n)]
            fwd = float(np.max(np.abs(spectrum - reference)))
            rt = float(np.max(np.abs(ff.irfft(spectrum, n) - x)))
            worst_fwd = max(worst_fwd, fwd / n)
            worst_rt = max(worst_rt, rt)
            assert fwd <= 1e-9 * n, (n, fwd)
            assert rt <= 1e-9, (n, rt)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1",
        elapsed < 30.0,
        f"rfft vs reference DFT on {len(lengths)} lengths x 20 seeds: "
        f"max err/n {worst_fwd:.2e}, max round-trip {worst_rt:.2e} ({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_convolution_theorem():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(1, 33):
        rng = np.random.default_rng(1000 + n)
        for _ in range(10):
            x = rng.standard_normal(n)
            k = rng.standard_normal(n)
            via_fft = ff.irfft(ff.rfft(x) * ff.rfft(k), n)
            direct = circular_convolve(x, k)
            err = float(np.max(np.abs(via_fft - direct)))
            worst = max(worst, err)
            assert err <= 1e-8, (n, err)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 2",
        elapsed < 10.0,
        f"frequency product vs circular convolution, n in 1..32 x 10 seeds: "
        f"max abs err {worst:.2e} ({elapsed:.1f}s < 10s)",
    )


def test_criterion_3_gradient_correctness():
    t0 = time.monotonic()
    history, features, width, horizon, batch = 8, 2, 3, 4, 2
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        norm = ff.NormStats(rng.normal(0, 3, features), rng.uniform(0.5, 3.0, features))
        state = ff.FilterPredictorState.initialize(history, horizon, features, width, norm, seed=seed)
        for slot in state.parameters():
            slot.value[...] = rng.normal(0, 0.7, slot.value.shape)
            slot.apply_pins()
        x = rng.normal(0, 2.0, (batch, history, features))
        loss_weights = rng.standard_normal((batch, horizon, features))

        def loss():
            return float(np.sum(loss_weights * state.forward(x)))

        _, pullback = state.fold_and_pullback()
        grad_x = pullback(x, loss_weights)

        for slot in state.parameters():
            numeric = central_difference(loss, slot.value, eps=1e-5, skip_mask=slot.pin_mask)
            err = max_relative_error(slot.grad, numeric)
            worst = max(worst, err)
            assert err < 1e-4, (seed, slot.name, err)
        err = max_relative_error(grad_x, central_difference(loss, x, eps=1e-5))
        worst = max(worst, err)
        assert err < 1e-4, (seed, "input", err)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 3",
        elapsed < 60.0,
        f"finite-difference check over all parameters and inputs, 5 seeds: "
        f"max rel err {worst:.2e} < 1e-4 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_4_identity_initialization_contract():
    configs = [
        ff.SyntheticConfig(n_nodes=3, n_days=3, gaussian_noise_std=2.0, spike_probability=0.02, rng_seed=1),
        ff.SyntheticConfig(n_nodes=2, n_days=5, gaussian_noise_std=0.5, spike_probability=0.0, rng_seed=9),
    ]
    worst = 0.0
    for cfg in configs:
        series = ff.generate_synthetic(cfg)
        ds = ff.make_windows(series, 12, 12, (0.7, 0.1, 0.2))
        norm = ff.fit_normalization(series, ds.split_ranges["train"])
        state = ff.FilterPredictorState.initialize(12, 12, 1, 4, norm, seed=5)
        start, stop = ds.split_ranges["test"]
        region = ff.slice_window(series, start, stop - start)
        untrained = ff.rolling_evaluate(state, region, 12, 12)
        copy = ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12)
        for mine, theirs in list(zip(untrained.per_step, copy.per_step)) + [
            (untrained.aggregate, copy.aggregate)
        ]:
            worst = max(worst, abs(mine.mae - theirs.mae), abs(mine.rmse - theirs.rmse))
            assert abs(mine.mae - theirs.mae) < 1e-6
            assert abs(mine.rmse - theirs.rmse) < 1e-6
            assert abs(mine.mape_percent - theirs.mape_percent) < 1e-6
    _report(
        "criterion 4",
        True,
        f"untrained predictor matches CopyLastStep on {len(configs)} datasets: max gap {worst:.2e} < 1e-6",
    )


def test_criterion_5_smoothing_improves_last_value_baseline(bench_series):
    t0 = time.monotonic()
    ds = ff.make_windows(bench_series, 12, 12, (0.7, 0.1, 0.2))
    start, stop = ds.split_ranges["test"]
    region = ff.slice_window(bench_series, start, stop - start)
    # the improvement must hold under both protocols: one-shot windows and
    # rolling true predecessors
    ok = True
    details = []
    for predecessors in (True, False):
        raw = ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12, predecessor_mode=predecessors)
        filtered = ff.rolling_evaluate(
            ff.FilteredCopyLastStepPredictor(12, window=5), region, 12, 12, predecessor_mode=predecessors
        )
        ok = ok and filtered.aggregate.mae < raw.aggregate.mae
        ok = ok and filtered.aggregate.rmse < raw.aggregate.rmse
        mode = "rolling" if predecessors else "one-shot"
        details.append(
            f"{mode}: MAE {filtered.aggregate.mae:.3f} < {raw.aggregate.mae:.3f}, "
            f"RMSE {filtered.aggregate.rmse:.3f} < {raw.aggregate.rmse:.3f}"
        )
    elapsed = time.monotonic() - t0
    _report(
        "criterion 5",
        ok and elapsed < 10.0,
        f"filtered vs raw CopyLastStep ({'; '.join(details)}) ({elapsed:.1f}s < 10s)",
    )


@pytest.mark.skipif(not Path(METR_LA_CSV).exists(), reason="no METR-LA CSV export supplied")
def test_criterion_5_optional_metr_la_reproduction():
    series = ff.load_csv(METR_LA_CSV)
    ds = ff.make_windows(series, 12, 12, (0.7, 0.1, 0.2))
    start, stop = ds.split_ranges["test"]
    region = ff.slice_window(series, start, stop - start)
    report = ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12, predecessor_mode=True)
    mae_60min = report.per_step[11].mae
    _report(
        "criterion 5 (optional)",
        abs(mae_60min - 6.79) <= 0.05,
        f"CopyLastStep 60-min MAE on METR-LA: {mae_60min:.3f} (target 6.79 +/- 0.05, "
        "rolling-predecessor protocol, 70/10/20 chronological split, stride 1)",
    )


def test_criterion_6_trained_filter_beats_copy_last_step(trained_model):
    report = trained_model["report"]
    region = trained_model["test_region"]
    copy = ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12)
    rolling_copy = ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12, predecessor_mode=True)
    improvement = 1.0 - report.aggregate.mae / copy.aggregate.mae
    ok = improvement >= 0.10 and trained_model["elapsed"] < 300.0
    _report(
        "criterion 6",
        ok,
        f"trained filter MAE {report.aggregate.mae:.3f} vs CopyLastStep {copy.aggregate.mae:.3f} "
        f"(one-shot protocol): {improvement * 100:.1f}% better (>= 10%); "
        f"rolling-predecessor CopyLastStep for reference: {rolling_copy.aggregate.mae:.3f}; "
        f"training took {trained_model['elapsed']:.1f}s < 300s",
    )


class TestCriterion6ClosedFormReference:
    """Criterion 6 against one least-squares affine map over the raw window.

    Folded, the trained predictor is one affine map, so the reference is the
    best map of the same class under squared error, fitted in closed form on
    the train split and scored through the same AffineForecaster.
    """

    @pytest.fixture(scope="class")
    def maes(self, bench_series, trained_model):
        ds = ff.make_windows(bench_series, 12, 12, (0.7, 0.1, 0.2))
        hist, targ = ds.gather("train", np.arange(ds.n_samples("train")))
        design = np.column_stack([hist.reshape(len(hist), -1), np.ones(len(hist))])
        coef = np.linalg.lstsq(design, targ.reshape(len(targ), -1), rcond=None)[0]
        reference = ff.AffineForecaster(coef[:-1], coef[-1], bench_series.n_features)
        region = trained_model["test_region"]
        return {
            "reference": ff.rolling_evaluate(reference, region, 12, 12).aggregate.mae,
            "filter": trained_model["report"].aggregate.mae,
            "copy": ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12).aggregate.mae,
        }

    def test_reference_beats_copy_last_step(self, maes):
        improvement = 1.0 - maes["reference"] / maes["copy"]
        _report(
            "criterion 6 reference",
            improvement >= 0.10,
            f"lstsq affine map MAE {maes['reference']:.4f} vs CopyLastStep {maes['copy']:.4f}: "
            f"{improvement * 100:.1f}% better (>= 10%); trained filter MAE {maes['filter']:.4f}",
        )

    def test_trained_filter_is_within_2_percent_of_the_reference(self, maes):
        ratio = maes["filter"] / maes["reference"]
        _report(
            "criterion 6 reference",
            ratio <= 1.02,
            f"trained filter MAE {maes['filter']:.4f} / lstsq affine map MAE {maes['reference']:.4f} "
            f"= {ratio:.3f} (<= 1.02)",
        )


class _ReadoutOnlyAdam(freqfilter.training.Adam):
    """Adam with the filter's gradients zeroed after each pullback: moments that start at 0 stay 0,
    so the lift and kernel keep their initial bytes and only the readout trains."""

    def step(self) -> None:
        for slot in self.state.parameters():
            if slot.name.startswith("filter."):
                slot.grad[...] = 0.0
        super().step()


def test_criterion_6_readout_only_ablation(bench_series, trained_model):
    """What training the lift and kernel adds over training the readout alone, on the criterion-6 setup."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freqfilter.training, "Adam", _ReadoutOnlyAdam)
        state, log, region, report = _train_benchmark_model(bench_series)
    ds = ff.make_windows(bench_series, 12, 12, (0.7, 0.1, 0.2))
    norm = ff.fit_normalization(bench_series, ds.split_ranges["train"])
    initial = ff.FilterPredictorState.initialize(12, 12, bench_series.n_features, 4, norm, seed=42)
    moved = [
        a.name for a, b in zip(state.parameters(), initial.parameters())
        if a.name.startswith("filter.") and a.value.tobytes() != b.value.tobytes()
    ]
    _report("criterion 6 readout-only", not moved, f"lift and kernel bytes unchanged by training (changed: {moved})")
    readout_only, full = report.aggregate.mae, trained_model["report"].aggregate.mae
    copy = ff.rolling_evaluate(ff.CopyLastStepPredictor(12), region, 12, 12).aggregate.mae
    improvement = 1.0 - readout_only / copy
    _report(
        "criterion 6 readout-only",
        improvement >= 0.10,
        f"readout-only MAE {readout_only:.4f} ({len(log.entries) - 1} epochs) vs CopyLastStep {copy:.4f}: "
        f"{improvement * 100:.1f}% better (>= 10%)",
    )
    _report(
        "criterion 6 readout-only",
        full / readout_only <= 1.02,
        f"full filter MAE {full:.4f} ({len(trained_model['log'].entries) - 1} epochs) / readout-only MAE "
        f"{readout_only:.4f} = {full / readout_only:.3f} (<= 1.02)",
    )


def test_criterion_7_training_determinism(bench_series, trained_model, tmp_path):
    state, log, _, report = _train_benchmark_model(bench_series)
    blob = _checkpoint_bytes(state, tmp_path, "run2.ckpt")
    same_bytes = blob == trained_model["checkpoint"]
    same_metrics = (
        report.aggregate.mae == trained_model["report"].aggregate.mae
        and report.aggregate.rmse == trained_model["report"].aggregate.rmse
        and log.to_text() == trained_model["log"].to_text()
    )
    _report(
        "criterion 7",
        same_bytes and same_metrics,
        f"repeat of the criterion-6 run: checkpoint bytes identical={same_bytes}, "
        f"metrics identical={same_metrics}",
    )


def test_criterion_8_metrics_unit_checks():
    t0 = time.monotonic()
    hand = ff.compute_metrics(np.array([3.0, 5.0]), np.array([1.0, 1.0]))
    hand_ok = (
        abs(hand.mae - 3.0) < 1e-12
        and abs(hand.rmse - np.sqrt(10.0)) < 1e-12
        and abs(hand.mape_percent - 300.0) < 1e-9
    )
    rng = np.random.default_rng(0)
    order_ok = True
    for _ in range(1000):
        size = int(rng.integers(1, 50))
        pred = rng.standard_normal(size) * rng.uniform(0.1, 20)
        target = rng.standard_normal(size) * rng.uniform(0.1, 20)
        r = ff.compute_metrics(pred, target)
        if r.rmse < r.mae - 1e-12:
            order_ok = False
            break
    elapsed = time.monotonic() - t0
    _report(
        "criterion 8",
        hand_ok and order_ok and elapsed < 5.0,
        f"hand example (MAE 3, RMSE sqrt(10), MAPE 300%) and rmse >= mae on 1000 random inputs "
        f"({elapsed:.1f}s < 5s)",
    )
