"""Sliding-window datasets, MAE loss, and the first-order training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import error_sums, reports_from_sums
from .predictors import _gather, iter_windows
from .tensor import TimeSeriesTensor

SPLIT_NAMES = ("train", "val", "test")

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's moment decays and guard


class TrainingDivergedError(RuntimeError):
    """Loss or arithmetic left the finite range during training."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 128
    optimizer: str = "adam"
    seed: int = 0
    early_stop_patience: int | None = None

    def validate(self) -> None:
        # learning_rate 0 is allowed: it is the documented no-op update.
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.early_stop_patience is not None and self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0 when set")


@dataclass
class WindowedDataset:
    """Sliding (history, horizon) samples cut from a series, split chronologically.

    A split's windows start at every step of its [start, stop) range that
    leaves room for history + horizon steps before stop, so every sample's
    history immediately precedes its target block and no window crosses a
    split boundary.
    """

    values: np.ndarray  # (n_nodes, n_steps, n_features), original units
    history: int
    horizon: int
    split_ranges: dict[str, tuple[int, int]]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    def n_windows(self, split: str) -> int:
        start, stop = self.split_ranges[split]
        return max(0, stop - start - self.history - self.horizon + 1)

    def n_samples(self, split: str) -> int:
        return self.n_windows(split) * self.n_nodes

    def gather(self, split: str, sample_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (histories, targets) batches, sample id = window * n_nodes + node.

        Each sample is cut as one window of history + horizon steps, and the two halves are views of it.
        """
        if sample_ids.size and not 0 <= sample_ids.min() <= sample_ids.max() < self.n_samples(split):
            raise IndexError(f"sample ids must lie in [0, {self.n_samples(split)}) for the {split} split")
        starts = self.split_ranges[split][0] + sample_ids // self.n_nodes
        windows = _gather(self.values, sample_ids % self.n_nodes, starts, self.history + self.horizon)
        return windows[..., : self.history, :], windows[..., self.history :, :]


def make_windows(
    series: TimeSeriesTensor,
    history: int,
    horizon: int,
    split_ratios: tuple[float, float, float],
) -> WindowedDataset:
    """Chronological train/val/test regions with stride-1 windows inside each."""
    if history < 1 or horizon < 1:
        raise ValueError("history and horizon must be >= 1")
    ratios = tuple(float(r) for r in split_ratios)
    if len(ratios) != 3 or any(not r >= 0 for r in ratios):  # not >= 0 also holds for NaN
        raise ValueError(f"split_ratios must be three non-negative numbers, got {split_ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split_ratios must sum to 1, got {sum(ratios)}")

    total = series.n_steps
    needed = history + horizon
    sizes = [int(np.floor(total * r)) for r in ratios]
    leftover = total - sum(sizes)
    for i in (2, 1, 0):
        if ratios[i] > 0:
            sizes[i] += leftover
            break

    ranges: dict[str, tuple[int, int]] = {}
    cursor = 0
    for name, size, ratio in zip(SPLIT_NAMES, sizes, ratios):
        ranges[name] = (cursor, cursor + size)
        if ratio > 0 and size < needed:
            raise ValueError(
                f"{name} split has {size} steps but needs at least {needed} (history {history} + horizon {horizon})"
            )
        cursor += size

    return WindowedDataset(values=series.values, history=history, horizon=horizon, split_ranges=ranges)


def mae_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean absolute error and its subgradient w.r.t. pred (sign(0) taken as 0)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return loss, grad


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
) -> None:
    """One bias-corrected moment update, in place on param/m/v."""
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient passed to adam_step")
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    # param -= lr * m_hat / (sqrt(v_hat) + eps), in place: the same bits without three more
    # parameter-sized temporaries, which set a training step's peak memory on long windows.
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= lr
    m_hat /= v_hat
    param -= m_hat


def _check_gradients(state) -> None:
    """Raise before anything is written if a gradient is non-finite, naming the first such slot."""
    if not np.all(np.isfinite(state.grads)):
        name = next(s.name for s in state.parameters() if not np.all(np.isfinite(s.grad)))
        raise FloatingPointError(f"non-finite gradient in {name}")


class Adam:
    """Adam over a predictor's parameter buffer; re-pins constrained entries after each step."""

    def __init__(self, state, lr: float):
        self.state = state
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(state.params)
        self.v = np.zeros_like(state.params)

    def step(self) -> None:
        _check_gradients(self.state)
        adam_step(self.state.params, self.state.grads, self.m, self.v, self.step_count + 1, self.lr)
        self.step_count += 1
        self.state.apply_pins()


class SGD:
    """Plain gradient descent over a predictor's parameter buffer."""

    def __init__(self, state, lr: float):
        self.state = state
        self.lr = lr

    def step(self) -> None:
        _check_gradients(self.state)
        self.state.params -= self.lr * self.state.grads
        self.state.apply_pins()


@dataclass
class TrainingLog:
    """Per-epoch (epoch, train_loss, val_loss) records; epoch 0 is the untrained state."""

    entries: list[tuple[int, float, float]] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def best_epoch(self) -> int:
        """The first epoch with the lowest finite validation loss; 0 when none is finite (no validation split)."""
        return min(((va, e) for e, _, va in self.entries if np.isfinite(va)), default=(None, 0))[1]

    def to_text(self) -> str:
        lines = [f"{e} {tr:.12g} {va:.12g}" for e, tr, va in self.entries]
        return "\n".join(lines) + "\n"

    def final_val_loss(self) -> float:
        """Validation loss of the parameters train returned: the best epoch's after an early stop."""
        return self.entries[self.best_epoch if self.stopped_early else -1][2]


def evaluate_loss(state, data: WindowedDataset, split: str) -> float:
    """MAE of the predictor over a whole split, in original units; NaN if the split is empty."""
    if data.n_samples(split) == 0:
        return float("nan")
    forecaster = state.fold()
    first = data.split_ranges[split][0]
    windows = iter_windows(data.values, first, 1, data.n_windows(split), data.history, data.horizon)
    sums = sum(error_sums(forecaster.predict(histories), targets) for _, histories, targets in windows)
    return reports_from_sums(sums)[1].mae


def train(state, data: WindowedDataset, cfg: TrainConfig) -> TrainingLog:
    """Minibatch training with MAE loss; deterministic for a fixed seed.

    Each step folds the current parameters into one affine map, forecasts the
    batch with it and pulls the loss gradient back into the gradient buffer.
    Logs epoch 0 (no updates) first, then one entry per epoch. With a
    patience set and a validation split, training stops once more than
    `patience` epochs have passed since `log.best_epoch`, and the best
    epoch's parameters are restored before returning.
    """
    cfg.validate()
    n_samples = data.n_samples("train")
    if n_samples == 0:
        raise ValueError("training split is empty")

    optimizer = (Adam if cfg.optimizer == "adam" else SGD)(state, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)

    log = TrainingLog([(0, evaluate_loss(state, data, "train"), evaluate_loss(state, data, "val"))])
    best_params = state.params.copy() if cfg.early_stop_patience is not None else None

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_samples)
        batch_losses = []
        # Overflow in a step, or in folding the parameters it left, is divergence, not a later irfft error.
        try:
            with np.errstate(over="raise", invalid="raise"):
                for bi, lo in enumerate(range(0, n_samples, cfg.batch_size)):
                    hist, targ = data.gather("train", order[lo : lo + cfg.batch_size])
                    forecaster, pullback = state.fold_and_pullback()
                    loss, grad = mae_loss(forecaster.predict(hist), targ)
                    if not np.isfinite(loss):
                        raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}, batch {bi}")
                    pullback(hist, grad)
                    optimizer.step()
                    batch_losses.append(loss)
                val_loss = evaluate_loss(state, data, "val")
        except FloatingPointError as exc:
            raise TrainingDivergedError(f"training diverged at epoch {epoch}, batch {bi}: {exc}") from exc

        train_loss = float(np.mean(batch_losses))
        log.entries.append((epoch, train_loss, val_loss))

        if cfg.early_stop_patience is None or not np.isfinite(val_loss):
            continue  # no patience, or no validation split: early stopping cannot apply
        if log.best_epoch == epoch:
            best_params = state.params.copy()
        elif epoch - log.best_epoch > cfg.early_stop_patience:
            state.params[...] = best_params
            log.stopped_early = True
            break

    return log
