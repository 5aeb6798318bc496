"""CSV ingestion, seeded synthetic traffic, normalization, and checkpoints.

CSV layout is wide: a `timestamp` column (ISO-8601 or plain integer index)
followed by one column per node, one row per sampling interval. Readers
reject malformed input with row/column coordinates; successfully loaded data
can never fail later because of shape.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .spectral import half_length
from .tensor import TimeSeriesTensor

_SECONDS_PER_DAY = 86400
DEFAULT_INTERVAL_SECONDS = 300
# Cells per block when CSV text is parsed or formatted in bulk: about 0.2 MB of text, and a
# few MB of Python objects. Blocks 8x larger timed no faster and peaked 4x higher.
CSV_BLOCK_CELLS = 2**14
# Integer cells (index timestamps, forecast horizon steps) travel as float64, which holds
# every integer up to 2^53 in magnitude exactly and skips some beyond it.
EXACT_INT_LIMIT = 2**53


class CsvFormatError(ValueError):
    """Malformed input CSV; the message carries row/column coordinates."""


def _parse_timestamp(raw: str, row: int) -> tuple[str, float]:
    text = raw.strip()
    try:
        index = int(text)
    except ValueError:
        pass
    else:
        if abs(index) > EXACT_INT_LIMIT:
            raise CsvFormatError(f"row {row}: integer timestamp {text!r} is beyond ±2^53, where float64 skips integers")
        return "index", float(index)
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise CsvFormatError(
            f"row {row}: timestamp {text!r} is neither an integer index nor ISO-8601"
        ) from None
    # Naive stamps are read as UTC, not host-local time: local clocks skip or
    # repeat an hour at daylight-saving changes, which would break the spacing.
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return "iso", stamp.timestamp()


def _parse_rows(rows: list[list[str]], header: list[str], first_row: int) -> tuple[list, np.ndarray]:
    """(kind, time) stamps and (rows, nodes) values, one row at a time: the first bad cell raises."""
    stamps = []
    parsed_rows: list[list[float]] = []
    for row_num, row in enumerate(rows, start=first_row):
        if len(row) != len(header):
            raise CsvFormatError(
                f"row {row_num}: expected {len(header)} cells, got {len(row)}"
            )
        stamps.append(_parse_timestamp(row[0], row_num))
        parsed = []
        for col, cell in enumerate(row[1:], start=1):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise CsvFormatError(
                    f"row {row_num}, column {header[col]!r}: non-numeric cell {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise CsvFormatError(
                    f"row {row_num}, column {header[col]!r}: non-finite cell {cell!r}"
                )
            parsed.append(value)
        parsed_rows.append(parsed)
    return stamps, np.array(parsed_rows)


def _parse_block(rows: list[list[str]], header: list[str], first_row: int) -> tuple[list, np.ndarray]:
    """What _parse_rows returns, with every cell of the block converted at once.

    Any ragged row, bad cell or non-finite value sends the block to
    _parse_rows, which names the first one.
    """
    n_columns = len(header)
    if set(map(len, rows)) == {n_columns}:
        cells = list(chain.from_iterable(rows))
        try:
            stamps = [_parse_timestamp(cell, row) for row, cell in enumerate(cells[::n_columns], start=first_row)]
            del cells[::n_columns]
            values = np.array(list(map(float, cells))).reshape(len(rows), n_columns - 1)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return stamps, values
    return _parse_rows(rows, header, first_row)


def load_csv(path) -> TimeSeriesTensor:
    """Read a wide CSV into an (n_nodes, n_steps, 1) tensor.

    ISO timestamps fix the interval from their spacing; integer-index
    timestamps (and a single ISO row) get the 300 s default.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty") from None
        if len(header) < 2 or header[0].strip() != "timestamp":
            raise CsvFormatError(
                f"{path}: header must be 'timestamp,<node>,...', got {header!r}"
            )
        node_ids = [h.strip() for h in header[1:]]
        first_column: dict[str, int] = {}
        for col, node in enumerate(node_ids, start=2):
            if not node:
                raise CsvFormatError(f"{path}: header column {col}: empty node id")
            if node in first_column:
                raise CsvFormatError(
                    f"{path}: header column {col}: duplicate node id {node!r} (first in column {first_column[node]})"
                )
            first_column[node] = col

        stamps: list[tuple[str, float]] = []
        blocks = []
        while rows := list(islice(reader, max(1, CSV_BLOCK_CELLS // len(header)))):
            block_stamps, values = _parse_block(rows, header, first_row=2 + len(stamps))
            stamps += block_stamps
            blocks.append(values)

    if not stamps:
        raise CsvFormatError(f"{path}: no data rows")
    kinds = {kind for kind, _ in stamps}
    if len(kinds) > 1:
        raise CsvFormatError(f"{path}: mixed integer and ISO timestamps")
    times = np.array([t for _, t in stamps])
    if len(times) > 1:
        deltas = np.diff(times)
        if np.any(deltas <= 0):
            bad = int(np.argmax(deltas <= 0)) + 3  # +2 header offset, +1 for the later row
            raise CsvFormatError(f"row {bad}: timestamps must be strictly increasing")
        if np.any(deltas != deltas[0]):
            bad = int(np.argmax(deltas != deltas[0])) + 3
            raise CsvFormatError(f"row {bad}: timestamps must be equally spaced")
    interval_seconds = DEFAULT_INTERVAL_SECONDS
    if kinds == {"iso"} and len(times) > 1:
        spacing = times[1] - times[0]
        if spacing != int(spacing):
            raise CsvFormatError(f"{path}: timestamp spacing {spacing:g} s is not a whole number of seconds")
        interval_seconds = int(spacing)

    values = np.concatenate(blocks).T[:, :, None]
    return TimeSeriesTensor(values=values, node_ids=tuple(node_ids), interval_seconds=interval_seconds)


def save_csv(series: TimeSeriesTensor, path, start_timestamp: datetime | None = None) -> None:
    """Write the first feature of a tensor as a wide CSV (6 decimal places, CRLF line ends).

    Timestamps are integer step indices unless a start datetime is given, in
    which case ISO timestamps are spaced by the tensor's interval.
    """
    path = Path(path)
    row = "%s" + ",%.6f" * series.n_nodes + "\r\n"
    rows_per_block = max(1, CSV_BLOCK_CELLS // (series.n_nodes + 1))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["timestamp"] + list(series.node_ids))  # quotes node ids where needed
        for lo in range(0, series.n_steps, rows_per_block):
            block = series.values[:, lo : lo + rows_per_block, 0].T.tolist()
            cells: list = []
            for t, values in enumerate(block, start=lo):
                if start_timestamp is None:
                    cells.append(str(t))
                else:
                    cells.append((start_timestamp + timedelta(seconds=t * series.interval_seconds)).isoformat())
                cells += values
            fh.write(row * len(block) % tuple(cells))


@dataclass(frozen=True)
class SyntheticConfig:
    """Seeded generator settings: daily structure plus noise and sparse spikes.

    Each node draws a base level, daily amplitude, phase, and rush-hour dip
    depths from the seeded stream; on top of the smooth trend go iid gaussian
    noise and signed spikes occurring independently per step with
    spike_probability. Draw order is fixed (trend parameters, noise, spike
    positions, spike magnitudes, spike signs), so configs differing only in
    noise or spike settings share the rest of the stream.
    """

    n_nodes: int = 5
    n_days: int = 30
    interval_seconds: int = DEFAULT_INTERVAL_SECONDS
    base_level_range: tuple[float, float] = (48.0, 62.0)
    daily_amplitude_range: tuple[float, float] = (6.0, 12.0)
    rush_hour_centers: tuple[float, ...] = (8 * 3600.0, 17.5 * 3600.0)
    rush_hour_width_seconds: float = 5400.0
    rush_hour_depth_range: tuple[float, float] = (8.0, 18.0)
    gaussian_noise_std: float = 2.0
    spike_probability: float = 0.01
    spike_magnitude_range: tuple[float, float] = (8.0, 25.0)
    min_value: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.n_days < 1:
            raise ValueError("n_nodes and n_days must be >= 1")
        if self.interval_seconds <= 0 or _SECONDS_PER_DAY % self.interval_seconds != 0:
            raise ValueError(
                f"interval_seconds must be positive and divide {_SECONDS_PER_DAY}, got {self.interval_seconds}"
            )
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError(f"spike_probability must be in [0, 1], got {self.spike_probability}")
        # NaN passes every comparison below and an infinite range overflows the uniform draws.
        if not (math.isfinite(self.gaussian_noise_std) and self.gaussian_noise_std >= 0):
            raise ValueError(f"gaussian_noise_std must be finite and >= 0, got {self.gaussian_noise_std}")
        for name in ("base_level_range", "daily_amplitude_range", "rush_hour_depth_range", "spike_magnitude_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"{name} is inverted: ({lo}, {hi})")

    @property
    def steps_per_day(self) -> int:
        return _SECONDS_PER_DAY // self.interval_seconds

    @property
    def n_steps(self) -> int:
        return self.n_days * self.steps_per_day


def _circular_tod_distance(tod: np.ndarray, center: float) -> np.ndarray:
    raw = np.abs(tod - center)
    return np.minimum(raw, _SECONDS_PER_DAY - raw)


def generate_synthetic(cfg: SyntheticConfig) -> TimeSeriesTensor:
    """Deterministic synthetic speeds for the given config (pure function of the seed)."""
    rng = np.random.default_rng(cfg.rng_seed)
    n, steps = cfg.n_nodes, cfg.n_steps

    base = rng.uniform(*cfg.base_level_range, n)
    amplitude = rng.uniform(*cfg.daily_amplitude_range, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    depths = rng.uniform(*cfg.rush_hour_depth_range, (len(cfg.rush_hour_centers), n))

    # The trend repeats every day, so it is built for one day and added to each.
    # The rest is built in place, dropping each draw once used, so the series
    # costs a few copies of itself at most. Every step is the same IEEE
    # operation on the same operands as max(base + amplitude * sin - dips +
    # noise + spikes, min_value), so the values keep their bits.
    tod = np.arange(cfg.steps_per_day) * cfg.interval_seconds
    trend = np.sin(2.0 * np.pi * tod[None, :] / _SECONDS_PER_DAY + phase[:, None])
    trend *= amplitude[:, None]
    trend += base[:, None]
    for d, center in enumerate(cfg.rush_hour_centers):
        dist = _circular_tod_distance(tod, center)
        bump = np.exp(-(dist**2) / (2.0 * cfg.rush_hour_width_seconds**2))
        trend -= depths[d][:, None] * bump[None, :]

    values = rng.normal(0.0, 1.0, (n, steps))
    values *= cfg.gaussian_noise_std
    days = values.reshape(n, cfg.n_days, cfg.steps_per_day)  # a view of values
    days += trend[:, None, :]
    spiked = rng.random((n, steps)) < cfg.spike_probability
    magnitudes = rng.uniform(*cfg.spike_magnitude_range, (n, steps))[spiked]
    negative = (rng.random((n, steps)) < 0.5)[spiked]
    # Unspiked entries would add 0.0, which leaves every value's bits as they are.
    values[spiked] += np.where(negative, -magnitudes, magnitudes)
    np.maximum(values, cfg.min_value, out=values)
    node_ids = tuple(f"node_{i:03d}" for i in range(n))
    return TimeSeriesTensor(values=values[:, :, None], node_ids=node_ids, interval_seconds=cfg.interval_seconds)


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics fitted on the training range."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        std = np.atleast_1d(np.asarray(self.std, dtype=np.float64))
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError(f"mean/std must be matching 1-D arrays, got {mean.shape} and {std.shape}")
        if np.any(std <= 0):
            bad = int(np.argmax(std <= 0))
            raise ValueError(f"feature {bad} has non-positive std {std[bad]}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


def fit_normalization(series: TimeSeriesTensor, train_range: tuple[int, int]) -> NormStats:
    """Z-score stats from values[:, start:stop, :] only (never the held-out region)."""
    start, stop = train_range
    if not 0 <= start < stop <= series.n_steps:
        raise ValueError(f"train range [{start}, {stop}) invalid for {series.n_steps} steps")
    window = series.values[:, start:stop, :]
    mean = window.mean(axis=(0, 1))
    std = window.std(axis=(0, 1))
    if np.any(std == 0):
        bad = int(np.argmax(std == 0))
        raise ValueError(f"feature {bad} has zero variance on the training range")
    return NormStats(mean, std)


# Checkpoint format v1: magic, version, shape header, optional norm stats,
# then the parameter payloads as little-endian float64, in the order and
# shapes of predictors.parameter_layout.

CHECKPOINT_MAGIC = b"FQFCHKPT"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<5I")


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint file."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


def save_checkpoint(state, path) -> None:
    """Serialize a FilterPredictorState; see load_checkpoint for the inverse."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks.append(
        _HEADER.pack(state.history, state.horizon, state.features, state.width, half_length(state.history))
    )
    if state.norm is None:
        chunks.append(struct.pack("<B", 0))
    else:
        chunks.append(struct.pack("<B", 1))
        chunks.append(np.ascontiguousarray(state.norm.mean, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(state.norm.std, dtype="<f8").tobytes())
    chunks.append(state.params.astype("<f8", copy=False).tobytes())  # already in payload order
    Path(path).write_bytes(b"".join(chunks))


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointTruncatedError(
                f"checkpoint truncated while reading {what}: "
                f"need {count} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def take_array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        # Python ints: header dimensions are uint32, and their product can overflow int64.
        count = math.prod(shape)
        raw = self.take(count * 8, what)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def load_checkpoint(path):
    """Read a checkpoint back into a FilterPredictorState, validating every shape."""
    from .predictors import FilterPredictorState, parameter_layout

    data = Path(path).read_bytes()
    cur = _Cursor(data)
    magic = cur.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
    (version,) = struct.unpack("<I", cur.take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    history, horizon, features, width, n_half = _HEADER.unpack(cur.take(_HEADER.size, "shape header"))
    if min(history, horizon, features, width) < 1:
        raise CheckpointShapeError(
            f"non-positive dimensions in header: history={history} horizon={horizon} "
            f"features={features} width={width}"
        )
    if n_half != half_length(history):
        raise CheckpointShapeError(
            f"header n_half={n_half} inconsistent with history={history} (expected {half_length(history)})"
        )
    (has_norm,) = struct.unpack("<B", cur.take(1, "normalization flag"))

    norm_slots = (("normalization mean", (features,)), ("normalization std", (features,))) if has_norm else ()
    slots = norm_slots + parameter_layout(history, horizon, features, width)
    arrays = [cur.take_array(shape, what) for what, shape in slots]
    if cur.pos != len(data):
        raise CheckpointError(f"{len(data) - cur.pos} trailing bytes after the last parameter payload")
    for (what, _), arr in zip(slots, arrays):
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{what} contains NaN or Inf entries")
    norm = None
    if has_norm:
        mean, std = arrays[:2]
        if np.any(std <= 0):
            raise CheckpointError("normalization std has non-positive entries")
        norm = NormStats(mean, std)

    state = FilterPredictorState(history, horizon, features, width, norm)
    state.params[...] = np.concatenate([arr.ravel() for arr in arrays[len(norm_slots) :]])
    if np.any(state.params[state.pin_mask]):
        raise CheckpointError("filter.kernel.im is nonzero at a pinned boundary bin")
    return state
