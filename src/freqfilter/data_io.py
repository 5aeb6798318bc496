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
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from .spectral import half_length
from .tensor import TimeSeriesTensor

_SECONDS_PER_DAY = 86400
DEFAULT_INTERVAL_SECONDS = 300
# Cells per block when CSV text is parsed or formatted in bulk: about 0.2 MB of text. Read through NumPy's
# C reader, blocks of 2^14, 2^16 and 2^18 cells scored a 658,260-row forecast in 0.20-0.22 s (one thread, Xeon).
CSV_BLOCK_CELLS = 2**14
# Integer cells (index timestamps, forecast horizon steps) travel as float64, which holds
# every integer up to 2^53 in magnitude exactly and skips some beyond it.
EXACT_INT_LIMIT = 2**53
# Values per spike draw in generate_synthetic (512 KiB of float64): the series then costs itself,
# its spike positions and magnitudes (16 B a spike) and a chunk. The benchmark's small series fit in one chunk.
SYNTHETIC_CHUNK_VALUES = 2**16
# Values per block of whole nodes in fit_normalization's squared deviations (2 MiB of float64).
NORM_BLOCK_VALUES = 2**18


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


_CSV_TEXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)  # np.loadtxt's options for CSV text


def line_cells(line: str) -> list[str] | None:
    """One CSV line's cells as read_csv_block splits them: [] for a blank line, None if it leaves a quote open."""
    cells = np.loadtxt([line], object, **_CSV_TEXT).tolist() if line.strip("\r\n") else []
    return None if cells and cells[-1].endswith(("\n", "\r")) else cells  # an open quote takes in the line break


def read_csv_block(lines: list[str], dtype, usecols=None) -> np.ndarray | None:
    """One row per line through NumPy's C reader, or None if any line does not convert.

    Both CSV readers read numbers only here: a block at a time, and one cell of a line (usecols) to
    name the first bad cell.
    """
    try:
        with warnings.catch_warnings():
            # A block of blank lines warns that it holds no data, and NumPy before 2.0 read '1.0'
            # into an integer field with a warning: either fails the block.
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype, usecols=usecols, **_CSV_TEXT)
    except (ValueError, Warning):
        return None
    # A blank line gives no row, and a quote left open runs on into the next line or, on the last, unseen.
    if len(table) != len(lines) or ('"' in lines[-1] and line_cells(lines[-1]) is None):
        return None
    return table


def _locate_bad_row(lines: list[str], header: list[str], first_row: int) -> None:
    """Raise for the first row of the block that _parse_block cannot convert, naming its cell."""
    for row, line in enumerate(lines, start=first_row):
        cells = line_cells(line)
        if cells is None:
            raise CsvFormatError(f"row {row}: a quote is left open at the end of the line")
        if len(cells) != len(header):
            raise CsvFormatError(f"row {row}: expected {len(header)} cells, got {len(cells)}")
        _parse_timestamp(cells[0], row)
        for col, cell in enumerate(cells[1:], start=1):
            value = read_csv_block([line], np.float64, usecols=col)
            if value is None:
                raise CsvFormatError(f"row {row}, column {header[col]!r}: non-numeric cell {cell!r}")
            if not np.isfinite(value[0]):
                raise CsvFormatError(f"row {row}, column {header[col]!r}: non-finite cell {cell!r}")


def _parse_block(lines: list[str], header: list[str], first_row: int) -> tuple[list, np.ndarray]:
    """(kind, time) stamps and (rows, nodes) values of a block of data lines, every value read at once.

    Any ragged row, bad cell or non-finite value sends the block to
    _locate_bad_row, which names the first one.
    """
    table = read_csv_block(lines, [("timestamp", object), ("values", np.float64, (len(header) - 1,))])
    if table is not None and np.isfinite(table["values"]).all():
        try:
            stamps = [_parse_timestamp(cell, row) for row, cell in enumerate(table["timestamp"].tolist(), start=first_row)]
        except ValueError:
            pass
        else:
            return stamps, table["values"].copy()  # compact, so the block's stamps and structure go now
    _locate_bad_row(lines, header, first_row)  # raises: some row did not convert


def load_csv(path) -> TimeSeriesTensor:
    """Read a wide CSV into an (n_nodes, n_steps, 1) tensor.

    ISO timestamps fix the interval from their spacing; integer-index
    timestamps (and a single ISO row) get the 300 s default.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        # The header alone goes through csv.reader: node ids may hold quoted commas and line breaks.
        header = next(csv.reader(fh), None)
        if header is None:
            raise CsvFormatError(f"{path}: file is empty")
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
        while lines := list(islice(fh, max(1, CSV_BLOCK_CELLS // len(header)))):
            block_stamps, values = _parse_block(lines, header, first_row=2 + len(stamps))
            stamps += block_stamps
            blocks.append(values)

    if not stamps:
        raise CsvFormatError(f"{path}: no data rows")
    kinds = {kind for kind, _ in stamps}
    if len(kinds) > 1:
        raise CsvFormatError(f"{path}: mixed integer and ISO timestamps")
    times = np.array([t for _, t in stamps])
    del stamps
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

    # Node-major, the layout the transposed blocks have: one array, filled from the blocks
    # once, then frozen and handed over, so the peak is the blocks and the series.
    values = np.empty((len(node_ids), len(times), 1), order="F")
    np.concatenate(blocks, out=values[:, :, 0].T)
    del blocks
    values.setflags(write=False)
    return TimeSeriesTensor(values=values, node_ids=tuple(node_ids), interval_seconds=interval_seconds)


def save_csv(series: TimeSeriesTensor, path, start_timestamp: datetime | None = None) -> None:
    """Write the first feature of a tensor as a wide CSV (6 decimal places, CRLF line ends).

    A 300 s series with no start datetime gets integer step indices, which
    load_csv reads back at 300 s. Any other series gets ISO timestamps spaced
    by its interval, from start_timestamp or else from 1970-01-01T00:00:00
    (read back as UTC), so its interval survives the round trip.
    """
    path = Path(path)
    if start_timestamp is None and series.interval_seconds != DEFAULT_INTERVAL_SECONDS:
        start_timestamp = datetime(1970, 1, 1)
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
    """Seeded generator settings: a fixed daily trend plus noise and sparse spikes.

    Each node draws a base level in [48, 62), a daily amplitude in [6, 12), a
    phase, and dip depths in [8, 18) for rush hours at 08:00 and 17:30
    (gaussian, 5,400 s wide) from the seeded stream; on top of that trend go
    iid gaussian noise and signed spikes occurring independently per step
    with spike_probability, and every value is floored at 1.0. Draw order is
    fixed (trend parameters, noise, spike positions, spike magnitudes, spike
    signs), so configs differing only in noise or spike settings share the
    rest of the stream.
    """

    n_nodes: int = 5
    n_days: int = 30
    interval_seconds: int = DEFAULT_INTERVAL_SECONDS
    gaussian_noise_std: float = 2.0
    spike_probability: float = 0.01
    spike_magnitude_range: tuple[float, float] = (8.0, 25.0)
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
        lo, hi = self.spike_magnitude_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"spike_magnitude_range must be finite, got ({lo}, {hi})")
        if lo > hi:
            raise ValueError(f"spike_magnitude_range is inverted: ({lo}, {hi})")

    @property
    def steps_per_day(self) -> int:
        return _SECONDS_PER_DAY // self.interval_seconds

    @property
    def n_steps(self) -> int:
        return self.n_days * self.steps_per_day


def generate_synthetic(cfg: SyntheticConfig) -> TimeSeriesTensor:
    """Deterministic synthetic speeds for the given config (pure function of the seed)."""
    rng = np.random.default_rng(cfg.rng_seed)
    n, steps = cfg.n_nodes, cfg.n_steps

    base = rng.uniform(48.0, 62.0, n)
    amplitude = rng.uniform(6.0, 12.0, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    rush_hours = (8 * 3600.0, 17.5 * 3600.0)
    depths = rng.uniform(8.0, 18.0, (len(rush_hours), n))

    # The trend repeats every day, so it is built for one day and added to each.
    # The rest is built in place, so the series costs little more than itself
    # (README, "Memory"). Every step is the same IEEE
    # operation on the same operands as max(base + amplitude * sin - dips +
    # noise + spikes, 1.0), so the values keep their bits.
    tod = np.arange(cfg.steps_per_day) * cfg.interval_seconds
    trend = np.sin(2.0 * np.pi * tod[None, :] / _SECONDS_PER_DAY + phase[:, None])
    trend *= amplitude[:, None]
    trend += base[:, None]
    for depth, center in zip(depths, rush_hours):
        dist = np.abs(tod - center)
        dist = np.minimum(dist, _SECONDS_PER_DAY - dist)  # around the clock
        trend -= depth[:, None] * np.exp(-(dist**2) / (2.0 * 5400.0**2))[None, :]

    # Drawn straight into an array that owns its data, so TimeSeriesTensor adopts it once frozen.
    values = rng.normal(0.0, 1.0, (n, steps, 1))
    values *= cfg.gaussian_noise_std
    days = values.reshape(n, cfg.n_days, cfg.steps_per_day)  # a view of values
    days += trend[:, None, :]
    # Spikes are drawn in chunks of the flat series, in C order, and each chunk keeps only its
    # spike positions. Each random and uniform draw takes one 64-bit output of the stream, so the
    # chunks read it exactly as whole-array draws would.
    flat = values.reshape(-1)  # a view of values
    chunks = [flat[lo : lo + SYNTHETIC_CHUNK_VALUES] for lo in range(0, flat.size, SYNTHETIC_CHUNK_VALUES)]
    spiked = [np.flatnonzero(rng.random(c.size) < cfg.spike_probability) for c in chunks]
    magnitudes = [rng.uniform(*cfg.spike_magnitude_range, c.size)[at] for c, at in zip(chunks, spiked)]
    for c, at, magnitude in zip(chunks, spiked, magnitudes):
        negative = (rng.random(c.size) < 0.5)[at]
        # Unspiked entries would add 0.0, which leaves every value's bits as they are.
        c[at] += np.where(negative, -magnitude, magnitude)
    np.maximum(values, 1.0, out=values)
    values.setflags(write=False)
    node_ids = tuple(f"node_{i:03d}" for i in range(n))
    return TimeSeriesTensor(values=values, node_ids=node_ids, interval_seconds=cfg.interval_seconds)


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
        for name, stat in (("mean", mean), ("std", std)):
            if not np.isfinite(stat).all():
                bad = int(np.argmin(np.isfinite(stat)))
                raise ValueError(f"feature {bad} has non-finite {name} {stat[bad]}")
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
    # window.std's own calls, over blocks of whole nodes whose sums are added in node order, so no
    # window-sized deviation temporary is made; a window of one block keeps std's bits.
    per_block = max(1, NORM_BLOCK_VALUES // window[0].size)
    sq_sum = 0.0
    for lo in range(0, window.shape[0], per_block):
        dev = window[lo : lo + per_block] - mean
        sq_sum += np.multiply(dev, dev, out=dev).sum(axis=(0, 1))
    std = np.sqrt(sq_sum / (window.shape[0] * window.shape[1]))
    if np.any(std == 0):
        bad = int(np.argmax(std == 0))
        raise ValueError(f"feature {bad} has zero variance on the training range")
    return NormStats(mean, std)


# Checkpoint format v1: magic, version, shape header, a normalization flag
# byte (always 1) and the norm stats, then the parameter payloads as
# little-endian float64, in the order and shapes of predictors.parameter_layout.

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
    flag_offset = cur.pos
    (flag,) = struct.unpack("<B", cur.take(1, "normalization flag"))
    if flag != 1:  # every predictor has its normalization, so save_checkpoint always writes 1
        raise CheckpointError(f"normalization flag {flag} at byte offset {flag_offset} is not 1")

    slots = (("normalization mean", (features,)), ("normalization std", (features,)))
    slots += parameter_layout(history, horizon, features, width)
    arrays = [cur.take_array(shape, what) for what, shape in slots]
    if cur.pos != len(data):
        raise CheckpointError(f"{len(data) - cur.pos} trailing bytes after the last parameter payload")
    for (what, _), arr in zip(slots, arrays):
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{what} contains NaN or Inf entries")
    mean, std = arrays[:2]
    if np.any(std <= 0):
        raise CheckpointError("normalization std has non-positive entries")

    state = FilterPredictorState(history, horizon, features, width, NormStats(mean, std))
    state.params[...] = np.concatenate([arr.ravel() for arr in arrays[2:]])
    if np.any(state.params[state.pin_mask]):
        raise CheckpointError("filter.kernel.im is nonzero at a pinned boundary bin")
    return state
