"""The time-series container shared by the rest of the toolkit.

Time series are immutable once constructed; all mutation in the package
happens on dedicated parameter/gradient buffers in the filter module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeSeriesTensor:
    """Real observations indexed (node, time, feature).

    values has shape (n_nodes, n_steps, n_features) and is frozen after
    construction; node_ids are unique opaque identifiers; interval_seconds
    is the sampling period (300 for the usual 5-minute traffic feeds).

    values is copied, except for a read-only float64 ndarray that owns its
    data (base is None) or is a view of a read-only float64 ndarray that
    does: that one is adopted as it is, and the caller hands it over,
    keeping no writeable view of it. A view keeps its owner alive.
    """

    values: np.ndarray
    node_ids: tuple[str, ...]
    interval_seconds: int = 300

    def __post_init__(self) -> None:
        values = self.values
        owner = values if getattr(values, "base", None) is None else values.base
        if not (
            all(type(a) is np.ndarray and a.dtype == np.float64 and not a.flags.writeable for a in (values, owner))
            and owner.base is None
        ):
            values = np.array(values, dtype=np.float64, copy=True)
        if values.ndim != 3:
            raise ValueError(f"values must be 3-D (node, time, feature), got shape {values.shape}")
        if min(values.shape) < 1:
            raise ValueError(f"all dimensions must be >= 1, got shape {values.shape}")
        # NaN propagates through min and max, and an infinity is an extreme: exact, with no bool temporary.
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("values contain NaN or Inf entries")
        node_ids = tuple(str(n) for n in self.node_ids)
        if len(node_ids) != values.shape[0]:
            raise ValueError(
                f"got {len(node_ids)} node ids for {values.shape[0]} nodes"
            )
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node_ids must be unique")
        if int(self.interval_seconds) != self.interval_seconds or self.interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be a positive integer, got {self.interval_seconds!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "node_ids", node_ids)
        object.__setattr__(self, "interval_seconds", int(self.interval_seconds))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def n_features(self) -> int:
        return self.values.shape[2]


def slice_window(t: TimeSeriesTensor, start: int, length: int) -> TimeSeriesTensor:
    """Contiguous slice along the time axis, a view that keeps t's values alive; node ids and interval carry over."""
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if start < 0 or start + length > t.n_steps:
        raise ValueError(
            f"requested time range [{start}, {start + length}) outside available [0, {t.n_steps})"
        )
    return TimeSeriesTensor(
        values=t.values[:, start : start + length, :],
        node_ids=t.node_ids,
        interval_seconds=t.interval_seconds,
    )
