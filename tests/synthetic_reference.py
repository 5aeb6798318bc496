"""The synthetic generator as it was before its spike draws were chunked, kept as a bit-for-bit oracle.

generate_synthetic draws the spike mask, the spike magnitudes and the spike
signs as three whole (n_nodes, n_steps) arrays, and the tensor copies the
finished values.
"""

import numpy as np

from freqfilter.tensor import TimeSeriesTensor

_SECONDS_PER_DAY = 86400
# The fixed daily trend, written out here rather than read from freqfilter.
BASE_LEVEL_RANGE = (48.0, 62.0)
DAILY_AMPLITUDE_RANGE = (6.0, 12.0)
RUSH_HOUR_CENTERS = (8 * 3600.0, 17.5 * 3600.0)
RUSH_HOUR_WIDTH_SECONDS = 5400.0
RUSH_HOUR_DEPTH_RANGE = (8.0, 18.0)
MIN_VALUE = 1.0


def _circular_tod_distance(tod, center):
    raw = np.abs(tod - center)
    return np.minimum(raw, _SECONDS_PER_DAY - raw)


def generate_synthetic(cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    n, steps = cfg.n_nodes, cfg.n_steps

    base = rng.uniform(*BASE_LEVEL_RANGE, n)
    amplitude = rng.uniform(*DAILY_AMPLITUDE_RANGE, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    depths = rng.uniform(*RUSH_HOUR_DEPTH_RANGE, (len(RUSH_HOUR_CENTERS), n))

    tod = np.arange(cfg.steps_per_day) * cfg.interval_seconds
    trend = np.sin(2.0 * np.pi * tod[None, :] / _SECONDS_PER_DAY + phase[:, None])
    trend *= amplitude[:, None]
    trend += base[:, None]
    for d, center in enumerate(RUSH_HOUR_CENTERS):
        dist = _circular_tod_distance(tod, center)
        bump = np.exp(-(dist**2) / (2.0 * RUSH_HOUR_WIDTH_SECONDS**2))
        trend -= depths[d][:, None] * bump[None, :]

    values = rng.normal(0.0, 1.0, (n, steps))
    values *= cfg.gaussian_noise_std
    days = values.reshape(n, cfg.n_days, cfg.steps_per_day)
    days += trend[:, None, :]
    spiked = rng.random((n, steps)) < cfg.spike_probability
    magnitudes = rng.uniform(*cfg.spike_magnitude_range, (n, steps))[spiked]
    negative = (rng.random((n, steps)) < 0.5)[spiked]
    values[spiked] += np.where(negative, -magnitudes, magnitudes)
    np.maximum(values, MIN_VALUE, out=values)
    node_ids = tuple(f"node_{i:03d}" for i in range(n))
    return TimeSeriesTensor(values=values[:, :, None], node_ids=node_ids, interval_seconds=cfg.interval_seconds)
