"""The synthetic generator as it was before its spike draws were chunked, kept as a bit-for-bit oracle.

generate_synthetic draws the spike mask, the spike magnitudes and the spike
signs as three whole (n_nodes, n_steps) arrays, and the tensor copies the
finished values.
"""

import numpy as np

from freqfilter.tensor import TimeSeriesTensor

_SECONDS_PER_DAY = 86400


def _circular_tod_distance(tod, center):
    raw = np.abs(tod - center)
    return np.minimum(raw, _SECONDS_PER_DAY - raw)


def generate_synthetic(cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    n, steps = cfg.n_nodes, cfg.n_steps

    base = rng.uniform(*cfg.base_level_range, n)
    amplitude = rng.uniform(*cfg.daily_amplitude_range, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    depths = rng.uniform(*cfg.rush_hour_depth_range, (len(cfg.rush_hour_centers), n))

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
    days = values.reshape(n, cfg.n_days, cfg.steps_per_day)
    days += trend[:, None, :]
    spiked = rng.random((n, steps)) < cfg.spike_probability
    magnitudes = rng.uniform(*cfg.spike_magnitude_range, (n, steps))[spiked]
    negative = (rng.random((n, steps)) < 0.5)[spiked]
    values[spiked] += np.where(negative, -magnitudes, magnitudes)
    np.maximum(values, cfg.min_value, out=values)
    node_ids = tuple(f"node_{i:03d}" for i in range(n))
    return TimeSeriesTensor(values=values[:, :, None], node_ids=node_ids, interval_seconds=cfg.interval_seconds)
