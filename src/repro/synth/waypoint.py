"""Textbook mobility models: random waypoint and Lévy flight.

These are not meant to look like real datasets — they have no recurrent
POIs by construction — but they are invaluable as *negative controls*
in tests (a POI attack should find little on them) and as fast
workloads for property-based testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mobility import Dataset
from .base import TrackBuilder, check_knobs
from .city import CityModel

__all__ = ["RandomWaypointConfig", "generate_random_waypoint", "LevyFlightConfig",
           "generate_levy_flight"]


@dataclass(frozen=True)
class RandomWaypointConfig:
    """Knobs of the random-waypoint model."""

    n_users: int = 10
    n_legs: int = 20
    speed_mps: float = 5.0
    pause_s: float = 60.0
    fix_interval_s: float = 30.0
    gps_noise_m: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_legs <= 0:
            raise ValueError("need at least one user and one leg")
        check_knobs(
            self,
            positive=("speed_mps", "fix_interval_s"),
            non_negative=("pause_s", "gps_noise_m"),
        )


def generate_random_waypoint(
    config: RandomWaypointConfig = RandomWaypointConfig(),
    city: CityModel = CityModel(),
) -> Dataset:
    """Classic random waypoint: pick a uniform target, go straight, pause."""
    rng = np.random.default_rng(config.seed)
    traces = []
    for u in range(config.n_users):
        user_rng = np.random.default_rng(rng.integers(0, 2**63))
        track = TrackBuilder(
            user=f"rwp{u:03d}",
            projection=city.projection,
            rng=user_rng,
            gps_noise_m=config.gps_noise_m,
        )
        pos = city.random_point(user_rng)
        for _ in range(config.n_legs):
            target = city.random_point(user_rng)
            track.travel([pos, target], config.speed_mps, config.fix_interval_s)
            track.dwell(
                target[0], target[1], config.pause_s, config.fix_interval_s
            )
            pos = target
        traces.append(track.build())
    return Dataset.from_traces(traces)


@dataclass(frozen=True)
class LevyFlightConfig:
    """Knobs of the truncated Lévy-flight model."""

    n_users: int = 10
    n_legs: int = 30
    alpha: float = 1.6
    min_step_m: float = 50.0
    speed_mps: float = 5.0
    pause_s: float = 120.0
    fix_interval_s: float = 30.0
    gps_noise_m: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_knobs(
            self,
            positive=("alpha", "min_step_m", "speed_mps", "fix_interval_s"),
            non_negative=("pause_s", "gps_noise_m"),
        )
        if self.alpha <= 1.0:
            raise ValueError("Levy exponent must exceed 1")


def generate_levy_flight(
    config: LevyFlightConfig = LevyFlightConfig(),
    city: CityModel = CityModel(),
) -> Dataset:
    """Truncated Lévy flight: power-law step lengths, uniform headings.

    Human mobility famously shows Lévy-like step distributions; this
    model reproduces the heavy-tailed hop statistics without any
    recurrent structure.
    """
    rng = np.random.default_rng(config.seed)
    max_step = 2.0 * city.half_extent_m
    traces = []
    for u in range(config.n_users):
        user_rng = np.random.default_rng(rng.integers(0, 2**63))
        track = TrackBuilder(
            user=f"levy{u:03d}",
            projection=city.projection,
            rng=user_rng,
            gps_noise_m=config.gps_noise_m,
        )
        pos = city.random_point(user_rng)
        for _ in range(config.n_legs):
            # Pareto step length, truncated to the city diameter.
            step = config.min_step_m * (1.0 + user_rng.pareto(config.alpha - 1.0))
            step = min(step, max_step)
            heading = user_rng.uniform(0.0, 2.0 * np.pi)
            target = city.clamp_xy(
                pos[0] + step * np.cos(heading), pos[1] + step * np.sin(heading)
            )
            track.travel([pos, target], config.speed_mps, config.fix_interval_s)
            track.dwell(target[0], target[1], config.pause_s, config.fix_interval_s)
            pos = target
        traces.append(track.build())
    return Dataset.from_traces(traces)
