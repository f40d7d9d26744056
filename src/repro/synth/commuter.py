"""GeoLife-style synthetic commuters with daily home/work routines.

The paper's future work targets other datasets; GeoLife (Beijing daily
mobility) is the canonical one, so the second synthetic workload is a
population of commuters: every user has a home, a workplace and a couple
of leisure anchors, and repeats a jittered daily schedule over several
days.  Long recurrent dwells at the anchors give each user an
unambiguous ground-truth POI set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mobility import Dataset
from .base import TrackBuilder, check_knobs
from .city import BEIJING_CENTER, CityModel

__all__ = ["CommuterConfig", "generate_commuters", "beijing_city"]


def beijing_city(half_extent_m: float = 6000.0, block_m: float = 250.0) -> CityModel:
    """A city preset matching the GeoLife (Beijing) setting."""
    return CityModel(BEIJING_CENTER, half_extent_m, block_m)


@dataclass(frozen=True)
class CommuterConfig:
    """Knobs of the commuter simulator (defaults mimic GeoLife habits)."""

    n_users: int = 20
    n_days: int = 3
    n_leisure_anchors: int = 2
    leisure_probability: float = 0.5
    fix_interval_move_s: float = 30.0
    fix_interval_stay_s: float = 300.0
    walk_speed_mps: float = 1.4
    vehicle_speed_mps: float = 10.0
    gps_noise_m: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_days <= 0:
            raise ValueError("need at least one user and one day")
        if not 0.0 <= self.leisure_probability <= 1.0:
            raise ValueError("leisure probability must be in [0, 1]")
        check_knobs(
            self,
            positive=(
                "fix_interval_move_s",
                "fix_interval_stay_s",
                "walk_speed_mps",
                "vehicle_speed_mps",
            ),
            non_negative=("gps_noise_m",),
        )


def generate_commuters(
    config: CommuterConfig = CommuterConfig(),
    city: CityModel = None,
) -> Dataset:
    """Simulate a commuter population and return it as a :class:`Dataset`."""
    if city is None:
        city = beijing_city()
    rng = np.random.default_rng(config.seed)
    day_s = 86400.0

    traces = []
    for u in range(config.n_users):
        user_rng = np.random.default_rng(rng.integers(0, 2**63))
        home = city.random_point(user_rng)
        work = city.random_point(user_rng)
        leisure = [city.random_point(user_rng) for _ in range(config.n_leisure_anchors)]
        commute_speed = (
            config.vehicle_speed_mps
            if user_rng.random() < 0.7
            else config.walk_speed_mps
        )
        track = TrackBuilder(
            user=f"user{u:03d}",
            projection=city.projection,
            rng=user_rng,
            gps_noise_m=config.gps_noise_m,
        )
        for day in range(config.n_days):
            day_start = day * day_s
            # Morning at home (device on from 6:30ish).
            track.now_s = day_start + user_rng.normal(6.5 * 3600.0, 900.0)
            leave_home = day_start + user_rng.normal(8.0 * 3600.0, 900.0)
            track.dwell(
                home[0],
                home[1],
                max(0.0, leave_home - track.now_s),
                config.fix_interval_stay_s,
            )
            # Commute, work day.
            track.travel(
                city.street_route(home, work),
                commute_speed,
                config.fix_interval_move_s,
            )
            leave_work = day_start + user_rng.normal(17.5 * 3600.0, 1800.0)
            track.dwell(
                work[0],
                work[1],
                max(0.0, leave_work - track.now_s),
                config.fix_interval_stay_s,
            )
            # Optional leisure stop on the way home.
            pos = work
            if leisure and user_rng.random() < config.leisure_probability:
                spot = leisure[int(user_rng.integers(len(leisure)))]
                track.travel(
                    city.street_route(pos, spot),
                    commute_speed,
                    config.fix_interval_move_s,
                )
                track.dwell(
                    spot[0],
                    spot[1],
                    float(user_rng.uniform(3600.0, 7200.0)),
                    config.fix_interval_stay_s,
                )
                pos = spot
            # Home for the evening (device off at ~23h).
            track.travel(
                city.street_route(pos, home),
                commute_speed,
                config.fix_interval_move_s,
            )
            bedtime = day_start + 23.0 * 3600.0
            track.dwell(
                home[0],
                home[1],
                max(0.0, bedtime - track.now_s),
                config.fix_interval_stay_s,
            )
        traces.append(track.build())
    return Dataset.from_traces(traces)
