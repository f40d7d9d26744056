"""Cabspotting-style synthetic taxi fleet.

The paper's running example protects "a whole dataset containing
mobility traces of taxi drivers around San Francisco" (Cabspotting).
With no network access we generate the closest synthetic equivalent: a
fleet of cabs alternating fares between Zipf-popular hotspots, cruising
between jobs, and taking recurrent breaks at a small set of per-cab
favourite stands.  The favourite stands produce exactly the recurrent,
significant stops the POI attack needs; street routing on the block grid
produces the block-scale coverage footprint the utility metric needs.

GPS cadence defaults to one fix per minute, matching Cabspotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mobility import Dataset
from .base import TrackBuilder, check_knobs
from .city import CityModel

__all__ = ["TaxiFleetConfig", "generate_taxi_fleet"]


@dataclass(frozen=True)
class TaxiFleetConfig:
    """Knobs of the taxi-fleet simulator (defaults mimic Cabspotting)."""

    n_cabs: int = 30
    shift_hours: float = 10.0
    n_hotspots: int = 25
    stands_per_cab: int = 3
    fix_interval_s: float = 60.0
    speed_mps: float = 8.0
    gps_noise_m: float = 10.0
    mean_fare_wait_s: float = 300.0
    break_every_fares: int = 4
    break_duration_s: float = 1800.0
    #: Relative spread of per-cab habits (break cadence/length, speed).
    #: Heterogeneity widens the privacy transition band of Figure 1a,
    #: as real Cabspotting drivers do; 0 makes every cab identical.
    heterogeneity: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cabs <= 0:
            raise ValueError("need at least one cab")
        if self.stands_per_cab <= 0:
            raise ValueError("each cab needs at least one favourite stand")
        if self.break_every_fares <= 0:
            raise ValueError("break cadence must be positive")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError("heterogeneity must be in [0, 1)")
        check_knobs(
            self,
            positive=("shift_hours", "fix_interval_s", "speed_mps"),
            non_negative=("gps_noise_m", "mean_fare_wait_s", "break_duration_s"),
        )


def generate_taxi_fleet(
    config: TaxiFleetConfig = TaxiFleetConfig(),
    city: CityModel = CityModel(),
) -> Dataset:
    """Simulate a taxi fleet and return it as a :class:`Dataset`."""
    rng = np.random.default_rng(config.seed)
    hotspot_xy, hotspot_w = city.hotspots(rng, config.n_hotspots)
    n_hotspots = hotspot_xy.shape[0]

    traces = []
    for cab in range(config.n_cabs):
        cab_rng = np.random.default_rng(rng.integers(0, 2**63))
        stands_idx = cab_rng.choice(
            n_hotspots,
            size=min(config.stands_per_cab, n_hotspots),
            replace=False,
            p=hotspot_w,
        )
        track = TrackBuilder(
            user=f"cab{cab:03d}",
            projection=city.projection,
            rng=cab_rng,
            gps_noise_m=config.gps_noise_m,
        )
        # Per-cab habits: real fleets mix fast/slow reporters and
        # short/long breakers, which is what smears the privacy
        # transition of Figure 1a over a band of epsilon values.
        h = config.heterogeneity
        fix_interval = config.fix_interval_s * float(cab_rng.uniform(1 - h, 1 + 1.5 * h))
        break_duration = config.break_duration_s * float(
            cab_rng.uniform(1 - h, 1 + 1.5 * h)
        )
        break_every = max(
            1, int(round(config.break_every_fares * cab_rng.uniform(1 - h, 1 + h)))
        )
        speed = config.speed_mps * float(cab_rng.uniform(1 - h / 2, 1 + h / 2))
        pos = tuple(hotspot_xy[cab_rng.choice(stands_idx)])
        shift_end = config.shift_hours * 3600.0
        fares_since_break = 0
        while track.now_s < shift_end:
            if fares_since_break >= break_every:
                # Recurrent break at a favourite stand: this is what makes
                # cabs have POIs for the privacy metric to attack.
                stand = tuple(hotspot_xy[cab_rng.choice(stands_idx)])
                track.travel(
                    city.street_route(pos, stand), speed, fix_interval
                )
                track.dwell(stand[0], stand[1], break_duration, fix_interval)
                pos = stand
                fares_since_break = 0
                continue
            # Wait for the next fare where we are (short idle, sub-POI).
            wait = float(cab_rng.exponential(config.mean_fare_wait_s))
            track.dwell(pos[0], pos[1], wait, fix_interval)
            # Pick up somewhere popular, drop off somewhere popular.
            pickup = tuple(hotspot_xy[cab_rng.choice(n_hotspots, p=hotspot_w)])
            dropoff = tuple(hotspot_xy[cab_rng.choice(n_hotspots, p=hotspot_w)])
            track.travel(city.street_route(pos, pickup), speed, fix_interval)
            track.travel(city.street_route(pickup, dropoff), speed, fix_interval)
            pos = dropoff
            fares_since_break += 1
        traces.append(track.build())
    return Dataset.from_traces(traces)
