"""Microphone array geometry, free-field steering vectors, and the
azimuthal zone grid with its ground-truth mapping.

Azimuths are degrees counter-clockwise from the +x axis, elevation fixed
at zero (in-plane DOA). The DOA unit vector points from the array toward
the source, and the wave vector is k = -(2*pi*f/c) * doa, so a microphone
at position r carries the phase factor exp(+j * (2*pi*f/c) * doa . r).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SPEED_OF_SOUND = 343.0


def uca_positions(num_mics, radius):
    """Uniform circular array in the z=0 plane, mic m at angle 2*pi*m/M."""
    if num_mics < 2:
        raise ValueError(f"need at least 2 microphones, got {num_mics}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    angles = 2.0 * np.pi * np.arange(num_mics) / num_mics
    return np.stack([radius * np.cos(angles), radius * np.sin(angles), np.zeros(num_mics)], axis=1)


@dataclass(frozen=True)
class ArraySpec:
    """The array's settings (the config's ``array``), shared by the run
    config, the dataset config and the checkpoint: ``speed_of_sound`` sets
    both the steering vectors and the room simulator."""

    mics: int = field(default=4, metadata={"at least": 2})
    radius_m: float = field(default=0.05, metadata={"greater than": 0})
    speed_of_sound: float = field(default=SPEED_OF_SOUND, metadata={"greater than": 0})
    positions: tuple[tuple[float, float, float], ...] | None = None  # per mic; overrides the UCA

    def __post_init__(self):
        if self.positions is None:
            return
        if len(self.positions) != self.mics:
            raise ValueError(
                f"array.positions lists {len(self.positions)} microphones "
                f"but array.mics is {self.mics}"
            )
        pos = self.mic_positions
        for i, j in itertools.combinations(range(self.mics), 2):
            # Positions are unbounded: a difference past the float range is
            # inf, which is far apart, not an error.
            with np.errstate(over="ignore"):
                close = np.allclose(pos[i], pos[j])
            if close:
                raise ValueError(f"array.positions: microphones {i} and {j} coincide")

    @cached_property
    def mic_positions(self):
        """The microphone positions [M x 3] in meters around the array
        center: the explicit ``positions``, else a UCA."""
        if self.positions is None:
            return uca_positions(self.mics, self.radius_m)
        return np.asarray(self.positions, dtype=np.float64)


def doa_unit_vector(azimuth_deg):
    theta = np.deg2rad(azimuth_deg)
    return np.array([np.cos(theta), np.sin(theta), 0.0])


def zone_of_angle(theta_deg, num_zones):
    """Map an azimuth to its 1-based zone index.

    Zone n covers the half-open interval
    (-180/N + (n-1)*360/N, -180/N + n*360/N]; the angle is first
    normalized into (-180/N, 360 - 180/N] so the intervals tile the
    circle without a gap at wraparound.
    """
    theta = np.asarray(theta_deg, dtype=np.float64)
    half = 180.0 / num_zones
    u = np.mod(theta + half, 360.0)
    u = np.where(u == 0.0, 360.0, u)
    zone = np.ceil(u * num_zones / 360.0).astype(np.int64)
    zone = np.clip(zone, 1, num_zones)
    if np.isscalar(theta_deg) or np.ndim(theta_deg) == 0:
        return int(zone)
    return zone


def steering_set(array, zones, freqs_hz):
    """Steering vectors of the ``array`` (an ``ArraySpec``) for the centers
    of ``zones`` azimuthal zones, zone n (1-based) at (n-1)*360/N degrees:
    [N x F x M] complex."""
    kappas = np.stack([doa_unit_vector(n * 360.0 / zones) for n in range(zones)])  # [N x 3]
    proj = kappas @ array.mic_positions.T  # [N x M]
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    phase = (
        2.0 * np.pi / array.speed_of_sound
    ) * freqs[np.newaxis, :, np.newaxis] * proj[:, np.newaxis, :]
    return np.exp(1j * phase)


def ground_truth_map(azimuth_track, num_zones):
    """One-hot [T x N] localization targets; NaN marks inactive frames."""
    track = np.asarray(azimuth_track, dtype=np.float64)
    t_frames = track.shape[0]
    z = np.zeros((t_frames, num_zones))
    active = ~np.isnan(track)
    if np.any(active):
        zones = zone_of_angle(track[active], num_zones)
        z[np.flatnonzero(active), zones - 1] = 1.0
    return z
