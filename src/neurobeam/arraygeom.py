"""Microphone array geometry, free-field steering vectors, and the
azimuthal zone grid with its ground-truth mapping.

Azimuths are degrees counter-clockwise from the +x axis, elevation fixed
at zero (in-plane DOA). The DOA unit vector points from the array toward
the source, and the wave vector is k = -(2*pi*f/c) * doa, so a microphone
at position r carries the phase factor exp(+j * (2*pi*f/c) * doa . r).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions [M x 3] in meters around the array center."""

    positions: np.ndarray
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "positions", pos)
        if pos.shape[0] < 2:
            raise ValueError(f"need at least 2 microphones, got {pos.shape[0]}")
        for i in range(pos.shape[0]):
            for j in range(i + 1, pos.shape[0]):
                if np.allclose(pos[i], pos[j]):
                    raise ValueError(f"microphones {i} and {j} coincide")

    @property
    def num_mics(self):
        return self.positions.shape[0]


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
        if self.positions is not None and len(self.positions) != self.mics:
            raise ValueError(
                f"array.positions lists {len(self.positions)} microphones "
                f"but array.mics is {self.mics}"
            )

    def geometry(self):
        """The configured array: explicit ``positions`` [M x 3], else a UCA."""
        positions = self.positions
        if positions is None:
            positions = uca_positions(self.mics, self.radius_m)
        return ArrayGeometry(np.asarray(positions, dtype=np.float64), self.speed_of_sound)


def doa_unit_vector(azimuth_deg):
    theta = np.deg2rad(azimuth_deg)
    return np.array([np.cos(theta), np.sin(theta), 0.0])


@dataclass(frozen=True)
class ZoneGrid:
    """N azimuthal zones; zone n (1-based) is centered at (n-1)*360/N degrees."""

    num_zones: int

    def __post_init__(self):
        if self.num_zones < 2:
            raise ValueError(f"need at least 2 zones, got {self.num_zones}")

    @property
    def centers_deg(self):
        return np.arange(self.num_zones) * 360.0 / self.num_zones


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


def steering_set(geom, grid, freqs_hz):
    """Steering vectors for every zone center: [N x F x M] complex."""
    kappas = np.stack([doa_unit_vector(c) for c in grid.centers_deg])  # [N x 3]
    proj = kappas @ geom.positions.T  # [N x M]
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    phase = (
        2.0 * np.pi / geom.speed_of_sound
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
