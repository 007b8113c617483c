"""Camera orbit trajectories and look-at geometry.

Conventions (fixed for the whole package): world up is +z, azimuth is
measured counter-clockwise from +x, elevation is positive above the xy
plane, and the camera always looks at the origin.  Camera space is
x-right, y-down, z-forward (right-handed).  All angles are degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "CameraPose",
    "Orbit",
    "Camera",
    "DynamicOrbitParams",
    "DEFAULT_FOV_DEG",
    "static_orbit",
    "dynamic_orbit",
    "adaptive_distance",
    "camera_matrix",
]

DEFAULT_FOV_DEG = 33.8
_MAX_ELEVATION_DEG = 89.0


@dataclass(frozen=True)
class CameraPose:
    """Elevation/azimuth pair; azimuth normalized into [0, 360)."""

    elevation_deg: float
    azimuth_deg: float

    def __post_init__(self):
        e = float(self.elevation_deg)
        if not -90.0 <= e <= 90.0:
            raise ValueError(f"elevation {e} outside [-90, 90]")
        if not math.isfinite(float(self.azimuth_deg)):
            raise ValueError(f"azimuth {self.azimuth_deg} is not finite")
        a = math.fmod(float(self.azimuth_deg), 360.0)
        if a < 0.0:
            a += 360.0
        object.__setattr__(self, "elevation_deg", e)
        object.__setattr__(self, "azimuth_deg", a)


@dataclass(frozen=True)
class Orbit:
    """A loop of K poses whose azimuths advance through one revolution."""

    poses: Tuple[CameraPose, ...]

    def __post_init__(self):
        poses = tuple(self.poses)
        object.__setattr__(self, "poses", poses)
        k = len(poses)
        if k < 2:
            raise ValueError("orbit needs at least 2 poses")
        az = np.array([p.azimuth_deg for p in poses])
        deltas = np.mod(np.roll(az, -1) - az, 360.0)
        if np.any(deltas <= 0.0) or np.any(deltas >= 360.0):
            raise ValueError("azimuths must be strictly increasing modulo 360")
        if abs(deltas.sum() - 360.0) > 1e-6:
            raise ValueError("orbit must complete exactly one revolution")

    def __len__(self):
        return len(self.poses)

    @property
    def elevations(self):
        return np.array([p.elevation_deg for p in self.poses])

    @property
    def azimuths(self):
        return np.array([p.azimuth_deg for p in self.poses])


@dataclass(frozen=True)
class DynamicOrbitParams:
    """Controls for the sinusoid-perturbed orbit generator."""

    n_sinusoids: int = 3
    period_range: Tuple[int, int] = (1, 5)
    amplitude_range_deg: Tuple[float, float] = (0.5, 10.0)
    azimuth_noise_std_deg: float = 2.0
    smooth_half_width: int = 1
    max_elevation_deg: float = _MAX_ELEVATION_DEG

    def __post_init__(self):
        n, half, (lo_p, hi_p) = self.n_sinusoids, self.smooth_half_width, self.period_range
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_sinusoids must be an integer >= 1, got {n!r}")
        if not all(isinstance(p, (int, np.integer)) for p in (lo_p, hi_p)) or not 1 <= lo_p <= hi_p:
            raise ValueError(f"period_range must be integers 1 <= lo <= hi, got {(lo_p, hi_p)}")
        lo_a, hi_a = self.amplitude_range_deg
        if not 0.0 <= lo_a <= hi_a < math.inf:
            raise ValueError("amplitude range must be finite with 0 <= lo <= hi")
        if not 0.0 <= self.max_elevation_deg <= 90.0:
            raise ValueError("max elevation must be in [0, 90]")
        if not (0.0 <= self.azimuth_noise_std_deg < math.inf
                and isinstance(half, (int, np.integer)) and half >= 0):
            raise ValueError("noise std must be finite and >= 0, smooth_half_width an integer >= 0")


def _circular_smooth(values, half_width):
    """Wrap-around box filter; linear and shift-equivariant."""
    if half_width == 0:
        return np.asarray(values, dtype=np.float64).copy()
    size = 2 * half_width + 1
    out = np.zeros(len(values))
    for shift in range(-half_width, half_width + 1):
        out += np.roll(values, shift)
    return out / size


def static_orbit(k, elevation_deg, start_azimuth_deg=0.0):
    """Regularly spaced azimuths at a fixed elevation."""
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValueError("orbit needs an integer k >= 2 frames")
    if abs(elevation_deg) > _MAX_ELEVATION_DEG:
        raise ValueError(f"|elevation| must be <= {_MAX_ELEVATION_DEG}")
    poses = tuple(
        CameraPose(elevation_deg, start_azimuth_deg + i * 360.0 / k) for i in range(k)
    )
    return Orbit(poses)


def dynamic_orbit(rng, k, cond_pose, params=DynamicOrbitParams()):
    """Sinusoid-perturbed elevations and noisy azimuths that loop closed.

    Whole-number sinusoid periods make the elevation profile exactly
    K-periodic; the profile is smoothed with a circular box kernel and
    re-centered so frame 0 carries the conditioning pose exactly, then
    clamped to +/-89 degrees.  Azimuth noise is zeroed at frame 0 and
    clipped so the frame ordering survives.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValueError("orbit needs an integer k >= 2 frames")
    cond_e = float(cond_pose.elevation_deg)
    if abs(cond_e) > params.max_elevation_deg:
        raise ValueError("conditioning elevation exceeds the clamp limit")
    lo_p, hi_p = params.period_range
    periods = rng.integers(lo_p, hi_p + 1, size=params.n_sinusoids)
    amps = rng.uniform(*params.amplitude_range_deg, size=params.n_sinusoids)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=params.n_sinusoids)
    i = np.arange(k)
    profile = np.zeros(k)
    for p, a, ph in zip(periods, amps, phases):
        profile += a * np.sin(2.0 * np.pi * p * i / k + ph)
    smoothed = _circular_smooth(profile, params.smooth_half_width)
    elev = np.clip(
        cond_e + smoothed - smoothed[0],
        -params.max_elevation_deg,
        params.max_elevation_deg,
    )
    noise = rng.normal(0.0, params.azimuth_noise_std_deg, size=k)
    noise[0] = 0.0
    step = 360.0 / k
    noise = np.clip(noise, -0.45 * step, 0.45 * step)
    azim = cond_pose.azimuth_deg + i * step + noise
    poses = tuple(CameraPose(e, a) for e, a in zip(elev, azim))
    return Orbit(poses)


def adaptive_distance(bbox_half_extent, fov_deg=DEFAULT_FOV_DEG, margin=1.1):
    """Camera distance that keeps the object's bounding sphere in frame.

    distance = margin * (half_extent * sqrt(3)) / tan(fov/2).  The sqrt(3)
    factor is the bounding-sphere radius of a cube with the given half
    extent; the default margin gives slack for perspective foreshortening
    at the package's narrow default field of view.
    """
    if not 0.0 < bbox_half_extent < math.inf or not 0.0 < margin < math.inf:
        raise ValueError("bbox half extent and margin must be positive and finite")
    if not 0.0 < fov_deg < 180.0:
        raise ValueError("fov must be in (0, 180)")
    radius = bbox_half_extent * math.sqrt(3.0)
    return margin * radius / math.tan(math.radians(fov_deg) / 2.0)


@dataclass(frozen=True)
class Camera:
    """Perspective camera on the view sphere, looking at the origin."""

    pose: CameraPose
    distance: float
    fov_deg: float = DEFAULT_FOV_DEG
    width: int = 64
    height: int = 64

    def __post_init__(self):
        if not 0.0 < self.distance < math.inf:
            raise ValueError("camera distance must be positive and finite")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("fov must be in (0, 180)")
        for size in (self.width, self.height):
            if not isinstance(size, (int, np.integer)) or size < 1:
                raise ValueError("image size must be a positive integer")

    @property
    def position(self):
        """World-space camera center."""
        e = math.radians(self.pose.elevation_deg)
        a = math.radians(self.pose.azimuth_deg)
        return self.distance * np.array(
            [math.cos(e) * math.cos(a), math.cos(e) * math.sin(a), math.sin(e)]
        )

    @property
    def focal_px(self):
        return (self.height / 2.0) / math.tan(math.radians(self.fov_deg) / 2.0)


def camera_matrix(camera):
    """World-to-camera 4x4 transform and 3x3 intrinsics.

    Rows of the rotation are (right, down, forward); at +/-90 degree
    elevation the forward axis is parallel to world up, so a +x fallback
    up-vector is used to fix the roll.
    """
    center = camera.position
    forward = -center / np.linalg.norm(center)
    axis = forward.tolist()
    side = _cross(axis, (0.0, 0.0, 1.0))
    norm = np.linalg.norm(side)
    if norm < 1e-9:
        side = _cross(axis, (1.0, 0.0, 0.0))
        norm = np.linalg.norm(side)
    right = side / norm
    down = _cross(axis, right.tolist())
    rot = np.stack([right, down, forward])
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = rot
    extrinsic[:3, 3] = -rot @ center
    f = camera.focal_px
    intrinsic = np.array(
        [[f, 0.0, camera.width / 2.0], [0.0, f, camera.height / 2.0], [0.0, 0.0, 1.0]]
    )
    return extrinsic, intrinsic


def _cross(a, b):
    """a x b of two 3-vectors given as floats, component by component: ``np.cross``'s
    products and differences without its set-up, which costs more than the arithmetic."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
