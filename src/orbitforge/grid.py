"""Voxel scene representation.

A SceneGrid stores a scalar field (density or signed distance) plus RGB
albedo on an n^3 lattice of nodes spanning the unit cube [-0.5, 0.5]^3,
node spacing 1/(n-1).  SDF grids carry the sigmoid parameters that turn
signed distance into density.  The trilinear gather over the nodes and
its adjoint scatter live in the render kernel (``_render_np``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "SceneGrid",
    "ImageBundle",
    "sdf_to_density",
    "node_gradient",
]

GRID_KINDS = ("density", "sdf")


def sdf_to_density(sdf_value, alpha, beta):
    """Differentiable density from signed distance: alpha*sigmoid(-sdf/beta).

    Monotone decreasing in the SDF; alpha is the interior density and beta
    the transition width.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    return alpha * expit(-np.asarray(sdf_value, dtype=np.float64) / beta)


@dataclass
class SceneGrid:
    """Scalar-field + albedo voxel grid over the unit cube."""

    kind: str
    field: np.ndarray
    albedo: np.ndarray
    sdf_alpha: float = 150.0
    sdf_beta: float = 0.02

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        self.field = np.ascontiguousarray(self.field, dtype=np.float64)
        self.albedo = np.ascontiguousarray(self.albedo, dtype=np.float64)
        n = self.field.shape[0]
        if self.field.shape != (n, n, n) or n < 2:
            raise ValueError("field must be cubic with resolution >= 2")
        if self.albedo.shape != (n, n, n, 3):
            raise ValueError("albedo must be (n, n, n, 3)")
        # min and max propagate NaN, so these bounds also reject non-finite values.
        lo, hi = self.field.min(), self.field.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("field must be finite")
        if self.kind == "density" and lo < 0.0:
            raise ValueError("density field must be >= 0")
        if not (self.albedo.min() >= 0.0 and self.albedo.max() <= 1.0):
            raise ValueError("albedo must lie in [0, 1]")
        if not (np.isfinite(self.sdf_alpha) and np.isfinite(self.sdf_beta)):
            raise ValueError("sdf_alpha and sdf_beta must be finite")
        if self.kind == "sdf" and (self.sdf_alpha <= 0.0 or self.sdf_beta <= 0.0):
            raise ValueError("sdf grids need positive alpha and beta")

    @property
    def resolution(self):
        return self.field.shape[0]

    @property
    def spacing(self):
        return 1.0 / (self.resolution - 1)

    @classmethod
    def empty(cls, kind, resolution, fill=0.0, albedo=0.5, **kwargs):
        n = resolution
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"resolution must be an integer >= 2, got {n!r}")
        return cls(
            kind,
            np.full((n, n, n), float(fill)),
            np.full((n, n, n, 3), float(albedo)),
            **kwargs,
        )


@dataclass
class ImageBundle:
    """Per-view render buffers.

    depth is camera-ray distance with +inf for misses; normals are unit
    vectors where mask >= 0.01 and zero elsewhere; illum is the
    opacity-weighted mean irradiance along each hit ray.
    """

    rgb: np.ndarray
    depth: np.ndarray
    mask: np.ndarray
    normal: np.ndarray
    illum: np.ndarray

    VALID_MASK = 0.01

    @property
    def valid(self):
        return (self.mask >= self.VALID_MASK) & np.isfinite(self.depth)


def node_gradient(field, spacing):
    """Per-node spatial gradient via central differences (one-sided edges).

    ``np.gradient``'s arithmetic, (f[i+1] - f[i-1]) / (2.0*h) inside and
    one-sided differences divided by h on the faces, written straight into
    the output, so that no full-size temporary is built.
    """
    field = np.asarray(field, dtype=np.float64)
    out = np.empty(field.shape + (3,))
    for axis in range(3):
        f = np.moveaxis(field, axis, 0)
        g = np.moveaxis(out[..., axis], axis, 0)
        np.subtract(f[2:], f[:-2], out=g[1:-1])
        g[1:-1] /= 2.0 * spacing
        np.subtract(f[1], f[0], out=g[0])
        g[0] /= spacing
        np.subtract(f[-1], f[-2], out=g[-1])
        g[-1] /= spacing
    return out
