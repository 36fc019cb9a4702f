"""Rigid obstacles and signed-distance queries.

A scene is a finite union of convex obstacles; its signed distance is the
minimum of the member distances (positive outside, negative inside). Normal
queries return the gradient of the active member's distance and are only
meaningful near a surface; the caller hands over the members' distances at
the query point, so the query measures none of them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _columns, _norm_columns
from .errors import DegenerateGradient, NoNearbyBoundary, ValidationError


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    # huge finite components overflow the norm; v / inf would be the zero vector
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if not (math.isfinite(n) and n >= 1e-12):
        raise ValidationError(f"{what} must be a nonzero vector with a finite norm")
    return v / n


@dataclass
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0.0:
            raise ValidationError(f"sphere radius must be positive, got {self.radius}")

    def distances(self, x: np.ndarray) -> np.ndarray:
        c0, c1, c2 = self.center
        x0, x1, x2 = _columns(x)
        return _norm_columns((x0 - c0, x1 - c1, x2 - c2)) - self.radius

    def normal(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        n = float(np.linalg.norm(d))
        if n < 1e-12:
            raise DegenerateGradient("normal query at sphere center")
        return d / n


@dataclass
class HalfSpace:
    """Obstacle filling the side of a plane opposite to outward_normal.

    outward_normal is kept as given, so a config writes it back unchanged;
    the geometry uses its normalization unit_normal.
    """

    point: np.ndarray
    outward_normal: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.outward_normal = np.asarray(self.outward_normal, dtype=float)
        self.unit_normal = _unit(self.outward_normal, "half_space.outward_normal")

    def distances(self, x: np.ndarray) -> np.ndarray:
        return (x - self.point) @ self.unit_normal

    def normal(self, x: np.ndarray) -> np.ndarray:
        return self.unit_normal


@dataclass
class Cylinder:
    """Infinite cylinder around the line through axis_point along axis.

    axis is kept as given; the geometry uses its normalization unit_axis.
    """

    axis_point: np.ndarray
    axis: np.ndarray
    radius: float

    def __post_init__(self):
        self.axis_point = np.asarray(self.axis_point, dtype=float)
        self.axis = np.asarray(self.axis, dtype=float)
        self.unit_axis = _unit(self.axis, "cylinder.axis")
        if self.radius <= 0.0:
            raise ValidationError(f"cylinder radius must be positive, got {self.radius}")

    def _radial(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Components of each point's offset from the axis, perpendicular to it."""
        d = x - self.axis_point
        along = d @ self.unit_axis
        d0, d1, d2 = _columns(d)
        u0, u1, u2 = self.unit_axis
        return d0 - along * u0, d1 - along * u1, d2 - along * u2

    def distances(self, x: np.ndarray) -> np.ndarray:
        return _norm_columns(self._radial(x)) - self.radius

    def normal(self, x: np.ndarray) -> np.ndarray:
        r = np.stack(self._radial(x), axis=-1)
        n = float(np.linalg.norm(r))
        if n < 1e-12:
            raise DegenerateGradient("normal query on cylinder axis")
        return r / n


@dataclass
class Scene:
    obstacles: list = field(default_factory=list)

    def validate(self, min_separation: float) -> None:
        for a_i, a in enumerate(self.obstacles):
            for b in self.obstacles[a_i + 1 :]:
                gap = _pair_gap(a, b)
                if gap <= min_separation:
                    raise ValidationError(
                        f"scene.obstacles: surfaces of {type(a).__name__} and "
                        f"{type(b).__name__} are separated by {gap:.3e}, "
                        f"need more than {min_separation:.3e}"
                    )


def _pair_gap(a, b) -> float:
    """Surface-to-surface separation; -inf when the pair overlaps structurally."""
    if isinstance(a, HalfSpace) and not isinstance(b, HalfSpace):
        a, b = b, a
    if isinstance(a, Cylinder) and isinstance(b, Sphere):
        a, b = b, a

    if isinstance(a, Sphere) and isinstance(b, Sphere):
        return float(np.linalg.norm(a.center - b.center)) - a.radius - b.radius
    if isinstance(a, Sphere) and isinstance(b, HalfSpace):
        return float(b.distances(a.center)) - a.radius
    if isinstance(a, Sphere) and isinstance(b, Cylinder):
        return float(b.distances(a.center[None, :])[0]) - a.radius
    if isinstance(a, Cylinder) and isinstance(b, HalfSpace):
        if abs(float(a.unit_axis @ b.unit_normal)) > 1e-9:
            return -np.inf
        return float(b.distances(a.axis_point)) - a.radius
    if isinstance(a, Cylinder) and isinstance(b, Cylinder):
        cr = np.cross(a.unit_axis, b.unit_axis)
        off = b.axis_point - a.axis_point
        if np.linalg.norm(cr) < 1e-9:
            perp = off - (off @ a.unit_axis) * a.unit_axis
            return float(np.linalg.norm(perp)) - a.radius - b.radius
        return abs(float(off @ cr)) / float(np.linalg.norm(cr)) - a.radius - b.radius
    if isinstance(a, HalfSpace) and isinstance(b, HalfSpace):
        if float(a.unit_normal @ b.unit_normal) > -1.0 + 1e-9:
            return -np.inf
        return float((b.point - a.point) @ a.unit_normal)
    raise TypeError(f"unsupported obstacle pair {type(a).__name__}/{type(b).__name__}")


def signed_distances(scene: Scene, points: np.ndarray) -> np.ndarray:
    """Scene distance at each point of a float array of points; +inf for an empty scene."""
    if not scene.obstacles:
        return np.full(points.shape[:-1], np.inf)
    first, *rest = scene.obstacles
    phi = first.distances(points)
    # the pairwise minimum in obstacle order, as the minimum over stacked distances takes it
    for ob in rest:
        phi = np.minimum(phi, ob.distances(points))
    return phi


def outer_normal(scene: Scene, x: np.ndarray, dists, band_width: float) -> np.ndarray:
    """Unit normal of the nearest obstacle surface at x, pointing out of the obstacle.

    dists holds each obstacle's distance at x, in scene order, as measured
    by its distances(), for a scene with at least one obstacle; the nearest
    surface is the first with the least. The query errors unless the point
    lies within band_width of that surface.
    """
    best = min(range(len(dists)), key=dists.__getitem__)
    if abs(dists[best]) > band_width:
        raise NoNearbyBoundary(
            f"nearest surface is {dists[best]:.3e} away, band is {band_width:.3e}"
        )
    return scene.obstacles[best].normal(x)
