"""The stem's geometry, tangent integration, cumulative rotation, and the rotation kernel.

The stem is represented by its unit tangent field on a uniform arclength grid;
positions are recovered by quadrature from the base point. Stem holds the
grid spacing and the tangents and is the one place that derives the rest:
the node count, the time, the arclength grid and the positions. Rotations are
applied through the exponential map of a rotation vector (axis times angle),
evaluated in closed form with a series branch near zero angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _rot_coeffs(theta):
    """Return (sin t / t, (1 - cos t) / t^2), series-expanded below 1e-6."""
    t2 = theta * theta
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    return a, b


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b over the last axis, broadcasting the leading axes.

    Built from components in numpy's own multiply-then-subtract order, so the
    bits match numpy.cross; skipping its axis handling makes it about twice as
    fast on the small arrays the stepper passes.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def rotate_vectors(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation exp([w_i]) to v_i for every row i; one w may rotate every row.

    exp([w]) solves v' = w x v over unit time. Uses Rodrigues' formula
    R v = v + a (w x v) + b (w x (w x v)) with t = |w|, a = sin t / t and
    b = (1 - cos t) / t^2, so zero rotation vectors need no branch. Rows
    with identical (w, v) produce bitwise identical output.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    a, b = _rot_coeffs(theta)
    wxv = cross(w, v)
    wxwxv = cross(w, wxv)
    return v + a * wxv + b * wxwxv


def integrate_tangents(k: np.ndarray, ds: float) -> np.ndarray:
    """Positions from tangents: trapezoid accumulation from the origin.

    Each cell moves by ds * (k_i + k_{i+1}) / 2. Exact for constant tangent
    fields; each chord has length at most the grid spacing because the
    averaged tangents have norm at most one.
    """
    pos = np.zeros_like(k)
    np.cumsum((0.5 * ds) * (k[:-1] + k[1:]), axis=0, out=pos[1:])
    return pos


def angular_displacement_profile(omega: np.ndarray, ds: float) -> np.ndarray:
    """Left-endpoint cumulative integral of a rotation density at every node.

    Returns P with P_i = ds * sum_{l < i} omega_l, so P_0 = 0.
    """
    prof = np.zeros_like(omega)
    if omega.shape[0] > 1:
        np.cumsum(ds * omega[:-1], axis=0, out=prof[1:])
    return prof


@dataclass
class Stem:
    """The grown stem: unit tangents k at nodes 0..n_grown on a grid of spacing ds.

    One cell grows per step of length ds, so the time is t = ds * n_grown.
    The arclength grid s and the positions gamma are derived from ds and k on
    first use and then kept; k is never written after the stem is made.
    """

    ds: float
    k: np.ndarray
    n_grown: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_grown = len(self.k) - 1

    @property
    def t(self) -> float:
        return self.ds * self.n_grown

    @cached_property
    def s(self) -> np.ndarray:
        return self.ds * np.arange(self.n_grown + 1, dtype=float)

    @cached_property
    def gamma(self) -> np.ndarray:
        return integrate_tangents(self.k, self.ds)
