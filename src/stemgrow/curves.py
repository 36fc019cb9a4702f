"""Arclength grids, tangent integration, and rotation kernels.

The stem is represented by its unit tangent field on a uniform arclength grid;
positions are recovered by quadrature from the base point. Rotations are applied
through the exponential map of a rotation vector (axis times angle), evaluated
in closed form with a series branch near zero angle.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def cross_matrix(w: np.ndarray) -> np.ndarray:
    """Matrix W with W v = w x v."""
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrix exp(W) for the rotation vector w.

    Solves v' = w x v over unit time: R = I + a(t) W + b(t) W^2 with t = |w|,
    a = sin t / t, b = (1 - cos t) / t^2.
    """
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    a, b = _rot_coeffs(np.float64(theta))
    mat = cross_matrix(w)
    return np.eye(3) + float(a) * mat + float(b) * (mat @ mat)


def rotate_vectors(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation exp([w_i]) to v_i for every row i.

    Uses R v = v + a (w x v) + b (w x (w x v)) so zero rotation vectors need
    no branch. Rows with identical (w, v) produce bitwise identical output.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    a, b = _rot_coeffs(theta)
    wxv = cross(w, v)
    wxwxv = cross(w, wxv)
    return v + a * wxv + b * wxwxv


@dataclass
class ArclengthGrid:
    """Uniform grid 0 = s_0 < s_1 < ... over the material parameter."""

    ds: float
    nodes: np.ndarray

    @classmethod
    def uniform(cls, ds: float, n_cells: int) -> "ArclengthGrid":
        if ds <= 0.0:
            raise ValueError(f"grid spacing must be positive, got {ds}")
        if n_cells < 0:
            raise ValueError(f"cell count must be >= 0, got {n_cells}")
        return cls(ds=ds, nodes=ds * np.arange(n_cells + 1, dtype=float))


def chord_steps(k: np.ndarray, ds: float) -> np.ndarray:
    """Per-cell displacement ds * (k_i + k_{i+1}) / 2."""
    return (0.5 * ds) * (k[:-1] + k[1:])


def integrate_tangents(k: np.ndarray, ds: float) -> np.ndarray:
    """Positions from tangents: trapezoid accumulation from the origin.

    Exact for constant tangent fields; each chord has length at most the grid
    spacing because the averaged tangents have norm at most one.
    """
    pos = np.zeros_like(k)
    np.cumsum(chord_steps(k, ds), axis=0, out=pos[1:])
    return pos


def angular_displacement_profile(omega: np.ndarray, ds: float) -> np.ndarray:
    """Left-endpoint cumulative integral of a rotation density at every node.

    Returns P with P_i = ds * sum_{l < i} omega_l, so P_0 = 0.
    """
    prof = np.zeros_like(omega)
    if omega.shape[0] > 1:
        np.cumsum(ds * omega[:-1], axis=0, out=prof[1:])
    return prof
