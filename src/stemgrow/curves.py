"""The stem's geometry, tangent integration, cumulative rotation, and the rotation kernel.

The stem is represented by its unit tangent field on a uniform arclength grid;
positions are recovered by quadrature from the base point. Stem holds the
grid spacing and the tangents and is the one place that derives the rest:
the node count, the time, the arclength grid and the positions. Rotations are
applied through the exponential map of a rotation vector (axis times angle),
evaluated in closed form with a series branch near zero angle.

The per-node kernels work on component columns, one (n,) array per axis,
rather than broadcasting over (n, 3) rows, whose inner loops run three
elements at a time. Lengths and cross products of components come from the
helpers here, in numpy's own order of operations, so a kernel written on
columns gives the bits of its row form: the cross product's order lives in
_cross_columns alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three components of x, views of its last axis."""
    return x[..., 0], x[..., 1], x[..., 2]


def _norm_columns(x):
    """Euclidean length from components, bitwise equal to numpy.linalg.norm over the last axis."""
    x0, x1, x2 = x
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _cross_columns(a, b, out=(None, None, None)):
    """Components of a x b from the components of a and of b, in numpy.cross's order.

    Each component is written to its array of out when one is given.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    o0, o1, o2 = out
    return (
        np.subtract(a1 * b2, a2 * b1, out=o0),
        np.subtract(a2 * b0, a0 * b2, out=o1),
        np.subtract(a0 * b1, a1 * b0, out=o2),
    )


def _rot_coeffs(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sin t / t, (1 - cos t) / t^2), series-expanded below 1e-6.

    The closed forms are taken over the whole array and then replaced at the
    few small angles, such as the zero rotation at the base node, where they
    read 0 / 0.
    """
    with np.errstate(invalid="ignore"):
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    small = np.flatnonzero(theta < 1e-6)
    if small.size:
        t2 = theta[small] * theta[small]
        a[small] = 1.0 - t2 / 6.0
        b[small] = 0.5 - t2 / 24.0
    return a, b


def rotate_vectors(w: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the rotation exp([w_i]) to v_i for every row i; one w may rotate every row.

    w and v are float arrays, each one vector, shape (3,), or n rows, shape
    (n, 3); a single w rotates every row of v and a single v is rotated by
    every row of w. The result has the broadcast shape and is written to out
    when one is given.
    exp([w]) solves v' = w x v over unit time. Uses Rodrigues' formula
    R v = v + a (w x v) + b (w x (w x v)) with t = |w|, a = sin t / t and
    b = (1 - cos t) / t^2, so zero rotation vectors need no branch. The
    formula is evaluated one component column at a time, in the order of
    operations of its row form, so that rows with identical (w, v) produce
    bitwise identical output whatever their neighbours.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(w.shape, v.shape))
    wc = _columns(w.reshape(-1, 3))
    vc = _columns(v.reshape(-1, 3))
    a, b = _rot_coeffs(_norm_columns(wc))
    wxv = _cross_columns(wc, vc)
    wxwxv = _cross_columns(wc, wxv)
    rows = out if out.ndim == 2 else out[None]
    for i in range(3):
        np.add(vc[i] + a * wxv[i], b * wxwxv[i], out=rows[:, i])
    return out


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
