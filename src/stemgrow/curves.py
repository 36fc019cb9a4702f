"""The stem's geometry, tangent integration, cumulative rotation, and the rotation maps.

The stem is represented by its unit tangent field on a uniform arclength grid;
positions are recovered by quadrature from the base point. Stem holds the
grid spacing and the tangents and is the one place that derives the rest:
the node count, the time, the arclength grid and the positions.

A vector is turned by one of two maps. rotate_vectors applies the
exponential map of a rotation vector w, a rotation by |w| about w, in
Rodrigues' closed form v + a (w x v) + b (w x (w x v)) with a series branch
near zero angle; seeds and their tilts take it, since their angles reach pi.
cayley_vectors applies the Cayley map in its half-angle form: handed the
half vector u = w / 2, it writes v + c (u x (v + u x v)) with
c = 2 / (1 + |u|^2), the rotation about u by 2 atan(|u|) =
|w| - |w|^3 / 12 + ..., with one division and no square root, sine or
cosine. The stepper turns every tangent by it each step: a step's angles are
of order dt, where the two maps differ by O(dt^3), far below the scheme's
first-order error, and the map is still an exact rotation, so tangents stay
unit.

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


def _square_norm_columns(x):
    """Squared Euclidean length from components, summed in numpy.linalg.norm's order."""
    x0, x1, x2 = x
    return x0 * x0 + x1 * x1 + x2 * x2


def _norm_columns(x):
    """Euclidean length from components, bitwise equal to numpy.linalg.norm over the last axis."""
    return np.sqrt(_square_norm_columns(x))


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


def _rot_coeffs(w) -> tuple[np.ndarray, np.ndarray]:
    """Return (sin t / t, (1 - cos t) / t^2) with t = |w| from the component columns of w.

    Series-expanded below t = 1e-6: the closed forms are taken over the whole
    array and then replaced at the few small angles, such as the zero
    rotation at the base node, where they read 0 / 0.
    """
    theta = _norm_columns(w)
    with np.errstate(invalid="ignore"):
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    small = np.flatnonzero(theta < 1e-6)
    if small.size:
        t2 = theta[small] * theta[small]
        a[small] = 1.0 - t2 / 6.0
        b[small] = 0.5 - t2 / 24.0
    return a, b


def _row_operands(w, v, out):
    """The component columns of w and of v, out (made when None) and out as rows.

    A single vector, shape (3,), stands for one row, and its column pairs
    with every row of the other operand.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(w.shape, v.shape))
    rows = out if out.ndim == 2 else out[None]
    return _columns(w.reshape(-1, 3)), _columns(v.reshape(-1, 3)), out, rows


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
    wc, vc, out, rows = _row_operands(w, v, out)
    a, b = _rot_coeffs(wc)
    wxv = _cross_columns(wc, vc)
    wxwxv = _cross_columns(wc, wxv)
    for i in range(3):
        np.add(vc[i] + a * wxv[i], b * wxwxv[i], out=rows[:, i])
    return out


def cayley_vectors(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Turn each v_i by the Cayley map of the half vector u_i; shapes as in rotate_vectors.

    The Cayley map (I - [u])^-1 (I + [u]) is the rotation about u by
    2 atan(|u|), the Cayley map of w = 2 u in its usual form. It writes
    v + c (u x (v + u x v)) with c = 2 / (1 + |u|^2), |u|^2 summed as
    _norm_columns sums it and no square root taken, component column by
    column in the order of operations of that row form.
    """
    uc, vc, out, rows = _row_operands(u, v, out)
    c = 2.0 / (1.0 + _square_norm_columns(uc))
    inner = _cross_columns(uc, vc)
    for vi, col in zip(vc, inner):
        np.add(vi, col, out=col)
    for i, col in enumerate(_cross_columns(uc, inner)):
        np.add(vc[i], np.multiply(c, col, out=col), out=rows[:, i])
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
