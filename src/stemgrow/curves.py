"""The stem's geometry, tangent integration, cumulative rotation, and the rotation maps.

The stem is represented by its unit tangent field on a uniform arclength grid;
positions are recovered by quadrature from the base point. Stem holds the
grid spacing and the tangents and is the one place that derives the rest:
the node count, the time, the arclength grid and the positions.

A rotation vector w turns a vector by one of two maps, both evaluated by the
one Rodrigues body v + a (w x v) + b (w x (w x v)) and differing only in
their coefficients. rotate_vectors applies the exponential map, a rotation
by |w| about w, in closed form with a series branch near zero angle; seeds
and their tilts take it, since their angles reach pi. cayley_vectors applies
the Cayley map, a rotation by 2 atan(|w| / 2) = |w| - |w|^3 / 12 + ... about
w, whose coefficients take one division and no square root, sine or cosine.
The stepper turns every tangent by it each step: a step's angles are of
order dt, where the two maps differ by O(dt^3), far below the scheme's
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


def _cayley_coeffs(w) -> tuple[np.ndarray, np.ndarray]:
    """Return (4 / (4 + |w|^2), a / 2) from the component columns of w.

    Exact at w = 0, where they read (1, 1/2), so no angle needs a branch.
    """
    a = 4.0 / (4.0 + _square_norm_columns(w))
    return a, 0.5 * a


def _rodrigues(w, v, out, coeffs):
    """Write v_i + a_i (w_i x v_i) + b_i (w_i x (w_i x v_i)) for every row i to out.

    coeffs maps the component columns of w to the columns a and b. The
    formula is evaluated one component column at a time, in the order of
    operations of its row form, so that rows with identical (w, v) produce
    bitwise identical output whatever their neighbours.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(w.shape, v.shape))
    wc = _columns(w.reshape(-1, 3))
    vc = _columns(v.reshape(-1, 3))
    a, b = coeffs(wc)
    wxv = _cross_columns(wc, vc)
    wxwxv = _cross_columns(wc, wxv)
    rows = out if out.ndim == 2 else out[None]
    for i in range(3):
        np.add(vc[i] + a * wxv[i], b * wxwxv[i], out=rows[:, i])
    return out


def rotate_vectors(w: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the rotation exp([w_i]) to v_i for every row i; one w may rotate every row.

    w and v are float arrays, each one vector, shape (3,), or n rows, shape
    (n, 3); a single w rotates every row of v and a single v is rotated by
    every row of w. The result has the broadcast shape and is written to out
    when one is given.
    exp([w]) solves v' = w x v over unit time. Uses Rodrigues' formula
    R v = v + a (w x v) + b (w x (w x v)) with t = |w|, a = sin t / t and
    b = (1 - cos t) / t^2, so zero rotation vectors need no branch.
    """
    return _rodrigues(w, v, out, _rot_coeffs)


def cayley_vectors(w: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the Cayley map of w_i to v_i for every row i; shapes as in rotate_vectors.

    The Cayley map (I - [w]/2)^-1 (I + [w]/2) is the rotation about w by
    2 atan(|w| / 2). In Rodrigues' form R v = v + a (w x v) + b (w x (w x v))
    its coefficients are a = 4 / (4 + |w|^2) and b = a / 2, with |w|^2 summed
    as _norm_columns sums it and no square root taken.
    """
    return _rodrigues(w, v, out, _cayley_coeffs)


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
