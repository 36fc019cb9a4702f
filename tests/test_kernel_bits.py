"""The per-node kernels, written on component columns, against their row forms.

Each kernel below evaluates its formula one component column at a time
instead of broadcasting over (n, 3) rows. That must not change a single bit
of any frame, so each is compared bitwise, through a uint64 view that also
tells -0.0 from 0.0, with the row-form expression written out here: numpy's
own norm, cross product and row broadcasts, in the same order of operations.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.curves import _columns, _norm_columns, rotate_vectors
from stemgrow.diagnostics import UNIT_TOL, audit_arrays, rotation_field
from stemgrow.growth import GrowthLaw, psi_field
from stemgrow.obstacles import Cylinder, Scene, Sphere
from stemgrow.reaction import _scale_rows

BITS = settings(derandomize=True, deadline=None, max_examples=200)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


# -- row forms ---------------------------------------------------------------


def rotate_rows(w, v):
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    t2 = theta * theta
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    wxv = np.cross(w, v)
    wxwxv = np.cross(w, wxv)
    return v + a * wxv + b * wxwxv


def psi_rows(law, t, s, k):
    coeff = law._coeff(np.maximum(t - s, 0.0))
    return coeff[:, None] * np.cross(k, law.unit_up)


def rotation_rows(k1, k2):
    normal = np.cross(k1, k2)
    dot = np.einsum("id,id->i", k1, k2)
    sin = np.linalg.norm(normal, axis=1)
    angle = np.arctan2(sin, dot)
    safe = np.where(sin < 1e-15, 1.0, sin)
    axis = normal / safe[:, None]
    w = angle[:, None] * axis
    w[sin < 1e-15] = 0.0
    return w


def sphere_rows(sphere, x):
    return np.linalg.norm(x - sphere.center, axis=-1) - sphere.radius


def cylinder_rows(cyl, x):
    d = x - cyl.axis_point
    r = d - np.multiply.outer(d @ cyl.unit_axis, cyl.unit_axis)
    return np.linalg.norm(r, axis=-1) - cyl.radius


# -- operands ----------------------------------------------------------------

_unit = st.floats(-1.0, 1.0, allow_nan=False)
# rotation angles on both sides of the series branch at 1e-6, zero included
_scales = st.one_of(
    st.sampled_from(
        [0.0, 1e-300, 1e-9, 5e-7, 9.999999e-7, 1e-6, 1.0000001e-6, 2e-6, 1e-3, 1.0, 3.0, 50.0]
    ),
    st.floats(1e-12, 1e2),
)


@st.composite
def rotation_vectors(draw, n):
    """n rotation vectors, each a direction times a scale; n None draws one vector."""
    rows = 1 if n is None else n
    out = np.empty((rows, 3))
    for i in range(rows):
        direction = draw(arrays(np.float64, 3, elements=_unit))
        out[i] = draw(_scales) * direction
    if n is not None and n and draw(st.booleans()):
        out[0] = 0.0  # the base node never rotates
    return out[0] if n is None else out


def vectors(n):
    # zero components leave the small rotation terms unmasked by the vector itself
    shape = 3 if n is None else (n, 3)
    elements = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))
    return arrays(np.float64, shape, elements=elements)


@st.composite
def rotate_operands(draw):
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["rows", "one w", "one w one v", "one v"]))
    w = draw(rotation_vectors(None if kind.startswith("one w") else n))
    v = draw(vectors(None if kind in ("one w one v", "one v") else n))
    return w, v


@settings(derandomize=True, deadline=None, max_examples=400)
@given(rotate_operands())
@example((np.zeros((3, 3)), np.eye(3)))
# |w| is 1e-6 to the bit, the first angle off the series branch; the second
# component of the first row is b alone, and the branch changes it
@example((np.array([6e-7, 8e-7, 0.0]), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])))
@example((np.array([[0.0, 0.0, 0.0], [9.9e-7, 0.0, 0.0], [1.1e-6, 0.0, 0.0]]), np.ones((3, 3))))
def test_rotate_vectors_is_bitwise_the_row_form(operands):
    w, v = operands
    assert same_bits(rotate_vectors(w, v), rotate_rows(w, v))


@BITS
@given(rotate_operands())
def test_rotate_vectors_into_out_is_bitwise_the_row_form(operands):
    w, v = operands
    out = np.full(np.broadcast_shapes(w.shape, v.shape), np.nan)
    assert rotate_vectors(w, v, out=out) is out
    assert same_bits(out, rotate_rows(w, v))


@st.composite
def growth_operands(draw):
    variant = draw(st.sampled_from(["gravitropic", "zero", "custom"]))
    n = draw(st.integers(1, 12))
    ds = draw(st.floats(1e-3, 0.5))
    s = ds * np.arange(n)
    t = s[-1] + draw(st.sampled_from([0.0, 1e-12, 0.3, 7.0]))
    up = draw(arrays(np.float64, 3, elements=_unit).filter(lambda u: np.linalg.norm(u) > 1e-3))
    law = GrowthLaw(
        variant=variant,
        beta=draw(st.floats(0.0, 5.0)),
        gain=draw(st.floats(0.0, 1e3)),
        up=up,
        ages=np.array([0.0, 1.0, 4.0]) if variant == "custom" else None,
        response=np.array([1.0, -0.5, 0.25]) if variant == "custom" else None,
    )
    k = draw(vectors(n))
    return law, t, s, k


@BITS
@given(growth_operands())
def test_psi_field_is_bitwise_the_row_form(operands):
    law, t, s, k = operands
    assert same_bits(psi_field(law, t, s, k), psi_rows(law, t, s, k))


def unit_rows(n):
    """n unit vectors."""
    return (
        arrays(np.float64, (n, 3), elements=_unit)
        .filter(lambda x: np.all(np.linalg.norm(x, axis=1) > 1e-3))
        .map(lambda x: x / np.linalg.norm(x, axis=1, keepdims=True))
    )


@st.composite
def tangent_pairs(draw):
    """Two unit tangent fields, some rows equal, some a round-off apart, none antipodal."""
    n = draw(st.integers(1, 12))
    k1 = draw(unit_rows(n))
    k2 = k1.copy()
    for i in range(n):
        scale = draw(st.sampled_from([0.0, 1e-17, 1e-16, 1e-15, 1e-8, 0.1, 1.0]))
        row = k1[i] + scale * draw(arrays(np.float64, 3, elements=_unit))
        row /= np.linalg.norm(row)
        if row @ k1[i] > -0.99:
            k2[i] = row
    return k1, k2


@BITS
@given(tangent_pairs())
@example((np.eye(3), np.eye(3)))
@example((np.array([[0.0, 0.6, 0.8]]), np.array([[0.0, 0.6, 0.8 + 1e-16]])))
def test_rotation_field_is_bitwise_the_row_form(pair):
    k1, k2 = pair
    assert same_bits(rotation_field(k1, k2), rotation_rows(k1, k2))


_points = st.sampled_from([(3,), (1, 3), (7, 3), (2, 4, 3)]).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3, allow_nan=False))
)


@BITS
@given(
    arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)),
    st.floats(1e-3, 10.0),
    _points,
)
def test_sphere_distances_are_bitwise_the_row_form(center, radius, x):
    sphere = Sphere(center, radius)
    assert same_bits(sphere.distances(x), sphere_rows(sphere, x))


@BITS
@given(
    arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)),
    arrays(np.float64, 3, elements=_unit).filter(lambda u: np.linalg.norm(u) > 1e-3),
    st.floats(1e-3, 10.0),
    _points,
)
def test_cylinder_distances_are_bitwise_the_row_form(point, axis, radius, x):
    cyl = Cylinder(point, axis, radius)
    assert same_bits(cyl.distances(x), cylinder_rows(cyl, x))


@BITS
@given(_points)
def test_component_norm_is_bitwise_numpy_norm(x):
    # the tangent norms audit_arrays checks, and every length above
    assert same_bits(_norm_columns(_columns(x)), np.linalg.norm(x, axis=-1))


@BITS
@given(st.integers(1, 12).flatmap(unit_rows), st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0]))
def test_audit_flags_tangent_norms_as_the_row_form_measures_them(k, drift):
    # tangents around the tolerance: the audit flags exactly when numpy's
    # norm drifts from 1 by more than UNIT_TOL
    k = k * (1.0 + drift * UNIT_TOL)
    worst = float(np.max(np.abs(np.linalg.norm(k, axis=1) - 1.0)))
    flagged = any("tangent norms" in msg for msg in audit_arrays(np.zeros_like(k), k, Scene([]), 0.0))
    assert flagged == (worst > UNIT_TOL)


@BITS
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(0.0, 1e3)),
            arrays(np.float64, (n, 4), elements=st.floats(-1e3, 1e3)),
        )
    )
)
def test_row_scale_is_bitwise_the_broadcast(operands):
    # the decay and metric weights reaction applies to every node's row
    weights, x = operands
    assert same_bits(_scale_rows(weights, x), weights[:, None] * x)
