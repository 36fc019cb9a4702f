"""The per-node and per-contact kernels, written on component columns, against their row forms.

Each kernel below evaluates its formula one component column at a time, or
into preallocated outputs, instead of broadcasting over (n, 3) rows or
concatenating blocks. That must not change a single bit of any frame, so
each is compared bitwise, through a uint64 view that also tells -0.0 from
0.0, with the row-form expression written out here: numpy's own norm, cross
product, row broadcasts, concatenations and cumulative sums, in the same
order of operations. einsum and matmul sum in the memory order of their
operands, so where an operand reaches them its layout is pinned too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.curves import Stem, _columns, _norm_columns, cayley_vectors, rotate_vectors
from stemgrow.diagnostics import UNIT_TOL, audit_arrays, rotation_field
from stemgrow.growth import GrowthLaw, psi_field
from stemgrow.obstacles import Cylinder, HalfSpace, Scene, Sphere, signed_distances
from stemgrow.reaction import (
    ContactSet,
    _cut_moments,
    _scale_rows,
    assemble_constraints,
    density_from_multipliers,
    linear_rates,
)

BITS = settings(derandomize=True, deadline=None, max_examples=200)
# a contact system takes more to draw; a hundred of them still meet every layout and signed zero
CONTACT_BITS = settings(derandomize=True, deadline=None, max_examples=100)


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


def cayley_rows(w, v):
    a = 4.0 / (4.0 + np.add.reduce(w * w, axis=-1, keepdims=True))
    wxv = np.cross(w, v)
    wxwxv = np.cross(w, wxv)
    return v + a * wxv + (0.5 * a) * wxwxv


def psi_rows(law, t, s, k):
    coeff = law._coeff(t - s)
    return coeff[:, None] * np.cross(k, law.unit_up)


def rotation_rows(k1, k2):
    normal = np.cross(k1, k2)
    dot = np.einsum("id,id->i", k1, k2)
    sin = np.linalg.norm(normal, axis=1)
    angle = np.arctan2(sin, dot)
    safe = np.where(sin == 0.0, 1.0, sin)
    return angle[:, None] * (normal / safe[:, None])


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


@settings(derandomize=True, deadline=None, max_examples=400)
@given(rotate_operands())
@example((np.zeros((3, 3)), np.eye(3)))
def test_cayley_vectors_is_bitwise_the_row_form(operands):
    # the two maps share the body that writes into out, which the test above covers
    w, v = operands
    assert same_bits(cayley_vectors(w, v), cayley_rows(w, v))


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


# -- per-contact kernels -------------------------------------------------------
#
# The row forms of the contact kernels: the basis and the arm maps
# concatenated from blocks, the gap moments and the suffix sums taken by
# np.cumsum, the Gram matrix symmetrized through np.triu, the rows and the
# scene distance built with numpy's cross product and a stacked minimum.


def basis_rows(gamma):
    return np.concatenate([np.ones((len(gamma), 1)), gamma], axis=1)


def arm_rows(gamma, nodes, normals):
    lever = np.cross(gamma[nodes], normals)[:, :, None]
    skew = np.cross(normals[:, None], np.eye(3)).transpose(0, 2, 1)
    return np.concatenate([lever, skew], axis=2)


def cut_moments_rows(x, h, nodes):
    cuts = [0, *nodes.tolist()]
    gaps = [x[a:b].T @ h[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    return np.cumsum(gaps, axis=0)


def gram_rows(system):
    stem, contacts = system.stem, system.contacts
    arm = arm_rows(stem.gamma, contacts.nodes, contacts.normals)
    h = basis_rows(stem.gamma)
    moments = cut_moments_rows(system.metric_weights[:, None] * h, h, contacts.nodes)
    g = np.einsum("jab,lab->jl", arm @ moments, arm)
    return np.triu(g) + np.triu(g, 1).T


def linear_rates_rows(system, density):
    stem, contacts = system.stem, system.contacts
    arm = arm_rows(stem.gamma, contacts.nodes, contacts.normals)
    moments = cut_moments_rows(stem.ds * density, basis_rows(stem.gamma), contacts.nodes)
    vals = np.einsum("jab,jab->j", arm, moments)
    if contacts.tip:
        vals[-1] += float(stem.k[-1] @ contacts.normals[-1])
    return vals


def density_rows(system, mu):
    stem, contacts = system.stem, system.contacts
    arm = arm_rows(stem.gamma, contacts.nodes, contacts.normals)
    h = basis_rows(stem.gamma)
    suffix = np.cumsum((mu[:, None, None] * arm)[::-1], axis=0)[::-1]
    rho = np.zeros((len(h), 3))
    cuts = [0, *contacts.nodes.tolist()]
    for g, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        rho[a:b] = h[a:b] @ suffix[g].T
    return system.decay[:, None] * rho


def contact_rows(system):
    gamma = system.stem.gamma
    out = np.zeros((system.contacts.size, len(gamma), 3))
    for j, (v, nrm) in enumerate(zip(system.contacts.nodes.tolist(), system.contacts.normals)):
        out[j, :v] = np.cross(gamma[v] - gamma[:v], nrm)
    return out


def scene_rows(scene, points):
    return np.min(np.stack([ob.distances(points) for ob in scene.obstacles], axis=0), axis=0)


# -- contact operands ----------------------------------------------------------

# axis normals with signed zeros, the ceiling's (0, 0, -1) among them: their
# products with zero lever components are the signed zeros a layout or an
# operation order would flip
_AXIS_NORMALS = [
    (0.0, 0.0, -1.0),
    (-0.0, 0.0, -1.0),
    (0.0, -0.0, 1.0),
    (-0.0, -0.0, -1.0),
    (1.0, -0.0, 0.0),
    (-0.0, -1.0, -0.0),
]


@st.composite
def contact_normals(draw, m):
    out = np.empty((m, 3))
    for j in range(m):
        if draw(st.booleans()):
            out[j] = draw(st.sampled_from(_AXIS_NORMALS))
        else:
            out[j] = draw(unit_rows(1))[0]
    return out


@st.composite
def contact_systems(draw):
    """A stem of 2-40 cells, upright or bent, with 1-4 contacts at sorted nodes."""
    n = draw(st.integers(2, 40))
    ds = draw(st.sampled_from([0.0025, 0.01, 0.05, 0.1]))
    if draw(st.booleans()):
        # an upright stem: zero lateral components all along it
        k = np.tile([0.0, 0.0, 1.0], (n + 1, 1))
    else:
        k = draw(unit_rows(n + 1))
    m = draw(st.integers(1, min(4, n)))
    nodes = np.array(sorted(draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
    tip = bool(nodes[-1] == n and draw(st.booleans()))
    contacts = ContactSet(
        nodes=nodes, normals=draw(contact_normals(m)), phi=np.zeros(m), tip=tip
    )
    beta = draw(st.sampled_from([0.0, 0.25, 1.0, 2.0]))
    return assemble_constraints(Stem(ds, k), contacts, beta)


def _values(shape):
    return arrays(np.float64, shape, elements=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))


@CONTACT_BITS
@given(contact_systems())
def test_basis_is_bitwise_the_concatenation(system):
    assert same_bits(system.basis, basis_rows(system.stem.gamma))


@CONTACT_BITS
@given(contact_systems())
def test_arm_maps_are_bitwise_the_concatenation_in_its_layout(system):
    contacts = system.contacts
    want = arm_rows(system.stem.gamma, contacts.nodes, contacts.normals)
    assert same_bits(system.arm_maps, want)
    # einsum and matmul read the maps in memory order: (96, 8, 24) at any m
    assert system.arm_maps.strides == want.strides == (96, 8, 24)


@CONTACT_BITS
@given(contact_systems())
def test_gram_is_bitwise_the_row_form(system):
    assert same_bits(system.gram, gram_rows(system))


@CONTACT_BITS
@given(contact_systems(), st.sampled_from([3, 4]), st.data())
def test_cut_moments_are_bitwise_the_cumulative_sum(system, d, data):
    x = data.draw(_values((len(system.stem.k), d)))
    want = cut_moments_rows(x, basis_rows(system.stem.gamma), system.contacts.nodes)
    got = _cut_moments(x, system)
    assert same_bits(got, want)
    assert got.strides == want.strides


@CONTACT_BITS
@given(contact_systems(), st.data())
def test_linear_rates_are_bitwise_the_row_form(system, data):
    density = data.draw(_values((len(system.stem.k), 3)))
    assert same_bits(linear_rates(system, density), linear_rates_rows(system, density))


@CONTACT_BITS
@given(contact_systems(), st.data())
def test_density_from_multipliers_is_bitwise_the_row_form(system, data):
    m = system.contacts.size
    elements = st.one_of(st.just(0.0), st.just(1e-14), st.floats(0.0, 1e3))
    mu = data.draw(arrays(np.float64, m, elements=elements))
    assert same_bits(density_from_multipliers(system, mu), density_rows(system, mu))


@CONTACT_BITS
@given(contact_systems())
def test_rows_are_bitwise_the_row_form(system):
    assert same_bits(system.rows(), contact_rows(system))


@st.composite
def scenes(draw):
    """1-3 obstacles of every kind, in any order."""
    obstacles = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["sphere", "half_space", "cylinder"]))
        point = draw(arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)))
        direction = draw(unit_rows(1))[0]
        radius = draw(st.floats(0.1, 2.0))
        if kind == "sphere":
            obstacles.append(Sphere(point, radius))
        elif kind == "half_space":
            obstacles.append(HalfSpace(point, direction))
        else:
            obstacles.append(Cylinder(point, direction, radius))
    return Scene(obstacles)


@BITS
@given(scenes(), _points)
@example(Scene([HalfSpace(np.zeros(3), np.array([0.0, 0.0, -1.0]))] * 2), np.zeros((2, 3)))
@example(
    Scene([HalfSpace(np.zeros(3), np.array([0.0, 0.0, -1.0])), Sphere(np.zeros(3), 1.0)]),
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -0.0], [1.0, 0.0, 0.0]]),
)
def test_scene_distances_are_bitwise_the_stacked_minimum(scene, points):
    assert same_bits(signed_distances(scene, points), scene_rows(scene, points))
