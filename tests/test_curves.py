"""Rotation kernels, cumulative rotation, and tangent integration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.curves import (
    _columns,
    _cross_columns,
    angular_displacement_profile,
    cayley_vectors,
    integrate_tangents,
    rotate_vectors,
)


# Reference values computed by integrating v' = w x v with a fourth-order
# Runge-Kutta scheme at 2e5 steps (independent of the closed-form kernel).
RK4_CASES = [
    (
        (0.3, -0.4, 0.5),
        (1.0, 2.0, -1.0),
        (0.065156133401642, 2.447273812383183, -0.081274630134417),
    ),
    (
        (0.0, 0.0, np.pi / 2),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
    ),
    (
        (2.1, 0.7, -1.3),
        (0.0, 1.0, 0.0),
        (0.685508256106510, -0.702694066302595, 0.190524224162954),
    ),
]


# rotate_vectors evaluates Rodrigues' formula; these tests hold it to the
# rotation it stands for. Rotating the basis gives the transposed matrix.
BASIS = np.eye(3)


@pytest.mark.parametrize("w, v, expected", RK4_CASES)
def test_rodrigues_matches_integrated_rotation(w, v, expected):
    got = rotate_vectors(np.array(w), np.array(v))
    assert np.max(np.abs(got - np.array(expected))) < 1e-11


def test_rodrigues_is_orthogonal_with_unit_determinant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.normal(scale=2.0, size=3)
        q = rotate_vectors(w, BASIS)
        assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(q) - 1.0) < 1e-12


def test_rodrigues_negative_vector_is_inverse():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.normal(size=3)
        q = rotate_vectors(-w, rotate_vectors(w, BASIS))
        assert np.max(np.abs(q - np.eye(3))) < 1e-12


def test_rodrigues_preserves_unit_norm():
    rng = np.random.default_rng(9)
    for _ in range(50):
        w = rng.normal(scale=3.0, size=3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert abs(np.linalg.norm(rotate_vectors(w, v)) - 1.0) < 1e-12


def test_rodrigues_zero_vector_is_identity():
    assert np.array_equal(rotate_vectors(np.zeros(3), BASIS), np.eye(3))


@pytest.mark.parametrize("theta", [9.9e-7, 1.1e-6])
def test_rodrigues_accurate_near_series_threshold(theta):
    # for tiny angles, R v = v + w x v + 0.5 w x (w x v) + O(theta^3 |v|),
    # and the cubic remainder sits far below round-off
    v = np.array([1.0, 2.0, 3.0])
    w = theta * np.array([0.0, 1.0, 0.0])
    got = rotate_vectors(w, v)
    want = v + np.cross(w, v) + 0.5 * np.cross(w, np.cross(w, v))
    assert np.max(np.abs(got - want)) < 5e-15


# bounded so that no product overflows: equal bits are then comparable
_components = st.floats(-1e100, 1e100, allow_nan=False)


@st.composite
def _cross_operands(draw):
    """Operand pairs in the shapes the package crosses, the Gram broadcast included."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 4))
    shape_a, shape_b = draw(
        st.sampled_from(
            [((n, 3), (n, 3)), ((n, 3), (3,)), ((3,), (3,)), ((1, m, 3), (m, 1, 3))]
        )
    )
    a = draw(arrays(np.float64, shape_a, elements=_components))
    b = draw(arrays(np.float64, shape_b, elements=_components))
    return a, b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_cross_operands())
@example((np.zeros((0, 3)), np.zeros((0, 3))))
@example((np.zeros((0, 3)), np.array([0.3, -1.0, 2.0])))
def test_cross_is_bitwise_numpy_cross(operands):
    a, b = operands
    assert np.array_equal(np.stack(_cross_columns(_columns(a), _columns(b)), -1), np.cross(a, b))


def rotation_matrix(w):
    """exp(W) = I + a W + b W^2 for a nonzero rotation vector w, with W v = w x v,
    t = |w|, a = sin t / t and b = (1 - cos t) / t^2."""
    t = float(np.linalg.norm(w))
    mat = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return np.eye(3) + np.sin(t) / t * mat + (1.0 - np.cos(t)) / t**2 * (mat @ mat)


def test_rotate_vectors_matches_matrix_rows():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(40, 3))
    v = rng.normal(size=(40, 3))
    got = rotate_vectors(w, v)
    want = np.stack([rotation_matrix(wi) @ vi for wi, vi in zip(w, v)])
    assert np.max(np.abs(got - want)) < 1e-13


def test_rotate_vectors_zero_rotation_is_bitwise_identity():
    v = np.array([[0.1, -0.7, 0.3], [1.0, 0.0, 0.0]])
    got = rotate_vectors(np.zeros((2, 3)), v)
    assert np.array_equal(got, v)


# cayley_vectors, the stepper's map, takes the half vector u and is the
# rotation about u by 2 atan(|u|). The bounds below were fixed before the
# first run.


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _step_vectors(rng, n, largest):
    """n rotation vectors at the step's angles: uniform in [0, largest], random axes."""
    return rng.uniform(0.0, largest, size=(n, 1)) * _unit_rows(rng, n)


def test_cayley_keeps_the_norm():
    # at angles up to 0.1, over twice the largest a bundled step turns a node
    rng = np.random.default_rng(21)
    u = 0.5 * _step_vectors(rng, 200, 0.1)
    v = _unit_rows(rng, 200)
    got = np.linalg.norm(cayley_vectors(u, v), axis=1)
    assert np.max(np.abs(got - np.linalg.norm(v, axis=1))) <= 1e-15


def test_cayley_is_orthogonal_with_unit_determinant():
    rng = np.random.default_rng(22)
    for _ in range(50):
        q = cayley_vectors(rng.normal(size=3), BASIS)
        assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(q) - 1.0) < 1e-14


def test_cayley_rotates_about_u_by_twice_the_arctangent_of_its_length():
    rng = np.random.default_rng(23)
    u = rng.normal(size=(50, 3))
    v = _unit_rows(rng, 50)
    t = np.linalg.norm(u, axis=1, keepdims=True)
    want = rotate_vectors(u * (2.0 * np.arctan(t) / t), v)
    assert np.max(np.abs(cayley_vectors(u, v) - want)) < 1e-14


def test_cayley_negative_vector_is_inverse():
    rng = np.random.default_rng(24)
    for _ in range(20):
        u = rng.normal(size=3)
        q = cayley_vectors(-u, cayley_vectors(u, BASIS))
        assert np.max(np.abs(q - np.eye(3))) < 1e-14


def test_cayley_zero_rotation_is_bitwise_identity():
    v = np.array([[0.1, -0.7, 0.3], [1.0, 0.0, 0.0], [-2.5, 1e-300, 7.0]])
    for u, vs in ((np.zeros((3, 3)), v), (np.zeros(3), v), (np.zeros(3), v[0])):
        assert np.array_equal(cayley_vectors(u, vs).view(np.uint64), vs.view(np.uint64))


def test_cayley_departs_from_the_exponential_map_by_the_cube_of_the_angle():
    # handed w / 2, it turns by 2 atan(|w| / 2) where exp([w]) turns by |w|:
    # the angles differ by at most |w|^3 / 12, and a unit vector's two images
    # by at most that angle
    rng = np.random.default_rng(25)
    w = _step_vectors(rng, 200, 0.05)
    w[:2] = [[0.0, 0.0, 0.0], [0.0, 0.05, 0.0]]
    v = _unit_rows(rng, 200)
    gap = np.linalg.norm(cayley_vectors(0.5 * w, v) - rotate_vectors(w, v), axis=1)
    t = np.linalg.norm(w, axis=1)
    assert np.all(gap <= t**3 / 12.0 + 1e-15)


def test_integrate_tangents_straight_vertical():
    k = np.tile(np.array([0.0, 0.0, 1.0]), (11, 1))
    gamma = integrate_tangents(k, 0.1)
    want = np.stack([np.zeros(11), np.zeros(11), 0.1 * np.arange(11)], axis=1)
    assert np.max(np.abs(gamma - want)) < 1e-15


# Max deviation of the reconstructed unit circle from closed-form arc
# positions, computed once from the trapezoid rule; halving the spacing
# divides the error by four (second-order accuracy).
CIRCLE_DEVIATION = {100: 6.580169237382e-04, 200: 1.644961125562e-04}


@pytest.mark.parametrize("n", [100, 200])
def test_circle_reconstruction_deviation_frozen(n):
    ds = 2 * np.pi / n
    th = np.arange(n + 1) * ds
    k = np.stack([np.cos(th), np.sin(th), np.zeros(n + 1)], axis=1)
    gamma = integrate_tangents(k, ds)
    exact = np.stack([np.sin(th), 1.0 - np.cos(th), np.zeros(n + 1)], axis=1)
    err = float(np.max(np.linalg.norm(gamma - exact, axis=1)))
    assert abs(err - CIRCLE_DEVIATION[n]) < 1e-12


def test_circle_reconstruction_is_second_order():
    ratio = CIRCLE_DEVIATION[100] / CIRCLE_DEVIATION[200]
    assert 3.9 < ratio < 4.1


def test_chord_length_bounded_by_spacing():
    rng = np.random.default_rng(12)
    k = rng.normal(size=(30, 3))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    steps = np.diff(integrate_tangents(k, 0.05), axis=0)
    assert np.max(np.linalg.norm(steps, axis=1)) <= 0.05 + 1e-15


def test_cumulative_angular_velocity_constant_density():
    omega = np.tile(np.array([0.0, 0.0, 1.0]), (11, 1))
    prof = angular_displacement_profile(omega, 0.1)
    assert np.max(np.abs(prof[5] - np.array([0.0, 0.0, 0.5]))) < 1e-14


def test_cumulative_angular_velocity_zero_at_origin():
    omega = np.ones((11, 3))
    assert np.array_equal(angular_displacement_profile(omega, 0.1)[0], np.zeros(3))


def test_cumulative_angular_velocity_piecewise_density():
    # density e1 on [0, 0.3), e2 on [0.3, 1]; left-endpoint quadrature gives
    # 0.1 * (3 e1 + 7 e2) over the full interval
    omega = np.zeros((11, 3))
    omega[:3, 0] = 1.0
    omega[3:, 1] = 1.0
    got = angular_displacement_profile(omega, 0.1)[10]
    assert np.max(np.abs(got - np.array([0.3, 0.7, 0.0]))) < 1e-14


def test_cumulative_angular_velocity_additive_in_arclength():
    rng = np.random.default_rng(13)
    omega = rng.normal(size=(21, 3))
    whole = angular_displacement_profile(omega, 0.05)[17]
    # split at a node: integral over [0, 0.6] plus the shifted remainder
    first = angular_displacement_profile(omega, 0.05)[12]
    rest = angular_displacement_profile(omega[12:], 0.05)[5]
    assert np.max(np.abs(whole - first - rest)) < 1e-14


def test_angular_displacement_profile_prefix_sums():
    omega = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    prof = angular_displacement_profile(omega, 0.5)
    want = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 1.0, 0.0]])
    assert np.array_equal(prof, want)
