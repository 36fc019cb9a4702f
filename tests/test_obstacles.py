"""Signed distances, outward normals, and scene validation."""

import numpy as np
import pytest

from stemgrow.errors import (
    DegenerateGradient,
    NoNearbyBoundary,
    ValidationError,
)
from stemgrow.obstacles import (
    Cylinder,
    HalfSpace,
    Scene,
    Sphere,
    outer_normal,
    signed_distances,
)

E3 = np.array([0.0, 0.0, 1.0])


def dists(scene, x):
    """Each obstacle's distance at the point x, the list outer_normal is handed."""
    return [float(ob.distances(x[None])[0]) for ob in scene.obstacles]


def unit_sphere():
    return Sphere(center=np.zeros(3), radius=1.0)


def test_sphere_distance_outside():
    scene = Scene([unit_sphere()])
    assert signed_distances(scene, np.array([[2.0, 0.0, 0.0]]))[0] == pytest.approx(1.0)


def test_sphere_distance_inside():
    scene = Scene([unit_sphere()])
    assert signed_distances(scene, np.array([[0.0, 0.0, 0.5]]))[0] == pytest.approx(-0.5)


def test_half_space_distance_outside_obstacle():
    # obstacle fills z > 0, so its outward normal points along -e3 and a
    # point below the plane is outside at its plane distance
    ceiling = HalfSpace(point=np.zeros(3), outward_normal=-E3)
    scene = Scene([ceiling])
    assert signed_distances(scene, np.array([[1.0, 1.0, -0.25]]))[0] == pytest.approx(0.25)
    assert signed_distances(scene, np.array([[0.0, 0.0, 0.1]]))[0] == pytest.approx(-0.1)


def test_empty_scene_distance_is_infinite():
    assert signed_distances(Scene([]), np.zeros(3)[None])[0] == np.inf


def test_scene_distance_is_minimum_over_obstacles():
    scene = Scene(
        [
            Sphere(center=np.array([0.0, 0.0, 5.0]), radius=1.0),
            Sphere(center=np.array([3.0, 0.0, 0.0]), radius=1.0),
        ]
    )
    # closest surface is the second sphere
    assert signed_distances(scene, np.zeros(3)[None])[0] == pytest.approx(2.0)


def test_signed_distances_batch_shape():
    scene = Scene([unit_sphere()])
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 3.0, 0.0]])
    got = signed_distances(scene, pts)
    assert got.shape == (3,)
    assert np.allclose(got, [1.0, -0.5, 2.0])


def test_sphere_outer_normal():
    scene = Scene([unit_sphere()])
    x = np.array([0.0, 0.0, 1.0])
    got = outer_normal(scene, x, dists(scene, x), band_width=0.1)
    assert np.allclose(got, E3, atol=1e-15)


def test_half_space_outer_normal():
    # obstacle fills z < 0; the outward normal is e3 anywhere near the plane
    scene = Scene([HalfSpace(point=np.zeros(3), outward_normal=E3)])
    x = np.array([0.3, -0.2, 0.001])
    got = outer_normal(scene, x, dists(scene, x), band_width=0.1)
    assert np.array_equal(got, E3)


def test_cylinder_outer_normal_is_radial():
    scene = Scene([Cylinder(axis_point=np.zeros(3), axis=E3, radius=1.0)])
    x = np.array([1.0, 0.0, 5.0])
    got = outer_normal(scene, x, dists(scene, x), band_width=0.1)
    assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-15)


def test_cylinder_distance():
    cyl = Cylinder(axis_point=np.zeros(3), axis=E3, radius=1.0)
    scene = Scene([cyl])
    assert signed_distances(scene, np.array([[2.0, 0.0, -7.0]]))[0] == pytest.approx(1.0)
    assert signed_distances(scene, np.array([[0.5, 0.0, 3.0]]))[0] == pytest.approx(-0.5)


def test_gradient_has_unit_norm_by_finite_differences():
    h = 1e-5
    scene = Scene(
        [
            unit_sphere(),
            HalfSpace(point=np.array([0.0, 0.0, 4.0]), outward_normal=-E3),
            Cylinder(axis_point=np.array([5.0, 0.0, 0.0]), axis=np.array([0.0, 1.0, 0.0]), radius=1.0),
        ]
    )
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = rng.uniform(-2.5, 2.5, size=3)
        if abs(signed_distances(scene, x[None])[0]) < 10 * h:
            continue  # skip points near a surface or medial axis kink
        grad = np.zeros(3)
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            pair = signed_distances(scene, np.stack([x + e, x - e]))
            grad[a] = (pair[0] - pair[1]) / (2 * h)
        assert abs(np.linalg.norm(grad) - 1.0) < 1e-6


def test_distance_is_1_lipschitz():
    scene = Scene([unit_sphere(), HalfSpace(point=np.array([0.0, 0.0, 3.0]), outward_normal=-E3)])
    rng = np.random.default_rng(22)
    for _ in range(200):
        x, y = rng.uniform(-4, 4, size=(2, 3))
        dx = signed_distances(scene, x[None])[0]
        dy = signed_distances(scene, y[None])[0]
        assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-12


def test_outer_normal_points_away_from_surface():
    scene = Scene([unit_sphere()])
    rng = np.random.default_rng(23)
    for _ in range(40):
        x = rng.normal(size=3)
        x *= (1.0 + rng.uniform(0.0, 0.05)) / np.linalg.norm(x)
        n = outer_normal(scene, x, dists(scene, x), band_width=0.1)
        foot = x / np.linalg.norm(x)
        assert (x - foot) @ n >= -1e-12


def test_outer_normal_band_rejects_far_points():
    scene = Scene([unit_sphere()])
    x = np.array([5.0, 0.0, 0.0])
    with pytest.raises(NoNearbyBoundary):
        outer_normal(scene, x, dists(scene, x), band_width=0.1)


def test_normal_at_sphere_center_is_degenerate():
    scene = Scene([unit_sphere()])
    with pytest.raises(DegenerateGradient):
        # the center lies one radius deep, inside a band of two
        outer_normal(scene, np.zeros(3), dists(scene, np.zeros(3)), band_width=2.0)


def test_normal_on_cylinder_axis_is_degenerate():
    scene = Scene([Cylinder(axis_point=np.zeros(3), axis=E3, radius=1.0)])
    x = np.array([0.0, 0.0, 2.0])
    with pytest.raises(DegenerateGradient):
        outer_normal(scene, x, dists(scene, x), band_width=2.0)


def test_constructors_normalize_and_reject_bad_parameters():
    # the geometry uses the normalized vector; the given one is kept for writing back
    hs = HalfSpace(point=np.zeros(3), outward_normal=np.array([0.0, 0.0, 2.0]))
    assert np.allclose(hs.normal(np.zeros(3)), E3)
    assert np.array_equal(hs.outward_normal, [0.0, 0.0, 2.0])
    cyl = Cylinder(axis_point=np.zeros(3), axis=np.array([0.0, 3.0, 0.0]), radius=2.0)
    assert np.allclose(cyl.unit_axis, [0.0, 1.0, 0.0])
    assert np.allclose(cyl.distances(np.array([[2.0, 5.0, 0.0]])), [0.0])
    assert np.array_equal(cyl.axis, [0.0, 3.0, 0.0])
    with pytest.raises(ValidationError):
        Sphere(center=np.zeros(3), radius=0.0)
    with pytest.raises(ValidationError):
        Cylinder(axis_point=np.zeros(3), axis=np.zeros(3), radius=1.0)
    with pytest.raises(ValidationError):
        HalfSpace(point=np.zeros(3), outward_normal=np.zeros(3))


def test_scene_validate_accepts_separated_obstacles():
    Scene(
        [
            Sphere(center=np.zeros(3), radius=1.0),
            Sphere(center=np.array([5.0, 0.0, 0.0]), radius=1.0),
            HalfSpace(point=np.array([0.0, 0.0, 10.0]), outward_normal=-E3),
        ]
    ).validate(min_separation=0.5)


def test_scene_validate_rejects_touching_spheres():
    scene = Scene(
        [
            Sphere(center=np.zeros(3), radius=1.0),
            Sphere(center=np.array([2.0, 0.0, 0.0]), radius=1.0),
        ]
    )
    with pytest.raises(ValidationError):
        scene.validate(min_separation=0.0)


def test_scene_validate_rejects_sphere_crossing_plane():
    scene = Scene(
        [
            Sphere(center=np.array([0.0, 0.0, 2.0]), radius=1.0),
            HalfSpace(point=np.array([0.0, 0.0, 2.5]), outward_normal=-E3),
        ]
    )
    with pytest.raises(ValidationError):
        scene.validate(min_separation=0.0)


def test_scene_validate_rejects_tilted_cylinder_against_plane():
    # a cylinder not parallel to the plane always pierces it eventually
    scene = Scene(
        [
            Cylinder(axis_point=np.zeros(3), axis=np.array([0.0, 0.1, 1.0]), radius=0.5),
            HalfSpace(point=np.array([0.0, 0.0, 40.0]), outward_normal=-E3),
        ]
    )
    with pytest.raises(ValidationError):
        scene.validate(min_separation=0.0)


def test_scene_validate_separated_parallel_cylinders():
    Scene(
        [
            Cylinder(axis_point=np.zeros(3), axis=E3, radius=0.5),
            Cylinder(axis_point=np.array([4.0, 0.0, 0.0]), axis=E3, radius=0.5),
        ]
    ).validate(min_separation=1.0)


def test_scene_validate_skew_cylinders_use_line_distance():
    # skew axes: closest approach along the common perpendicular is 3,
    # so radii 1 + 1 leave a gap of 1
    scene = Scene(
        [
            Cylinder(axis_point=np.zeros(3), axis=np.array([1.0, 0.0, 0.0]), radius=1.0),
            Cylinder(axis_point=np.array([0.0, 0.0, 3.0]), axis=np.array([0.0, 1.0, 0.0]), radius=1.0),
        ]
    )
    scene.validate(min_separation=0.9)
    with pytest.raises(ValidationError):
        scene.validate(min_separation=1.1)
