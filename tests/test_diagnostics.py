"""Stem distances, growth-rate certificates, and invariant audits."""

import numpy as np
import pytest

from stemgrow.curves import Stem, rotate_vectors
from stemgrow.diagnostics import (
    audit_arrays,
    gronwall_certificate,
    rotation_field,
    step_normal_rates,
    weighted_norm,
)
from stemgrow.errors import AntipodalAmbiguity, NonPositiveDistance
from stemgrow.obstacles import HalfSpace, Scene
from stemgrow.reaction import ContactSet

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def minimal_rotation(k1, k2):
    """The minimal rotation between two unit vectors: a one-row rotation field."""
    return rotation_field(k1[None, :], k2[None, :])[0]


def test_minimal_rotation_identical_vectors_is_zero():
    assert np.array_equal(minimal_rotation(E3, E3), np.zeros(3))


def test_minimal_rotation_quarter_turn():
    got = minimal_rotation(E1, E2)
    assert np.max(np.abs(got - np.array([0.0, 0.0, np.pi / 2]))) < 1e-14


def test_minimal_rotation_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(40):
        k1, k2 = rng.normal(size=(2, 3))
        k1 /= np.linalg.norm(k1)
        k2 /= np.linalg.norm(k2)
        if k1 @ k2 <= -1.0 + 1e-6:
            continue
        w = minimal_rotation(k1, k2)
        back = rotate_vectors(w[None, :], k1[None, :])[0]
        assert np.max(np.abs(back - k2)) < 1e-12


def test_minimal_rotation_antipodal_raises():
    with pytest.raises(AntipodalAmbiguity):
        minimal_rotation(E3, -E3)


def test_rotation_field_identical_stems_is_zero():
    rng = np.random.default_rng(62)
    k = rng.normal(size=(20, 3))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    assert np.array_equal(rotation_field(k, k), np.zeros((20, 3)))


def test_rotation_field_bounded_by_rigid_rotation_angle():
    # rotate a whole stem rigidly by alpha: every node rotation is exactly alpha
    rng = np.random.default_rng(63)
    k = rng.normal(size=(15, 3))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    alpha = 0.37
    w = alpha * np.tile(E2, (15, 1))
    k2 = rotate_vectors(w, k)
    field = rotation_field(k, k2)
    angles = np.linalg.norm(field, axis=1)
    assert np.all(angles <= alpha + 1e-12)


def test_weighted_norm_zero_field():
    assert weighted_norm(np.zeros((10, 3)), 0.1, 1.0) == 0.0


def test_weighted_norm_hand_quadrature():
    # two cells, beta = 1: sqrt(ds (|w0|^2 + e^{-ds} |w1|^2))
    w = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [9.0, 9.0, 9.0]])
    ds = 0.5
    want = np.sqrt(ds * (1.0 + np.exp(-ds) * 4.0))
    assert weighted_norm(w, ds, 1.0) == pytest.approx(want, rel=1e-14)


def test_weighted_norm_monotone_in_field():
    rng = np.random.default_rng(64)
    w = rng.normal(size=(12, 3))
    assert weighted_norm(2 * w, 0.1, 0.7) == pytest.approx(
        2 * weighted_norm(w, 0.1, 0.7), rel=1e-12
    )


def test_gronwall_constant_series_certifies_at_zero():
    times = np.linspace(0.0, 1.0, 11)
    dists = np.full(11, 3.7e-3)
    c, details = gronwall_certificate(times, dists)
    assert abs(c) < 1e-6
    assert details["samples"] == 11
    assert details["terminal_distance"] == pytest.approx(3.7e-3)


def test_gronwall_exponential_series_recovers_rate():
    times = np.linspace(0.0, 2.0, 21)
    dists = 1e-3 * np.exp(4.0 * times)
    c, _ = gronwall_certificate(times, dists)
    assert c == pytest.approx(4.0, rel=1e-6)


def test_gronwall_jump_is_pinned_at_jump_time():
    times = np.array([0.0, 0.5, 1.0])
    dists = np.array([1e-3, 1e-3, 5e-3])
    c, details = gronwall_certificate(times, dists)
    assert c == pytest.approx(np.log(5.0), rel=1e-6)
    assert details["max_ratio_time"] == pytest.approx(1.0)


def test_gronwall_rejects_bad_series():
    with pytest.raises(NonPositiveDistance):
        gronwall_certificate(np.array([0.0, 1.0]), np.array([1e-3, 0.0]))


def clean_arrays(n=10, ds=0.1):
    s = ds * np.arange(n + 1)
    k = np.tile(E3, (n + 1, 1))
    gamma = np.stack([np.zeros(n + 1), np.zeros(n + 1), s], axis=1)
    return gamma, k


def audit_free(gamma, k):
    """audit_arrays on a stem with no obstacles."""
    return audit_arrays(gamma, k, Scene([]), 0.005)


def test_audit_accepts_clean_stem():
    gamma, k = clean_arrays()
    assert audit_free(gamma, k) == []


def test_audit_flags_norm_drift():
    gamma, k = clean_arrays()
    k = k * 1.001
    bad = audit_free(gamma, k)
    assert any("norm" in msg for msg in bad)


def test_audit_flags_penetration():
    gamma, k = clean_arrays()
    scene = Scene([HalfSpace(point=np.array([0.0, 0.0, 0.5]), outward_normal=-E3)])
    bad = audit_arrays(gamma, k, scene, 0.005)
    assert any("penetrat" in msg for msg in bad)


def test_step_normal_rates_tracks_interior_and_tip():
    # consecutive states: the stem gains one grown node between them, and the
    # later one leans a = asin(0.1) from e3 towards e1 all the way from its base
    n, ds = 5, 0.1
    lean = np.array([0.1, 0.0, np.sqrt(0.99)])
    prev = Stem(ds, np.tile(E3, (n + 1, 1)))
    nxt = Stem(ds, np.tile(lean, (n + 2, 1)))
    contacts = ContactSet(
        nodes=np.array([2, n]),
        normals=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
        phi=np.zeros(2),
        tip=True,
    )
    rates = step_normal_rates(prev, nxt, contacts, dt=0.1)
    # interior node 2 moved 2 ds sin a = 0.02 along its normal over dt = 0.1
    assert rates[0] == pytest.approx(0.2)
    # the tip contact follows the moving tip: nxt.gamma[n+1] - prev.gamma[n]
    # is (0.06, 0, 0.6 cos a - 0.5), so the rate along -e3 is 5 - 6 cos a
    assert rates[1] == pytest.approx(5.0 - 6.0 * lean[2])
