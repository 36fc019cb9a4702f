"""Angular-velocity density of the growth response."""

import numpy as np
import pytest

from stemgrow.errors import ValidationError
from stemgrow.growth import GrowthLaw, psi_field

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def psi_at(law, t, s, k):
    """Density at one material point: a one-row psi_field whose node is t - s old."""
    return psi_field(law, law._coeff(np.array([t - s])), np.asarray(k, dtype=float)[None, :])[0]


def test_gravitropic_fresh_tissue_bends_toward_up():
    law = GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0)
    got = psi_at(law, t=2.0, s=2.0, k=E1)
    assert np.allclose(got, [0.0, -1.0, 0.0], atol=1e-15)


def test_gravitropic_vertical_stem_is_at_equilibrium():
    law = GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0)
    got = psi_at(law, t=5.0, s=1.0, k=E3)
    assert np.array_equal(got, np.zeros(3))


def test_gravitropic_response_decays_exponentially_with_age():
    law = GrowthLaw(variant="gravitropic", beta=2.0, gain=1.0)
    got = psi_at(law, t=1.0, s=0.0, k=E1)
    want = np.exp(-2.0) * np.array([0.0, -1.0, 0.0])
    assert np.max(np.abs(got - want)) < 1e-15
    assert got[1] == pytest.approx(-0.13534, abs=1e-5)


def test_zero_law_returns_exact_zeros():
    law = GrowthLaw(variant="zero")
    got = psi_at(law, t=1.0, s=0.5, k=E1)
    assert np.array_equal(got, np.zeros(3))


def test_response_is_perpendicular_to_tangent():
    law = GrowthLaw(variant="gravitropic", beta=0.7, gain=1.3)
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        psi = psi_at(law, t=3.0, s=rng.uniform(0.0, 3.0), k=k)
        assert abs(psi @ k) < 1e-12


def test_response_magnitude_bounded_by_decayed_gain():
    law = GrowthLaw(variant="gravitropic", beta=1.5, gain=2.0)
    rng = np.random.default_rng(32)
    for _ in range(50):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        age = rng.uniform(0.0, 4.0)
        psi = psi_at(law, t=4.0, s=4.0 - age, k=k)
        assert np.linalg.norm(psi) <= 2.0 * np.exp(-1.5 * age) + 1e-12


def test_response_non_increasing_in_age():
    law = GrowthLaw(variant="gravitropic", beta=0.8, gain=1.0)
    ages = np.linspace(0.0, 5.0, 30)
    mags = [
        np.linalg.norm(psi_at(law, t=5.0, s=5.0 - a, k=E1))
        for a in ages
    ]
    assert all(m1 >= m2 - 1e-15 for m1, m2 in zip(mags, mags[1:]))


def test_custom_law_interpolates_coefficient_table():
    law = GrowthLaw(
        variant="custom",
        ages=np.array([0.0, 1.0, 2.0]),
        response=np.array([1.0, 0.5, 0.0]),
        up=E3,
    )
    got = psi_at(law, t=2.5, s=2.0, k=E1)
    # age 0.5 interpolates to coefficient 0.75
    assert np.allclose(got, 0.75 * np.array([0.0, -1.0, 0.0]), atol=1e-15)
    # beyond the table the last coefficient holds
    flat = psi_at(law, t=10.0, s=0.0, k=E1)
    assert np.array_equal(flat, np.zeros(3))


def test_psi_field_matches_pointwise_evaluation():
    law = GrowthLaw(variant="gravitropic", beta=1.2, gain=0.9)
    rng = np.random.default_rng(33)
    n, ds = 17, 0.125
    s = ds * np.arange(n)
    k = rng.normal(size=(n, 3))
    k /= np.linalg.norm(k, axis=1, keepdims=True)
    # a table that reaches past the stem's oldest node, as a run's does
    field = psi_field(law, law.coeff_by_age(ds, n + 4), k)
    for i in range(n):
        want = psi_at(law, 2.0, s[i], k[i])
        assert np.max(np.abs(field[i] - want)) < 1e-15


def test_law_validation_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        GrowthLaw(variant="gravitropic", beta=-0.1)
    with pytest.raises(ValidationError):
        GrowthLaw(variant="gravitropic", gain=-1.0)
    with pytest.raises(ValidationError):
        GrowthLaw(variant="sideways")


def test_up_direction_is_normalized():
    law = GrowthLaw(variant="gravitropic", beta=0.0, gain=1.0, up=np.array([0.0, 0.0, 5.0]))
    got = psi_at(law, t=1.0, s=1.0, k=E1)
    assert np.allclose(got, [0.0, -1.0, 0.0], atol=1e-15)
