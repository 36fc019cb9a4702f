"""Growth laws: the imposed rotation density driving free elongation.

The density at material coordinate s and time t is a rotation vector; the
gravitropic variant steers tangents toward the up axis with an exponentially
fading response in material age t - s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import _columns, _cross_columns
from .errors import ValidationError
from .obstacles import _unit

VARIANTS = ("gravitropic", "zero", "custom")


@dataclass
class GrowthLaw:
    """A growth law; up is kept as given and psi_field uses its normalization unit_up."""

    variant: str = "gravitropic"
    beta: float = 1.0
    gain: float = 1.0
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    ages: np.ndarray | None = None
    response: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"law.variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.beta < 0.0:
            raise ValidationError(f"law.beta must be >= 0, got {self.beta}")
        if self.gain < 0.0:
            raise ValidationError(f"law.gain must be >= 0, got {self.gain}")
        self.up = np.asarray(self.up, dtype=float)
        self.unit_up = _unit(self.up, "law.up")
        if self.variant == "custom":
            if self.ages is None or self.response is None:
                raise ValidationError("law.ages and law.response required for custom variant")
            self.ages = np.asarray(self.ages, dtype=float)
            self.response = np.asarray(self.response, dtype=float)
            if self.ages.ndim != 1 or self.ages.shape != self.response.shape:
                raise ValidationError("law.ages and law.response must be 1d and equal length")
            if np.any(np.diff(self.ages) <= 0.0):
                raise ValidationError("law.ages must be strictly increasing")

    def _coeff(self, age):
        if self.variant == "zero":
            return np.zeros_like(age)
        if self.variant == "custom":
            return self.gain * np.interp(age, self.ages, self.response)
        return self.gain * np.exp(-self.beta * age)


def psi_field(law: GrowthLaw, t: float, s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Rotation density at every node: coeff(t - s_i) * (k_i x up).

    Every node must be no younger than the clock, s_i <= t, as the stepper's
    are: its t and s are ds times integers, so each age is +0.0 or more.
    """
    coeff = law._coeff(t - s)
    psi = np.empty(k.shape)
    for i, col in enumerate(_cross_columns(_columns(k), law.unit_up)):
        np.multiply(coeff, col, out=psi[:, i])
    return psi
