"""Growth laws: the imposed rotation density driving free elongation.

The density at material coordinate s and time t is a rotation vector; the
gravitropic variant steers tangents toward the up axis with an exponentially
fading response in material age t - s.

On the stepper's grid every age is a whole number of cells, so a run needs
the law's coefficient at its grid's ages alone: it evaluates the law once,
into the table coeff_by_age(dt, cells) of ages 0..cells, and psi_field
reads each node's coefficient from that table by its age.
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

    def coeff_by_age(self, dt: float, cells: int) -> np.ndarray:
        """The coefficient at an age of a cells, _coeff(dt * a), for every a = 0..cells."""
        return self._coeff(dt * np.arange(cells + 1, dtype=float))


def psi_field(law: GrowthLaw, by_age: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Rotation density at every node: by_age[n - i] * (k_i x up) at node i of n + 1.

    by_age is law.coeff_by_age(dt, cells) for the stem's dt and any cells >= n:
    node i of a stem of n cells is n - i cells old.
    """
    coeff = by_age[k.shape[0] - 1 :: -1]
    psi = np.empty(k.shape)
    for i, col in enumerate(_cross_columns(_columns(k), law.unit_up)):
        np.multiply(coeff, col, out=psi[:, i])
    return psi
