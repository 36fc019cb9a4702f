"""Scenario configuration: JSON documents with scene/law/seed/numerics sections."""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .curves import rotate_vectors
from .errors import ParseError, ValidationError
from .growth import GrowthLaw
from .obstacles import Cylinder, HalfSpace, Scene, Sphere, _unit


@dataclass
class SeedCurve:
    """Initial stem shape: a named primitive or a polyline resampled by arclength.

    Direction vectors are kept as given, so a config writes them back
    unchanged; the shape uses their normalizations, held in units.
    """

    kind: str
    direction: np.ndarray | None = None
    length: float | None = None
    initial_direction: np.ndarray | None = None
    turn_axis: np.ndarray | None = None
    radius: float | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _SEEDS:
            raise ValidationError(f"seed_curve.type must be segment|arc|polyline, got {self.kind!r}")
        self.units = {}
        # the direction vectors are the keys that _SEEDS checks as vectors
        for key in (key for key, check in _SEEDS[self.kind].items() if check is _vector):
            setattr(self, key, np.asarray(getattr(self, key), dtype=float))
            self.units[key] = _unit(getattr(self, key), f"seed_curve.{key}")
        if self.kind == "segment":
            if self.length <= 0.0:
                raise ValidationError("seed_curve.length must be positive")
        elif self.kind == "arc":
            if abs(float(self.units["initial_direction"] @ self.units["turn_axis"])) > 1e-9:
                raise ValidationError(
                    "seed_curve.turn_axis must be orthogonal to initial_direction"
                )
            if self.radius <= 0.0 or self.length <= 0.0:
                raise ValidationError("seed_curve: radius and length must be positive")
        else:
            self.points = np.asarray(self.points, dtype=float)
            if np.any(np.linalg.norm(np.diff(self.points, axis=0), axis=1) < 1e-12):
                raise ValidationError("seed_curve.points contains a zero-length chord")

    def arclength(self) -> float:
        if self.kind == "polyline":
            return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))
        return float(self.length)

    def tangents(self, s: np.ndarray) -> np.ndarray:
        """Unit tangents of the arclength-parameterized seed at the given nodes."""
        s = np.asarray(s, dtype=float)
        if self.kind == "segment":
            return np.tile(self.units["direction"], (s.size, 1))
        if self.kind == "arc":
            w = (s / self.radius)[:, None] * self.units["turn_axis"][None, :]
            return rotate_vectors(w, np.tile(self.units["initial_direction"], (s.size, 1)))
        chords = np.diff(self.points, axis=0)
        lengths = np.linalg.norm(chords, axis=1)
        tangents = chords / lengths[:, None]
        breaks = np.concatenate([[0.0], np.cumsum(lengths)])
        idx = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, lengths.size - 1)
        return tangents[idx]

    def tilted(self, angle: float, axis: np.ndarray) -> "SeedCurve":
        """Copy of the seed rigidly rotated about the origin."""
        w = angle * _unit(axis, "perturbation axis")
        if self.kind == "polyline":
            return SeedCurve("polyline", points=rotate_vectors(w, self.points))
        rotated = {key: rotate_vectors(w, unit) for key, unit in self.units.items()}
        return SeedCurve(self.kind, length=self.length, radius=self.radius, **rotated)


# The most cells a run may grow to. A step costs about 0.1 us per node, so a
# run to this many cells already takes about 14 hours; a grid past it would
# fail to allocate, or overflow the cell count, long before its run ended.
MAX_CELLS = 10**6


@dataclass
class SimConfig:
    scene: Scene
    law: GrowthLaw
    seed: SeedCurve
    dt: float
    t0: float
    horizon: float
    eps_contact: float | None = None
    eps_penetration: float | None = None
    kappa: float = 0.2
    correction_sweeps: int = 12
    correction_tol: float = 1e-8
    breakdown_angle_tol: float = 1e-3
    breakdown_curvature_tol: float = 1e-3
    stride: int = 1
    label: str = ""

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError(f"numerics.dt must be positive, got {self.dt}")
        if self.t0 <= 0.0:
            raise ValidationError(f"numerics.t0 must be positive, got {self.t0}")
        if self.horizon <= self.t0:
            raise ValidationError(
                f"numerics.horizon ({self.horizon}) must exceed numerics.t0 ({self.t0})"
            )
        # before any cell count is rounded: the ratio may overflow to inf. The
        # seed is shorter than the horizon, so this bounds its grid too.
        if not self.horizon / self.dt <= MAX_CELLS:
            raise ValidationError(
                f"numerics.horizon ({self.horizon}) is {self.horizon / self.dt:.7g} cells "
                f"of numerics.dt ({self.dt}), more than the {MAX_CELLS} a run may grow"
            )
        for name, value in (("t0", self.t0), ("horizon", self.horizon)):
            cells = round(value / self.dt)
            if cells < 1 or abs(cells * self.dt - value) > 1e-9 * max(1.0, value):
                raise ValidationError(
                    f"numerics.{name} ({value}) is not a whole number of dt cells"
                )
        if self.eps_contact is None:
            self.eps_contact = self.dt
        if self.eps_penetration is None:
            self.eps_penetration = 0.05 * self.dt
        if self.eps_contact <= 0.0 or self.eps_penetration <= 0.0:
            raise ValidationError("numerics.eps_contact and eps_penetration must be positive")
        if self.kappa < 0.0:
            raise ValidationError(f"numerics.kappa must be >= 0, got {self.kappa}")
        if self.correction_sweeps < 1:
            raise ValidationError("numerics.correction_sweeps must be >= 1")
        if self.correction_tol <= 0.0:
            raise ValidationError("numerics.correction_tol must be positive")
        # 0 is the exact head-on test; below it the test could never pass
        for name in ("breakdown_angle_tol", "breakdown_curvature_tol"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"numerics.{name} must be >= 0, got {getattr(self, name)}")
        if self.stride < 1:
            raise ValidationError(f"output.stride must be >= 1, got {self.stride}")
        seed_len = self.seed.arclength()
        if abs(seed_len - self.t0) > 1e-3 * max(1.0, seed_len):
            raise ValidationError(
                f"numerics.t0 ({self.t0}) does not match the seed_curve arclength "
                f"({seed_len:.6g})"
            )
        self.scene.validate(min_separation=self.eps_contact)

    @property
    def n_seed_cells(self) -> int:
        return round(self.t0 / self.dt)

    @property
    def n_total_cells(self) -> int:
        return round(self.horizon / self.dt)


def _real(value, where: str, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{where} must be {what}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN and for ints past float range
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return float(value)


def _float(value, where: str) -> float:
    return _real(value, where, "a float")


def _int(value, where: str) -> int:
    x = _real(value, where, "an int")
    if x != int(x):
        raise ValidationError(f"{where} must be an int, got {value!r}")
    return int(x)


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {value!r}")
    return value


def _list(check, what: str, fits):
    """A check for a list whose length fits and whose items pass check."""

    def read(value, where: str) -> list:
        if not isinstance(value, (list, tuple)) or not fits(len(value)):
            raise ValidationError(f"{where} must be a list of {what}, got {value!r}")
        return [check(item, f"{where}[{i}]") for i, item in enumerate(value)]

    return read


_vector = _list(_float, "3 numbers", lambda n: n == 3)
_floats = _list(_float, "numbers", lambda n: n >= 1)
_points = _list(_vector, "at least 2 points", lambda n: n >= 2)


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object, got {doc!r}")
    return doc


def _check_keys(doc: dict, allowed, where: str) -> None:
    extra = set(doc) - set(allowed)
    if extra:
        raise ValidationError(f"{where}: unknown keys {sorted(extra)}")


def _section(doc, table: dict, where: str, required=()) -> dict:
    """The checked values of one document section, in table order."""
    _check_keys(_object(doc, where), table, where)
    out = {}
    for key, check in table.items():
        if key in doc:
            out[key] = check(doc[key], f"{where}.{key}")
        elif key in required:
            raise ValidationError(f"{where}.{key} is required")
    return out


def _typed(doc, tables: dict, where: str) -> tuple[str, dict]:
    """(type, checked values) of a section whose "type" key picks its table."""
    kind = _object(doc, where).get("type")
    if not isinstance(kind, str) or kind not in tables:
        raise ValidationError(f"{where}.type must be {'|'.join(tables)}, got {kind!r}")
    body = {key: value for key, value in doc.items() if key != "type"}
    return kind, _section(body, tables[kind], where, required=tables[kind])


def _obstacle(doc, where: str):
    kind, fields = _typed(doc, _OBSTACLES, where)
    return _OBSTACLE_TYPES[kind](**fields)


# One table per section, key -> the check that returns its value. Parsing and
# writing both walk these tables, so the two cannot drift apart.
_OBSTACLES = {
    "sphere": {"center": _vector, "radius": _float},
    "half_space": {"point": _vector, "outward_normal": _vector},
    "cylinder": {"axis_point": _vector, "axis": _vector, "radius": _float},
}
_OBSTACLE_TYPES = {"sphere": Sphere, "half_space": HalfSpace, "cylinder": Cylinder}
_SEEDS = {
    "segment": {"direction": _vector, "length": _float},
    "arc": {
        "initial_direction": _vector,
        "turn_axis": _vector,
        "radius": _float,
        "length": _float,
    },
    "polyline": {"points": _points},
}
_LAW = {
    "variant": _text,
    "beta": _float,
    "gain": _float,
    "up": _vector,
    "ages": _floats,
    "response": _floats,
}
_NUMERIC_KEYS = {
    "dt": _float,
    "t0": _float,
    "horizon": _float,
    "eps_contact": _float,
    "eps_penetration": _float,
    "kappa": _float,
    "correction_sweeps": _int,
    "correction_tol": _float,
    "breakdown_angle_tol": _float,
    "breakdown_curvature_tol": _float,
}
_SCENE = {"obstacles": _list(_obstacle, "obstacles", lambda n: True)}
_OUTPUT = {"stride": _int}
_SECTIONS = ("label", "scene", "law", "seed_curve", "numerics", "output")


def _dump(obj, table: dict) -> dict:
    """The table's keys read back from an object; None is left out, arrays become lists."""
    out = {}
    for key in table:
        value = getattr(obj, key)
        if value is not None:
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def config_from_dict(doc: dict) -> SimConfig:
    _check_keys(_object(doc, "config"), _SECTIONS, "config")
    for name in ("scene", "law", "seed_curve", "numerics"):
        if name not in doc:
            raise ValidationError(f"config: missing section {name!r}")
    seed_kind, seed = _typed(doc["seed_curve"], _SEEDS, "seed_curve")
    return SimConfig(
        scene=Scene(**_section(doc["scene"], _SCENE, "scene")),
        law=GrowthLaw(**_section(doc["law"], _LAW, "law")),
        seed=SeedCurve(seed_kind, **seed),
        label=_text(doc.get("label", ""), "label"),
        **_section(doc["numerics"], _NUMERIC_KEYS, "numerics", required=("dt", "t0", "horizon")),
        **_section(doc.get("output", {}), _OUTPUT, "output"),
    )


def config_to_dict(config: SimConfig) -> dict:
    obstacles = []
    for ob in config.scene.obstacles:
        kind = next(k for k, cls in _OBSTACLE_TYPES.items() if isinstance(ob, cls))
        obstacles.append({"type": kind, **_dump(ob, _OBSTACLES[kind])})
    seed = config.seed
    return {
        "label": config.label,
        "scene": {"obstacles": obstacles},
        "law": _dump(config.law, _LAW),
        "seed_curve": {"type": seed.kind, **_dump(seed, _SEEDS[seed.kind])},
        "numerics": {key: getattr(config, key) for key in _NUMERIC_KEYS},
        "output": _dump(config, _OUTPUT),
    }


def load_config(path: str) -> SimConfig:
    """Load a scenario config; a run manifest is accepted and replayed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON, or bytes that are not text
        raise ParseError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "config" in doc and "tool" in doc:
        doc = doc["config"]
    return config_from_dict(doc)
