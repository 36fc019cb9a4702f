"""Scenario configuration: JSON documents with scene/law/seed/numerics sections."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .curves import rodrigues, rotate_vectors
from .errors import ParseError, ValidationError
from .growth import GrowthLaw
from .obstacles import Cylinder, HalfSpace, Scene, Sphere, _unit


@dataclass
class SeedCurve:
    """Initial stem shape: a named primitive or a polyline resampled by arclength."""

    kind: str
    direction: np.ndarray | None = None
    length: float | None = None
    initial_direction: np.ndarray | None = None
    turn_axis: np.ndarray | None = None
    radius: float | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "segment":
            if self.direction is None or self.length is None:
                raise ValidationError("seed_curve: segment needs direction and length")
            self.direction = _unit(self.direction, "seed_curve.direction")
            if self.length <= 0.0:
                raise ValidationError("seed_curve.length must be positive")
        elif self.kind == "arc":
            need = (self.initial_direction, self.turn_axis, self.radius, self.length)
            if any(v is None for v in need):
                raise ValidationError(
                    "seed_curve: arc needs initial_direction, turn_axis, radius, length"
                )
            self.initial_direction = _unit(self.initial_direction, "seed_curve.initial_direction")
            self.turn_axis = _unit(self.turn_axis, "seed_curve.turn_axis")
            if abs(float(self.initial_direction @ self.turn_axis)) > 1e-9:
                raise ValidationError(
                    "seed_curve.turn_axis must be orthogonal to initial_direction"
                )
            if self.radius <= 0.0 or self.length <= 0.0:
                raise ValidationError("seed_curve: radius and length must be positive")
        elif self.kind == "polyline":
            if self.points is None:
                raise ValidationError("seed_curve: polyline needs points")
            self.points = np.asarray(self.points, dtype=float)
            if self.points.ndim != 2 or self.points.shape[0] < 2 or self.points.shape[1] != 3:
                raise ValidationError("seed_curve.points must be an (n>=2, 3) array")
            if np.any(np.linalg.norm(np.diff(self.points, axis=0), axis=1) < 1e-12):
                raise ValidationError("seed_curve.points contains a zero-length chord")
        else:
            raise ValidationError(f"seed_curve.type must be segment|arc|polyline, got {self.kind!r}")

    def arclength(self) -> float:
        if self.kind == "polyline":
            return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))
        return float(self.length)

    def tangents(self, s: np.ndarray) -> np.ndarray:
        """Unit tangents of the arclength-parameterized seed at the given nodes."""
        s = np.asarray(s, dtype=float)
        if self.kind == "segment":
            return np.tile(self.direction, (s.size, 1))
        if self.kind == "arc":
            w = (s / self.radius)[:, None] * self.turn_axis[None, :]
            return rotate_vectors(w, np.tile(self.initial_direction, (s.size, 1)))
        chords = np.diff(self.points, axis=0)
        lengths = np.linalg.norm(chords, axis=1)
        tangents = chords / lengths[:, None]
        breaks = np.concatenate([[0.0], np.cumsum(lengths)])
        idx = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, lengths.size - 1)
        return tangents[idx]

    def tilted(self, angle: float, axis: np.ndarray) -> "SeedCurve":
        """Copy of the seed rigidly rotated about the origin."""
        rot = rodrigues(angle * _unit(axis, "perturbation axis"))
        if self.kind == "segment":
            return SeedCurve("segment", direction=rot @ self.direction, length=self.length)
        if self.kind == "arc":
            return SeedCurve(
                "arc",
                initial_direction=rot @ self.initial_direction,
                turn_axis=rot @ self.turn_axis,
                radius=self.radius,
                length=self.length,
            )
        return SeedCurve("polyline", points=self.points @ rot.T)


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
    solver_tol: float = 1e-10
    solver_max_sweeps: int = 10_000
    solver_ridge: float = 1e-12
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
        for name, value in (("t0", self.t0), ("horizon", self.horizon)):
            cells = round(value / self.dt)
            if cells < 1 or abs(cells * self.dt - value) > 1e-9 * max(1.0, value):
                raise ValidationError(
                    f"numerics.{name} ({value}) is not a whole number of dt cells"
                )
        if self.eps_contact is None:
            self.eps_contact = 1e-3 * self.dt
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


_NUMERIC_KEYS = {
    "dt": float,
    "t0": float,
    "horizon": float,
    "eps_contact": float,
    "eps_penetration": float,
    "kappa": float,
    "correction_sweeps": int,
    "correction_tol": float,
    "breakdown_angle_tol": float,
    "breakdown_curvature_tol": float,
    "solver_tol": float,
    "solver_max_sweeps": int,
    "solver_ridge": float,
}


def _check_keys(section: dict, allowed, where: str) -> None:
    extra = set(section) - set(allowed)
    if extra:
        raise ValidationError(f"{where}: unknown keys {sorted(extra)}")


def scene_from_dict(doc: dict) -> Scene:
    _check_keys(doc, {"obstacles"}, "scene")
    obstacles = []
    for i, ob in enumerate(doc.get("obstacles", [])):
        kind = ob.get("type")
        where = f"scene.obstacles[{i}]"
        if kind == "sphere":
            _check_keys(ob, {"type", "center", "radius"}, where)
            obstacles.append(Sphere(center=ob["center"], radius=ob["radius"]))
        elif kind == "half_space":
            _check_keys(ob, {"type", "point", "outward_normal"}, where)
            obstacles.append(HalfSpace(point=ob["point"], outward_normal=ob["outward_normal"]))
        elif kind == "cylinder":
            _check_keys(ob, {"type", "axis_point", "axis", "radius"}, where)
            obstacles.append(
                Cylinder(axis_point=ob["axis_point"], axis=ob["axis"], radius=ob["radius"])
            )
        else:
            raise ValidationError(f"{where}.type must be sphere|half_space|cylinder, got {kind!r}")
    return Scene(obstacles=obstacles)


def scene_to_dict(scene: Scene) -> dict:
    out = []
    for ob in scene.obstacles:
        if isinstance(ob, Sphere):
            out.append({"type": "sphere", "center": list(ob.center), "radius": ob.radius})
        elif isinstance(ob, HalfSpace):
            out.append(
                {
                    "type": "half_space",
                    "point": list(ob.point),
                    "outward_normal": list(ob.outward_normal),
                }
            )
        else:
            out.append(
                {
                    "type": "cylinder",
                    "axis_point": list(ob.axis_point),
                    "axis": list(ob.axis),
                    "radius": ob.radius,
                }
            )
    return {"obstacles": out}


def law_from_dict(doc: dict) -> GrowthLaw:
    _check_keys(doc, {"variant", "beta", "gain", "up", "ages", "response"}, "law")
    kwargs = dict(
        variant=doc.get("variant", "gravitropic"),
        beta=doc.get("beta", 1.0),
        gain=doc.get("gain", 1.0),
        up=np.asarray(doc.get("up", [0.0, 0.0, 1.0]), dtype=float),
    )
    if "ages" in doc or "response" in doc:
        kwargs["ages"] = doc.get("ages")
        kwargs["response"] = doc.get("response")
    return GrowthLaw(**kwargs)


def law_to_dict(law: GrowthLaw) -> dict:
    out = {"variant": law.variant, "beta": law.beta, "gain": law.gain, "up": list(law.up)}
    if law.variant == "custom":
        out["ages"] = list(law.ages)
        out["response"] = list(law.response)
    return out


def seed_from_dict(doc: dict) -> SeedCurve:
    kind = doc.get("type")
    if kind == "segment":
        _check_keys(doc, {"type", "direction", "length"}, "seed_curve")
        return SeedCurve("segment", direction=doc["direction"], length=doc["length"])
    if kind == "arc":
        _check_keys(
            doc, {"type", "initial_direction", "turn_axis", "radius", "length"}, "seed_curve"
        )
        return SeedCurve(
            "arc",
            initial_direction=doc["initial_direction"],
            turn_axis=doc["turn_axis"],
            radius=doc["radius"],
            length=doc["length"],
        )
    if kind == "polyline":
        _check_keys(doc, {"type", "points"}, "seed_curve")
        return SeedCurve("polyline", points=doc["points"])
    raise ValidationError(f"seed_curve.type must be segment|arc|polyline, got {kind!r}")


def seed_to_dict(seed: SeedCurve) -> dict:
    if seed.kind == "segment":
        return {"type": "segment", "direction": list(seed.direction), "length": seed.length}
    if seed.kind == "arc":
        return {
            "type": "arc",
            "initial_direction": list(seed.initial_direction),
            "turn_axis": list(seed.turn_axis),
            "radius": seed.radius,
            "length": seed.length,
        }
    return {"type": "polyline", "points": [list(p) for p in seed.points]}


def config_from_dict(doc: dict) -> SimConfig:
    _check_keys(doc, {"label", "scene", "law", "seed_curve", "numerics", "output"}, "config")
    for required in ("scene", "law", "seed_curve", "numerics"):
        if required not in doc:
            raise ValidationError(f"config: missing section {required!r}")
    numerics = dict(doc["numerics"])
    _check_keys(numerics, _NUMERIC_KEYS, "numerics")
    for key in ("dt", "t0", "horizon"):
        if key not in numerics:
            raise ValidationError(f"numerics.{key} is required")
    kwargs = {}
    for key, cast in _NUMERIC_KEYS.items():
        if key in numerics:
            try:
                kwargs[key] = cast(numerics[key])
            except (TypeError, ValueError):
                raise ValidationError(f"numerics.{key} must be a {cast.__name__}")
    output = dict(doc.get("output", {}))
    _check_keys(output, {"stride"}, "output")
    return SimConfig(
        scene=scene_from_dict(doc["scene"]),
        law=law_from_dict(doc["law"]),
        seed=seed_from_dict(doc["seed_curve"]),
        stride=int(output.get("stride", 1)),
        label=str(doc.get("label", "")),
        **kwargs,
    )


def config_to_dict(config: SimConfig) -> dict:
    numerics = {
        "dt": config.dt,
        "t0": config.t0,
        "horizon": config.horizon,
        "eps_contact": config.eps_contact,
        "eps_penetration": config.eps_penetration,
        "kappa": config.kappa,
        "correction_sweeps": config.correction_sweeps,
        "correction_tol": config.correction_tol,
        "breakdown_angle_tol": config.breakdown_angle_tol,
        "breakdown_curvature_tol": config.breakdown_curvature_tol,
        "solver_tol": config.solver_tol,
        "solver_max_sweeps": config.solver_max_sweeps,
        "solver_ridge": config.solver_ridge,
    }
    return {
        "label": config.label,
        "scene": scene_to_dict(config.scene),
        "law": law_to_dict(config.law),
        "seed_curve": seed_to_dict(config.seed),
        "numerics": numerics,
        "output": {"stride": config.stride},
    }


def load_config(path: str) -> SimConfig:
    """Load a scenario config; a run manifest is accepted and replayed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if "config" in doc and "tool" in doc:
        doc = doc["config"]
    return config_from_dict(doc)
