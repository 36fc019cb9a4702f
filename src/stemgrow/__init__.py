"""Constrained growth simulation for tree stems and vines."""

__version__ = "0.1.0"

from .config import SeedCurve, SimConfig, config_from_dict, config_to_dict, load_config
from .growth import GrowthLaw
from .obstacles import Cylinder, HalfSpace, Scene, Sphere
from .stepper import run, twin_run
from .trajectory import Event, Trajectory, TrajectoryFrame

__all__ = [
    "Cylinder",
    "Event",
    "GrowthLaw",
    "HalfSpace",
    "Scene",
    "SeedCurve",
    "SimConfig",
    "Sphere",
    "Trajectory",
    "TrajectoryFrame",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "run",
    "twin_run",
]
