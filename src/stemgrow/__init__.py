"""Constrained growth simulation for tree stems and vines."""

__version__ = "0.1.0"

from .config import SeedCurve, SimConfig, config_from_dict, config_to_dict, load_config
from .curves import angular_displacement_profile, integrate_tangents, rodrigues, rotate_vectors
from .diagnostics import gronwall_certificate, rotation_field, weighted_norm
from .growth import GrowthLaw, psi_field
from .obstacles import Cylinder, HalfSpace, Scene, Sphere, outer_normal
from .reaction import (
    ContactSet,
    ConstraintSystem,
    ReactionSolution,
    assemble_constraints,
    detect_contacts,
    oracle_solve_reaction,
    solve_reaction,
)
from .stepper import StemState, detect_breakdown, init_state, run, step, twin_run
from .trajectory import Event, Trajectory, TrajectoryFrame

__all__ = [
    "ContactSet",
    "ConstraintSystem",
    "Cylinder",
    "Event",
    "GrowthLaw",
    "HalfSpace",
    "ReactionSolution",
    "Scene",
    "SeedCurve",
    "SimConfig",
    "Sphere",
    "StemState",
    "Trajectory",
    "TrajectoryFrame",
    "angular_displacement_profile",
    "assemble_constraints",
    "config_from_dict",
    "config_to_dict",
    "detect_breakdown",
    "detect_contacts",
    "gronwall_certificate",
    "init_state",
    "integrate_tangents",
    "load_config",
    "oracle_solve_reaction",
    "outer_normal",
    "psi_field",
    "rodrigues",
    "rotate_vectors",
    "rotation_field",
    "run",
    "solve_reaction",
    "step",
    "twin_run",
    "weighted_norm",
]
