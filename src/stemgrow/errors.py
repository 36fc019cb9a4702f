"""Exception types shared across the simulation modules."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SimulationError):
    """Config document or frames file could not be parsed."""


class ValidationError(SimulationError):
    """Config or state failed a structural check; message names the field."""


class InitialPenetration(ValidationError):
    """Seed curve starts inside an obstacle."""


class NoNearbyBoundary(SimulationError):
    """Normal query at a point farther from every surface than the band width."""


class DegenerateGradient(SimulationError):
    """Normal query at a point where the distance gradient vanishes."""


class PenetrationExceeded(SimulationError):
    """A node sits deeper inside an obstacle than the tolerance allows."""


class NonFiniteState(SimulationError):
    """A step produced a tangent or position that is NaN or infinite."""


class InfeasibleReaction(SimulationError):
    """No admissible reaction satisfies the contact constraints (jam-adjacent)."""


class MaxIterationsExceeded(SimulationError):
    """An iteration failed to reach tolerance within its sweep budget.

    The message starts with the iteration that gave up: the dual solver's
    active-set iteration ("dual solve") or the step's defect correction
    ("correction loop").
    """


class NoCandidateFeasible(SimulationError):
    """Enumeration oracle found no active set with a feasible solution."""


class AntipodalAmbiguity(SimulationError):
    """Minimal rotation requested between opposite unit vectors."""


class NonPositiveDistance(SimulationError):
    """Growth-rate certificate fed a distance that is zero or negative."""
