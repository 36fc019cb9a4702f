"""Time stepping: elongate, react against obstacles, rotate, reconstruct.

The state is a curves.Stem, the grown stem only: tangents at nodes 0..n on a
uniform grid whose spacing equals dt. One step advances the clock by dt:
evaluate the growth density, detect contacts, solve for the reaction, rotate
every tangent by the cumulative rotation below it, append the new tip node as
a copy of the rotated tip tangent, and rebuild positions from the base. So one grid cell
grows per step, and the new cell continues the tip straight.

When contacts are present the constraint right-hand side is refined a few
times against the velocity the geometric update actually realizes, so that
complementarity holds for the realized per-step displacement, not just the
first-order model. A step is accepted only if each active contact moves at
its pushback rate and every other contact at least at it, so no accepted step
drives a contact inward. The reaction and that defect change smoothly from
step to step, so each active contact carries its multiplier and its last
four defects to the next contact step: the multiplier warm-starts the dual
solve, and the defect extrapolated from them, at cubic order, seeds the
first solve. A contact is keyed by its material node, and the tip contact by
"tip", so that its memory follows the tip as the tip moves up one node per
step.

simulate is the only stepping loop: it yields each frame as it is made. run
and twin_run keep only the frames a run writes, so a run holds every
stride-th frame rather than all of them, and of each frame its tangents, not
its positions: a frame is a Stem too, and derives them as the state does.
A step computes the KKT residuals of its solve only when its frame is
written, so an unwritten contact step skips the O(m n) stationarity check.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import chain, count

import numpy as np

from .config import SimConfig
from .curves import Stem, angular_displacement_profile, rotate_vectors
from .diagnostics import (
    gronwall_certificate,
    rotation_field,
    step_normal_rates,
    weighted_norm,
)
from .errors import InitialPenetration, MaxIterationsExceeded, SimulationError
from .growth import psi_field
from .obstacles import signed_distances
from .reaction import (
    ContactSet,
    ReactionSolution,
    assemble_constraints,
    check_kkt,
    detect_contacts,
    linear_rates,
    pushback_rates,
    solve_reaction,
)
from .trajectory import Event, Trajectory, TrajectoryFrame

log = logging.getLogger("stemgrow.stepper")


@dataclass
class StepInfo:
    contacts: ContactSet
    solution: ReactionSolution | None
    b_effective: np.ndarray | None
    kkt: dict | None
    realized_residual: float | None
    # realized minus linear normal rates per contact row, as the accepted
    # density moves the stem
    defect: np.ndarray | None

    @classmethod
    def without_reaction(cls, contacts: ContactSet) -> "StepInfo":
        return cls(contacts, None, None, None, None, None)


def init_state(config: SimConfig) -> Stem:
    """Seed the state: tangents from the seed curve, positions from the origin base.

    Rejects seeds that dip into an obstacle or start on a surface. A seed
    that already sits in the rigid-jam configuration is left to run, which
    ends it with Breakdown before the first step.
    """
    n0 = config.n_seed_cells
    s = config.dt * np.arange(n0 + 1, dtype=float)
    state = Stem(config.dt, config.seed.tangents(s))
    gamma = state.gamma

    if config.scene.obstacles:
        base_phi = float(signed_distances(config.scene, gamma[0][None, :])[0])
        if base_phi <= config.eps_contact:
            raise InitialPenetration(
                f"seed base sits {base_phi:.3e} from an obstacle surface "
                f"(needs more than eps_contact {config.eps_contact:.3e})"
            )
        fracs = np.linspace(0.0, 1.0, 9)[1:]
        cells = gamma[:n0, None, :] + fracs[None, :, None] * (
            gamma[1 : n0 + 1, None, :] - gamma[:n0, None, :]
        )
        phis = signed_distances(config.scene, cells.reshape(-1, 3))
        if float(np.min(phis)) < -1e-12:
            bad = int(np.argmin(phis)) // fracs.size
            raise InitialPenetration(
                f"seed curve dips {-float(np.min(phis)):.3e} into an obstacle "
                f"near node {bad}"
            )
    return state


def detect_breakdown(
    state: Stem, contacts: ContactSet, config: SimConfig
) -> tuple[bool, dict]:
    """Rigid-jam test: tip pressed head-on into a surface while the free part is straight."""
    if not contacts.tip:
        return False, {}
    n = state.n_grown
    tip_normal = contacts.normals[-1]
    angle_residual = 1.0 + float(state.k[n] @ tip_normal)
    if angle_residual > config.breakdown_angle_tol:
        return False, {"angle_residual": angle_residual}
    in_contact = np.zeros(n + 1, dtype=bool)
    in_contact[contacts.nodes] = True
    curv = np.linalg.norm(np.diff(state.k, axis=0), axis=1) / state.ds
    free_cell = ~(in_contact[:-1] | in_contact[1:])
    max_free_curv = float(np.max(curv[free_cell])) if np.any(free_cell) else 0.0
    diag = {
        "angle_residual": angle_residual,
        "max_free_curvature": max_free_curv,
        "contact_nodes": [int(v) for v in contacts.nodes],
    }
    return max_free_curv <= config.breakdown_curvature_tol, diag


def _advance_fields(state: Stem, density: np.ndarray, dt: float) -> Stem:
    """Rotate tangents by the cumulative rotation below each node, grow, rebuild positions.

    The new tip node continues the rotated tip tangent: its row is a bitwise
    copy of the row below it.
    """
    omega_cap = angular_displacement_profile(density, state.ds)
    rotated = rotate_vectors(dt * omega_cap, state.k)
    new = Stem(state.ds, np.concatenate([rotated, rotated[-1:]]))
    # Integrated here, not at the next detection that reads it: made among the
    # step's temporaries, the positions leave a long run's heap smaller.
    new.gamma
    return new


def step(
    state: Stem,
    config: SimConfig,
    contacts: ContactSet,
    warm_start: np.ndarray | None,
    seed: np.ndarray | None,
    certify: bool,
) -> tuple[Stem, StepInfo]:
    """Advance one dt against the state's contacts; returns the new state and what it did.

    With contacts, the linear rates must reach b0 = pushback - drive: the
    reaction must cancel whatever inward velocity the growth law alone would
    produce (the drive), plus expel any existing penetration at the pushback
    rate. seed is the defect guessed for each contact row, and the first
    solve is made on b0 - seed; a step without contacts reads neither
    warm_start nor seed. certify says whether the step's frame is written:
    only then are the KKT residuals of the accepted solve computed, while
    the step's constraint system is still at hand.
    """
    psi = psi_field(config.law, state.t, state.s, state.k)
    if contacts.size == 0:
        new = _advance_fields(state, psi, config.dt)
        info = StepInfo.without_reaction(contacts)
    else:
        system = assemble_constraints(state, contacts, config.law.beta)
        pushback = pushback_rates(contacts.phi, config.kappa, config.dt)
        drive = linear_rates(system, psi)
        b0 = pushback - drive
        b = b0 - seed
        sol = solve_reaction(system, b, warm_start)
        # The solve is exact for the linearized rates; the actual update
        # rotates nodes along circular arcs, so the realized normal rates at
        # the contacts lag the linear prediction by O(dt). Feeding that defect
        # back into b and re-solving (warm-started) contracts the lag
        # geometrically; iterate until the active contacts move at the
        # demanded pushback rate and no inactive contact moves slower than
        # it, which would drive that contact inward. The first solve starts
        # from the seed, the defect extrapolated from the last contact steps,
        # so a good seed saves sweeps; a bad one costs sweeps, since only the
        # realized rates decide acceptance. Running out of sweeps first is a
        # failure, never a silently accepted step. The linear rates of
        # psi + omega are drive + G mu, since the Gram matrix sums the cells
        # linear_rates does.
        for sweep in range(config.correction_sweeps):
            new = _advance_fields(state, psi + sol.omega, config.dt)
            realized = step_normal_rates(
                state.gamma,
                new.gamma,
                contacts.nodes,
                contacts.normals,
                contacts.tip,
                config.dt,
            )
            defect = realized - drive - system.gram @ sol.mu
            gap = np.where(sol.mu > 0.0, np.abs(realized - pushback), pushback - realized)
            realized_residual = float(np.max(gap, initial=0.0))
            if realized_residual <= config.correction_tol:
                break
            if sweep == config.correction_sweeps - 1:
                raise MaxIterationsExceeded(
                    "correction loop",
                    realized_residual,
                    config.correction_tol,
                    config.correction_sweeps,
                )
            b = b0 - defect
            sol = solve_reaction(system, b, sol.mu)
        info = StepInfo(
            contacts=contacts,
            solution=sol,
            b_effective=b,
            kkt=check_kkt(system, b, sol) if certify else None,
            realized_residual=realized_residual,
            defect=defect,
        )

    return new, info


# Weights that extrapolate the next defect from the last ones, newest first,
# by how many a contact carries: the polynomial through them, of degree one
# less, read one step on.
_EXTRAPOLATION = ((), (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


class _ContactMemory:
    """What each active contact carries from one contact step to the next.

    Keys are material nodes, and "tip" for the tip contact, so that the tip's
    memory follows the tip. Each key holds the last multiplier and up to four
    last defects, newest first. Only the active contacts of the last contact
    step are kept: an inactive contact's multiplier is 0, and its defect never
    enters the acceptance test, so carried on it would only demand a spurious
    rate of round-off size from a contact that the next step leaves at rest.
    """

    def __init__(self) -> None:
        self._last: dict[int | str, tuple[float, tuple[float, ...]]] = {}

    @staticmethod
    def _keys(contacts: ContactSet) -> list[int | str]:
        keys: list[int | str] = contacts.nodes.tolist()
        if contacts.tip:
            keys[-1] = "tip"
        return keys

    def start(self, contacts: ContactSet) -> tuple[np.ndarray, np.ndarray]:
        """Warm start and seed for a step on contacts.

        The seed is 4 d1 - 6 d2 + 4 d3 - d4 where a contact has four defects,
        3 d1 - 3 d2 + d3 where it has three, 2 d1 - d2 where it has two, d1
        where it has one, and 0 for a contact that carries nothing.
        """
        warm, seed = [], []
        for key in self._keys(contacts):
            mu, defects = self._last.get(key, (0.0, ()))
            warm.append(mu)
            seed.append(sum(w * d for w, d in zip(_EXTRAPOLATION[len(defects)], defects)))
        return np.array(warm), np.array(seed)

    def remember(self, contacts: ContactSet, info: StepInfo) -> None:
        last = self._last
        self._last = {
            key: (mu, (d, *last[key][1][:3]) if key in last else (d,))
            for key, mu, d in zip(
                self._keys(contacts), info.solution.mu.tolist(), info.defect.tolist()
            )
            if mu > 0.0
        }


def _make_frame(state: Stem, info: StepInfo, min_phi: float | None) -> TrajectoryFrame:
    sol = info.solution
    kkt = info.kkt or {}
    return TrajectoryFrame(
        ds=state.ds,
        k=state.k,
        contacts=info.contacts,
        b=info.b_effective,
        mu=sol.mu if sol is not None else None,
        energy=sol.energy if sol is not None else None,
        min_phi=min_phi,
        kkt_complementarity=kkt.get("complementarity"),
        kkt_stationarity=kkt.get("stationarity"),
        realized_residual=info.realized_residual,
        solver_sweeps=sol.sweeps if sol is not None else None,
    )


def simulate(
    config: SimConfig, written: Callable[[int], bool]
) -> Iterator[tuple[TrajectoryFrame, list[Event]]]:
    """Step a scenario to the horizon, a rigid jam, or an integrity failure.

    Yields each frame as it is made, with the events first seen at it. The
    last item is the terminal frame, whose events end with the run's exit
    event (HorizonReached, Breakdown or IntegrityFailure). written(i) says
    whether frame i is written; a frame that is not carries no KKT
    residuals.
    """
    state = init_state(config)
    n_total = config.n_total_cells
    prev_nodes: set[int] = set()
    no_contacts = ContactSet(
        nodes=np.zeros(0, dtype=int),
        normals=np.zeros((0, 3)),
        phi=np.zeros(0),
        tip=False,
    )
    memory = _ContactMemory()

    # Every iteration either steps or ends the run; the terminal outcome is
    # yielded once below, as the final frame plus its event.
    for i in count():
        t = state.t
        contacts, min_phi = no_contacts, None
        events: list[Event] = []
        try:
            contacts, min_phi = detect_contacts(
                state, config.scene, config.eps_contact, config.eps_penetration
            )
            nodes = set(contacts.nodes.tolist())
            onset = sorted(nodes - prev_nodes)
            release = sorted(prev_nodes - nodes)
            if onset:
                log.info("contact onset at t=%.6g: nodes %s", t, onset)
                events.append(Event(t=t, kind="ContactOnset", data={"nodes": onset}))
            if release:
                events.append(Event(t=t, kind="ContactRelease", data={"nodes": release}))
            prev_nodes = nodes

            broke, diag = detect_breakdown(state, contacts, config)
            if broke:
                log.warning("breakdown at t=%.6g: %s", t, diag)
                exit_kind, data = "Breakdown", diag
                break
            if state.n_grown >= n_total:
                exit_kind, data = "HorizonReached", {}
                break

            warm_start = seed = None
            if contacts.size:
                warm_start, seed = memory.start(contacts)
            new_state, info = step(state, config, contacts, warm_start, seed, written(i))
        except SimulationError as exc:
            log.warning("integrity failure at t=%.6g: %s", t, exc)
            exit_kind, data = "IntegrityFailure", {"error": str(exc)}
            break

        yield _make_frame(state, info, min_phi), events
        if info.solution is not None:
            memory.remember(contacts, info)
        state = new_state

    events.append(Event(t=state.t, kind=exit_kind, data=data))
    if min_phi is None and config.scene.obstacles:
        # detection failed on this state before it measured it
        min_phi = float(np.min(signed_distances(config.scene, state.gamma)))
    yield _make_frame(state, StepInfo.without_reaction(contacts), min_phi), events


def _record(config: SimConfig, traj: Trajectory) -> Iterator[TrajectoryFrame]:
    """Pass on each frame of simulate(config), filling traj as it goes.

    traj keeps every event, each frame whose index is a multiple of the
    config's stride, and the terminal frame; frames_total counts every frame
    made. This is the one place that decides which frames a run writes, and
    simulate certifies those frames alone.
    """

    def written(i: int) -> bool:
        return i % config.stride == 0

    for i, (frame, events) in enumerate(simulate(config, written)):
        if written(i):
            traj.frames.append(frame)
        traj.events.extend(events)
        yield frame
    if traj.frames[-1] is not frame:
        traj.frames.append(frame)
    traj.frames_total = i + 1
    traj.exit_kind = traj.events[-1].kind


def run(config: SimConfig) -> Trajectory:
    """Run a scenario, keeping only the frames its stride writes."""
    traj = Trajectory()
    for _ in _record(config, traj):
        pass
    return traj


@dataclass
class TwinResult:
    base: Trajectory
    perturbed: Trajectory
    perturbed_config: SimConfig
    times: np.ndarray
    distances: np.ndarray
    growth_constant: float
    details: dict


def twin_run(config: SimConfig, angle: float, axis: np.ndarray) -> TwinResult:
    """Run a scenario and a seed-tilted twin in lockstep; track their weighted distance.

    The distance at each shared frame is the exponentially weighted norm of
    the node-wise minimal rotation field between the two tangent fields,
    taken as the two frames are made; the certificate is the smallest
    exponential rate bounding its growth from the first frame. Each run keeps
    only the frames its stride writes.
    """
    tilted = replace(
        config,
        seed=config.seed.tilted(angle, axis),
        label=config.label + "+tilt" if config.label else "tilt",
    )
    base, pert = Trajectory(), Trajectory()
    base_frames = _record(config, base)
    pert_frames = _record(tilted, pert)
    times, dists = [], []
    for fa, fb in zip(base_frames, pert_frames):
        times.append(fa.t)
        dists.append(weighted_norm(rotation_field(fa.k, fb.k), config.dt, config.law.beta))
    # the run that outlasts the other goes on alone to its own end
    for _ in chain(base_frames, pert_frames):
        pass

    times, dists = np.array(times), np.array(dists)
    c, details = gronwall_certificate(times, dists)
    details["shared_frames"] = times.size
    details["base_exit"] = base.exit_kind
    details["perturbed_exit"] = pert.exit_kind
    return TwinResult(
        base=base,
        perturbed=pert,
        perturbed_config=tilted,
        times=times,
        distances=dists,
        growth_constant=c,
        details=details,
    )
