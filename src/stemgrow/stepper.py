"""Time stepping: elongate, react against obstacles, rotate, reconstruct.

One step advances the clock by dt (equal to the grid spacing, so one grid cell
converts from extension to grown material per step): evaluate the growth
density, detect contacts, solve for the reaction, rotate every tangent by the
cumulative rotation below it, rebuild positions from the base, and grow the
tip by one node. The straight extension beyond the tip rotates with the tip's
cumulative rotation, which keeps it exactly straight.

When contacts are present the constraint right-hand side is refined a few
times against the velocity the geometric update actually realizes, so that
complementarity holds for the realized per-step displacement, not just the
first-order model.

simulate is the only stepping loop: it yields each frame as it is made. run
and twin_run keep only the frames a run writes, so a run holds every
stride-th frame rather than all of them.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .config import SimConfig
from .curves import (
    ArclengthGrid,
    angular_displacement_profile,
    integrate_tangents,
    rotate_vectors,
)
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
    solve_reaction,
)
from .trajectory import Event, Trajectory, TrajectoryFrame

log = logging.getLogger("stemgrow.stepper")


@dataclass
class StemState:
    """Stem geometry on the full horizon grid; nodes above n_grown are extension."""

    grid: ArclengthGrid
    gamma: np.ndarray
    k: np.ndarray
    n_grown: int

    @property
    def ds(self) -> float:
        return self.grid.ds

    @property
    def s(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def t(self) -> float:
        return float(self.grid.nodes[self.n_grown])


@dataclass
class StepInfo:
    contacts: ContactSet
    solution: ReactionSolution | None
    b_effective: np.ndarray | None
    kkt: dict | None
    realized_residual: float | None
    defect: float | None

    @classmethod
    def without_reaction(cls, contacts: ContactSet) -> "StepInfo":
        return cls(contacts, None, None, None, None, None)


def init_state(config: SimConfig) -> StemState:
    """Seed the state: tangents from the seed curve, straight extension, origin base.

    Rejects seeds that dip into an obstacle or start on a surface. A seed
    that already sits in the rigid-jam configuration is left to run, which
    ends it with Breakdown before the first step.
    """
    n0 = config.n_seed_cells
    n_total = config.n_total_cells
    grid = ArclengthGrid.uniform(config.dt, n_total)
    k = np.empty((n_total + 1, 3))
    k[: n0 + 1] = config.seed.tangents(grid.nodes[: n0 + 1])
    k[n0 + 1 :] = k[n0]
    gamma = integrate_tangents(k, grid.ds)
    state = StemState(grid=grid, gamma=gamma, k=k, n_grown=n0)

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
    state: StemState, contacts: ContactSet, config: SimConfig
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
    curv = np.linalg.norm(np.diff(state.k[: n + 1], axis=0), axis=1) / state.ds
    free_cell = ~(in_contact[:-1] | in_contact[1:])
    max_free_curv = float(np.max(curv[free_cell])) if np.any(free_cell) else 0.0
    diag = {
        "angle_residual": angle_residual,
        "max_free_curvature": max_free_curv,
        "contact_nodes": [int(v) for v in contacts.nodes],
    }
    return max_free_curv <= config.breakdown_curvature_tol, diag


def _advance_fields(
    state: StemState, density: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate tangents by the cumulative rotation below each node, rebuild positions.

    density lives on grown nodes; extension nodes reuse the tip's cumulative
    rotation, so identical extension tangents stay bitwise identical. The rows
    above n + 1 are copies of row n + 1, so only rows 0..n+1 are rotated and
    the rest copy row n + 1 of the result.
    """
    n = state.n_grown
    omega_cap = np.empty((n + 2, 3))
    omega_cap[: n + 1] = angular_displacement_profile(density, state.ds)
    omega_cap[n + 1] = omega_cap[n]
    k_new = np.empty_like(state.k)
    k_new[: n + 2] = rotate_vectors(dt * omega_cap, state.k[: n + 2])
    k_new[n + 2 :] = k_new[n + 1]
    return k_new, integrate_tangents(k_new, state.ds)


def step(
    state: StemState,
    config: SimConfig,
    contacts: ContactSet | None = None,
    warm_start: np.ndarray | None = None,
) -> tuple[StemState, StepInfo]:
    """Advance one dt; returns the new state and what the step did."""
    n = state.n_grown
    if n >= state.grid.nodes.size - 1:
        raise ValueError("stem already fills the horizon grid")
    psi = psi_field(config.law, state.t, state.s[: n + 1], state.k[: n + 1])
    if contacts is None:
        contacts = detect_contacts(
            state, config.scene, config.eps_contact, config.eps_penetration
        )

    if contacts.size == 0:
        k_new, gamma_new = _advance_fields(state, psi, config.dt)
        info = StepInfo.without_reaction(contacts)
    else:
        system = assemble_constraints(
            state, contacts, psi, config.law.beta, config.kappa, config.dt
        )
        b0 = system.b.copy()
        pushback = config.kappa * np.maximum(0.0, -contacts.phi) / config.dt
        sol = solve_reaction(system, warm_start)
        # The solve is exact for the linearized rates; the actual update
        # rotates nodes along circular arcs, so the realized normal rates at
        # the contacts lag the linear prediction by O(dt). Feeding that defect
        # back into b and re-solving (warm-started) contracts the lag
        # geometrically; iterate until the active contacts move at the
        # demanded pushback rate. Running out of sweeps first is a failure,
        # never a silently accepted step.
        for sweep in range(config.correction_sweeps):
            k_new, gamma_new = _advance_fields(state, psi + sol.omega, config.dt)
            realized = step_normal_rates(
                state.gamma[: n + 1],
                gamma_new,
                contacts.nodes,
                contacts.normals,
                contacts.tip,
                config.dt,
            )
            predicted = linear_rates(system, psi + sol.omega)
            defect = float(np.max(np.abs(realized - predicted)))
            active = sol.mu > 0.0
            gap = np.abs(realized[active] - pushback[active])
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
            system.b = b0 - (realized - predicted)
            sol = solve_reaction(system, sol.mu)
        info = StepInfo(
            contacts=contacts,
            solution=sol,
            b_effective=system.b.copy(),
            kkt=check_kkt(system, sol),
            realized_residual=realized_residual,
            defect=defect,
        )

    return StemState(grid=state.grid, gamma=gamma_new, k=k_new, n_grown=n + 1), info


def _make_frame(state: StemState, info: StepInfo, scene) -> TrajectoryFrame:
    n = state.n_grown
    gamma = state.gamma[: n + 1]
    sol = info.solution
    kkt = info.kkt or {}
    min_phi = None
    if info.contacts.size:
        # the nearest node lies within the contact band, so it is a contact
        # and detection has already measured it
        min_phi = float(np.min(info.contacts.phi))
    elif scene.obstacles:
        min_phi = float(np.min(signed_distances(scene, gamma)))
    # s, gamma and k are copied: views would pin the full-horizon arrays.
    return TrajectoryFrame(
        t=state.t,
        n_grown=n,
        s=state.s[: n + 1].copy(),
        gamma=gamma.copy(),
        k=state.k[: n + 1].copy(),
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


def simulate(config: SimConfig) -> Iterator[tuple[TrajectoryFrame, list[Event]]]:
    """Step a scenario to the horizon, a rigid jam, or an integrity failure.

    Yields each frame as it is made, with the events first seen at it. The
    last item is the terminal frame, whose events end with the run's exit
    event (HorizonReached, Breakdown or IntegrityFailure).
    """
    state = init_state(config)
    n_total = config.n_total_cells
    prev_nodes = np.zeros(0, dtype=int)
    no_contacts = ContactSet(
        nodes=np.zeros(0, dtype=int),
        normals=np.zeros((0, 3)),
        phi=np.zeros(0),
        tip=False,
    )
    warm: dict[int, float] = {}

    # Every iteration either steps or ends the run; the terminal outcome is
    # yielded once below, as the final frame plus its event.
    while True:
        t = state.t
        contacts = no_contacts
        events: list[Event] = []
        try:
            contacts = detect_contacts(
                state, config.scene, config.eps_contact, config.eps_penetration
            )
            onset = np.setdiff1d(contacts.nodes, prev_nodes)
            release = np.setdiff1d(prev_nodes, contacts.nodes)
            if onset.size:
                log.info("contact onset at t=%.6g: nodes %s", t, onset.tolist())
                events.append(
                    Event(t=t, kind="ContactOnset", data={"nodes": [int(v) for v in onset]})
                )
            if release.size:
                events.append(
                    Event(t=t, kind="ContactRelease", data={"nodes": [int(v) for v in release]})
                )
            prev_nodes = contacts.nodes

            broke, diag = detect_breakdown(state, contacts, config)
            if broke:
                log.warning("breakdown at t=%.6g: %s", t, diag)
                exit_kind, data = "Breakdown", diag
                break
            if state.n_grown >= n_total:
                exit_kind, data = "HorizonReached", {}
                break

            warm_vec = np.array([warm.get(int(v), 0.0) for v in contacts.nodes])
            new_state, info = step(state, config, contacts, warm_vec)
        except SimulationError as exc:
            log.warning("integrity failure at t=%.6g: %s", t, exc)
            exit_kind, data = "IntegrityFailure", {"error": str(exc)}
            break

        yield _make_frame(state, info, config.scene), events
        if info.solution is not None:
            warm = {
                int(v): float(m)
                for v, m in zip(contacts.nodes, info.solution.mu)
            }
        state = new_state

    events.append(Event(t=state.t, kind=exit_kind, data=data))
    yield _make_frame(state, StepInfo.without_reaction(contacts), config.scene), events


def _record(config: SimConfig, traj: Trajectory) -> Iterator[TrajectoryFrame]:
    """Pass on each frame of simulate(config), filling traj as it goes.

    traj keeps every event, each frame whose index is a multiple of the
    config's stride, and the terminal frame; frames_total counts every frame
    made. This is the one place that decides which frames a run writes.
    """
    for i, (frame, events) in enumerate(simulate(config)):
        if i % config.stride == 0:
            traj.frames.append(frame)
        traj.events.extend(events)
        yield frame
    if traj.frames[-1] is not frame:
        traj.frames.append(frame)
    traj.frames_total = i + 1
    traj.exit_kind = traj.events[-1].kind


def _empty_trajectory() -> Trajectory:
    return Trajectory(frames=[], events=[], exit_kind="", frames_total=0)


def run(config: SimConfig) -> Trajectory:
    """Run a scenario, keeping only the frames its stride writes."""
    traj = _empty_trajectory()
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
    details: dict = field(default_factory=dict)


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
    base, pert = _empty_trajectory(), _empty_trajectory()
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
