"""Time stepping: elongate, react against obstacles, rotate, reconstruct.

The state is a curves.Stem, the grown stem only: tangents at nodes 0..n on a
uniform grid whose spacing equals dt. One step advances the clock by dt:
evaluate the growth density, detect contacts, solve for the reaction, rotate
every tangent by the cumulative rotation below it, append the new tip node as
a copy of the rotated tip tangent, and rebuild positions from the base. So one grid cell
grows per step, and the new cell continues the tip straight.

A tangent turns by the Cayley map of dt times its cumulative rotation
(curves.cayley_vectors), not by its exponential: both are exact rotations
about that vector, so tangents stay unit, and their angles differ by a cube
of the step's angle, which keeps the scheme's first order in dt. The map
takes the half vector, so the step integrates the cumulative rotation at
half of dt times the cell, the dt folded into the quadrature's one scalar.
It needs no sine, cosine or square root, and this rotation is the one
per-node kernel that every step pays, once per correction sweep.

A node's age is a whole number of cells, so a run evaluates its growth law
once: simulate tabulates the law's coefficient at every age the run can
reach, 0..n_total_cells cells, and each step reads its nodes' coefficients
from that table (growth.psi_field).

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
step. The run's events describe contact patches, maximal runs of
consecutive contact nodes, as they start and end, not each node that enters
or leaves the band.

A step makes the frame of the state it advances from: its contacts, the
reaction solved there and the step's scalars. It computes the KKT residuals
of its solve only when that frame is written, so an unwritten contact step
skips the O(m n) stationarity check. simulate is the only stepping loop, a
generator over a seeded state: it makes each frame as it is drawn, flagged
with whether the run writes it, which the loop alone decides, and records
the run's events, frame counts, exit and terminal frame into a Trajectory as
it goes. run draws it from init_state and hands the written frames to a
sink, and twin_run draws it for each of its two runs and hands each run's
written frames to a write function, all as they are made, so a run holds one
step's working set and the terminal frame, not a frame list; a caller that
wants the frames in memory passes frames.extend as the sink. A frame holds
its tangents, not its positions: a frame is a Stem too, and derives them as
the state does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import chain, count

import numpy as np

from .config import SimConfig
from .curves import Stem, angular_displacement_profile, cayley_vectors
from .diagnostics import (
    gronwall_certificate,
    rotation_field,
    step_normal_rates,
    weighted_norm,
)
from .errors import (
    AntipodalAmbiguity,
    InitialPenetration,
    MaxIterationsExceeded,
    NonFiniteState,
    SimulationError,
    ValidationError,
)
from .growth import psi_field
from .obstacles import signed_distances
from .reaction import (
    NO_CONTACTS,
    ContactSet,
    assemble_constraints,
    check_kkt,
    detect_contacts,
    linear_rates,
    pushback_rates,
    rate_gaps,
    solve_reaction,
)
from .trajectory import Event, Trajectory, TrajectoryFrame


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
    """Turn each tangent by the Cayley map of dt times the rotation below it, grow, rebuild.

    The new tip node continues the rotated tip tangent: its row is a bitwise
    copy of the row below it. A state that is not finite raises, with no
    overflow warning first: the tip position sums every cell, so it alone tells.
    """
    half = angular_displacement_profile(density, 0.5 * dt * state.ds)
    k = np.empty((state.n_grown + 2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        cayley_vectors(half, state.k, out=k[:-1])
        k[-1] = k[-2]
        new = Stem(state.ds, k)
        # Integrated here, not at the next detection that reads it: made among
        # the step's temporaries, the positions leave a long run's heap smaller.
        if not np.isfinite(new.gamma[-1]).all():
            raise NonFiniteState(f"the step from t={state.t:.6g} left a non-finite tangent")
    return new


def step(
    state: Stem,
    config: SimConfig,
    by_age: np.ndarray,
    contacts: ContactSet,
    min_phi: float | None,
    warm_start: np.ndarray | None,
    seed: np.ndarray | None,
    certify: bool,
) -> tuple[Stem, TrajectoryFrame, np.ndarray | None]:
    """Advance one dt against the state's contacts: the new state, state's frame, the defect.

    The frame holds the contacts, min_phi and the reaction solved there. The
    defect is each contact row's realized less its linear normal rate as the
    accepted density moves the stem, None without contacts. With contacts, the
    linear rates must reach b0 = pushback - drive: the reaction must cancel
    whatever inward velocity the growth law alone would produce (the drive),
    plus expel any existing penetration at the pushback rate. seed is the defect
    guessed for each contact row, and the first solve is made on b0 - seed; a
    step without contacts reads neither warm_start nor seed. certify says
    whether the step's frame is written: only then are the KKT residuals of the
    accepted solve computed, while the step's constraint system is still at
    hand. by_age is the run's growth-law table, its coefficient by age in
    cells (growth.psi_field).
    """
    psi = psi_field(config.law, by_age, state.k)
    if contacts.size == 0:
        frame = TrajectoryFrame(state.ds, state.k, contacts, min_phi=min_phi)
        return _advance_fields(state, psi, config.dt), frame, None
    system = assemble_constraints(state, contacts, config.law.beta)
    pushback = pushback_rates(contacts.phi, config.kappa, config.dt)
    drive = linear_rates(system, psi)
    b0 = pushback - drive
    b = b0 - seed
    sol = solve_reaction(system, b, warm_start)
    # The solve is exact for the linearized rates; the actual update rotates
    # nodes along circular arcs, so the realized normal rates at the contacts
    # lag the linear prediction by O(dt). Feeding that defect back into b and
    # re-solving (warm-started) contracts the lag geometrically; iterate until
    # the active contacts move at the demanded pushback rate and no inactive
    # contact moves slower than it, which would drive that contact inward. The
    # first solve starts from the seed, the defect extrapolated from the last
    # contact steps, so a good seed saves sweeps; a bad one costs sweeps, since
    # only the realized rates decide acceptance. Running out of sweeps first is
    # a failure, never a silently accepted step. The linear rates of psi + omega
    # are drive + G mu, since the Gram matrix sums the cells linear_rates does.
    for sweep in range(config.correction_sweeps):
        new = _advance_fields(state, psi + sol.omega, config.dt)
        realized = step_normal_rates(state, new, contacts, config.dt)
        defect = realized - drive - system.gram @ sol.mu
        realized_residual, _ = rate_gaps(realized, pushback, sol.mu)
        if realized_residual <= config.correction_tol:
            break
        if sweep == config.correction_sweeps - 1:
            raise MaxIterationsExceeded(
                f"correction loop: residual {realized_residual:.3e} after "
                f"{config.correction_sweeps} sweeps (tol {config.correction_tol:.3e})"
            )
        b = b0 - defect
        sol = solve_reaction(system, b, sol.mu)
    kkt = check_kkt(system, b, sol) if certify else {}
    frame = TrajectoryFrame(
        state.ds, state.k, contacts,
        b=b,
        mu=sol.mu,
        energy=sol.energy,
        min_phi=min_phi,
        kkt_complementarity=kkt.get("complementarity"),
        kkt_stationarity=kkt.get("stationarity"),
        realized_residual=realized_residual,
        solver_sweeps=sol.sweeps,
    )
    return new, frame, defect


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

    def remember(self, frame: TrajectoryFrame, defect: np.ndarray) -> None:
        """Keep the multipliers of frame, a contact step's, and the step's defects."""
        last = self._last
        self._last = {
            key: (mu, (d, *last[key][1][:3]) if key in last else (d,))
            for key, mu, d in zip(self._keys(frame.contacts), frame.mu.tolist(), defect.tolist())
            if mu > 0.0
        }


class _ContactPatches:
    """The contact patches open at the last state, and the events that start and end them.

    A patch is a maximal run [first, last] of consecutive contact nodes, and
    a tip patch one whose last node is the tip. A run continues a patch of the
    state before when the two overlap or are adjacent (first <= old last + 1
    and old first <= last + 1) and each touches only the other; the sliding
    tip's [n] -> [n + 1] is one such. Every other change ends the old patches
    and starts new ones, with ids counted from 0 in the order they start. An
    end carries the range and tip of the patch's last state.
    """

    def __init__(self) -> None:
        self.open: list[dict] = []  # each open patch's record data at the last state
        self._ids = count()

    def update(self, contacts: ContactSet, t: float) -> list[Event]:
        """The ends and then the starts of patches at the state with contacts, at time t."""
        runs: list[list[int]] = []
        for node in contacts.nodes.tolist():
            if runs and node == runs[-1][1] + 1:
                runs[-1][1] = node
            else:
                runs.append([node, node])
        touches = [
            (i, j)
            for i, old in enumerate(self.open)
            for j, (first, last) in enumerate(runs)
            if first <= old["nodes"][1] + 1 and old["nodes"][0] <= last + 1
        ]
        olds = [i for i, _ in touches]
        news = [j for _, j in touches]
        continued = {j: i for i, j in touches if olds.count(i) == news.count(j) == 1}
        events = [
            Event(t=t, kind="ContactPatchEnd", data=old)
            for i, old in enumerate(self.open)
            if i not in continued.values()
        ]
        opened = []
        for j, run in enumerate(runs):
            pid = self.open[continued[j]]["patch"] if j in continued else next(self._ids)
            patch = {"patch": pid, "nodes": run, "tip": contacts.tip and j == len(runs) - 1}
            if j not in continued:
                events.append(Event(t=t, kind="ContactPatchStart", data=patch))
            opened.append(patch)
        self.open = opened
        return events


def simulate(
    state: Stem, config: SimConfig, traj: Trajectory
) -> Iterator[tuple[TrajectoryFrame, bool]]:
    """Step a seeded state to the horizon, a rigid jam, or an integrity failure.

    Yields each frame as it is made, with whether the run writes it: frame i
    is written when the config's stride divides i, and so is the terminal
    frame, the last item. Only written frames carry KKT residuals. traj
    records the run as it goes: each frame's events as it is made, the counts
    of frames made and written, and with the terminal frame the exit kind and
    that frame as its frames.

    A frame's events are the ends and then the starts of the contact patches
    (_ContactPatches) first seen at its state, one ContactPatchEnd or
    ContactPatchStart record each, not a record per node that enters or
    leaves the band; the terminal frame's end with the exit event
    (HorizonReached, Breakdown or IntegrityFailure). A patch still open at the
    exit gets no end. A state with no contacts and no open patch does no patch
    work, so free growth pays nothing for them. Such a state's detection
    stops at its least distance and hands back reaction.NO_CONTACTS, the
    package's one empty contact set, which also stands in for the contacts
    of a state whose detection failed.
    """
    n_total = config.n_total_cells
    by_age = config.law.coeff_by_age(config.dt, n_total)
    patches = _ContactPatches()
    memory = _ContactMemory()

    # Every iteration either steps or ends the run; the terminal frame is
    # yielded once below, after the exit event is recorded.
    for i in count():
        t = state.t
        contacts, min_phi = NO_CONTACTS, None
        written = i % config.stride == 0
        try:
            contacts, min_phi = detect_contacts(
                state, config.scene, config.eps_contact, config.eps_penetration
            )
            if contacts.size or patches.open:
                traj.events.extend(patches.update(contacts, t))

            broke, diag = detect_breakdown(state, contacts, config)
            if broke:
                exit_kind, data = "Breakdown", diag
                break
            if state.n_grown >= n_total:
                exit_kind, data = "HorizonReached", {}
                break

            warm_start = seed = None
            if contacts.size:
                warm_start, seed = memory.start(contacts)
            new_state, frame, defect = step(
                state, config, by_age, contacts, min_phi, warm_start, seed, written
            )
        except SimulationError as exc:
            exit_kind, data = "IntegrityFailure", {"error": str(exc)}
            break

        traj.frames_total += 1
        traj.frames_written += written
        yield frame, written
        if defect is not None:
            memory.remember(frame, defect)
        state = new_state

    traj.events.append(Event(t=state.t, kind=exit_kind, data=data))
    traj.exit_kind = exit_kind
    if min_phi is None and config.scene.obstacles:
        # detection failed on this state before it measured it
        min_phi = float(np.min(signed_distances(config.scene, state.gamma)))
    traj.frames = [TrajectoryFrame(state.ds, state.k, contacts, min_phi=min_phi)]
    traj.frames_total += 1
    traj.frames_written += 1
    yield traj.frames[0], True


def run(config: SimConfig, sink: Callable[[Iterator[TrajectoryFrame]], object]) -> Trajectory:
    """Run a scenario, handing the frames its stride writes to sink as they are made.

    sink is called once, after the seed is set and before the first step,
    with an iterator over those frames in order, and must draw it to its end;
    sink=frames.extend keeps them in the list frames. The trajectory holds
    the run's events, counts and exit kind, and only its terminal frame.
    """
    traj = Trajectory()
    sink(frame for frame, written in simulate(init_state(config), config, traj) if written)
    return traj


def _writing(frames: Iterator[tuple[TrajectoryFrame, bool]], write: Callable) -> Iterator:
    """Each frame of a simulate iterator, handing the written ones to write first."""
    for frame, written in frames:
        if written:
            write(frame)
        yield frame


@dataclass
class TwinResult:
    base: Trajectory
    perturbed: Trajectory
    perturbed_config: SimConfig
    times: np.ndarray
    distances: np.ndarray
    growth_constant: float | None
    details: dict


def twin_run(
    config: SimConfig, angle: float, axis: np.ndarray, ready: Callable[[], tuple]
) -> TwinResult:
    """Run a scenario and a seed-tilted twin in lockstep; track their weighted distance.

    ready is called once both seeds are set, before the first step, and
    returns the base and the tilted run's write functions; each is handed its
    run's written frames as they are made, so lambda: (a.append, b.append)
    keeps them in lists a and b. The
    distance at each shared frame is the exponentially weighted norm of the
    node-wise minimal rotation field between the two tangent fields, taken as
    the two frames are made; the certificate is the smallest exponential rate
    bounding its growth from the first frame, None when a run ends at its
    first frame. Each run's trajectory holds only its terminal frame. A tilt
    that leaves that distance 0 at the seed, as one that underflows or whose
    axis lies along the seed does, fits no certificate, and one that turns a
    seed tangent onto its opposite has no distance: either raises
    ValidationError, as a seed error does, before ready is called. An
    antipodal pair at a later frame stays an integrity failure.
    """
    tilted = replace(
        config,
        seed=config.seed.tilted(angle, axis),
        label=config.label + "+tilt" if config.label else "tilt",
    )
    base_seed, pert_seed = init_state(config), init_state(tilted)
    axis_text = ",".join(map(repr, np.asarray(axis, dtype=float).tolist()))
    flag = f"--perturb tilt:{angle!r}:{axis_text}"
    try:
        seed_field = rotation_field(base_seed.k, pert_seed.k)
    except AntipodalAmbiguity:
        raise ValidationError(
            f"{flag} turns a seed tangent onto its opposite, so the minimal "
            "rotation between the seeds, and their distance, is ambiguous"
        ) from None
    if not weighted_norm(seed_field, config.dt, config.law.beta):
        raise ValidationError(
            f"{flag} does not move the seed: "
            "its distance from the base seed is 0, so no growth rate can be fitted"
        )
    base, pert = Trajectory(), Trajectory()
    write_base, write_pert = ready()
    base_frames = _writing(simulate(base_seed, config, base), write_base)
    pert_frames = _writing(simulate(pert_seed, tilted, pert), write_pert)
    times, dists = [], []
    for fa, fb in zip(base_frames, pert_frames):
        times.append(fa.t)
        dists.append(weighted_norm(rotation_field(fa.k, fb.k), config.dt, config.law.beta))
    # the run that outlasts the other goes on alone to its own end
    for _ in chain(base_frames, pert_frames):
        pass

    times, dists = np.array(times), np.array(dists)
    c, details = gronwall_certificate(times, dists) if times.size > 1 else (None, {})
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
