"""Time stepping: free growth, contact response, breakdown, and runs."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import unwritten, written_lines

from stemgrow.config import SeedCurve, SimConfig, load_config
from stemgrow.curves import (
    angular_displacement_profile,
    cayley_vectors,
    integrate_tangents,
    rotate_vectors,
)
from stemgrow.diagnostics import rotation_field, step_normal_rates, weighted_norm
from stemgrow.errors import InitialPenetration, MaxIterationsExceeded
from stemgrow.growth import GrowthLaw, psi_field
from stemgrow.obstacles import HalfSpace, Scene, Sphere, signed_distances
from stemgrow.reaction import (
    ContactSet,
    assemble_constraints,
    density_from_multipliers,
    detect_contacts,
    linear_rates,
    oracle_solve_reaction,
    pushback_rates,
    solve_reaction,
)
from stemgrow import stepper
from stemgrow.stepper import (
    _advance_fields,
    _ContactMemory,
    _ContactPatches,
    detect_breakdown,
    init_state,
    run,
    simulate,
    step,
    twin_run,
)
from stemgrow.trajectory import Trajectory, TrajectoryFrame, frame_to_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def make_config(**overrides):
    base = dict(
        scene=Scene([]),
        law=GrowthLaw(variant="zero"),
        seed=SeedCurve(kind="segment", direction=E3, length=0.1),
        dt=0.1,
        t0=0.1,
        horizon=1.0,
    )
    base.update(overrides)
    return SimConfig(**base)


def ceiling(z):
    return Scene([HalfSpace(point=np.array([0.0, 0.0, z]), outward_normal=-E3)])


def detected(state, config):
    """The state's contacts and its least signed distance, as a run detects them."""
    return detect_contacts(state, config.scene, config.eps_contact, config.eps_penetration)


def cold_step(state, config, contacts, min_phi):
    """One step with no warm multipliers and a zero seed, its KKT residuals computed."""
    return step(state, config, contacts, min_phi, None, np.zeros(contacts.size), True)


def test_seed_fills_grid_with_vertical_tangents():
    config = make_config(
        seed=SeedCurve(kind="segment", direction=E3, length=1.0),
        t0=1.0,
        horizon=2.0,
    )
    state = init_state(config)
    assert state.n_grown == 10
    want = np.tile(E3, (state.k.shape[0], 1))
    assert np.array_equal(state.k, want)
    assert np.allclose(state.gamma[:, 2], state.s, atol=1e-15)
    assert np.array_equal(state.gamma[0], np.zeros(3))


def test_free_growth_straight_run():
    frames = []
    traj = run(make_config(), frames.extend)
    assert traj.exit_kind == "HorizonReached"
    final = frames[-1]
    assert final.n_grown == 10
    assert np.array_equal(final.k, np.tile(E3, (11, 1)))
    assert np.max(np.abs(final.gamma[-1] - np.array([0.0, 0.0, 1.0]))) < 1e-12
    kinds = [e.kind for e in traj.events]
    assert kinds == ["HorizonReached"]
    # no contacts anywhere, so no frame carries reaction fields
    assert all(f.contacts.size == 0 for f in frames)
    assert all(f.energy is None for f in frames)


def test_gravitropic_growth_bends_upward():
    config = make_config(
        law=GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0),
        seed=SeedCurve(kind="segment", direction=E1, length=0.2),
        dt=0.02,
        t0=0.2,
        horizon=0.5,
    )
    frames = []
    traj = run(config, frames.extend)
    assert traj.exit_kind == "HorizonReached"
    final = frames[-1]
    assert final.gamma[-1][2] > 0.02  # tip lifted off the horizontal
    assert final.k[-1] @ E3 > final.k[0] @ E3  # newest tissue bent hardest
    norms = np.linalg.norm(final.k, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_oblique_plane_contact_slides_to_horizon():
    # stem grows at 30 degrees off the ceiling normal: contact must deflect
    # it along the plane, never through it, all the way to the horizon
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(
            kind="segment", direction=np.array([0.5, 0.0, np.sqrt(3) / 2]), length=0.2
        ),
        dt=0.01,
        t0=0.2,
        horizon=0.75,
        eps_contact=0.01,
    )
    frames = []
    traj = run(config, frames.extend)
    assert traj.exit_kind == "HorizonReached"
    kinds = [e.kind for e in traj.events]
    assert "ContactPatchStart" in kinds
    assert "Breakdown" not in kinds
    assert any(f.contacts.size > 0 for f in frames)
    for f in frames:
        assert f.min_phi >= -0.05 * config.dt
        if f.mu is not None and np.any(f.mu > 0):
            assert f.realized_residual <= 1e-6 * (1.0 + 1.0)


@pytest.mark.parametrize("scenario", ["straight", "sphere_oblique"])
def test_frames_keep_the_distance_detection_measured(scenario):
    # a frame's min_phi is the least distance detection measured on its state,
    # not a second measurement of the same positions
    config = load_config(str(SCENARIOS / f"{scenario}.json"))
    frames = []
    run(config, frames.extend)
    for fr in frames:
        if config.scene.obstacles:
            assert fr.min_phi == float(np.min(signed_distances(config.scene, fr.gamma)))
        else:
            assert fr.min_phi is None


def test_penetrated_terminal_frame_measures_its_distance():
    # detection fails on the last state before it returns a distance, so the
    # terminal frame measures that state itself
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(kind="segment", direction=E3, length=0.2),
        dt=0.2,
        t0=0.2,
        eps_contact=1e-3 * 0.2,
    )
    frames = []
    traj = run(config, frames.extend)
    assert traj.exit_kind == "IntegrityFailure"
    final = frames[-1]
    assert final.min_phi == float(np.min(signed_distances(config.scene, final.gamma))) < 0.0


def test_head_on_plane_contact_breaks_down():
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(kind="segment", direction=E3, length=0.3),
        t0=0.3,
        eps_contact=1e-3 * 0.1,
    )
    frames = []
    traj = run(config, frames.extend)
    assert traj.exit_kind == "Breakdown"
    assert frames[-1].t <= 0.5 + 1e-12
    last = traj.events[-1]
    assert last.kind == "Breakdown"
    assert last.data["angle_residual"] <= config.breakdown_angle_tol
    assert last.data["max_free_curvature"] <= config.breakdown_curvature_tol


@pytest.mark.parametrize("variant", ["zero", "gravitropic"])
def test_near_head_on_plane_impacts_never_accept_an_inward_step(variant):
    # a stem tilted theta from the ceiling's normal meets it almost head on.
    # The correction loop accepts a step only if every contact, active or
    # not, moves out at least at its pushback rate, so a step it cannot hold
    # ends the run at that step. When only the active rows were read, an
    # inactive tip moved into the plane at full growth speed and theta =
    # 0.02-0.1 ended one step later, with "node 51 penetrates" at t = 0.51.
    for theta in (0.02, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5):
        config = make_config(
            scene=ceiling(0.5),
            law=GrowthLaw(variant=variant),
            seed=SeedCurve(
                kind="segment",
                direction=np.array([np.sin(theta), 0.0, np.cos(theta)]),
                length=0.3,
            ),
            dt=0.01,
            t0=0.3,
            horizon=1.5,
        )
        frames = []
        traj = run(config, frames.extend)
        last = traj.events[-1]
        if last.kind == "IntegrityFailure":
            assert last.data["error"].startswith("correction loop"), (theta, last.data)
        else:
            assert last.kind in ("HorizonReached", "Breakdown")
        for prev, nxt in zip(frames, frames[1:]):
            if prev.mu is None:
                continue
            c = prev.contacts
            realized = step_normal_rates(prev, nxt, c, config.dt)
            pushback = pushback_rates(c.phi, config.kappa, config.dt)
            assert np.all(realized >= pushback - config.correction_tol), (theta, prev.t)


def test_initial_jam_is_rejected_at_seeding():
    # the seed's tip already presses head-on into the ceiling: the run ends
    # in Breakdown before its first step
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(kind="segment", direction=E3, length=0.5),
        t0=0.5,
        eps_contact=1e-3 * 0.1,
    )
    frames = []
    traj = run(config, frames.extend)
    assert traj.exit_kind == "Breakdown"
    assert [f.t for f in frames] == [config.t0]
    assert [e.kind for e in traj.events] == ["ContactPatchStart", "Breakdown"]


def test_seed_through_obstacle_is_rejected():
    config = make_config(
        scene=ceiling(0.05),
        seed=SeedCurve(kind="segment", direction=E3, length=0.1),
        eps_contact=1e-3 * 0.1,
    )
    with pytest.raises(InitialPenetration):
        init_state(config)


def test_bent_tip_contact_is_not_breakdown():
    # an arc meets the ceiling with its tip, but curvature below the tip
    # keeps the configuration elastic
    config = make_config(
        scene=ceiling(10.0),
        seed=SeedCurve(
            kind="arc",
            initial_direction=E3,
            turn_axis=np.array([0.0, 1.0, 0.0]),
            radius=0.5,
            length=0.3,
        ),
        dt=0.01,
        t0=0.3,
        horizon=0.5,
        eps_contact=1e-3 * 0.01,
    )
    state = init_state(config)
    contacts, _ = detect_contacts(
        state, ceiling(float(state.gamma[-1][2])), 1e-3, config.eps_penetration
    )
    assert contacts.tip
    broke, diag = detect_breakdown(state, contacts, config)
    # tip tangent is tilted by the arc, so the angle residual is large
    assert not broke
    assert diag["angle_residual"] > config.breakdown_angle_tol


def test_extension_stays_bitwise_straight_through_contact():
    config = make_config(
        scene=ceiling(0.25),
        seed=SeedCurve(
            kind="segment", direction=np.array([1.0, 0.0, 1.0]) / np.sqrt(2), length=0.2
        ),
        dt=0.01,
        t0=0.2,
        horizon=0.4,
        eps_contact=0.01,
    )
    state = init_state(config)
    for _ in range(12):
        state, _, _ = cold_step(state, config, *detected(state, config))
        # the new tip node continues the rotated tip tangent exactly
        assert np.array_equal(state.k[-1], state.k[-2])
        norms = np.linalg.norm(state.k, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


@pytest.fixture(scope="module", params=["sphere_oblique", "straight"])
def stepped(request):
    """A bundled scenario stepped to its horizon: its config and every state."""
    config = load_config(str(SCENARIOS / f"{request.param}.json"))
    states = [init_state(config)]
    while states[-1].n_grown < config.n_total_cells:
        states.append(cold_step(states[-1], config, *detected(states[-1], config))[0])
    return config, states


def test_extension_rows_copy_the_row_above_the_tip(stepped):
    # each advance extends the stem by one row, a bitwise copy of the rotated
    # tip row below it
    _, states = stepped
    for prev, state in zip(states, states[1:]):
        assert state.n_grown == prev.n_grown + 1
        assert np.array_equal(state.k[-1], state.k[-2])


def test_advance_makes_k_in_the_layout_frames_k_is_written_from(stepped):
    # write_frames writes each frame's k to the sidecar through
    # np.ascontiguousarray(k, dtype="<f8"), which copies nothing only for a
    # C-contiguous float64 array: a transposed k would cost a copy per frame
    config, states = stepped
    rng = np.random.default_rng(17)
    for state in (states[0], states[len(states) // 2], states[-2]):
        density = rng.normal(scale=0.5, size=(state.n_grown + 1, 3))
        k = _advance_fields(state, density, config.dt).k
        assert k.dtype == np.float64
        assert k.flags.c_contiguous
        assert k.shape == (state.n_grown + 2, 3)
        assert np.shares_memory(np.ascontiguousarray(k, dtype="<f8"), k)
        assert np.array_equal(k[-1].view(np.uint64), k[-2].view(np.uint64))


def test_advance_matches_rotation_of_every_row(stepped):
    # reference: the stem padded to the horizon with copies of its tip, every
    # row turned by the step's Cayley map, the padding reusing the tip's
    # cumulative rotation
    config, states = stepped
    n0, n_total = states[0].n_grown, config.n_total_cells
    rng = np.random.default_rng(13)
    for n in sorted({n0, (n0 + n_total) // 2, n_total - 2, n_total - 1}):
        state = states[n - n0]
        density = rng.normal(scale=0.5, size=(n + 1, 3))
        k_pad = np.concatenate([state.k, np.tile(state.k[-1], (n_total - n, 1))])
        omega_cap = np.empty_like(k_pad)
        omega_cap[: n + 1] = angular_displacement_profile(density, state.ds)
        omega_cap[n + 1 :] = omega_cap[n]
        k_want = cayley_vectors(config.dt * omega_cap, k_pad)
        gamma_want = integrate_tangents(k_want, state.ds)
        new = _advance_fields(state, density, config.dt)
        assert np.array_equal(new.k, k_want[: n + 2])
        assert np.array_equal(new.gamma, gamma_want[: n + 2])


def test_far_obstacle_run_is_bitwise_identical_to_empty_scene():
    law = GrowthLaw(variant="gravitropic", beta=0.5, gain=1.0)
    seed = SeedCurve(kind="segment", direction=E1, length=0.1)
    near_nothing = make_config(law=law, seed=seed, horizon=0.5, dt=0.05, t0=0.1)
    far_sphere = make_config(
        law=law,
        seed=seed,
        horizon=0.5,
        dt=0.05,
        t0=0.1,
        scene=Scene([Sphere(center=np.array([50.0, 0.0, 0.0]), radius=1.0)]),
        eps_contact=1e-3 * 0.05,
    )
    empty_frames, far_frames = [], []
    run(near_nothing, empty_frames.extend)
    run(far_sphere, far_frames.extend)
    assert len(empty_frames) == len(far_frames)
    for fa, fb in zip(empty_frames, far_frames):
        assert np.array_equal(fa.gamma, fb.gamma)
        assert np.array_equal(fa.k, fb.k)


def test_contact_step_agrees_with_enumeration_solver():
    # tilted stem with its tip inside the contact band of the ceiling
    config = make_config(
        scene=ceiling(0.213),
        seed=SeedCurve(
            kind="segment", direction=np.array([1.0, 0.0, 1.0]) / np.sqrt(2), length=0.3
        ),
        dt=0.01,
        t0=0.3,
        horizon=0.5,
        eps_contact=0.01,
        law=GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0),
    )
    state = init_state(config)
    contacts, _ = detect_contacts(
        state, config.scene, config.eps_contact, config.eps_penetration
    )
    assert 0 < contacts.size <= 12
    psi = psi_field(config.law, state.t, state.s, state.k)
    system = assemble_constraints(state, contacts, config.law.beta)
    b = pushback_rates(contacts.phi, config.kappa, config.dt) - linear_rates(system, psi)
    sol = solve_reaction(system, b, warm_start=None)
    ora = oracle_solve_reaction(system, b)
    scale = 1.0 + float(np.max(np.abs(ora.omega)))
    assert np.max(np.abs(sol.omega - ora.omega)) <= 1e-8 * scale


def test_defect_correction_cancels_realized_normal_rates():
    config = make_config(
        scene=ceiling(0.25),
        seed=SeedCurve(
            kind="segment", direction=np.array([1.0, 0.0, 1.0]) / np.sqrt(2), length=0.2
        ),
        dt=0.01,
        t0=0.2,
        horizon=0.4,
        eps_contact=0.01,
    )
    state = init_state(config)
    saw_contact = False
    for _ in range(15):
        contacts, min_phi = detected(state, config)
        new_state, frame, _ = cold_step(state, config, contacts, min_phi)
        if frame.mu is not None and np.any(frame.mu > 0):
            saw_contact = True
            # the correction compensates the linearization defect (realized
            # minus predicted rates) rather than removing it, so the defect
            # stays finite while the realized rates land on the demanded
            # pushback
            assert frame.realized_residual <= config.correction_tol
            psi = psi_field(config.law, state.t, state.s, state.k)
            system = assemble_constraints(state, contacts, config.law.beta)
            predicted = linear_rates(system, psi + density_from_multipliers(system, frame.mu))
            realized = step_normal_rates(state, new_state, contacts, config.dt)
            assert np.max(np.abs(realized - predicted)) < 0.1
        state = new_state
    assert saw_contact


def _kept_indices(total, stride):
    """The frames a run keeps: every stride-th one, and always the terminal one."""
    idx = list(range(0, total, stride))
    if idx[-1] != total - 1:
        idx.append(total - 1)
    return idx


def _frame_lines(frames):
    # the writer's text round-trips every float, so equal text means equal
    # bits; k, which write_frames puts in the sidecar, is written as text here
    return written_lines({**frame_to_dict(fr), "k": fr.k} for fr in frames)


@pytest.mark.parametrize(
    "name, overrides, exit_kind, total",
    [
        ("straight", {}, "HorizonReached", 10),
        ("sphere_perpendicular", {}, "Breakdown", 130),
        # the correction cap ends the run at frame 136, which 3 and 7 do not divide
        ("sphere_oblique", {"correction_sweeps": 1}, "IntegrityFailure", 137),
        # 43 contact frames: a kept frame's KKT residuals are its own at any stride
        ("sphere_oblique", {}, "HorizonReached", 181),
    ],
)
def test_stride_keeps_every_kth_frame_and_the_terminal_one(name, overrides, exit_kind, total):
    config = replace(load_config(str(SCENARIOS / f"{name}.json")), **overrides)
    full_frames = []
    full = run(config, full_frames.extend)
    assert full.exit_kind == exit_kind
    assert full.events[-1].kind == exit_kind
    assert full.frames_total == len(full_frames) == total
    every = _frame_lines(full_frames)
    for k in (3, 7, total + 5):
        kept_frames = []
        kept = run(replace(config, stride=k), kept_frames.extend)
        assert kept.exit_kind == exit_kind
        assert kept.frames_total == total
        assert kept.frames_written == len(kept_frames)
        assert _frame_lines(kept_frames) == [
            every[i] for i in _kept_indices(total, k)
        ]
        assert kept.events == full.events
        strided = replace(config, stride=k)
        flags = [written for _, written in simulate(init_state(strided), strided, Trajectory())]
        assert [i for i, written in enumerate(flags) if written] == _kept_indices(total, k)
        for fr in kept_frames:
            assert (fr.kkt_complementarity is None) == (fr.mu is None)
            assert (fr.kkt_stationarity is None) == (fr.mu is None)


def test_only_the_frames_written_carry_kkt_residuals():
    # a step certifies its solve only when its frame is written, and a frame
    # that is not written carries no KKT residuals
    config = replace(load_config(str(SCENARIOS / "sphere_oblique.json")), stride=3)
    certified = []
    for i, (frame, _) in enumerate(simulate(init_state(config), config, Trajectory())):
        if frame.mu is not None:
            certified.append((i % 3 == 0, frame.kkt_complementarity is not None))
            assert (frame.kkt_stationarity is not None) == certified[-1][1]
    assert len(certified) == 43
    assert all(written == carried for written, carried in certified)
    assert 0 < sum(written for written, _ in certified) < 43


def bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "scenario, stride",
    [("straight", 1), ("sphere_oblique", 1), ("twin_tilt", 1), ("gravitropic_ceiling", 20)],
)
def test_frames_derive_s_t_and_gamma_as_the_state_holds_them(monkeypatch, scenario, stride):
    # a frame holds only k: its s, t and gamma are derived again, and must be
    # the state's own, bit for bit, on every frame made: each step's frame is
    # that of the state it advanced from, and the terminal frame that of the
    # last state a step returned
    config = replace(load_config(str(SCENARIOS / f"{scenario}.json")), stride=stride)
    original = stepper.step
    states = [init_state(config)]

    def same_stem(frame, state):
        assert type(frame.t) is float
        assert np.array_equal(bits(frame.k), bits(state.k))
        for name in ("s", "t", "gamma"):
            assert np.array_equal(bits(getattr(frame, name)), bits(getattr(state, name))), name

    def checked(state, *args):
        assert len(states) == 1 or state is states[-1]
        new_state, frame, defect = original(state, *args)
        same_stem(frame, state)
        states.append(new_state)
        return new_state, frame, defect

    monkeypatch.setattr(stepper, "step", checked)
    frames = []
    traj = run(config, frames.extend)
    assert len(states) == traj.frames_total
    same_stem(frames[-1], states[-1])


def held_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def test_kept_frames_hold_only_their_tangents_and_reaction():
    ceiling = replace(load_config(str(SCENARIOS / "gravitropic_ceiling.json")), stride=20)
    ceiling_frames = []
    run(ceiling, ceiling_frames.extend)
    twin_config = load_config(str(SCENARIOS / "twin_tilt.json"))
    base, perturbed = [], []
    twin = twin_run(
        twin_config, 0.05, np.array([0.0, 1.0, 0.0]), lambda: (base.append, perturbed.append)
    )
    # the twin hands its written frames out and keeps only the terminal one
    assert len(twin.base.frames) == len(twin.perturbed.frames) == 1
    assert twin.base.frames[0] is base[-1] and twin.perturbed.frames[0] is perturbed[-1]
    assert len(base) == twin.base.frames_written and len(perturbed) == twin.perturbed.frames_written
    frames = ceiling_frames + base + perturbed
    assert any(fr.mu is not None for fr in frames)
    for fr in frames:
        assert "s" not in vars(fr) and "gamma" not in vars(fr)
        reaction = [a for a in (fr.b, fr.mu) if a is not None]
        assert fr.k.shape == (fr.n_grown + 1, 3)
        assert all(a.shape == (fr.contacts.size,) for a in reaction)
        assert held_bytes(fr) == fr.k.nbytes + sum(a.nbytes for a in reaction)
    # positions follow the tangents a frame holds, also after a replace
    frame = ceiling_frames[-1]
    other = rotate_vectors(np.tile([0.0, 0.3, 0.0], (frame.n_grown + 1, 1)), frame.k)
    assert not np.array_equal(frame.gamma, integrate_tangents(other, frame.ds))
    moved = replace(frame, k=other)
    assert np.array_equal(bits(moved.gamma), bits(integrate_tangents(other, frame.ds)))


def test_seed_changes_only_the_iteration_count():
    # one sliding ceiling step, with the tip in contact, taken from the seed
    # the run carries, from zero and from two wrong seeds: each is accepted on
    # its realized rates or fails loudly, and the accepted steps agree to
    # within the correction tolerance's reach
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    state, memory = init_state(config), _ContactMemory()
    for _ in range(300):
        contacts, min_phi = detected(state, config)
        warm = seed = None
        if contacts.size:
            warm, seed = memory.start(contacts)
        state, frame, defect = step(state, config, contacts, min_phi, warm, seed, False)
        if defect is not None:
            memory.remember(frame, defect)
    contacts, min_phi = detected(state, config)
    assert contacts.tip
    warm, carried = memory.start(contacts)
    assert carried[-1] != 0.0
    pushback = pushback_rates(contacts.phi, config.kappa, config.dt)
    accepted = {}
    for name, seed in [
        ("carried", carried),
        ("zero", np.zeros(contacts.size)),
        ("ten_times", 10.0 * carried),
        ("flipped", -carried),
    ]:
        try:
            new_state, frame, _ = step(state, config, contacts, min_phi, warm, seed, False)
        except MaxIterationsExceeded:
            continue
        assert frame.realized_residual <= config.correction_tol
        realized = step_normal_rates(state, new_state, contacts, config.dt)
        active = frame.mu > 0.0
        assert np.all(np.abs(realized[active] - pushback[active]) <= config.correction_tol)
        accepted[name] = (new_state, frame.mu)
    assert {"carried", "zero"} <= accepted.keys()
    ref_state, ref_mu = accepted["carried"]
    for new_state, mu in accepted.values():
        assert np.max(np.abs(new_state.gamma - ref_state.gamma)) <= 1e-9
        assert np.max(np.abs(new_state.k - ref_state.k)) <= 1e-9
        assert np.max(np.abs(mu - ref_mu)) <= 1e-6 * (1.0 + np.max(np.abs(ref_mu)))


def touching(nodes, tip=False):
    """Contacts at nodes, pressing on the ceiling's normal."""
    m = len(nodes)
    return ContactSet(
        nodes=np.array(nodes), normals=np.tile(-E3, (m, 1)), phi=np.zeros(m), tip=tip
    )


def accepted(contacts, mu, defect):
    """What an accepted contact step leaves for the memory: its frame and defects."""
    k = np.tile(E3, (int(contacts.nodes[-1]) + 1, 1))
    return TrajectoryFrame(0.1, k, contacts, mu=np.array(mu)), np.array(defect)


def test_contact_memory_seeds_with_the_extrapolation_its_history_allows():
    # newest first: with up to four defects carried the seed is the
    # extrapolation of matching order, and a fifth defect pushes out the oldest
    d = [0.3712, -1.25e-3, 2.0625e-2, 7.7e-4, -0.91]
    want = [
        0.0,
        d[0],
        2.0 * d[0] - d[1],
        3.0 * d[0] - 3.0 * d[1] + d[2],
        4.0 * d[0] - 6.0 * d[1] + 4.0 * d[2] - d[3],
        4.0 * d[0] - 6.0 * d[1] + 4.0 * d[2] - d[3],
    ]
    contacts = touching([7])
    for carried in range(6):
        memory = _ContactMemory()
        # the oldest defect is remembered first
        for defect in d[:carried][::-1]:
            memory.remember(*accepted(contacts, [0.5], [defect]))
        warm, seed = memory.start(contacts)
        assert warm.tolist() == [0.5 if carried else 0.0]
        assert seed.view(np.uint64).tolist() == np.array([want[carried]]).view(np.uint64).tolist()
        assert len(memory._last.get(7, (0.0, ()))[1]) == min(carried, 4)


def test_contact_memory_follows_the_tip_and_drops_released_contacts():
    memory = _ContactMemory()
    # node 3 and the tip at node 10 press; node 5 is in the band but inactive
    before = touching([3, 5, 10], tip=True)
    memory.remember(*accepted(before, [0.25, 0.0, 0.5], [1e-3, 2e-3, 3e-3]))
    memory.remember(*accepted(before, [0.25, 0.0, 0.5], [4e-3, 5e-3, 6e-3]))
    # the tip has moved up to node 11; node 10 is a material node now
    after = touching([3, 5, 10, 11], tip=True)
    warm, seed = memory.start(after)
    assert warm.tolist() == [0.25, 0.0, 0.0, 0.5]
    assert seed.tolist() == [2.0 * 4e-3 - 1e-3, 0.0, 0.0, 2.0 * 6e-3 - 3e-3]
    # released with mu = 0, node 3 drops its whole history
    memory.remember(*accepted(after, [0.0, 0.0, 0.0, 0.5], [7e-3, 8e-3, 9e-3, 1e-2]))
    warm, seed = memory.start(after)
    assert warm.tolist() == [0.0, 0.0, 0.0, 0.5]
    assert seed.tolist() == [0.0, 0.0, 0.0, 3.0 * 1e-2 - 3.0 * 6e-3 + 3e-3]
    assert set(memory._last) == {"tip"}


def patch_records(patches, contacts):
    return [(ev.kind, ev.data) for ev in patches.update(contacts, 0.5)]


def test_contact_patches_split_and_merge_end_the_old_patches():
    patches = _ContactPatches()
    assert patch_records(patches, touching([3, 4, 5, 6])) == [
        ("ContactPatchStart", {"patch": 0, "nodes": [3, 6], "tip": False})
    ]
    # a run that grows by one node on either side continues its patch
    assert patch_records(patches, touching([2, 3, 4, 5, 6, 7])) == []
    assert patch_records(patches, touching([3, 4, 5, 6])) == []
    # node 5 leaves: [3..6] touches two runs, so it ends and both start
    assert patch_records(patches, touching([3, 4, 6])) == [
        ("ContactPatchEnd", {"patch": 0, "nodes": [3, 6], "tip": False}),
        ("ContactPatchStart", {"patch": 1, "nodes": [3, 4], "tip": False}),
        ("ContactPatchStart", {"patch": 2, "nodes": [6, 6], "tip": False}),
    ]
    # node 5 comes back: [3..6] touches two patches, so both end
    assert patch_records(patches, touching([3, 4, 5, 6])) == [
        ("ContactPatchEnd", {"patch": 1, "nodes": [3, 4], "tip": False}),
        ("ContactPatchEnd", {"patch": 2, "nodes": [6, 6], "tip": False}),
        ("ContactPatchStart", {"patch": 3, "nodes": [3, 6], "tip": False}),
    ]
    assert patch_records(patches, touching([])) == [
        ("ContactPatchEnd", {"patch": 3, "nodes": [3, 6], "tip": False})
    ]
    assert patches.open == []


def test_contact_patches_follow_the_sliding_tip_and_end_with_its_last_range():
    patches = _ContactPatches()
    assert patch_records(patches, touching([9], tip=True)) == [
        ("ContactPatchStart", {"patch": 0, "nodes": [9, 9], "tip": True})
    ]
    # the tip moves up a node a step; a run two nodes off is a new patch
    assert patch_records(patches, touching([10], tip=True)) == []
    assert patch_records(patches, touching([11], tip=True)) == []
    assert patch_records(patches, touching([2, 11], tip=True)) == [
        ("ContactPatchStart", {"patch": 1, "nodes": [2, 2], "tip": False})
    ]
    assert patch_records(patches, touching([2, 3])) == [
        ("ContactPatchEnd", {"patch": 0, "nodes": [11, 11], "tip": True})
    ]


def test_contact_events_do_not_grow_with_the_step_count():
    # the ceiling's sliding tip contact is one patch at every dt, where a
    # record per node that enters or leaves the band doubles as dt halves
    config = replace(
        load_config(str(SCENARIOS / "gravitropic_ceiling.json")), horizon=2.2, stride=10_000
    )
    kinds = []
    for dt in (0.01, 0.005):
        refined = replace(config, dt=dt, eps_contact=dt, eps_penetration=0.05 * dt)
        traj = run(refined, [].extend)
        assert traj.exit_kind == "HorizonReached"
        kinds.append([ev.kind for ev in traj.events])
    assert kinds[0] == kinds[1] == ["ContactPatchStart", "HorizonReached"]


@pytest.mark.parametrize(
    "scenario, dt, min_steps, solves_per_step",
    [
        # measured with the linear seed 2 d1 - d2: 1,369 solves over 911
        # contact steps; with the cubic seed 1,004
        ("gravitropic_ceiling", None, 901, 1.2),
        # linear seed: 125 solves over 43 contact steps, and 45 over 15;
        # cubic: 108 over 43, and 42 over 15
        ("sphere_oblique", None, 43, 110 / 43),
        ("twin_tilt", None, 15, 42 / 15),
        # the benchmark's twin step: 193 over 99 with the linear seed, 105 with the cubic
        ("twin_tilt", 0.00125, 99, 1.2),
    ],
    ids=["gravitropic_ceiling", "sphere_oblique", "twin_tilt", "twin_tilt_fine"],
)
def test_ceiling_carries_each_contact_across_steps(
    monkeypatch, scenario, dt, min_steps, solves_per_step
):
    # the carried defects and the tip-keyed warm start hold the sliding
    # ceiling to about 1.1 dual solves per contact step and leave the warm
    # face right at almost every solve; a cold first solve per step, or a tip
    # whose memory is lost each step, costs about 3.2 solves and one
    # active-set iteration per step. The realized residual sits near the
    # correction tolerance, so a round-off change can move these counts on
    # every contact scenario.
    solve = stepper.solve_reaction
    sweeps = []  # active-set iterations, one entry per solve

    def counted(system, b, warm_start):
        sol = solve(system, b, warm_start)
        sweeps.append(sol.sweeps)
        return sol

    monkeypatch.setattr(stepper, "solve_reaction", counted)
    config = load_config(str(SCENARIOS / f"{scenario}.json"))
    if dt is not None:
        config = replace(config, dt=dt)
    contact_steps = 0
    for frame, _ in simulate(init_state(config), config, Trajectory()):
        if frame.mu is not None:
            contact_steps += 1
            assert frame.realized_residual <= config.correction_tol
    assert contact_steps >= min_steps
    assert len(sweeps) / contact_steps <= solves_per_step
    assert sum(sweeps) <= 10


def test_calls_per_step_stay_within_five_percent_of_their_measure():
    """Calls per free and per contact step of the ceiling's stepping loop, to t = 2.2.

    sys.setprofile counts the Python-level calls ("call", generator resumes
    included) and the C-function calls ("c_call") made while simulate makes
    each step's frame. Counts do not drift as wall time does, so a call added
    to a step shows here without a clock. Ufuncs raise no c_call event,
    whether called by name or reached through an operator, so the C count is
    a floor. The counts include numpy's Python-level wrappers, so the bounds
    hold under the numpy version that CI pins (2.4.6, on Python 3.11).
    Measured: 53.04 Python-level and 30.04 C calls per free step over 89 free
    steps, 179.88 and 164.43 per contact step over 111 contact steps. The
    bounds are those plus 5%.
    """
    measured = {"free": (53.04, 30.04), "contact": (179.88, 164.43)}
    config = replace(
        load_config(str(SCENARIOS / "gravitropic_ceiling.json")), horizon=2.2, stride=10_000
    )
    frames = simulate(init_state(config), config, Trajectory())
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    made = []  # (kind, Python-level calls, C calls) of each frame
    while True:
        counts.update(call=0, c_call=0)
        sys.setprofile(profile)
        try:
            item = next(frames, None)
        finally:
            sys.setprofile(None)
        if item is None:
            break
        made.append(("free" if item[0].mu is None else "contact", counts["call"], counts["c_call"]))
    # the terminal frame is made after the exit, by no step
    for kind, bounds in measured.items():
        steps = np.array([(py, c) for k, py, c in made[:-1] if k == kind])
        assert len(steps) >= 80
        assert np.all(steps.mean(axis=0) <= 1.05 * np.array(bounds)), (kind, steps.mean(axis=0))


@pytest.mark.parametrize("obstacles", ["ceiling", "none"])
def test_final_shape_converges_at_first_order_in_dt(obstacles):
    # the ceiling run, contact included, on a short horizon at dt, dt/2 and
    # dt/4 with eps_contact = dt: at first order each halving of dt halves
    # the difference of the final shapes on the coarse grid (measured ratios
    # 2.01 and 2.02); an O(1) error would hold it near 1. The reaction, the
    # paper's constrained minimizer, converges too: its impulse dt * sum_i
    # omega_i, with omega rebuilt from each kept frame's multipliers at
    # t = 1.2, 1.3 and 1.4, halves its differences likewise (measured 1.960,
    # 1.975 and 1.982), and the contact starts at t = 1.09 at every dt. The
    # bounds were fixed before the first run.
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    if obstacles == "none":
        config = replace(config, scene=Scene([]))
    beta = config.law.beta
    finals, impulses, onsets = [], [], []
    for refine in (1, 2, 4):
        dt = 0.01 / refine
        frames = []
        traj = run(
            replace(
                config,
                dt=dt,
                eps_contact=dt,
                eps_penetration=0.05 * dt,
                horizon=1.5,
                stride=10 * refine,  # a frame every 0.1 in t
            ),
            frames.extend,
        )
        assert traj.exit_kind == "HorizonReached"
        assert any(f.mu is not None for f in frames) == (obstacles == "ceiling")
        finals.append(frames[-1].gamma[::refine])
        if obstacles == "ceiling":
            kept = {round(fr.t, 9): fr for fr in frames}
            omegas = (
                density_from_multipliers(assemble_constraints(fr, fr.contacts, beta), fr.mu)
                for fr in (kept[1.2], kept[1.3], kept[1.4])
            )
            impulses.append([dt * omega.sum(axis=0) for omega in omegas])
            onsets.append(next(ev.t for ev in traj.events if ev.kind == "ContactPatchStart"))
    coarse = np.max(np.abs(finals[0] - finals[1]))
    fine = np.max(np.abs(finals[1] - finals[2]))
    assert fine > 0.0
    assert coarse / fine >= 1.8
    if obstacles == "ceiling":
        impulses = np.array(impulses)  # (dt, time, axis)
        coarse = np.max(np.abs(impulses[0] - impulses[1]), axis=1)
        fine = np.max(np.abs(impulses[1] - impulses[2]), axis=1)
        assert np.all(fine > 0.0)
        assert np.all(coarse / fine >= 1.8), coarse / fine
        assert max(onsets) - min(onsets) <= 0.01


@pytest.mark.parametrize(
    "scenario, horizon", [("twin_tilt", 1.0), ("gravitropic_ceiling", 2.2)]
)
def test_twin_distance_depends_continuously_on_the_tilt(scenario, horizon):
    # The paper's well-posedness, as the twin measures it: the terminal
    # distance is linear in the tilt, the growth constant C does not depend
    # on the tilt's size, and C converges at first order in dt. Measured: each
    # halving of the tilt divides the distance by 1.82-2.12, C agrees across
    # tilts to 5e-4 relative, and successive differences of C fall by
    # 1.79-2.0 per halving of dt. The bounds were fixed before the first run.
    # the distances are taken at every step whatever the stride, and each run
    # keeps only its first and last frames
    config = replace(
        load_config(str(SCENARIOS / f"{scenario}.json")), horizon=horizon, stride=10_000
    )
    axis = np.array([0.0, 1.0, 0.0])

    def twin(tilt, dt):
        refined = replace(config, dt=dt, eps_contact=dt, eps_penetration=0.05 * dt)
        result = twin_run(refined, tilt, axis, unwritten)
        assert result.base.exit_kind == result.perturbed.exit_kind == "HorizonReached"
        assert "ContactPatchStart" in [e.kind for e in result.base.events]
        return result.growth_constant, result.details["terminal_distance"]

    by_tilt = [twin(tilt, 0.01) for tilt in (0.05, 0.025, 0.0125)]
    constants = [c for c, _ in by_tilt]
    distances = [d for _, d in by_tilt]
    for wide, narrow in zip(distances, distances[1:]):
        assert 1.7 <= wide / narrow <= 2.3
    assert max(constants) - min(constants) <= 2e-3 * abs(constants[0])

    by_dt = [constants[0]] + [twin(0.05, dt)[0] for dt in (0.005, 0.0025)]
    coarse, fine = by_dt[1] - by_dt[0], by_dt[2] - by_dt[1]
    assert fine != 0.0
    assert coarse / fine >= 1.6


def test_twin_certificate_is_a_constant_of_the_problem():
    # C measures the problem's continuous dependence, not the tilt or dt: on
    # twin_tilt, C is flat in the tilt (measured 10.8955 from 1e-3 to 1e-11),
    # the seed distance is linear in it (0.198512 per radian), and C converges
    # at first order in dt, each gap between successive C about half the one
    # before (measured 10.8955, 11.5164, 11.8630, 12.0467 at dt = 0.01 down to
    # 0.00125 with tilt 1e-6: ratios 0.56 and 0.53, under the exponential step
    # map and again, to within 1e-8, under the Cayley map). The bounds were fixed
    # before the first run.
    config = replace(load_config(str(SCENARIOS / "twin_tilt.json")), stride=10_000)
    axis = np.array([0.0, 1.0, 0.0])

    def twin(tilt, dt):
        result = twin_run(replace(config, dt=dt), tilt, axis, unwritten)
        assert result.base.exit_kind == result.perturbed.exit_kind == "HorizonReached"
        return result.growth_constant, result.distances[0] / tilt

    by_tilt = {tilt: twin(tilt, 0.01) for tilt in (1e-3, 1e-6, 1e-9)}
    constants = [c for c, _ in by_tilt.values()]
    assert max(constants) - min(constants) <= 1e-4 * abs(constants[1])
    per_radian = [d for _, d in by_tilt.values()]
    assert max(per_radian) - min(per_radian) <= 1e-6 * per_radian[1]

    by_dt = [by_tilt[1e-6][0]] + [twin(1e-6, dt)[0] for dt in (0.005, 0.0025, 0.00125)]
    gaps = np.diff(by_dt)
    ratios = gaps[1:] / gaps[:-1]
    assert np.all((0.4 <= ratios) & (ratios <= 0.65)), by_dt


def test_a_tilt_of_1e_16_rad_moves_the_seed():
    # a node's rotation is zero only where the two tangents' cross product is
    # exactly zero, so a tilt of 1e-16 rad, which changes the seed's bits,
    # measures a positive distance, and the twin runs and fits a rate
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    axis = np.array([0.0, 1.0, 0.0])
    base = init_state(config)
    tilted = init_state(replace(config, seed=config.seed.tilted(1e-16, axis)))
    assert not np.array_equal(base.k, tilted.k)
    assert weighted_norm(rotation_field(base.k, tilted.k), config.dt, config.law.beta) > 0.0
    short = replace(config, horizon=config.t0 + 0.05)
    result = twin_run(short, 1e-16, axis, unwritten)
    assert result.distances[0] > 0.0 and result.growth_constant is not None
