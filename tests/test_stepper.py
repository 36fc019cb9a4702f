"""Time stepping: free growth, contact response, breakdown, and runs."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import written_lines

from stemgrow.config import SeedCurve, SimConfig, load_config
from stemgrow.curves import angular_displacement_profile, integrate_tangents, rotate_vectors
from stemgrow.diagnostics import step_normal_rates
from stemgrow.errors import InitialPenetration, MaxIterationsExceeded
from stemgrow.growth import GrowthLaw, psi_field
from stemgrow.obstacles import HalfSpace, Scene, Sphere, signed_distances
from stemgrow.reaction import (
    ContactSet,
    ReactionSolution,
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
    StepInfo,
    _advance_fields,
    _ContactMemory,
    detect_breakdown,
    init_state,
    run,
    simulate,
    step,
    twin_run,
)
from stemgrow.trajectory import frame_to_dict

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


def contacts_of(state, config):
    return detect_contacts(state, config.scene, config.eps_contact, config.eps_penetration)[0]


def cold_step(state, config, contacts):
    """One step with no warm multipliers and a zero seed, its KKT residuals computed."""
    return step(state, config, contacts, None, np.zeros(contacts.size), True)


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
    traj = run(make_config())
    assert traj.exit_kind == "HorizonReached"
    final = traj.frames[-1]
    assert final.n_grown == 10
    assert np.array_equal(final.k, np.tile(E3, (11, 1)))
    assert np.max(np.abs(final.gamma[-1] - np.array([0.0, 0.0, 1.0]))) < 1e-12
    kinds = [e.kind for e in traj.events]
    assert kinds == ["HorizonReached"]
    # no contacts anywhere, so no frame carries reaction fields
    assert all(f.contacts.size == 0 for f in traj.frames)
    assert all(f.energy is None for f in traj.frames)


def test_gravitropic_growth_bends_upward():
    config = make_config(
        law=GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0),
        seed=SeedCurve(kind="segment", direction=E1, length=0.2),
        dt=0.02,
        t0=0.2,
        horizon=0.5,
    )
    traj = run(config)
    assert traj.exit_kind == "HorizonReached"
    final = traj.frames[-1]
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
    traj = run(config)
    assert traj.exit_kind == "HorizonReached"
    kinds = [e.kind for e in traj.events]
    assert "ContactOnset" in kinds
    assert "Breakdown" not in kinds
    assert any(f.contacts.size > 0 for f in traj.frames)
    for f in traj.frames:
        assert f.min_phi >= -0.05 * config.dt
        if f.mu is not None and np.any(f.mu > 0):
            assert f.realized_residual <= 1e-6 * (1.0 + 1.0)


@pytest.mark.parametrize("scenario", ["straight", "sphere_oblique"])
def test_frames_keep_the_distance_detection_measured(scenario):
    # a frame's min_phi is the least distance detection measured on its state,
    # not a second measurement of the same positions
    config = load_config(str(SCENARIOS / f"{scenario}.json"))
    for fr in run(config).frames:
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
    traj = run(config)
    assert traj.exit_kind == "IntegrityFailure"
    final = traj.frames[-1]
    assert final.min_phi == float(np.min(signed_distances(config.scene, final.gamma))) < 0.0


def test_head_on_plane_contact_breaks_down():
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(kind="segment", direction=E3, length=0.3),
        t0=0.3,
        eps_contact=1e-3 * 0.1,
    )
    traj = run(config)
    assert traj.exit_kind == "Breakdown"
    assert traj.frames[-1].t <= 0.5 + 1e-12
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
        traj = run(config)
        last = traj.events[-1]
        if last.kind == "IntegrityFailure":
            assert last.data["error"].startswith("correction loop"), (theta, last.data)
        else:
            assert last.kind in ("HorizonReached", "Breakdown")
        for prev, nxt in zip(traj.frames, traj.frames[1:]):
            if prev.mu is None:
                continue
            c = prev.contacts
            realized = step_normal_rates(
                prev.gamma, nxt.gamma, c.nodes, c.normals, c.tip, config.dt
            )
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
    traj = run(config)
    assert traj.exit_kind == "Breakdown"
    assert [f.t for f in traj.frames] == [config.t0]
    assert [e.kind for e in traj.events] == ["ContactOnset", "Breakdown"]


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
        state, info = cold_step(state, config, contacts_of(state, config))
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
        states.append(cold_step(states[-1], config, contacts_of(states[-1], config))[0])
    return config, states


def test_extension_rows_copy_the_row_above_the_tip(stepped):
    # each advance extends the stem by one row, a bitwise copy of the rotated
    # tip row below it
    _, states = stepped
    for prev, state in zip(states, states[1:]):
        assert state.n_grown == prev.n_grown + 1
        assert np.array_equal(state.k[-1], state.k[-2])


def test_advance_matches_rotation_of_every_row(stepped):
    # reference: the stem padded to the horizon with copies of its tip, every
    # row rotated, the padding reusing the tip's cumulative rotation
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
        k_want = rotate_vectors(config.dt * omega_cap, k_pad)
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
    t_empty = run(near_nothing)
    t_far = run(far_sphere)
    assert len(t_empty.frames) == len(t_far.frames)
    for fa, fb in zip(t_empty.frames, t_far.frames):
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
    ora = oracle_solve_reaction(system, b, max_contacts=12)
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
        contacts = contacts_of(state, config)
        new_state, info = cold_step(state, config, contacts)
        if info.solution is not None and np.any(info.solution.mu > 0):
            saw_contact = True
            # the correction compensates the linearization defect (realized
            # minus predicted rates) rather than removing it, so the defect
            # stays finite while the realized rates land on the demanded
            # pushback
            assert info.realized_residual <= config.correction_tol
            psi = psi_field(config.law, state.t, state.s, state.k)
            system = assemble_constraints(state, contacts, config.law.beta)
            predicted = linear_rates(system, psi + info.solution.omega)
            realized = step_normal_rates(
                state.gamma,
                new_state.gamma,
                contacts.nodes,
                contacts.normals,
                contacts.tip,
                config.dt,
            )
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
    # the writer's text round-trips every float, so equal text means equal bits
    return written_lines(frame_to_dict(fr) for fr in frames)


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
    full = run(config)
    assert full.exit_kind == exit_kind
    assert full.events[-1].kind == exit_kind
    assert full.frames_total == len(full.frames) == total
    every = _frame_lines(full.frames)
    for k in (3, 7, total + 5):
        kept = run(replace(config, stride=k))
        assert kept.exit_kind == exit_kind
        assert kept.frames_total == total
        assert _frame_lines(kept.frames) == [
            every[i] for i in _kept_indices(total, k)
        ]
        assert kept.events == full.events
        for fr in kept.frames:
            assert (fr.kkt_complementarity is None) == (fr.mu is None)
            assert (fr.kkt_stationarity is None) == (fr.mu is None)


def test_only_the_frames_written_carry_kkt_residuals():
    # a step certifies its solve only when its frame is written, and a frame
    # that is not written carries no KKT residuals
    config = load_config(str(SCENARIOS / "sphere_oblique.json"))
    certified = []
    for i, (frame, _) in enumerate(simulate(config, lambda i: i % 3 == 0)):
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
    # the state's own, bit for bit, on every frame made
    make_frame = stepper._make_frame
    made = []

    def checked(state, info, min_phi):
        frame = make_frame(state, info, min_phi)
        assert type(frame.t) is float
        for name in ("s", "t", "gamma"):
            assert np.array_equal(bits(getattr(frame, name)), bits(getattr(state, name))), name
        made.append(frame.n_grown)
        return frame

    monkeypatch.setattr(stepper, "_make_frame", checked)
    config = replace(load_config(str(SCENARIOS / f"{scenario}.json")), stride=stride)
    total = run(config).frames_total
    assert len(made) == total


def held_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def test_kept_frames_hold_only_their_tangents_and_reaction():
    ceiling_run = run(replace(load_config(str(SCENARIOS / "gravitropic_ceiling.json")), stride=20))
    twin = twin_run(load_config(str(SCENARIOS / "twin_tilt.json")), 0.05, np.array([0.0, 1.0, 0.0]))
    frames = ceiling_run.frames + twin.base.frames + twin.perturbed.frames
    assert any(fr.mu is not None for fr in frames)
    for fr in frames:
        assert "s" not in vars(fr) and "gamma" not in vars(fr)
        reaction = [a for a in (fr.b, fr.mu) if a is not None]
        assert fr.k.shape == (fr.n_grown + 1, 3)
        assert all(a.shape == (fr.contacts.size,) for a in reaction)
        assert held_bytes(fr) == fr.k.nbytes + sum(a.nbytes for a in reaction)
    # positions follow the tangents a frame holds, also after a replace
    frame = ceiling_run.frames[-1]
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
        contacts = contacts_of(state, config)
        warm = seed = None
        if contacts.size:
            warm, seed = memory.start(contacts)
        state, info = step(state, config, contacts, warm, seed, False)
        if info.solution is not None:
            memory.remember(contacts, info)
    contacts = contacts_of(state, config)
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
            new_state, info = step(state, config, contacts, warm, seed, False)
        except MaxIterationsExceeded:
            continue
        assert info.realized_residual <= config.correction_tol
        realized = step_normal_rates(
            state.gamma, new_state.gamma, contacts.nodes, contacts.normals, True, config.dt
        )
        active = info.solution.mu > 0.0
        assert np.all(np.abs(realized[active] - pushback[active]) <= config.correction_tol)
        accepted[name] = (new_state, info.solution.mu)
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
    """What an accepted contact step leaves for the memory: its multipliers and defects."""
    sol = ReactionSolution(mu=np.array(mu), omega=None, energy=0.0, sweeps=0)
    return StepInfo(contacts, sol, None, None, 0.0, np.array(defect))


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
            memory.remember(contacts, accepted(contacts, [0.5], [defect]))
        warm, seed = memory.start(contacts)
        assert warm.tolist() == [0.5 if carried else 0.0]
        assert seed.view(np.uint64).tolist() == np.array([want[carried]]).view(np.uint64).tolist()
        assert len(memory._last.get(7, (0.0, ()))[1]) == min(carried, 4)


def test_contact_memory_follows_the_tip_and_drops_released_contacts():
    memory = _ContactMemory()
    # node 3 and the tip at node 10 press; node 5 is in the band but inactive
    before = touching([3, 5, 10], tip=True)
    memory.remember(before, accepted(before, [0.25, 0.0, 0.5], [1e-3, 2e-3, 3e-3]))
    memory.remember(before, accepted(before, [0.25, 0.0, 0.5], [4e-3, 5e-3, 6e-3]))
    # the tip has moved up to node 11; node 10 is a material node now
    after = touching([3, 5, 10, 11], tip=True)
    warm, seed = memory.start(after)
    assert warm.tolist() == [0.25, 0.0, 0.0, 0.5]
    assert seed.tolist() == [2.0 * 4e-3 - 1e-3, 0.0, 0.0, 2.0 * 6e-3 - 3e-3]
    # released with mu = 0, node 3 drops its whole history
    memory.remember(after, accepted(after, [0.0, 0.0, 0.0, 0.5], [7e-3, 8e-3, 9e-3, 1e-2]))
    warm, seed = memory.start(after)
    assert warm.tolist() == [0.0, 0.0, 0.0, 0.5]
    assert seed.tolist() == [0.0, 0.0, 0.0, 3.0 * 1e-2 - 3.0 * 6e-3 + 3e-3]
    assert set(memory._last) == {"tip"}


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
    for frame, _ in simulate(config, lambda i: True):
        if frame.mu is not None:
            contact_steps += 1
            assert frame.realized_residual <= config.correction_tol
    assert contact_steps >= min_steps
    assert len(sweeps) / contact_steps <= solves_per_step
    assert sum(sweeps) <= 10


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
        traj = run(
            replace(
                config,
                dt=dt,
                eps_contact=dt,
                eps_penetration=0.05 * dt,
                horizon=1.5,
                stride=10 * refine,  # a frame every 0.1 in t
            )
        )
        assert traj.exit_kind == "HorizonReached"
        assert any(f.mu is not None for f in traj.frames) == (obstacles == "ceiling")
        finals.append(traj.frames[-1].gamma[::refine])
        if obstacles == "ceiling":
            kept = {round(fr.t, 9): fr for fr in traj.frames}
            omegas = (
                density_from_multipliers(assemble_constraints(fr, fr.contacts, beta), fr.mu)
                for fr in (kept[1.2], kept[1.3], kept[1.4])
            )
            impulses.append([dt * omega.sum(axis=0) for omega in omegas])
            onsets.append(next(ev.t for ev in traj.events if ev.kind == "ContactOnset"))
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
        result = twin_run(refined, tilt, axis)
        assert result.base.exit_kind == result.perturbed.exit_kind == "HorizonReached"
        assert "ContactOnset" in [e.kind for e in result.base.events]
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
