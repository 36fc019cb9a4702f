"""Time stepping: free growth, contact response, breakdown, and runs."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stemgrow.config import SeedCurve, SimConfig, load_config
from stemgrow.curves import angular_displacement_profile, integrate_tangents, rotate_vectors
from stemgrow.diagnostics import step_normal_rates
from stemgrow.errors import InitialPenetration
from stemgrow.growth import GrowthLaw, psi_field
from stemgrow.obstacles import HalfSpace, Scene, Sphere
from stemgrow.reaction import (
    assemble_constraints,
    detect_contacts,
    linear_rates,
    oracle_solve_reaction,
    solve_reaction,
)
from stemgrow.stepper import _advance_fields, detect_breakdown, init_state, run, step
from stemgrow.trajectory import _serialize, frame_to_dict

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
    return detect_contacts(state, config.scene, config.eps_contact, config.eps_penetration)


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


def test_head_on_plane_contact_breaks_down():
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(kind="segment", direction=E3, length=0.3),
        t0=0.3,
    )
    traj = run(config)
    assert traj.exit_kind == "Breakdown"
    assert traj.frames[-1].t <= 0.5 + 1e-12
    last = traj.events[-1]
    assert last.kind == "Breakdown"
    assert last.data["angle_residual"] <= config.breakdown_angle_tol
    assert last.data["max_free_curvature"] <= config.breakdown_curvature_tol


def test_initial_jam_is_rejected_at_seeding():
    # the seed's tip already presses head-on into the ceiling: the run ends
    # in Breakdown before its first step
    config = make_config(
        scene=ceiling(0.5),
        seed=SeedCurve(kind="segment", direction=E3, length=0.5),
        t0=0.5,
    )
    traj = run(config)
    assert traj.exit_kind == "Breakdown"
    assert [f.t for f in traj.frames] == [config.t0]
    assert [e.kind for e in traj.events] == ["ContactOnset", "Breakdown"]


def test_seed_through_obstacle_is_rejected():
    config = make_config(
        scene=ceiling(0.05),
        seed=SeedCurve(kind="segment", direction=E3, length=0.1),
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
    )
    state = init_state(config)
    contacts = detect_contacts(
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
        state, info = step(state, config, contacts_of(state, config), None)
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
        states.append(step(states[-1], config, contacts_of(states[-1], config), None)[0])
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
        k_got, gamma_got = _advance_fields(state, density, config.dt)
        assert np.array_equal(k_got, k_want[: n + 2])
        assert np.array_equal(gamma_got, gamma_want[: n + 2])


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
    contacts = detect_contacts(
        state, config.scene, config.eps_contact, config.eps_penetration
    )
    assert 0 < contacts.size <= 12
    psi = psi_field(config.law, state.t, state.s, state.k)
    system = assemble_constraints(
        state, contacts, psi, config.law.beta, config.kappa, config.dt
    )
    sol = solve_reaction(system)
    ora = oracle_solve_reaction(system)
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
        new_state, info = step(state, config, contacts, None)
        if info.solution is not None and np.any(info.solution.mu > 0):
            saw_contact = True
            # the correction compensates the linearization defect (realized
            # minus predicted rates) rather than removing it, so the defect
            # stays finite while the realized rates land on the demanded
            # pushback
            assert info.realized_residual <= config.correction_tol
            psi = psi_field(config.law, state.t, state.s, state.k)
            system = assemble_constraints(
                state, contacts, psi, config.law.beta, config.kappa, config.dt
            )
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


def _frame_text(frame):
    # %.17g text round-trips every float, so equal text means equal bits
    return _serialize(frame_to_dict(frame))


@pytest.mark.parametrize(
    "name, overrides, exit_kind, total",
    [
        ("straight", {}, "HorizonReached", 10),
        ("sphere_perpendicular", {}, "Breakdown", 130),
        # the correction cap ends the run at frame 136, which 3 and 7 do not divide
        ("sphere_oblique", {"correction_sweeps": 1}, "IntegrityFailure", 137),
    ],
)
def test_stride_keeps_every_kth_frame_and_the_terminal_one(name, overrides, exit_kind, total):
    config = replace(load_config(str(SCENARIOS / f"{name}.json")), **overrides)
    full = run(config)
    assert full.exit_kind == exit_kind
    assert full.events[-1].kind == exit_kind
    assert full.frames_total == len(full.frames) == total
    every = [_frame_text(fr) for fr in full.frames]
    for k in (3, 7, total + 5):
        kept = run(replace(config, stride=k))
        assert kept.exit_kind == exit_kind
        assert kept.frames_total == total
        assert [_frame_text(fr) for fr in kept.frames] == [
            every[i] for i in _kept_indices(total, k)
        ]
        assert kept.events == full.events

