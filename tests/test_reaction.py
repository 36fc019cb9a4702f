"""Contact detection, constraint assembly, and the reaction minimizer."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import random_constraint_system, state_psi

from stemgrow.config import SeedCurve, SimConfig, load_config
from stemgrow.curves import Stem, _columns
from stemgrow.errors import InfeasibleReaction, PenetrationExceeded
from stemgrow.growth import GrowthLaw
from stemgrow.obstacles import HalfSpace, Scene, Sphere
from stemgrow.reaction import (
    NO_CONTACTS,
    ContactSet,
    _scale_rows,
    assemble_constraints,
    check_kkt,
    density_from_multipliers,
    detect_contacts,
    linear_rates,
    oracle_solve_reaction,
    pushback_rates,
    rate_gaps,
    solve_reaction,
)
from stemgrow import stepper
from stemgrow.diagnostics import step_normal_rates
from stemgrow.stepper import init_state, run, simulate, step
from stemgrow.trajectory import Trajectory, read_frames, write_frames

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def vertical_state(t0=1.0, dt=0.1, scene=None, horizon=2.0):
    config = SimConfig(
        scene=scene if scene is not None else Scene([]),
        law=GrowthLaw(variant="zero"),
        seed=SeedCurve(kind="segment", direction=E3, length=t0),
        dt=dt,
        t0=t0,
        horizon=horizon,
        eps_contact=1e-3 * dt,
    )
    return init_state(config), config


def contact_at(nodes, normals, phi, tip=False):
    return ContactSet(
        nodes=np.asarray(nodes),
        normals=np.asarray(normals, dtype=float),
        phi=np.asarray(phi, dtype=float),
        tip=tip,
    )


def single_contact_system(v=6, n=8, ds=0.25, beta=0.8, normal=E3):
    """Straight stem along e1 with one contact row; closed form is summable."""
    contacts = contact_at([v], [normal], [0.0])
    return assemble_constraints(Stem(ds, np.tile(E1, (n + 1, 1))), contacts, beta)


def energy_weights(system):
    """Elastic energy weights ds * exp(beta (t - sigma_i))."""
    stem = system.stem
    return stem.ds * np.exp(system.beta * (stem.t - stem.s))


def rate_system(state, nodes, normals):
    """Non-tip constraint rows at the given grown nodes of a state."""
    return assemble_constraints(state, contact_at(nodes, normals, np.zeros(len(nodes))), 0.0)


def assemble(state, contacts, law, kappa, dt):
    """assemble_constraints and the right-hand side pushback - drive the stepper solves on."""
    system = assemble_constraints(state, contacts, law.beta)
    psi = state_psi(law, state)
    return system, pushback_rates(contacts.phi, kappa, dt) - linear_rates(system, psi)


def test_straight_stem_far_from_sphere_has_no_contacts():
    scene = Scene([Sphere(center=np.array([10.0, 0.0, 0.0]), radius=1.0)])
    state, config = vertical_state(scene=scene)
    contacts, min_phi = detect_contacts(state, scene, config.eps_contact, config.eps_penetration)
    assert contacts.size == 0
    assert not contacts.tip
    # the base node is nearest: |(10, 0, 0)| - 1
    assert min_phi == 9.0


def test_detect_contacts_flags_touching_tip():
    # vertical stem of length 1, ceiling at z = 1: the tip sits on the surface
    # (a head-on jam, which seeding accepts and run ends as Breakdown)
    scene = Scene([HalfSpace(point=np.array([0.0, 0.0, 1.0]), outward_normal=-E3)])
    state, config = vertical_state(scene=scene)
    contacts, min_phi = detect_contacts(state, scene, config.eps_contact, config.eps_penetration)
    assert contacts.size == 1
    assert contacts.tip
    assert min_phi == contacts.phi[0]
    assert contacts.nodes[0] == state.n_grown
    assert np.allclose(contacts.normals[0], -E3)
    assert abs(contacts.phi[0]) <= config.eps_contact


def test_detect_contacts_rejects_deep_penetration():
    scene = Scene([HalfSpace(point=np.array([0.0, 0.0, 0.9]), outward_normal=-E3)])
    state, config = vertical_state()
    with pytest.raises(PenetrationExceeded):
        detect_contacts(state, scene, config.eps_contact, eps_penetration=0.05)


@pytest.mark.parametrize(
    "lift, contacts_measured",
    [(0.0, [7, 7]), (1e-3, [7, 7]), (1.5e-3, [])],
    ids=["on_the_floor", "at_the_band_edge", "just_above_the_band"],
)
def test_detect_contacts_measures_each_obstacle_twice(monkeypatch, lift, contacts_measured):
    # a stem lying on a floor touches it at every node; each obstacle is
    # measured once at every node and once more at the contact nodes, never
    # again node by node for their normals. A node at the band's edge is a
    # contact: detection stops early only on the band test's own <=. Lifted
    # just above the band, the stem has no contact node, and detection stops
    # at the least distance
    floor = HalfSpace(point=np.array([0.0, 0.0, -lift]), outward_normal=E3)
    far = Sphere(center=np.array([0.0, 0.0, 10.0]), radius=1.0)
    calls = []
    for kind in (HalfSpace, Sphere):
        measure = kind.distances
        monkeypatch.setattr(
            kind, "distances", lambda ob, x, measure=measure: calls.append(len(x)) or measure(ob, x)
        )
    stem = Stem(0.25, np.tile(E1, (7, 1)))
    contacts, min_phi = detect_contacts(stem, Scene([floor, far]), 1e-3, 1e-4)
    assert min_phi == lift
    assert calls == [7, 7] + contacts_measured
    if contacts_measured:
        assert contacts.size == 7 and contacts.tip
        assert np.array_equal(contacts.phi, np.full(7, lift))
        assert np.array_equal(contacts.normals, np.tile(E3, (7, 1)))
    else:
        assert contacts is NO_CONTACTS


def test_empty_scene_gives_the_shared_empty_set_and_no_distance():
    stem = Stem(0.25, np.tile(E3, (7, 1)))
    contacts, min_phi = detect_contacts(stem, Scene([]), 1e-3, 1e-4)
    assert contacts is NO_CONTACTS and min_phi is None
    assert contacts.size == 0 and not contacts.tip


@pytest.mark.parametrize("field", ["nodes", "normals", "phi"])
def test_the_shared_empty_set_cannot_be_written(field):
    array = getattr(NO_CONTACTS, field)
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0


def test_assemble_right_hand_side_hand_quadrature():
    # horizontal two-cell stem, gravitropic drive, penetrated tip contact:
    # b = pushback - drive with every term writable by hand
    ds, dt, kappa, beta = 0.5, 0.1, 0.2, 1.0
    state, _ = _horizontal_state(ds=ds, n_cells=2)
    law = GrowthLaw(variant="gravitropic", beta=beta, gain=1.0)
    phi = -0.01
    contacts = contact_at([2], [E3], [phi], tip=True)
    _, b = assemble(state, contacts, law, kappa, dt)

    # drive: sum over cells i < 2 of ds * <psi_i x (gamma_2 - gamma_i), e3>
    # with psi_i = -e^{-(t - s_i)} e2 and gamma along e1; the tip row adds
    # <k_tip, n> = <e1, e3> = 0
    t = state.t
    drive = sum(
        ds * np.exp(-(t - i * ds)) * (1.0 - 0.5 * i) for i in range(2)
    )
    pushback = kappa * 0.01 / dt
    assert b[0] == pytest.approx(pushback - drive, abs=1e-14)


def test_assemble_tip_row_carries_elongation_term():
    # tilt the contact normal into the tangent direction: the drive gains
    # exactly <k_tip, n>, so b drops by the same amount
    ds, dt, kappa = 0.5, 0.1, 0.2
    state, _ = _horizontal_state(ds=ds, n_cells=2)
    law = GrowthLaw(variant="zero")
    theta = 0.3
    n_vec = np.array([np.sin(theta), 0.0, np.cos(theta)])
    as_tip = contact_at([2], [n_vec], [0.0], tip=True)
    as_interior = contact_at([2], [n_vec], [0.0], tip=False)
    b_tip = assemble(state, as_tip, law, kappa, dt)[1][0]
    b_interior = assemble(state, as_interior, law, kappa, dt)[1][0]
    assert b_interior - b_tip == pytest.approx(np.sin(theta), abs=1e-14)


def _horizontal_state(ds, n_cells):
    t0 = ds * n_cells
    config = SimConfig(
        scene=Scene([]),
        law=GrowthLaw(variant="zero"),
        seed=SeedCurve(kind="segment", direction=E1, length=t0),
        dt=ds,
        t0=t0,
        horizon=2 * t0,
    )
    return init_state(config), config


def test_single_contact_closed_form():
    # one row: G11 = sum_{i<v} ds e^{-beta(t-s_i)} |(gamma_v - gamma_i) x n|^2
    # and the minimizer is mu = b / G11 for b > 0
    system = single_contact_system()
    v, ds, beta, t = 6, 0.25, 0.8, system.stem.t
    g11 = 0.0
    for i in range(v):
        arm = np.cross(system.stem.gamma[v] - system.stem.gamma[i], E3)
        g11 += ds * np.exp(-beta * (t - i * ds)) * float(arm @ arm)
    sol = solve_reaction(system, np.array([0.3]), warm_start=None)
    assert sol.mu[0] == pytest.approx(0.3 / g11, rel=1e-12)
    # density: decayed multiplier times the arm field, zero at and above v
    for i in range(v):
        arm = np.cross(system.stem.gamma[v] - system.stem.gamma[i], E3)
        want = np.exp(-beta * (t - i * ds)) * sol.mu[0] * arm
        assert np.max(np.abs(sol.omega[i] - want)) < 1e-14
    assert np.array_equal(sol.omega[v:], np.zeros((system.stem.n_grown + 1 - v, 3)))


def test_one_by_one_divide_matches_lapack_bit_for_bit():
    # a one-row face is solved as b / g in place of a 1x1 np.linalg.solve;
    # this pins that the two agree to the bit on the BLAS/LAPACK in use
    rng = np.random.default_rng(1101)
    g = 10.0 ** rng.uniform(-12.0, 6.0, size=20_000) * rng.uniform(1.0, 10.0, size=20_000)
    b = 10.0 ** rng.uniform(-10.0, 8.0, size=20_000) * rng.uniform(1.0, 10.0, size=20_000)
    lapack = np.array(
        [np.linalg.solve(np.array([[gi]]), np.array([bi]))[0] for gi, bi in zip(g, b)]
    )
    assert np.array_equal((b / g).view(np.int64), lapack.view(np.int64))


def test_single_contact_multiplier_is_one_divide():
    rng = np.random.default_rng(1102)
    for _ in range(200):
        system = single_contact_system(
            v=int(rng.integers(1, 9)), beta=float(rng.uniform(0.0, 3.0))
        )
        b = np.array([10.0 ** rng.uniform(-8.0, 3.0)])
        mu = solve_reaction(system, b, warm_start=None).mu
        want = b / system.gram[0, 0]
        assert mu.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_single_contact_negative_demand_is_inactive():
    system = single_contact_system()
    sol = solve_reaction(system, np.array([-0.4]), warm_start=None)
    assert np.array_equal(sol.mu, np.zeros(1))
    assert np.array_equal(sol.omega, np.zeros((system.stem.n_grown + 1, 3)))
    assert sol.energy == 0.0


def test_solver_matches_oracle_on_random_fixtures():
    rng = np.random.default_rng(41)
    for _ in range(80):
        system, b = random_constraint_system(rng)
        sol = solve_reaction(system, b, warm_start=None)
        ora = oracle_solve_reaction(system, b)
        scale = 1.0 + float(np.max(np.abs(ora.omega)))
        assert np.max(np.abs(sol.omega - ora.omega)) <= 1e-8 * scale
        if not ora.degenerate:
            assert np.array_equal(sol.mu > 1e-10, ora.mu > 1e-10)


def test_solution_is_energy_minimal_among_feasible_densities():
    # perturb the minimizer; every perturbation that stays feasible must not
    # lower the energy
    rng = np.random.default_rng(42)
    tried = 0
    for _ in range(40):
        system, b = random_constraint_system(rng, tip_allowed=False)
        sol = solve_reaction(system, b, warm_start=None)
        weights = energy_weights(system)
        energy = 0.5 * float(np.sum(weights[:, None] * sol.omega**2))
        assert energy == pytest.approx(sol.energy, rel=1e-9, abs=1e-12)
        for _ in range(20):
            d_omega = rng.normal(scale=0.3 * (1.0 + np.abs(sol.omega)), size=sol.omega.shape)
            trial = sol.omega + d_omega
            rates = linear_rates(system, trial)
            if np.min(rates - b) < 0.0:
                continue
            tried += 1
            trial_energy = 0.5 * float(np.sum(weights[:, None] * trial**2))
            assert trial_energy >= energy - 1e-10 * (1.0 + energy)
    assert tried > 50


def test_kkt_certificates_on_random_fixtures():
    rng = np.random.default_rng(43)
    for _ in range(60):
        system, b = random_constraint_system(rng)
        sol = solve_reaction(system, b, warm_start=None)
        kk = check_kkt(system, b, sol)
        bscale = 1.0 + float(np.max(np.abs(b)))
        omega_scale = 1.0 + float(np.max(np.abs(sol.omega)))
        assert np.min(sol.mu) >= 0.0
        assert np.min(system.gram @ sol.mu - b) >= -1e-9 * bscale
        assert kk["complementarity"] <= 1e-8 * bscale * (1.0 + float(np.max(sol.mu)))
        assert kk["stationarity"] <= 1e-9 * omega_scale


@pytest.mark.parametrize("m, checked", [(64, True), (65, False)])
def test_kkt_leaves_stationarity_unchecked_past_64_contacts(m, checked):
    # rows are materialized for at most 64 contacts; past that the frame
    # records stationarity as unchecked (null), never as a verified zero
    state, _ = vertical_state(dt=0.01)
    normals = np.tile(E1, (m, 1))
    system = rate_system(state, np.arange(10, 10 + m), normals)
    b = np.full(m, -1.0)
    b[m // 2] = 0.5
    sol = solve_reaction(system, b, warm_start=None)
    assert sol.mu[m // 2] > 0.0
    stationarity = check_kkt(system, b, sol)["stationarity"]
    if checked:
        assert 0.0 <= stationarity <= 1e-12
    else:
        assert stationarity is None


def test_density_supported_strictly_below_contacts():
    rng = np.random.default_rng(44)
    for _ in range(20):
        system, b = random_constraint_system(rng)
        sol = solve_reaction(system, b, warm_start=None)
        top = int(np.max(system.contacts.nodes[sol.mu > 0], initial=0))
        assert np.array_equal(sol.omega[top:], np.zeros_like(sol.omega[top:]))


def test_warm_start_reproduces_solution_quickly():
    rng = np.random.default_rng(45)
    system, b = random_constraint_system(rng)
    cold = solve_reaction(system, b, warm_start=None)
    warm = solve_reaction(system, b, warm_start=cold.mu)
    assert np.max(np.abs(warm.mu - cold.mu)) <= 1e-9 * (1.0 + np.max(cold.mu))
    assert warm.sweeps <= cold.sweeps


def gap_edge_systems():
    """Contact layouts the random fixture never draws, on one of its curves: a
    contact at node 0 (an empty first gap), adjacent nodes, two contacts at
    one node, a tip contact, and 12 contacts."""
    base, _ = random_constraint_system(np.random.default_rng(53))
    n = base.stem.n_grown
    rng = np.random.default_rng(54)
    layouts = [
        ([0, 5], False),
        ([3, 4, 5], False),
        ([7, 7, 9], False),
        ([4, n], True),
        (np.sort(rng.choice(np.arange(1, n), size=12, replace=False)), False),
    ]
    for nodes, tip in layouts:
        normals = rng.normal(size=(len(nodes), 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        contacts = contact_at(nodes, normals, np.zeros(len(nodes)), tip=tip)
        yield assemble_constraints(base.stem, contacts, base.beta)


def test_gram_assembly_matches_direct_summation():
    rng = np.random.default_rng(46)
    systems = [random_constraint_system(rng)[0] for _ in range(20)]
    for system in [*systems, *gap_edge_systems()]:
        rows = system.rows()
        m = rows.shape[0]
        w = system.metric_weights
        direct = (rows * w[None, :, None]).reshape(m, -1) @ rows.reshape(m, -1).T
        direct = 0.5 * (direct + direct.T)
        got = system.gram
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
        mu = rng.uniform(0.0, 2.0, size=m)
        want = system.decay[:, None] * np.einsum("j,jid->id", mu, rows)
        omega = density_from_multipliers(system, mu)
        assert np.max(np.abs(omega - want)) <= 1e-12 * np.max(np.abs(want))


def gram_identity_gap(system, mu):
    """Largest gap between G mu and the linear rates of omega(mu) less the tip's
    elongation term, relative to the largest entry of G mu."""
    rates = linear_rates(system, density_from_multipliers(system, mu))
    if system.tip_row is not None:
        rates[system.tip_row] -= system.stem.k[-1] @ system.contacts.normals[system.tip_row]
    want = system.gram @ mu
    return float(np.max(np.abs(rates - want)) / np.max(np.abs(want)))


def test_gram_and_linear_rates_share_one_quadrature():
    # the dual is built so that the linear rate of the density omega(mu) is
    # G mu: the Gram matrix and linear_rates must sum the same cells, or the
    # correction loop's defect, taken through G, would drift past round-off
    rng = np.random.default_rng(52)
    for _ in range(100):
        system, _ = random_constraint_system(rng)
        mu = rng.uniform(0.0, 2.0, size=system.contacts.size)
        assert gram_identity_gap(system, mu) <= 1e-12


def test_gram_identity_holds_on_a_sliding_ceiling_step():
    # the first step at which the tip and a node below it both touch the
    # ceiling, with the multipliers that step accepted: the tip presses, and
    # the row below it reads the rate the tip's reaction gives it
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    frame = next(
        fr
        for fr, _ in simulate(init_state(config), config, Trajectory())
        if fr.contacts.tip and fr.contacts.size > 1
    )
    assert frame.mu[-1] > 0.0
    system = assemble_constraints(frame, frame.contacts, config.law.beta)
    assert gram_identity_gap(system, frame.mu) <= 1e-12


@pytest.mark.parametrize(
    "scenario, horizon", [("sphere_oblique", 2.0), ("gravitropic_ceiling", 1.5)]
)
def test_frames_read_back_rebuild_the_system_each_step_solved_on(
    monkeypatch, tmp_path, scenario, horizon
):
    # assemble_constraints is the one maker of a constraint system: on each
    # contact frame read back from its file it gives the Gram matrix and the
    # decay of the system the step solved on, bit for bit
    built = []

    def recorded(stem, contacts, beta):
        system = assemble_constraints(stem, contacts, beta)
        built.append(system)
        return system

    monkeypatch.setattr(stepper, "assemble_constraints", recorded)
    config = replace(load_config(str(SCENARIOS / f"{scenario}.json")), horizon=horizon)
    path = str(tmp_path / "frames.jsonl")
    made = []
    run(config, made.extend)
    write_frames(path, made)
    frames = [fr for fr in read_frames(path, config.dt) if fr.mu is not None]
    assert len(frames) == len(built) > 10
    for fr, system in zip(frames, built):
        rebuilt = assemble_constraints(fr, fr.contacts, config.law.beta)
        assert np.array_equal(rebuilt.gram.view(np.uint64), system.gram.view(np.uint64))
        assert np.array_equal(rebuilt.decay.view(np.uint64), system.decay.view(np.uint64))


def test_loop_defect_is_the_linear_defect_on_every_ceiling_step(monkeypatch):
    # the correction loop takes its defect as realized - drive - G mu; on
    # every contact step of the sliding ceiling it must be what it stands
    # for, the realized rates less the linear rates of psi + omega
    taken = []

    def recorded(state, config, by_age, contacts, min_phi, warm_start, seed, certify):
        out = step(state, config, by_age, contacts, min_phi, warm_start, seed, certify)
        taken.append((state, *out))
        return out

    monkeypatch.setattr(stepper, "step", recorded)
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    for _ in simulate(init_state(config), config, Trajectory()):
        pass
    checked = 0
    for state, new_state, frame, defect in taken:
        if defect is None:
            continue
        c = frame.contacts
        system = assemble_constraints(state, c, config.law.beta)
        psi = state_psi(config.law, state)
        realized = step_normal_rates(state, new_state, c, config.dt)
        want = realized - linear_rates(system, psi + density_from_multipliers(system, frame.mu))
        scale = float(np.max(np.abs(system.gram @ frame.mu)))
        assert np.max(np.abs(defect - want)) <= 1e-12 * scale
        checked += 1
    assert checked == 911


@pytest.mark.parametrize(
    "realized, pushback, mu, gap",
    [
        # an active row must move at its pushback rate, from either side
        (0.25, 0.5, 1.0, 0.25),
        (0.75, 0.5, 1.0, 0.25),
        # an inactive row must move no slower: short of it is a positive gap,
        # and faster outward a negative one, which no acceptance test rejects
        (0.25, 0.5, 0.0, 0.25),
        (0.75, 0.5, 0.0, -0.25),
        (0.0, 0.0, 0.0, 0.0),
    ],
)
def test_rate_gaps_read_the_acceptance_rule_per_row(realized, pushback, mu, gap):
    # the worst gap is at least 0, so a row that moves faster reads as no gap
    worst, speed = rate_gaps(np.array([realized]), np.array([pushback]), np.array([mu]))
    assert worst == max(gap, 0.0)
    assert speed == (abs(realized) if mu > 0.0 else 0.0)


def _array_rate_gaps(realized, pushback, mu):
    """The rule on arrays, as the step and audit took it before it ran on Python floats."""
    gaps = np.where(mu > 0.0, np.abs(realized - pushback), pushback - realized)
    return (
        float(np.max(gaps, initial=0.0)),
        float(np.max(np.abs(realized[mu > 0.0]), initial=0.0)),
    )


def test_rate_gaps_are_bitwise_the_array_form():
    # every row of one to three values drawn from signed zeros, ties, a NaN
    # and ordinary rates: the worst gap keeps numpy's bits (a tie goes to the
    # later value, and a NaN gap wins), and the speed its value
    rng = np.random.default_rng(5)
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 2.0, 1e-300, np.nan])
    for size in (0, 1, 2, 3):
        for _ in range(400):
            realized, pushback = rng.choice(values, size), rng.choice(values, size)
            mu = rng.choice([0.0, -0.0, 1.0, 3.0], size)
            got, want = rate_gaps(realized, pushback, mu), _array_rate_gaps(realized, pushback, mu)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes() or (
                got[0] != got[0] and want[0] != want[0]
            ), (realized, pushback, mu)
            if want[1] == want[1]:
                assert got[1] == want[1], (realized, pushback, mu)


def test_contact_with_no_leverage_and_positive_demand_is_infeasible():
    # a contact at the base node has an empty support: no density can move it
    contacts = contact_at([0], [E3], [0.0])
    system = assemble_constraints(Stem(0.5, np.tile(E1, (4, 1))), contacts, 0.0)
    with pytest.raises(InfeasibleReaction):
        solve_reaction(system, np.array([0.7]), warm_start=None)


@pytest.mark.parametrize("demand", [0.5, 1e-3])
def test_opposed_contacts_at_one_node_are_infeasible(demand):
    # rows with normals +e1 and -e1 at node 6 are exact negatives: the second
    # row depends on the first, and no density moves the node both ways
    state, _ = vertical_state()
    system = rate_system(state, [6, 6], [E1, -E1])
    with pytest.raises(InfeasibleReaction):
        solve_reaction(system, np.array([demand, demand]), warm_start=None)


def test_nearly_opposed_contacts_are_infeasible():
    # independent rows, but only by 1e-5 rad: the face solve cannot meet them
    # to round-off, and the solver says so rather than return multipliers of
    # order 1e10
    state, _ = vertical_state()
    tilted = -E1 + 1e-5 * E2
    system = rate_system(state, [6, 6], [E1, tilted / np.linalg.norm(tilted)])
    with pytest.raises(InfeasibleReaction, match="too close to dependent"):
        solve_reaction(system, np.array([0.5, 0.5]), warm_start=None)


def test_oracle_names_why_a_system_is_degenerate():
    # two copies of one row: every face holding both is singular, and each
    # copy alone meets both demands, so the supports differ as well
    state, _ = vertical_state()
    system = rate_system(state, [6, 6], [E1, E1])
    ora = oracle_solve_reaction(system, np.array([0.5, 0.5]))
    assert ora.degenerate == "near-singular or ill-conditioned face, several supports"
    single = single_contact_system()
    assert oracle_solve_reaction(single, np.array([0.3])).degenerate == ""


def counted_cond(monkeypatch):
    """The shapes of the blocks the oracle takes np.linalg.cond of, as it takes them."""
    shapes = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a, p=None: shapes.append(a.shape) or cond(a, p))
    return shapes


def test_oracle_tests_every_face_but_a_finite_nonzero_one_row_face(monkeypatch):
    shapes = counted_cond(monkeypatch)
    state, _ = vertical_state()
    # a row at the base has no nodes below it: a zero Gram entry, which
    # solve rejects and lstsq meets with b = 0
    zero = oracle_solve_reaction(rate_system(state, [0], [E1]), np.array([0.0]))
    assert zero.degenerate == "near-singular or ill-conditioned face"
    assert shapes == [(1, 1)]
    # two rows 1e-5 rad apart: each alone is a one-row face, the two a face
    # of condition number about 4e10
    shapes.clear()
    tilted = E1 + 1e-5 * E2
    system = rate_system(state, [6, 6], [E1, tilted / np.linalg.norm(tilted)])
    ill = oracle_solve_reaction(system, np.array([0.5, 0.5]))
    assert "near-singular or ill-conditioned face" in ill.degenerate
    assert shapes == [(2, 2)]
    shapes.clear()
    single = oracle_solve_reaction(single_contact_system(), np.array([0.3]))
    assert single.degenerate == "" and shapes == []


def reference_oracle_solve_reaction(system, b):
    """The enumeration oracle that takes the condition number of every face,
    one-row faces included, kept here as the reference for the one that skips it
    where it is exactly 1."""
    m = system.contacts.size
    rows = system.rows()
    weighted = np.empty(rows.shape)
    w = system.metric_weights
    for i, col in enumerate(_columns(rows)):
        np.multiply(col, w, out=weighted[..., i])
    g = weighted.reshape(m, -1) @ rows.reshape(m, -1).T
    g = 0.5 * (g + g.T)
    feas_tol = 1e-8 * (1.0 + float(np.abs(b).max()))
    candidates = []
    singular = False
    for mask in range(1 << m):
        mu = np.zeros(m)
        if mask:
            act = np.array([j for j in range(m) if mask >> j & 1])
            sub = g[act[:, None], act]
            rhs = b[act]
            try:
                mu_a = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                mu_a, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
                if np.abs(sub @ mu_a - rhs).max() > feas_tol:
                    continue
                singular = True
            if mu_a.min() < -1e-10 * (1.0 + float(np.abs(mu_a).max())):
                continue
            mu[act] = np.maximum(mu_a, 0.0)
            if np.linalg.cond(sub) > 1e10:
                singular = True
        if (g @ mu - b).min() < -feas_tol:
            continue
        candidates.append(mu)
    omegas = []
    for mu in candidates:
        omega = np.einsum("j,jid->id", mu, rows)
        omegas.append(_scale_rows(system.decay, omega, out=omega))
    spread = max((float(np.abs(om - omegas[0]).max()) for om in omegas[1:]), default=0.0)
    best = int(np.argmin([float(mu @ mu) for mu in candidates]))
    mu = candidates[best]
    positive = [x for x in mu.tolist() if x > 0.0]
    tiny = bool(positive) and min(positive) < 1e-8 * (1.0 + max(positive))
    reasons = {
        "near-singular or ill-conditioned face": singular,
        "several supports": len({tuple((c > 0).tolist()) for c in candidates}) > 1,
        "candidate densities disagree": spread > 1e-7 * (1.0 + np.abs(omegas[0]).max()),
        "tiny multiplier": tiny,
    }
    degenerate = ", ".join(reason for reason, hit in reasons.items() if hit)
    return mu, omegas[best], degenerate, len(candidates)


def test_oracle_matches_the_reference_on_every_ceiling_frame():
    # every written frame of the stride-1 ceiling that solved a reaction, as
    # oracle-check takes them
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    assert config.stride == 1
    checked = 0
    for frame, written in simulate(init_state(config), config, Trajectory()):
        if not (written and frame.mu is not None and frame.contacts.size):
            continue
        system = assemble_constraints(frame, frame.contacts, config.law.beta)
        got = oracle_solve_reaction(system, frame.b)
        mu, omega, degenerate, n_candidates = reference_oracle_solve_reaction(system, frame.b)
        assert got.mu.tobytes() == mu.tobytes() and got.omega.tobytes() == omega.tobytes()
        assert got.degenerate == degenerate and got.n_candidates == n_candidates
        checked += 1
    assert checked == 911


def test_zero_density_moves_nothing():
    state, _ = vertical_state()
    system = rate_system(state, [0, 3, state.n_grown], [E1, E2, E1])
    omega = np.zeros((state.n_grown + 1, 3))
    assert np.array_equal(linear_rates(system, omega), np.zeros(3))


def test_reaction_velocity_base_is_pinned():
    rng = np.random.default_rng(48)
    state, _ = vertical_state()
    system = rate_system(state, [0], [E1])
    omega = rng.normal(size=(state.n_grown + 1, 3))
    assert np.array_equal(linear_rates(system, omega), np.zeros(1))


def test_reaction_velocity_matches_direct_quadrature():
    rng = np.random.default_rng(49)
    state, _ = vertical_state()
    n = state.n_grown
    omega = rng.normal(size=(n + 1, 3))
    normals = rng.normal(size=(2, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    got = linear_rates(rate_system(state, [3, n], normals), omega)
    # left-endpoint rectangles on whole cells below each contact node
    for j, idx in enumerate((3, n)):
        want = np.zeros(3)
        for i in range(idx):
            want += state.ds * np.cross(
                omega[i], state.gamma[idx] - state.gamma[i]
            )
        assert abs(got[j] - want @ normals[j]) < 1e-13


def test_solved_rates_meet_demands_on_active_rows():
    rng = np.random.default_rng(50)
    for _ in range(30):
        system, b = random_constraint_system(rng, tip_allowed=False)
        sol = solve_reaction(system, b, warm_start=None)
        rates = linear_rates(system, sol.omega)
        bscale = 1.0 + float(np.max(np.abs(b)))
        # feasibility everywhere, equality where the multiplier is positive
        assert np.min(rates - b) >= -1e-8 * bscale
        active = sol.mu > 1e-8 * (1.0 + np.max(sol.mu))
        if np.any(active):
            gap = np.abs(rates[active] - b[active])
            mu_scale = 1.0 + float(np.max(sol.mu))
            assert np.max(gap) <= 1e-7 * bscale * mu_scale
