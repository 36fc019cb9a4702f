"""Acceptance suite: ten go/no-go criteria at pinned tolerances.

One test per criterion, in order, each printing a single PASS/FAIL line with
the measured margins (visible with `pytest -v -s`, and in the verbose test
listing one line per criterion either way).
"""

import json
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import STEMGROW, random_constraint_system, stemgrow_env

from stemgrow.config import SeedCurve, SimConfig, load_config
from stemgrow.growth import GrowthLaw
from stemgrow.obstacles import Scene, Sphere
from stemgrow.reaction import check_kkt, oracle_solve_reaction, solve_reaction
from stemgrow.stepper import run, twin_run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def qp_battery():
    """500 randomized constraint systems solved by both routes, with timing."""
    rng = np.random.default_rng(20260816)
    solves = []
    start = time.monotonic()
    for _ in range(500):
        system = random_constraint_system(rng)
        sol = solve_reaction(system, warm_start=None)
        oracle = oracle_solve_reaction(system, max_contacts=5)
        solves.append((system, sol, oracle))
    return solves, time.monotonic() - start


@pytest.fixture(scope="module")
def ceiling():
    """Gravitropic stem vs half-space ceiling: 1000 steps at dt = 1e-2."""
    config = load_config(str(SCENARIOS / "gravitropic_ceiling.json"))
    assert config.dt == 1e-2
    assert config.n_total_cells - config.n_seed_cells == 1000
    return config, run(config)


@pytest.fixture(scope="module")
def sphere_runs(tmp_path_factory):
    """CLI executions of the perpendicular and oblique sphere scenarios."""
    root = tmp_path_factory.mktemp("spheres")
    out = {}
    for name in ("sphere_perpendicular", "sphere_oblique"):
        outdir = root / name
        proc = subprocess.run(
            [*STEMGROW, "run", str(SCENARIOS / f"{name}.json"), "--out", str(outdir)],
            capture_output=True,
            text=True,
            env=stemgrow_env(),
            timeout=300,
        )
        events_path = outdir / "events.jsonl"
        if not events_path.exists():
            pytest.fail(
                f"{name}: stemgrow exited {proc.returncode} without writing "
                f"events.jsonl; stderr:\n{proc.stderr}"
            )
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        out[name] = (proc, outdir, events)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_solver_matches_enumeration_oracle(qp_battery):
    solves, elapsed = qp_battery
    worst = 0.0
    mismatched = degenerate = 0
    for system, sol, oracle in solves:
        scale = 1.0 + float(np.linalg.norm(oracle.omega))
        worst = max(worst, float(np.linalg.norm(sol.omega - oracle.omega)) / scale)
        if oracle.degenerate:
            degenerate += 1
        elif not np.array_equal(sol.mu > 1e-10, oracle.mu > 1e-10):
            mismatched += 1
    ok = len(solves) >= 500 and worst <= 1e-8 and mismatched == 0 and elapsed < 30.0
    report(
        1,
        ok,
        f"{len(solves)} systems, worst density error {worst:.3e} (tol 1e-08), "
        f"{mismatched} active-set mismatches, {degenerate} degenerate flagged, "
        f"{elapsed:.2f}s (budget 30s)",
    )


def test_criterion_02_kkt_certificates(qp_battery):
    solves, _ = qp_battery
    worst_stat = worst_comp = 0.0
    min_mu = 0.0
    for system, sol, _ in solves:
        kkt = check_kkt(system, sol)
        omega_norm = float(np.linalg.norm(sol.omega))
        stat_bound = 1e-9 * omega_norm
        worst_stat = max(worst_stat, kkt["stationarity"] - stat_bound)
        min_mu = min(min_mu, float(np.min(sol.mu)))
        comp_bound = 1e-8 * (1.0 + float(np.max(np.abs(system.b))))
        worst_comp = max(worst_comp, kkt["complementarity"] / comp_bound)
    ok = worst_stat <= 0.0 and min_mu >= 0.0 and worst_comp <= 1.0
    report(
        2,
        ok,
        f"stationarity within 1e-9*|density| on all solves "
        f"(worst excess {worst_stat:.3e}), min multiplier {min_mu:.3e} >= 0, "
        f"worst complementarity ratio {worst_comp:.3f} of 1e-8*(1+|b|)",
    )


def test_criterion_03_non_penetration_under_ceiling(ceiling):
    config, traj = ceiling
    min_phi = min(f.min_phi for f in traj.frames if f.min_phi is not None)
    bound = -0.05 * config.dt
    contact_frames = sum(1 for f in traj.frames if f.contacts.size)
    ok = (
        traj.exit_kind == "HorizonReached"
        and len(traj.frames) == 1001
        and min_phi >= bound
    )
    report(
        3,
        ok,
        f"{traj.exit_kind} after {len(traj.frames)} frames, "
        f"{contact_frames} with contact, min distance {min_phi:.3e} "
        f">= {bound:.1e}",
    )


def test_criterion_04_normal_velocity_annihilation(ceiling):
    config, traj = ceiling
    dt = config.dt
    worst = 0.0
    checked = 0
    for prev, nxt in zip(traj.frames, traj.frames[1:]):
        if prev.mu is None or not np.any(prev.mu > 0):
            continue
        tip = bool(prev.contacts.size and prev.contacts.nodes[-1] == prev.n_grown)
        for j in np.nonzero(prev.mu > 0)[0]:
            node = prev.contacts.nodes[j]
            if tip and j == prev.contacts.size - 1:
                disp = (nxt.gamma[prev.n_grown + 1] - prev.gamma[prev.n_grown]) / dt
            else:
                disp = (nxt.gamma[node] - prev.gamma[node]) / dt
            rate = float(disp @ prev.contacts.normals[j])
            bound = 1e-6 * (1.0 + float(np.linalg.norm(disp)))
            worst = max(worst, abs(rate) / bound)
            checked += 1
    ok = checked > 0 and worst <= 1.0
    report(
        4,
        ok,
        f"{checked} active contacts over the run, worst normal-rate ratio "
        f"{worst:.4f} of 1e-6*(1+|velocity|)",
    )


def test_criterion_05_unit_tangent_conservation(ceiling):
    _, traj = ceiling
    worst = max(
        float(np.max(np.abs(np.linalg.norm(f.k, axis=1) - 1.0))) for f in traj.frames
    )
    ok = worst <= 1e-10
    report(5, ok, f"max | |k| - 1 | = {worst:.3e} over 1000 steps (tol 1e-10)")


def test_criterion_06_free_growth_convergence_order():
    def tip_at_horizon(dt):
        config = SimConfig(
            scene=Scene([]),
            law=GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0, up=np.array([0.0, 0.0, 1.0])),
            seed=SeedCurve(
                kind="segment",
                direction=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]),
                length=0.04,
            ),
            dt=dt,
            t0=0.04,
            horizon=1.0,
        )
        traj = run(config)
        assert traj.exit_kind == "HorizonReached"
        final = traj.frames[-1]
        return final.gamma[final.n_grown]

    reference = tip_at_horizon(1.5625e-4)
    steps = [4e-2, 2e-2, 1e-2]
    errors = [float(np.linalg.norm(tip_at_horizon(dt) - reference)) for dt in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    ok = all(a > b for a, b in zip(errors, errors[1:])) and slope >= 0.9
    report(
        6,
        ok,
        f"terminal tip errors {', '.join(f'{e:.3e}' for e in errors)} at "
        f"dt 4e-2/2e-2/1e-2; observed order {slope:.3f} >= 0.9",
    )


def test_criterion_07_breakdown_vs_oblique_sphere(sphere_runs):
    proc_p, _, events_p = sphere_runs["sphere_perpendicular"]
    proc_o, _, events_o = sphere_runs["sphere_oblique"]
    breakdowns = [ev for ev in events_p if ev["kind"] == "Breakdown"]
    angle = breakdowns[0]["data"]["angle_residual"] if breakdowns else float("inf")
    angle_tol = 1e-3
    ok = (
        proc_p.returncode == 10
        and len(breakdowns) == 1
        and angle <= angle_tol
        and proc_o.returncode == 0
        and events_o[-1]["kind"] == "HorizonReached"
    )
    report(
        7,
        ok,
        f"perpendicular: exit {proc_p.returncode} with Breakdown, angle residual "
        f"{angle:.3e} <= {angle_tol}; oblique 30 degrees: exit {proc_o.returncode} "
        f"at horizon",
    )


def test_criterion_08_continuous_dependence_twins():
    delta = 1e-3

    def config(scene):
        return SimConfig(
            scene=scene,
            law=GrowthLaw(variant="gravitropic", beta=1.0, gain=1.0, up=np.array([0.0, 0.0, 1.0])),
            seed=SeedCurve(
                kind="segment",
                direction=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]),
                length=0.04,
            ),
            dt=0.01,
            t0=0.04,
            horizon=1.0,
            eps_contact=0.01,
        )

    outcomes = []
    for label, scene in (
        ("free", Scene([])),
        ("sphere", Scene([Sphere(center=np.array([0.7875, 0.0, 0.5822]), radius=0.3)])),
    ):
        result = twin_run(config(scene), delta, np.array([0.0, 1.0, 0.0]))
        touched = any(e.kind == "ContactOnset" for e in result.base.events) and any(
            e.kind == "ContactOnset" for e in result.perturbed.events
        )
        outcomes.append(
            (
                label,
                result.growth_constant,
                result.details["terminal_distance"],
                result.base.exit_kind,
                result.perturbed.exit_kind,
                touched,
            )
        )
    ok = all(
        c <= 50.0 and terminal <= 100 * delta and b == p == "HorizonReached"
        for _, c, terminal, b, p, _ in outcomes
    )
    # the obstacle case must actually make contact to mean anything
    ok = ok and outcomes[1][5]
    detail = "; ".join(
        f"{label}: C={c:.3g} (<=50), terminal={terminal:.3e} (<= {100 * delta:.0e})"
        for label, c, terminal, _, _, _ in outcomes
    )
    report(8, ok, detail)


def test_criterion_09_zero_reaction_purity(ceiling):
    # a solve whose demands are all slack returns literal zeros
    rng = np.random.default_rng(7)
    system = random_constraint_system(rng)
    system.b = -np.abs(system.b) - 0.1
    sol = solve_reaction(system, warm_start=None)
    direct_ok = (
        sol.energy == 0.0
        and bool(np.all(sol.omega == 0.0))
        and bool(np.all(sol.mu == 0.0))
    )

    # frames without contact never carry reaction artifacts
    _, traj = ceiling
    empty = [f for f in traj.frames if f.contacts.size == 0]
    frames_ok = all(
        (f.energy is None or f.energy == 0.0) and f.mu is None for f in empty
    )

    # an unreachable obstacle changes nothing, bit for bit
    def straight(scene):
        return SimConfig(
            scene=scene,
            law=GrowthLaw(variant="zero"),
            seed=SeedCurve(kind="segment", direction=np.array([0.0, 0.0, 1.0]), length=0.1),
            dt=0.1,
            t0=0.1,
            horizon=1.0,
        )

    far = Scene([Sphere(center=np.array([50.0, 0.0, 0.0]), radius=1.0)])
    traj_a = run(straight(Scene([])))
    traj_b = run(straight(far))
    bitwise_ok = len(traj_a.frames) == len(traj_b.frames) and all(
        fa.t == fb.t
        and np.array_equal(fa.gamma, fb.gamma)
        and np.array_equal(fa.k, fb.k)
        and fa.contacts.size == fb.contacts.size == 0
        for fa, fb in zip(traj_a.frames, traj_b.frames)
    )

    ok = direct_ok and frames_ok and bitwise_ok
    report(
        9,
        ok,
        f"slack solve: energy {sol.energy!r}, density bitwise zero {direct_ok}; "
        f"{len(empty)} contact-free frames carry no reaction; unreachable obstacle "
        f"run bitwise identical: {bitwise_ok}",
    )


def test_criterion_10_manifest_replay_determinism(sphere_runs, tmp_path):
    _, outdir, _ = sphere_runs["sphere_oblique"]
    replay = tmp_path / "replay"
    proc = subprocess.run(
        [*STEMGROW, "run", str(outdir / "manifest.json"), "--out", str(replay)],
        capture_output=True,
        text=True,
        env=stemgrow_env(),
        timeout=300,
    )
    frames_a = (outdir / "frames.jsonl").read_bytes()
    frames_b = (replay / "frames.jsonl").read_bytes()
    events_same = (outdir / "events.jsonl").read_bytes() == (
        replay / "events.jsonl"
    ).read_bytes()
    ok = proc.returncode == 0 and frames_a == frames_b and events_same
    report(
        10,
        ok,
        f"manifest replay reproduced {len(frames_a)} bytes of frames "
        f"byte-identically (events identical: {events_same})",
    )
