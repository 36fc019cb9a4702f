"""End-to-end tests of the stemgrow command line: run, twin, audit, oracle-check."""

import json
import math
import re
import runpy
import shutil
import subprocess
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import STEMGROW, bare_frame, k_bytes, sidecar, stemgrow_env, upright

from stemgrow import cli, stepper
from stemgrow.config import load_config
from stemgrow.reaction import assemble_constraints, density_from_multipliers, oracle_solve_reaction
from stemgrow.trajectory import (
    Trajectory,
    frame_from_dict,
    read_frames,
    write_events,
    write_frames,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCENARIOS = PYPROJECT.parent / "scenarios"


def invoke(*args, env_extra=None):
    return subprocess.run(
        [*STEMGROW, *args],
        capture_output=True,
        text=True,
        env=stemgrow_env(env_extra),
        timeout=300,
    )


def write_scenario(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def straight_doc():
    """Straight vertical growth in an empty scene: must reach the horizon."""
    return {
        "label": "straight",
        "scene": {"obstacles": []},
        "law": {"variant": "zero"},
        "seed_curve": {"type": "segment", "direction": [0.0, 0.0, 1.0], "length": 0.1},
        "numerics": {"dt": 0.1, "t0": 0.1, "horizon": 0.5},
        "output": {"stride": 1},
    }


def breakdown_doc():
    """Straight growth into a ceiling head on: a rigid jam."""
    return {
        "label": "jam",
        "scene": {
            "obstacles": [
                {"type": "half_space", "point": [0.0, 0.0, 0.5], "outward_normal": [0.0, 0.0, -1.0]}
            ]
        },
        "law": {"variant": "zero"},
        "seed_curve": {"type": "segment", "direction": [0.0, 0.0, 1.0], "length": 0.3},
        # a band a thousandth of a cell wide, narrower than the default dt
        "numerics": {"dt": 0.1, "t0": 0.3, "horizon": 1.0, "eps_contact": 1e-3 * 0.1},
        "output": {"stride": 1},
    }


def oblique_doc():
    """Growth at 30 degrees off a ceiling normal: slides along the plane."""
    return {
        "label": "oblique",
        "scene": {
            "obstacles": [
                {"type": "half_space", "point": [0.0, 0.0, 0.5], "outward_normal": [0.0, 0.0, -1.0]}
            ]
        },
        "law": {"variant": "zero"},
        "seed_curve": {
            "type": "segment",
            "direction": [0.5, 0.0, math.sqrt(3.0) / 2.0],
            "length": 0.2,
        },
        "numerics": {"dt": 0.01, "t0": 0.2, "horizon": 0.75, "eps_contact": 0.01},
        "output": {"stride": 1},
    }


@pytest.fixture(scope="module")
def oblique_run(tmp_path_factory):
    """One contact-rich run shared by the audit / oracle-check / replay tests."""
    root = tmp_path_factory.mktemp("oblique")
    config_path = write_scenario(root / "scenario.json", oblique_doc())
    outdir = root / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 0, proc.stderr
    return outdir


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_version_flag():
    proc = invoke("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("stemgrow ")


def test_console_script_runs_the_module_entry_point(monkeypatch):
    # the tests drive ``python -m stemgrow``; the installed script must name
    # the same callable that ``__main__`` runs and exits with
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts["stemgrow"] == "stemgrow.cli:main"
    monkeypatch.setattr("stemgrow.cli.main", lambda: 7)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("stemgrow", run_name="__main__")
    assert exc.value.code == 7


def test_missing_subcommand_is_usage_error():
    proc = invoke()
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_run_straight_scenario(tmp_path):
    config_path = write_scenario(tmp_path / "straight.json", straight_doc())
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("HorizonReached:")

    frames = (outdir / "frames.jsonl").read_text().splitlines()
    # one frame per loop pass: t = 0.1, 0.2, 0.3, 0.4 and the horizon frame
    assert len(frames) == 5
    last = json.loads(frames[-1])
    # no t is stored: it is dt * n, here 0.1 * 5
    assert "t" not in last
    assert last["n"] == 5
    assert last["contacts"] == []

    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    assert [ev["kind"] for ev in events] == ["HorizonReached"]

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["tool"] == "stemgrow"
    assert manifest["outputs"]["exit_kind"] == "HorizonReached"
    assert manifest["outputs"]["frames_written"] == 5
    assert manifest["config"]["label"] == "straight"


def test_run_stride_and_seed_overrides(tmp_path):
    config_path = write_scenario(tmp_path / "straight.json", straight_doc())
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir), "--stride", "2")
    assert proc.returncode == 0, proc.stderr
    frames = (outdir / "frames.jsonl").read_text().splitlines()
    # frames 0, 2, 4 of 5; the final frame is index 4 and stays included
    assert len(frames) == 3
    times = [fr.t for fr in read_frames(str(outdir / "frames.jsonl"), 0.1)]
    assert times == pytest.approx([0.1, 0.3, 0.5])
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["output"] == {"stride": 2}
    assert manifest["outputs"]["frames_written"] == 3
    assert manifest["outputs"]["frames_total"] == 5
    # the simulator is deterministic: there is no seed to override
    proc = invoke("run", config_path, "--out", str(outdir), "--seed", "5")
    assert proc.returncode == 2
    assert "--seed" in proc.stderr


def test_run_breakdown_exits_ten(tmp_path):
    config_path = write_scenario(tmp_path / "jam.json", breakdown_doc())
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 10
    assert proc.stdout.startswith("Breakdown:")
    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    kinds = [ev["kind"] for ev in events]
    assert kinds[-1] == "Breakdown"
    assert events[-1]["t"] == pytest.approx(0.5)


def test_run_gross_penetration_exits_twenty(tmp_path):
    # a time step so large the tip jumps past the contact band and deep into
    # the obstacle before any contact is ever detected
    doc = breakdown_doc()
    doc["numerics"] = {"dt": 0.2, "t0": 0.2, "horizon": 1.0, "eps_contact": 1e-3 * 0.2}
    doc["seed_curve"]["length"] = 0.2
    config_path = write_scenario(tmp_path / "coarse.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 20
    assert proc.stdout.startswith("IntegrityFailure:")
    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    assert events[-1]["kind"] == "IntegrityFailure"
    assert "penetrat" in events[-1]["data"]["error"]


@pytest.mark.parametrize(
    "obstacle, error",
    [
        ({"type": "sphere", "center": [0.0, 0.0, 0.15], "radius": 1e-13},
         "normal query at sphere center"),
        ({"type": "cylinder", "axis_point": [0.0, 0.0, 0.15], "axis": [1.0, 0.0, 0.0],
          "radius": 1e-13}, "normal query on cylinder axis"),
    ],
    ids=["sphere_center", "cylinder_axis"],
)
def test_degenerate_normal_exits_twenty_without_traceback(tmp_path, obstacle, error):
    # the tip grows onto the obstacle's center or axis at t = 0.15, where its
    # distance, -1e-13, puts it in contact and its normal is undefined; a band
    # a thousandth of a cell wide keeps the node one cell below out of contact
    doc = straight_doc()
    doc["scene"]["obstacles"] = [obstacle]
    doc["numerics"] = {"dt": 0.05, "t0": 0.1, "horizon": 0.5, "eps_contact": 1e-3 * 0.05}
    config_path = write_scenario(tmp_path / "degenerate.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 20, proc.stderr
    assert proc.stdout.startswith("IntegrityFailure:")
    assert "Traceback" not in proc.stderr, proc.stderr
    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    assert events[-1]["kind"] == "IntegrityFailure"
    assert events[-1]["data"]["error"] == error
    assert events[-1]["t"] == pytest.approx(0.15)


def test_run_invalid_config_exits_two(tmp_path):
    doc = straight_doc()
    doc["numerics"]["dt"] = 0.0
    config_path = write_scenario(tmp_path / "bad.json", doc)
    proc = invoke("run", config_path, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "dt" in proc.stderr


def test_run_of_a_grid_past_the_cell_bound_exits_two(tmp_path):
    # 1e299 seed cells would fail to allocate in init_state; the validator
    # rejects the config before any grid is made
    doc = straight_doc()
    doc["numerics"]["dt"] = 1e-300
    config_path = write_scenario(tmp_path / "huge.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerics.horizon"), proc.stderr
    assert "numerics.dt" in lines[0]
    assert not outdir.exists()


@pytest.mark.parametrize("key", ["breakdown_angle_tol", "breakdown_curvature_tol"])
def test_negative_breakdown_tolerance_exits_two(tmp_path, key):
    # the head-on sphere jams (exit 10); a negative tolerance would switch the
    # jam test off and leave the run to fail in the solve instead (exit 20)
    doc = json.loads((SCENARIOS / "sphere_perpendicular.json").read_text())
    doc["numerics"][key] = -1.0
    config_path = write_scenario(tmp_path / "off.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == f"error: numerics.{key} must be >= 0, got -1.0\n"
    assert not outdir.exists()


def test_zero_breakdown_angle_tolerance_still_jams(tmp_path):
    # 0 is the exact head-on test, which the perpendicular sphere still meets
    doc = json.loads((SCENARIOS / "sphere_perpendicular.json").read_text())
    doc["numerics"]["breakdown_angle_tol"] = 0.0
    config_path = write_scenario(tmp_path / "exact.json", doc)
    proc = invoke("run", config_path, "--out", str(tmp_path / "out"))
    assert proc.returncode == 10, proc.stdout + proc.stderr
    assert proc.stderr.startswith("Breakdown at t=1.49"), proc.stderr


def test_run_missing_config_exits_two(tmp_path):
    proc = invoke("run", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_zero_correction_sweeps_exits_two(tmp_path):
    doc = straight_doc()
    doc["numerics"]["correction_sweeps"] = 0
    config_path = write_scenario(tmp_path / "bad.json", doc)
    proc = invoke("run", config_path, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "correction_sweeps" in proc.stderr


@pytest.mark.parametrize(
    "obstacles, flags, error",
    [
        (
            [{"type": "sphere", "center": [0.0, 0.0, 5.0]}],
            [],
            "scene.obstacles[0].radius is required",
        ),
        ([], ["--stride", "0"], "output.stride must be >= 1, got 0"),
    ],
    ids=["sphere_without_radius", "stride_flag_zero"],
)
def test_malformed_config_exits_two_without_traceback(tmp_path, obstacles, flags, error):
    doc = straight_doc()
    doc["scene"]["obstacles"] = obstacles
    config_path = write_scenario(tmp_path / "bad.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir), *flags)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {error}\n"
    assert not outdir.exists()


HUGE_VECTOR = [1e200, 1e200, 1e200]


@pytest.mark.parametrize(
    "section, entry",
    [
        ("seed_curve", {"type": "segment", "direction": HUGE_VECTOR, "length": 0.1}),
        ("law", {"variant": "zero", "up": HUGE_VECTOR}),
        (
            "scene",
            {"obstacles": [
                {"type": "half_space", "point": [0.0, 0.0, 5.0], "outward_normal": HUGE_VECTOR}
            ]},
        ),
        (
            "scene",
            {"obstacles": [
                {"type": "cylinder", "axis_point": [5.0, 0.0, 0.0], "axis": HUGE_VECTOR,
                 "radius": 1.0}
            ]},
        ),
    ],
    ids=["seed_direction", "law_up", "half_space_normal", "cylinder_axis"],
)
def test_vector_with_overflowing_norm_exits_two(tmp_path, section, entry):
    # the norm of such a vector is inf, and dividing by it gave the zero vector
    doc = straight_doc()
    doc[section] = entry
    config_path = write_scenario(tmp_path / "huge.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "must be a nonzero vector with a finite norm" in lines[0]
    assert not (outdir / "frames.jsonl").exists()


def test_correction_cap_exits_twenty(tmp_path):
    # one solve per step cannot absorb the linearization defect at the
    # sphere, so the step must fail loudly instead of being accepted
    doc = json.loads((SCENARIOS / "sphere_oblique.json").read_text())
    doc["numerics"]["correction_sweeps"] = 1
    config_path = write_scenario(tmp_path / "capped.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 20, proc.stderr
    assert proc.stdout.startswith("IntegrityFailure:")
    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    assert events[-1]["kind"] == "IntegrityFailure"
    assert events[-1]["data"]["error"].startswith("correction loop: ")
    assert "after 1 sweeps" in events[-1]["data"]["error"]


def test_non_finite_step_exits_twenty_with_finite_frames(tmp_path):
    # a gain this large overflows the first step's rotation angles, so its
    # tangents come out NaN; the step must fail, not be written as a frame
    doc = json.loads((SCENARIOS / "gravitropic_ceiling.json").read_text())
    doc["scene"]["obstacles"] = []
    doc["law"]["gain"] = 1e200
    doc["numerics"]["horizon"] = 1.0
    config_path = write_scenario(tmp_path / "overflow.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 20, proc.stderr
    assert proc.stdout.startswith("IntegrityFailure:")
    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    assert events[-1]["kind"] == "IntegrityFailure"
    assert "non-finite" in events[-1]["data"]["error"]
    # the overflow is reported by the IntegrityFailure alone, not by numpy
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    audit = invoke("audit", str(outdir / "frames.jsonl"))
    assert audit.returncode == 0, audit.stderr


def test_default_contact_band_carries_the_ceiling(tmp_path):
    # the band defaults to one cell, as every bundled obstacle scenario sets
    # it: a node moves about |v| dt per step, so a band a thousandth of a cell
    # wide let the ceiling's nodes cross it in one step and penetrate (exit 20
    # at t = 1.1)
    doc = json.loads((SCENARIOS / "gravitropic_ceiling.json").read_text())
    del doc["numerics"]["eps_contact"]
    doc["numerics"]["horizon"] = 1.5
    outdir = tmp_path / "out"
    proc = invoke("run", write_scenario(tmp_path / "ceiling.json", doc), "--out", str(outdir))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    events = [json.loads(line) for line in (outdir / "events.jsonl").read_text().splitlines()]
    assert "ContactPatchStart" in [ev["kind"] for ev in events]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["numerics"]["eps_contact"] == doc["numerics"]["dt"]


def test_manifest_replay_is_byte_identical(oblique_run, tmp_path):
    replay = tmp_path / "replay"
    proc = invoke("run", str(oblique_run / "manifest.json"), "--out", str(replay))
    assert proc.returncode == 0, proc.stderr
    assert (replay / "frames.jsonl").read_bytes() == (oblique_run / "frames.jsonl").read_bytes()
    assert (replay / "events.jsonl").read_bytes() == (oblique_run / "events.jsonl").read_bytes()


def test_non_unit_seed_direction_replays_byte_identically(tmp_path):
    # the manifest keeps the direction as given; writing back a normalized
    # copy made the replay normalize it twice and move the frames by an ulp
    doc = json.loads((SCENARIOS / "sphere_oblique.json").read_text())
    doc["seed_curve"]["direction"] = [0.1, 0.2, 1.0]
    doc["numerics"]["horizon"] = 0.6
    first = tmp_path / "first"
    proc = invoke("run", write_scenario(tmp_path / "tilted.json", doc), "--out", str(first))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["seed_curve"]["direction"] == [0.1, 0.2, 1.0]
    replay = tmp_path / "replay"
    proc = invoke("run", str(first / "manifest.json"), "--out", str(replay))
    assert proc.returncode == 0, proc.stderr
    assert (replay / "frames.jsonl").read_bytes() == (first / "frames.jsonl").read_bytes()
    assert (replay / "events.jsonl").read_bytes() == (first / "events.jsonl").read_bytes()


def test_manifest_with_removed_solver_key_exits_two(straight_run, tmp_path):
    manifest = json.loads((straight_run / "manifest.json").read_text())
    manifest["config"]["numerics"]["solver_ridge"] = 1e-12
    path = write_scenario(tmp_path / "manifest.json", manifest)
    outdir = tmp_path / "out"
    proc = invoke("run", path, "--out", str(outdir))
    assert proc.returncode == 2
    assert proc.stderr == "error: numerics: unknown keys ['solver_ridge']\n"
    assert not outdir.exists()


def stderr_doc(name):
    """The scenarios whose stderr the reason-line test reads."""
    doc = breakdown_doc()
    if name == "coarse_jam":
        # the tip jumps past the band deep into the ceiling: exit 20
        doc["numerics"] = {"dt": 0.2, "t0": 0.2, "horizon": 1.0, "eps_contact": 1e-3 * 0.2}
        doc["seed_curve"]["length"] = 0.2
    elif name == "fine_jam":
        # tilted by 0.5 rad, the twin's seed slides along the ceiling to the horizon
        doc["numerics"] = {"dt": 0.01, "t0": 0.3, "horizon": 0.7}
    elif name == "straight":
        doc = straight_doc()
    return doc


JAM_REASON = "angle_residual=0.0, max_free_curvature=0.0, contact_nodes="


@pytest.mark.parametrize(
    "command, doc, perturb, code, expected",
    [
        ("run", "jam", None, 10, [f"Breakdown at t=0.5: {JAM_REASON}[5]"]),
        ("run", "coarse_jam", None, 20, ["IntegrityFailure at t=0.6: {run}"]),
        ("twin", "fine_jam", "tilt:0.5", 10, [f"base: Breakdown at t=0.49: {JAM_REASON}[49]"]),
        (
            "twin", "jam", "tilt:0.05", 20,
            [
                f"base: Breakdown at t=0.5: {JAM_REASON}[5]",
                "perturbed: IntegrityFailure at t=0.6: {perturbed}",
            ],
        ),
        ("run", "straight", None, 0, []),
        ("twin", "straight", "tilt:0.05", 0, []),
        ("twin", "straight", "tilt:0", 2, ["error: --perturb angle must be nonzero, got 'tilt:0'"]),
    ],
    ids=["run_breakdown", "run_integrity", "twin_one_side", "twin_both_sides",
         "run_horizon", "twin_horizon", "twin_usage"],
)
def test_stderr_has_one_reason_line_per_failing_run(
    tmp_path, capsys, command, doc, perturb, code, expected
):
    # a run or twin side that ends short of the horizon says why in one line,
    # read from its exit event; {run} and {perturbed} stand for the error that
    # the run's or the perturbed side's exit event holds
    config_path = write_scenario(tmp_path / "scenario.json", stderr_doc(doc))
    outdir = tmp_path / "out"
    perturb = ["--perturb", perturb] if perturb else []
    assert cli.main([command, config_path, *perturb, "--out", str(outdir)]) == code
    errors = {}
    for name, where in [("run", outdir), ("perturbed", outdir / "perturbed")]:
        events = where / "events.jsonl"
        if events.exists():
            errors[name] = json.loads(events.read_text().splitlines()[-1])["data"].get("error")
    assert capsys.readouterr().err.splitlines() == [line.format_map(errors) for line in expected]


@pytest.mark.parametrize("where", ["existing_file", "under_a_file"])
@pytest.mark.parametrize("command", ["run", "twin"])
def test_out_that_cannot_be_made_exits_two_before_any_step(
    tmp_path, monkeypatch, capsys, command, where
):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    outdir = blocker if where == "existing_file" else blocker / "out"
    steps = []
    step = stepper.step
    monkeypatch.setattr(stepper, "step", lambda *args: steps.append(args) or step(*args))
    perturb = ["--perturb", "tilt:0.05"] if command == "twin" else []
    argv = [command, str(SCENARIOS / "straight.json"), *perturb, "--out", str(outdir)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {outdir}: "), captured.err
    assert captured.out == ""
    assert steps == []
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("command", ["run", "twin"])
def test_seed_in_an_obstacle_exits_two_before_the_output_directory(tmp_path, command):
    # the seed is checked before the output directory is made, and frames are
    # streamed into it only after that
    doc = straight_doc()
    doc["scene"]["obstacles"] = [
        {"type": "half_space", "point": [0.0, 0.0, 0.2], "outward_normal": [0.0, 0.0, -1.0]}
    ]
    doc["seed_curve"]["length"] = 0.3
    doc["numerics"] = {"dt": 0.05, "t0": 0.3, "horizon": 0.5}
    config_path = write_scenario(tmp_path / "dips.json", doc)
    outdir = tmp_path / "out"
    perturb = ["--perturb", "tilt:0.05"] if command == "twin" else []
    proc = invoke(command, config_path, *perturb, "--out", str(outdir))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: seed curve dips"), proc.stderr
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["run", "twin"])
def test_run_memory_is_flat_in_the_step_count(tmp_path, capsys, command):
    # the ceiling at N = 250, 500 and 1000 steps (dt = 2.5 / N to t = 2.7), every
    # frame written: a run that kept its frames would hold about 12 MiB more
    # tangents at N = 1000 than at N = 250, and a twin twice that; one that
    # streams them holds a step's working set, which grows only with the stem
    doc = json.loads((SCENARIOS / "gravitropic_ceiling.json").read_text())
    perturb = ["--perturb", "tilt:0.01"] if command == "twin" else []
    peaks = {}
    for n_steps in (250, 500, 1000):
        dt = 2.5 / n_steps
        doc["numerics"].update(dt=dt, horizon=2.7, eps_contact=dt, eps_penetration=0.05 * dt)
        config_path = write_scenario(tmp_path / f"ceiling_{n_steps}.json", doc)
        outdir = str(tmp_path / str(n_steps))
        argv = [command, config_path, *perturb, "--stride", "1", "--out", outdir]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    for n_steps in (500, 1000):
        assert peaks[n_steps] <= peaks[250] + 4 * 2**20, peaks


@pytest.mark.parametrize("stride", [1, 3, 186])
def test_streamed_frames_equal_the_frames_a_run_keeps(tmp_path, capsys, stride):
    # the CLI streams each frame as it is made; run(config, frames.extend)
    # keeps the same frames in memory through the same path, and writes the
    # same bytes, while the trajectory keeps only the terminal frame
    config_path = str(SCENARIOS / "sphere_oblique.json")
    outdir = tmp_path / "out"
    assert cli.main(["run", config_path, "--stride", str(stride), "--out", str(outdir)]) == 0
    capsys.readouterr()
    config = replace(load_config(config_path), stride=stride)
    frames = []
    traj = stepper.run(config, frames.extend)
    kept = tmp_path / "kept.jsonl"
    assert write_frames(str(kept), frames) == traj.frames_written == len(frames)
    assert (outdir / "frames.jsonl").read_bytes() == kept.read_bytes()
    assert (outdir / "frames.k").read_bytes() == sidecar(kept).read_bytes()
    write_events(str(tmp_path / "events.jsonl"), traj.events)
    assert (outdir / "events.jsonl").read_bytes() == (tmp_path / "events.jsonl").read_bytes()
    outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
    assert outputs["frames_written"] == traj.frames_written
    assert outputs["frames_total"] == traj.frames_total
    assert len(traj.frames) == 1 and traj.frames[0] is frames[-1]
    made = stepper.simulate(stepper.init_state(config), config, Trajectory())
    flags = [written for _, written in made]
    assert traj.frames_written == sum(flags)
    assert traj.frames_total == len(flags)


# ---------------------------------------------------------------------------
# audit and oracle-check
# ---------------------------------------------------------------------------


def test_audit_accepts_clean_run(oblique_run):
    proc = invoke("audit", str(oblique_run / "frames.jsonl"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout


def test_audit_rejects_tampered_frames(oblique_run, tmp_path):
    outdir = tmp_path / "tampered"
    shutil.copytree(oblique_run, outdir)
    frames_path = outdir / "frames.jsonl"
    ns = [json.loads(line)["n"] for line in frames_path.read_text().splitlines()]
    k = np.frombuffer(sidecar(frames_path).read_bytes(), "<f8").reshape(-1, 3).copy()
    assert len(k) == sum(n + 1 for n in ns)
    k[len(k) - (ns[-1] + 1) + 2] *= 1.1  # stretch one tangent of the last frame
    sidecar(frames_path).write_bytes(k_bytes(k))
    proc = invoke("audit", str(frames_path))
    assert proc.returncode == 1
    assert "violation" in proc.stdout


def test_audit_rejects_an_inactive_contact_driven_inward(tmp_path):
    # a straight stem grows on into a plane whose contact at the tip carries
    # no multiplier: the step moves the tip inward at full growth speed, and
    # audit reports it although no row is active
    manifest = write_scenario(tmp_path / "scenario.json", straight_doc())
    n = 5
    contact = {"node": n, "phi": 0.0, "normal": [0.0, 0.0, -1.0], "b": 0.0, "mu": 0.0}
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(bare_frame(n=n, contacts=[contact]) + bare_frame(n=n + 1))
    sidecar(frames).write_bytes(k_bytes(upright(n) + upright(n + 1)))
    proc = invoke("audit", str(frames), "--manifest", manifest)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "audit: frame t=0.5: contact normal rate residual 1.000e+00",
        "audit: 2 frames, 1 violation(s)",
    ]


def test_oracle_check_confirms_stored_reactions(oblique_run):
    proc = invoke("oracle-check", str(oblique_run / "frames.jsonl"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 mismatched" in proc.stdout
    checked = int(proc.stdout.split(" checked")[0].split()[-1])
    assert checked >= 10


def test_oracle_check_skips_frames_over_the_contact_cap(tmp_path):
    # the sphere's oblique pass holds up to eight contacts at once: with a cap
    # of one, each solved frame with more is skipped, the rest are checked
    config_path = str(SCENARIOS / "sphere_oblique.json")
    outdir = tmp_path / "out"
    assert invoke("run", config_path, "--out", str(outdir)).returncode == 0
    frames = str(outdir / "frames.jsonl")
    solved = [
        fr.contacts.size
        for fr in read_frames(frames, load_config(config_path).dt)
        if fr.mu is not None and fr.contacts.size
    ]
    over = sum(size > 1 for size in solved)
    assert over > 0
    proc = invoke("oracle-check", frames, "--max-contacts", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(
        f"oracle-check: {len(solved) - over} checked, {over} skipped (too many contacts), "
    )
    assert proc.stdout.endswith(" 0 mismatched\n")


def test_oracle_check_compares_degenerate_frames(tmp_path):
    # one tip contact whose demand b is 1e-10 of its Gram entry: a multiplier
    # of 1e-10 and none at all both meet the oracle's feasibility tolerance,
    # so it calls the frame degenerate. The density is unique all the same,
    # and a stored multiplier that moves it by 10x --tol must read as a
    # mismatch (the frame read 0 mismatched when degenerate frames went
    # uncompared)
    manifest = write_scenario(tmp_path / "scenario.json", straight_doc())
    config = load_config(manifest)
    n, tol = 5, 1e-8
    contact = {"node": n, "phi": 0.0, "normal": [1.0, 0.0, 0.0], "b": 0.0, "mu": 0.0}
    record = json.loads(bare_frame(n=n, contacts=[contact]))
    frame = frame_from_dict(record, config.dt, lambda n: np.array(upright(n)))
    system = assemble_constraints(frame, frame.contacts, config.law.beta)
    b = 1e-10 * system.gram[0]
    oracle = oracle_solve_reaction(system, b)
    assert oracle.degenerate == "several supports"
    unit = float(np.max(np.abs(density_from_multipliers(system, np.ones(1)))))
    scale = 1.0 + float(np.max(np.abs(oracle.omega)))
    contact["b"] = float(b[0])
    contact["mu"] = float(oracle.mu[0]) + 10.0 * tol * scale / unit
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(bare_frame(**{**record, "contacts": [contact]}))
    sidecar(frames).write_bytes(k_bytes(upright(n)))
    proc = invoke("oracle-check", str(frames), "--manifest", manifest, f"--tol={tol}")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "oracle-check: frame 0: degenerate (several supports)"
    assert lines[-1] == (
        "oracle-check: 1 checked, 0 skipped (too many contacts), 1 degenerate, 1 mismatched"
    )


@pytest.mark.parametrize("resting_mu, mismatched", [(1e-14, 0), (None, 1)])
def test_oracle_check_compares_densities_not_multipliers(tmp_path, resting_mu, mismatched):
    # two contacts on an upright stem, whose arm fields are orthogonal: the
    # tip row is active and the row at node 3 rests with slack 0.5. A stored
    # round-off multiplier of 1e-14 on the resting row moves the density by
    # far less than --tol and passes; one that moves it by 10x --tol is a
    # mismatch
    manifest = write_scenario(tmp_path / "scenario.json", straight_doc())
    config = load_config(manifest)
    n, tol = 5, 1e-8
    contacts = [
        {"node": 3, "phi": 0.0, "normal": [1.0, 0.0, 0.0], "b": 0.0, "mu": 0.0},
        {"node": n, "phi": 0.0, "normal": [0.0, 1.0, 0.0], "b": 0.0, "mu": 1.0},
    ]
    record = json.loads(bare_frame(n=n, contacts=contacts))
    frame = frame_from_dict(record, config.dt, lambda n: np.array(upright(n)))
    system = assemble_constraints(frame, frame.contacts, config.law.beta)
    b = system.gram @ np.array([0.0, 1.0]) - np.array([0.5, 0.0])
    oracle = oracle_solve_reaction(system, b)
    assert oracle.degenerate == ""
    assert oracle.mu.tolist() == [0.0, 1.0]
    if resting_mu is None:
        unit = float(np.max(np.abs(density_from_multipliers(system, np.array([1.0, 0.0])))))
        scale = 1.0 + float(np.max(np.abs(oracle.omega)))
        resting_mu = 10.0 * tol * scale / unit
    for contact, demand, mu in zip(contacts, b.tolist(), [resting_mu, 1.0]):
        contact.update(b=demand, mu=mu)
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(bare_frame(**{**record, "contacts": contacts}))
    sidecar(frames).write_bytes(k_bytes(upright(n)))
    proc = invoke("oracle-check", str(frames), "--manifest", manifest, f"--tol={tol}")
    assert proc.returncode == (1 if mismatched else 0), proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        f"oracle-check: 1 checked, 0 skipped (too many contacts), 0 degenerate, "
        f"{mismatched} mismatched"
    )


def test_oracle_check_reports_an_infeasible_frame(tmp_path):
    # a contact at the base node has no leverage, so its demand of 0.5 is met
    # by no active set: a mismatch, and not a checked frame
    manifest = write_scenario(tmp_path / "scenario.json", straight_doc())
    n = 5
    contact = {"node": 0, "phi": 0.0, "normal": [1.0, 0.0, 0.0], "b": 0.5, "mu": 0.0}
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(bare_frame(n=n, contacts=[contact]))
    sidecar(frames).write_bytes(k_bytes(upright(n)))
    proc = invoke("oracle-check", str(frames), "--manifest", manifest)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "oracle-check: frame 0: no active set among 2^1 is feasible",
        "oracle-check: 0 checked, 0 skipped (too many contacts), 0 degenerate, 1 mismatched",
    ]


def test_oracle_check_counts_disagreeing_candidate_densities_as_mismatched(
    tmp_path, monkeypatch, capsys
):
    # the density is unique, so feasible candidates that disagree in it leave
    # the stored one nothing to agree with: a mismatch with a line of its own,
    # where the frame used to pass as degenerate. No bundled scenario has such
    # a frame, so the oracle is made to report one on a clean frame
    manifest = write_scenario(tmp_path / "scenario.json", straight_doc())
    n = 5
    contact = {"node": n, "phi": 0.0, "normal": [1.0, 0.0, 0.0], "b": 0.0, "mu": 0.0}
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(bare_frame(n=n, contacts=[contact]))
    sidecar(frames).write_bytes(k_bytes(upright(n)))
    argv = ["oracle-check", str(frames), "--manifest", manifest]
    summary = (
        "oracle-check: 1 checked, 0 skipped (too many contacts), {0} degenerate, {0} mismatched"
    )
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [summary.format(0)]
    solve = cli.oracle_solve_reaction
    disagree = "candidate densities disagree"
    monkeypatch.setattr(
        cli, "oracle_solve_reaction", lambda *args: replace(solve(*args), degenerate=disagree)
    )
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"oracle-check: frame 0: degenerate ({disagree})"
    assert re.fullmatch(rf"oracle-check: frame 0 t=\S+: {disagree}", lines[1]), lines
    assert lines[2:] == [summary.format(1)]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("audit", "--rate-tol", "nan"),
        ("audit", "--rate-tol", "inf"),
        ("audit", "--rate-tol", "0"),
        ("audit", "--rate-tol", "-1e-6"),
        ("oracle-check", "--tol", "nan"),
        ("oracle-check", "--tol", "inf"),
        ("oracle-check", "--tol", "0"),
        ("oracle-check", "--tol", "-1"),
        ("oracle-check", "--max-contacts", "0"),
        ("oracle-check", "--max-contacts", "-3"),
    ],
)
def test_bad_check_tolerance_exits_two(oblique_run, command, flag, value):
    # a NaN tolerance compares false and would pass every frame unchecked
    proc = invoke(command, str(oblique_run / "frames.jsonl"), f"{flag}={value}")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), proc.stderr


CONTACT_PAST_TIP = {"node": 5, "phi": 0.0, "normal": [0.0, 0.0, -1.0], "b": 0.1, "mu": 0.0}
# the tangents of bare_frame(): its one upright row
K0 = k_bytes(upright(0))
# what the base64 format wrote for K0
K0_TEXT = "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAPA/"


def old_format_frame():
    """bare_frame as an older format wrote it: t, s and gamma, and k as nested lists."""
    record = json.loads(bare_frame())
    old = {"t": 0.0, "n": record.pop("n"), "s": [0.0], "gamma": [[0.0, 0.0, 0.0]]}
    return (json.dumps({**old, **record, "k": [[0.0, 0.0, 1.0]]}) + "\n").encode()


@pytest.mark.parametrize("command", ["audit", "oracle-check"])
@pytest.mark.parametrize(
    "content, k, message",
    [
        (b'{"t":0}\n', K0, "frames.jsonl:1: frame has no key 'n'"),
        (b"[1,2]\n", K0, "frames.jsonl:1: frame is not an object"),
        (
            bare_frame(),
            k_bytes([0.0, 0.0]),
            "frames.k ends short of k: n = 0 needs 24 bytes, 16 left",
        ),
        (bare_frame(contacts=[CONTACT_PAST_TIP]), K0, "contacts[].node must increase within 0..0"),
        (b"\xff\xfe\x7b", K0, "frames.jsonl is not UTF-8 text"),
        (bare_frame(t="0.0"), K0, "frames.jsonl:1: frame has unknown keys ['t']"),
        # a record that still holds k, whatever it holds, is of an older format
        (bare_frame(k=[["0", 0, 1]]), K0, "frames.jsonl:1: frame has unknown keys ['k']"),
        # positions and the arclength grid are rebuilt, not read, whatever a
        # record holds under their old keys
        (bare_frame(gamma=[[0, 0]]), K0, "frames.jsonl:1: frame has unknown keys ['gamma']"),
        (bare_frame(s=["0"]), K0, "frames.jsonl:1: frame has unknown keys ['s']"),
        (
            old_format_frame(),
            K0,
            "frames.jsonl:1: frame has unknown keys ['t', 's', 'gamma', 'k']",
        ),
        (bare_frame(k=[0.0, 0.0, 1.0]), K0, "frames.jsonl:1: frame has unknown keys ['k']"),
        (bare_frame(k=1.0), K0, "frames.jsonl:1: frame has unknown keys ['k']"),
        (bare_frame(k=None), K0, "frames.jsonl:1: frame has unknown keys ['k']"),
        (bare_frame(k=K0_TEXT), K0, "frames.jsonl:1: frame has unknown keys ['k']"),
        # each fault of the sidecar names it
        (bare_frame(), K0[:-1], "frames.k ends short of k: n = 0 needs 24 bytes, 23 left"),
        (bare_frame(), K0 + b"\0", "frames.k runs 1 byte(s) past the last frame's k"),
        (bare_frame(), K0 + K0[:8], "frames.k runs 8 byte(s) past the last frame's k"),
        (bare_frame(), K0 * 2, "frames.k runs 24 byte(s) past the last frame's k"),
        (bare_frame(), k_bytes([0.0, 0.0, math.nan]), "frames.k holds a non-finite number"),
        (bare_frame(), k_bytes([0.0, 0.0, math.inf]), "frames.k holds a non-finite number"),
        (bare_frame(), k_bytes([0.0, 0.0, -math.inf]), "frames.k holds a non-finite number"),
        (
            bare_frame(solver_sweeps=True),
            K0,
            "frames.jsonl:1: solver_sweeps must hold numbers, not text or true/false",
        ),
        (bare_frame(n=0.7), K0, "frames.jsonl:1: n must hold whole numbers"),
        (
            bare_frame(solver_sweeps=2.9),
            K0,
            "frames.jsonl:1: solver_sweeps must hold whole numbers",
        ),
        # decoded as the float -2^63, a whole number in the int64 range
        (
            bare_frame(solver_sweeps=-9223372036854775809),
            K0,
            "frames.jsonl:1: solver_sweeps must be >= 0, got -9223372036854775808",
        ),
    ],
    ids=[
        "missing_key",
        "not_an_object",
        "k_shape",
        "contact_past_tip",
        "not_utf8",
        "t_is_text",
        "k_holds_text",
        "gamma_shape",
        "s_holds_text",
        "old_format",
        "k_is_a_list",
        "k_is_a_number",
        "k_is_null",
        "k_not_in_the_alphabet",
        "k_bad_padding",
        "k_padding_past_the_end",
        "k_eight_bytes_over",
        "k_a_row_over",
        "k_holds_nan",
        "k_holds_infinity",
        "k_holds_minus_infinity",
        "sweeps_is_boolean",
        "n_is_fractional",
        "sweeps_is_fractional",
        "sweeps_below_int64",
    ],
)
def test_malformed_frames_exit_two_without_traceback(tmp_path, command, content, k, message):
    manifest = write_scenario(tmp_path / "scenario.json", straight_doc())
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(content)
    sidecar(frames).write_bytes(k)
    proc = invoke(command, str(frames), "--manifest", manifest)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def straight_run(tmp_path_factory):
    """The straight scenario's outputs, copied by tests that tamper with them."""
    root = tmp_path_factory.mktemp("straight")
    outdir = root / "out"
    config_path = write_scenario(root / "scenario.json", straight_doc())
    proc = invoke("run", config_path, "--out", str(outdir))
    assert proc.returncode == 0, proc.stderr
    return outdir


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1]\n", "events.jsonl:1: event is not an object"),
        ('{"t": 0}\n', "events.jsonl:1: event has no key 'kind'"),
        ('{"t": "0.5", "kind": "X", "data": {}}\n',
         "events.jsonl:1: t must hold numbers, not text or true/false"),
        ('{"t": NaN, "kind": "X", "data": {}}\n', "events.jsonl:1: "),
        # strict JSON: a lone surrogate escape is not text
        ('{"t": 0.5, "kind": "X", "data": {"note": "\\ud800"}}\n',
         "events.jsonl:1: bad record"),
    ],
    ids=["not_an_object", "missing_key", "t_is_text", "t_is_nan", "lone_surrogate"],
)
def test_audit_malformed_events_exit_two_without_traceback(
    straight_run, tmp_path, content, message
):
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    (outdir / "events.jsonl").write_text(content)
    proc = invoke("audit", str(outdir / "frames.jsonl"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def patch_event(kind, patch):
    return json.dumps({"t": 0.5, "kind": kind, "data": {"patch": patch, "nodes": [3, 3], "tip": False}})


@pytest.mark.parametrize(
    "records, message",
    [
        ([patch_event("ContactPatchEnd", 0)], "event 1: ContactPatchEnd of patch 0, which is not open"),
        (
            [patch_event("ContactPatchStart", 0), patch_event("ContactPatchEnd", 0),
             patch_event("ContactPatchEnd", 0)],
            "event 3: ContactPatchEnd of patch 0, which is not open",
        ),
        (
            [patch_event("ContactPatchStart", 0), patch_event("ContactPatchEnd", 0),
             patch_event("ContactPatchStart", 0)],
            "event 3: ContactPatchStart reuses patch id 0",
        ),
        ([patch_event("ContactPatchStart", "0")], "event 1: ContactPatchStart has no int patch id"),
        ([patch_event("ContactPatchEnd", True)], "event 1: ContactPatchEnd has no int patch id"),
        (
            ['{"t": 0.5, "kind": "ContactPatchStart", "data": {"nodes": [3, 3]}}'],
            "event 1: ContactPatchStart has no int patch id",
        ),
    ],
    ids=["end_not_open", "end_twice", "start_reuses_id", "id_is_text", "id_is_bool", "no_id"],
)
def test_audit_flags_unpaired_contact_patches(straight_run, tmp_path, records, message):
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    exit_event = '{"t": 1.0, "kind": "HorizonReached", "data": {}}'
    (outdir / "events.jsonl").write_text("\n".join([*records, exit_event]) + "\n")
    proc = invoke("audit", str(outdir / "frames.jsonl"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"audit: {message}\n" in proc.stdout
    assert proc.stdout.endswith(" 1 violation(s)\n")
    assert proc.stderr == ""


def test_audit_accepts_a_patch_open_at_the_exit(straight_run, tmp_path):
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    records = [patch_event("ContactPatchStart", 0), patch_event("ContactPatchEnd", 0),
               patch_event("ContactPatchStart", 1), '{"t": 1.0, "kind": "Breakdown", "data": {}}']
    (outdir / "events.jsonl").write_text("\n".join(records) + "\n")
    proc = invoke("audit", str(outdir / "frames.jsonl"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("command", ["audit", "oracle-check"])
def test_malformed_third_frame_stops_the_stream(straight_run, tmp_path, command):
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    frames = outdir / "frames.jsonl"
    lines = frames.read_text().splitlines(keepends=True)
    assert len(lines) >= 3
    frames.write_text("".join(lines[:2]) + '{"t": 0.3, "n": [\n')
    proc = invoke(command, str(frames))
    assert proc.returncode == 2
    assert "frames.jsonl:3: bad record" in proc.stderr
    assert "Traceback" not in proc.stderr
    if command == "audit":
        assert "frames," not in proc.stdout


TOO_BIG_FOR_UINT64 = "18446744073709551616"
# Each turns the third frame of a clean run into text that is not a valid
# frame: a non-JSON token, a number that overflows or broken syntax.
TEXT_FAULTS = {
    # non-finite tokens where an older record held its positions
    "nan_in_gamma": (r'"contacts":', '"gamma":[[NaN,0.0,0.0]],"contacts":'),
    "infinity_in_gamma": (r'"contacts":', '"gamma":[[Infinity,0.0,0.0]],"contacts":'),
    "minus_infinity_in_gamma": (r'"contacts":', '"gamma":[[-Infinity,0.0,0.0]],"contacts":'),
    # where the older format held t
    "overflow_t": (r"^\{", '{"t":1e400,'),
    "n_past_uint64": (r'"n":\d+', f'"n":{TOO_BIG_FOR_UINT64}'),
    "node_past_uint64": (
        r'"contacts":\[\]',
        f'"contacts":[{{"node":{TOO_BIG_FOR_UINT64},"phi":0.0,'
        '"normal":[0.0,0.0,-1.0],"b":null,"mu":null}]',
    ),
    "leading_zero": (r'"n":(\d+)', r'"n":0\1'),
    "trailing_comma": (r"\}$", ",}"),
}


# Or each writes the bits of a non-finite number into the third frame's k, in
# the sidecar.
ROW_FAULTS = {"nan_in_k": math.nan, "infinity_in_k": math.inf, "minus_infinity_in_k": -math.inf}


def write_into_k(frames, value):
    """Write value over a coordinate of the third frame's first row of k."""
    rows_before = sum(json.loads(line)["n"] + 1 for line in frames.read_text().splitlines()[:2])
    with open(sidecar(frames), "r+b") as fh:
        fh.seek(24 * rows_before + 8)
        fh.write(k_bytes([value]))


@pytest.mark.parametrize("command", ["audit", "oracle-check"])
@pytest.mark.parametrize("fault", sorted(TEXT_FAULTS | ROW_FAULTS))
def test_text_fault_in_third_frame_exits_two(straight_run, tmp_path, command, fault):
    # only the record prefix is asserted: a field check and the JSON decoder
    # word these faults differently, and either may catch them
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    frames = outdir / "frames.jsonl"
    if fault in ROW_FAULTS:
        write_into_k(frames, ROW_FAULTS[fault])
    else:
        pattern, replacement = TEXT_FAULTS[fault]
        lines = frames.read_text().splitlines()
        bad = re.sub(pattern, replacement, lines[2], count=1)
        assert bad != lines[2]
        frames.write_text("\n".join([*lines[:2], bad, *lines[3:]]) + "\n")
    proc = invoke(command, str(frames))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "frames.jsonl:3: " in proc.stderr
    assert "Traceback" not in proc.stderr


def _drop_sidecar(frames):
    sidecar(frames).unlink()
    return r"error: cannot read \S*/frames\.k: "


def _cut_last_byte(frames):
    k = sidecar(frames).read_bytes()
    sidecar(frames).write_bytes(k[:-1])
    lines = frames.read_text().splitlines()
    size = 24 * (json.loads(lines[-1])["n"] + 1)
    return (
        rf"error: \S*/frames\.jsonl:{len(lines)}: \S*/frames\.k ends short of k: "
        rf"n = \d+ needs {size} bytes, {size - 1} left$"
    )


def _add_a_row(frames):
    with open(sidecar(frames), "ab") as fh:
        fh.write(k_bytes(upright(0)))
    return r"error: \S*/frames\.k runs 24 byte\(s\) past the last frame's k$"


def _non_finite_k(value):
    def fault(frames):
        write_into_k(frames, value)
        return r"error: \S*/frames\.jsonl:3: k in \S*/frames\.k holds a non-finite number$"

    return fault


def _keep_k_in_a_record(frames):
    lines = frames.read_text().splitlines()
    lines[2] = lines[2].replace('"contacts":', f'"k":"{K0_TEXT}","contacts":', 1)
    frames.write_text("\n".join(lines) + "\n")
    return r"error: \S*/frames\.jsonl:3: frame has unknown keys \['k'\]$"


SIDECAR_FAULTS = {
    "missing": _drop_sidecar,
    "one_byte_short": _cut_last_byte,
    "one_row_over": _add_a_row,
    "nan": _non_finite_k(math.nan),
    "infinity": _non_finite_k(math.inf),
    "record_holds_k": _keep_k_in_a_record,
}


@pytest.mark.parametrize("command", ["audit", "oracle-check"])
@pytest.mark.parametrize("fault", sorted(SIDECAR_FAULTS))
def test_malformed_sidecar_exits_two(straight_run, tmp_path, command, fault):
    # one error line that names the file at fault, and path:N where a record is
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    pattern = SIDECAR_FAULTS[fault](outdir / "frames.jsonl")
    proc = invoke(command, str(outdir / "frames.jsonl"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert re.match(pattern, proc.stderr.rstrip("\n")), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["audit", "oracle-check"])
def test_empty_frames_file_exits_one(straight_run, tmp_path, command):
    # no frames is nothing checked, not a pass
    outdir = tmp_path / "out"
    shutil.copytree(straight_run, outdir)
    (outdir / "frames.jsonl").write_bytes(b"")
    (outdir / "frames.k").write_bytes(b"")
    proc = invoke(command, str(outdir / "frames.jsonl"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == f"{command}: no frames\n"


def test_oracle_check_passes_frames_without_contacts(straight_run):
    proc = invoke("oracle-check", str(straight_run / "frames.jsonl"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == (
        "oracle-check: 0 checked, 0 skipped (too many contacts), 0 degenerate, 0 mismatched\n"
    )


# ---------------------------------------------------------------------------
# twin
# ---------------------------------------------------------------------------


def test_twin_writes_certificate_and_distances(tmp_path):
    doc = straight_doc()
    doc["law"] = {"variant": "gravitropic", "beta": 1.0, "gain": 1.0}
    config_path = write_scenario(tmp_path / "twin.json", doc)
    outdir = tmp_path / "out"
    proc = invoke("twin", config_path, "--perturb", "tilt:1e-3", "--out", str(outdir))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("twin:")

    cert = json.loads((outdir / "certificate.json").read_text())
    assert math.isfinite(cert["growth_constant"])
    assert cert["perturbation"]["angle"] == pytest.approx(1e-3)
    assert cert["terminal_distance"] >= 0.0

    distances = [
        json.loads(line) for line in (outdir / "distances.jsonl").read_text().splitlines()
    ]
    assert len(distances) == 5
    # the separation metric is a weighted norm of the tilt field, so the
    # first entry is of order the tilt angle but scaled by the metric weights
    assert 0.1e-3 < distances[0]["distance"] < 10e-3
    assert cert["initial_distance"] == pytest.approx(distances[0]["distance"])
    assert (outdir / "base" / "manifest.json").exists()
    assert (outdir / "perturbed" / "frames.jsonl").exists()


def test_twin_whose_seed_starts_jammed_fits_no_rate(tmp_path):
    # the seed tip sits in the contact band of a ceiling it points at head on,
    # so both runs break down at their first frame: one shared frame, no rate
    doc = breakdown_doc()
    doc["scene"]["obstacles"][0]["point"] = [0.0, 0.0, 0.305]
    doc["numerics"] = {"dt": 0.01, "t0": 0.3, "horizon": 0.6}
    config_path = write_scenario(tmp_path / "jammed.json", doc)
    assert invoke("run", config_path, "--out", str(tmp_path / "run")).returncode == 10
    outdir = tmp_path / "out"
    proc = invoke("twin", config_path, "--perturb", "tilt:0.001", "--out", str(outdir))
    assert proc.returncode == 10, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("twin: C=none D0=")
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["growth_constant"] is None
    assert cert["shared_frames"] == 1
    assert cert["base_exit"] == cert["perturbed_exit"] == "Breakdown"
    assert len((outdir / "distances.jsonl").read_text().splitlines()) == 1
    for side in ("base", "perturbed"):
        manifest = json.loads((outdir / side / "manifest.json").read_text())
        assert manifest["outputs"]["frames_written"] == 1


def test_twin_writes_every_other_output_before_a_manifest(tmp_path, monkeypatch, capsys):
    # a side's manifest marks a finished twin: both frames files and their
    # sidecars, the distances and the certificate are on disk before it
    config_path = write_scenario(tmp_path / "twin.json", straight_doc())
    outdir = tmp_path / "out"
    present = []
    write_manifest = cli.write_manifest

    def recording(path, *args):
        present.append(sorted(str(p.relative_to(outdir)) for p in outdir.rglob("*.*")))
        return write_manifest(path, *args)

    monkeypatch.setattr(cli, "write_manifest", recording)
    assert cli.main(["twin", config_path, "--perturb", "tilt:0.05", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert len(present) == 2
    outputs = ["certificate.json", "distances.jsonl"]
    for side in ("base", "perturbed"):
        outputs += [f"{side}/frames.jsonl", f"{side}/frames.k"]
    for files in present:
        assert set(outputs) <= set(files), files


def test_twin_manifests_replay_each_run_byte_identically(tmp_path):
    # the perturbed manifest holds the tilted seed, so replaying it gives the
    # perturbed run, not the base run again
    doc = straight_doc()
    doc["law"] = {"variant": "gravitropic", "beta": 1.0, "gain": 1.0}
    config_path = write_scenario(tmp_path / "twin.json", doc)
    outdir = tmp_path / "out"
    proc = invoke(
        "twin", config_path, "--perturb", "tilt:0.05", "--stride", "2", "--out", str(outdir)
    )
    assert proc.returncode == 0, proc.stderr
    base, perturbed = outdir / "base", outdir / "perturbed"
    # without contacts the two records agree: the tilt is in the tangents
    assert (base / "frames.k").read_bytes() != (perturbed / "frames.k").read_bytes()
    for run_dir in (base, perturbed):
        replay = tmp_path / "replay" / run_dir.name
        proc = invoke("run", str(run_dir / "manifest.json"), "--out", str(replay))
        assert proc.returncode == 0, proc.stderr
        for name in ("frames.jsonl", "frames.k", "events.jsonl"):
            assert (replay / name).read_bytes() == (run_dir / name).read_bytes(), name
        outputs = [
            json.loads((d / "manifest.json").read_text())["outputs"] for d in (replay, run_dir)
        ]
        assert outputs[0] == outputs[1]


def test_twin_bad_perturbation_exits_two(tmp_path):
    config_path = write_scenario(tmp_path / "twin.json", straight_doc())
    proc = invoke("twin", config_path, "--perturb", "shear:0.1", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "tilt:ANGLE" in proc.stderr


@pytest.mark.parametrize(
    "spec",
    [
        "tilt:nan",
        "tilt:inf",
        "tilt:-inf",
        "tilt:0.05:0,nan,1",
        "tilt:0",
        "tilt:0.05:0,0,0",
        "tilt:0.05:1e200,1e200,1e200",
    ],
)
def test_twin_non_finite_perturbation_exits_two(tmp_path, spec):
    # a NaN angle would be written as a bare nan token, which is not JSON;
    # a zero angle, or an axis whose norm is zero or overflows, tilts by zero
    # and leaves the twin with nothing to measure
    config_path = write_scenario(tmp_path / "twin.json", straight_doc())
    outdir = tmp_path / "out"
    proc = invoke("twin", config_path, f"--perturb={spec}", "--out", str(outdir))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --perturb "), proc.stderr
    assert not outdir.exists()


@pytest.mark.parametrize(
    "scenario, spec, reason",
    [
        ("gravitropic_ceiling", "tilt:1e-300", "does not move the seed"),
        ("straight", "tilt:0.1:0,0,1", "does not move the seed"),
        ("gravitropic_ceiling", f"tilt:{math.pi!r}", "onto its opposite"),
    ],
    ids=["angle_underflows", "axis_along_seed", "antipodal"],
)
def test_twin_perturbation_that_leaves_the_seed_unmoved_exits_two(
    tmp_path, scenario, spec, reason
):
    # the twin's distance would be 0 at every frame, and the certificate
    # could fit no rate, or a half turn sets a seed tangent against its base
    # twin, between which the minimal rotation is ambiguous: rejected before
    # either run steps, as --perturb, not as an integrity failure
    outdir = tmp_path / "out"
    config_path = str(SCENARIOS / f"{scenario}.json")
    proc = invoke("twin", config_path, "--perturb", spec, "--out", str(outdir))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --perturb "), proc.stderr
    assert reason in lines[0]
    assert not outdir.exists()
