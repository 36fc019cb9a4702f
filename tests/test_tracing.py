"""The benchmark's layer tracer still reaches the layers a run and a twin go through.

`bench/tracing.py` wraps each layer function at the import sites the CLI
and the stepper use (`cli.run_scenario`, `cli.twin_run`, `cli.write_frames`,
`stepper.solve_reaction`, ...). A refactor that stops calling one of them
would make a traced benchmark run record nothing for that layer; these tests
catch it in Tier-1.
"""

import importlib.util
from pathlib import Path

from stemgrow import cli
from stemgrow.config import load_config
from stemgrow.trajectory import read_frames

ROOT = Path(__file__).resolve().parent.parent
STRAIGHT = str(ROOT / "scenarios" / "straight.json")
OBLIQUE = str(ROOT / "scenarios" / "sphere_oblique.json")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_run_twin_step_and_write(tmp_path):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["run", STRAIGHT, "--out", str(tmp_path / "run")]) == 0
        twin = ["twin", STRAIGHT, "--perturb", "tilt:0.05", "--out", str(tmp_path / "twin")]
        assert cli.main(twin) == 0
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    for name in ("stepper.run", "stepper.twin_run", "stepper.step", "trajectory.write_frames"):
        assert layers[name]["calls"] > 0, name
    # one frames file for the run and one for each side of the twin
    assert layers["trajectory.write_frames"]["calls"] == 3
    assert tracer.counts["frames_written"] == 30
    # stepper.run is traced through cli.run_scenario, and its kept frames hold
    # their tangents and reaction arrays, not the positions they imply
    dt = load_config(str(tmp_path / "run" / "manifest.json")).dt
    kept = read_frames(str(tmp_path / "run" / "frames.jsonl"), dt)
    assert tracer.counts["trajectory_bytes"] == sum(
        a.nbytes for fr in kept for a in (fr.k, fr.b, fr.mu) if a is not None
    )


def test_tracer_records_the_contact_layers(tmp_path):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["run", OBLIQUE, "--out", str(tmp_path)]) == 0
        assert cli.main(["oracle-check", str(tmp_path / "frames.jsonl")]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    for name in (
        "reaction.assemble_constraints",
        "reaction.linear_rates",
        "reaction.solve_reaction",
        "reaction.check_kkt",
        "reaction.density_from_multipliers",
        "reaction.oracle_solve_reaction",
    ):
        assert layers[name]["calls"] > 0, name
    # one quadrature per contact step: the correction loop takes its defect
    # through the Gram matrix
    assert tracer.counts["contact_steps"] == 43
    assert layers["reaction.linear_rates"]["calls"] == 43


def test_tracer_records_one_kkt_check_per_written_contact_frame(tmp_path):
    # a step certifies its solve only when its frame is written; the traced
    # benchmark still needs check_kkt busy on its strided runs
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["run", OBLIQUE, "--stride", "5", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    dt = load_config(str(tmp_path / "manifest.json")).dt
    written = [fr for fr in read_frames(str(tmp_path / "frames.jsonl"), dt) if fr.mu is not None]
    assert len(written) > 0
    assert layers["reaction.check_kkt"]["calls"] == len(written)
    assert tracer.counts["contact_steps"] == 43
