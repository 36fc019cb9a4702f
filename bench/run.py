"""stemgrow benchmark: times the CLI end to end, one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload contact --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1

Each sample runs the workload's `stemgrow` commands in a fresh interpreter
(bench/child.py), one sample at a time, importing the package from `src`.
Samples repeat while one more still fits in `--seconds`. With `--trace 0`
the last stdout line carries the end-to-end metrics of BENCHMARK.json
(medians over the samples, times scaled to the speed of a reference kernel
timed while the commands run); with `--trace 1` it carries the per-layer
metrics from traced samples, which alternate with untraced ones so that the
tracing overhead can be reported. The seed only jitters the generated
scenario files; the program sees nothing but those files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")
GOLDEN = os.path.join(BENCH, "golden.json")

MIN_SAMPLES = 3
# Interpreters started in a plain run only to time set-up, so that setup_s
# has a median over more than the few samples a long workload fits in a run.
SETUP_PROBES = 10
# One BLAS thread: the program's arrays are far below OpenBLAS's threading
# threshold, and an idle pool thread per core only adds to what the host schedules.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Every invocation must end within 180 s; a sample still running then is killed.
INVOCATION_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


# -- workloads -------------------------------------------------------------


def _rotate(v, axis, angle):
    """Rodrigues rotation of 3-vector v about unit axis by angle."""
    c, s = math.cos(angle), math.sin(angle)
    dot = sum(a * b for a, b in zip(axis, v))
    cross = (
        axis[1] * v[2] - axis[2] * v[1],
        axis[2] * v[0] - axis[0] * v[2],
        axis[0] * v[1] - axis[1] * v[0],
    )
    return [v[i] * c + cross[i] * s + axis[i] * dot * (1.0 - c) for i in range(3)]


def _jitter_direction(direction, rng):
    """Tilt a unit direction by at most 1 degree, about a random perpendicular axis."""
    norm = math.sqrt(sum(x * x for x in direction))
    d = [x / norm for x in direction]
    helper = (1.0, 0.0, 0.0) if abs(d[0]) < 0.9 else (0.0, 1.0, 0.0)
    dot = sum(a * b for a, b in zip(helper, d))
    perp = [h - dot * x for h, x in zip(helper, d)]
    pn = math.sqrt(sum(x * x for x in perp))
    perp = [x / pn for x in perp]
    axis = _rotate(perp, d, rng.uniform(0.0, 2.0 * math.pi))
    return _rotate(d, axis, math.radians(rng.uniform(0.0, 1.0)))


def _scenario(name, rng):
    with open(os.path.join(SCENARIOS, name)) as fh:
        doc = json.load(fh)
    seed = doc["seed_curve"]
    seed["direction"] = _jitter_direction(seed["direction"], rng)
    return doc


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _cmd(*argv, report=False):
    """One timed CLI call; report=True also requires a clean audit/oracle-check summary."""
    return {"argv": list(argv), "report": report}


def _plan_contact(rng, work):
    ceiling = _write(os.path.join(work, "ceiling.json"),
                     _scenario("gravitropic_ceiling.json", rng))
    doc = _scenario("twin_tilt.json", rng)
    doc["numerics"]["dt"] = 0.00125
    twin = _write(os.path.join(work, "twin.json"), doc)
    angle = rng.uniform(0.04, 0.06)
    frames = os.path.join(work, "frames", "frames.jsonl")
    return {
        "prep": [_cmd("run", ceiling, "--stride", "1", "--out", os.path.dirname(frames))],
        "prep_hash": ["frames/frames.jsonl", "frames/events.jsonl"],
        "commands": [
            _cmd("run", ceiling, "--stride", "20", "--out", os.path.join(work, "ceiling")),
            _cmd("twin", twin, "--perturb", f"tilt:{angle!r}", "--stride", "40",
                 "--out", os.path.join(work, "twin")),
            _cmd("audit", frames, report=True),
            _cmd("oracle-check", frames, report=True),
        ],
        "check_dirs": [os.path.join(work, d) for d in ("ceiling", "twin/base", "twin/perturbed")],
        "hash": [
            "ceiling/frames.jsonl",
            "ceiling/events.jsonl",
            "twin/base/frames.jsonl",
            "twin/base/events.jsonl",
            "twin/perturbed/frames.jsonl",
            "twin/perturbed/events.jsonl",
            "twin/distances.jsonl",
            "twin/certificate.json",
        ],
    }


def _plan_free_growth(rng, work):
    doc = _scenario("gravitropic_ceiling.json", rng)
    doc["scene"]["obstacles"] = []
    doc["label"] = "gravitropic stem, free growth"
    cfg = _write(os.path.join(work, "free_growth.json"), doc)
    out = os.path.join(work, "out")
    return {
        "commands": [_cmd("run", cfg, "--stride", "2", "--out", out)],
        "check_dirs": [],
        "hash": ["out/frames.jsonl", "out/events.jsonl"],
    }


# Which layers a traced sample must reach (busy) and must bypass (idle). A
# busy layer that records no call, or an idle one that records any, fails
# the traced run loudly.
WORKLOADS = {
    "contact": {
        "plan": _plan_contact,
        "busy": (
            "trajectory.write_frames", "trajectory.read_jsonl",
            "stepper.run", "stepper.step", "stepper.twin_run", "growth.psi_field",
            "reaction.detect_contacts", "reaction.assemble_constraints",
            "reaction.linear_rates", "reaction.solve_reaction",
            "reaction.density_from_multipliers", "reaction.check_kkt",
            "reaction.oracle_solve_reaction",
            "obstacles.signed_distances", "obstacles.outer_normal",
            "diagnostics.audit_arrays", "diagnostics.step_normal_rates",
            "diagnostics.rotation_field",
        ),
        "idle": (),
    },
    "free_growth": {
        "plan": _plan_free_growth,
        "busy": (
            "stepper.run", "stepper.step", "growth.psi_field",
            "reaction.detect_contacts", "obstacles.signed_distances",
            "trajectory.write_frames",
        ),
        "idle": (
            "reaction.assemble_constraints", "reaction.linear_rates",
            "reaction.solve_reaction", "reaction.density_from_multipliers",
            "reaction.check_kkt", "reaction.oracle_solve_reaction",
            "obstacles.outer_normal", "trajectory.read_jsonl", "stepper.twin_run",
            "diagnostics.audit_arrays", "diagnostics.step_normal_rates",
            "diagnostics.rotation_field",
        ),
    },
}


# -- samples ---------------------------------------------------------------


def _child_spec(commands, work, hash_files, trace=False, spans_path=None):
    return {
        "src": SRC,
        "trace": trace,
        "commands": commands,
        "hash_root": work,
        "hash": hash_files,
        "spans_path": spans_path,
    }


def _problems(result):
    return [f"{c['argv'][0]}: {p}" for c in result["commands"] for p in c["problems"]]


def _check_outputs(plan, work, timeout):
    """audit and oracle-check on the run directories the workload wrote."""
    commands = [
        _cmd(command, os.path.join(d, "frames.jsonl"), report=True)
        for d in plan["check_dirs"]
        for command in ("audit", "oracle-check")
    ]
    if not commands:
        return []
    return _problems(run_child(_child_spec(commands, work, []), work, timeout))


def run_child(spec, work, timeout):
    """Run one sample in a fresh interpreter; returns its result dict."""
    spec_path = os.path.join(work, "spec.json")
    _write(spec_path, spec)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", CHILD, spec_path],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    # Both clocks are CLOCK_MONOTONIC, shared by parent and child on Linux.
    result["setup_s"] = result["setup_end"] - started
    result["scaled_setup_s"] = (
        result["setup_s"] * result["kernel_nominal_s"] / statistics.median(result["setup_kernel_s"])
    )
    return result


def prepare(name, seed):
    """Fresh work directory and the plan for one workload at one seed."""
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rng = random.Random(seed)
    return work, WORKLOADS[name]["plan"](rng, work)


def _prepare_inputs(name, plan, work, timeout):
    """Run the workload's untimed preparation; returns the hashes of what it wrote."""
    if "prep" not in plan:
        return {}
    prep = run_child(_child_spec(plan["prep"], work, plan["prep_hash"]), work, timeout)
    if _problems(prep):
        raise BenchError(f"{name}: preparing inputs failed: {_problems(prep)}")
    return prep["hashes"]


def reference_hashes(name, seed, timeout=INVOCATION_LIMIT_S):
    """SHA-256 of the deterministic outputs the workload produces at a seed."""
    work, plan = prepare(name, seed)
    try:
        hashes = _prepare_inputs(name, plan, work, timeout)
        result = run_child(_child_spec(plan["commands"], work, plan["hash"]), work, timeout)
        problems = _problems(result) + _check_outputs(plan, work, timeout)
        if problems:
            raise BenchError(f"{name} seed {seed}: {problems}")
        return {**hashes, **result["hashes"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _speed_scale(sample):
    """Factor that quotes a time of this sample at the reference-kernel speed."""
    return sample["kernel_nominal_s"] / statistics.fmean(sample["kernel_s"])


def _layer_metrics(sample):
    """Per-layer metric values of one traced sample, times at reference speed."""
    trace, scale = sample["trace"], _speed_scale(sample)
    layers, counts, step = trace["layers"], trace["counts"], trace["step"]
    out = {f"{name}.self_s": entry["self_s"] * scale for name, entry in layers.items()}
    for name in ("stepper.step", "reaction.solve_reaction", "reaction.oracle_solve_reaction"):
        out[f"{name}.calls"] = layers[name]["calls"]
    out["reaction.solve_reaction.cd_sweeps"] = counts["solves_sweeps"]
    out["reaction.oracle_solve_reaction.candidates"] = counts["oracle_candidates"]
    out["reaction.contact_steps"] = counts["contact_steps"]
    out["reaction.contacts"] = counts["contacts"]
    steps = counts["contact_steps"]
    out["reaction.solves_per_contact_step"] = (
        layers["reaction.solve_reaction"]["calls"] / steps if steps else 0.0
    )
    out["reaction.contacts_per_contact_step"] = counts["contacts"] / steps if steps else 0.0
    out["trajectory.write_frames.frames"] = counts["frames_written"]
    out["trajectory.write_frames.mb"] = counts["bytes_written"] / 1e6
    out["trajectory.read_jsonl.records"] = counts["records_read"]
    out["trajectory.read_jsonl.mb"] = counts["bytes_read"] / 1e6
    out["stepper.run.trajectory_mb"] = counts["trajectory_bytes"] / 1e6
    out["stepper.step.ms_p50"] = step["ms_p50"] * scale
    out["stepper.step.ms_p99"] = step["ms_p99"] * scale
    out["stepper.step.us_per_node"] = step["us_per_node"] * scale
    return out


def _deterministic(result):
    """What must repeat exactly from sample to sample."""
    keep = {"hashes": result["hashes"]}
    if "trace" in result:
        keep["calls"] = {k: v["calls"] for k, v in result["trace"]["layers"].items()}
        keep["counts"] = result["trace"]["counts"]
    return keep


def measure(name, seed, seconds, trace, bench_doc, golden):
    deadline = time.monotonic() + INVOCATION_LIMIT_S
    work, plan = prepare(name, seed)
    prep_hashes = _prepare_inputs(name, plan, work, deadline - time.monotonic())

    spans_dir = os.path.join(WORK, "trace")
    os.makedirs(spans_dir, exist_ok=True)
    samples = []
    bad = set()  # (sample, command) pairs that failed
    start = time.monotonic()
    probes = [] if trace else [
        run_child(_child_spec([], work, []), work, deadline - time.monotonic())
        for _ in range(SETUP_PROBES)
    ]
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        spans = os.path.join(spans_dir, f"{name}.spans.jsonl") if traced else None
        spec = _child_spec(plan["commands"], work, plan["hash"], traced, spans)
        began = time.monotonic()
        result = run_child(spec, work, deadline - time.monotonic())
        last = time.monotonic() - began  # spawn to exit
        result["traced"] = traced
        samples.append(result)
        for j, cmd in enumerate(result["commands"]):
            if cmd["problems"]:
                bad.add((len(samples) - 1, j))
        for problem in _problems(result):
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        enough = len(samples) >= (2 if trace else MIN_SAMPLES)
        # Stop before a sample that would end past --seconds, so that a run
        # lasts about --seconds whatever the sample length.
        if enough and time.monotonic() - start + last > seconds:
            break

    # Every sample must write byte-identical outputs (and, traced, repeat its
    # counters exactly); a sample that disagrees with the first fails all of
    # its commands. Identical outputs make one audit of the last sample's
    # files an audit of every sample's.
    n_commands = len(plan["commands"])
    for group in (False, True):
        same_kind = [i for i, s in enumerate(samples) if s["traced"] == group]
        for i in same_kind[1:]:
            if _deterministic(samples[i]) != _deterministic(samples[same_kind[0]]):
                bad.update((i, j) for j in range(n_commands))
                print(f"FAIL {name}: outputs or counters differ between samples",
                      file=sys.stderr)
    for problem in _check_outputs(plan, work, deadline - time.monotonic()):
        bad.update((len(samples) - 1, j) for j in range(n_commands))
        print(f"FAIL {name}: output check: {problem}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(samples) * n_commands, len(bad)
    correct = failed == 0

    plain = [s for s in samples if not s["traced"]]
    hashes = {**prep_hashes, **plain[0]["hashes"]}
    expected = golden.get(name, {}).get(str(seed))
    bit_identical = None if expected is None else expected == hashes

    values = {
        "wall_s": [s["scaled_wall_s"] for s in plain],
        "setup_s": [s["scaled_setup_s"] for s in plain + probes],
        "peak_rss_mb": [s["peak_rss_kib"] / 1024.0 for s in plain],
        "io_mb": [s["io_bytes"] / 1e6 for s in plain],
    }
    print(f"{name:12s} fail_share   {failed}/{attempted} = {failed / attempted:.6g}  "
          f"bit_identical={bit_identical}  numpy={samples[0]['numpy']}")
    if not trace:
        metrics = {}
        for spec in bench_doc["end_to_end"]:
            vals = values[spec["name"]]
            q1, q3 = _quartiles(vals)
            med = statistics.median(vals)
            metrics[spec["name"]] = {"value": med, "unit": spec["unit"]}
            print(f"{name:12s} {spec['name']:12s} median {med:.6g} {spec['unit']:4s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n={len(vals)}")
        refs = [r for s in plain for r in s["kernel_s"]]
        print(f"{name:12s} unscaled     wall_s median {statistics.median(s['wall_s'] for s in plain):.6g} s, "
              f"setup_s median {statistics.median(s['setup_s'] for s in plain + probes):.6g} s; "
              f"reference kernel median {statistics.median(refs):.6g} s, "
              f"min {min(refs):.6g}, max {max(refs):.6g} (n={len(refs)})")
    else:
        metrics = _trace_metrics(name, samples, bench_doc)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _trace_metrics(name, samples, bench_doc):
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    calls = traced[0]["trace"]["layers"]
    spec = WORKLOADS[name]
    for layer in spec["busy"]:
        if calls[layer]["calls"] == 0:
            raise BenchError(f"{name}: layer {layer} recorded zero calls")
    for layer in spec["idle"]:
        if calls[layer]["calls"] != 0:
            raise BenchError(f"{name}: layer {layer} should be idle, "
                             f"recorded {calls[layer]['calls']} calls")

    # Every per-layer value comes from one traced sample, the one with the
    # median wall time, so that its self times sum to at most trace.wall_s
    # (medians taken layer by layer need not). trace.wall_s is scaled as the
    # self times are: by the mean kernel time of the whole sample.
    walls = [s["wall_s"] * _speed_scale(s) for s in traced]
    traced_wall = statistics.median_low(walls)
    pick = traced[walls.index(traced_wall)]
    overhead = (statistics.median(s["scaled_wall_s"] for s in traced)
                - statistics.median(s["scaled_wall_s"] for s in plain))
    values = {**_layer_metrics(pick), "trace.wall_s": traced_wall, "trace.overhead_s": overhead}
    metrics = {}
    for m in bench_doc["per_layer"]:
        if m["name"] not in values:
            raise BenchError(f"per_layer metric {m['name']} has no measurement")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    v = {key: m["value"] for key, m in metrics.items()}
    self_times = {k[: -len(".self_s")]: x for k, x in v.items() if k.endswith(".self_s")}
    print(f"{name:12s} at reference speed: traced wall {traced_wall:.4f} s, "
          f"overhead {overhead:+.4f} s; "
          f"self-time sum {sum(self_times.values()):.4f} s")
    for layer, value in sorted(self_times.items(), key=lambda kv: -kv[1])[:6]:
        total = pick["trace"]["layers"][layer]["total_s"] * _speed_scale(pick)
        print(f"{name:12s}   {layer:36s} self {value:.4f} s {100 * value / traced_wall:5.1f}%"
              f"  with children {total:.4f} s {100 * total / traced_wall:5.1f}%")
    print(f"{name:12s}   solves {v['reaction.solve_reaction.calls']} / contact steps "
          f"{v['reaction.contact_steps']} = {v['reaction.solves_per_contact_step']:.4g}; "
          f"contacts {v['reaction.contacts']} / contact steps = "
          f"{v['reaction.contacts_per_contact_step']:.4g}; "
          f"CD sweeps {v['reaction.solve_reaction.cd_sweeps']} over "
          f"{v['reaction.solve_reaction.calls']} solves")
    print(f"{name:12s}   step calls {v['stepper.step.calls']}: p50 "
          f"{v['stepper.step.ms_p50']:.4g} ms, p99 {v['stepper.step.ms_p99']:.4g} ms, "
          f"{v['stepper.step.us_per_node']:.4g} us per grown node")
    return metrics


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    missing = [p for p in (bench_path, os.path.join(SRC, "stemgrow", "cli.py"),
                           os.path.join(SCENARIOS, "gravitropic_ceiling.json"),
                           os.path.join(SCENARIOS, "twin_tilt.json"))
               if not os.path.isfile(p)]
    if missing:
        print(f"error: not a stemgrow checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench_doc = json.load(fh)
    seconds = bench_doc["run_seconds"] if args.seconds is None else args.seconds
    golden = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + json.dumps(machine_facts()))
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, seconds, args.trace, bench_doc, golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in names:
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
