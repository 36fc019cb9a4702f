"""Command-line entry points: run, twin, audit, oracle-check."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .config import SimConfig, config_to_dict, load_config
from .diagnostics import audit_arrays, step_normal_rates
from .errors import NoCandidateFeasible, ParseError, SimulationError, ValidationError
from .obstacles import _unit
from .reaction import assemble_constraints, density_from_multipliers, oracle_solve_reaction
from .reaction import pushback_rates, rate_gaps
from .stepper import run as run_scenario
from .stepper import twin_run
from .trajectory import (
    event_from_dict,
    frame_writer,
    parse_records,
    read_frames,
    read_jsonl,
    tangents_path,
    write_events,
    write_frames,
    write_jsonl,
    write_manifest,
)

EXIT_CODES = {"HorizonReached": 0, "Breakdown": 10, "IntegrityFailure": 20}


def _make_dirs(*paths: str) -> None:
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _write_frames(outdir: str, frames) -> int:
    """Make outdir, then write each frame to its frames.jsonl as it is drawn."""
    _make_dirs(outdir)
    return write_frames(os.path.join(outdir, "frames.jsonl"), frames)


def _write_run(outdir: str, traj, config: SimConfig, argv: list[str]) -> dict:
    """Write a run's events and then its manifest; its frames are already written.

    A directory without a manifest is a run that did not finish.
    """
    write_events(os.path.join(outdir, "events.jsonl"), traj.events)
    outputs = {
        "frames": "frames.jsonl",
        "tangents": tangents_path("frames.jsonl"),
        "events": "events.jsonl",
        "exit_kind": traj.exit_kind,
        "frames_written": traj.frames_written,
        "frames_total": traj.frames_total,
    }
    return write_manifest(
        os.path.join(outdir, "manifest.json"),
        config_to_dict(config),
        argv,
        outputs,
        __version__,
    )


def _report_exit(traj, prefix: str = "") -> None:
    """One stderr line with why a run that did not reach the horizon ended.

    The reason is read from the run's exit event, the last in events.jsonl:
    the breakdown diagnostics, or the integrity failure's error.
    """
    exit_event = traj.events[-1]
    if exit_event.kind == "HorizonReached":
        return
    data = exit_event.data
    if exit_event.kind == "IntegrityFailure":
        reason = data["error"]
    else:
        reason = ", ".join(f"{key}={value}" for key, value in data.items())
    print(f"{prefix}{exit_event.kind} at t={exit_event.t:.6g}: {reason}", file=sys.stderr)


def _cmd_run(args, argv) -> int:
    config = load_config(args.config)
    if args.stride is not None:
        config = replace(config, stride=args.stride)  # validates the override
    traj = run_scenario(config, partial(_write_frames, args.out))
    _write_run(args.out, traj, config, argv)
    _report_exit(traj)
    final = traj.frames[-1]
    print(
        f"{traj.exit_kind}: t={final.t:.6g} nodes={final.n_grown + 1} "
        f"frames={traj.frames_total} events={len(traj.events)} -> {args.out}"
    )
    return EXIT_CODES[traj.exit_kind]


def _parse_perturbation(spec: str) -> tuple[float, np.ndarray]:
    parts = spec.split(":")
    if parts[0] != "tilt" or len(parts) not in (2, 3):
        raise ValidationError(
            f"--perturb must look like tilt:ANGLE[:X,Y,Z], got {spec!r}"
        )
    try:
        angle = float(parts[1])
    except ValueError:
        raise ValidationError(f"--perturb angle {parts[1]!r} is not a number")
    axis = np.array([0.0, 1.0, 0.0])
    if len(parts) == 3:
        try:
            axis = np.array([float(x) for x in parts[2].split(",")])
        except ValueError:
            raise ValidationError(f"--perturb axis {parts[2]!r} is not X,Y,Z")
        if axis.shape != (3,):
            raise ValidationError("--perturb axis needs three components")
    if not (np.isfinite(angle) and np.all(np.isfinite(axis))):
        raise ValidationError(f"--perturb angle and axis must be finite, got {spec!r}")
    if angle == 0.0:
        raise ValidationError(f"--perturb angle must be nonzero, got {spec!r}")
    _unit(axis, "--perturb axis")  # the check the tilt's normalization makes later
    return angle, axis


def _check_tolerance(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValidationError(f"{flag} must be finite and positive, got {value}")


def _cmd_twin(args, argv) -> int:
    config = load_config(args.config)
    if args.stride is not None:
        config = replace(config, stride=args.stride)  # validates the override
    angle, axis = _parse_perturbation(args.perturb)
    names = ("base", "perturbed")
    sides = [os.path.join(args.out, name) for name in names]
    with ExitStack() as stack:

        def ready():
            _make_dirs(args.out, *sides)
            paths = (os.path.join(side, "frames.jsonl") for side in sides)
            return tuple(stack.enter_context(frame_writer(path)) for path in paths)

        result = twin_run(config, angle, axis, ready)
    write_jsonl(
        os.path.join(args.out, "distances.jsonl"),
        ({"t": float(t), "distance": float(d)} for t, d in zip(result.times, result.distances)),
    )
    cert = {
        "growth_constant": result.growth_constant,
        "perturbation": {"kind": "tilt", "angle": angle, "axis": axis},
        **result.details,
    }
    write_jsonl(os.path.join(args.out, "certificate.json"), [cert])
    # a side's manifest, written last, marks a finished twin
    for name, outdir, traj, side_config in zip(
        names, sides, (result.base, result.perturbed), (config, result.perturbed_config)
    ):
        _write_run(outdir, traj, side_config, argv)
        _report_exit(traj, f"{name}: ")
    c = result.growth_constant
    print(
        f"twin: C={'none' if c is None else format(c, '.6g')} "
        f"D0={result.distances[0]:.6g} DT={result.distances[-1]:.6g} "
        f"({result.base.exit_kind}/{result.perturbed.exit_kind}) -> {args.out}"
    )
    return max(EXIT_CODES[result.base.exit_kind], EXIT_CODES[result.perturbed.exit_kind])


def _frames_config(args) -> SimConfig:
    """The config that made args.frames: --manifest, else the manifest.json beside them."""
    return load_config(args.manifest or os.path.join(os.path.dirname(args.frames), "manifest.json"))


def _cmd_audit(args) -> int:
    _check_tolerance("--rate-tol", args.rate_tol)
    config = _frames_config(args)
    bad: list[str] = []
    rate_bad: list[str] = []  # reported after every per-frame message
    n_frames = 0
    prev = None
    for idx, fr in enumerate(read_frames(args.frames, config.dt)):
        n_frames += 1
        bad.extend(
            f"frame {idx}: {msg}"
            for msg in audit_arrays(fr.gamma, fr.k, config.scene, config.eps_penetration)
        )
        if prev is not None and (msg := _rate_violation(prev, fr, config, args.rate_tol)):
            rate_bad.append(msg)
        prev = fr
    if not n_frames:
        print("audit: no frames")
        return 1
    bad.extend(rate_bad)
    events_path = os.path.join(os.path.dirname(args.frames), "events.jsonl")
    records = read_jsonl(events_path) if os.path.exists(events_path) else []
    events = list(parse_records(events_path, records, event_from_dict))
    times = [ev.t for ev in events]
    if any(b < a for a, b in zip(times, times[1:])):
        bad.append("events are not ordered by time")
    bad.extend(_patch_violations(events))
    for msg in bad:
        print(f"audit: {msg}")
    print(f"audit: {n_frames} frames, {len(bad)} violation(s)")
    return 0 if not bad else 1


def _patch_violations(events) -> list[str]:
    """The messages for contact patch records that do not pair up.

    Each ContactPatchStart opens a new id and each ContactPatchEnd closes an
    open one; a patch still open at the exit event has no end.
    """
    bad, seen, open_ids = [], set(), set()
    for idx, ev in enumerate(events, 1):
        if ev.kind not in ("ContactPatchStart", "ContactPatchEnd"):
            continue
        pid = ev.data.get("patch")
        if type(pid) is not int:
            bad.append(f"event {idx}: {ev.kind} has no int patch id")
        elif ev.kind == "ContactPatchStart":
            if pid in seen:
                bad.append(f"event {idx}: ContactPatchStart reuses patch id {pid}")
            seen.add(pid)
            open_ids.add(pid)
        elif pid in open_ids:
            open_ids.remove(pid)
        else:
            bad.append(f"event {idx}: ContactPatchEnd of patch {pid}, which is not open")
    return bad


def _rate_violation(prev, nxt, config: SimConfig, rate_tol: float) -> str | None:
    """The message for a too-large contact normal-rate residual from prev to nxt, if any.

    An active contact must move at its pushback rate, and an inactive one no
    slower than it, as the correction loop accepts a step.
    """
    c = prev.contacts
    if nxt.n_grown - prev.n_grown != 1 or prev.mu is None or not c.size:
        return None
    rates = step_normal_rates(prev, nxt, c, config.dt)
    target = pushback_rates(c.phi, config.kappa, config.dt)
    resid, speed = rate_gaps(rates, target, prev.mu)
    if resid > rate_tol * (1.0 + speed):
        return f"frame t={prev.t:.6g}: contact normal rate residual {resid:.3e}"
    return None


def _cmd_oracle_check(args) -> int:
    _check_tolerance("--tol", args.tol)
    if args.max_contacts < 1:
        raise ValidationError(f"--max-contacts must be at least 1, got {args.max_contacts}")
    config = _frames_config(args)
    checked = skipped = degenerate = mismatched = n_frames = 0
    for idx, fr in enumerate(read_frames(args.frames, config.dt)):
        n_frames += 1
        if fr.mu is None or fr.b is None or not fr.contacts.size:
            continue
        if fr.contacts.size > args.max_contacts:
            skipped += 1
            continue
        system = assemble_constraints(fr, fr.contacts, config.law.beta)
        try:
            oracle = oracle_solve_reaction(system, fr.b)
        except NoCandidateFeasible as exc:
            print(f"oracle-check: frame {idx}: {exc}")
            mismatched += 1
            continue
        stored = density_from_multipliers(system, fr.mu)
        diff = float(np.max(np.abs(stored - oracle.omega)))
        scale = 1.0 + float(np.max(np.abs(oracle.omega)))
        # the density is unique even where the multipliers are not, so a
        # degenerate frame is compared too
        checked += 1
        if oracle.degenerate:
            degenerate += 1
            print(f"oracle-check: frame {idx}: degenerate ({oracle.degenerate})")
        if "candidate densities disagree" in oracle.degenerate:
            # the minimizer's density is unique, so feasible candidates that
            # disagree in it leave the stored density nothing to agree with
            mismatched += 1
            print(f"oracle-check: frame {idx} t={fr.t:.6g}: candidate densities disagree")
        elif diff > args.tol * scale:
            mismatched += 1
            print(
                f"oracle-check: frame {idx} t={fr.t:.6g}: density differs by "
                f"{diff:.3e} (tol {args.tol * scale:.3e})"
            )
    if not n_frames:
        print("oracle-check: no frames")
        return 1
    print(
        f"oracle-check: {checked} checked, {skipped} skipped (too many contacts), "
        f"{degenerate} degenerate, {mismatched} mismatched"
    )
    return 0 if mismatched == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemgrow",
        description="Constrained stem growth simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config or manifest")
    p_run.add_argument("config", help="scenario config JSON (or a run manifest)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--stride", type=int, default=None, help="frame decimation")

    p_twin = sub.add_parser("twin", help="run a scenario and a perturbed twin")
    p_twin.add_argument("config")
    p_twin.add_argument("--perturb", required=True, help="tilt:ANGLE[:X,Y,Z]")
    p_twin.add_argument("--out", required=True)
    p_twin.add_argument("--stride", type=int, default=None)

    p_audit = sub.add_parser("audit", help="recheck invariants of a frames file")
    p_audit.add_argument("frames")
    p_audit.add_argument("--manifest", default=None)
    p_audit.add_argument("--rate-tol", type=float, default=1e-6)

    p_oc = sub.add_parser("oracle-check", help="re-solve stored reactions with the enumeration oracle")
    p_oc.add_argument("frames")
    p_oc.add_argument("--manifest", default=None)
    p_oc.add_argument("--max-contacts", type=int, default=12)
    p_oc.add_argument("--tol", type=float, default=1e-8)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, ["stemgrow"] + argv)
        if args.command == "twin":
            return _cmd_twin(args, ["stemgrow"] + argv)
        if args.command == "audit":
            return _cmd_audit(args)
        return _cmd_oracle_check(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["IntegrityFailure"]


if __name__ == "__main__":
    sys.exit(main())
