"""Layer spans recorded from outside the program.

`Tracer.install()` replaces each public layer function with a wrapper at
every place a `stemgrow` module binds it: the defining module and each import
site (`stemgrow.stepper.solve_reaction`, `stemgrow.cli.run_scenario`, ...).
Sites are found by identity, so a module that imports a layer function under
another name is covered too. A layer whose defining name no longer resolves
raises, so a rename cannot silently drop a layer from the trace.

Spans are kept in memory as [name, start, end, parent] and written out once
by `write_spans`. A layer's self time is its span duration minus the time its
child spans cover; the program is single-threaded, so children never overlap.
Deterministic counters are read from the wrapped calls' arguments and
return values.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
from time import perf_counter

# Layer name -> "module.function" inside the stemgrow package.
LAYERS = (
    "trajectory.write_frames",
    "trajectory.read_jsonl",
    "stepper.run",
    "stepper.step",
    "stepper.twin_run",
    "growth.psi_field",
    "reaction.detect_contacts",
    "reaction.assemble_constraints",
    "reaction.linear_rates",
    "reaction.solve_reaction",
    "reaction.density_from_multipliers",
    "reaction.check_kkt",
    "reaction.oracle_solve_reaction",
    "obstacles.signed_distances",
    "obstacles.outer_normal",
    "diagnostics.audit_arrays",
    "diagnostics.step_normal_rates",
    "diagnostics.rotation_field",
)

# Import sites the package is known to use. Each must still bind the layer
# function when tracing starts; sites found beyond these are wrapped as well.
REQUIRED_SITES = {
    "trajectory.write_frames": ("cli.write_frames",),
    "trajectory.read_jsonl": ("cli.read_jsonl",),
    "stepper.run": ("cli.run_scenario",),
    "stepper.twin_run": ("cli.twin_run",),
    "growth.psi_field": ("stepper.psi_field",),
    "reaction.detect_contacts": ("stepper.detect_contacts",),
    "reaction.assemble_constraints": ("stepper.assemble_constraints",),
    "reaction.linear_rates": ("stepper.linear_rates",),
    "reaction.solve_reaction": ("stepper.solve_reaction",),
    "reaction.density_from_multipliers": ("cli.density_from_multipliers",),
    "reaction.check_kkt": ("stepper.check_kkt",),
    "reaction.oracle_solve_reaction": ("cli.oracle_solve_reaction",),
    "obstacles.signed_distances": (
        "reaction.signed_distances",
        "stepper.signed_distances",
        "diagnostics.signed_distances",
    ),
    "obstacles.outer_normal": ("reaction.outer_normal",),
    "diagnostics.audit_arrays": ("cli.audit_arrays",),
    "diagnostics.step_normal_rates": ("cli.step_normal_rates",),
}

ROOT = "cli.main"
# The benchmark's own reference-kernel runs (see child.py). They belong to no
# layer, and their time is taken out of every span around them.
KERNEL = "bench.kernel"


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts = {
            "solves_sweeps": 0,
            "oracle_candidates": 0,
            "contact_steps": 0,
            "contacts": 0,
            "frames_written": 0,
            "bytes_written": 0,
            "records_read": 0,
            "bytes_read": 0,
            "trajectory_bytes": 0,
        }
        self.step_nodes: list[int] = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if probe is not None:
                probe(self, args, kwargs, out)
            return out

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "stemgrow" or key.startswith("stemgrow."))
        ]
        for name in LAYERS:
            mod_name, attr = name.split(".")
            home = importlib.import_module(f"stemgrow.{mod_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                raise TraceError(f"layer {name}: stemgrow.{mod_name}.{attr} no longer resolves")
            for site in REQUIRED_SITES.get(name, ()):
                site_mod, site_attr = site.split(".")
                bound = getattr(importlib.import_module(f"stemgrow.{site_mod}"), site_attr, None)
                if bound is not original:
                    raise TraceError(
                        f"layer {name}: import site stemgrow.{site} no longer binds it"
                    )
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]))
                fh.write("\n")

    def summary(self) -> dict:
        """Per-layer calls, total and self time, plus the counters.

        The step profile covers the steps of the first traced command only,
        so that one scenario's steps are not mixed with another's.
        """
        child = [0.0] * len(self.spans)
        kernel = [0.0] * len(self.spans)  # KERNEL time inside each span
        root = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
            if name == KERNEL:
                while parent >= 0:
                    kernel[parent] += end - start
                    parent = self.spans[parent][3]
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in (ROOT,) + LAYERS}
        step_ms, step_nodes = [], []
        nodes = iter(self.step_nodes)
        for (name, start, end, _), covered, inner, top in zip(self.spans, child, kernel, root):
            if name == KERNEL:
                continue
            entry = layers[name]
            entry["calls"] += 1
            entry["total_s"] += end - start - inner
            entry["self_s"] += end - start - covered
            if name == "stepper.step":
                n_grown = next(nodes)
                if top == 0:
                    step_ms.append(1e3 * (end - start - inner))
                    step_nodes.append(n_grown)
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "step": _step_profile(step_ms, step_nodes),
        }


def _step_profile(step_ms: list[float], nodes: list[int]) -> dict:
    """Step-time percentiles and the slope of step time against stem length."""
    if len(step_ms) < 2:
        return {"ms_p50": 0.0, "ms_p99": 0.0, "us_per_node": 0.0}
    cuts = statistics.quantiles(step_ms, n=100, method="inclusive")
    slope = statistics.linear_regression(nodes, step_ms).slope if len(set(nodes)) > 1 else 0.0
    return {
        "ms_p50": statistics.median(step_ms),
        "ms_p99": cuts[98],
        "us_per_node": 1e3 * slope,
    }


def _probe_step(tracer, args, kwargs, out):
    state = args[0] if args else kwargs["state"]
    tracer.step_nodes.append(int(state.n_grown))
    contacts = out[1].contacts
    if contacts.size:
        tracer.counts["contact_steps"] += 1
        tracer.counts["contacts"] += contacts.size


def _probe_run(tracer, args, kwargs, out):
    total = 0
    for fr in out.frames:
        for value in vars(fr).values():
            total += getattr(value, "nbytes", 0)
    tracer.counts["trajectory_bytes"] += total


def _probe_solve(tracer, args, kwargs, out):
    tracer.counts["solves_sweeps"] += int(out.sweeps)


def _probe_oracle(tracer, args, kwargs, out):
    tracer.counts["oracle_candidates"] += int(out.n_candidates)


def _probe_write(tracer, args, kwargs, out):
    tracer.counts["frames_written"] += int(out)
    tracer.counts["bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


def _probe_read(tracer, args, kwargs, out):
    tracer.counts["records_read"] += len(out)
    tracer.counts["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


_PROBES = {
    "stepper.step": _probe_step,
    "stepper.run": _probe_run,
    "reaction.solve_reaction": _probe_solve,
    "reaction.oracle_solve_reaction": _probe_oracle,
    "trajectory.write_frames": _probe_write,
    "trajectory.read_jsonl": _probe_read,
}
