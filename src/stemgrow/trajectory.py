"""Run artifacts: frame records, events, JSON Lines files, and manifests.

Frames serialize with a fixed key order and 17-significant-digit reals so a
rerun of the same manifest reproduces the files byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError

TOOL_NAME = "stemgrow"


@dataclass
class TrajectoryFrame:
    t: float
    n_grown: int
    s: np.ndarray
    gamma: np.ndarray
    k: np.ndarray
    contact_nodes: np.ndarray
    contact_phi: np.ndarray
    contact_normals: np.ndarray
    contact_b: np.ndarray | None
    contact_mu: np.ndarray | None
    energy: float | None
    min_phi: float | None
    kkt_complementarity: float | None
    kkt_stationarity: float | None
    realized_residual: float | None
    solver_sweeps: int | None


@dataclass
class Event:
    t: float
    kind: str
    data: dict


@dataclass
class Trajectory:
    frames: list
    events: list
    exit_kind: str
    config: object = None

    @property
    def final_frame(self) -> TrajectoryFrame:
        return self.frames[-1]


def _serialize(obj) -> str:
    """JSON text with %.17g floats and dict insertion order preserved."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_serialize(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(key))}:{_serialize(v)}" for key, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def frame_to_dict(fr: TrajectoryFrame) -> dict:
    contacts = []
    for j in range(fr.contact_nodes.size):
        entry = {
            "node": int(fr.contact_nodes[j]),
            "phi": float(fr.contact_phi[j]),
            "normal": fr.contact_normals[j],
        }
        entry["b"] = float(fr.contact_b[j]) if fr.contact_b is not None else None
        entry["mu"] = float(fr.contact_mu[j]) if fr.contact_mu is not None else None
        contacts.append(entry)
    return {
        "t": fr.t,
        "n": fr.n_grown,
        "s": fr.s,
        "gamma": fr.gamma,
        "k": fr.k,
        "contacts": contacts,
        "energy": fr.energy,
        "min_phi": fr.min_phi,
        "kkt_complementarity": fr.kkt_complementarity,
        "kkt_stationarity": fr.kkt_stationarity,
        "realized_residual": fr.realized_residual,
        "solver_sweeps": fr.solver_sweeps,
    }


def event_to_dict(ev: Event) -> dict:
    return {"t": ev.t, "kind": ev.kind, "data": ev.data}


def stride_indices(n_frames: int, stride: int) -> list[int]:
    """Every stride-th frame, always keeping the first and last."""
    idx = list(range(0, n_frames, stride))
    if idx and idx[-1] != n_frames - 1:
        idx.append(n_frames - 1)
    return idx


def write_frames(path: str, frames: list, stride: int = 1) -> int:
    rows = [frames[i] for i in stride_indices(len(frames), stride)]
    with open(path, "w") as fh:
        for fr in rows:
            fh.write(_serialize(frame_to_dict(fr)))
            fh.write("\n")
    return len(rows)


def write_events(path: str, events: list) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(_serialize(event_to_dict(ev)))
            fh.write("\n")


def read_jsonl(path: str) -> list[dict]:
    out = []
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{path}:{line_no}: bad record: {exc}")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return out


def write_manifest(
    path: str, config_dict: dict, argv: list[str], outputs: dict, version: str
) -> dict:
    manifest = {
        "tool": TOOL_NAME,
        "version": version,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "command": argv if argv is not None else sys.argv,
        "config": config_dict,
        "outputs": outputs,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
