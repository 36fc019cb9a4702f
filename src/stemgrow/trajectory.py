"""Run artifacts: frame records, events, JSON Lines files, and manifests.

Records are written by orjson with a fixed key order, each float as the
shortest text that reads back to the same double, so a rerun of the same
manifest reproduces the files byte for byte. This module is the only one
that knows the frames.jsonl keys: frame_to_dict writes them and
frame_from_dict reads them back, checking every array's shape against n.
The readers parse a file one record at a time, so a reader holds one frame,
not the file.
orjson writes NaN and +-inf as null. No record holds one: a NaN residual
fails the correction loop and the twin's distances are checked to be
positive. The reader rejects a null inside every array.
Lines decode with orjson under strict RFC 8259 rules, which give every
written token its double back; they reject what json.loads would let
through: NaN and Infinity, a number that overflows to infinity, and a lone
surrogate escape in a string.
Reading, a well-formed (n, 3) table is flattened and converted in one call
and a number is checked in Python; any other value is converted nested by
np.asarray, and that path names what is wrong with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from .errors import ParseError
from .reaction import ContactSet

TOOL_NAME = "stemgrow"


@dataclass
class TrajectoryFrame:
    """One recorded step: the grown stem, its contacts and the reaction solved there.

    b and mu hold one entry per contact (the effective right-hand side and
    the multipliers); they are None when no reaction was solved.
    """

    t: float
    n_grown: int
    s: np.ndarray
    gamma: np.ndarray
    k: np.ndarray
    contacts: ContactSet
    b: np.ndarray | None
    mu: np.ndarray | None
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
    """A run's kept frames and all its events; frames_total counts every frame made."""

    frames: list
    events: list
    exit_kind: str
    frames_total: int


_CONTACT_KEYS = ("node", "phi", "normal", "b", "mu")
# The keys after "contacts" are named as the frame fields they hold.
_SCALARS = {
    "energy": float,
    "min_phi": float,
    "kkt_complementarity": float,
    "kkt_stationarity": float,
    "realized_residual": float,
    "solver_sweeps": int,
}
_FRAME_KEYS = ("t", "n", "s", "gamma", "k", "contacts", *_SCALARS)


def frame_to_dict(fr: TrajectoryFrame) -> dict:
    c = fr.contacts
    contacts = [
        {
            "node": int(c.nodes[j]),
            "phi": float(c.phi[j]),
            "normal": c.normals[j],
            "b": float(fr.b[j]) if fr.b is not None else None,
            "mu": float(fr.mu[j]) if fr.mu is not None else None,
        }
        for j in range(c.size)
    ]
    record = dict(t=fr.t, n=fr.n_grown, s=fr.s, gamma=fr.gamma, k=fr.k, contacts=contacts)
    record.update((key, getattr(fr, key)) for key in _SCALARS)
    return record


def _fields(record, keys: tuple, what: str) -> list:
    if not isinstance(record, dict):
        raise ParseError(f"{what} is not an object")
    for key in keys:
        if key not in record:
            raise ParseError(f"{what} has no key {key!r}")
    return [record[key] for key in keys]


def _array(value, what: str, shape: tuple, dtype=float) -> np.ndarray:
    """value as a finite array of the given shape; [] stands for any empty shape.

    Only JSON numbers pass: text and true/false are rejected rather than
    converted, and an int array takes whole numbers only. A float table
    given as a list of shape[0] lists of shape[1] numbers is flattened, its
    element types are taken in one set(map(type, ...)) pass, and it is
    converted in one call. Any other value, and a table with a wrong type or
    a non-finite number, is converted nested by np.asarray and walked element
    by element; that path raises the ParseError that names the fault.
    """
    if (
        dtype is float
        and len(shape) == 2
        and type(value) is list
        and len(value) == shape[0]
        and set(map(type, value)) <= {list}
        and set(map(len, value)) <= {shape[1]}
    ):
        flat = list(chain.from_iterable(value))
        if set(map(type, flat)) <= {float, int}:
            try:
                out = np.fromiter(flat, float, len(flat)).reshape(shape)
            except OverflowError:
                pass
            else:
                if np.isfinite(out).all():
                    return out
    try:
        out = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} must be numeric and in range") from None
    if out.size == 0 and 0 in shape:
        out = out.reshape(shape)
    if out.shape != shape:
        raise ParseError(f"{what} has shape {out.shape}, expected {shape}")
    if not np.all(np.isfinite(out)):
        raise ParseError(f"{what} holds a non-finite number or a stray null")
    if len(shape) == 0:
        kinds = {type(value)}
    elif len(shape) == 1:
        kinds = set(map(type, value))
    else:
        kinds = {type(x) for row in value for x in row}
    if not kinds <= {float, int}:
        raise ParseError(f"{what} must hold numbers, not text or true/false")
    if dtype is int and float in kinds and not np.array_equal(np.asarray(value, dtype=float), out):
        raise ParseError(f"{what} must hold whole numbers")
    return out


def _scalar(value, what: str, kind=float):
    """value as a finite float, or as an int (kind=int) that fits int64.

    A JSON number is checked in Python; anything else goes through _array,
    which raises the ParseError that names the fault.
    """
    if type(value) is float or type(value) is int:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if finite and (
            kind is float or (float(value).is_integer() and -(2**63) <= value < 2**63)
        ):
            return kind(value)
    return kind(_array(value, what, (), dtype=kind))


def frame_from_dict(rec) -> TrajectoryFrame:
    """Inverse of frame_to_dict; ParseError names the missing or malformed key."""
    t, n, s, gamma, k, entries, *scalars = _fields(rec, _FRAME_KEYS, "frame")
    n = _scalar(n, "n", int)
    if n < 0:
        raise ParseError(f"n must be >= 0, got {n}")
    if not isinstance(entries, list):
        raise ParseError("contacts is not a list")
    m = len(entries)
    rows = [_fields(c, _CONTACT_KEYS, f"contacts[{j}]") for j, c in enumerate(entries)]
    node, phi, normal, b, mu = ([row[i] for row in rows] for i in range(5))
    nodes = _array(node, "contacts[].node", (m,), dtype=int)
    if m and (nodes[0] < 0 or nodes[-1] > n or np.any(np.diff(nodes) <= 0)):
        raise ParseError(f"contacts[].node must increase within 0..{n}, got {nodes.tolist()}")
    frame = TrajectoryFrame(
        t=_scalar(t, "t"),
        n_grown=n,
        s=_array(s, "s", (n + 1,)),
        gamma=_array(gamma, "gamma", (n + 1, 3)),
        k=_array(k, "k", (n + 1, 3)),
        contacts=ContactSet(
            nodes=nodes,
            normals=_array(normal, "contacts[].normal", (m, 3)),
            phi=_array(phi, "contacts[].phi", (m,)),
            tip=bool(m and nodes[-1] == n),
        ),
        # b and mu are null for every contact of a step that solved no reaction
        b=None if all(v is None for v in b) else _array(b, "contacts[].b", (m,)),
        mu=None if all(v is None for v in mu) else _array(mu, "contacts[].mu", (m,)),
        **{
            key: None if value is None else _scalar(value, key, kind)
            for (key, kind), value in zip(_SCALARS.items(), scalars)
        },
    )
    if frame.solver_sweeps is not None and frame.solver_sweeps < 0:
        raise ParseError(f"solver_sweeps must be >= 0, got {frame.solver_sweeps}")
    return frame


def event_to_dict(ev: Event) -> dict:
    return {"t": ev.t, "kind": ev.kind, "data": ev.data}


def event_from_dict(rec) -> Event:
    """Inverse of event_to_dict; ParseError names the missing or malformed key."""
    t, kind, data = _fields(rec, ("t", "kind", "data"), "event")
    if not isinstance(kind, str):
        raise ParseError("event kind is not a string")
    if not isinstance(data, dict):
        raise ParseError("event data is not an object")
    return Event(t=_scalar(t, "t"), kind=kind, data=data)


def _as_list(obj):
    # orjson hands over the arrays it does not write itself: those that are not C-contiguous
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_jsonl(path: str, records) -> None:
    """One record per line, written by orjson, which is imported only when a file is written."""
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    with open(path, "wb") as fh:
        for rec in records:
            fh.write(orjson.dumps(rec, option=option, default=_as_list))


def write_frames(path: str, frames: list) -> int:
    """Write every frame given; returns how many."""
    write_jsonl(path, (frame_to_dict(fr) for fr in frames))
    return len(frames)


def write_events(path: str, events: list) -> None:
    write_jsonl(path, (event_to_dict(ev) for ev in events))


def _records(path: str):
    """The records of a JSON Lines file, parsed one line at a time; blank lines are skipped.

    Each line decodes with orjson.loads, which rejects NaN, Infinity, a
    number that overflows to infinity and a lone surrogate escape as a bad
    record. An integer beyond 64 bits decodes as the nearest float.
    """
    import orjson

    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = orjson.loads(line)
                except orjson.JSONDecodeError as exc:
                    raise ParseError(f"{path}:{line_no}: bad record: {exc}")
                yield rec
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")


def read_jsonl(path: str) -> list:
    """Every record of a JSON Lines file, parsed at once."""
    return list(_records(path))


def parse_records(path: str, records, parse):
    """parse applied to each record as the caller iterates; errors name path:N for the N-th."""
    for idx, rec in enumerate(records, 1):
        try:
            item = parse(rec)
        except ParseError as exc:
            raise ParseError(f"{path}:{idx}: {exc}") from None
        yield item


def read_frames(path: str):
    """The frames of a frames.jsonl file, read and parsed one at a time."""
    return parse_records(path, _records(path), frame_from_dict)


def write_manifest(
    path: str, config_dict: dict, argv: list[str], outputs: dict, version: str
) -> dict:
    manifest = {
        "tool": TOOL_NAME,
        "version": version,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "command": argv,
        "config": config_dict,
        "outputs": outputs,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
