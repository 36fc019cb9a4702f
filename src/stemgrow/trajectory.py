"""Run artifacts: frame records, events, JSON Lines files, and manifests.

Records are written by orjson with a fixed key order, each float as the
shortest text that reads back to the same double, so a rerun of the same
manifest reproduces the files byte for byte. This module is the only one
that knows the frames.jsonl keys: frame_to_dict writes them and
frame_from_dict reads them back, checking every array's shape against n.
A frame, in memory as in its record, holds the node count n and the
tangents k, not what they imply: TrajectoryFrame derives the grid s, the time
t = s[-1] and the positions gamma from n, k and the grid spacing as the
stepper builds them, bit for bit, and integrates gamma only when it is first
read. A record with a key outside its format, such as an older file's t, s or
gamma, is a parse error.
k, the only field whose size grows with n, is one base64 string of the
little-endian float64 bytes of its rows (three values each, in order), so
its bits pass through the file unchanged on any host and a reader decodes it
in one call. Every other number is JSON text.
The readers parse a file one record at a time, so a reader holds one frame,
not the file.
orjson writes NaN and +-inf as null. No record holds one: a NaN residual
fails the correction loop and the twin's distances are checked to be
positive. The reader rejects a null inside every array and a non-finite k.
Lines decode with orjson under strict RFC 8259 rules, which give every
written token its double back; they reject what json.loads would let
through: NaN and Infinity, a number that overflows to infinity, and a lone
surrogate escape in a string.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .curves import integrate_tangents
from .errors import ParseError
from .reaction import ContactSet

TOOL_NAME = "stemgrow"


@dataclass
class TrajectoryFrame:
    """One recorded step: the grown stem, its contacts and the reaction solved there.

    b and mu hold one entry per contact (the effective right-hand side and
    the multipliers); they are None when no reaction was solved. s, t and
    gamma are derived from n_grown, ds and k as init_state and step derive
    them; s and gamma are computed on first use and then kept.
    """

    n_grown: int
    ds: float
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

    @property
    def t(self) -> float:
        return self.ds * self.n_grown

    @cached_property
    def s(self) -> np.ndarray:
        return self.ds * np.arange(self.n_grown + 1, dtype=float)

    @cached_property
    def gamma(self) -> np.ndarray:
        return integrate_tangents(self.k, self.ds)


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
_FRAME_KEYS = ("n", "k", "contacts", *_SCALARS)


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
    k = base64.b64encode(np.ascontiguousarray(fr.k, dtype="<f8").tobytes()).decode("ascii")
    record = dict(n=fr.n_grown, k=k, contacts=contacts)
    record.update((key, getattr(fr, key)) for key in _SCALARS)
    return record


def _fields(record, keys: tuple, what: str) -> list:
    if not isinstance(record, dict):
        raise ParseError(f"{what} is not an object")
    for key in keys:
        if key not in record:
            raise ParseError(f"{what} has no key {key!r}")
    if len(record) > len(keys):
        raise ParseError(f"{what} has unknown keys {[key for key in record if key not in keys]}")
    return [record[key] for key in keys]


def _array(value, what: str, shape: tuple, dtype=float) -> np.ndarray:
    """value as a finite array of the given shape; [] stands for any empty shape.

    Only JSON numbers pass: text and true/false are rejected rather than
    converted, and an int array takes whole numbers only.
    """
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


def _tangents(value, n: int) -> np.ndarray:
    """k decoded: base64 of the little-endian float64 bytes of n + 1 rows of three.

    24 bytes a row is a whole number of base64 groups, so the one encoding of
    k has 32 characters a row and no padding; any other is rejected.
    """
    if type(value) is not str:
        raise ParseError(f"k must be a base64 string, not {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ParseError(f"k is not base64: {exc}") from None
    if len(raw) != 24 * (n + 1) or len(value) != 32 * (n + 1):
        raise ParseError(
            f"k holds {len(raw)} bytes in {len(value)} characters, "
            f"expected {24 * (n + 1)} bytes in {32 * (n + 1)} for n = {n}"
        )
    k = np.frombuffer(raw, "<f8").reshape(n + 1, 3)
    if not np.isfinite(k).all():
        raise ParseError("k holds a non-finite number")
    return k


def frame_from_dict(rec, ds: float) -> TrajectoryFrame:
    """Inverse of frame_to_dict for a run on a grid of spacing ds.

    ParseError names the missing, unknown or malformed key.
    """
    n, k, entries, *scalars = _fields(rec, _FRAME_KEYS, "frame")
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
        n_grown=n,
        ds=ds,
        k=_tangents(k, n),
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


def read_frames(path: str, ds: float):
    """The frames of a frames.jsonl file on a grid of spacing ds, read and parsed one at a time."""
    return parse_records(path, _records(path), lambda rec: frame_from_dict(rec, ds))


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
