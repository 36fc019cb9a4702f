"""Run artifacts: frame records, events, JSON Lines files, and manifests.

Records are written by orjson with a fixed key order, each float as the
shortest text that reads back to the same double, so a rerun of the same
manifest reproduces the files byte for byte. This module is the only one
that knows the frames.jsonl keys: frame_to_dict writes them and
frame_from_dict reads them back, checking every array's shape against n.
A frame, in memory as on disk, holds the tangents k, not what they imply:
TrajectoryFrame is a curves.Stem, the stepper's own state, so its node
count, time t, grid s and positions gamma come from k and the grid spacing by
the same expressions, bit for bit, and gamma is integrated only when it is
first read. A record with a key outside its format, such as an older file's
t, s, gamma or k, is a parse error.
k, the only field whose size grows with n, is not in the record: its n + 1
rows go to a sidecar, frames.k next to frames.jsonl (tangents_path), as raw
little-endian float64 values, three a row. Frame i's rows are the
24 (n_i + 1) bytes that follow frame i - 1's, so the sidecar stores no
offsets, and its bits pass through unchanged on any host. Every other number
is JSON text.
The readers parse a file one record at a time, so a reader holds one frame,
not the file, and frames reach a file only through frame_writer, which
serializes each frame as it is handed over.
orjson writes NaN and +-inf as null. No record holds one: a NaN residual
fails the correction loop and the twin's distances are checked to be
positive. The reader rejects a null inside every array, a non-finite k, a
sidecar that is missing or ends short of a record's rows, and bytes past the
last record's rows.
Lines decode with orjson under strict RFC 8259 rules, which give every
written token its double back; they reject what json.loads would let
through: NaN and Infinity, a number that overflows to infinity, and a lone
surrogate escape in a string.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .curves import Stem
from .errors import ParseError
from .reaction import ContactSet

TOOL_NAME = "stemgrow"


@dataclass
class TrajectoryFrame(Stem):
    """One recorded step: the grown stem, its contacts and the reaction solved there.

    b and mu hold one entry per contact (the effective right-hand side and
    the multipliers). They and the solve's energy, residuals and sweep count
    are None when no reaction was solved, and the KKT residuals also on a
    frame that is not written.
    """

    contacts: ContactSet
    b: np.ndarray | None = None
    mu: np.ndarray | None = None
    energy: float | None = None
    min_phi: float | None = None
    kkt_complementarity: float | None = None
    kkt_stationarity: float | None = None
    realized_residual: float | None = None
    solver_sweeps: int | None = None


@dataclass
class Event:
    t: float
    kind: str
    data: dict


@dataclass
class Trajectory:
    """A run's events, its exit kind and its terminal frame, the one item of frames.

    frames_total counts every frame made, frames_written those the run writes.
    """

    frames: list = field(default_factory=list)
    events: list = field(default_factory=list)
    exit_kind: str = ""
    frames_total: int = 0
    frames_written: int = 0


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
_FRAME_KEYS = ("n", "contacts", *_SCALARS)


def frame_to_dict(fr: TrajectoryFrame) -> dict:
    """fr's record, less its tangents k, which frame_writer puts in the sidecar."""
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
    record = dict(n=fr.n_grown, contacts=contacts)
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


def _numbers(value: list, what: str, shape: tuple, dtype=float) -> np.ndarray:
    """_array(value, what, shape, dtype) for a record's column of m contact entries.

    Shape (m,) takes a number an entry, (m, 3) a list of three. The entries
    are checked in Python, and their array is made with one np.array call: a
    finite float, or for an int array an int that fits int64. A column that
    fails the check, such as one with whole floats in an int column, goes
    through _array, which converts it or raises the ParseError that names
    the fault.
    """
    if dtype is int:
        ok = all(type(x) is int and -(2**63) <= x < 2**63 for x in value)
    elif len(shape) == 1:
        ok = all(type(x) is float and math.isfinite(x) for x in value)
    else:
        ok = all(
            type(row) is list
            and len(row) == 3
            and all(type(x) is float and math.isfinite(x) for x in row)
            for row in value
        )
    if not ok:
        return _array(value, what, shape, dtype)
    out = np.array(value, dtype=dtype)
    # no contacts: [] stands for the empty shape, as in _array
    return out if value else out.reshape(shape)


def frame_from_dict(rec, ds: float, tangents) -> TrajectoryFrame:
    """Inverse of frame_to_dict for a run on a grid of spacing ds.

    tangents(n) gives the frame's k, n + 1 rows of three, once n is checked.
    ParseError names the missing, unknown or malformed key. Every contact's
    keys are checked first, then each column of numbers in the order node,
    normal, phi, b, mu; _numbers reads a column in one pass.
    """
    n, entries, *scalars = _fields(rec, _FRAME_KEYS, "frame")
    n = _scalar(n, "n", int)
    if n < 0:
        raise ParseError(f"n must be >= 0, got {n}")
    k = tangents(n)
    if not isinstance(entries, list):
        raise ParseError("contacts is not a list")
    m = len(entries)
    rows = [_fields(c, _CONTACT_KEYS, f"contacts[{j}]") for j, c in enumerate(entries)]
    node, phi, normal, b, mu = ([row[i] for row in rows] for i in range(5))
    nodes = _numbers(node, "contacts[].node", (m,), dtype=int)
    order = nodes.tolist()
    if m and (order[0] < 0 or order[-1] > n or any(p >= q for p, q in zip(order, order[1:]))):
        raise ParseError(f"contacts[].node must increase within 0..{n}, got {order}")
    frame = TrajectoryFrame(
        ds=ds,
        k=k,
        contacts=ContactSet(
            nodes=nodes,
            normals=_numbers(normal, "contacts[].normal", (m, 3)),
            phi=_numbers(phi, "contacts[].phi", (m,)),
            tip=bool(m and order[-1] == n),
        ),
        # b and mu are null for every contact of a step that solved no reaction
        b=None if all(v is None for v in b) else _numbers(b, "contacts[].b", (m,)),
        mu=None if all(v is None for v in mu) else _numbers(mu, "contacts[].mu", (m,)),
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


def _line(record) -> bytes:
    """record as one line of JSON text, written by orjson, imported only when a file is written."""
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    return orjson.dumps(record, option=option, default=_as_list)


def write_jsonl(path: str, records) -> None:
    """One record per line, each serialized as it is drawn."""
    with open(path, "wb") as fh:
        fh.writelines(map(_line, records))


def tangents_path(path: str) -> str:
    """The sidecar that holds the tangents of the frames at path: frames.jsonl -> frames.k."""
    return os.path.splitext(path)[0] + ".k"


@contextmanager
def frame_writer(path: str):
    """Open the frames file at path and its sidecar; yield write(frame), which appends a frame.

    write serializes the frame it is handed at once, its k to the sidecar and
    its record to path, so a caller that hands over each frame as it is made
    holds none of them.
    """
    with open(tangents_path(path), "wb") as k_fh, open(path, "wb") as fh:

        def write(fr: TrajectoryFrame) -> None:
            k_fh.write(np.ascontiguousarray(fr.k, dtype="<f8"))
            fh.write(_line(frame_to_dict(fr)))

        yield write


def write_frames(path: str, frames) -> int:
    """Write each frame of an iterable through frame_writer as it is drawn; returns how many."""
    count = 0
    with frame_writer(path) as write:
        for count, fr in enumerate(frames, 1):
            write(fr)
    return count


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
    """The frames of a frames.jsonl file and its sidecar on a grid of spacing ds, one at a time.

    Each record's k is the next 24 (n + 1) bytes of the sidecar, read into a
    read-only array. A missing sidecar, one that ends short of a record's
    rows or holds bytes past the last record's, and a non-finite k are each a
    ParseError.
    """
    k_path = tangents_path(path)
    try:
        fh = open(k_path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read {k_path}: {exc}") from None
    with fh:
        left = os.fstat(fh.fileno()).st_size

        def tangents(n: int) -> np.ndarray:
            nonlocal left
            size = 24 * (n + 1)
            # the size is checked first, so a huge n allocates nothing
            k = np.empty((n + 1, 3), "<f8") if size <= left else None
            if k is None or fh.readinto(k) != size:
                raise ParseError(
                    f"{k_path} ends short of k: n = {n} needs {size} bytes, {left} left"
                )
            left -= size
            if not np.isfinite(k).all():
                raise ParseError(f"k in {k_path} holds a non-finite number")
            k.flags.writeable = False
            return k

        yield from parse_records(
            path, _records(path), lambda rec: frame_from_dict(rec, ds, tangents)
        )
        if left:
            raise ParseError(f"{k_path} runs {left} byte(s) past the last frame's k")


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
