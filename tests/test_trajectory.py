"""Tests of the run-artifact layer: the JSON Lines writer, the tangents sidecar
and the lazy readers."""

import copy
import json
import math
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    STEMGROW,
    bare_frame,
    k_bytes,
    sidecar,
    stemgrow_env,
    upright,
    written_lines,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.config import load_config
from stemgrow.errors import ParseError
from stemgrow import trajectory
from stemgrow.reaction import ContactSet
from stemgrow.stepper import run
from stemgrow.trajectory import (
    Event,
    _records,
    event_from_dict,
    event_to_dict,
    frame_from_dict,
    frame_to_dict,
    read_frames,
    write_frames,
    write_jsonl,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the grid spacing of the hand-made frames below
DS = 0.01
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


float_arrays = st.integers(0, 40).flatmap(
    lambda n: st.sampled_from([(n,), (n, 3)]).flatmap(
        lambda shape: arrays(
            np.float64, shape, elements=st.floats(width=64) | st.sampled_from(EDGE_FLOATS)
        )
    )
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(float_arrays)
@example(np.zeros(0))
@example(np.zeros((0, 3)))
@example(np.array(EDGE_FLOATS))
@example(np.array(EDGE_FLOATS[:6]).reshape(2, 3))
def test_float_arrays_round_trip_exactly(a):
    # finite floats come back bit for bit; orjson writes NaN and +-inf as null
    (line,) = written_lines([a])
    got = np.array(json.loads(line), dtype=float).reshape(a.shape)
    finite = np.isfinite(a)
    assert np.array_equal(got[finite].view(np.int64), a[finite].view(np.int64))
    assert np.isnan(got[~finite]).all()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(float_arrays)
@example(np.array(EDGE_FLOATS))
@example(np.array(EDGE_FLOATS[:6]).reshape(2, 3))
def test_non_contiguous_view_writes_its_copys_bytes(a):
    # orjson writes only C-contiguous arrays itself; the writer lists the others
    view = a[::-1] if a.ndim == 1 else a.T
    assert written_lines([view]) == written_lines([np.ascontiguousarray(view)])


def test_integer_array_keeps_the_integer_path():
    assert written_lines([np.array([2**60])]) == [b"[1152921504606846976]"]


def test_read_frames_parses_lazily(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_bytes(bare_frame(n=25) + b"{garbage\n")
    sidecar(path).write_bytes(k_bytes(upright(25)))
    frames = iter(read_frames(str(path), DS))
    # t is not stored: the frame derives it as DS * n
    assert next(frames).t == DS * 25
    with pytest.raises(ParseError, match="frames.jsonl:2: bad record"):
        next(frames)


def test_decoder_keeps_the_writers_bits(tmp_path):
    # every value must come back from write_jsonl and the reader with its
    # bits, across the whole range of bit patterns, -0.0 included
    rng = np.random.default_rng(20)
    patterns = rng.integers(-(2**63), 2**63, size=150_000, dtype=np.int64).view(np.float64)
    subnormals = rng.integers(1, 2**52, size=20_000, dtype=np.int64).view(np.float64)
    edges = np.array([sys.float_info.max, -sys.float_info.max, 5e-324, -0.0])
    normals = rng.standard_normal(40_000)
    values = np.concatenate(
        [patterns[np.isfinite(patterns)], subnormals, -subnormals, edges, normals]
    )
    assert values.size >= 200_000
    path = tmp_path / "frames.jsonl"
    write_jsonl(str(path), [values])
    (decoded,) = _records(str(path))
    assert np.array_equal(np.array(decoded).view(np.int64), values.view(np.int64))
    text = path.read_text()
    assert np.array_equal(np.array(json.loads(text)).view(np.int64), values.view(np.int64))


def test_contact_frames_round_trip_through_the_reader(tmp_path):
    # the reader, not json.loads, decodes here: each line and each row of the
    # sidecar must come back
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [*STEMGROW, "run", str(SCENARIOS / "sphere_oblique.json"), "--out", str(outdir)],
        capture_output=True,
        text=True,
        env=stemgrow_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    path = outdir / "frames.jsonl"
    dt = json.loads((outdir / "manifest.json").read_text())["config"]["numerics"]["dt"]
    frames = list(read_frames(str(path), dt))
    assert any(fr.contacts.size for fr in frames)
    copy = tmp_path / "copy.jsonl"
    assert write_frames(str(copy), frames) == len(frames)
    assert copy.read_bytes() == path.read_bytes()
    assert sidecar(copy).read_bytes() == sidecar(path).read_bytes()


def frame_values(frame):
    """Every field of a frame and what it derives, its contacts' fields included;
    floats as their bits."""
    out = {name: getattr(frame, name) for name in ("s", "t", "gamma")}
    for field in fields(frame):
        value = getattr(frame, field.name)
        if field.name == "contacts":
            out.update((f"contacts.{f.name}", getattr(value, f.name)) for f in fields(value))
        else:
            out[field.name] = value
    return {
        key: np.asarray(value).view(np.uint64) if np.asarray(value).dtype == float else value
        for key, value in out.items()
    }


@pytest.mark.parametrize(
    "scenario, stride",
    [("straight", 1), ("sphere_oblique", 1), ("twin_tilt", 1), ("gravitropic_ceiling", 20)],
)
def test_read_frames_gives_back_the_frames_run_made(tmp_path, scenario, stride):
    # a record holds no s, t or gamma: the read frame derives them from n, k
    # and dt as the made frame does, whose derived values test_stepper pins to
    # the state's
    config = replace(load_config(str(SCENARIOS / f"{scenario}.json")), stride=stride)
    made = []
    run(config, made.extend)
    path = str(tmp_path / "frames.jsonl")
    write_frames(path, made)
    back = list(read_frames(path, config.dt))
    assert len(back) == len(made)
    assert any(fr.contacts.size for fr in made) == (scenario != "straight")
    for fa, fb in zip(made, back):
        want, got = frame_values(fa), frame_values(fb)
        assert want.keys() == got.keys()
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[key], value), key
            else:
                assert got[key] == value and type(got[key]) is type(value), key


def test_event_round_trips():
    ev = Event(t=0.5, kind="ContactPatchStart", data={"patch": 0, "nodes": [3, 4], "tip": False})
    (line,) = written_lines([event_to_dict(ev)])
    assert event_from_dict(json.loads(line)) == ev


@pytest.mark.parametrize(
    "record, message",
    [
        ([1], "event is not an object"),
        ({"t": 0}, "event has no key 'kind'"),
        ({"t": "late", "kind": "Breakdown", "data": {}}, "t must be numeric"),
        ({"t": 0, "kind": 7, "data": {}}, "event kind is not a string"),
        ({"t": 0, "kind": "Breakdown", "data": [1]}, "event data is not an object"),
        ({"t": 0, "kind": "Breakdown", "data": {}, "note": 1}, r"event has unknown keys \['note'\]"),
    ],
)
def test_malformed_event_is_a_parse_error(record, message):
    with pytest.raises(ParseError, match=message):
        event_from_dict(record)


TWO_ROWS = upright(1)


def rows_of(n):
    """tangents for frame_from_dict: upright(n) as an array."""
    return np.array(upright(n))


def two_node_frame():
    """A frame record at n = 1 with one tip contact, as json.loads gives it;
    its tangents are TWO_ROWS."""
    return {
        "n": 1,
        "contacts": [{"node": 1, "phi": 0.0, "normal": [0.0, 0.0, -1.0], "b": 0.5, "mu": 2.0}],
        "energy": 1.0,
        "min_phi": 0.0,
        "kkt_complementarity": 0.0,
        "kkt_stationarity": 0.0,
        "realized_residual": 1e-9,
        "solver_sweeps": 1,
    }


def read_one(tmp_path, monkeypatch, record, k):
    """read_frames over one record, as given rather than as its text, with k as
    the sidecar's bytes (no sidecar if None)."""
    path = tmp_path / "frames.jsonl"
    if k is not None:
        sidecar(path).write_bytes(k)
    monkeypatch.setattr(trajectory, "_records", lambda _: iter([record]))
    return list(read_frames(str(path), DS))


K2 = k_bytes(TWO_ROWS)
# a record that still holds k, in any form, is of an older format
OLD_K = r"frame has unknown keys \['k'\]"


@pytest.mark.parametrize(
    "key, text, k, message",
    [
        # the sidecar holds exactly n + 1 rows of three float64s a frame
        (None, None, k_bytes([0, 0, 1, 0, 0]), "ends short of k: n = 1 needs 48 bytes, 40 left"),
        ("k", '[[0, 0, 1], "abc"]', K2, OLD_K),
        ("k", '[[0, 0, 1], {"x": 0, "y": 0, "z": 1}]', K2, OLD_K),
        ("k", "true", K2, OLD_K),
        ("k", '"AAAAAAAAAAAAAAAA*AAAAAAAAAAAAAAA"', K2, OLD_K),
        ("k", "null", K2, OLD_K),
        (None, None, k_bytes([0, 0, 1, 0, 0, math.inf]), "holds a non-finite number"),
        ("k", "[[0, 0, 1], [0, 0, 1]]", K2, OLD_K),
        (None, None, K2[:-1], "ends short of k: n = 1 needs 48 bytes, 47 left"),
        (None, None, K2[:-2], "ends short of k: n = 1 needs 48 bytes, 46 left"),
        (None, None, K2 + b"\0", r"runs 1 byte\(s\) past the last frame's k"),
        ("k", '"AAAAAAAAAAAAAAAAAAAAAAAAAAAA\u00e9AAA"', K2, OLD_K),
        (None, None, K2 * 2, r"runs 48 byte\(s\) past the last frame's k"),
        (None, None, K2[:24], "ends short of k: n = 1 needs 48 bytes, 24 left"),
        (None, None, k_bytes([0, 0, 1, 0, 0, 1, 0]), r"runs 8 byte\(s\) past the last frame's k"),
        (None, None, k_bytes([0, 0, 1, 0, 0, math.nan]), "holds a non-finite number"),
        (None, None, k_bytes([0, 0, 1, 0, 0, -math.inf]), "holds a non-finite number"),
        (None, None, None, r"cannot read .*frames\.k"),
        # time is the end of the rebuilt grid, not a key of a frame
        ("t", "1e400", K2, r"frame has unknown keys \['t'\]"),
        ("n", "1" + "0" * 400, K2, "n must be numeric and in range"),
        ("t", "1" + "0" * 400, K2, r"frame has unknown keys \['t'\]"),
        ("t", '"late"', K2, r"frame has unknown keys \['t'\]"),
        ("k", "5", K2, OLD_K),
        ("k", "[0, 0, 1, 0, 0, 1]", K2, OLD_K),
        # a huge n must not size an array: the sidecar's length bounds it
        ("n", str(2**62), K2, f"n = {2**62} needs {24 * (2**62 + 1)} bytes, 48 left"),
        ("solver_sweeps", "-5", K2, "solver_sweeps must be >= 0, got -5"),
        # what the frame reader decodes -9223372036854775809 to: the float -2^63
        ("solver_sweeps", "-9.223372036854776e18", K2, "solver_sweeps must be >= 0"),
        # the arclength grid and the positions of the older format are not
        # keys of a frame, whatever they hold
        ("gamma", "[[0, true, 0], [0, 0, 1]]", K2, r"frame has unknown keys \['gamma'\]"),
        ("gamma", '[[0, "0", 0], [0, 0, 1]]', K2, r"frame has unknown keys \['gamma'\]"),
        ("gamma", "[[0, 0, 0], [0, 0, 1e400]]", K2, r"frame has unknown keys \['gamma'\]"),
        ("gamma", "5", K2, r"frame has unknown keys \['gamma'\]"),
        ("s", "[[0.0], [0.01]]", K2, r"frame has unknown keys \['s'\]"),
    ],
    ids=[
        "ragged_row",
        "row_is_text",
        "row_is_object",
        "true_in_k",
        "text_in_k",
        "null_in_k",
        "overflow_in_k",
        "k_is_a_table",
        "k_bad_padding",
        "k_padded_short",
        "k_padding_past_the_end",
        "k_not_ascii",
        "k_a_row_too_many",
        "k_a_row_too_few",
        "k_eight_bytes_over",
        "nan_bits_in_k",
        "minus_infinity_bits_in_k",
        "no_sidecar",
        "overflow_t",
        "huge_int_n",
        "huge_int_t",
        "t_is_text",
        "k_is_scalar",
        "k_is_flat",
        "n_past_the_sidecar",
        "negative_sweeps",
        "sweeps_below_int64",
        "true_in_gamma",
        "text_in_gamma",
        "overflow_in_gamma",
        "gamma_is_scalar",
        "s_is_a_column",
    ],
)
def test_malformed_frame_is_a_parse_error(tmp_path, monkeypatch, key, text, k, message):
    record = two_node_frame()
    if key is not None:
        record[key] = json.loads(text)
    with pytest.raises(ParseError, match=message):
        read_one(tmp_path, monkeypatch, record, k)


def test_read_tangents_are_read_only(tmp_path, monkeypatch):
    # as np.frombuffer left them: a frame read back cannot be edited in place
    (frame,) = read_one(tmp_path, monkeypatch, two_node_frame(), K2)
    assert frame.k.dtype == np.dtype("<f8") and not frame.k.flags.writeable
    assert np.array_equal(frame.k, TWO_ROWS)


def test_two_node_frame_round_trips():
    lines = written_lines([two_node_frame()])
    frame = frame_from_dict(json.loads(lines[0]), DS, rows_of)
    assert written_lines([frame_to_dict(frame)]) == lines


def strided(k):
    """k as a view that is not C-contiguous."""
    wide = np.zeros((k.shape[0], 2 * k.shape[1]))
    wide[:, ::2] = k
    return wide[:, ::2]


@pytest.mark.parametrize(
    "layout", [lambda k: k.astype(">f8"), strided], ids=["big_endian", "non_contiguous"]
)
def test_k_is_written_as_its_values_whatever_its_layout(tmp_path, layout):
    # the writer writes k's values, not its memory: byte order and strides
    # never reach the sidecar, and the reader gives back every bit
    frame = frame_from_dict(two_node_frame(), DS, rows_of)
    k = np.array(EDGE_FLOATS[:6]).reshape(2, 3)
    other = layout(k)
    assert other.dtype.str == ">f8" or not other.flags.c_contiguous
    native, laid_out = tmp_path / "native.jsonl", tmp_path / "laid_out.jsonl"
    write_frames(str(native), [replace(frame, k=k)])
    write_frames(str(laid_out), [replace(frame, k=other)])
    assert sidecar(native).read_bytes() == sidecar(laid_out).read_bytes() == k_bytes(k)
    assert laid_out.read_bytes() == native.read_bytes()
    (back,) = read_frames(str(laid_out), DS)
    assert np.array_equal(back.k.view(np.uint64), k.view(np.uint64))


def value_paths(node, prefix=()):
    """Every key or index path below a record node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


ODD_ELEMENTS = st.sampled_from([True, False, "0", "x", None, math.nan, math.inf, -math.inf])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_mutated_frames_are_accepted_or_rejected(data):
    record = two_node_frame()
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(value_paths(record))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        value = parent[key]
        how = data.draw(st.sampled_from(["swap", "drop", "append", "nest", "unnest", "delete"]))
        if how == "swap":
            parent[key] = data.draw(ODD_ELEMENTS)
        elif how == "drop" and isinstance(value, list) and value:
            del value[-1]
        elif how == "append" and isinstance(value, list):
            value.append(copy.deepcopy(value[-1]) if value else 0.0)
        elif how == "nest":
            parent[key] = [value]
        elif how == "unnest" and isinstance(value, list) and value:
            parent[key] = value[0]
        elif how == "delete":
            del parent[key]
    try:
        frame = frame_from_dict(record, DS, rows_of)
    except ParseError:
        return
    lines = written_lines([frame_to_dict(frame)])
    back = frame_from_dict(json.loads(lines[0]), DS, rows_of)
    assert written_lines([frame_to_dict(back)]) == lines


def reference_frame_from_dict(rec, ds, tangents):
    """The frame decoder that converts each contact column with _array, kept
    here as the reference for the one-pass decoder."""
    n, entries, *scalars = trajectory._fields(rec, trajectory._FRAME_KEYS, "frame")
    n = trajectory._scalar(n, "n", int)
    if n < 0:
        raise ParseError(f"n must be >= 0, got {n}")
    k = tangents(n)
    if not isinstance(entries, list):
        raise ParseError("contacts is not a list")
    m = len(entries)
    rows = [
        trajectory._fields(c, trajectory._CONTACT_KEYS, f"contacts[{j}]")
        for j, c in enumerate(entries)
    ]
    node, phi, normal, b, mu = ([row[i] for row in rows] for i in range(5))
    array = trajectory._array
    nodes = array(node, "contacts[].node", (m,), dtype=int)
    if m and (nodes[0] < 0 or nodes[-1] > n or np.any(np.diff(nodes) <= 0)):
        raise ParseError(f"contacts[].node must increase within 0..{n}, got {nodes.tolist()}")
    frame = trajectory.TrajectoryFrame(
        ds=ds,
        k=k,
        contacts=ContactSet(
            nodes=nodes,
            normals=array(normal, "contacts[].normal", (m, 3)),
            phi=array(phi, "contacts[].phi", (m,)),
            tip=bool(m and nodes[-1] == n),
        ),
        b=None if all(v is None for v in b) else array(b, "contacts[].b", (m,)),
        mu=None if all(v is None for v in mu) else array(mu, "contacts[].mu", (m,)),
        **{
            key: None if value is None else trajectory._scalar(value, key, kind)
            for (key, kind), value in zip(trajectory._SCALARS.items(), scalars)
        },
    )
    if frame.solver_sweeps is not None and frame.solver_sweeps < 0:
        raise ParseError(f"solver_sweeps must be >= 0, got {frame.solver_sweeps}")
    return frame


def three_contact_frame():
    """A frame record at n = 3 with contacts at every node above the base."""
    return {
        "n": 3,
        "contacts": [
            {"node": 1, "phi": 5e-3, "normal": [0.6, 0.0, -0.8], "b": -0.25, "mu": 0.0},
            {"node": 2, "phi": -0.0, "normal": [0.0, -1.0, 0.0], "b": 1e-300, "mu": 5e-324},
            {"node": 3, "phi": 1e-3, "normal": [0.0, 0.0, -1.0], "b": 0.5, "mu": 2.0},
        ],
        "energy": 1.0,
        "min_phi": -0.0,
        "kkt_complementarity": 0.0,
        "kkt_stationarity": 0.0,
        "realized_residual": 1e-9,
        "solver_sweeps": 1,
    }


def no_contact_frame():
    return {**two_node_frame(), "contacts": []}


# what a value may be swapped for: ODD_ELEMENTS, numbers of either type or out
# of range for int64 or float64, and containers of the wrong kind
DECODER_ELEMENTS = ODD_ELEMENTS | st.sampled_from(
    [0, 1, 3, -1, 1.0, 2.0, 1.5, -0.0, 5e-324, 1e308, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
     2**64, 10**400, 9.3e18, [], [0.0, 0.0, 1.0], [1, 0, 0], {}]
)


def few_rows_of(n):
    """rows_of(n) for up to 8 cells; a larger n is past the end of k, as a
    sidecar of that many rows reports it."""
    if n > 8:
        raise ParseError(f"ends short of k: n = {n}")
    return rows_of(n)


def decoded(decode, record):
    """decode's frame of a copy of record, or the ParseError it raises."""
    try:
        return decode(copy.deepcopy(record), DS, few_rows_of)
    except ParseError as exc:
        return exc


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.data())
def test_one_pass_decoder_matches_the_column_decoder(data):
    record = data.draw(st.sampled_from([two_node_frame, three_contact_frame, no_contact_frame]))()
    for _ in range(data.draw(st.integers(0, 3))):
        paths = list(value_paths(record))
        # half the mutations land inside a contact, on the columns the decoders differ in
        inside = [path for path in paths if path[0] == "contacts" and len(path) > 2]
        if inside and data.draw(st.booleans()):
            paths = inside
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        value = parent[key]
        how = data.draw(
            st.sampled_from(["swap", "swap", "swap", "drop", "append", "nest", "unnest", "delete"])
        )
        if how == "swap":
            parent[key] = copy.deepcopy(data.draw(DECODER_ELEMENTS))
        elif how == "drop" and isinstance(value, list) and value:
            del value[-1]
        elif how == "append" and isinstance(value, list):
            value.append(copy.deepcopy(value[-1] if value else data.draw(DECODER_ELEMENTS)))
        elif how == "nest":
            parent[key] = [value]
        elif how == "unnest" and isinstance(value, list) and value:
            parent[key] = value[0]
        elif how == "delete":
            del parent[key]
    want = decoded(reference_frame_from_dict, record)
    got = decoded(frame_from_dict, record)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError) and str(got) == str(want)
        return
    assert not isinstance(got, ParseError), got
    pairs = [(got.k, want.k)]
    for name in ("nodes", "normals", "phi"):
        pairs.append((getattr(got.contacts, name), getattr(want.contacts, name)))
    for name in ("b", "mu"):
        if getattr(want, name) is None:
            assert getattr(got, name) is None
        else:
            pairs.append((getattr(got, name), getattr(want, name)))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.flags.f_contiguous == b.flags.f_contiguous
        assert a.flags.writeable == b.flags.writeable
    assert got.contacts.tip is want.contacts.tip
    for key in trajectory._SCALARS:
        value = getattr(want, key)
        assert getattr(got, key) == value and type(getattr(got, key)) is type(value), key
