"""Tests of the run-artifact layer: the JSON Lines writer and the lazy readers."""

import copy
import json
import math
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import STEMGROW, bare_frame, k_text, stemgrow_env, written_lines
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.config import load_config
from stemgrow.errors import ParseError
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
    path.write_bytes(bare_frame(n=25, k=k_text([[0.0, 0.0, 1.0]] * 26)) + b"{garbage\n")
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
    # the reader, not json.loads, decodes here: each line must come back
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
    assert written_lines(frame_to_dict(fr) for fr in frames) == path.read_bytes().splitlines()


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
    made = run(config).frames
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
    ev = Event(t=0.5, kind="ContactOnset", data={"nodes": [3, 4]})
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


TWO_ROWS = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


def two_node_frame():
    """A frame record at n = 1 with one tip contact, as json.loads gives it."""
    return {
        "n": 1,
        "k": k_text(TWO_ROWS),
        "contacts": [{"node": 1, "phi": 0.0, "normal": [0.0, 0.0, -1.0], "b": 0.5, "mu": 2.0}],
        "energy": 1.0,
        "min_phi": 0.0,
        "kkt_complementarity": 0.0,
        "kkt_stationarity": 0.0,
        "realized_residual": 1e-9,
        "solver_sweeps": 1,
    }


def k_with(rows=TWO_ROWS, edit=lambda text: text):
    """A k value as JSON text: the values encoded, then edited as a string."""
    return json.dumps(edit(k_text(rows)))


@pytest.mark.parametrize(
    "key, text, message",
    [
        # k is one base64 string of exactly n + 1 rows of three float64s
        ("k", k_with([0, 0, 1, 0, 0]), "k holds 40 bytes in 56 characters, expected 48"),
        ("k", '[[0, 0, 1], "abc"]', "k must be a base64 string, not list"),
        ("k", '[[0, 0, 1], {"x": 0, "y": 0, "z": 1}]', "k must be a base64 string, not list"),
        ("k", "true", "k must be a base64 string, not bool"),
        ("k", k_with(edit=lambda t: t[:10] + "*" + t[11:]), "k is not base64"),
        ("k", "null", "k must be a base64 string, not NoneType"),
        ("k", k_with([0, 0, 1, 0, 0, math.inf]), "k holds a non-finite number"),
        ("k", "[[0, 0, 1], [0, 0, 1]]", "k must be a base64 string, not list"),
        ("k", k_with(edit=lambda t: t[:-1]), "k is not base64"),
        ("k", k_with(edit=lambda t: t[:-4] + "AA=="), "k holds 46 bytes in 64 characters"),
        ("k", k_with(edit=lambda t: t + "="), "k holds 48 bytes in 65 characters"),
        ("k", k_with(edit=lambda t: t[:10] + "\u00e9" + t[11:]), "k is not base64"),
        ("k", k_with(TWO_ROWS * 2), "k holds 96 bytes in 128 characters, expected 48"),
        ("k", k_with(TWO_ROWS[:1]), "k holds 24 bytes in 32 characters, expected 48"),
        ("k", k_with([0, 0, 1, 0, 0, 1, 0]), "k holds 56 bytes in 76 characters, expected 48"),
        ("k", k_with([0, 0, 1, 0, 0, math.nan]), "k holds a non-finite number"),
        ("k", k_with([0, 0, 1, 0, 0, -math.inf]), "k holds a non-finite number"),
        # time is the end of the rebuilt grid, not a key of a frame
        ("t", "1e400", r"frame has unknown keys \['t'\]"),
        ("n", "1" + "0" * 400, "n must be numeric and in range"),
        ("t", "1" + "0" * 400, r"frame has unknown keys \['t'\]"),
        ("t", '"late"', r"frame has unknown keys \['t'\]"),
        ("k", "5", "k must be a base64 string, not int"),
        ("k", "[0, 0, 1, 0, 0, 1]", "k must be a base64 string, not list"),
        ("solver_sweeps", "-5", "solver_sweeps must be >= 0, got -5"),
        # what the frame reader decodes -9223372036854775809 to: the float -2^63
        ("solver_sweeps", "-9.223372036854776e18", "solver_sweeps must be >= 0"),
        # the arclength grid and the positions of the older format are not
        # keys of a frame, whatever they hold
        ("gamma", "[[0, true, 0], [0, 0, 1]]", r"frame has unknown keys \['gamma'\]"),
        ("gamma", '[[0, "0", 0], [0, 0, 1]]', r"frame has unknown keys \['gamma'\]"),
        ("gamma", "[[0, 0, 0], [0, 0, 1e400]]", r"frame has unknown keys \['gamma'\]"),
        ("gamma", "5", r"frame has unknown keys \['gamma'\]"),
        ("s", "[[0.0], [0.01]]", r"frame has unknown keys \['s'\]"),
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
        "overflow_t",
        "huge_int_n",
        "huge_int_t",
        "t_is_text",
        "k_is_scalar",
        "k_is_flat",
        "negative_sweeps",
        "sweeps_below_int64",
        "true_in_gamma",
        "text_in_gamma",
        "overflow_in_gamma",
        "gamma_is_scalar",
        "s_is_a_column",
    ],
)
def test_malformed_frame_is_a_parse_error(key, text, message):
    record = two_node_frame()
    record[key] = json.loads(text)
    with pytest.raises(ParseError, match=message):
        frame_from_dict(record, DS)


def test_two_node_frame_round_trips():
    lines = written_lines([two_node_frame()])
    assert written_lines([frame_to_dict(frame_from_dict(json.loads(lines[0]), DS))]) == lines


def strided(k):
    """k as a view that is not C-contiguous."""
    wide = np.zeros((k.shape[0], 2 * k.shape[1]))
    wide[:, ::2] = k
    return wide[:, ::2]


@pytest.mark.parametrize(
    "layout", [lambda k: k.astype(">f8"), strided], ids=["big_endian", "non_contiguous"]
)
def test_k_is_written_as_its_values_whatever_its_layout(layout):
    # the writer encodes k's values, not its memory: byte order and strides
    # never reach the file, and the reader gives back every bit
    frame = frame_from_dict(two_node_frame(), DS)
    k = np.array(EDGE_FLOATS[:6]).reshape(2, 3)
    other = layout(k)
    assert other.dtype.str == ">f8" or not other.flags.c_contiguous
    (native,) = written_lines([frame_to_dict(replace(frame, k=k))])
    assert written_lines([frame_to_dict(replace(frame, k=other))]) == [native]
    back = frame_from_dict(json.loads(native), DS).k
    assert np.array_equal(back.view(np.uint64), k.view(np.uint64))


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
        frame = frame_from_dict(record, DS)
    except ParseError:
        return
    lines = written_lines([frame_to_dict(frame)])
    assert written_lines([frame_to_dict(frame_from_dict(json.loads(lines[0]), DS))]) == lines
