"""Tests of the run-artifact layer: the float-array writer and the lazy readers."""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import STEMGROW, bare_frame, stemgrow_env
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.errors import ParseError
from stemgrow.trajectory import (
    Event,
    _float_array_text,
    _records,
    _serialize,
    event_from_dict,
    event_to_dict,
    frame_from_dict,
    frame_to_dict,
    read_frames,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


def recursive_text(a: np.ndarray) -> str:
    """The per-element text the writer gave before it batched float arrays."""
    if a.ndim == 1:
        return "[" + ",".join(f"{x:.17g}" for x in a.tolist()) + "]"
    return "[" + ",".join(recursive_text(row) for row in a) + "]"


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
def test_float_array_text_matches_per_element_text(a):
    assert _serialize(a) == recursive_text(a)


def test_integer_array_keeps_the_integer_path():
    assert _serialize(np.array([2**60])) == "[1152921504606846976]"


def test_read_frames_parses_lazily(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_bytes(bare_frame(t=0.25) + b"{garbage\n")
    frames = iter(read_frames(str(path)))
    assert next(frames).t == 0.25
    with pytest.raises(ParseError, match="frames.jsonl:2: bad record"):
        next(frames)


def test_decoder_keeps_the_writers_bits(tmp_path):
    # every token must decode to the double float() reads from it, the
    # correctly rounded one, across the whole range of bit patterns
    rng = np.random.default_rng(20)
    patterns = rng.integers(-(2**63), 2**63, size=150_000, dtype=np.int64).view(np.float64)
    subnormals = rng.integers(1, 2**52, size=20_000, dtype=np.int64).view(np.float64)
    edges = np.array([sys.float_info.max, -sys.float_info.max, 5e-324, -0.0])
    normals = rng.standard_normal(40_000)
    values = np.concatenate(
        [patterns[np.isfinite(patterns)], subnormals, -subnormals, edges, normals]
    )
    assert values.size >= 200_000
    text = _float_array_text(values)
    path = tmp_path / "frames.jsonl"
    path.write_text(text + "\n")
    (decoded,) = _records(str(path))
    tokens = text[1:-1].split(",")
    expected = np.array([float(token) for token in tokens])
    assert np.array_equal(expected.view(np.int64), values.view(np.int64))
    # '%.17g' writes -0.0 as "-0", a JSON integer, which json.loads and the
    # reader alike decode as 0 without its sign
    whole = np.array([token == "-0" for token in tokens])
    assert whole.sum() == 1 and decoded[int(np.argmax(whole))] == 0
    got = np.array(decoded)
    assert np.array_equal(got[~whole].view(np.int64), expected[~whole].view(np.int64))
    assert np.array_equal(got.view(np.int64), np.array(json.loads(text)).view(np.int64))


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
    frames = list(read_frames(str(path)))
    assert any(fr.contacts.size for fr in frames)
    assert [_serialize(frame_to_dict(fr)) for fr in frames] == path.read_text().splitlines()


def test_event_round_trips():
    ev = Event(t=0.5, kind="ContactOnset", data={"nodes": [3, 4]})
    assert event_from_dict(json.loads(_serialize(event_to_dict(ev)))) == ev


@pytest.mark.parametrize(
    "record, message",
    [
        ([1], "event is not an object"),
        ({"t": 0}, "event has no key 'kind'"),
        ({"t": "late", "kind": "Breakdown", "data": {}}, "t must be numeric"),
        ({"t": 0, "kind": 7, "data": {}}, "event kind is not a string"),
        ({"t": 0, "kind": "Breakdown", "data": [1]}, "event data is not an object"),
    ],
)
def test_malformed_event_is_a_parse_error(record, message):
    with pytest.raises(ParseError, match=message):
        event_from_dict(record)


def two_node_frame():
    """A frame record at n = 1 with one tip contact, as json.loads gives it."""
    return {
        "t": 0.01,
        "n": 1,
        "s": [0.0, 0.01],
        "gamma": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.01]],
        "k": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        "contacts": [{"node": 1, "phi": 0.0, "normal": [0.0, 0.0, -1.0], "b": 0.5, "mu": 2.0}],
        "energy": 1.0,
        "min_phi": 0.0,
        "kkt_complementarity": 0.0,
        "kkt_stationarity": 0.0,
        "realized_residual": 1e-9,
        "solver_sweeps": 1,
    }


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("gamma", "[[0, 0, 0], [0, 0]]", "gamma must be numeric and in range"),
        ("gamma", '[[0, 0, 0], "abc"]', "gamma must be numeric and in range"),
        ("gamma", '[[0, 0, 0], {"x": 0, "y": 0, "z": 1}]', "gamma must be numeric and in range"),
        ("gamma", "[[0, true, 0], [0, 0, 1]]", "gamma must hold numbers, not text or true/false"),
        ("gamma", '[[0, "0", 0], [0, 0, 1]]', "gamma must hold numbers, not text or true/false"),
        ("k", "[[0, 0, 1], [0, null, 1]]", "k holds a non-finite number or a stray null"),
        ("gamma", "[[0, 0, 0], [0, 0, 1e400]]", "gamma holds a non-finite number or a stray null"),
        ("t", "1e400", "t holds a non-finite number or a stray null"),
        ("n", "1" + "0" * 400, "n must be numeric and in range"),
        ("t", "1" + "0" * 400, "t must be numeric and in range"),
        ("t", '"late"', "t must be numeric"),
        ("gamma", "5", r"gamma has shape \(\), expected \(2, 3\)"),
        ("s", "[[0.0], [0.01]]", r"s has shape \(2, 1\), expected \(2,\)"),
        ("solver_sweeps", "-5", "solver_sweeps must be >= 0, got -5"),
        # what the frame reader decodes -9223372036854775809 to: the float -2^63
        ("solver_sweeps", "-9.223372036854776e18", "solver_sweeps must be >= 0"),
    ],
    ids=[
        "ragged_row",
        "row_is_text",
        "row_is_object",
        "true_in_gamma",
        "text_in_gamma",
        "null_in_k",
        "overflow_in_gamma",
        "overflow_t",
        "huge_int_n",
        "huge_int_t",
        "t_is_text",
        "gamma_is_scalar",
        "s_is_a_column",
        "negative_sweeps",
        "sweeps_below_int64",
    ],
)
def test_malformed_frame_is_a_parse_error(key, text, message):
    record = two_node_frame()
    record[key] = json.loads(text)
    with pytest.raises(ParseError, match=message):
        frame_from_dict(record)


def test_two_node_frame_round_trips():
    line = _serialize(two_node_frame())
    assert _serialize(frame_to_dict(frame_from_dict(json.loads(line)))) == line


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
        frame = frame_from_dict(record)
    except ParseError:
        return
    line = _serialize(frame_to_dict(frame))
    assert _serialize(frame_to_dict(frame_from_dict(json.loads(line)))) == line
