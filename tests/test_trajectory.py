"""Tests of the run-artifact layer: the float-array writer and the lazy readers."""

import json

import numpy as np
import pytest
from conftest import bare_frame
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemgrow.errors import ParseError
from stemgrow.trajectory import (
    Event,
    _serialize,
    event_from_dict,
    event_to_dict,
    read_frames,
)

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
