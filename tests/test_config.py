"""Tests for scenario configuration parsing, validation, and round-tripping."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemgrow.config import MAX_CELLS, SeedCurve, config_from_dict, config_to_dict, load_config
from stemgrow.errors import ParseError, ValidationError


def base_doc():
    return {
        "label": "unit",
        "scene": {"obstacles": []},
        "law": {"variant": "gravitropic", "beta": 1.0, "gain": 1.0, "up": [0.0, 0.0, 1.0]},
        "seed_curve": {"type": "segment", "direction": [0.0, 0.0, 1.0], "length": 0.2},
        "numerics": {"dt": 0.1, "t0": 0.2, "horizon": 1.0},
        "output": {"stride": 1},
    }


# ---------------------------------------------------------------------------
# defaults and round-trips
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    doc = base_doc()
    del doc["output"]
    del doc["label"]
    config = config_from_dict(doc)
    assert config.dt == 0.1
    assert config.eps_contact == 0.1
    assert config.eps_penetration == pytest.approx(0.05 * 0.1)
    assert config.kappa == 0.2
    assert config.correction_sweeps == 12
    assert config.correction_tol == 1e-8
    assert config.stride == 1
    assert config.label == ""


def test_explicit_tolerances_survive():
    doc = base_doc()
    doc["numerics"]["eps_contact"] = 0.01
    doc["numerics"]["eps_penetration"] = 0.004
    doc["numerics"]["kappa"] = 0.5
    config = config_from_dict(doc)
    assert config.eps_contact == 0.01
    assert config.eps_penetration == 0.004
    assert config.kappa == 0.5


def test_cell_count_properties():
    config = config_from_dict(base_doc())
    assert config.n_seed_cells == 2
    assert config.n_total_cells == 10


def test_round_trip_is_stable():
    doc = base_doc()
    doc["scene"]["obstacles"] = [
        {"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0},
        {"type": "half_space", "point": [0.0, 0.0, 10.0], "outward_normal": [0.0, 0.0, -1.0]},
        {"type": "cylinder", "axis_point": [8.0, 0.0, 0.0], "axis": [0.0, 1.0, 0.0], "radius": 1.0},
    ]
    config = config_from_dict(doc)
    dumped = config_to_dict(config)
    again = config_to_dict(config_from_dict(dumped))
    assert again == dumped
    # the dump is JSON-serializable as-is
    json.dumps(dumped)


def test_round_trip_writes_vectors_as_given():
    doc = base_doc()
    doc["law"]["up"] = [0.0, 0.3, 3.0]
    doc["seed_curve"]["direction"] = [0.1, 0.2, 1.0]
    doc["scene"]["obstacles"] = [
        {"type": "half_space", "point": [0.0, 0.0, 10.0], "outward_normal": [0.0, 0.1, -2.0]},
        {"type": "cylinder", "axis_point": [8.0, 0.0, 0.0], "axis": [0.0, 3.0, 0.15], "radius": 1.0},
    ]
    dumped = config_to_dict(config_from_dict(doc))
    assert dumped["law"]["up"] == doc["law"]["up"]
    assert dumped["seed_curve"] == doc["seed_curve"]
    assert dumped["scene"] == doc["scene"]


def test_round_trip_custom_law():
    doc = base_doc()
    doc["law"] = {
        "variant": "custom",
        "beta": 0.5,
        "gain": 2.0,
        "up": [0.0, 0.0, 1.0],
        "ages": [0.0, 1.0, 2.0],
        "response": [1.0, 0.5, 0.0],
    }
    config = config_from_dict(doc)
    dumped = config_to_dict(config)
    assert dumped["law"]["ages"] == [0.0, 1.0, 2.0]
    assert dumped["law"]["response"] == [1.0, 0.5, 0.0]
    assert config_to_dict(config_from_dict(dumped)) == dumped


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_doc()))
    config = load_config(str(path))
    assert config.dt == 0.1
    assert config.label == "unit"


def test_load_config_replays_manifest(tmp_path):
    manifest = {"tool": "stemgrow", "version": "0.1.0", "config": base_doc()}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    config = load_config(str(path))
    assert config.horizon == 1.0
    assert config_to_dict(config) == config_to_dict(config_from_dict(base_doc()))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_config(str(path))


def test_load_config_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00{")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="top level"):
        load_config(str(path))


# ---------------------------------------------------------------------------
# validation errors name the offending field
# ---------------------------------------------------------------------------


def test_zero_dt_rejected():
    doc = base_doc()
    doc["numerics"]["dt"] = 0.0
    with pytest.raises(ValidationError, match="numerics.dt"):
        config_from_dict(doc)


def test_horizon_must_exceed_t0():
    doc = base_doc()
    doc["numerics"]["horizon"] = 0.2
    with pytest.raises(ValidationError, match="horizon"):
        config_from_dict(doc)


def test_t0_must_be_whole_cells():
    doc = base_doc()
    doc["numerics"]["t0"] = 0.25
    doc["seed_curve"]["length"] = 0.25
    with pytest.raises(ValidationError, match="whole number of dt cells"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "dt, t0, horizon",
    [
        (1e-300, 0.2, 1.0),  # 1e299 seed cells
        (0.1, 0.2, 1e300),  # 1e301 steps
        (1e-10, 0.2, 1e300),  # the cell count overflows to inf
        (0.5, 0.5, 500_000.5),  # one cell past the bound
    ],
    ids=["tiny_dt", "huge_horizon", "overflowing_ratio", "one_past_the_bound"],
)
def test_grid_past_the_cell_bound_rejected(dt, t0, horizon):
    # no grid is allocated: the bound is checked on the numbers alone
    doc = base_doc()
    doc["seed_curve"]["length"] = t0
    doc["numerics"] = {"dt": dt, "t0": t0, "horizon": horizon}
    with pytest.raises(ValidationError, match=r"numerics\.horizon .* cells of numerics\.dt"):
        config_from_dict(doc)


def test_grid_at_the_cell_bound_accepted():
    doc = base_doc()
    doc["seed_curve"]["length"] = 0.5
    doc["numerics"] = {"dt": 0.5, "t0": 0.5, "horizon": 500_000.0}
    assert config_from_dict(doc).n_total_cells == MAX_CELLS == 10**6


def test_seed_length_must_match_t0():
    doc = base_doc()
    doc["seed_curve"]["length"] = 0.3
    with pytest.raises(ValidationError, match="seed_curve arclength"):
        config_from_dict(doc)


def test_missing_section_rejected():
    doc = base_doc()
    del doc["law"]
    with pytest.raises(ValidationError, match="missing section 'law'"):
        config_from_dict(doc)


def test_missing_required_numeric_rejected():
    doc = base_doc()
    del doc["numerics"]["horizon"]
    with pytest.raises(ValidationError, match="numerics.horizon is required"):
        config_from_dict(doc)


def test_unknown_top_level_key_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown keys.*extra"):
        config_from_dict(doc)


def test_unknown_numerics_key_rejected():
    doc = base_doc()
    doc["numerics"]["dtau"] = 0.1
    with pytest.raises(ValidationError, match="numerics.*dtau"):
        config_from_dict(doc)


def test_unknown_obstacle_key_rejected():
    doc = base_doc()
    doc["scene"]["obstacles"] = [
        {"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0, "colour": "red"}
    ]
    with pytest.raises(ValidationError, match=r"obstacles\[0\].*colour"):
        config_from_dict(doc)


def test_unknown_obstacle_type_rejected():
    doc = base_doc()
    doc["scene"]["obstacles"] = [{"type": "torus"}]
    with pytest.raises(ValidationError, match="torus"):
        config_from_dict(doc)


def test_non_numeric_dt_rejected():
    doc = base_doc()
    doc["numerics"]["dt"] = "fast"
    with pytest.raises(ValidationError, match="numerics.dt must be a float"):
        config_from_dict(doc)


def test_zero_stride_rejected():
    doc = base_doc()
    doc["output"]["stride"] = 0
    with pytest.raises(ValidationError, match="stride"):
        config_from_dict(doc)


def test_overlapping_obstacles_rejected():
    doc = base_doc()
    doc["scene"]["obstacles"] = [
        {"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0},
        {"type": "sphere", "center": [0.0, 0.0, 6.5], "radius": 1.0},
    ]
    with pytest.raises(ValidationError):
        config_from_dict(doc)


def with_sphere(**fields):
    """A mutation that puts one sphere, with the given fields, in the scene."""
    return lambda doc: doc["scene"].update(obstacles=[fields])


def set_at(path, value):
    """A mutation that sets the value at a key path."""

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


MALFORMED = {
    "sphere_without_radius": (with_sphere(type="sphere", center=[0.0, 0.0, 5.0]),
                              r"scene\.obstacles\[0\]\.radius is required"),
    "obstacle_is_a_number": (lambda doc: doc["scene"].update(obstacles=[5]),
                             r"scene\.obstacles\[0\] must be an object"),
    "seed_without_direction": (lambda doc: doc["seed_curve"].pop("direction"),
                               r"seed_curve\.direction is required"),
    "beta_is_text": (set_at(("law", "beta"), "x"), r"law\.beta must be a float"),
    "numerics_is_a_list": (set_at(("numerics",), [0.1, 0.2, 1.0]),
                           r"numerics must be an object"),
    "stride_is_text": (set_at(("output", "stride"), "a"), r"output\.stride must be an int"),
    "center_has_two_components": (
        with_sphere(type="sphere", center=[0.0, 5.0], radius=1.0),
        r"scene\.obstacles\[0\]\.center must be a list of 3 numbers",
    ),
    "direction_has_four_components": (
        set_at(("seed_curve", "direction"), [0.0, 0.0, 1.0, 0.0]),
        r"seed_curve\.direction must be a list of 3 numbers",
    ),
    "radius_is_a_list": (
        with_sphere(type="sphere", center=[0.0, 0.0, 5.0], radius=[1]),
        r"scene\.obstacles\[0\]\.radius must be a float",
    ),
    "center_is_text": (
        with_sphere(type="sphere", center="abc", radius=1.0),
        r"scene\.obstacles\[0\]\.center must be a list of 3 numbers",
    ),
    "up_has_two_components": (set_at(("law", "up"), [0.0, 1.0]),
                              r"law\.up must be a list of 3 numbers"),
    "kappa_is_nan": (set_at(("numerics", "kappa"), float("nan")),
                     r"numerics\.kappa must be finite"),
    # the dual solver is exact and has no tuning keys
    "removed_solver_tol": (set_at(("numerics", "solver_tol"), 1e-10),
                           r"numerics: unknown keys \['solver_tol'\]"),
    "removed_solver_max_sweeps": (set_at(("numerics", "solver_max_sweeps"), 500),
                                  r"numerics: unknown keys \['solver_max_sweeps'\]"),
    "removed_solver_ridge": (set_at(("numerics", "solver_ridge"), 1e-12),
                             r"numerics: unknown keys \['solver_ridge'\]"),
}


@pytest.mark.parametrize("mutate, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_names_the_field(mutate, message):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize("key", ["breakdown_angle_tol", "breakdown_curvature_tol"])
def test_negative_breakdown_tolerance_rejected(key):
    # below 0 the jam test could never pass, so breakdown would be off unsaid
    doc = base_doc()
    doc["numerics"][key] = -1.0
    with pytest.raises(ValidationError, match=rf"numerics\.{key} must be >= 0, got -1\.0"):
        config_from_dict(doc)


@pytest.mark.parametrize("key", ["breakdown_angle_tol", "breakdown_curvature_tol"])
def test_zero_breakdown_tolerance_accepted(key):
    # 0 is the exact test: a tip pressed exactly head-on into a straight stem
    doc = base_doc()
    doc["numerics"][key] = 0.0
    assert getattr(config_from_dict(doc), key) == 0.0


def test_integer_keys_must_be_whole_numbers():
    doc = base_doc()
    doc["numerics"]["correction_sweeps"] = 2.5
    with pytest.raises(ValidationError, match="numerics.correction_sweeps must be an int"):
        config_from_dict(doc)
    doc["numerics"]["correction_sweeps"] = 3.0
    assert config_from_dict(doc).correction_sweeps == 3


# ---------------------------------------------------------------------------
# fuzzed documents: accepted and round-tripped, or rejected with ValidationError
# ---------------------------------------------------------------------------


def valid_docs():
    """One valid document per obstacle kind, seed kind and law variant."""
    obstacles = base_doc()
    obstacles["scene"]["obstacles"] = [
        {"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0},
        {"type": "half_space", "point": [0.0, 0.0, 10.0], "outward_normal": [0.0, 0.0, -1.0]},
        {"type": "cylinder", "axis_point": [8.0, 0.0, 0.0], "axis": [0.0, 1.0, 0.0], "radius": 1.0},
    ]
    arc = base_doc()
    arc["seed_curve"] = {
        "type": "arc",
        "initial_direction": [0.0, 0.0, 1.0],
        "turn_axis": [1.0, 0.0, 0.0],
        "radius": 0.5,
        "length": 0.2,
    }
    polyline = base_doc()
    polyline["seed_curve"] = {
        "type": "polyline",
        "points": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.1], [0.0, 0.1, 0.1]],
    }
    custom = base_doc()
    custom["law"] = {
        "variant": "custom",
        "beta": 0.5,
        "gain": 2.0,
        "up": [0.0, 0.0, 1.0],
        "ages": [0.0, 1.0, 2.0],
        "response": [1.0, 0.5, 0.0],
    }
    custom["numerics"].update(kappa=0.5, correction_sweeps=4)
    return [base_doc(), obstacles, arc, polyline, custom]


def key_paths(node, prefix=()):
    """Every key path below a document node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_mutated_documents_are_accepted_or_rejected(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(valid_docs())))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(key_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        how = data.draw(st.sampled_from(["delete", "retype", "reshape", "non-finite"]))
        if how == "delete":
            del parent[key]
        elif how == "retype":
            parent[key] = data.draw(ODD_VALUES)
        elif how == "reshape":
            value = parent[key]
            if isinstance(value, list) and value and data.draw(st.booleans()):
                parent[key] = value[:-1] if data.draw(st.booleans()) else value + value[-1:]
            else:
                parent[key] = [value]
        else:
            parent[key] = data.draw(NON_FINITE)
    try:
        config = config_from_dict(doc)
    except (ValidationError, ParseError):
        return
    dumped = config_to_dict(config)
    json.dumps(dumped, allow_nan=False)
    assert config_to_dict(config_from_dict(dumped)) == dumped


# ---------------------------------------------------------------------------
# seed curve geometry
# ---------------------------------------------------------------------------


def test_segment_tangents_constant():
    seed = SeedCurve("segment", direction=[0.0, 3.0, 4.0], length=1.0)
    tangents = seed.tangents(np.array([0.0, 0.5, 1.0]))
    expected = np.array([0.0, 0.6, 0.8])
    assert np.allclose(tangents, expected[None, :], atol=1e-15)
    assert seed.arclength() == 1.0


def test_arc_tangent_turns_at_curvature_one_over_radius():
    seed = SeedCurve(
        "arc",
        initial_direction=[1.0, 0.0, 0.0],
        turn_axis=[0.0, 0.0, 1.0],
        radius=1.0,
        length=math.pi / 2,
    )
    s = np.array([0.0, math.pi / 4, math.pi / 2])
    tangents = seed.tangents(s)
    expected = np.stack([np.cos(s), np.sin(s), np.zeros(3)], axis=1)
    assert np.allclose(tangents, expected, atol=1e-12)


def test_arc_requires_orthogonal_axis():
    with pytest.raises(ValidationError, match="orthogonal"):
        SeedCurve(
            "arc",
            initial_direction=[1.0, 0.0, 0.0],
            turn_axis=[1.0, 0.0, 1.0],
            radius=1.0,
            length=1.0,
        )


def test_polyline_tangents_and_arclength():
    points = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0]]
    seed = SeedCurve("polyline", points=points)
    assert seed.arclength() == pytest.approx(3.0)
    tangents = seed.tangents(np.array([0.0, 0.5, 1.0, 2.0]))
    assert np.allclose(tangents[0], [1.0, 0.0, 0.0])
    assert np.allclose(tangents[1], [1.0, 0.0, 0.0])
    # at and beyond the first break the second chord's tangent applies
    assert np.allclose(tangents[2], [0.0, 1.0, 0.0])
    assert np.allclose(tangents[3], [0.0, 1.0, 0.0])


def test_polyline_rejects_zero_chord():
    points = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    with pytest.raises(ValidationError, match="zero-length chord"):
        SeedCurve("polyline", points=points)


def test_bad_seed_kind_rejected():
    with pytest.raises(ValidationError, match="helix"):
        SeedCurve("helix", direction=[0.0, 0.0, 1.0], length=1.0)


def test_tilted_segment_rotates_direction():
    seed = SeedCurve("segment", direction=[0.0, 0.0, 1.0], length=0.2)
    tilted = seed.tilted(math.pi / 2, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(tilted.direction, [0.0, -1.0, 0.0], atol=1e-15)
    assert tilted.length == 0.2


def test_tilted_polyline_rotates_points():
    seed = SeedCurve("polyline", points=[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    tilted = seed.tilted(math.pi / 2, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(tilted.points[1], [-2.0, 1.0, 3.0], atol=1e-14)
    assert tilted.arclength() == pytest.approx(seed.arclength())


def test_tilted_arc_preserves_orthogonality():
    seed = SeedCurve(
        "arc",
        initial_direction=[0.0, 0.0, 1.0],
        turn_axis=[1.0, 0.0, 0.0],
        radius=0.5,
        length=0.2,
    )
    tilted = seed.tilted(0.3, np.array([0.0, 1.0, 1.0]))
    assert abs(float(tilted.initial_direction @ tilted.turn_axis)) < 1e-12
    assert tilted.radius == 0.5
