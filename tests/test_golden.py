"""Byte-identical replay: the bundled scenarios must keep writing the same files.

The SHA-256 values pin the outputs of `run` on three bundled scenarios, of
the ceiling's sustained sliding contact at strides 20 and 1, of the tilted twin of
`twin_tilt`, and of a strided twin of `sphere_perpendicular` whose two runs
end at different frames. A refactor that changes any bit of a frame or event
fails here. The pinned text is orjson's (3.8.3): each float is the shortest
text that reads back to the same double. The same frames must also survive a
parse and a rewrite through `frame_from_dict`/`frame_to_dict` and
`write_jsonl` unchanged, byte for byte.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest
from conftest import STEMGROW, stemgrow_env, written_lines

from stemgrow.trajectory import frame_from_dict, frame_to_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "straight/frames.jsonl": "99f321b93eab0885553e609a61bbf746f7293b74c55b1ffd8957f6f845faf219",
    "straight/events.jsonl": "a4114731c418110aab24cb3ff3a9ab818e28e3ea8390655426a1dfa5275d5c3a",
    "sphere_perpendicular/frames.jsonl": (
        "ce4e803204ed23b5e92692243ccde78411b033454de1ddb4ec717cba3adbb56a"
    ),
    "sphere_perpendicular/events.jsonl": (
        "32b9922878f0a0b91704e70d5a3578634b607e8bb86a7d289e66f69bc71baab5"
    ),
    "sphere_oblique/frames.jsonl": (
        "2f86bee6e7deb36ac640dfddd1e2abb206c40d9e9bbe930d0c3962dbdeeb0f89"
    ),
    "sphere_oblique/events.jsonl": (
        "131bbf6de0f7888aa24e49cea1f1dfdf03a184fe66955f291b13deacccd56754"
    ),
    # up to three contacts per step and one to two solves and advances each
    "ceiling/frames.jsonl": "6c415c4c8d1cf38bdc81d0a02d148baa4bba6b1ab0f3c831f8f42b83228d4b17",
    "ceiling/events.jsonl": "6f9275930c01a9ae3246cd04321a2b0c8e13d7354bc440d24444d03007c2a0a3",
    # every frame of the same run: stride 20 skips the frames between
    "ceiling_stride1/frames.jsonl": (
        "717b26e3ba6d5042741bc260f4729e69db4e2b8d9830bcf936f31e0aa579dfbd"
    ),
    "ceiling_stride1/events.jsonl": (
        "6f9275930c01a9ae3246cd04321a2b0c8e13d7354bc440d24444d03007c2a0a3"
    ),
    "twin/base/frames.jsonl": "0ed116c20a67cfba12878dd3767013eb871d3b7644ba4fdada23582e611cab86",
    "twin/base/events.jsonl": "f919d677e28f0283e5a8c05af5a8c02ccfe9e56d01b2892a14d059d25b03ed97",
    "twin/perturbed/frames.jsonl": (
        "91db4cb381a650370587f7b7049d0cbf52bbec07754df5f7538205dcdc8d751d"
    ),
    "twin/perturbed/events.jsonl": (
        "64ad79278126699549c4beb7d8faff2a4109bc9b1603987021f67bffe69b2db2"
    ),
    "twin/distances.jsonl": "f25cf1976df1ab602242eefdd50518385e7727bda74ebdc6d5c72a7e4a23b656",
    "twin/certificate.json": "018ca5c74cb141864173a16ac47aa3d7aba09f6649af76333e5598335a72ba36",
    # a twin whose base jams at frame 129 while the tilted run goes on to 180,
    # at a stride that divides neither end
    "twin_perpendicular/base/frames.jsonl": (
        "9e7ecc04619441a37f5bea76d6d0557b550fef5d7af0ff8e48bd8755515983e7"
    ),
    "twin_perpendicular/base/events.jsonl": (
        "32b9922878f0a0b91704e70d5a3578634b607e8bb86a7d289e66f69bc71baab5"
    ),
    "twin_perpendicular/perturbed/frames.jsonl": (
        "c6e7a8b25c8ae0d494a6a5e6026477a3c17feda4bc6fa51b0e776a4e7127fb91"
    ),
    "twin_perpendicular/perturbed/events.jsonl": (
        "9af3d4e060b9dd08ee820e8c997a2f64c407456b2135e944eba3ae075dd94aab"
    ),
    "twin_perpendicular/distances.jsonl": (
        "57373113ef8f6dc09cdd1931f4f56b3a7b2fff87b1eb31d585dcfc88572e25a0"
    ),
    "twin_perpendicular/certificate.json": (
        "554ab935d566b88d5af86ac9d94d7c7b7bd7607f91816340ee5c2ead65f5e84e"
    ),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run the four scenarios (the ceiling at two strides) and the two twins once."""
    root = tmp_path_factory.mktemp("golden")
    # each command with its exit code: the perpendicular sphere jams the tip
    commands = [
        (["run", str(SCENARIOS / f"{name}.json"), "--out", str(root / name)], code)
        for name, code in (("straight", 0), ("sphere_perpendicular", 10), ("sphere_oblique", 0))
    ]
    ceiling = ["run", str(SCENARIOS / "gravitropic_ceiling.json")]
    commands.append(([*ceiling, "--stride", "20", "--out", str(root / "ceiling")], 0))
    commands.append(([*ceiling, "--stride", "1", "--out", str(root / "ceiling_stride1")], 0))
    twin = ["twin", str(SCENARIOS / "twin_tilt.json"), "--perturb", "tilt:0.05"]
    commands.append(([*twin, "--out", str(root / "twin")], 0))
    twin = ["twin", str(SCENARIOS / "sphere_perpendicular.json"), "--perturb", "tilt:0.05"]
    commands.append(([*twin, "--stride", "7", "--out", str(root / "twin_perpendicular")], 10))
    for args, code in commands:
        proc = subprocess.run(
            [*STEMGROW, *args], capture_output=True, text=True, env=stemgrow_env(), timeout=300
        )
        assert proc.returncode == code, proc.stderr
    return root


def test_outputs_match_golden_hashes(outputs):
    got = {name: hashlib.sha256((outputs / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


@pytest.mark.parametrize("scenario", ["straight", "sphere_oblique", "ceiling_stride1"])
def test_frames_round_trip_byte_for_byte(outputs, scenario):
    lines = (outputs / scenario / "frames.jsonl").read_bytes().splitlines()
    assert lines
    rewritten = written_lines(frame_to_dict(frame_from_dict(json.loads(line))) for line in lines)
    assert rewritten == lines
