"""Byte-identical replay: the bundled scenarios must keep writing the same files.

The SHA-256 values pin the outputs of `run` on three bundled scenarios, of
the ceiling's sustained sliding contact at strides 20 and 1, of the tilted twin of
`twin_tilt`, and of a strided twin of `sphere_perpendicular` whose two runs
end at different frames. A refactor that changes any bit of a frame or event
fails here. The pinned text is orjson's (3.8.3): each float is the shortest
text that reads back to the same double, except a frame's tangents, which are
one base64 string of their little-endian float64 bytes. A frame holds the
node count and the tangents, not the time, positions or arclength grid they
imply. The same frames must also survive
a parse and a rewrite through `frame_from_dict`/`frame_to_dict` and
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
    "straight/frames.jsonl": "1063d6a916f263b4ff41af9a5c6efa260b27a84c90a36061a710e21f6f482b2b",
    "straight/events.jsonl": "a4114731c418110aab24cb3ff3a9ab818e28e3ea8390655426a1dfa5275d5c3a",
    "sphere_perpendicular/frames.jsonl": (
        "d99b0d34938438ce2c4562d960a152379715dc4048c69735c0b09f604d87630a"
    ),
    "sphere_perpendicular/events.jsonl": (
        "32b9922878f0a0b91704e70d5a3578634b607e8bb86a7d289e66f69bc71baab5"
    ),
    "sphere_oblique/frames.jsonl": (
        "b0053a64fba53d4fecf1fc94a928571a3b036669484cb7b9d1917901933d7d2c"
    ),
    "sphere_oblique/events.jsonl": (
        "131bbf6de0f7888aa24e49cea1f1dfdf03a184fe66955f291b13deacccd56754"
    ),
    # up to three contacts per step and one to two solves and advances each
    "ceiling/frames.jsonl": "31bb9987df9924f436757bc3ad6b66c339de1d867fa4fac3c841def5d81c9fd1",
    "ceiling/events.jsonl": "6f9275930c01a9ae3246cd04321a2b0c8e13d7354bc440d24444d03007c2a0a3",
    # every frame of the same run: stride 20 skips the frames between
    "ceiling_stride1/frames.jsonl": (
        "e389a4771340bd1da58bf2ea0e8b2ecf7e6acef9fde9c427d6c6847b3c4b243b"
    ),
    "ceiling_stride1/events.jsonl": (
        "6f9275930c01a9ae3246cd04321a2b0c8e13d7354bc440d24444d03007c2a0a3"
    ),
    "twin/base/frames.jsonl": "56d99d548bad8effc36f302dda4f06ff48d6a7767f95deac2a00318ad6522227",
    "twin/base/events.jsonl": "f919d677e28f0283e5a8c05af5a8c02ccfe9e56d01b2892a14d059d25b03ed97",
    "twin/perturbed/frames.jsonl": (
        "d5391fe0098aa2db6541c0c93857e8e201b52019fc45cf728bb776de7a6d8ae3"
    ),
    "twin/perturbed/events.jsonl": (
        "64ad79278126699549c4beb7d8faff2a4109bc9b1603987021f67bffe69b2db2"
    ),
    "twin/distances.jsonl": "2ec11f1dcc94bf311b92e97505e1eccc3ba22ac45f3b5774fc5f09c29f413659",
    "twin/certificate.json": "b9b0aea1551b287be229f0f626454caae75cf4a534b1351492cf435c73974680",
    # a twin whose base jams at frame 129 while the tilted run goes on to 180,
    # at a stride that divides neither end
    "twin_perpendicular/base/frames.jsonl": (
        "281ba9bc0a8f8a80caac2caa7c1c8cb4421c01d37077e4700df1e8d78dfed994"
    ),
    "twin_perpendicular/base/events.jsonl": (
        "32b9922878f0a0b91704e70d5a3578634b607e8bb86a7d289e66f69bc71baab5"
    ),
    "twin_perpendicular/perturbed/frames.jsonl": (
        "0da6d012936d50260398bac6ece5886d5589206952d7960c9b9be6cb40fcad04"
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
    dt = json.loads((outputs / scenario / "manifest.json").read_text())["config"]["numerics"]["dt"]
    rewritten = written_lines(
        frame_to_dict(frame_from_dict(json.loads(line), dt)) for line in lines
    )
    assert rewritten == lines
