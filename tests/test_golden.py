"""Byte-identical replay: the bundled scenarios must keep writing the same files.

The SHA-256 values pin the outputs of `run` on three bundled scenarios, of
the ceiling's sustained sliding contact at strides 20 and 1, of the tilted twin of
`twin_tilt`, and of a strided twin of `sphere_perpendicular` whose two runs
end at different frames. A refactor that changes any bit of a frame or event
fails here. The same frames must also survive a parse and a rewrite through
`frame_from_dict`/`frame_to_dict` unchanged, byte for byte.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest
from conftest import STEMGROW, stemgrow_env

from stemgrow.trajectory import _serialize, frame_from_dict, frame_to_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "straight/frames.jsonl": "82281efbbd68cbf8f349f3fb885ac177b9d7f60c92856ddab9afa0705bbb08e5",
    "straight/events.jsonl": "a35596288314288a5453b421fbd24d5746874038a092b0908d1a4d92a435063b",
    "sphere_perpendicular/frames.jsonl": (
        "71a26e3794a7e0db12a0f8ea9437cb8fd91c1d0a5b82a671deea549f3915face"
    ),
    "sphere_perpendicular/events.jsonl": (
        "f8bef7c26b9564887435eeeaab897b4dd45f887a650393a65e543612b9eb4a7c"
    ),
    "sphere_oblique/frames.jsonl": (
        "38bbb0adcac1b28323297c062af489f2a410557bb74383aaa1359616b09b55b8"
    ),
    "sphere_oblique/events.jsonl": (
        "ebde976dee8e63d306a7d15f7d870af214747ad6e1fd912358a928d16de50d9e"
    ),
    # up to three contacts per step and about three solves and advances each
    "ceiling/frames.jsonl": "2ac1554448f3d48e97c27134d116c366314fe72d07c226bfc1b6821f23acac2e",
    "ceiling/events.jsonl": "26b3812d81f282c13ccca98b68ba884fd2b41e7236bf598dc6a8e9e0dd2ff0cb",
    # every frame of the same run: stride 20 skips the frames between
    "ceiling_stride1/frames.jsonl": (
        "ec248293a4f152fe97d1a2c6ab6bc3f07ccc7717c909b0fffa66762e23d33d40"
    ),
    "ceiling_stride1/events.jsonl": (
        "26b3812d81f282c13ccca98b68ba884fd2b41e7236bf598dc6a8e9e0dd2ff0cb"
    ),
    "twin/base/frames.jsonl": "e3460daa4ee68205fdeb0436dd57c93fc34adccbf92c6e10d84f458a7912d237",
    "twin/base/events.jsonl": "ef78aef83acc70489b524ae087bf17b63cdbc2c5735c075cafd59b3c408257b5",
    "twin/perturbed/frames.jsonl": (
        "6f2815c629b3b624663deb9ceb3427344959eafe28ffa83131d17e71d033c0a5"
    ),
    "twin/perturbed/events.jsonl": (
        "509d85e6cc2e0196ab73f2423da4dc1a342495feae854e37503f5c0028f3f89c"
    ),
    "twin/distances.jsonl": "d2f02884ab83ed1689d0666836a47659afb2f981e69924d49a1d59d1aeb91739",
    "twin/certificate.json": "23ecd354c96437de83578a4c6641ab0b2d32f053ccc992e12932e494a6c5fd1b",
    # a twin whose base jams at frame 129 while the tilted run goes on to 180,
    # at a stride that divides neither end
    "twin_perpendicular/base/frames.jsonl": (
        "16c312582997ab6ab7f220895f04345f1a05b61aac3ab266bbb9b57d479aa89b"
    ),
    "twin_perpendicular/base/events.jsonl": (
        "f8bef7c26b9564887435eeeaab897b4dd45f887a650393a65e543612b9eb4a7c"
    ),
    "twin_perpendicular/perturbed/frames.jsonl": (
        "1138bb88009c0e8208d9f63d2021daaac5a190227899a8b580ae3b77e7ba45b1"
    ),
    "twin_perpendicular/perturbed/events.jsonl": (
        "4790434f573ecdba73631ce270952b832c83f9f280bd2a2fce482dd86ed38494"
    ),
    "twin_perpendicular/distances.jsonl": (
        "a2d057636460c934ad598d72c701c119159fc45d53a717ab99e80daf715aefda"
    ),
    "twin_perpendicular/certificate.json": (
        "0cbb1a4eefddc140cacefe6ec2a485465d2295178106c141c9a297ebd7943f96"
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
    lines = (outputs / scenario / "frames.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        assert _serialize(frame_to_dict(frame_from_dict(json.loads(line)))) == line
