"""Byte-identical replay: the bundled scenarios must keep writing the same files.

The SHA-256 values pin the outputs of `run` on three bundled scenarios, of
the ceiling's sustained sliding contact at strides 20 and 1, of the tilted twin of
`twin_tilt`, and of a strided twin of `sphere_perpendicular` whose two runs
end at different frames. A refactor that changes any bit of a frame or event
fails here. The pinned text is orjson's (3.8.3): each float is the shortest
text that reads back to the same double. A frame's tangents are not text:
they are the raw little-endian float64 rows of the frames.k sidecar, pinned
next to each frames.jsonl. A frame holds the node count and the tangents,
not the time, positions or arclength grid they imply. The same frames must
also survive a read and a rewrite through `read_frames`/`write_frames`
unchanged, byte for byte, in both files, and every run and twin side must
pass `audit` with no violation, the pairing of its contact patch records
included.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest
from conftest import STEMGROW, sidecar, stemgrow_env

from stemgrow.trajectory import read_frames, write_frames

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "straight/frames.jsonl": "b8e9895b669d6978a2505de577672aeb8241bea20a5ee85cb78695a79ba1b052",
    "straight/frames.k": "ca5802f6f9bfefcf6729acfd097e316dfefae68824ca41f4506d30bde29a1d7e",
    "straight/events.jsonl": "a4114731c418110aab24cb3ff3a9ab818e28e3ea8390655426a1dfa5275d5c3a",
    "sphere_perpendicular/frames.jsonl": (
        "1cc1c8eee576c5441567456fc51379385e8194c2f9f2a87aef55e0e01149ec4a"
    ),
    "sphere_perpendicular/frames.k": (
        "59edad3eb7976928a543f97fdc848ef9a3cc81710bd884cd9acba7b882e720e9"
    ),
    "sphere_perpendicular/events.jsonl": (
        "c7dce86431c0302dfebde6d0c5ab5d189d29a2d3320fe4d33d1dcdac08254dcb"
    ),
    "sphere_oblique/frames.jsonl": (
        "1b1f703e133caf9d33fab3f2495dd8ee0ee3c78f05779197cf261220e01785e7"
    ),
    "sphere_oblique/frames.k": "011e154be0bb331f8067f44ae0af2ffde3edcdbd55cbec30ec6541a12aee59ed",
    "sphere_oblique/events.jsonl": (
        "1942923fe0f4d63ca71bcfede2d14c06bbbee9c55613b1d2185c58727373a7e6"
    ),
    # up to three contacts per step and one to two solves and advances each
    "ceiling/frames.jsonl": "c8154aa229bb7a9640463186150c5c50e38df6e38546f8cfc6f767c38be75239",
    "ceiling/frames.k": "d4d19c481e36669b4948e70763e479bfe652a1a51279fecacd7b04059c922d61",
    "ceiling/events.jsonl": "5c4c3f0cc8c9e1fd4176ec27baabd44620fb82ef3a2e87de5f7fcd80cb646326",
    # every frame of the same run: stride 20 skips the frames between
    "ceiling_stride1/frames.jsonl": (
        "bd38dff267e79b77ddd7aad4f808dca4aab864da47dfaf043968178108fca35c"
    ),
    "ceiling_stride1/frames.k": "f04b35acc4d9029f3765fda212ba6d18a6c146eb15e46f9e1b36dceb3b80895e",
    "ceiling_stride1/events.jsonl": (
        "5c4c3f0cc8c9e1fd4176ec27baabd44620fb82ef3a2e87de5f7fcd80cb646326"
    ),
    "twin/base/frames.jsonl": "0a8e7c8be8e4c8f21fe54799b6ef41d508c4f840a9c7b3dc1ae3e80c07508daf",
    "twin/base/frames.k": "cc426be3dc129841aa17eae58f78c658b378a43f35822a890ce06f9d96dbbafe",
    "twin/base/events.jsonl": "1f3d3d5d3414eb96c480fbcd09e556cb12586b1244657d8e68021624c30413ad",
    "twin/perturbed/frames.jsonl": (
        "56945246139d0a13caa3f6b2ba9f78358eee49e805c0616d0a55635664d974d3"
    ),
    "twin/perturbed/frames.k": "9c8f70e3574318e3211dec1b4c76a28932a6425bd6d759b09a29b1abdb85b56d",
    "twin/perturbed/events.jsonl": (
        "f12d9d544178b80af2bc92d6a2dadc48de628bc557201bffdd6282234543d377"
    ),
    "twin/distances.jsonl": "824412b884d373e7bd33271995b6c32282ef3cb1e36a17ab7cc2ccaab11cfdc2",
    "twin/certificate.json": "5aef6e7dc2404c243999fb66072a7ac86975e4432ac4a591a111963bbc3c7f11",
    # a twin whose base jams at frame 129 while the tilted run goes on to 180,
    # at a stride that divides neither end
    "twin_perpendicular/base/frames.jsonl": (
        "6f3793893c25de831aee734ec4e845514c4032a43298a294c1bea60b610f6393"
    ),
    "twin_perpendicular/base/frames.k": (
        "4f97d2f3b7f84c4db8d18d3edd0e6796e22247d12d7b7211fcc28a4374e20468"
    ),
    "twin_perpendicular/base/events.jsonl": (
        "c7dce86431c0302dfebde6d0c5ab5d189d29a2d3320fe4d33d1dcdac08254dcb"
    ),
    "twin_perpendicular/perturbed/frames.jsonl": (
        "bc9a2eb5cdab73a3d2c53f962e873438814ada13a2f0b3a57ddb13a03c3be768"
    ),
    "twin_perpendicular/perturbed/frames.k": (
        "15e1dd1f7bc3ea0aca2e8a9e30f23eec023c39c4d84dc7cbbebc81a9fadb394e"
    ),
    "twin_perpendicular/perturbed/events.jsonl": (
        "fffeacdf38a7a1868bcc6f7da8e4663a9c95c3a4f1283dbf62f1917319a53d8c"
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


@pytest.mark.parametrize(
    "output",
    [
        "straight",
        "sphere_perpendicular",
        "sphere_oblique",
        "ceiling",
        "ceiling_stride1",
        "twin/base",
        "twin/perturbed",
        "twin_perpendicular/base",
        "twin_perpendicular/perturbed",
    ],
)
def test_every_output_audits_clean(outputs, output):
    # the jammed runs too: their patch still open at the Breakdown needs no end
    proc = subprocess.run(
        [*STEMGROW, "audit", str(outputs / output / "frames.jsonl")],
        capture_output=True, text=True, env=stemgrow_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" 0 violation(s)\n"), proc.stdout


@pytest.mark.parametrize("scenario", ["straight", "sphere_oblique", "ceiling_stride1"])
def test_frames_round_trip_byte_for_byte(outputs, scenario, tmp_path):
    frames = outputs / scenario / "frames.jsonl"
    dt = json.loads((outputs / scenario / "manifest.json").read_text())["config"]["numerics"]["dt"]
    copy = tmp_path / "frames.jsonl"
    assert write_frames(str(copy), read_frames(str(frames), dt)) > 0
    assert copy.read_bytes() == frames.read_bytes()
    assert sidecar(copy).read_bytes() == sidecar(frames).read_bytes()
