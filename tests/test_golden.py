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
        "39f391afbc301b157690367bf93862e180106a815b319aaf2fdfea0c0a13caa1"
    ),
    "sphere_oblique/frames.k": "59b1c822756aa9e3c8deeb5f3db119869d704a082658f74a5226e39e3f20e5f7",
    "sphere_oblique/events.jsonl": (
        "1942923fe0f4d63ca71bcfede2d14c06bbbee9c55613b1d2185c58727373a7e6"
    ),
    # up to three contacts per step and one to two solves and advances each
    "ceiling/frames.jsonl": "08db559ead639991466a45a3bde27dd46efc10bccc065bf30c809b6f2d88697b",
    "ceiling/frames.k": "8e488ab888761e956bc4f46ee0da8f24fe43484f1741f7e69eebd8f6a8a48999",
    "ceiling/events.jsonl": "5c4c3f0cc8c9e1fd4176ec27baabd44620fb82ef3a2e87de5f7fcd80cb646326",
    # every frame of the same run: stride 20 skips the frames between
    "ceiling_stride1/frames.jsonl": (
        "11dfd0960ad2667502aa49bb44cb4d482c025ba177a3cb878cec49f5332b6f19"
    ),
    "ceiling_stride1/frames.k": "74c18d9b08aee8e6b7c4cffb9204410996188dd619a91a3afaf76e2c94ad14ff",
    "ceiling_stride1/events.jsonl": (
        "5c4c3f0cc8c9e1fd4176ec27baabd44620fb82ef3a2e87de5f7fcd80cb646326"
    ),
    "twin/base/frames.jsonl": "9187197260cd26a6a04da29aeb301d1a45c55df9ef8bf168b79d71c6eacf3dc0",
    "twin/base/frames.k": "f550f77133754050856e031b42bf6057f9a75c3e7be3a1af9c6f468df6270f83",
    "twin/base/events.jsonl": "1f3d3d5d3414eb96c480fbcd09e556cb12586b1244657d8e68021624c30413ad",
    "twin/perturbed/frames.jsonl": (
        "e6ae1ea3e29c090281d6c8c55f13777611c761c8f33a3c88d220a3f1bc3f6852"
    ),
    "twin/perturbed/frames.k": "6e350e7027b0d492dc5e046adc3e6de6e517254ff9b7cfdca97f72ce3d39f199",
    "twin/perturbed/events.jsonl": (
        "f12d9d544178b80af2bc92d6a2dadc48de628bc557201bffdd6282234543d377"
    ),
    "twin/distances.jsonl": "2ec11f1dcc94bf311b92e97505e1eccc3ba22ac45f3b5774fc5f09c29f413659",
    "twin/certificate.json": "b9b0aea1551b287be229f0f626454caae75cf4a534b1351492cf435c73974680",
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
        "6024fae7dc764ab2482fce9279d8c06252c1610823174aafe1dba59fe7f35b67"
    ),
    "twin_perpendicular/perturbed/frames.k": (
        "0d7c593adbc69810c8a6b483323309cbaa427da1c805ae18e64408417eca1ec1"
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
