"""Shared helpers: random constraint systems, the growth density at a state, a
bare frame record and its tangents, a twin that writes nothing, the lines the
writer writes and the command-line runner."""

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import stemgrow
from stemgrow.curves import Stem, rotate_vectors
from stemgrow.growth import psi_field
from stemgrow.reaction import ContactSet, assemble_constraints
from stemgrow.trajectory import tangents_path, write_jsonl

# The command line as a child process; the same as the installed ``stemgrow``.
STEMGROW = [sys.executable, "-m", "stemgrow"]
_PACKAGE_ROOT = str(Path(stemgrow.__file__).resolve().parent.parent)


def stemgrow_env(extra=None):
    """Environment for a STEMGROW child: the package this process imported
    comes first on PYTHONPATH, so the child runs the code under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    if extra:
        env.update(extra)
    return env


def random_constraint_system(rng, tip_allowed=True):
    """A smooth random curve with 1-5 contacts at random nodes, and a right-hand side.

    Node count spans 20-100 cells; normals are uniform on the sphere and the
    right-hand side is centered Gaussian, so both signs of demanded rate
    appear and active sets of every size occur.
    """
    n = int(rng.integers(20, 101))
    ds = float(rng.uniform(0.005, 0.05))
    k0 = rng.normal(size=3)
    k0 /= np.linalg.norm(k0)
    density = rng.normal(scale=2.0, size=(n + 1, 3))
    for _ in range(3):
        density[1:-1] = (density[:-2] + density[1:-1] + density[2:]) / 3.0
    ang = np.cumsum(density, axis=0) * ds
    k = rotate_vectors(ang, np.tile(k0, (n + 1, 1)))

    m = int(rng.integers(1, 6))
    nodes = np.sort(rng.choice(np.arange(2, n + 1), size=m, replace=False))
    normals = rng.normal(size=(m, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    beta = float(rng.uniform(0.0, 2.0))
    b = rng.normal(scale=0.5, size=m)
    tip = bool(tip_allowed and nodes[-1] == n and rng.random() < 0.5)
    contacts = ContactSet(nodes=nodes, normals=normals, phi=np.zeros(m), tip=tip)
    return assemble_constraints(Stem(ds, k), contacts, beta), b


def state_psi(law, state):
    """The growth density at a state, its nodes' ages read from a table of its own grid."""
    return psi_field(law, law.coeff_by_age(state.ds, state.n_grown), state.k)


def upright(n):
    """The tangents of a straight upright stem of n cells: n + 1 rows of (0, 0, 1)."""
    return [[0.0, 0.0, 1.0]] * (n + 1)


def k_bytes(rows):
    """rows as the frames.k sidecar holds them: their little-endian float64 bytes."""
    return np.asarray(rows, dtype="<f8").tobytes()


def sidecar(path):
    """The frames.k sidecar of the frames file at path."""
    return Path(tangents_path(str(path)))


def bare_frame(**fields):
    """A one-frame record at t = 0: the seed node only, no contacts. Its
    tangents, upright(n), go in the sidecar."""
    frame = {
        "n": 0,
        "contacts": [],
        "energy": None,
        "min_phi": None,
        "kkt_complementarity": None,
        "kkt_stationarity": None,
        "realized_residual": None,
        "solver_sweeps": None,
    }
    frame.update(fields)
    return (json.dumps(frame) + "\n").encode()


def unwritten():
    """A twin_run ready that drops the frames each run writes."""
    return (lambda frame: None,) * 2


def written_lines(records):
    """The lines write_jsonl writes for records, as bytes without their newlines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        write_jsonl(path, records)
        with open(path, "rb") as fh:
            return fh.read().splitlines()
