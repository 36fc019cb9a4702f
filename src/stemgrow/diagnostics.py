"""Distances between stems, growth-rate certificates, and invariant audits."""

from __future__ import annotations

import numpy as np

from .curves import chord_steps, cross
from .errors import AntipodalAmbiguity, GridMismatch, NonPositiveDistance
from .obstacles import Scene, signed_distances


def rotation_field(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Node-wise minimal rotation between two tangent fields on the same grid."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    if k1.shape != k2.shape:
        raise GridMismatch(f"tangent fields have shapes {k1.shape} and {k2.shape}")
    normal = cross(k1, k2)
    dot = np.einsum("id,id->i", k1, k2)
    if np.any(dot <= -1.0 + 1e-9):
        raise AntipodalAmbiguity("fields contain an antipodal tangent pair")
    sin = np.linalg.norm(normal, axis=1)
    angle = np.arctan2(sin, dot)
    safe = np.where(sin < 1e-15, 1.0, sin)
    axis = normal / safe[:, None]
    w = angle[:, None] * axis
    w[sin < 1e-15] = 0.0
    return w


def weighted_norm(w: np.ndarray, ds: float, beta: float) -> float:
    """Exponentially weighted field norm sqrt(sum_i ds e^{-beta s_i} |w_i|^2).

    Left-endpoint cells: the last node is the upper integration limit and
    carries no weight.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[0] < 2:
        return 0.0
    cells = w[:-1]
    s = ds * np.arange(cells.shape[0])
    return float(
        np.sqrt(np.sum(ds * np.exp(-beta * s) * np.einsum("id,id->i", cells, cells)))
    )


def gronwall_certificate(
    times: np.ndarray, distances: np.ndarray, jitter: float = 1e-9
) -> tuple[float, dict]:
    """Smallest exponential rate C with D(t) <= D(t0) (1 + jitter) e^{C (t - t0)}.

    Fitted as the max over samples of log growth divided by elapsed time; a
    constant series certifies at (numerically) zero.
    """
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    if times.shape != distances.shape or times.size < 2:
        raise ValueError("need equal-length series with at least two samples")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if np.any(distances <= 0.0):
        raise NonPositiveDistance(
            f"distance samples must be positive, min {float(np.min(distances)):.3e}"
        )
    ratios = (np.log(distances[1:] / distances[0]) - np.log1p(jitter)) / (
        times[1:] - times[0]
    )
    arg = int(np.argmax(ratios))
    c = float(ratios[arg])
    details = {
        "initial_distance": float(distances[0]),
        "terminal_distance": float(distances[-1]),
        "max_ratio_time": float(times[arg + 1]),
        "samples": int(times.size),
    }
    return c, details


def audit_arrays(
    s: np.ndarray,
    gamma: np.ndarray,
    k: np.ndarray,
    ds: float,
    scene: Scene | None = None,
    eps_penetration: float | None = None,
    unit_tol: float = 1e-10,
    chord_tol: float = 1e-10,
    base_tol: float = 1e-12,
) -> list[str]:
    """Structural invariant checks on one snapshot; returns violation messages."""
    bad: list[str] = []
    norms = np.linalg.norm(k, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > unit_tol:
        bad.append(f"tangent norms drift from 1 by {worst:.3e} (tol {unit_tol:.1e})")
    if float(np.linalg.norm(gamma[0])) > base_tol:
        bad.append(f"base has wandered {float(np.linalg.norm(gamma[0])):.3e} from the origin")
    chords = np.diff(gamma, axis=0)
    lens = np.linalg.norm(chords, axis=1)
    if lens.size and float(np.max(lens)) > ds * (1.0 + chord_tol):
        bad.append(f"chord length {float(np.max(lens)):.17g} exceeds ds {ds:.17g}")
    rebuilt = chord_steps(k, ds)
    if lens.size:
        drift = float(np.max(np.linalg.norm(chords - rebuilt, axis=1)))
        if drift > 1e-12 * max(1.0, ds):
            bad.append(f"positions desynced from tangents by {drift:.3e}")
    if scene is not None and scene.obstacles:
        phi = signed_distances(scene, gamma)
        limit = eps_penetration if eps_penetration is not None else 0.05 * ds
        if float(np.min(phi)) < -limit:
            bad.append(
                f"node {int(np.argmin(phi))} penetrates {-float(np.min(phi)):.3e} "
                f"(limit {limit:.3e})"
            )
    return bad


def step_normal_rates(
    gamma_prev: np.ndarray,
    gamma_next: np.ndarray,
    contact_nodes: np.ndarray,
    contact_normals: np.ndarray,
    tip: bool,
    dt: float,
) -> np.ndarray:
    """Realized per-step normal velocity at each contact of the earlier frame.

    The tip contact follows the moving tip (one node further in the later
    frame); interior contacts follow their own material node.
    """
    disp = (gamma_next[contact_nodes] - gamma_prev[contact_nodes]) / dt
    rates = np.einsum("jd,jd->j", disp, contact_normals)
    if tip:
        n = gamma_prev.shape[0] - 1
        tip_disp = (gamma_next[n + 1] - gamma_prev[n]) / dt
        rates[-1] = float(tip_disp @ contact_normals[-1])
    return rates
