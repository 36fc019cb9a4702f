"""Distances between stems, growth-rate certificates, and invariant audits."""

from __future__ import annotations

import numpy as np

from .curves import Stem, _columns, _cross_columns, _norm_columns
from .errors import AntipodalAmbiguity, NonPositiveDistance
from .obstacles import Scene, signed_distances
from .reaction import ContactSet

# audit_arrays' tolerance on tangent norm drift
UNIT_TOL = 1e-10
# gronwall_certificate's relative slack on the initial distance
JITTER = 1e-9


def rotation_field(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Node-wise minimal rotation between two tangent fields on the same grid.

    A node is aligned, with zero rotation, only where the cross product's
    length is exactly 0, so fields whose bits differ anywhere measure apart.
    """
    normal = _cross_columns(_columns(k1), _columns(k2))
    dot = np.einsum("id,id->i", k1, k2)
    if np.any(dot <= -1.0 + 1e-9):
        raise AntipodalAmbiguity("fields contain an antipodal tangent pair")
    sin = _norm_columns(normal)
    angle = np.arctan2(sin, dot)
    safe = np.where(sin == 0.0, 1.0, sin)
    w = np.empty(k1.shape)
    for i, col in enumerate(normal):
        np.multiply(angle, col / safe, out=w[:, i])
    return w


def weighted_norm(w: np.ndarray, ds: float, beta: float) -> float:
    """Exponentially weighted field norm sqrt(sum_i ds e^{-beta s_i} |w_i|^2).

    Left-endpoint cells: the last node is the upper integration limit and
    carries no weight.
    """
    cells = w[:-1]
    s = ds * np.arange(cells.shape[0])
    return float(
        np.sqrt(np.sum(ds * np.exp(-beta * s) * np.einsum("id,id->i", cells, cells)))
    )


def gronwall_certificate(times: np.ndarray, distances: np.ndarray) -> tuple[float, dict]:
    """Smallest exponential rate C with D(t) <= D(t0) (1 + JITTER) e^{C (t - t0)}.

    times is strictly increasing, with one distance each and at least two in
    all. Fitted as the max over samples of log growth divided by elapsed time;
    a constant series certifies at (numerically) zero.
    """
    if np.any(distances <= 0.0):
        raise NonPositiveDistance(
            f"distance samples must be positive, min {float(np.min(distances)):.3e}"
        )
    ratios = (np.log(distances[1:] / distances[0]) - np.log1p(JITTER)) / (
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
    gamma: np.ndarray,
    k: np.ndarray,
    scene: Scene,
    eps_penetration: float,
) -> list[str]:
    """Tangent-norm and penetration checks on one snapshot; returns violation messages.

    gamma is integrated from k, so its base and its chord lengths need no check.
    """
    bad: list[str] = []
    norms = _norm_columns(_columns(k))
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > UNIT_TOL:
        bad.append(f"tangent norms drift from 1 by {worst:.3e} (tol {UNIT_TOL:.1e})")
    if scene.obstacles:
        phi = signed_distances(scene, gamma)
        if float(np.min(phi)) < -eps_penetration:
            bad.append(
                f"node {int(np.argmin(phi))} penetrates {-float(np.min(phi)):.3e} "
                f"(limit {eps_penetration:.3e})"
            )
    return bad


def step_normal_rates(prev: Stem, nxt: Stem, contacts: ContactSet, dt: float) -> np.ndarray:
    """Realized per-step normal velocity at each of prev's contacts, from prev to nxt.

    The tip contact follows the moving tip (one node further in nxt);
    interior contacts follow their own material node.
    """
    nodes = contacts.nodes
    disp = (nxt.gamma[nodes] - prev.gamma[nodes]) / dt
    rates = np.einsum("jd,jd->j", disp, contacts.normals)
    if contacts.tip:
        n = prev.n_grown
        tip_disp = (nxt.gamma[n + 1] - prev.gamma[n]) / dt
        rates[-1] = float(tip_disp @ contacts.normals[-1])
    return rates
