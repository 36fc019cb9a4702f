"""Obstacle reaction as a constrained minimization over contact multipliers.

Each contact node j contributes one unilateral constraint: the first-order
normal velocity it receives from the total rotation density must be
nonnegative. The admissible reaction density minimizing the exponentially
weighted elastic energy is supported below the contact points and is linear
in a vector of nonnegative multipliers, one per contact (the tip contact also
carries the elongation term). The dual problem in those multipliers is a
bound-constrained quadratic program

    minimize  0.5 mu^T G mu - b^T mu   subject to  mu >= 0

in the Gram matrix G of the rows' arm fields. One map writes each arm field,
a_j(sigma_i) = M_j h_i with h_i = [1, gamma_i]: the Gram matrix and the
linear rates read the same moments sum_{i < node_j} x_i h_i^T, and the
reaction density sums mu_j M_j over the rows above each node. The problem is
solved exactly by a Lawson-Hanson active-set method: with one to a few
contacts, each face of the active set costs one small linear solve. An
exhaustive enumeration of all 2^m active sets serves as an independent
cross-check for small contact counts.

A system is built on a curves.Stem, the stepper's state or a frame read back,
and only by assemble_constraints, so the step and oracle-check solve on the
same bits.

The contact kernels are written, as the per-node ones in curves are, on
component columns and into preallocated outputs, in the order of operations
of their row forms. The arm maps, twelve numbers a contact, are computed on
Python floats in numpy.cross's order instead, and put into one array. einsum
and matmul sum in the memory order of their operands, so an operand's memory
layout is part of its bits: the arm maps, and the suffix sums the density is
made from, are the transposed view of a C-ordered (m, 4, 3) array, the layout
the bundled runs' frames were made with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import Stem, _columns, _cross_columns
from .errors import (
    InfeasibleReaction,
    MaxIterationsExceeded,
    NoCandidateFeasible,
    PenetrationExceeded,
)
from .obstacles import Scene, outer_normal, signed_distances


@dataclass
class ContactSet:
    """Grown nodes lying within the contact band of the scene."""

    nodes: np.ndarray
    normals: np.ndarray
    phi: np.ndarray
    tip: bool

    @property
    def size(self) -> int:
        return int(self.nodes.size)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The contact set of every detection that finds no node in the band. A step
# with no contacts reads it and never writes it, so one read-only set serves
# them all.
NO_CONTACTS = ContactSet(
    nodes=_read_only(np.zeros(0, dtype=np.intp)),
    normals=_read_only(np.zeros((0, 3))),
    phi=_read_only(np.zeros(0)),
    tip=False,
)


def detect_contacts(
    stem: Stem,
    scene: Scene,
    eps_contact: float,
    eps_penetration: float,
) -> tuple[ContactSet, float | None]:
    """Nodes with signed distance at most eps_contact, and the least distance of any node.

    Every grown node must satisfy phi >= -eps_penetration; a deeper node is a
    hard failure. When the least distance is outside the band, no node is in
    it, and detection stops there with NO_CONTACTS. Otherwise normals are
    queried in a band wide enough to cover both tolerances, each from the
    obstacles' distances at its node, which one call per obstacle measures
    for all contact nodes. The least distance is None for an empty scene.
    """
    gamma = stem.gamma
    phi = signed_distances(scene, gamma)
    worst = int(phi.argmin()) if phi.size else 0
    if phi.size and phi[worst] < -eps_penetration:
        raise PenetrationExceeded(
            f"node {worst} penetrates by {float(-phi[worst]):.3e} (limit {eps_penetration:.3e})"
        )
    # no node is in the band exactly when the least distance fails the band
    # test below; an empty scene's distances are all +inf, so it stops here
    if not (phi.size and phi[worst] <= eps_contact):
        return NO_CONTACTS, float(phi[worst]) if scene.obstacles else None
    nodes = (phi <= eps_contact).nonzero()[0]
    band = max(10.0 * eps_contact, 2.0 * eps_penetration)
    normals = np.empty((nodes.size, 3))
    points = gamma[nodes]
    dists = zip(*[ob.distances(points).tolist() for ob in scene.obstacles])
    for i, d in enumerate(dists):
        normals[i] = outer_normal(scene, points[i], d, band_width=band)
    contacts = ContactSet(
        nodes=nodes,
        normals=normals,
        phi=phi[nodes],
        tip=bool(nodes[-1] == stem.n_grown),
    )
    return contacts, float(phi[worst])


@dataclass
class ConstraintSystem:
    """Discrete contact constraints at one instant.

    Row j acts on the density through the arm field a_j(sigma_i) =
    (gamma_j - gamma_i) x n_j = M_j h_i, supported on nodes below the
    contact: h_i = [1, gamma_i] is the node's basis vector and M_j the row's
    3x4 arm map. The energy weights are ds * exp(beta (t - sigma_i)); the
    Gram matrix lives in the inverse metric. The stem covers the grown nodes
    only, so its tip tangent is k[-1]. The system is geometry only: the
    decay, the basis, the arm maps and the Gram matrix are computed once per
    system, and the right-hand side b is the caller's. assemble_constraints
    builds it.
    """

    stem: Stem
    contacts: ContactSet
    beta: float

    @property
    def tip_row(self) -> int | None:
        """Row of the tip contact (always the last), or None."""
        return self.contacts.size - 1 if self.contacts.tip else None

    @cached_property
    def decay(self) -> np.ndarray:
        """Decay exp(-beta (t - sigma_i)) at every node."""
        stem = self.stem
        return np.exp(-self.beta * (stem.t - stem.s))

    @property
    def metric_weights(self) -> np.ndarray:
        """Quadrature-times-decay weights ds * exp(-beta (t - sigma_i))."""
        return self.stem.ds * self.decay

    @cached_property
    def basis(self) -> np.ndarray:
        """h_i = [1, gamma_i] at every node."""
        gamma = self.stem.gamma
        h = np.empty((len(gamma), 4))
        h[:, 0] = 1.0
        for i, col in enumerate(_columns(gamma), 1):
            h[:, i] = col
        return h

    @cached_property
    def arm_maps(self) -> np.ndarray:
        """M_j = [gamma_j x n_j | n_j x e_0 | n_j x e_1 | n_j x e_2] for every contact row j.

        Column c of M_j is row c of a C-ordered (m, 4, 3) array, the layout
        einsum and matmul read the maps in (see the module docstring). The
        twelve numbers of a row are Python floats, each cross product
        component a1 b2 - a2 b1 in numpy.cross's order, with the identity's
        0.0 and 1.0 factors multiplied out so that signed zeros come out as
        numpy's.
        """
        vals = []
        points = self.stem.gamma[self.contacts.nodes].tolist()
        for (g0, g1, g2), (n0, n1, n2) in zip(points, self.contacts.normals.tolist()):
            vals += (
                g1 * n2 - g2 * n1, g2 * n0 - g0 * n2, g0 * n1 - g1 * n0,
                n1 * 0.0 - n2 * 0.0, n2 * 1.0 - n0 * 0.0, n0 * 0.0 - n1 * 1.0,
                n1 * 0.0 - n2 * 1.0, n2 * 0.0 - n0 * 0.0, n0 * 1.0 - n1 * 0.0,
                n1 * 1.0 - n2 * 0.0, n2 * 0.0 - n0 * 1.0, n0 * 0.0 - n1 * 0.0,
            )
        return np.array(vals).reshape(self.contacts.size, 4, 3).transpose(0, 2, 1)

    def rows(self) -> np.ndarray:
        """Materialize a_j(sigma_i) for every contact row j and node i.

        Each row's arm fields are taken up to the highest contact node and
        then cut to zero at and above its own.
        """
        gamma = self.stem.gamma
        nodes = self.contacts.nodes.tolist()
        top = max(nodes, default=0)
        out = np.empty((len(nodes), len(gamma), 3))
        out[:, top:] = 0.0
        offsets = [p[:, None] - q for p, q in zip(_columns(gamma[nodes]), _columns(gamma[:top]))]
        nrm = _columns(self.contacts.normals[:, None])
        _cross_columns(offsets, nrm, out=_columns(out[:, :top]))
        for j, v in enumerate(nodes):
            out[j, v:top] = 0.0
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """G_jl = sum_i w_i <a_j(sigma_i), a_l(sigma_i)> = <M_j S_j, M_l> for node_j <= node_l.

        S_j = sum_{i < node_j} w_i h_i h_i^T, w_i = ds e^{-beta(t-s_i)}, so
        assembly is O(n + m^2). The upper triangle is mirrored, which makes G
        exactly symmetric, and 0.0 is added to every entry, as a sum of the
        two triangles adds it: a -0.0 entry comes out +0.0.
        """
        arm = self.arm_maps
        moments = _cut_moments(_scale_rows(self.metric_weights, self.basis), self)
        g = np.einsum("jab,lab->jl", arm @ moments, arm)
        for j in range(1, len(g)):
            g[j, :j] = g[:j, j]
        return np.add(g, 0.0, out=g)


def _scale_rows(weights: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """weights_i * x_i for every row i of x, taken one column at a time, into out if given."""
    if out is None:
        out = np.empty(x.shape)
    for i in range(x.shape[1]):
        np.multiply(weights, x[:, i], out=out[:, i])
    return out


def _cut_moments(x: np.ndarray, system: ConstraintSystem) -> np.ndarray:
    """sum_{i < node_j} x_i h_i^T at every contact row j, shape (m, d, 4).

    One product per gap between consecutive (sorted) contact nodes, each
    added to the sum below it in place.
    """
    h = system.basis
    out = np.empty((system.contacts.size, x.shape[1], 4))
    a = 0
    for g, b in enumerate(system.contacts.nodes.tolist()):
        np.matmul(x[a:b].T, h[a:b], out=out[g])
        if g:
            np.add(out[g - 1], out[g], out=out[g])
        a = b
    return out


def linear_rates(system: ConstraintSystem, density: np.ndarray) -> np.ndarray:
    """Per-row first-order normal velocity produced by a rotation density.

    Row j reads ds sum_{i < node_j} <density_i, M_j h_i>, the stepper's
    left-endpoint rectangles; the tip row adds the elongation term. The Gram
    matrix reads the same cut moments, so the rate of the reaction density
    omega(mu), less that term, is G mu.
    """
    moments = _cut_moments(system.stem.ds * density, system)
    vals = np.einsum("jab,jab->j", system.arm_maps, moments)
    tip = system.tip_row
    if tip is not None:
        vals[tip] += float(system.stem.k[-1] @ system.contacts.normals[tip])
    return vals


def pushback_rates(phi: np.ndarray, kappa: float, dt: float) -> np.ndarray:
    """Stabilization target per contact: normal rate kappa * depth / dt, depth = max(0, -phi)."""
    return kappa * np.maximum(0.0, -phi) / dt


def rate_gaps(realized: np.ndarray, pushback: np.ndarray, mu: np.ndarray) -> tuple[float, float]:
    """How far the contact rows' realized normal rates miss the rule a step is accepted by.

    An active row (mu > 0) must move at its pushback rate, its gap |realized - pushback|;
    any other row no slower, its gap pushback - realized, negative when it moves faster.
    Returns the worst gap, at least 0.0, and the fastest active row's |realized|, 0.0
    without one. A step has one to three rows, so the rule runs on Python floats,
    where numpy's per-call cost would be most of the work; the worst gap is bitwise
    np.max(gaps, initial=0.0): a tie goes to the later value, so signed zeros
    match, and a NaN gap, once met, is the result.
    """
    worst = speed = 0.0
    for r, p, m in zip(realized.tolist(), pushback.tolist(), mu.tolist()):
        if m > 0.0:
            gap = abs(r - p)
            speed = max(speed, abs(r))
        else:
            gap = p - r
        if worst == worst and not worst > gap:
            worst = gap
    return worst, speed


def assemble_constraints(stem: Stem, contacts: ContactSet, beta: float) -> ConstraintSystem:
    """The constraint system of contacts, at least one, on a stem, beta the decay rate."""
    return ConstraintSystem(stem, contacts, beta)


@dataclass
class ReactionSolution:
    mu: np.ndarray
    omega: np.ndarray
    energy: float
    sweeps: int


def density_from_multipliers(system: ConstraintSystem, mu: np.ndarray) -> np.ndarray:
    """Reaction density omega_i = e^{-beta(t-s_i)} sum_j mu_j M_j h_i over rows above node i.

    The nodes of the gap below row g, between the cuts _cut_moments walks,
    lie below rows g and later only, so the density there is one product of
    their basis with the suffix sum of mu_j M_j from row g; above the last
    contact it is zero.
    """
    h = system.basis
    arm = system.arm_maps
    # laid out as the arm maps, so that each suffix[g].T is C-ordered
    suffix = np.empty_like(arm)
    np.multiply(mu[:, None, None], arm, out=suffix)
    for g in range(len(suffix) - 2, -1, -1):
        np.add(suffix[g + 1], suffix[g], out=suffix[g])
    rho = np.empty((len(h), 3))
    a = 0
    for g, b in enumerate(system.contacts.nodes.tolist()):
        np.matmul(h[a:b], suffix[g].T, out=rho[a:b])
        a = b
    rho[a:] = 0.0
    return _scale_rows(system.decay, rho, out=rho)


def _solve_face(g: np.ndarray, face: list[int], rhs: np.ndarray) -> np.ndarray:
    """G_FF^{-1} rhs for a face F given as one or more ascending row indices.

    A one-row face is a single divide: its row is never dead, so the diagonal
    is positive, and the quotient equals LAPACK's bit for bit.
    """
    if len(face) == 1:
        return rhs / g[face[0], face[0]]
    idx = np.array(face)
    return np.linalg.solve(g[idx[:, None], idx], rhs)


def _face_step(g: np.ndarray, face: list[int], j: int) -> tuple[np.ndarray, float]:
    """Direction d with d_j = 1 that keeps G d zero on the face, and d^T G d.

    d_F = -G_FF^{-1} G_Fj. The curvature d^T G d is the Schur complement of
    the face in the face plus row j: zero exactly when row j depends on it.
    """
    d = np.zeros(len(g))
    d[j] = 1.0
    if face:
        d[face] = -_solve_face(g, face, g[face, j])
    return d, float(g[j] @ d)


def solve_reaction(
    system: ConstraintSystem, b: np.ndarray, warm_start: np.ndarray | None
) -> ReactionSolution:
    """Minimize the weighted reaction energy subject to linear rates of at least b.

    Solves the nonnegative dual exactly by a Lawson-Hanson active-set method
    on the Gram matrix. The face is the set of rows with positive
    multipliers; each iteration, counted in sweeps, either adds the row with
    the most negative slack, or moves towards the face minimizer and drops
    the row whose multiplier reaches zero first. warm_start, None or one
    multiplier per row, seeds the face with its support. Raises
    InfeasibleReaction when a row with no leverage demands positive
    velocity, when a row that depends on the face makes the dual unbounded
    (no reaction meets the constraints), or when round-off leaves the face
    rows unsolved; MaxIterationsExceeded past the iteration bound.

    The arithmetic on multipliers and slacks is numpy's; the face is a list
    of ascending rows, and the choices between rows are made on Python
    floats, which compare as numpy's do.
    """
    m = system.contacts.size
    g = system.gram
    diag = g.diagonal()
    bscale = 1.0 + float(np.abs(b).max())
    dead = (diag <= 1e-20 * max(1.0, float(diag.max()))).tolist()
    diag = diag.tolist()
    for j, (is_dead, demand) in enumerate(zip(dead, b.tolist())):
        if is_dead and demand > 1e-12 * bscale:
            raise InfeasibleReaction(
                f"contact row {j} (node {int(system.contacts.nodes[j])}) has no "
                f"leverage but demands rate {demand:.3e}"
            )

    mu = np.zeros(m)
    face: list[int] = []
    if warm_start is not None:
        for j, warm in enumerate(warm_start.tolist()):
            if warm > 0.0 and not dead[j] and _face_step(g, face, j)[1] > 1e-12 * diag[j]:
                face.append(j)
                mu[j] = warm
    tol = 1e-10 * bscale
    # Every add lowers the energy, so no face repeats. Lawson and Hanson bound
    # NNLS at 3m iterations; the warm face may cost up to m drops more.
    limit = 4 * m
    steps = 0
    while True:
        z = np.zeros(m)
        if face:
            z[face] = _solve_face(g, face, b[face])
        p = None
        if not all(z[j] > 0.0 for j in face):
            p = z - mu
        else:
            mu = z
            rates = g @ mu
            slack = (rates - b).tolist()
            open_rows = [
                j for j in range(m) if slack[j] < -tol and not dead[j] and j not in face
            ]
            if not open_rows:
                break
            j = min(open_rows, key=slack.__getitem__)
            d, curvature = _face_step(g, face, j)
            face = sorted([*face, j])
            if curvature <= 1e-12 * diag[j]:
                # Row j depends on the face: the energy falls linearly along d.
                # Weights below round-off, relative to row j, count as zero.
                d[np.abs(d) * np.sqrt(diag) <= 1e-6 * np.sqrt(diag[j])] = 0.0
                if not (d[face] < 0.0).any():
                    raise InfeasibleReaction(
                        f"contact row {j} (node {int(system.contacts.nodes[j])}) "
                        "depends on the active rows, and no reaction meets them all"
                    )
                p = d
        steps += 1
        if steps > limit:
            worst = -float(np.min(g @ mu - b))
            raise MaxIterationsExceeded(
                f"dual solve: residual {worst:.3e} after {steps} sweeps (tol {tol:.3e})"
            )
        if p is not None:
            # Move along p, towards the face minimizer or along d, until a
            # face multiplier reaches zero, and drop its row.
            shrink = [i for i in face if p[i] < 0.0]
            ratios = (mu[shrink] / -p[shrink]).tolist()
            length = min(ratios)
            mu = mu + length * p
            mu[shrink[ratios.index(length)]] = 0.0
            face = [i for i in face if mu[i] > 0.0]
            mu[[i for i in range(m) if i not in face]] = 0.0

    # Round-off on a face too close to dependent leaves its rows unsolved.
    resid = max([abs(slack[i]) for i in face], default=0.0)
    if resid > tol:
        raise InfeasibleReaction(
            f"active contact rows are too close to dependent: face residual {resid:.3e}"
        )
    return ReactionSolution(
        mu=mu,
        omega=density_from_multipliers(system, mu),
        energy=0.5 * float(mu @ rates),
        sweeps=steps,
    )


def check_kkt(system: ConstraintSystem, b: np.ndarray, sol: ReactionSolution) -> dict:
    """Complementarity and stationarity residuals of an accepted solve against b.

    Stationarity is re-verified from materialized rows, independent of the
    arm maps, for at most 64 contacts; past that it is None (unchecked).
    """
    g = system.gram
    slack = g @ sol.mu - b
    comp = float(np.max(np.abs(sol.mu * slack)))
    out = {"complementarity": comp, "stationarity": None}
    if system.contacts.size <= 64:
        rows = system.rows()
        rebuilt = _scale_rows(system.decay, np.einsum("j,jid->id", sol.mu, rows))
        out["stationarity"] = float(np.max(np.abs(rebuilt - sol.omega)))
    return out


@dataclass
class OracleSolution:
    mu: np.ndarray
    omega: np.ndarray
    # why the system is degenerate, or "" when it is not
    degenerate: str
    n_candidates: int


def oracle_solve_reaction(system: ConstraintSystem, b: np.ndarray) -> OracleSolution:
    """Exhaustive active-set enumeration solve against b, for cross-checking.

    Tries every subset of contacts as the active set, solves the equality
    system on it, and keeps the candidates that are primal and dual feasible.
    Convexity makes every survivor a global minimizer. The system is
    degenerate when an active block is near-singular or ill-conditioned,
    when the survivors have several supports or disagree in density, or when
    the chosen multipliers include a vanishing one; degenerate names each.
    The work doubles with each contact, so the caller bounds their number:
    oracle-check skips a frame with more than --max-contacts.
    """
    m = system.contacts.size
    rows = system.rows()
    weighted = np.empty(rows.shape)
    w = system.metric_weights
    for i, col in enumerate(_columns(rows)):
        np.multiply(col, w, out=weighted[..., i])
    g = weighted.reshape(m, -1) @ rows.reshape(m, -1).T
    g = 0.5 * (g + g.T)
    feas_tol = 1e-8 * (1.0 + float(np.abs(b).max()))

    candidates = []
    singular = False
    for mask in range(1 << m):
        mu = np.zeros(m)
        if mask:
            act = np.array([j for j in range(m) if mask >> j & 1])
            sub = g[act[:, None], act]
            rhs = b[act]
            try:
                mu_a = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                mu_a, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
                if np.abs(sub @ mu_a - rhs).max() > feas_tol:
                    continue
                singular = True
            if mu_a.min() < -1e-10 * (1.0 + float(np.abs(mu_a).max())):
                continue
            mu[act] = np.maximum(mu_a, 0.0)
            # a finite nonzero 1x1 block's condition number is exactly 1: no SVD for it
            one = sub.size == 1 and 0.0 < abs(float(sub[0, 0])) < math.inf
            if not one and np.linalg.cond(sub) > 1e10:
                singular = True
        if (g @ mu - b).min() < -feas_tol:
            continue
        candidates.append(mu)
    if not candidates:
        raise NoCandidateFeasible(f"no active set among 2^{m} is feasible")

    omegas = []
    for mu in candidates:
        omega = np.einsum("j,jid->id", mu, rows)
        omegas.append(_scale_rows(system.decay, omega, out=omega))
    spread = max((float(np.abs(om - omegas[0]).max()) for om in omegas[1:]), default=0.0)
    best = int(np.argmin([float(mu @ mu) for mu in candidates]))
    mu = candidates[best]
    positive = [x for x in mu.tolist() if x > 0.0]
    tiny = bool(positive) and min(positive) < 1e-8 * (1.0 + max(positive))
    reasons = {
        "near-singular or ill-conditioned face": singular,
        "several supports": len({tuple((c > 0).tolist()) for c in candidates}) > 1,
        "candidate densities disagree": spread > 1e-7 * (1.0 + np.abs(omegas[0]).max()),
        "tiny multiplier": tiny,
    }
    return OracleSolution(
        mu=mu,
        omega=omegas[best],
        degenerate=", ".join(reason for reason, hit in reasons.items() if hit),
        n_candidates=len(candidates),
    )
