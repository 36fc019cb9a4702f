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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import Stem, cross
from .errors import (
    EmptyContactSet,
    InfeasibleReaction,
    MaxIterationsExceeded,
    NoCandidateFeasible,
    PenetrationExceeded,
    TooManyContacts,
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


def detect_contacts(
    stem: Stem,
    scene: Scene,
    eps_contact: float,
    eps_penetration: float,
) -> tuple[ContactSet, float | None]:
    """Nodes with signed distance at most eps_contact, and the least distance of any node.

    Every grown node must satisfy phi >= -eps_penetration; a deeper node is a
    hard failure. Normals are queried in a band wide enough to cover both
    tolerances. The least distance is None for an empty scene.
    """
    gamma = stem.gamma
    phi = signed_distances(scene, gamma)
    worst = int(np.argmin(phi)) if phi.size else 0
    if phi.size and phi[worst] < -eps_penetration:
        raise PenetrationExceeded(worst, float(-phi[worst]), eps_penetration)
    mask = phi <= eps_contact
    nodes = np.nonzero(mask)[0]
    band = max(10.0 * eps_contact, 2.0 * eps_penetration)
    normals = np.array(
        [outer_normal(scene, gamma[v], band_width=band) for v in nodes]
    ).reshape(nodes.size, 3)
    contacts = ContactSet(
        nodes=nodes,
        normals=normals,
        phi=phi[nodes],
        tip=bool(nodes.size and nodes[-1] == stem.n_grown),
    )
    return contacts, float(phi[worst]) if scene.obstacles else None


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
        return np.concatenate([np.ones((len(gamma), 1)), gamma], axis=1)

    @cached_property
    def arm_maps(self) -> np.ndarray:
        """M_j = [gamma_j x n_j | n_j x e_0 | n_j x e_1 | n_j x e_2] for every contact row j."""
        nrm = self.contacts.normals
        lever = cross(self.stem.gamma[self.contacts.nodes], nrm)[:, :, None]
        return np.concatenate([lever, cross(nrm[:, None], np.eye(3)).transpose(0, 2, 1)], axis=2)

    def rows(self) -> np.ndarray:
        """Materialize a_j(sigma_i) for every contact row j and node i."""
        gamma = self.stem.gamma
        out = np.zeros((self.contacts.size, len(gamma), 3))
        for j, (v, nrm) in enumerate(zip(self.contacts.nodes.tolist(), self.contacts.normals)):
            out[j, :v] = cross(gamma[v] - gamma[:v], nrm)
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """G_jl = sum_i w_i <a_j(sigma_i), a_l(sigma_i)> = <M_j S_j, M_l> for node_j <= node_l.

        S_j = sum_{i < node_j} w_i h_i h_i^T, w_i = ds e^{-beta(t-s_i)}, so
        assembly is O(n + m^2). The upper triangle is mirrored, which makes G
        exactly symmetric.
        """
        arm = self.arm_maps
        moments = _cut_moments(_scale_rows(self.metric_weights, self.basis), self)
        g = np.einsum("jab,lab->jl", arm @ moments, arm)
        return np.triu(g) + np.triu(g, 1).T


def _scale_rows(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """weights_i * x_i for every row i of x, taken one column at a time."""
    out = np.empty(x.shape)
    for i in range(x.shape[1]):
        np.multiply(weights, x[:, i], out=out[:, i])
    return out


def _cut_moments(x: np.ndarray, system: ConstraintSystem) -> np.ndarray:
    """sum_{i < node_j} x_i h_i^T at every contact row j, shape (m, d, 4).

    One product per gap between consecutive (sorted) contact nodes, then a
    cumulative sum over the gaps.
    """
    h = system.basis
    cuts = [0, *system.contacts.nodes.tolist()]
    gaps = [x[a:b].T @ h[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    return np.cumsum(gaps, axis=0)


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


def rate_gaps(realized: np.ndarray, pushback: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """How far each contact row's realized normal rate misses the rule a step is accepted by.

    An active row (mu > 0) must move at its pushback rate, its gap |realized - pushback|;
    any other row no slower, its gap pushback - realized, negative when it moves faster.
    """
    return np.where(mu > 0.0, np.abs(realized - pushback), pushback - realized)


def assemble_constraints(stem: Stem, contacts: ContactSet, beta: float) -> ConstraintSystem:
    """The constraint system of contacts on a stem, beta the decay rate."""
    if contacts.size == 0:
        raise EmptyContactSet("assemble_constraints needs at least one contact")
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
    suffix = np.cumsum((mu[:, None, None] * system.arm_maps)[::-1], axis=0)[::-1]
    rho = np.zeros((len(h), 3))
    cuts = [0, *system.contacts.nodes.tolist()]
    for g, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        rho[a:b] = h[a:b] @ suffix[g].T
    return _scale_rows(system.decay, rho)


def _solve_face(g: np.ndarray, face: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G_FF^{-1} rhs for a face F given as one or more row indices.

    A one-row face is a single divide: its row is never dead, so the diagonal
    is positive, and the quotient equals LAPACK's bit for bit.
    """
    if face.size == 1:
        return rhs / g[face[0], face[0]]
    return np.linalg.solve(g[face[:, None], face], rhs)


def _face_step(g: np.ndarray, face: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """Direction d with d_j = 1 that keeps G d zero on the face, and d^T G d.

    d_F = -G_FF^{-1} G_Fj. The curvature d^T G d is the Schur complement of
    the face in the face plus row j: zero exactly when row j depends on it.
    """
    d = np.zeros(g.shape[0])
    d[j] = 1.0
    idx = face.nonzero()[0]
    if idx.size:
        d[idx] = -_solve_face(g, idx, g[idx, j])
    return d, float(g[j] @ d)


def solve_reaction(
    system: ConstraintSystem, b: np.ndarray, warm_start: np.ndarray | None
) -> ReactionSolution:
    """Minimize the weighted reaction energy subject to linear rates of at least b.

    Solves the nonnegative dual exactly by a Lawson-Hanson active-set method
    on the Gram matrix. The face is the set of rows with positive
    multipliers; each iteration, counted in sweeps, either adds the row with
    the most negative slack, or moves towards the face minimizer and drops
    the row whose multiplier reaches zero first. warm_start's support seeds
    the face. Raises InfeasibleReaction when a row with no leverage demands
    positive velocity, when a row that depends on the face makes the dual
    unbounded (no reaction meets the constraints), or when round-off leaves
    the face rows unsolved; MaxIterationsExceeded past the iteration bound.
    """
    m = system.contacts.size
    if m == 0:
        raise EmptyContactSet("solve_reaction needs at least one contact")
    g = system.gram
    diag = g.diagonal()
    bscale = 1.0 + float(np.abs(b).max())
    dead = diag <= 1e-20 * max(1.0, float(diag.max()))
    if (dead & (b > 1e-12 * bscale)).any():
        j = int((dead & (b > 1e-12 * bscale)).nonzero()[0][0])
        raise InfeasibleReaction(
            f"contact row {j} (node {int(system.contacts.nodes[j])}) has no "
            f"leverage but demands rate {b[j]:.3e}"
        )

    mu = np.zeros(m)
    face = np.zeros(m, dtype=bool)
    if warm_start is not None and warm_start.shape == (m,):
        for j in ((warm_start > 0.0) & ~dead).nonzero()[0]:
            if _face_step(g, face, j)[1] > 1e-12 * diag[j]:
                face[j] = True
                mu[j] = warm_start[j]
    tol = 1e-10 * bscale
    # Every add lowers the energy, so no face repeats. Lawson and Hanson bound
    # NNLS at 3m iterations; the warm face may cost up to m drops more.
    limit = 4 * m
    steps = 0
    while True:
        z = np.zeros(m)
        idx = face.nonzero()[0]
        if idx.size:
            z[idx] = _solve_face(g, idx, b[idx])
        p = None
        if not (z[idx] > 0.0).all():
            p = z - mu
        else:
            mu = z
            slack = g @ mu - b
            open_rows = ~face & ~dead & (slack < -tol)
            if not open_rows.any():
                break
            j = int(np.argmin(np.where(open_rows, slack, np.inf)))
            d, curvature = _face_step(g, face, j)
            face[j] = True
            if curvature <= 1e-12 * diag[j]:
                # Row j depends on the face: the energy falls linearly along d.
                # Weights below round-off, relative to row j, count as zero.
                d[np.abs(d) * np.sqrt(diag) <= 1e-6 * np.sqrt(diag[j])] = 0.0
                if not np.any(face & (d < 0.0)):
                    raise InfeasibleReaction(
                        f"contact row {j} (node {int(system.contacts.nodes[j])}) "
                        "depends on the active rows, and no reaction meets them all"
                    )
                p = d
        steps += 1
        if steps > limit:
            worst = -float(np.min(g @ mu - b))
            raise MaxIterationsExceeded("dual solve", worst, tol, steps)
        if p is not None:
            # Move along p, towards the face minimizer or along d, until a
            # face multiplier reaches zero, and drop its row.
            shrink = face & (p < 0.0)
            ratios = mu[shrink] / -p[shrink]
            mu = mu + float(ratios.min()) * p
            mu[np.nonzero(shrink)[0][np.argmin(ratios)]] = 0.0
            face &= mu > 0.0
            mu[~face] = 0.0

    # Round-off on a face too close to dependent leaves its rows unsolved.
    resid = float(np.abs(slack[face]).max(initial=0.0))
    if resid > tol:
        raise InfeasibleReaction(
            f"active contact rows are too close to dependent: face residual {resid:.3e}"
        )
    return ReactionSolution(
        mu=mu,
        omega=density_from_multipliers(system, mu),
        energy=0.5 * float(mu @ (g @ mu)),
        sweeps=steps,
    )


def check_kkt(system: ConstraintSystem, b: np.ndarray, sol: ReactionSolution) -> dict:
    """Complementarity and stationarity residuals of an accepted solve against b.

    Stationarity is re-verified from materialized rows, independent of the
    arm maps, for at most 64 contacts; past that it is None (unchecked).
    """
    g = system.gram
    slack = g @ sol.mu - b
    comp = float(np.max(np.abs(sol.mu * slack))) if sol.mu.size else 0.0
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


def oracle_solve_reaction(
    system: ConstraintSystem, b: np.ndarray, max_contacts: int
) -> OracleSolution:
    """Exhaustive active-set enumeration solve against b, for cross-checking.

    Tries every subset of contacts as the active set, solves the equality
    system on it, and keeps the candidates that are primal and dual feasible.
    Convexity makes every survivor a global minimizer. The system is
    degenerate when an active block is near-singular or ill-conditioned,
    when the survivors have several supports or disagree in density, or when
    the chosen multipliers include a vanishing one; degenerate names each.
    """
    m = system.contacts.size
    if m == 0:
        raise EmptyContactSet("oracle needs at least one contact")
    if m > max_contacts:
        raise TooManyContacts(f"{m} contacts exceed the enumeration limit {max_contacts}")

    rows = system.rows()
    w = system.metric_weights
    flat = rows.reshape(m, -1)
    g = (rows * w[None, :, None]).reshape(m, -1) @ flat.T
    g = 0.5 * (g + g.T)
    feas_tol = 1e-8 * (1.0 + float(np.max(np.abs(b))))

    candidates = []
    singular = False
    for mask in range(1 << m):
        act = [j for j in range(m) if mask >> j & 1]
        mu = np.zeros(m)
        if act:
            sub = g[np.ix_(act, act)]
            try:
                mu_a = np.linalg.solve(sub, b[act])
            except np.linalg.LinAlgError:
                mu_a, *_ = np.linalg.lstsq(sub, b[act], rcond=None)
                if np.max(np.abs(sub @ mu_a - b[act])) > feas_tol:
                    continue
                singular = True
            if np.min(mu_a) < -1e-10 * (1.0 + float(np.max(np.abs(mu_a)))):
                continue
            mu[act] = np.maximum(mu_a, 0.0)
            if np.linalg.cond(sub) > 1e10:
                singular = True
        if np.min(g @ mu - b) < -feas_tol:
            continue
        candidates.append(mu)
    if not candidates:
        raise NoCandidateFeasible(f"no active set among 2^{m} is feasible")

    omegas = [
        _scale_rows(system.decay, np.einsum("j,jid->id", mu, rows)) for mu in candidates
    ]
    spread = max((float(np.max(np.abs(om - omegas[0]))) for om in omegas[1:]), default=0.0)
    best = int(np.argmin([float(mu @ mu) for mu in candidates]))
    mu = candidates[best]
    positive = mu[mu > 0.0]
    tiny = positive.size > 0 and positive.min() < 1e-8 * (1.0 + positive.max())
    reasons = {
        "near-singular or ill-conditioned face": singular,
        "several supports": len({tuple(np.nonzero(c > 0)[0]) for c in candidates}) > 1,
        "candidate densities disagree": spread > 1e-7 * (1.0 + np.max(np.abs(omegas[0]))),
        "tiny multiplier": tiny,
    }
    return OracleSolution(
        mu=mu,
        omega=omegas[best],
        degenerate=", ".join(reason for reason, hit in reasons.items() if hit),
        n_candidates=len(candidates),
    )
