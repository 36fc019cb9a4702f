"""Obstacle reaction as a constrained minimization over contact multipliers.

Each contact node j contributes one unilateral constraint: the first-order
normal velocity it receives from the total rotation density must be
nonnegative. The admissible reaction density minimizing the exponentially
weighted elastic energy is supported below the contact points and is linear
in a vector of nonnegative multipliers, one per contact (the tip contact also
carries the elongation term). The dual problem in those multipliers is a
bound-constrained quadratic program

    minimize  0.5 mu^T G mu - b^T mu   subject to  mu >= 0

solved exactly by a Lawson-Hanson active-set method: with one to a few
contacts, each face of the active set costs one small linear solve. An
exhaustive enumeration of all 2^m active sets serves as an independent
cross-check for small contact counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .curves import angular_displacement_profile, cross
from .errors import (
    EmptyContactSet,
    InfeasibleReaction,
    MaxIterationsExceeded,
    NoCandidateFeasible,
    PenetrationExceeded,
    TooManyContacts,
)
from .obstacles import Scene, outer_normal, signed_distances

if TYPE_CHECKING:
    from .stepper import StemState


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
    stem: "StemState",
    scene: Scene,
    eps_contact: float,
    eps_penetration: float,
) -> ContactSet:
    """Nodes with signed distance at most eps_contact.

    Every grown node must satisfy phi >= -eps_penetration; a deeper node is a
    hard failure. Normals are queried in a band wide enough to cover both
    tolerances.
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
    return ContactSet(
        nodes=nodes,
        normals=normals,
        phi=phi[nodes],
        tip=bool(nodes.size and nodes[-1] == stem.n_grown),
    )


@dataclass
class ConstraintSystem:
    """Discrete contact constraints at one instant.

    Row j acts on the density through the arm field a_j(sigma_i) =
    (gamma_j - gamma_i) x n_j, supported on nodes below the contact. The
    right-hand side b folds in the growth-law drive, the tip elongation term,
    and the penetration pushback. The energy weights are
    ds * exp(beta (t - sigma_i)); the Gram matrix lives in the inverse metric.
    gamma, s and k cover the grown nodes only, so the current time is s[-1]
    and the tip tangent is k[-1]. The decay, the arms and the Gram matrix
    depend on the geometry alone, so each is computed once per system; the
    correction loop changes only b.
    """

    contacts: ContactSet
    gamma: np.ndarray
    s: np.ndarray
    k: np.ndarray
    ds: float
    beta: float
    b: np.ndarray

    @property
    def t(self) -> float:
        return self.s[-1]

    @property
    def tip_row(self) -> int | None:
        """Row of the tip contact (always the last), or None."""
        return self.contacts.size - 1 if self.contacts.tip else None

    @cached_property
    def decay(self) -> np.ndarray:
        """Decay exp(-beta (t - sigma_i)) at every node."""
        return np.exp(-self.beta * (self.t - self.s))

    @property
    def metric_weights(self) -> np.ndarray:
        """Quadrature-times-decay weights ds * exp(-beta (t - sigma_i))."""
        return self.ds * self.decay

    @cached_property
    def arms(self) -> np.ndarray:
        """gamma_j x n_j for every contact row j: a_j(sigma_i) = arms_j - gamma_i x n_j."""
        return cross(self.gamma[self.contacts.nodes], self.contacts.normals)

    def row(self, j: int) -> np.ndarray:
        """Materialize a_j(sigma_i) for every node i."""
        v = int(self.contacts.nodes[j])
        out = np.zeros((self.s.size, 3))
        out[:v] = cross(self.gamma[v] - self.gamma[:v], self.contacts.normals[j])
        return out

    def rows(self) -> np.ndarray:
        return np.stack([self.row(j) for j in range(self.contacts.size)])

    @cached_property
    def gram(self) -> np.ndarray:
        return _gram_matrix(self)

    @cached_property
    def rows_above(self) -> np.ndarray:
        """For every node i, the first contact row whose node lies above i."""
        return np.searchsorted(self.contacts.nodes, np.arange(self.s.size), side="right")


def _gram_matrix(system: ConstraintSystem) -> np.ndarray:
    """G_jl = sum_i w_i <a_j(sigma_i), a_l(sigma_i)>, w_i = ds e^{-beta(t-s_i)}.

    Expanding the arms around the node positions turns the sum into prefix
    sums cut off at min(node_j, node_l), which keeps assembly O(n + m^2)
    instead of O(m^2 n).
    """
    nodes = system.contacts.nodes
    nrm = system.contacts.normals
    gam = system.gamma
    w = system.metric_weights

    u = system.arms
    s0 = np.concatenate([[0.0], np.cumsum(w)])
    s1 = np.concatenate([np.zeros((1, 3)), np.cumsum(w[:, None] * gam, axis=0)])
    sq = np.concatenate([[0.0], np.cumsum(w * np.einsum("id,id->i", gam, gam))])
    s2 = np.concatenate(
        [
            np.zeros((1, 3, 3)),
            np.cumsum(np.einsum("i,ia,ib->iab", w, gam, gam), axis=0),
        ]
    )

    cut = np.minimum.outer(nodes, nodes)
    term1 = s0[cut] * (u @ u.T)
    # <u_j, S1_c x n_l> written as <S1_c, n_l x u_j>
    x = cross(nrm[None, :, :], u[:, None, :])
    term2 = np.einsum("jld,jld->jl", s1[cut], x)
    term4 = sq[cut] * (nrm @ nrm.T) - np.einsum(
        "jlab,ja,lb->jl", s2[cut], nrm, nrm
    )
    g = term1 - term2 - term2.T + term4
    return 0.5 * (g + g.T)


def linear_rates(
    system: ConstraintSystem, density: np.ndarray, profile: np.ndarray | None = None
) -> np.ndarray:
    """Per-row first-order normal velocity produced by a rotation density.

    Quadrature is the stepper's cumulative-rotation rule, left-endpoint
    rectangles from angular_displacement_profile; the tip row adds the
    elongation term. A caller that has already built that profile of density
    passes it as profile, so that it is not built twice.
    """
    nodes = system.contacts.nodes
    nrm = system.contacts.normals
    gam = system.gamma
    ds = system.ds

    if profile is None:
        profile = angular_displacement_profile(density, ds)
    p1 = profile[nodes]
    vx = angular_displacement_profile(cross(density, gam), ds)[nodes]
    swirl = cross(p1, gam[nodes]) - vx
    vals = np.einsum("jd,jd->j", swirl, nrm)
    if system.tip_row is not None:
        vals[system.tip_row] += float(system.k[-1] @ nrm[system.tip_row])
    return vals


def pushback_rates(phi: np.ndarray, kappa: float, dt: float) -> np.ndarray:
    """Stabilization target per contact: normal rate kappa * depth / dt, depth = max(0, -phi)."""
    return kappa * np.maximum(0.0, -phi) / dt


def assemble_constraints(
    stem: "StemState",
    contacts: ContactSet,
    psi: np.ndarray,
    beta: float,
    kappa: float,
    dt: float,
) -> ConstraintSystem:
    """Build the constraint system for the current state.

    psi is the growth-law density on the grown nodes and beta its decay rate.
    b_j = pushback - (drive rate), so the constraint (A omega)_j >= b_j says
    the reaction must cancel whatever inward velocity the growth law alone
    would produce, plus expel any existing penetration at the pushback rate.
    """
    if contacts.size == 0:
        raise EmptyContactSet("assemble_constraints needs at least one contact")
    system = ConstraintSystem(
        contacts=contacts,
        gamma=stem.gamma,
        s=stem.s,
        k=stem.k,
        ds=stem.ds,
        beta=beta,
        b=np.zeros(contacts.size),
    )
    system.b = pushback_rates(contacts.phi, kappa, dt) - linear_rates(system, psi)
    return system


@dataclass
class ReactionSolution:
    mu: np.ndarray
    omega: np.ndarray
    energy: float
    sweeps: int


def density_from_multipliers(system: ConstraintSystem, mu: np.ndarray) -> np.ndarray:
    """Reaction density omega_i = e^{-beta(t-s_i)} sum_j mu_j a_j(sigma_i).

    Evaluated with suffix sums over contacts above each node.
    """
    nrm = system.contacts.normals
    m = nrm.shape[0]
    u = system.arms

    suf_u = np.zeros((m + 1, 3))
    suf_n = np.zeros((m + 1, 3))
    np.cumsum((mu[:, None] * u)[::-1], axis=0, out=suf_u[1:])
    np.cumsum((mu[:, None] * nrm)[::-1], axis=0, out=suf_n[1:])
    suf_u = suf_u[::-1]
    suf_n = suf_n[::-1]

    # take gathers the same rows as suf[idx], without fancy indexing's overhead
    idx = system.rows_above
    rho = suf_u.take(idx, axis=0) - cross(system.gamma, suf_n.take(idx, axis=0))
    return system.decay[:, None] * rho


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
    system: ConstraintSystem, warm_start: np.ndarray | None
) -> ReactionSolution:
    """Minimize the weighted reaction energy subject to the contact constraints.

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
    b = system.b
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


def check_kkt(system: ConstraintSystem, sol: ReactionSolution) -> dict:
    """Complementarity and stationarity residuals of an accepted solve.

    Stationarity is re-verified from materialized rows for small systems
    (independent of the suffix-sum evaluation path).
    """
    g = system.gram
    slack = g @ sol.mu - system.b
    comp = float(np.max(np.abs(sol.mu * slack))) if sol.mu.size else 0.0
    out = {"complementarity": comp, "stationarity": 0.0}
    if system.contacts.size <= 64:
        rows = system.rows()
        rebuilt = system.decay[:, None] * np.einsum("j,jid->id", sol.mu, rows)
        out["stationarity"] = float(np.max(np.abs(rebuilt - sol.omega)))
    return out


@dataclass
class OracleSolution:
    mu: np.ndarray
    omega: np.ndarray
    degenerate: bool
    n_candidates: int


def oracle_solve_reaction(
    system: ConstraintSystem, max_contacts: int
) -> OracleSolution:
    """Exhaustive active-set enumeration solve, for cross-checking.

    Tries every subset of contacts as the active set, solves the equality
    system on it, and keeps the candidates that are primal and dual feasible.
    Convexity makes every survivor a global minimizer; disagreement between
    survivors (or a near-singular active block, or a vanishing active
    multiplier) marks the system as degenerate.
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
    b = system.b
    feas_tol = 1e-8 * (1.0 + float(np.max(np.abs(b))))

    candidates = []
    degenerate = False
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
                degenerate = True
            if np.min(mu_a) < -1e-10 * (1.0 + float(np.max(np.abs(mu_a)))):
                continue
            mu[act] = np.maximum(mu_a, 0.0)
            if np.linalg.cond(sub) > 1e10:
                degenerate = True
        if np.min(g @ mu - b) < -feas_tol:
            continue
        candidates.append(mu)
    if not candidates:
        raise NoCandidateFeasible(f"no active set among 2^{m} is feasible")

    omegas = [
        system.decay[:, None] * np.einsum("j,jid->id", mu, rows) for mu in candidates
    ]
    spread = 0.0
    for om in omegas[1:]:
        spread = max(spread, float(np.max(np.abs(om - omegas[0]))))
    if len(candidates) > 1:
        supports = {tuple(np.nonzero(mu > 0)[0]) for mu in candidates}
        if len(supports) > 1:
            degenerate = True
    if spread > 1e-7 * (1.0 + float(np.max(np.abs(omegas[0])))):
        degenerate = True

    best = int(np.argmin([float(mu @ mu) for mu in candidates]))
    mu = candidates[best]
    if mu.size and np.any(mu > 0):
        if float(np.min(mu[mu > 0])) < 1e-8 * (1.0 + float(np.max(mu))):
            degenerate = True
    return OracleSolution(
        mu=mu,
        omega=omegas[best],
        degenerate=degenerate,
        n_candidates=len(candidates),
    )
