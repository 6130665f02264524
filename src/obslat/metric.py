"""Finite metric spaces, the Hopf-Lax operator, and obstacle constructions.

``FiniteMetricSpace(D)`` checks the metric axioms on a given matrix.
``GraphSpace(nodes, edges)``, its own class with the same interface, does
not: shortest paths over positive edge lengths in a connected graph are a
metric by construction.  It answers from its sparse adjacency: distances to
a set come from one multi-source Dijkstra (``distance_to``) and Lipschitz
constants from the edges (``lipschitz``), so the dense matrix ``D`` is
built only on first access (Hopf-Lax) and then cached.  That costs one
n x n float64 array from one all-sources Dijkstra call, symmetrized in
place; each Hopf-Lax transform adds one HOPF_LAX_BLOCK x n scratch array.

The Hopf-Lax operator on a finite metric space (X, d),

    (Q_t psi)_x = min_y  d(x, y)^2 / (2 t) + psi_y,

generates the c-transform (psi^c = Q_1(-psi)) and c-concave functions
(phi = phi^cc).  Two constructions feed these into the double obstacle
solver on graph-backed spaces:

* :func:`build_cutoff` -- a function that is exactly 1 on a core set, exactly
  0 outside a region, obtained by minimizing the graph Dirichlet energy
  between two distance-profile obstacles; its discrete Laplacian is bounded
  by the obstacle Laplacians through the Lewy-Stampacchia certificate; the
  returned :class:`Cutoff` carries obstacles, solve and certificate.
* :func:`kantorovich_regularize` -- given a c-concave potential phi and an
  interpolation time t, minimizes the Dirichlet energy between
  -Q_t(-phi) and Q_{1-t}(-phi^c); the interval is nonempty on any metric
  space, and on the coincidence set the minimizer is pinned to both bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .certificates import LSCertificate, ls_certificate
from .energies import CheckResult, QuadraticEnergy, assemble_dirichlet, validate_edges
from .errors import (
    CertificateError,
    ConstructionError,
    ObstacleOrderError,
    PreconditionError,
    SolverError,
)
from .lattice import OrderInterval, as_index, as_index_set, as_vector
from .solvers import Solution, solve_newton

#: Distance matrices may violate symmetry and the triangle inequality by at
#: most this relative amount (accumulated rounding in shortest paths).
METRIC_RTOL = 1e-10

#: Exhaustive triangle check up to this size; deterministic sampling above.
TRIANGLE_EXHAUSTIVE_N = 200

#: |hi - lo| below this counts as coincidence of the potential bounds.
COINCIDENCE_TOL = 1e-9

#: A potential with max|phi^cc - phi| up to this counts as c-concave.
CC_TOL = 1e-9

#: Rows of D per block in _symmetrize and hopf_lax; it bounds their
#: temporaries to HOPF_LAX_BLOCK x n.
HOPF_LAX_BLOCK = 128


def _symmetrize(d: np.ndarray) -> float:
    """Replace the square d by 0.5 * (d + d.T) in place and make it read-only.

    Works on one pair of HOPF_LAX_BLOCK x HOPF_LAX_BLOCK blocks at a time,
    so it needs no n x n temporary; every entry is the same 0.5 * (a + b)
    as the one-shot formula.  Returns max |d - d.T| of the input.
    """
    n, asymmetry = d.shape[0], 0.0
    for s in range(0, n, HOPF_LAX_BLOCK):
        rows = slice(s, s + HOPF_LAX_BLOCK)
        for r in range(s, n, HOPF_LAX_BLOCK):
            cols = slice(r, r + HOPF_LAX_BLOCK)
            upper, lower = d[rows, cols], d[cols, rows].T
            asymmetry = max(asymmetry, float(np.max(np.abs(upper - lower))))
            mean = (upper + lower) * 0.5
            d[rows, cols] = mean
            d[cols, rows] = mean.T
    d.setflags(write=False)
    return asymmetry


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Distance matrix with the metric axioms checked at construction."""

    D: np.ndarray

    def __post_init__(self):
        d = np.array(self.D, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ConstructionError(f"distance matrix must be square, got {d.shape}")
        n = d.shape[0]
        if not np.all(np.isfinite(d)):
            raise ConstructionError("distances must be finite")
        tol = METRIC_RTOL * (1.0 + float(np.max(np.abs(d))))
        if _symmetrize(d) > tol:
            raise ConstructionError("distance matrix is not symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ConstructionError("diagonal distances must be exactly zero")
        off = ~np.eye(n, dtype=bool)
        if n > 1 and np.min(d[off]) <= 0.0:
            raise ConstructionError("off-diagonal distances must be positive")
        if n <= TRIANGLE_EXHAUSTIVE_N:
            mids = range(n)
        else:
            mids = np.unique(np.linspace(0, n - 1, TRIANGLE_EXHAUSTIVE_N, dtype=int))
        for k in mids:
            if np.max(d - (d[:, [k]] + d[[k], :])) > tol:
                raise ConstructionError(f"triangle inequality fails through point {k}")
        object.__setattr__(self, "D", d)

    @property
    def n(self) -> int:
        return self.D.shape[0]

    def distance_to(self, indices) -> np.ndarray:
        """d(x, S) = min over s in S of d(x, s), for every point x (S nonempty)."""
        return np.min(self.D[:, as_index_set(indices, self.n, "distance_to")], axis=1)

    def lipschitz(self, v) -> float:
        """Lip(v) = max over x != y of |v_x - v_y| / d(x, y); 0.0 on one point."""
        v = as_vector(v, "v", self.n)
        diff = np.abs(v[:, None] - v[None, :])
        off = ~np.eye(v.shape[0], dtype=bool)
        ratios = diff[off] / self.D[off]
        return float(np.max(ratios)) if ratios.size else 0.0

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        """Euclidean metric on a point cloud (rows are points)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ConstructionError("points must be a 2-D array")
        diff = pts[:, None, :] - pts[None, :, :]
        return cls(np.sqrt(np.sum(diff * diff, axis=2)))


class GraphSpace:
    """Shortest-path metric of a weighted graph, with its Dirichlet energy.

    A class of its own with the interface of FiniteMetricSpace.  The graph
    induces the metric and supplies the quadratic energy minimized between
    the obstacles, so the two constructions see consistent geometry.
    ``GraphSpace(nodes, edges)`` (alias :meth:`from_graph`) checks the edges
    and connectivity once and stores ``edges``, the checked (i, j, w) arrays
    of ``validate_edges``, and ``adj``, the symmetric CSR matrix of edge
    lengths.  ``D`` is computed from it on first access and cached: one
    n x n float64 array from one Dijkstra call over all sources, then
    symmetrized in place to 0.5 * (d + d.T) and made read-only.
    ``distance_to`` runs one multi-source Dijkstra and ``lipschitz`` reads
    the edges, so neither builds the n x n matrix.  Dijkstra runs in
    directed mode: ``adj`` holds both arcs of every edge, and the
    undirected mode would scan each arc twice for the same distances.
    """

    def __init__(self, nodes: int, edges):
        nodes = as_index(nodes, "nodes")
        i, j, w = self.edges = validate_edges(nodes, edges)
        ends = (np.concatenate([i, j]), np.concatenate([j, i]))
        self.adj = sp.coo_matrix((np.concatenate([w, w]), ends), shape=(nodes, nodes)).tocsr()
        if connected_components(self.adj, directed=False, return_labels=False) > 1:
            raise ConstructionError("graph is not connected; metric undefined")

    @classmethod
    def from_graph(cls, nodes: int, edges) -> "GraphSpace":
        return cls(nodes, edges)

    def __repr__(self) -> str:
        return f"GraphSpace(nodes={self.n}, edges={self.edges[0].size})"

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def D(self) -> np.ndarray:
        d = dijkstra(self.adj, directed=True)
        _symmetrize(d)
        return d

    def distance_to(self, indices) -> np.ndarray:
        """d(x, S) for every x by one multi-source Dijkstra, O(m log n)."""
        return dijkstra(self.adj, directed=True, min_only=True,
                        indices=as_index_set(indices, self.n, "distance_to"))

    def lipschitz(self, v) -> float:
        """Lip(v) = max over edges (i, j) of |v_i - v_j| / w_ij; 0.0 without edges.

        This is the pairwise maximum over the shortest-path metric: an edge
        has d(i, j) <= w_ij, and a shortest path is a chain of edges with
        w = d whose increments each stay within the largest edge ratio.
        """
        v = as_vector(v, "v", self.n)
        i, j, w = self.edges
        return float(np.max(np.abs(v[i] - v[j]) / w, initial=0.0))

    @cached_property
    def dirichlet_energy(self) -> QuadraticEnergy:
        """Laplacian energy of the full graph (no pinned nodes), from the checked edges."""
        return assemble_dirichlet(self.n, self.edges)


def hopf_lax(space: FiniteMetricSpace, psi, t: float) -> np.ndarray:
    """(Q_t psi)_x = min_y d(x,y)^2/(2t) + psi_y.  Requires t > 0.

    Reads D HOPF_LAX_BLOCK rows at a time through one reused
    HOPF_LAX_BLOCK x n scratch array, its only temporary.
    """
    if not t > 0:
        raise PreconditionError(f"Hopf-Lax time t = {t} must be positive")
    psi = as_vector(psi, "psi", space.n)
    d, scale = space.D, 2.0 * t
    out = np.empty(space.n)
    scratch = np.empty((min(HOPF_LAX_BLOCK, space.n), space.n))
    for s in range(0, space.n, HOPF_LAX_BLOCK):
        rows = d[s:s + HOPF_LAX_BLOCK]
        block = scratch[:rows.shape[0]]
        np.square(rows, out=block)
        block /= scale
        block += psi
        np.min(block, axis=1, out=out[s:s + HOPF_LAX_BLOCK])
    return out


def c_transform(space: FiniteMetricSpace, psi) -> np.ndarray:
    """psi^c = Q_1(-psi)."""
    return hopf_lax(space, -as_vector(psi, "psi"), 1.0)


def _c_transform_and_defect(space: FiniteMetricSpace, phi: np.ndarray):
    """(phi^c, max|phi^cc - phi|) from two c-transforms."""
    phi_c = c_transform(space, phi)
    return phi_c, float(np.max(np.abs(c_transform(space, phi_c) - phi)))


def is_c_concave(space: FiniteMetricSpace, phi, tol: float = CC_TOL) -> CheckResult:
    """phi is c-concave iff phi^cc = phi (phi^cc >= phi always holds)."""
    _, defect = _c_transform_and_defect(space, as_vector(phi, "phi"))
    return CheckResult(defect <= tol, defect)


def _absorb_crossing(lo: np.ndarray, hi: np.ndarray, bound: float, message: str) -> np.ndarray:
    """max(hi, lo) if lo crosses hi by at most ``bound``, else ObstacleOrderError.

    Cut-off obstacles lie in [0, 1] and take 4 eps; Kantorovich bounds scale
    with the potential and take 1e-12 (1 + max|lo| + max|hi|).
    """
    violation = float(np.max(lo - hi))
    if violation > bound:
        raise ObstacleOrderError(message, violation=violation, lo=lo, hi=hi)
    return np.maximum(hi, lo)


def cutoff_obstacles(space: FiniteMetricSpace, core, region,
                     paper_radius: bool = False):
    """Distance-profile obstacles for the cut-off construction.

    With r^2 = D0^2/4, D0 the distance from the core to the complement of the
    region, the obstacles

        phi = 1 - min(1, d(., core)^2 / (2 r^2)),
        psi = min(1, d(., X \\ region)^2 / (2 r^2))

    are both exactly 1 on the core and exactly 0 off the region.  In exact
    arithmetic phi <= psi on every metric space: d(., core) + d(., X \\ region)
    >= D0 gives d(., core)^2 + d(., X \\ region)^2 >= D0^2/2 = 2 r^2, with
    equality at metric midpoints.  In floats the two sides round apart
    there, so phi may exceed psi by a few ulps; :func:`_absorb_crossing`
    lifts psi to phi where they cross by at most 4 eps, which leaves the
    pins as they are.  ``paper_radius=True`` selects r^2 = D0^2/2 instead,
    which admits phi > psi by O(1) at metric midpoints
    (e.g. 0.5 on a 5-node path with core {2} and region {1,2,3}); a crossing
    above 4 eps raises ObstacleOrderError carrying the offending obstacles.

    Returns (phi, psi, r2).
    """
    n = space.n
    c_idx = as_index_set(core, n, "core")
    o_idx = as_index_set(region, n, "region")
    if not c_idx:
        raise ConstructionError("core set must be nonempty")
    if not set(c_idx) <= set(o_idx):
        raise ConstructionError("core must be contained in the region")
    out_idx = sorted(set(range(n)) - set(o_idx))
    if not out_idx:
        raise ConstructionError("region must have a nonempty complement")
    d_core = space.distance_to(c_idx)
    d_out = space.distance_to(out_idx)
    d0 = float(np.min(d_core[out_idx]))
    r2 = d0 * d0 / 2.0 if paper_radius else d0 * d0 / 4.0
    phi = 1.0 - np.minimum(1.0, d_core ** 2 / (2.0 * r2))
    psi = np.minimum(1.0, d_out ** 2 / (2.0 * r2))
    psi = _absorb_crossing(phi, psi, 4.0 * np.finfo(float).eps,
                           "cut-off obstacles violate phi <= psi"
                           + (" (expected with the alternative radius)" if paper_radius else ""))
    return phi, psi, r2


def _require_graph_space(space) -> GraphSpace:
    if not isinstance(space, GraphSpace):
        raise PreconditionError(
            "this construction needs a graph-backed space (GraphSpace)"
        )
    return space


def _certified_solve(space: GraphSpace, box: OrderInterval, tol: float,
                     max_iter: int, cert_tol: float | None):
    energy = space.dirichlet_energy
    sol = solve_newton(energy, box, tol=tol, max_iter=max_iter)
    if not sol.converged:
        raise SolverError(f"Newton solve did not converge within {max_iter} steps "
                          f"(kkt residual {sol.kkt_residual:.3e})")
    cert = ls_certificate(energy, box, sol, 10.0 * tol if cert_tol is None else cert_tol)
    if not cert.passed:
        raise CertificateError(
            f"Lewy-Stampacchia certificate failed (min slacks "
            f"{cert.lower_slack_min:.3e}, {cert.upper_slack_min:.3e})"
        )
    return sol, cert


@dataclass(frozen=True, eq=False)
class Cutoff:
    """Result of :func:`build_cutoff`; ``solution.u`` is the cut-off function."""

    phi: np.ndarray
    psi: np.ndarray
    r2: float
    solution: Solution
    certificate: LSCertificate


def build_cutoff(space: GraphSpace, core, region, tol: float = 1e-9,
                 max_iter: int = 1000, paper_radius: bool = False,
                 cert_tol: float | None = None) -> Cutoff:
    """Cut-off function with certified Laplacian bound, as a :class:`Cutoff`.

    Minimizes the graph Dirichlet energy over the obstacle interval from
    :func:`cutoff_obstacles` by :func:`solvers.solve_newton`.  Its Laplacian
    max-norm is bounded by ``certificate.obstacle_bound`` up to the
    certificate tolerance ``cert_tol`` (default ``10 * tol``, as in ``obslat
    solve``).  Raises ObstacleOrderError when the obstacles cross,
    SolverError when the solve does not converge and CertificateError when
    the certificate fails.  Neither the bound nor the pins need a check of
    their own.  A passing certificate puts grad E(u) between
    (grad E(hi) ∧ 0) - tol and (grad E(lo) ∨ 0) + tol, up to the rounding of
    one subtraction, so sup|L(u)| <= obstacle_bound + tol.  And
    phi = 1.0 on the core and psi = 0.0 off the region by formula, so
    0 <= phi <= psi <= 1 forces lo = hi there, and every solver returns
    ``clamp(u, box)``, which lands on them bit for bit.
    """
    space = _require_graph_space(space)
    phi, psi, r2 = cutoff_obstacles(space, core, region, paper_radius=paper_radius)
    sol, cert = _certified_solve(space, OrderInterval(phi, psi), tol, max_iter, cert_tol)
    return Cutoff(phi=phi, psi=psi, r2=r2, solution=sol, certificate=cert)


@dataclass(frozen=True, eq=False)
class PotentialPair:
    """c-concave potential with its c-transform and interpolation bounds.

    ``lo = -Q_t(-phi)`` and ``hi = Q_{1-t}(-phi^c)``; the coincidence set
    collects the indices where the two bounds agree to COINCIDENCE_TOL.
    Built by :func:`kantorovich_regularize` through :func:`_absorb_crossing`,
    whose ``np.maximum(hi, lo)`` makes lo <= hi hold bit for bit, so the
    pair does not check it again.
    """

    phi: np.ndarray
    phi_c: np.ndarray
    t: float
    lo: np.ndarray
    hi: np.ndarray
    coincidence_set: np.ndarray


def _interpolation_bounds(space: FiniteMetricSpace, phi, t: float, cc_regularize: bool = False):
    """(phi, phi^c, lo, hi) with unabsorbed bounds lo = -Q_t(-phi), hi = Q_{1-t}(-phi^c).

    t must lie in (0, 1); phi becomes phi^cc with ``cc_regularize``, else a defect
    above CC_TOL raises an error naming cc_regularize, also the CLI config key.
    hi - lo is the duality slack bit for bit: b - (-a) == b + a.
    """
    if not 0.0 < t < 1.0:
        raise PreconditionError(f"interpolation time t = {t} must lie in (0, 1)")
    phi = as_vector(phi, "phi")
    if cc_regularize:
        phi = c_transform(space, c_transform(space, phi))
        phi_c = c_transform(space, phi)
    else:
        phi_c, defect = _c_transform_and_defect(space, phi)
        if defect > CC_TOL:
            raise PreconditionError(f"phi is not c-concave (defect {defect:.3e}); "
                                    "pass cc_regularize=True to project it")
    return phi, phi_c, -hopf_lax(space, -phi, t), hopf_lax(space, -phi_c, 1.0 - t)


def kantorovich_regularize(space: GraphSpace, phi, t: float, tol: float = 1e-9,
                           max_iter: int = 1000, cc_regularize: bool = False,
                           cert_tol: float | None = None):
    """Regularized potential at interpolation time t in (0, 1).

    ``phi`` must be c-concave to CC_TOL (pass ``cc_regularize=True`` to use
    its double c-transform instead).  The minimizer eta of the graph
    Dirichlet energy over [-Q_t(-phi), Q_{1-t}(-phi^c)], found by
    :func:`solvers.solve_newton`, clamps to both bounds on their
    coincidence set, where -t*eta and (1-t)*eta restrict c-concave
    functions.  This needs no check: solvers return ``clamp(u, box)``, so
    lo <= eta <= hi, and rounded subtraction is monotone, so there
    |eta - lo| <= hi - lo <= COINCIDENCE_TOL.
    The certificate tolerance ``cert_tol`` defaults to ``10 * tol``.  Raises
    PreconditionError (bad t, phi not c-concave), ObstacleOrderError (bounds
    crossed beyond rounding), SolverError (unconverged solve) and
    CertificateError (failed certificate).  Returns (eta, PotentialPair, certificate).
    """
    space = _require_graph_space(space)
    phi, phi_c, lo, hi = _interpolation_bounds(space, phi, t, cc_regularize)
    scale = 1.0 + float(np.max(np.abs(lo)) + np.max(np.abs(hi)))
    hi = _absorb_crossing(lo, hi, 1e-12 * scale,
                          "interpolation bounds crossed beyond rounding; metric invariant bug")
    pair = PotentialPair(phi=phi, phi_c=phi_c, t=float(t), lo=lo, hi=hi,
                         coincidence_set=np.flatnonzero(np.abs(hi - lo) <= COINCIDENCE_TOL))
    sol, cert = _certified_solve(space, OrderInterval(lo, hi), tol, max_iter, cert_tol)
    return sol.u, pair, cert


def interpolation_duality_check(space: FiniteMetricSpace, phi, t: float,
                                tol: float = 1e-12) -> CheckResult:
    """Q_t(-phi) + Q_{1-t}(-phi^c) >= 0 everywhere, for c-concave phi.

    Holds on any metric space since d(y,z)^2 <= d(x,y)^2/t + d(x,z)^2/(1-t).
    Returns the minimum slack, the least hi - lo of the unabsorbed bounds.
    """
    _, _, lo, hi = _interpolation_bounds(space, phi, t)
    m = float(np.min(hi - lo))
    return CheckResult(m >= -tol, m)


def coincidence_cc_report(space: FiniteMetricSpace, pair: PotentialPair,
                          eta) -> dict:
    """c-concavity defects of the scaled minimizer on the coincidence set.

    ``derived_*`` entries measure the provable identities
    (-t eta)^cc = -t eta and ((1-t) eta)^cc = (1-t) eta on the coincidence
    set; ``coincidence_size`` is the size of that set.  Nothing raises here.
    """
    eta = as_vector(eta, "eta")
    idx = pair.coincidence_set

    def defect(v: np.ndarray) -> float:
        if idx.size == 0:
            return 0.0
        vcc = c_transform(space, c_transform(space, v))
        return float(np.max(np.abs(vcc[idx] - v[idx])))

    t = pair.t
    return {
        "derived_minus_t_eta": defect(-t * eta),
        "derived_one_minus_t_eta": defect((1.0 - t) * eta),
        "coincidence_size": int(idx.size),
    }
