"""Machine-checkable verdicts about solved obstacle problems.

The central object is the Lewy-Stampacchia certificate: for a convex
submodular energy E minimized at u over [lo, hi], the gradient of E at the
minimizer is squeezed between the negative part of the gradient at the upper
obstacle and the positive part of the gradient at the lower obstacle,

    grad E(hi) ∧ 0  <=  grad E(u)  <=  grad E(lo) ∨ 0   componentwise.

Written with the discrete Laplacian L = -grad E this is the familiar
L(lo) ∧ 0 <= L(u) <= L(hi) ∨ 0.  The ∧ and ∨ are the dual lattice's, and
the dual of R^n under the Euclidean pairing is R^n in the componentwise
order (the Riesz-Kantorovich sup of <l, z> + <m, x - z> over 0 <= z <= x
sits at a vertex, where it is <l ∨ m, x>), so they are componentwise min
and max with zero.  The certificate stores both slack vectors
and passes when neither dips below -tol.  Gradients are always recomputed
here from the energy, never read off the solver output, so the verdict is
independent of solver internals.  Strictly free means lo < u < hi: solvers
return ``clamp(u, box)``, so an index on an obstacle equals it exactly, as
in ``solvers.classify_active``.

One-sided problems mark the missing obstacle with +-1e30 (see
``lattice.UNBOUNDED``); the corresponding obstacle gradient is then replaced
by the zero functional, which certifies the one-sided inequalities
grad E(u) >= 0 (no upper obstacle) resp. grad E(u) <= 0 (no lower obstacle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .energies import QuadraticEnergy
from .errors import CertificateError, PreconditionError
from .lattice import OrderInterval, as_vector
from .solvers import Solution, _check_box_dim


@dataclass(frozen=True, eq=False)
class LSCertificate:
    """Slack vectors of the Lewy-Stampacchia inequality at a minimizer.

    ``lower_slack = g_u - (g_hi ∧ 0)`` and ``upper_slack = (g_lo ∨ 0) - g_u``
    must both be >= -tol componentwise for the certificate to pass.  For an
    absent obstacle side the corresponding obstacle gradient is zero (see
    module docstring) and the flag ``lower_present`` / ``upper_present``
    records the substitution.  ``u`` is the point certified.
    """

    u: np.ndarray
    g_u: np.ndarray
    g_lo: np.ndarray | None
    g_hi: np.ndarray | None
    lower_slack: np.ndarray
    upper_slack: np.ndarray
    tol: float
    passed: bool
    lower_present: bool
    upper_present: bool

    @property
    def lower_slack_min(self) -> float:
        return float(np.min(self.lower_slack))

    @property
    def upper_slack_min(self) -> float:
        return float(np.min(self.upper_slack))

    @property
    def obstacle_bound(self) -> float:
        """max(|L(lo) ∧ 0|, |L(hi) ∨ 0|), absent sides 0: bounds sup|L(u)| up to tol."""
        lo = 0.0 if self.g_lo is None else float(np.max(np.abs(np.minimum(-self.g_lo, 0.0))))
        hi = 0.0 if self.g_hi is None else float(np.max(np.abs(np.maximum(-self.g_hi, 0.0))))
        return max(lo, hi)

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "tol": self.tol,
            "lower_slack_min": self.lower_slack_min,
            "upper_slack_min": self.upper_slack_min,
            "lower_obstacle_present": self.lower_present,
            "upper_obstacle_present": self.upper_present,
        }


def ls_certificate(energy, box: OrderInterval, solution: Solution, tol: float) -> LSCertificate:
    """Issue the Lewy-Stampacchia certificate for a converged solve.

    Refuses unconverged solutions: the inequality is a statement about
    minimizers, and certifying an arbitrary iterate would be meaningless.
    """
    if not solution.converged:
        raise CertificateError("refusing to certify an unconverged solution")
    _check_box_dim(energy, box)
    g_u = np.asarray(energy.gradient(solution.u))
    g_lo = None if box.lower_absent else np.asarray(energy.gradient(box.lo))
    g_hi = None if box.upper_absent else np.asarray(energy.gradient(box.hi))
    hi_neg = np.zeros(box.n) if g_hi is None else np.minimum(g_hi, 0.0)
    lo_pos = np.zeros(box.n) if g_lo is None else np.maximum(g_lo, 0.0)
    lower_slack = g_u - hi_neg
    upper_slack = lo_pos - g_u
    passed = bool(np.min(lower_slack) >= -tol and np.min(upper_slack) >= -tol)
    return LSCertificate(
        u=solution.u, g_u=g_u, g_lo=g_lo, g_hi=g_hi,
        lower_slack=lower_slack, upper_slack=upper_slack,
        tol=float(tol), passed=passed,
        lower_present=g_lo is not None, upper_present=g_hi is not None,
    )


def free_set_harmonicity(energy, box: OrderInterval, solution,
                         tol: float) -> tuple[bool, int | None, float]:
    """Zero gradient on the strictly free set, up to tol.

    Returns (passed, worst_index, worst_value); the index is None when no
    component is strictly free (vacuous pass).  Strictly free means
    lo_i < u_i < hi_i, which for u in the box are the indices
    ``solvers.classify_active`` calls free.  ``solution`` may be a Solution
    or the minimizer vector itself.
    """
    u = as_vector(solution.u if isinstance(solution, Solution) else solution, "u", box.n)
    return _free_harmonicity(box, u, np.asarray(energy.gradient(u)), tol)


def _free_harmonicity(box: OrderInterval, u: np.ndarray, g: np.ndarray, tol: float):
    strict = (box.lo < u) & (u < box.hi)
    if not np.any(strict):
        return True, None, 0.0
    viol = np.where(strict, np.abs(g), -np.inf)
    worst = int(np.argmax(viol))
    return bool(viol[worst] <= tol), worst, float(viol[worst])


def harmonic_extension(energy: QuadraticEnergy, boundary_values) -> np.ndarray:
    """Solve A u = -coupling @ boundary_values on the free nodes.

    ``energy`` must come from ``graph_dirichlet`` with a nonempty pinned set
    so the coupling block is available.
    """
    if energy.coupling is None:
        raise PreconditionError(
            "harmonic extension needs an energy built by graph_dirichlet with a boundary"
        )
    vals = as_vector(boundary_values, "boundary_values", energy.coupling.shape[1])
    rhs = -energy.coupling @ vals
    return spla.spsolve(energy.a.tocsc(), rhs)


def maximum_principle_check(energy: QuadraticEnergy, boundary_values,
                            interior_solution) -> tuple[bool, float]:
    """Discrete maximum principle for a harmonic extension.

    Verifies that ``interior_solution`` actually solves the extension system
    (else raises), then checks every interior value lies within
    [min(boundary) - 1e-9, max(boundary) + 1e-9].  Returns (passed, worst
    overshoot).
    """
    if energy.coupling is None:
        raise PreconditionError(
            "maximum principle check needs an energy built by graph_dirichlet with a boundary"
        )
    vals = as_vector(boundary_values, "boundary_values", energy.coupling.shape[1])
    u = as_vector(interior_solution, "interior_solution", energy.n)
    rhs = -energy.coupling @ vals
    residual = float(np.max(np.abs(energy.a @ u - rhs)))
    scale = 1.0 + float(np.max(np.abs(rhs)))
    if residual > 1e-7 * scale:
        raise CertificateError(
            f"interior values do not solve the harmonic system (residual {residual:.3e})"
        )
    tol = 1e-9
    overshoot = max(
        float(np.max(u) - np.max(vals)),
        float(np.min(vals) - np.min(u)),
        0.0,
    )
    passed = bool(np.all(u >= np.min(vals) - tol) and np.all(u <= np.max(vals) + tol))
    return passed, overshoot


def lipschitz_ratio(metric, u, lo, hi) -> float:
    """Lip(u) / max(Lip(lo), Lip(hi)) over a finite metric space.

    Lip(v) = max_{x != y} |v_x - v_y| / d(x, y), from ``metric.lipschitz``.
    On a GraphSpace that is max over edges |v_i - v_j| / w_ij, which equals
    the pairwise maximum: d(i, j) <= w_ij bounds each edge ratio by a pair
    ratio, and every shortest path is a chain of edges with w = d, along
    which |v_x - v_y| <= (largest edge ratio) * d(x, y).  Returns +inf when
    the obstacles are constant but u is not, and 0.0 when u is constant.
    This is a measurement, not a certified bound: the constants in the
    corresponding continuum estimate are not computable here.
    """
    u = as_vector(u, "u", metric.n)
    lo, hi = as_vector(lo, "lo", metric.n), as_vector(hi, "hi", metric.n)
    lip_u = metric.lipschitz(u)
    lip_obs = max(metric.lipschitz(lo), metric.lipschitz(hi))
    if lip_obs == 0.0:
        return float("inf") if lip_u > 0.0 else 0.0
    return lip_u / lip_obs


def certificate_report(energy, box: OrderInterval, solution,
                       cert: LSCertificate, metric=None) -> dict:
    """JSON-ready summary combining the certificate with derived checks.

    ``solution`` may be a Solution or the minimizer vector, and ``cert`` is
    its certificate under ``energy`` (a certificate issued for another point
    raises CertificateError).  The Laplacian and the free-set harmonicity are
    read from ``cert.g_u``, the gradient the certificate recomputed from the
    energy, so ``energy`` itself is not evaluated again.  The Lipschitz ratio
    is measured only when a metric is supplied and both obstacle sides are
    present; it is a report field, never an asserted bound.
    """
    u = as_vector(solution.u if isinstance(solution, Solution) else solution, "u", box.n)
    if not np.array_equal(cert.u, u):
        raise CertificateError("the certificate was issued for another point")
    harm_ok, _, harm_worst = _free_harmonicity(box, u, cert.g_u, 10 * cert.tol)
    report = cert.to_json_dict()
    report["sup_laplacian"] = float(np.max(np.abs(cert.g_u)))
    report["free_harmonicity"] = harm_ok
    report["free_harmonicity_worst"] = harm_worst
    if metric is not None and not box.lower_absent and not box.upper_absent:
        report["lipschitz_ratio"] = lipschitz_ratio(metric, u, box.lo, box.hi)
    else:
        report["lipschitz_ratio"] = None
    return report
