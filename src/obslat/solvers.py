"""Minimizers for convex energies over an order interval [lo, hi].

The library solves by :func:`solve_newton`, projected Newton (Bertsekas
1982), for any energy with a Hessian: quadratic energies, and kernel
energies with any p > 1, whose Hessian is a model with a floor at ties
below p = 2.  Each step solves the free block of the Hessian exactly
(shifted by a small multiple of the identity where it is singular), so it
ends on the exact active set in a few steps.  :func:`brute_force_active_set`
enumerates all activity patterns for n <= 12; slow and completely
independent of the iterative solvers, it is the audit oracle (``obslat
oracle``).

:func:`solve_psor` (projected SOR) and :func:`solve_projected_gradient`
(spectral projected gradient) are benchmark fixtures: nothing in the
package calls them, and they stay while the benchmark times them by name.
The suite's monotone audit runs PSOR's sweep, :func:`_psor_sweep`.

Projected Newton and projected gradient are two direction rules of one
loop, :func:`_descend`, with one stop rule, KKT residual <= tol, and one
retry along -grad.  It evaluates candidates through ``energy.evaluate(u)``,
which gives E(u) and the gradient as a deferred call, so a rejected
candidate costs the value alone.

All solvers report their first-order optimality through
:func:`kkt_residual`.  Every solver returns ``clamp(u, box)``, so an index
sits on its obstacle exactly when it equals the bound: the active sets, the
KKT residual and the Newton step all decide that by exact comparison with
the bounds (:func:`_on_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energies import QuadraticEnergy, csr_block, z_matrix_violation
from .errors import DimensionMismatch, PreconditionError, SolverError
from .lattice import OrderInterval, as_vector, clamp

#: Containment slack for precondition checks (relative to bound magnitude).
FEAS_RTOL = 1e-12

#: Multiplier sign tolerance in the brute-force KKT scan.
ORACLE_SIGN_TOL = 1e-10

#: Armijo line-search constants (shrink, decrease, floor); the first step is 1.
ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
ARMIJO_FLOOR = 1e-14

#: Safeguards of the spectral step length of projected gradient: lambda is
#: clipped to [SPECTRAL_MIN, SPECTRAL_MAX], and is SPECTRAL_MAX where the
#: curvature s . y is not positive (Birgin, Martínez & Raydan 2000).
SPECTRAL_MIN = 1e-30
SPECTRAL_MAX = 1e30

#: An LU pivot of a free Hessian block below this fraction of the largest
#: pivot marks the block as singular (the constants of a graph Laplacian
#: leave a pivot of about 1e-14 relative, not an exact zero).
PIVOT_RTOL = 1e-10

#: A singular free Hessian block is shifted by this fraction of its largest
#: diagonal entry times the identity before it is solved.
SHIFT_RTOL = 1e-8

#: Rise of E, relative to |E|, that counts as rounding: a candidate of the
#: arc search rising no further is accepted when its KKT residual falls.
ENERGY_ROUND_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class Solution:
    """Minimizer with its gradient, active-set partition and KKT residual."""

    u: np.ndarray
    grad: np.ndarray
    active_lower: np.ndarray
    active_upper: np.ndarray
    free: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "u": self.u.tolist(),
            "grad": self.grad.tolist(),
            "active_lower": self.active_lower.tolist(),
            "active_upper": self.active_upper.tolist(),
            "free": self.free.tolist(),
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _on_bounds(u: np.ndarray, box: OrderInterval):
    """Masks (lower, upper) of the indices sitting exactly on lo and on hi.

    An index on both bounds (lo == hi) counts as lower.  Exact comparison
    matches the clamp arithmetic of the solvers, which puts a pinned index on
    its bound bit for bit.
    """
    lower = u == box.lo
    return lower, (u == box.hi) & ~lower


def classify_active(u, box: OrderInterval):
    """Partition indices into (active_lower, active_upper, free)."""
    lower, upper = _on_bounds(as_vector(u, "u", box.n), box)
    return np.flatnonzero(lower), np.flatnonzero(upper), np.flatnonzero(~(lower | upper))


def _kkt_from_gradient(u: np.ndarray, box: OrderInterval, g: np.ndarray) -> float:
    lower, upper = _on_bounds(u, box)
    # |g| except where the sign condition holds: g >= 0 on lo, g <= 0 on hi,
    # anything where lo == hi; no entry is -0.0, and NaN stays NaN
    r = np.abs(g)
    r[(lower & (g >= 0.0)) | (upper & (g <= 0.0)) | (box.lo == box.hi)] = 0.0
    return float(np.max(r))


def _slack_bounds(lo: np.ndarray, hi: np.ndarray):
    """lo and hi widened by FEAS_RTOL relative to each side's own magnitude.

    One side's slack must not depend on the other: an absent side sits at
    1e30 and would widen a finite side by 1e18.
    """
    return lo - FEAS_RTOL * (1.0 + np.abs(lo)), hi + FEAS_RTOL * (1.0 + np.abs(hi))


def kkt_residual(energy, box: OrderInterval, u) -> float:
    """Max-norm violation of box-constrained first-order optimality.

    Free indices contribute |grad_i|, lower-active ones max(0, -grad_i),
    upper-active ones max(0, grad_i), pinned (lo = hi) indices nothing.
    """
    u = as_vector(u, "u", box.n)
    floor, ceil = _slack_bounds(box.lo, box.hi)
    if np.any(u < floor) or np.any(u > ceil):
        raise PreconditionError("point lies outside the interval")
    return _kkt_from_gradient(u, box, np.asarray(energy.gradient(u)))


def _make_solution(energy, box: OrderInterval, u: np.ndarray, iterations: int,
                   converged: bool, g=None) -> Solution:
    # g, when given, is the gradient at u, which already lies in the box
    u = clamp(u, box)
    g = np.asarray(energy.gradient(u)) if g is None else g
    lower, upper, free = classify_active(u, box)
    res = _kkt_from_gradient(u, box, g)
    u.setflags(write=False)
    g.setflags(write=False)
    return Solution(u=u, grad=g, active_lower=lower, active_upper=upper,
                    free=free, kkt_residual=res, iterations=iterations,
                    converged=converged)


def _psor_rows(a) -> list:
    """Each CSR row's off-diagonal ``(column, value)`` pairs, in CSR order."""
    indptr, indices, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    return [[(j, v) for j, v in zip(indices[s:e], data[s:e]) if j != i]
            for i, (s, e) in enumerate(zip(indptr, indptr[1:]))]


def _psor_sweep(rows, diag, b, lo, hi, u, omega):
    # Gauss-Seidel exclusion form of u_i <- u_i - omega (Au + b)_i / A_ii:
    # the diagonal term is kept out of the row sum so the unrelaxed sweep is
    # exactly monotone in the iterate (no u_i cancellation noise).  The
    # arguments are Python lists: scalar arithmetic on Python floats rounds
    # like numpy float64 and costs a fraction of numpy scalar indexing.
    for i, row in enumerate(rows):
        acc = b[i]
        for j, v in row:
            acc += v * u[j]
        x_gs = -acc / diag[i]
        if omega == 1.0:
            x = x_gs
        else:
            x = u[i] + omega * (x_gs - u[i])
        if x < lo[i]:
            x = lo[i]
        elif x > hi[i]:
            x = hi[i]
        u[i] = x


def _check_box_dim(energy, box: OrderInterval) -> None:
    """The one check that a box and an energy live on the same n points."""
    if box.n != energy.n:
        raise DimensionMismatch(f"interval length {box.n} != energy dimension {energy.n}")


def solve_psor(energy: QuadraticEnergy, box: OrderInterval, tol: float = 1e-9,
               max_iter: int = 20000) -> Solution:
    """Projected SOR with omega = 1.5 from clamp(0, box), a benchmark fixture.

    Sweeps u_i <- clamp(u_i - omega (Au + b)_i / A_ii) in index order
    (Gauss-Seidel style, partially updated u) and tests the KKT residual
    after every sweep.  Each row sums its off-diagonal terms in CSR order on
    Python floats, which round like numpy float64, so the iterates are those
    of the same sweep on numpy scalars, bit for bit.  Requires a strictly
    positive diagonal and a Z-matrix (no :func:`z_matrix_violation`) or
    strict diagonal dominance.  When ``max_iter`` is exhausted the partial
    iterate is returned with ``converged=False``.
    """
    if not isinstance(energy, QuadraticEnergy):
        raise SolverError("projected SOR needs a quadratic energy")
    _check_box_dim(energy, box)
    a = energy.a
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("projected SOR requires strictly positive diagonal entries")
    if z_matrix_violation(energy) is not None and not np.all(diag > abs(a).sum(axis=1).A1 - diag):
        raise SolverError("projected SOR requires a Z-matrix or strict diagonal dominance")
    u_arr = clamp(np.zeros(energy.n), box)
    rows = _psor_rows(a)
    b, lo, hi = energy.b.tolist(), box.lo.tolist(), box.hi.tolist()
    diag, u = diag.tolist(), u_arr.tolist()
    sweeps = 0
    converged = False
    while sweeps < max_iter:
        _psor_sweep(rows, diag, b, lo, hi, u, 1.5)
        sweeps += 1
        u_arr = np.array(u)
        if _kkt_from_gradient(u_arr, box, a @ u_arr + energy.b) <= tol:
            converged = True
            break
    return _make_solution(energy, box, u_arr, sweeps, converged)


def _factor_psd(h):
    """SuperLU factorization of the symmetric PSD ``h``, or None if singular.

    Singular means an exactly zero pivot or a smallest pivot below
    PIVOT_RTOL of the largest.
    """
    try:
        # h is symmetric PSD, so diagonal pivots are stable: a symmetric
        # ordering and no row interchanges
        lu = spla.splu(h, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        return None
    pivots = np.abs(lu.U.diagonal())
    return lu if np.min(pivots) > PIVOT_RTOL * np.max(pivots) else None


def _newton_direction(energy, u: np.ndarray, g: np.ndarray, free: np.ndarray):
    """d with H_FF d_F = -g_F and d = 0 off F, or None.

    Where H_FF is singular by its LU pivots, d_F solves the shifted block
    (H_FF + mu I) d_F = -g_F with mu = SHIFT_RTOL max diag(H_FF): positive
    definite, so d is a descent direction, and on eigenvectors of H_FF with
    eigenvalue lambda it is the Newton step scaled by lambda / (lambda + mu).
    None when F is empty, when H_FF is zero, or when d is not a descent
    direction (g . d >= 0, or not finite).
    """
    if not np.any(free):
        return None
    h = energy.hessian(u)
    if not np.all(free):
        h = csr_block(h, free, free)
    h = h.tocsc()
    lu = _factor_psd(h)
    if lu is None:
        mu = SHIFT_RTOL * float(np.max(h.diagonal()))
        if not mu > 0.0:
            return None
        lu = _factor_psd(h + mu * sp.identity(h.shape[0], format="csc"))
        if lu is None:
            return None
    d = np.zeros_like(u)
    d[free] = lu.solve(-g[free])
    if not float(g[free] @ d[free]) < 0.0:
        return None
    return d


def _start(energy, box: OrderInterval):
    """(u, E(u), gradient, KKT residual) at the start u = clamp(0, box)."""
    u = clamp(np.zeros(energy.n), box)
    f, gradient = energy.evaluate(u)
    g = gradient()
    return u, f, g, _kkt_from_gradient(u, box, g)


def _arc_search(energy, box: OrderInterval, u, f, g, res, d):
    """First acceptable point of the arc clamp(u + alpha d), alpha = 1, 1/2, ...

    A candidate is accepted when it passes the Armijo test with a negative
    slope g . (cand - u), or when its energy rises at most by rounding
    (ENERGY_ROUND_RTOL |E|) and its KKT residual is below ``res``: with
    bounds 1e-17 apart the true energy drop of a step onto the other bound
    lies far below the rounding of E.  Returns (cand, E, gradient, KKT
    residual), or None when alpha falls below ARMIJO_FLOOR.  Each candidate
    costs one ``energy.evaluate``; its gradient is computed only once one of
    the two tests needs it.  Only u + d is checked to be finite, as
    :func:`clamp` would, and it is the alpha = 1 candidate: for
    alpha = 2^-k <= 1, alpha d is exact and u + alpha d lies between u and
    u + d.
    """
    full = as_vector(u + d, "u", box.n)  # = u + 1.0 * d, bit for bit
    alpha = 1.0
    while alpha >= ARMIJO_FLOOR:
        cand = (full if alpha == 1.0 else u + alpha * d).clip(box.lo, box.hi)
        f_cand, gradient = energy.evaluate(cand)
        slope = float(g @ (cand - u))
        armijo = slope < 0.0 and f_cand <= f + ARMIJO_DECREASE * slope
        if armijo or f_cand - f <= ENERGY_ROUND_RTOL * abs(f):
            g_cand = gradient()
            res_cand = _kkt_from_gradient(cand, box, g_cand)
            if armijo or res_cand < res:
                return cand, f_cand, g_cand, res_cand
        alpha *= ARMIJO_SHRINK
    return None


def _descend(energy, box: OrderInterval, tol: float, max_iter: int, step_callback,
             direction) -> Solution:
    """Projected descent from clamp(0, box) along ``direction(u, g)``.

    Each step searches the arc clamp(u + alpha d), d = ``direction(u, g)``,
    from alpha = 1 (see :func:`_arc_search`), so E rises at most by
    rounding.  Where ``direction`` gives None or that search fails, it
    searches along -grad, and raises SolverError if that fails too.  Stops
    at KKT residual <= ``tol``, and ``converged`` says whether the returned
    iterate meets ``tol``.  ``max_iter`` bounds the steps of either direction.
    ``step_callback(u, E(u))`` gets a copy of each accepted iterate.
    """
    _check_box_dim(energy, box)
    u, f, g, res = _start(energy, box)
    steps = 0
    while res > tol and steps < max_iter:
        d = direction(u, g)
        step = None if d is None else _arc_search(energy, box, u, f, g, res, d)
        if step is None:
            step = _arc_search(energy, box, u, f, g, res, -g)
        if step is None:
            raise SolverError(
                "line search hit the backtracking floor without an energy decrease"
            )
        u, f, g, res = step
        steps += 1
        if step_callback is not None:
            step_callback(u.copy(), f)
    return _make_solution(energy, box, u, steps, res <= tol, g)


def solve_newton(energy, box: OrderInterval, tol: float = 1e-9, max_iter: int = 1000,
                 step_callback=None) -> Solution:
    """Projected Newton (Bertsekas, SIAM J. Control Optim. 20(2), 1982).

    The direction rule of :func:`_descend`, whose contract this follows:
    hold the indices with lo == hi and those on a bound whose gradient
    points outward (u_i = lo_i with g_i > 0, u_i = hi_i with g_i < 0), and
    on the free rest F solve H_FF d_F = -g_F, H = ``energy.hessian(u)``, by
    sparse LU (see :func:`_newton_direction` for a singular or zero H_FF).
    A full step on a quadratic energy is exact once the active set is
    right; with a Z-matrix Hessian the iteration then is the primal-dual
    active-set method of Hintermüller, Ito & Kunisch (SIAM J. Optim. 13(3),
    2003).  Below p = 2 a kernel energy gives a model Hessian, its true
    Hessian with ties floored (see ``KernelEnergy.hessian``); the arc search
    keeps each step a descent, and the -grad retry covers a failed one.
    """
    fixed = box.lo == box.hi

    def direction(u, g):
        lower, upper = _on_bounds(u, box)
        held = fixed | (lower & (g > 0.0)) | (upper & (g < 0.0))
        return _newton_direction(energy, u, g, ~held)

    return _descend(energy, box, tol, max_iter, step_callback, direction)


def solve_projected_gradient(energy, box: OrderInterval, tol: float = 1e-8,
                             max_iter: int = 50000, step_callback=None) -> Solution:
    """Spectral projected gradient (Birgin, Martínez & Raydan 2000).

    The direction rule of :func:`_descend`, whose contract this follows:
    d = -lambda_k grad, or None where that is not finite.  lambda_0 = 1;
    after that lambda_k = (s . s) / (s . y), s = u_k - u_{k-1},
    y = grad_k - grad_{k-1} (Barzilai & Borwein, IMA J. Numer. Anal. 8,
    1988), clipped to [SPECTRAL_MIN, SPECTRAL_MAX] and SPECTRAL_MAX where
    s . y <= 0 (SIAM J. Optim. 10(4)).  It scales like 1 / E, so the steps
    after the first do not grow or shrink with the scale of E.  There is no
    stop test on ||u - clamp(u - grad)||_inf: per index it is at most the
    KKT term, within half an ulp of u - grad, so it cannot decide a stop at
    any tol above rounding.
    """
    last = None  # (u, grad) of the previous step

    def direction(u, g):
        nonlocal last
        lam = 1.0
        if last is not None:
            s, y = u - last[0], g - last[1]
            sy = float(s @ y)
            lam = float(s @ s) / sy if sy > 0.0 else SPECTRAL_MAX
            lam = min(max(lam, SPECTRAL_MIN), SPECTRAL_MAX)
        last = u, g
        d = -lam * g
        return d if np.all(np.isfinite(d)) else None

    return _descend(energy, box, tol, max_iter, step_callback, direction)


def brute_force_active_set(energy: QuadraticEnergy, box: OrderInterval) -> Solution:
    """Enumerate every activity pattern and return the feasible KKT point.

    For each of the 3^n patterns (each index pinned low, pinned high, or
    free) the free block is solved exactly, feasibility and multiplier signs
    are checked, and the first pattern passing all checks wins; by convexity
    it is a global minimizer.  Patterns whose free block is singular are
    skipped.  Enumeration order is fixed, so the result is deterministic.
    """
    if not isinstance(energy, QuadraticEnergy):
        raise SolverError("the brute-force oracle needs a quadratic energy")
    _check_box_dim(energy, box)
    n = energy.n
    if n > 12:
        raise SolverError(f"brute-force enumeration is limited to n <= 12, got {n}")
    a = energy.a.toarray()
    b = energy.b
    lo, hi = box.lo, box.hi
    pinned_eq = lo == hi  # no sign condition where the box is a point
    floor, ceil = _slack_bounds(lo, hi)
    examined = 0
    for free_mask in range(1 << n):
        f_idx = np.array([i for i in range(n) if free_mask >> i & 1], dtype=int)
        p_idx = np.array([i for i in range(n) if not free_mask >> i & 1], dtype=int)
        n_p = p_idx.size
        cols = 1 << n_p
        side_bits = (np.arange(cols)[None, :] >> np.arange(n_p)[:, None]) & 1
        u_p = np.where(side_bits == 1, hi[p_idx, None], lo[p_idx, None])
        cand = np.empty((n, cols))
        cand[p_idx] = u_p
        if f_idx.size:
            rhs = -b[f_idx, None] - a[np.ix_(f_idx, p_idx)] @ u_p
            try:
                x = np.linalg.solve(a[np.ix_(f_idx, f_idx)], rhs)
            except np.linalg.LinAlgError:
                examined += cols
                continue
            cand[f_idx] = x
        examined += cols
        feasible = np.all((cand >= floor[:, None]) & (cand <= ceil[:, None]), axis=0)
        if not np.any(feasible):
            continue
        grad = a @ cand + b[:, None]
        ok = feasible.copy()
        if f_idx.size:
            ok &= np.all(np.abs(grad[f_idx]) <= ORACLE_SIGN_TOL, axis=0)
        if n_p:
            signable = ~pinned_eq[p_idx]
            low_side = (side_bits == 0) & signable[:, None]
            high_side = (side_bits == 1) & signable[:, None]
            ok &= np.all(np.where(low_side, grad[p_idx] >= -ORACLE_SIGN_TOL, True), axis=0)
            ok &= np.all(np.where(high_side, grad[p_idx] <= ORACLE_SIGN_TOL, True), axis=0)
        hits = np.flatnonzero(ok)
        if hits.size:
            u = cand[:, hits[0]]
            return _make_solution(energy, box, u, examined, True)
    raise SolverError("no feasible KKT pattern found (is the matrix PSD?)")
