"""Convex submodular energies on R^n.

Two families are provided:

* :class:`QuadraticEnergy` -- E(u) = 1/2 <Au,u> + <b,u> for a symmetric PSD
  matrix A.  The energy is submodular exactly when A is a Z-matrix
  (no positive off-diagonal entry, tested by :func:`z_matrix_violation`);
  graph Laplacians are the canonical source.
* :class:`KernelEnergy` -- E(u) = (1/p) [ sum_pairs w_ij |u_i-u_j|^p
  + sum_i d_i |u_i|^p ], the discrete analogue of a (fractional) Gagliardo
  p-energy with a truncated zero-extension collar carried by the d_i.

A is stored canonical (sorted indices, duplicates summed) and read-only.
Its certificate is one O(nnz) pass over the CSR arrays: squareness,
finiteness, symmetry, and PSD by Gershgorin's theorem (diagonal dominance,
true of every graph Laplacian) or, failing that and only up to
n = PSD_DENSE_MAX_N, by its smallest eigenvalue.

:func:`validate_edges` is the one check of an (i, j, w) list, returned as
arrays, and :func:`laplacian` the one assembly of a weighted graph Laplacian.

Both expose ``evaluate``, ``value``, ``gradient`` and ``hessian``.
``evaluate(u)`` returns ``(E(u), gradient)``: the zero-argument
``gradient()`` gives ``gradient(u)`` bit for bit from what the value already
computed (``a @ u``, or the pair differences and their absolute values;
u is not copied, so it must not change before the call).  A caller that
needs the gradient only sometimes pays for it only then.  A kernel gradient
sums each pair's term into both of its ends through a (2n x m) CSR operator
that the energy builds with its first gradient and keeps (two entries per
pair, 12 bytes each).  It adds in the order of ``np.bincount``, so its sums
equal two bincount passes bit for bit.

The module-level checks (:func:`submodularity_check`,
:func:`t_monotonicity_check`, :func:`z_matrix_violation`,
:func:`scalar_submodularity_inequality`) turn the structural assumptions
into testable verdicts.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError, PreconditionError
from .lattice import as_index, as_index_set, as_real, as_vector

#: Allowed asymmetry |A_ij - A_ji| in stored matrices, relative to
#: max(1, max |A_ij|).
SYMMETRY_TOL = 1e-12

#: Eigenvalues down to -PSD_TOL * max(1, max |A_ii|) count as zero.
PSD_TOL = 1e-10

#: Largest n for which a matrix that fails the Gershgorin test is certified
#: by a dense eigenvalue computation (O(n^3) time, O(n^2) memory); a larger
#: one is refused with a ConstructionError.
PSD_DENSE_MAX_N = 2000

#: Largest n and collar that :func:`fractional_kernel_1d` builds; a larger
#: one is refused with a ConstructionError before any array is made.  Every
#: pair interacts, so memory grows as n^2: at the cap, 2,096,128 pairs keep
#: 48 MiB of i, j, w arrays, and building them peaks near 170 MiB.  The
#: exterior sums take one vector addition of length n per collar point.
FRACTIONAL_1D_MAX_N = 2048
FRACTIONAL_1D_MAX_COLLAR = 4096


class CheckResult(NamedTuple):
    """Outcome of a pass/fail check together with the measured quantity."""

    passed: bool
    value: float


def validate_edges(nodes: int, edges) -> tuple:
    """Checked (i, j, w) arrays of an undirected weighted edge list.

    Each row is one (i, j, w) triple; (i, j) and (j, i) are one pair, which
    may be listed once.  i != j must be integers in range(nodes) (a string
    or a fractional end is refused), and w must be positive and finite.
    Returns read-only int64, int64 and float64 arrays of i, j and w in list
    order, each owning its data.
    """
    try:
        rows = np.asarray(edges)
    except ValueError:  # numpy refuses rows of unequal length
        raise ConstructionError("edges must be (i, j, w) triples, got rows of unequal length") from None
    if rows.dtype.kind not in "biuf":
        raise ConstructionError(f"edges must hold numbers, got {rows.dtype} entries")
    rows = rows.astype(float, copy=False)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ConstructionError(f"edges must be (i, j, w) triples, got shape {rows.shape}")
    ends, w = rows[:, :2], rows[:, 2].copy()
    fractional = np.any(ends != np.trunc(ends), axis=1)
    if fractional.any():
        k = int(fractional.argmax())
        raise ConstructionError(f"edge {k} has a non-integer end: ({ends[k, 0]!r}, {ends[k, 1]!r})")
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    order = np.lexsort((hi, lo))  # stable: a pair's first row comes first
    repeats = np.zeros(len(w), dtype=bool)
    repeats[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    for bad, why in ((lo == hi, "is a self-loop"),
                     (~((lo >= 0) & (hi < nodes)), f"is out of range for {nodes} nodes"),
                     (~((w > 0) & (w < np.inf)), "needs a positive finite weight, got {w}"),
                     (repeats, "repeats the pair ({lo:.0f},{hi:.0f})")):
        if bad.any():
            k = int(bad.argmax())
            raise ConstructionError(f"edge ({ends[k, 0]:.0f},{ends[k, 1]:.0f}) "
                                    + why.format(w=w[k], lo=lo[k], hi=hi[k]))
    i, j = ends[:, 0].astype(np.int64), ends[:, 1].astype(np.int64)
    for arr in (i, j, w):
        arr.setflags(write=False)
    return i, j, w


def laplacian(n: int, i, j, w, diag=None) -> sp.csr_matrix:
    """sum_k w_k (e_i - e_j)(e_i - e_j)^T + diag(d) as an n x n CSR matrix.

    The entries are listed pair by pair, (i,i), (j,j), (i,j), (j,i), with
    the diagonal d last, and summed in the order that scipy's COO to CSR
    conversion gives that list, which need not be the list order.  Equal
    inputs give bit-equal matrices.
    """
    d = np.zeros(0) if diag is None else diag
    k = np.arange(len(d))
    rows = np.concatenate([np.column_stack([i, j, i, j]).ravel(), k])
    cols = np.concatenate([np.column_stack([i, j, j, i]).ravel(), k])
    vals = np.concatenate([np.column_stack([w, w, -w, -w]).ravel(), d])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class QuadraticEnergy:
    """E(u) = 1/2 <Au,u> + <b,u> with symmetric PSD A stored sparse.

    The discrete Laplacian associated with the energy is
    L(u) = -(Au + b) = -gradient(u); it has no method of its own.  ``a`` is
    a private copy in canonical CSR form (sorted indices, duplicates summed)
    with read-only arrays, as are ``coupling`` (free-to-pinned block) and
    ``free_nodes``, which only :func:`graph_dirichlet` sets.  Entries come
    as a matrix or, through :meth:`from_triplets`, as (i, j, value) lists.

    The certificate is one pass over the arrays of ``a`` and its transpose.
    Asymmetry is max |A_ij - A_ji| entry by entry when both share one
    sparsity pattern (every graph Laplacian does) and is read from A - A^T
    otherwise; it may reach SYMMETRY_TOL * max(1, max |A_ij|).
    """

    def __init__(self, a, b=None, *, coupling=None, free_nodes=None):
        a = sp.csr_matrix(a, dtype=float, copy=True)
        a.sum_duplicates()
        if a.shape[0] != a.shape[1]:
            raise ConstructionError(f"matrix must be square, got {a.shape}")
        self.n = a.shape[0]
        if not np.all(np.isfinite(a.data)):
            raise ConstructionError("matrix entries must be finite")
        at = a.tocsc()  # the canonical CSR arrays of a.T
        if np.array_equal(at.indptr, a.indptr) and np.array_equal(at.indices, a.indices):
            asym = np.max(np.abs(a.data - at.data), initial=0.0)
        else:
            asym = np.max(abs(a - a.T).data, initial=0.0)
        tol = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(a.data), initial=0.0)))
        if asym > tol:
            raise ConstructionError(f"matrix asymmetry {asym:.3e} exceeds {tol:.3e}")
        rows = np.repeat(np.arange(self.n), np.diff(a.indptr))
        on_diag = rows == a.indices
        diag = np.zeros(self.n)
        diag[rows[on_diag]] = a.data[on_diag]
        tol = PSD_TOL * max(1.0, float(np.max(np.abs(diag), initial=0.0)))
        radius = np.bincount(rows[~on_diag], weights=np.abs(a.data[~on_diag]), minlength=self.n)
        # Gershgorin: a weakly diagonally dominant symmetric matrix is PSD.
        if not np.all(diag - radius >= -tol):
            if self.n > PSD_DENSE_MAX_N:
                raise ConstructionError(
                    f"matrix is not diagonally dominant and n = {self.n} exceeds "
                    f"PSD_DENSE_MAX_N = {PSD_DENSE_MAX_N}, the size cap of the "
                    "dense eigenvalue check"
                )
            if np.linalg.eigvalsh(a.toarray())[0] < -tol:
                raise ConstructionError("matrix failed the positive-semidefiniteness check")
        b = as_vector(np.zeros(self.n) if b is None else b, "b", self.n).copy()
        frozen = [b, a.data, a.indices, a.indptr]
        if coupling is not None:
            frozen += [coupling.data, coupling.indices, coupling.indptr]
        if free_nodes is not None:
            frozen.append(free_nodes)
        for arr in frozen:
            arr.setflags(write=False)
        self.a = a
        self.b = b
        self.coupling, self.free_nodes = coupling, free_nodes

    @classmethod
    def from_triplets(cls, n: int, triplets, b=None):
        """Build from (i, j, value) rows, duplicates summed; a malformed row raises ConstructionError."""
        n = as_index(n, "n")
        try:
            triplets = [(i, j, v) for i, j, v in triplets]
        except (TypeError, ValueError):  # not an iterable of three-entry rows
            raise ConstructionError("triplets must be a list of (i, j, value) rows") from None
        rows, cols, vals = [], [], []
        for i, j, v in triplets:
            i, j = as_index(i, "triplet index"), as_index(j, "triplet index")
            if not (0 <= i < n and 0 <= j < n):
                raise ConstructionError(f"triplet index ({i},{j}) out of range for n={n}")
            rows.append(i)
            cols.append(j)
            vals.append(as_real(v, "triplet value"))
        a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return cls(a, b)

    def evaluate(self, u) -> tuple:
        """(E(u), gradient), whose ``gradient()`` reuses ``a @ u``."""
        u = as_vector(u, "u", self.n)
        au = self.a @ u
        return float(0.5 * (u @ au) + self.b @ u), lambda: au + self.b

    def value(self, u) -> float:
        return self.evaluate(u)[0]

    def gradient(self, u) -> np.ndarray:
        u = as_vector(u, "u", self.n)
        return self.a @ u + self.b

    def hessian(self, u) -> sp.csr_matrix:
        """The constant Hessian ``a``."""
        return self.a


def graph_dirichlet(nodes: int, edges, dirichlet_set=()) -> QuadraticEnergy:
    """Dirichlet energy of a weighted graph with zero values pinned on a node set.

    Returns the quadratic energy of the graph Laplacian restricted to the free
    nodes (rows and columns of the pinned nodes deleted).  The coupling block
    between free and pinned nodes is kept on the result (``coupling``) so that
    harmonic extensions with nonzero boundary data can be formed later.
    """
    nodes = as_index(nodes, "nodes")
    return assemble_dirichlet(nodes, validate_edges(nodes, edges), dirichlet_set)


def assemble_dirichlet(nodes: int, clean_edges, dirichlet_set=()) -> QuadraticEnergy:
    """:func:`graph_dirichlet` for edges that :func:`validate_edges` already returned."""
    dirichlet = as_index_set(dirichlet_set, nodes, "dirichlet")
    is_free = np.ones(nodes, dtype=bool)
    is_free[dirichlet] = False
    if not is_free.any():
        raise ConstructionError("dirichlet_set covers every node; nothing to solve for")
    rows = laplacian(nodes, *clean_edges)[is_free]
    coupling = rows[:, ~is_free] if dirichlet else None
    return QuadraticEnergy(rows[:, is_free], coupling=coupling, free_nodes=np.flatnonzero(is_free))


class KernelEnergy:
    """Pairwise p-energy with exterior collar weights.

    E(u) = (1/p) [ sum_pairs w_ij |u_i - u_j|^p + sum_i d_i |u_i|^p ], convex
    and submodular for p > 1 since |.|^p is convex, and differentiable: |t|^p / p
    has derivative |t|^(p-2) t, 0 at t = 0.  The Hessian exists for p >= 2;
    below, :meth:`hessian` gives a model Hessian with a floor at ties.
    Each pair (i, j) is checked as an edge by :func:`validate_edges`, in
    either orientation (only the gradient's summation order sees it);
    exterior rows are (i, d_i), and finite entries for one index add up, to
    a finite d_i.  A malformed row of either raises ConstructionError.
    """

    def __init__(self, n: int, pairs, exterior, p: float):
        self.p = p = as_real(p, "p")
        if not 1 < p < np.inf:
            raise ConstructionError(f"p must be finite and exceed 1, got {p}")
        self.n = as_index(n, "n")
        if self.n < 1:
            raise ConstructionError("n must be >= 1")
        self.i, self.j, self.w = validate_edges(self.n, pairs)
        d = [0.0] * self.n  # Python floats: a sum that overflows is inf, without a warning
        try:
            exterior = [(i, di) for i, di in exterior]
        except (TypeError, ValueError):  # not an iterable of two-entry rows
            raise ConstructionError("exterior must be a list of (i, d_i) rows") from None
        for i, di in exterior:
            i, di = as_index(i, "exterior index"), as_real(di, "exterior weight")
            if not 0 <= i < self.n:
                raise ConstructionError(f"exterior index {i} out of range")
            if not 0 <= di < np.inf:
                raise ConstructionError(f"exterior weight d_{i} = {di} must be finite and >= 0")
            d[i] += di
            if d[i] == np.inf:
                raise ConstructionError(f"exterior weights of index {i} sum to inf, not a finite d_{i}")
        self.d = np.array(d)
        self.d.setflags(write=False)  # validate_edges froze i, j and w

    def evaluate(self, u) -> tuple:
        """(E(u), gradient), whose ``gradient()`` reuses the pair differences."""
        u = as_vector(u, "u", self.n)
        diffs = u[self.i] - u[self.j]
        dist, size = np.abs(diffs), np.abs(u)
        total = self.w @ dist ** self.p + self.d @ size ** self.p
        return float(total / self.p), lambda: self._gradient(u, diffs, dist, size)

    def value(self, u) -> float:
        return self.evaluate(u)[0]

    def gradient(self, u) -> np.ndarray:
        u = as_vector(u, "u", self.n)
        diffs = u[self.i] - u[self.j]
        return self._gradient(u, diffs, np.abs(diffs), np.abs(u))

    def _gradient(self, u, diffs, dist, size) -> np.ndarray:
        y = self._scatter @ self._terms(self.w, diffs, dist)
        # no entry of y[:n] - y[n:] is -0.0, so a zero exterior term keeps its bits
        return y[:self.n] - y[self.n:] + self._terms(self.d, u, size)

    def _terms(self, weight, x, size) -> np.ndarray:
        """d/dx weight |x|^p / p = weight |x|^(p-2) x (size = |x|), multiplied in that order.

        Below p = 2 it is weight sign(x) |x|^(p-1), which is 0 at x = 0 and
        finite at a subnormal x, where |x|^(p-2) is infinite or overflows.
        """
        if self.p >= 2:
            return weight * size ** (self.p - 2) * x
        return weight * np.copysign(size ** (self.p - 1), x)

    @cached_property
    def _scatter(self) -> sp.csr_matrix:
        """The (2n x m) 0/1 operator that sums pair terms t into their ends.

        Row k lists the pairs with i = k and row n + k those with j = k, each
        in pair order, so each entry of ``_scatter @ t`` is summed in the order
        of ``np.bincount(i, t)`` or ``np.bincount(j, t)``, bit for bit.
        """
        m = self.w.size
        ends = np.concatenate([self.i, self.n + self.j])
        order = np.argsort(ends, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=2 * self.n))))
        return sp.csr_matrix((np.ones(2 * m), np.tile(np.arange(m), 2)[order], indptr),
                             shape=(2 * self.n, m))

    def hessian(self, u) -> sp.csr_matrix:
        """Hessian at u for p >= 2, a model Hessian below; a Z-matrix for every p.

        It is the weighted graph Laplacian with pair weights
        c_ij = (p-1) w_ij |u_i - u_j|^(p-2) plus diag((p-1) d_i |u_i|^(p-2)).
        At p > 2 the weight of a tied pair is zero, so it can be singular.

        Below p = 2, |t|^(p-2) is infinite at a tie, so each |u_i - u_j| and
        |u_i| is raised to max(., delta) with delta = eps ||u||_inf, machine
        epsilon times the largest |u_i|: a difference below it is rounding
        of u, not a distance.  The floor scales with u, so the step counts
        of Newton do not change with the scale of the obstacles, and it
        bounds the model as in iteratively reweighted least squares
        (Daubechies, DeVore, Fornasier & Güntürk, CPAM 63, 2010).  Where an
        entry of the model is not finite (u = 0, so delta = 0, or a tied
        weight (p-1) w delta^(p-2) that overflows, as a large w does near
        p = 1) the model is the zero matrix, and Newton steps along -grad.
        """
        u = as_vector(u, "u", self.n)
        q = self.p - 2.0
        dist, size = np.abs(u[self.i] - u[self.j]), np.abs(u)
        if q >= 0.0:
            return self._weighted_laplacian(dist ** q, size ** q)
        delta = np.finfo(float).eps * np.max(size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            model = self._weighted_laplacian(np.maximum(dist, delta) ** q,
                                             np.maximum(size, delta) ** q)
        return model if np.all(np.isfinite(model.data)) else sp.csr_matrix((self.n, self.n))

    def _weighted_laplacian(self, dist_q, size_q) -> sp.csr_matrix:
        """Pair weights (p-1) w dist_q and diagonal (p-1) d size_q, multiplied in that order."""
        return laplacian(self.n, self.i, self.j, (self.p - 1.0) * self.w * dist_q,
                         (self.p - 1.0) * self.d * size_q)


def fractional_kernel_1d(n: int, h: float, s: float, p: float, collar: int) -> KernelEnergy:
    """1-D discrete fractional p-kernel on n interior grid points.

    Interior points sit at spacing h; interacting pairs carry the weight
    w_ij = h^2 * (h |i-j|)^(-(1+p*s)).  The zero extension outside the
    interior is truncated to ``collar`` grid points on each side, whose
    interactions accumulate into the exterior weights d_i.  The neglected
    tail per endpoint is sum_{m > collar} (h m')^(-(1+p*s)) over the
    remaining exterior points.  n and collar are capped (FRACTIONAL_1D_MAX_*).
    """
    n, collar = as_index(n, "n"), as_index(collar, "collar")
    h, s, p = as_real(h, "h"), as_real(s, "s"), as_real(p, "p")
    if n < 1:
        raise ConstructionError("n must be >= 1")
    if n > FRACTIONAL_1D_MAX_N:
        raise ConstructionError(f"n exceeds FRACTIONAL_1D_MAX_N = {FRACTIONAL_1D_MAX_N}, "
                                "the size cap of the all-pairs fractional kernel")
    if not 0 < h < np.inf:
        raise ConstructionError(f"grid spacing h = {h} must be finite and positive")
    if not 0 < s < 1:
        raise ConstructionError(f"exponent s = {s} must lie in (0,1)")
    if not 1 < p < np.inf:
        raise ConstructionError(f"p = {p} must be finite and exceed 1")
    if not 1 <= collar <= FRACTIONAL_1D_MAX_COLLAR:
        raise ConstructionError("collar must lie in [1, FRACTIONAL_1D_MAX_COLLAR = "
                                f"{FRACTIONAL_1D_MAX_COLLAR}]")
    if h * h == np.inf:  # the factor h^2 of every weight
        raise ConstructionError(f"grid spacing h = {h!r} is too large: h^2 overflows")
    a = 1.0 + p * s
    try:  # power[q] = (h q)^-a falls with q, so no entry overflows if power[1] does not
        power = np.array([0.0] + [(h * q) ** (-a) for q in range(1, n + collar)])
    except OverflowError:
        raise ConstructionError(f"the weight factor (h q)^-(1+p*s) overflows at q = 1: "
                                f"h = {h!r}, 1+p*s = {a!r}") from None
    # w_ij = h^2 power[j - i] depends on j - i alone: one weight per distance, gathered per pair
    i, j = np.triu_indices(n, 1)
    pairs = np.column_stack([i, j, (h * h * power[1:n])[j - i - 1]])
    # point i sees the exterior points at distances h q, q = i + m on the left
    # and n - 1 - i + m on the right (m = 1..collar); each side is summed in
    # the order of m, one vector addition per m
    left, right = np.zeros(n), np.zeros(n)
    for m in range(1, collar + 1):
        left += power[m:m + n]
        right += power[m:m + n][::-1]
    return KernelEnergy(n, pairs, enumerate((h * h * (left + right)).tolist()), p)


def submodularity_check(f, u, v) -> CheckResult:
    """delta = f(u∧v) + f(u∨v) - f(u) - f(v), f a callable u -> E(u); passes iff delta <= 0."""
    u = as_vector(u, "u")
    v = as_vector(v, "v", u.shape[0])
    delta = f(np.minimum(u, v)) + f(np.maximum(u, v)) - f(u) - f(v)
    return CheckResult(bool(delta <= 0.0), float(delta))


def t_monotonicity_check(g, u, v) -> CheckResult:
    """mu = <g(u) - g(v), (u-v) ∨ 0>, g a callable u -> grad E(u); passes iff mu >= 0."""
    u = as_vector(u, "u")
    v = as_vector(v, "v", u.shape[0])
    mu = float((np.asarray(g(u)) - np.asarray(g(v))) @ np.maximum(u - v, 0.0))
    return CheckResult(bool(mu >= 0.0), mu)


class ZMatrixViolation(NamedTuple):
    """Positive off-diagonal entry with its coordinate-pair witness."""

    i: int
    j: int
    u: np.ndarray
    v: np.ndarray
    entry: float


def z_matrix_violation(a) -> ZMatrixViolation | None:
    """Largest positive off-diagonal entry of a symmetric matrix, if any.

    Returns the witness pair u = e_i, v = e_j for which the submodularity
    defect of the quadratic form equals the entry exactly, or None when no
    off-diagonal entry is positive, with no tolerance.  An energy's matrix
    is read from its canonical CSR arrays, any other from its nonzero
    entries; both list the entries in row-major order, and of equal
    largest entries the first wins.
    """
    if isinstance(a, QuadraticEnergy):
        n, cols, data = a.n, a.a.indices, a.a.data
        rows = np.repeat(np.arange(n), np.diff(a.a.indptr))
    else:
        dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
        n, (rows, cols) = dense.shape[0], np.nonzero(dense)
        data = dense[rows, cols]
    off = np.flatnonzero(rows != cols)
    if not off.size or np.max(data[off]) <= 0.0:
        return None
    k = off[np.argmax(data[off])]
    i, j = int(rows[k]), int(cols[k])
    u, v = np.zeros((2, n))
    u[i] = v[j] = 1.0
    return ZMatrixViolation(i, j, u, v, float(data[k]))


def scalar_submodularity_inequality(p: float, x1: float, x2: float, y1: float, y2: float) -> CheckResult:
    """Convexity inequality for f(x) = |x|^p on a scalar quadruple.

    Checks f(x1-x2) + f(y1-y2) >= f(x1∨y1 - x2∨y2) + f(x1∧y1 - x2∧y2)
    up to 1e-12; this is the pointwise mechanism behind kernel-energy
    submodularity.
    """
    if p < 1:
        raise PreconditionError(f"p = {p} must be >= 1")

    def f(x):
        return abs(x) ** p

    lhs = f(x1 - x2) + f(y1 - y2)
    rhs = f(max(x1, y1) - max(x2, y2)) + f(min(x1, y1) - min(x2, y2))
    margin = lhs - rhs
    return CheckResult(bool(margin >= -1e-12), float(margin))
