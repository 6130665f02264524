import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from obslat.energies import (
    FRACTIONAL_1D_MAX_COLLAR,
    FRACTIONAL_1D_MAX_N,
    PSD_DENSE_MAX_N,
    PSD_TOL,
    SYMMETRY_TOL,
    KernelEnergy,
    QuadraticEnergy,
    fractional_kernel_1d,
    graph_dirichlet,
    laplacian,
    scalar_submodularity_inequality,
    submodularity_check,
    t_monotonicity_check,
    validate_edges,
    z_matrix_violation,
)
from obslat.errors import ConstructionError, DimensionMismatch, PreconditionError
from obslat.instances import (
    random_connected_edges,
    random_kernel_pair,
    random_smooth_obstacles,
    random_submodular_quadratic,
)
from obslat.solvers import solve_newton

TRIDIAG = [(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0),
           (0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0), (2, 1, -1.0)]


def tridiag_energy():
    return QuadraticEnergy.from_triplets(3, TRIDIAG)


# ---------------------------------------------------------------- quadratic

def test_graph_dirichlet_path():
    energy = graph_dirichlet(5, [(i, i + 1, 1.0) for i in range(4)], {0, 4})
    assert energy.n == 3
    expected = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2.0]])
    assert np.array_equal(energy.a.toarray(), expected)
    assert z_matrix_violation(energy) is None


def test_graph_dirichlet_single_edge():
    energy = graph_dirichlet(2, [(0, 1, 3.5)], {1})
    assert np.array_equal(energy.a.toarray(), [[3.5]])


def test_graph_dirichlet_grid_center():
    # 3x3 grid, boundary ring pinned: only the center node remains, degree 4.
    edges = []
    for i in range(3):
        for j in range(3):
            v = i * 3 + j
            if i < 2:
                edges.append((v, v + 3, 1.0))
            if j < 2:
                edges.append((v, v + 1, 1.0))
    boundary = [v for v in range(9) if v != 4]
    energy = graph_dirichlet(9, edges, boundary)
    assert np.array_equal(energy.a.toarray(), [[4.0]])


def test_graph_dirichlet_free_nodes_match_reference():
    # the free list and both blocks equal those of the per-node loop
    side = 32
    edges = [(i * side + j, i * side + j + 1, 1.0 + 0.01 * j)
             for i in range(side) for j in range(side - 1)]
    edges += [(i * side + j, (i + 1) * side + j, 2.0) for i in range(side - 1)
              for j in range(side)]
    ring = sorted({i * side + j for i in range(side) for j in range(side)
                   if i in (0, side - 1) or j in (0, side - 1)})
    energy = graph_dirichlet(side * side, edges, ring)
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [w, w, -w, -w]
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(side * side, side * side)).tocsr()
    free = np.array([i for i in range(side * side) if i not in set(ring)], dtype=int)
    assert energy.free_nodes.dtype == free.dtype
    assert np.array_equal(energy.free_nodes, free)
    for got, want in ((energy.a, lap[free][:, free]),
                      (energy.coupling, lap[free][:, np.array(ring)])):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def test_graph_dirichlet_fields_are_read_only():
    energy = graph_dirichlet(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], [0, 3])
    assert energy.coupling.shape == (2, 2)
    assert np.array_equal(energy.free_nodes, [1, 2])
    for arr in (energy.coupling.data, energy.coupling.indices,
                energy.coupling.indptr, energy.free_nodes):
        with pytest.raises(ValueError):
            arr[0] = 0
    full = graph_dirichlet(2, [(0, 1, 1.0)])
    assert full.coupling is None and np.array_equal(full.free_nodes, [0, 1])


def test_validate_edges_returns_owned_arrays():
    i, j, w = validate_edges(5, [(3, 1, 2.0), [0, 4, 0.5], (2.0, 1, 1)])
    assert np.array_equal(i, [3, 0, 2]) and np.array_equal(j, [1, 4, 1])
    assert np.array_equal(w, [2.0, 0.5, 1.0])
    for arr, dtype in ((i, np.int64), (j, np.int64), (w, np.float64)):
        assert arr.dtype == dtype and arr.flags.c_contiguous and arr.flags.owndata
        assert not arr.flags.writeable
    assert all(arr.size == 0 for arr in validate_edges(1, []))
    for rows in ([(0, 1)], [(0, 1, 1.0), (1, 2)], [0, 1, 1.0], [(0, 1, 1.0, 2.0)]):
        with pytest.raises(ValueError):
            validate_edges(3, rows)  # every row must be one triple
    with pytest.raises(ConstructionError, match=r"edge \(2,1\) repeats the pair \(1,2\)"):
        validate_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])


def test_indices_are_integers_not_truncated():
    for edges in ([(0, 1.9, 1.0)], [(0.5, 1, 1.0)], [(0, np.nan, 1.0)]):
        with pytest.raises(ConstructionError, match="non-integer end"):
            validate_edges(3, edges)
    with pytest.raises(ConstructionError, match="must hold numbers"):
        validate_edges(3, [(0, 1, 1.0), (1, "2", 1.0)])
    with pytest.raises(ConstructionError, match="exterior index 0.5 is not"):
        KernelEnergy(2, [(0, 1, 1.0)], [(0.5, 1.0)], 2.0)
    with pytest.raises(ConstructionError, match="triplet index '1' is not"):
        QuadraticEnergy.from_triplets(2, [(0, 0, 1.0), ("1", 1, 1.0)])
    with pytest.raises(ConstructionError, match="dirichlet index 1.5 is not"):
        graph_dirichlet(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.5])
    with pytest.raises(ConstructionError, match="nodes 2.5 is not an integer"):
        graph_dirichlet(2.5, [(0, 1, 1.0)])
    assert graph_dirichlet(3.0, [(0, 1, 1.0), (1, 2, 1.0)], [0]).n == 2
    with pytest.raises(ConstructionError, match="triplet value '1.0' is not a number"):
        QuadraticEnergy.from_triplets(2, [(0, 0, 1.0), (1, 1, "1.0")])
    with pytest.raises(ConstructionError, match="n 2.5 is not an integer"):
        QuadraticEnergy.from_triplets(2.5, [(0, 0, 1.0)])
    exact = QuadraticEnergy.from_triplets(2, [(0.0, 0, 1.0), (1, 1.0, 1.0)])
    assert np.array_equal(exact.a.toarray(), np.eye(2))


def test_laplacian_sums_pair_by_pair():
    # the (i,i), (j,j), (i,j), (j,i) per-pair list with the diagonal last,
    # summed in the order of scipy's COO to CSR conversion
    rng = np.random.default_rng(4)
    edges = random_connected_edges(rng, 30, extra_frac=2.0)
    diag = rng.uniform(0.0, 1.0, size=30)
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [w, w, -w, -w]
    want = sp.coo_matrix((vals + list(diag), (rows + list(range(30)), cols + list(range(30)))),
                         shape=(30, 30)).tocsr()
    got = laplacian(30, *validate_edges(30, edges), diag)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_graph_dirichlet_rejects_bad_edges():
    with pytest.raises(ConstructionError):
        graph_dirichlet(3, [(0, 0, 1.0)])
    with pytest.raises(ConstructionError):
        graph_dirichlet(3, [(0, 1, -2.0)])
    with pytest.raises(ConstructionError):
        graph_dirichlet(3, [(0, 5, 1.0)])
    with pytest.raises(ConstructionError):
        graph_dirichlet(3, [(0, 1, 1.0), (1, 0, 1.0)])  # one pair listed twice
    for w in (np.inf, np.nan):
        with pytest.raises(ConstructionError):
            graph_dirichlet(3, [(0, 1, w)])


def test_quadratic_rejects_asymmetry_and_indefinite():
    with pytest.raises(ConstructionError):
        QuadraticEnergy.from_triplets(2, [(0, 0, 1.0), (1, 1, 1.0), (0, 1, 0.5)])
    with pytest.raises(ConstructionError):
        QuadraticEnergy(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(ConstructionError):
        QuadraticEnergy(np.array([[-1.0]]))
    with pytest.raises(ConstructionError):
        # noise-level diagonal, large off-diagonal: eigenvalues near +-1
        QuadraticEnergy(np.array([[1e-12, 1.0], [1.0, 1e-12]]))


def test_symmetry_tolerance_scales_with_the_entries():
    # B^T diag(c D) B is symmetric up to the rounding of its entries, which
    # grows with c: at c = 1e4 its asymmetry of about 4e-11 used to exceed
    # an absolute 1e-12
    rng = np.random.default_rng(0)
    b = rng.normal(size=(40, 30))
    d = rng.uniform(0.5, 2.0, size=40)
    for c in (1.0, 1e4, 1e6, 1e10):
        a = b.T @ np.diag(c * d) @ b
        assert np.array_equal(QuadraticEnergy(a).a.toarray(), a)
    # an asymmetry of 1e-9 of the largest entry is still refused
    a[0, 1] += 1e-9 * np.max(np.abs(a))
    with pytest.raises(ConstructionError, match="asymmetry"):
        QuadraticEnergy(a)


def test_quadratic_accepts_singular_psd(monkeypatch):
    # PSD but not diagonally dominant: only the eigenvalue test accepts it
    ones = QuadraticEnergy(np.ones((3, 3)))
    assert z_matrix_violation(ones) is not None

    def no_eigvalsh(a):
        raise AssertionError("diagonally dominant input reached eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    energy = QuadraticEnergy(lap)
    assert z_matrix_violation(energy) is None
    dominant = QuadraticEnergy(np.array([[3.0, 1.0, -1.0],
                                         [1.0, 3.0, 2.0],
                                         [-1.0, 2.0, 3.0]]))
    assert z_matrix_violation(dominant) is not None
    edges = [(i, j, 1e3 * w) for i, j, w in
             random_connected_edges(np.random.default_rng(4), 150)]
    assert z_matrix_violation(graph_dirichlet(150, edges)) is None


def _ones_blocks(n: int) -> sp.csr_matrix:
    """Block diagonal of 3x3 all-ones blocks: sparse and PSD, not dominant."""
    return sp.block_diag([np.ones((3, 3))] * (n // 3), format="csr")


def test_quadratic_dense_psd_check_size_cap(monkeypatch):
    below = 3 * (PSD_DENSE_MAX_N // 3)
    assert z_matrix_violation(QuadraticEnergy(_ones_blocks(below))) is not None

    def no_eigvalsh(a):
        raise AssertionError("matrix above the cap reached eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    with pytest.raises(ConstructionError, match="PSD_DENSE_MAX_N"):
        QuadraticEnergy(_ones_blocks(below + 3))


def test_quadratic_matrix_is_read_only():
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    energy = QuadraticEnergy(a)
    for arr in (energy.a.data, energy.a.indices, energy.a.indptr):
        with pytest.raises(ValueError):
            arr[0] = 1
    a.data[0] = 5.0  # the caller's matrix stays its own
    assert energy.a[0, 0] == 2.0
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    energy = QuadraticEnergy(sp.identity(2), base[0])
    assert base.flags.writeable and not energy.b.flags.writeable
    base[0, 0] = 99.0  # and so does the caller's b
    assert energy.b.tolist() == [1.0, 2.0] and energy.value(np.ones(2)) == 4.0


@pytest.mark.parametrize("build", [
    lambda: validate_edges(3, [[0, 1, 1.0], [1, 2]]),
    lambda: KernelEnergy(2, [], [(0, 1.0, 5)], 2.0),
    lambda: KernelEnergy(2, [], [(0,)], 2.0),
    lambda: KernelEnergy(2, [], 5, 2.0),
    lambda: KernelEnergy(2, [], [5], 2.0),
    lambda: QuadraticEnergy.from_triplets(2, [(0, 1)]),
    lambda: QuadraticEnergy.from_triplets(2, None),
], ids=["edges_ragged", "exterior_long", "exterior_short", "exterior_number", "exterior_row_number",
        "triplet_short", "triplets_none"])
def test_malformed_rows_raise_construction_error(build):
    with pytest.raises(ConstructionError, match="must be"):
        build()


def _reference_certificate(a):
    """The certificate as scipy.sparse operations on the matrix as given.

    Returns (error message or None, Z-matrix or None); the energy must
    reach the same verdicts from one pass over its canonical CSR arrays.
    """
    a = sp.csr_matrix(a, dtype=float, copy=True)
    if a.shape[0] != a.shape[1]:
        return f"matrix must be square, got {a.shape}", None
    if not np.all(np.isfinite(a.data)):
        return "matrix entries must be finite", None
    asym = abs(a - a.T)
    tol = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(a.toarray()), initial=0.0)))
    if asym.nnz and asym.max() > tol:
        return f"matrix asymmetry {asym.max():.3e} exceeds {tol:.3e}", None
    diag = a.diagonal()
    offdiag = a - sp.diags(diag)
    tol = PSD_TOL * max(1.0, float(np.max(np.abs(diag), initial=0.0)))
    radius = np.asarray(abs(offdiag).sum(axis=1)).ravel()
    if not np.all(diag - radius >= -tol):
        if np.linalg.eigvalsh(a.toarray())[0] < -tol:
            return "matrix failed the positive-semidefiniteness check", None
    return None, bool(offdiag.nnz == 0 or offdiag.data.max() <= 0.0)


def _messy_csr(rng, dense, explicit_zeros=0):
    """CSR of ``dense`` with split duplicates, unsorted columns and explicit zeros.

    Entries are multiples of 1/4, so every split sums back exactly.
    """
    n = dense.shape[0]
    r, c = np.nonzero(dense)
    v = dense[r, c]
    split = rng.random(len(v)) < 0.3
    part = rng.integers(-4, 5, size=int(split.sum())) / 4.0
    v[split] -= part
    r, c, v = np.concatenate([r, r[split]]), np.concatenate([c, c[split]]), np.concatenate([v, part])
    zr, zc = rng.integers(0, n, size=(2, explicit_zeros))
    r, c, v = np.concatenate([r, zr]), np.concatenate([c, zc]), np.concatenate([v, np.zeros(explicit_zeros)])
    perm = rng.permutation(len(r))
    idx = perm[np.argsort(r[perm], kind="stable")]  # rows in order, columns shuffled
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    return sp.csr_matrix((v[idx], c[idx], indptr), shape=(n, n))


def _certificate_cases():
    rng = np.random.default_rng(15)
    for k in range(240):
        n = int(rng.integers(1, 9))
        dense = rng.integers(-4, 5, size=(n, n)) / 4.0
        dense[rng.random((n, n)) < 0.5] = 0.0
        dense = np.triu(dense) + np.triu(dense, 1).T  # symmetric
        kind = k % 7
        if kind == 1:  # diagonally dominant, mostly a Z-matrix like a Laplacian
            flip = np.triu(rng.random((n, n)) < 0.2, 1)
            dense = np.where(flip | flip.T, 1.0, -1.0) * np.abs(dense)
            np.fill_diagonal(dense, 0.0)
            np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.integers(0, 3, size=n) / 4.0)
        elif kind == 2 and n > 1:  # asymmetric within or above the tolerance
            i, j = rng.choice(n, size=2, replace=False)
            dense[i, j] += rng.choice([0.5, 4.0, 1e3]) * SYMMETRY_TOL
        elif kind == 3 and n > 1:  # structurally asymmetric: one side missing
            i, j = rng.choice(n, size=2, replace=False)
            dense[i, j], dense[j, i] = rng.choice([0.0, 0.25]), 0.0
        elif kind == 4:  # diagonal only, any signs
            dense = np.diag(rng.integers(-2, 5, size=n) / 4.0)
        elif kind == 5:  # PSD of rank <= 2, rarely dominant
            half = rng.integers(-2, 3, size=(n, 2)) / 2.0
            dense = half @ half.T
        yield _messy_csr(rng, dense, explicit_zeros=int(rng.integers(0, 3)) * (k % 2))
    yield sp.csr_matrix(np.ones((3, 3)))  # PSD, not dominant
    yield sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    for x in (-1.0, 0.0, 2.0):
        yield sp.csr_matrix(np.array([[x]]))
    yield sp.csr_matrix((2, 2))
    yield sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-13]]))  # sub-tolerance asymmetry inside an entry
    yield sp.csr_matrix(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        yield sp.csr_matrix(np.array([[1.0, bad], [0.0, 1.0]]))
        yield sp.csr_matrix(np.array([[1.0, bad], [bad, 1.0]]))
        yield sp.csr_matrix(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_certificate_verdicts_match_the_scipy_formulation():
    kinds = dict.fromkeys(["accepted", "asymmetry", "must be finite", "semidefinite", "square"], 0)
    for a in _certificate_cases():
        want_error, want_z_matrix = _reference_certificate(a)
        try:
            energy = QuadraticEnergy(a, np.ones(a.shape[0]) if a.shape[0] else None)
        except ConstructionError as err:
            assert str(err) == want_error, a.toarray()
            kinds[next(k for k in kinds if k in str(err))] += 1
            continue
        assert want_error is None, a.toarray()
        assert (z_matrix_violation(energy) is None) == want_z_matrix, a.toarray()
        stored = energy.a
        assert stored.has_canonical_format
        assert np.array_equal(stored.toarray(), a.toarray())
        kinds["accepted"] += 1
    assert min(kinds.values()) >= 1, kinds


def test_value_gradient_example():
    energy = tridiag_energy()
    u = np.array([0.5, 1.0, 0.5])
    assert np.array_equal(energy.gradient(u), [0.0, 1.0, 0.0])
    # by hand: Au = (0, 1, 0), so <Au, u> = 1 and E = 1/2.  Independent
    # oracle: this matrix is the path 0-1-2-3-4 with the ends pinned to 0,
    # so E is the edge sum (1/2) sum (u_i - u_j)^2 over the five path values
    # (0, 0.5, 1, 0.5, 0), which is 4 * 0.25 / 2 = 0.5.
    full = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    edge_sum = 0.5 * float(np.sum(np.diff(full) ** 2))
    assert edge_sum == 0.5
    assert energy.value(u) == pytest.approx(edge_sum, abs=1e-14)
    assert energy.value(np.zeros(3)) == 0.0
    assert np.array_equal(energy.gradient(np.zeros(3)), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        energy.value(np.zeros(4))


# ----------------------------------------------------------------- kernels

def brute_force_fractional_weights(n, h, s, p, collar):
    """Direct kernel double sum over interior and collar grid points."""
    a = 1.0 + p * s
    pts_in = [h * k for k in range(1, n + 1)]
    pts_out = [h * k for k in range(1 - collar, 1)]
    pts_out += [h * k for k in range(n + 1, n + collar + 1)]
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = h * h * abs(pts_in[i] - pts_in[j]) ** (-a)
    d = [h * h * sum(abs(pts_in[i] - y) ** (-a) for y in pts_out) for i in range(n)]
    return pairs, d


def test_fractional_kernel_worked_example():
    energy = fractional_kernel_1d(3, 1.0, 0.5, 2.0, collar=2)
    w = {(i, j): wij for i, j, wij in zip(energy.i, energy.j, energy.w)}
    assert w[(0, 1)] == pytest.approx(1.0)
    assert w[(0, 2)] == pytest.approx(0.25)
    assert w[(1, 2)] == pytest.approx(1.0)
    assert energy.d[0] == pytest.approx(1.0 + 0.25 + 1.0 / 9.0 + 1.0 / 16.0, abs=1e-12)
    pairs, d = brute_force_fractional_weights(3, 1.0, 0.5, 2.0, 2)
    for (i, j), wij in pairs.items():
        assert w[(i, j)] == pytest.approx(wij, abs=1e-12)
    assert np.allclose(energy.d, d, atol=1e-12)


def test_fractional_kernel_single_point():
    energy = fractional_kernel_1d(1, 0.5, 0.7, 3.0, collar=4)
    assert energy.i.size == 0
    assert energy.value(np.zeros(1)) == 0.0
    assert energy.value(np.array([1.0])) > 0.0
    # without pairs the gradient is the exterior term alone, as a float array
    assert energy.gradient(np.array([-2.0]))[0] == energy.d[0] * 2.0 * -2.0


def _loop_exterior(n, h, s, p, collar):
    """The exterior weights d_i as one Python sum per side and point."""
    a = 1.0 + p * s
    d = []
    for i in range(n):
        k = i + 1
        left = sum((h * (k - 1 + m)) ** (-a) for m in range(1, collar + 1))
        right = sum((h * (n - k + m)) ** (-a) for m in range(1, collar + 1))
        d.append(h * h * (left + right))
    return np.array(d)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_fractional_exterior_matches_the_python_sums(n):
    for collar in (1, 2, 5, 64):
        for h, s, p in ((1.0 / (n + 1), 0.25, 2.0), (0.37, 0.5, 3.0), (2.5, 0.75, 1.5),
                        (1e-3, 0.9, 4.0)):
            energy = fractional_kernel_1d(n, h, s, p, collar)
            assert energy.d.tobytes() == _loop_exterior(n, h, s, p, collar).tobytes()


def test_fractional_kernel_parameter_validation():
    for bad in [dict(n=0), dict(h=0.0), dict(h=np.nan), dict(h=np.inf), dict(s=0.0),
                dict(s=1.0), dict(p=1.0), dict(p=np.nan), dict(p=np.inf), dict(collar=0),
                dict(n=3.5), dict(collar=2.5), dict(h="1.0"), dict(s="0.5"), dict(p="2"),
                dict(n=FRACTIONAL_1D_MAX_N + 1), dict(n=10**400),
                dict(collar=FRACTIONAL_1D_MAX_COLLAR + 1), dict(collar=10**400),
                dict(n=4, h=1e-3, s=0.99, p=200.0, collar=1)]:  # h^-(1 + p s) overflows
        kwargs = dict(n=3, h=1.0, s=0.5, p=2.0, collar=2)
        kwargs.update(bad)
        with pytest.raises(ConstructionError):
            fractional_kernel_1d(**kwargs)
    # h^2 overflows: refused by name before the pair arrays are built
    for h in (1e160, 1e200):
        with pytest.raises(ConstructionError, match=re.escape(f"h = {h!r} is too large")):
            fractional_kernel_1d(3, h, 0.5, 2.0, 2)


def test_kernel_p2_matches_induced_quadratic():
    rng = np.random.default_rng(3)
    # at p = 2, E(u) = 1/2 <Au,u> with A the Laplacian of the pairs plus diag(d)
    energy = fractional_kernel_1d(6, 0.25, 0.5, 2.0, collar=3)
    quad = QuadraticEnergy(laplacian(6, energy.i, energy.j, energy.w, energy.d))
    assert z_matrix_violation(quad) is None
    off = quad.a.toarray()[~np.eye(6, dtype=bool)]
    assert np.all(off <= 0.0)
    for _ in range(10):
        u = rng.normal(size=6)
        assert energy.value(u) == pytest.approx(quad.value(u), abs=1e-10)
        assert np.allclose(energy.gradient(u), quad.gradient(u), atol=1e-10)


def test_kernel_p3_worked_gradient():
    energy = KernelEnergy(2, [(0, 1, 1.0)], [], 3.0)
    u = np.array([2.0, 0.0])
    assert energy.value(u) == pytest.approx(8.0 / 3.0)
    assert np.allclose(energy.gradient(u), [4.0, -4.0])
    # central differences at step 1e-5
    fd = np.zeros(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1e-5
        fd[k] = (energy.value(u + e) - energy.value(u - e)) / 2e-5
    assert np.allclose(fd, energy.gradient(u), atol=1e-6)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    cases = [
        random_submodular_quadratic(rng, 6),
        fractional_kernel_1d(5, 0.2, 0.5, 2.0, 2),
        fractional_kernel_1d(5, 0.2, 0.25, 3.0, 2),
    ]
    for energy in cases:
        for _ in range(20):
            u = rng.normal(size=energy.n)
            g = energy.gradient(u)
            fd = np.zeros(energy.n)
            for k in range(energy.n):
                e = np.zeros(energy.n)
                e[k] = 1e-5
                fd[k] = (energy.value(u + e) - energy.value(u - e)) / 2e-5
            assert np.all(np.abs(fd - g) <= 1e-6 * (1.0 + np.abs(g)))


def test_hessian_matches_gradient_differences():
    rng = np.random.default_rng(12)
    cases = [
        random_submodular_quadratic(rng, 6),
        fractional_kernel_1d(5, 0.2, 0.5, 2.0, 2),
        fractional_kernel_1d(5, 0.2, 0.25, 3.0, 2),
        KernelEnergy(4, [(0, 1, 1.0), (1, 3, 0.5), (0, 2, 2.0)], [(2, 0.3)], 2.5),
    ]
    for energy in cases:
        off = ~np.eye(energy.n, dtype=bool)
        for _ in range(10):
            u = rng.normal(size=energy.n)
            h = energy.hessian(u).toarray()
            assert np.array_equal(h, h.T)
            assert np.all(h[off] <= 0.0)  # a Z-matrix, as submodularity needs
            fd = np.zeros((energy.n, energy.n))
            for k in range(energy.n):
                e = np.zeros(energy.n)
                e[k] = 1e-5
                fd[:, k] = (energy.gradient(u + e) - energy.gradient(u - e)) / 2e-5
            assert np.all(np.abs(fd - h) <= 1e-6 * (1.0 + np.abs(h)))


def test_kernel_hessian_cases():
    # at p = 2 the Hessian is the Laplacian of the pairs plus diag(d), bit for bit
    rng = np.random.default_rng(5)
    cases = [(6, 0.25, 0.5)] + [(n, 1.0 / (n + 1), s) for n in (6, 17, 40, 64)
                                for s in (0.25, 0.5, 0.75)]
    for n, h, s in cases:
        p2 = fractional_kernel_1d(n, h, s, 2.0, collar=3)
        got = p2.hessian(rng.normal(size=n))
        want = laplacian(n, p2.i, p2.j, p2.w, p2.d)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (n, s, name)
    # p = 3: weight 2 w |u_i - u_j| per pair, 2 d_i |u_i| on the diagonal
    p3 = KernelEnergy(3, [(0, 1, 1.0), (1, 2, 1.0)], [(2, 0.5)], 3.0)
    h = p3.hessian(np.array([0.4, 0.4, -1.0])).toarray()
    assert np.array_equal(h, [[0.0, 0.0, 0.0], [0.0, 2.8, -2.8], [0.0, -2.8, 3.8]])
    quad = tridiag_energy()
    assert quad.hessian(np.zeros(3)) is quad.a


def test_kernel_model_hessian_below_p_two():
    # p = 1.5: |t|^(p-2) is infinite at a tie, so ties are floored at
    # delta = eps ||u||_inf; pair (0,1) and the exterior term of u_3 tie
    energy = KernelEnergy(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)], [(0, 0.5), (3, 0.25)], 1.5)
    delta = np.finfo(float).eps * 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h = energy.hessian(np.array([2.0, 2.0, -0.5, 0.0])).toarray()
        zero = energy.hessian(np.zeros(4))
    assert np.all(np.isfinite(h)) and np.array_equal(h, h.T)
    assert np.all(h[~np.eye(4, dtype=bool)] <= 0.0)  # a Z-matrix
    assert h[1, 2] == -(0.5 * 2.0 * 2.5 ** -0.5)  # untied: (p-1) w |d|^(p-2), exactly
    assert h[0, 1] == -(0.5 * 1.0 * delta ** -0.5)  # tied: (p-1) w delta^(p-2)
    assert h[3, 3] == pytest.approx(0.5 * 1.0 * 0.5 ** -0.5 + 0.5 * 0.25 * delta ** -0.5, rel=1e-15)
    # at u = 0 every term ties and delta = 0: the model is the zero matrix
    assert zero.shape == (4, 4) and zero.nnz == 0


def test_kernel_model_hessian_subnormal_floor():
    # ||u||_inf = 1e-300 makes delta = eps ||u||_inf subnormal, and
    # delta^(p-2) overflows near p = 1: such a delta counts as 0
    energy = KernelEnergy(2, [(0, 1, 1.0)], [(0, 1.0)], 1.01)
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zero = energy.hessian([1e-300, 1e-300])
        # the smallest normal delta, eps * 2^-970 = 2^-1022, keeps a finite model
        floor = energy.hessian([tiny / eps, tiny / eps])
    assert zero.shape == (2, 2) and zero.nnz == 0
    assert np.all(np.isfinite(floor.data)) and np.all(floor.diagonal() > 0.0)


def test_kernel_model_hessian_large_weight_near_p_one():
    # delta = eps 2^-970 = 2^-1022 is a normal float, but the tied weight
    # (p-1) w delta^(p-2) = 0.01 * 1e10 * 2^1011.8 overflows: no entry of the
    # model is finite, so it is the zero matrix and Newton steps along -grad
    energy = KernelEnergy(2, [(0, 1, 1e10)], [], 1.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zero = energy.hessian([2.0 ** -970, 2.0 ** -970])
        finite = energy.hessian([1e-250, 1e-250])  # the tied weight is 9.9e270
    assert zero.shape == (2, 2) and zero.nnz == 0
    assert np.all(np.isfinite(finite.data)) and finite[0, 1] < -1e270


def test_kernel_validation():
    with pytest.raises(ConstructionError):
        KernelEnergy(3, [(0, 1, 0.0)], [], 2.0)
    with pytest.raises(ConstructionError):
        KernelEnergy(3, [], [(0, -1.0)], 2.0)
    for bad_p in (1.0, np.nan, np.inf, "2"):
        with pytest.raises(ConstructionError):
            KernelEnergy(3, [(0, 1, 1.0)], [], bad_p)
    with pytest.raises(ConstructionError, match=r"pair \(0,1\)"):
        KernelEnergy(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)], [], 2.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConstructionError):
            KernelEnergy(3, [(0, 1, bad)], [], 2.0)
        with pytest.raises(ConstructionError):
            KernelEnergy(3, [(0, 1, 1.0)], [(2, bad)], 2.0)
    with pytest.raises(ConstructionError, match="n 3.5 is not an integer"):
        KernelEnergy(3.5, [(0, 1, 1.0)], [], 2.0)
    with pytest.raises(ConstructionError, match="exterior weight '1.0' is not a number"):
        KernelEnergy(3, [(0, 1, 1.0)], [(2, "1.0")], 2.0)
    # each entry is finite, but their sum overflows: d_0 = inf used to be stored
    with pytest.raises(ConstructionError, match="index 0 sum to inf"):
        KernelEnergy(2, [(0, 1, 1.0)], [(0, 1e308), (0, 1e308)], 2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_kernel_pair_orientation_is_free(p):
    # (i, j) and (j, i) are one pair, as for graph edges; a pair with i > j
    # used to be refused.  Flipping pairs keeps the value and the Hessian bit
    # for bit and the minimizer; the gradient sums its terms in other bins
    rng = np.random.default_rng(42)
    energy = random_kernel_pair(rng, 12, p)
    flip = rng.random(energy.w.size) < 0.5
    pairs = [(j, i, w) if f else (i, j, w)
             for i, j, w, f in zip(energy.i.tolist(), energy.j.tolist(), energy.w.tolist(), flip)]
    flipped = KernelEnergy(energy.n, pairs, enumerate(energy.d.tolist()), p)
    assert flip.any() and np.any(flipped.i > flipped.j)
    u = rng.normal(size=energy.n)
    assert _bits(flipped.value(u)) == _bits(energy.value(u))
    h, hf = energy.hessian(u), flipped.hessian(u)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(hf, attr), getattr(h, attr)), attr
    g, gf = energy.gradient(u), flipped.gradient(u)
    assert np.all(np.abs(gf - g) <= 4 * np.spacing(np.abs(g))), gf - g
    box = random_smooth_obstacles(rng, energy.n, force_contact="lower")
    sol, sol_flipped = solve_newton(energy, box, tol=1e-10), solve_newton(flipped, box, tol=1e-10)
    assert sol.converged and sol_flipped.converged
    assert np.max(np.abs(sol_flipped.u - sol.u)) <= 1e-12


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _evaluate_cases():
    rng = np.random.default_rng(20)
    # pairs out of lexicographic order, so each bin sums in pair order
    shuffled = [(2, 5, 0.7), (0, 5, 1.3), (0, 1, 0.4), (3, 4, 2.0), (1, 5, 0.9), (0, 3, 1.1)]
    points = [rng.normal(size=6), np.array([1.0, 1.0, 1.0, -0.5, -0.5, 0.0]),  # ties, a zero
              np.zeros(6), np.array([-0.0, 0.0, 2.0, -0.0, 2.0, 1e-300]),
              np.array([5e-324, 0.0, 1e-310, -5e-324, 0.0, 2.0])]  # subnormal differences
    cases = []
    for p in (2.0, 2.5, 3.0, 1.5):
        for energy in (KernelEnergy(6, shuffled, [], p),
                       KernelEnergy(6, shuffled, [(0, 0.5), (4, 1.5), (0, 0.25)], p),
                       random_kernel_pair(rng, 6, p)):
            cases += [(energy, u) for u in points]
        for exterior in ([], [(0, 0.75)]):
            single = KernelEnergy(1, [], exterior, p)
            cases += [(single, np.array([x])) for x in (0.0, -2.0, 3.5)]
        frac = fractional_kernel_1d(9, 0.1, 0.5, p, collar=3)
        cases += [(frac, u) for u in (rng.normal(size=9), np.repeat([0.0, 1.0, -1.0], 3))]
    # terms 1, 2^-53, 2^-53 into node 0 and -1, -2^-53, -2^-53 into node 4:
    # in pair order they sum to 1 and -1, in any other order they do not
    fan = KernelEnergy(5, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (2, 4, 1.0),
                           (3, 4, 1.0)], [], 2.0)
    cases.append((fan, np.array([0.0, -1.0, -2.0 ** -53, -2.0 ** -53, 0.0])))
    for energy in (tridiag_energy(), random_submodular_quadratic(rng, 6)):
        cases += [(energy, u) for u in (rng.normal(size=energy.n), np.zeros(energy.n))]
    return cases


def _bincount_gradient(energy, u):
    """The kernel gradient with its pair terms summed by two np.bincount passes."""
    def terms(weight, x):
        if energy.p >= 2:
            return weight * np.abs(x) ** (energy.p - 2) * x
        return weight * np.copysign(np.abs(x) ** (energy.p - 1), x)

    t = terms(energy.w, u[energy.i] - u[energy.j])
    g = np.bincount(energy.i, weights=t, minlength=energy.n).astype(float)
    g -= np.bincount(energy.j, weights=t, minlength=energy.n)
    return g + terms(energy.d, u)


def test_evaluate_matches_value_and_gradient():
    for energy, u in _evaluate_cases():
        f, gradient = energy.evaluate(u)
        assert type(f) is float and _bits(f) == _bits(energy.value(u))
        for _ in range(2):  # a second call gives the same gradient
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # p = 1.5 at a tie or a zero: no 0 * inf
                g = gradient()
            assert g.dtype == float and _bits(g) == _bits(energy.gradient(u))
        if isinstance(energy, KernelEnergy):
            assert _bits(g) == _bits(_bincount_gradient(energy, u))
    # the pair operator is built with the first gradient, not with the energy
    energy = fractional_kernel_1d(5, 0.2, 0.5, 3.0, collar=2)
    energy.value(np.ones(5))
    assert "_scatter" not in vars(energy)
    energy.evaluate(np.ones(5))[1]()
    scatter = vars(energy)["_scatter"]
    energy.gradient(np.zeros(5))
    assert energy._scatter is scatter and scatter.shape == (10, energy.w.size)


def test_evaluate_gradient_below_two_raises_where_gradient_does():
    # at p = 1.5 the gradient is defined at tied pairs and at u_i = 0 with
    # d_i > 0: neither gradient nor evaluate's gradient raises or warns
    # there, and the two agree bit for bit
    energy = KernelEnergy(3, [(0, 1, 1.0), (1, 2, 0.5)], [(0, 1.0)], 1.5)
    for u in ([1.0, 1.0, 0.5], [0.0, 1.0, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 0.25]):
        u = np.array(u)
        f, gradient = energy.evaluate(u)
        assert _bits(f) == _bits(energy.value(u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = energy.gradient(u)
            assert _bits(gradient()) == _bits(want)
        assert np.all(np.isfinite(want))


def test_exterior_term_only_where_weighted():
    # p < 2 at u_1 = 0 with d_1 = 0: the unweighted exterior term is 0, not
    # 0 * 0^(p-2) = 0 * inf
    energy = KernelEnergy(3, [(0, 1, 1.0), (1, 2, 0.5)], [(0, 1.0)], 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = energy.gradient(np.array([-1.0, 0.0, 2.0]))
    half_root = 0.5 * 2.0 ** -0.5 * 2.0
    assert np.allclose(g, [-2.0, 1.0 - half_root, half_root], rtol=1e-15, atol=0.0)
    # at p >= 2 the gradient keeps the bits of the exterior term formed at
    # every index, zeros and negative zeros of u included
    points = [np.array([0.0, -0.0, 1.5, 0.0, -2.0]), np.array([0.0, 0.3, -0.0, -0.7, 0.0])]
    for p in (2.0, 2.5, 3.0):
        energy = KernelEnergy(5, [(0, 1, 1.0), (1, 3, 0.5), (2, 4, 2.0)], [(1, 0.75), (4, 1.25)], p)
        for u in points:
            assert _bits(energy.gradient(u)) == _bits(_bincount_gradient(energy, u))


def test_kernel_gradient_at_ties_below_two():
    # |t|^p / p is C^1 for every p > 1, with derivative 0 at t = 0: a tied
    # pair, or u_i = 0 with d_i > 0, contributes 0 to the gradient
    energy = KernelEnergy(2, [(0, 1, 1.0)], [(0, 1.0)], 1.5)
    for u, want in (([1.0, 1.0], [1.0, 0.0]), ([0.0, 1.0], [-1.0, 1.0])):
        u = np.array(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = energy.gradient(u)
        assert g.tolist() == want
        fd = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1e-5
            fd[k] = (energy.value(u + e) - energy.value(u - e)) / 2e-5
        assert np.all(np.abs(fd - g) <= 1e-6 * (1.0 + np.abs(g)))


# ------------------------------------------------------------------ checks

def test_submodularity_zmatrix_always_passes():
    rng = np.random.default_rng(5)
    energy = random_submodular_quadratic(rng, 8)
    for _ in range(50):
        u, v = rng.normal(size=8), rng.normal(size=8)
        _, delta = submodularity_check(energy.value, u, v)
        assert delta <= 1e-12, delta


def test_submodularity_violation_example():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    ok, delta = submodularity_check(lambda x: 0.5 * float(x @ a @ x),
                                    np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert not ok
    assert delta == pytest.approx(1.0)


def test_submodularity_comparable_pair_exact_zero():
    energy = tridiag_energy()
    u = np.array([0.0, 0.5, 1.0])
    v = u + 0.25
    _, delta = submodularity_check(energy.value, u, v)
    assert delta == 0.0


def test_t_monotonicity_cases():
    energy = tridiag_energy()
    rng = np.random.default_rng(9)
    for _ in range(50):
        u, v = rng.normal(size=3), rng.normal(size=3)
        _, mu = t_monotonicity_check(energy.gradient, u, v)
        assert mu >= -1e-12, mu
    u = rng.normal(size=3)
    _, mu = t_monotonicity_check(energy.gradient, u, u)
    assert mu == 0.0
    # hand computation for the non-submodular form
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    _, mu = t_monotonicity_check(lambda x: a @ x, np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0]))
    assert mu == pytest.approx(1.0)


def test_t_monotonicity_kernel_families():
    rng = np.random.default_rng(13)
    for p in (2.0, 3.0):
        energy = random_kernel_pair(rng, 6, p)
        for _ in range(50):
            u, v = rng.normal(size=6), rng.normal(size=6)
            _, mu = t_monotonicity_check(energy.gradient, u, v)
            assert mu >= -1e-10, (p, mu)


def test_z_matrix_violation_has_no_tolerance():
    # c [[2, 1], [1, 2]] has submodularity defect +c at (e0, e1) at every
    # scale; an absolute threshold of 1e-12 used to return None at c <= 1e-12
    for c in (1e-12, 1e-13, 1e-300):
        a = c * np.array([[2.0, 1.0], [1.0, 2.0]])
        for matrix in (a, QuadraticEnergy(a)):
            viol = z_matrix_violation(matrix)
            assert viol is not None and (viol.i, viol.j, viol.entry) == (0, 1, c)
        _, delta = submodularity_check(lambda x: 0.5 * float(x @ a @ x), viol.u, viol.v)
        assert delta == pytest.approx(c, rel=1e-12)
    assert z_matrix_violation(-1e-300 * np.ones((2, 2))) is None


def test_z_matrix_violation():
    assert z_matrix_violation(tridiag_energy()) is None
    assert z_matrix_violation(np.diag([1.0, 2.0, 3.0])) is None
    viol = z_matrix_violation(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert (viol.i, viol.j) == (0, 1)
    assert viol.entry == 1.0
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    _, delta = submodularity_check(lambda x: 0.5 * float(x @ a @ x), viol.u, viol.v)
    assert delta == pytest.approx(viol.entry, abs=1e-12)


def test_scalar_submodularity_inequality():
    ok, margin = scalar_submodularity_inequality(2.0, 1.0, 0.0, 0.0, 1.0)
    assert ok and margin == pytest.approx(2.0)
    ok, margin = scalar_submodularity_inequality(3.0, 0.7, -0.2, 0.7, -0.2)
    assert ok and margin == 0.0
    rng = np.random.default_rng(17)
    for p in (1.5, 2.0, 3.0):
        for _ in range(500):
            q = rng.uniform(-2, 2, size=4)
            ok, margin = scalar_submodularity_inequality(p, *q)
            assert ok, (p, q, margin)
    with pytest.raises(PreconditionError):
        scalar_submodularity_inequality(0.5, 1.0, 0.0, 0.0, 1.0)
