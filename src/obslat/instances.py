"""Instance builders for property suites and experiments.

Every random builder takes a ``numpy.random.Generator`` as its first
argument and is fully determined by it, so suites seeded identically are
bit-reproducible.  Deterministic graph builders (paths, grids) live here
too since the suites lean on them.
"""

from __future__ import annotations

import numpy as np

from .energies import (KernelEnergy, QuadraticEnergy, fractional_kernel_1d, graph_dirichlet,
                       laplacian, validate_edges)
from .lattice import OrderInterval, UNBOUNDED
from .metric import FiniteMetricSpace, GraphSpace, c_transform


def path_edges(n: int, weight: float = 1.0) -> list:
    return [(i, i + 1, weight) for i in range(n - 1)]


def path_space(n: int, weight: float = 1.0) -> GraphSpace:
    return GraphSpace.from_graph(n, path_edges(n, weight))


def grid_edges(nx: int, ny: int, weight: float = 1.0) -> list:
    edges = []
    for i in range(nx):
        for j in range(ny):
            v = i * ny + j
            if i + 1 < nx:
                edges.append((v, (i + 1) * ny + j, weight))
            if j + 1 < ny:
                edges.append((v, v + 1, weight))
    return edges


def grid_space(nx: int, ny: int, weight: float = 1.0) -> GraphSpace:
    return GraphSpace.from_graph(nx * ny, grid_edges(nx, ny, weight))


def grid_boundary(nx: int, ny: int) -> list:
    """Indices of the outer ring of an nx-by-ny grid."""
    return sorted(
        i * ny + j
        for i in range(nx)
        for j in range(ny)
        if i in (0, nx - 1) or j in (0, ny - 1)
    )


def random_connected_edges(rng: np.random.Generator, n: int, extra_frac: float = 0.5) -> list:
    """Random spanning tree plus a sprinkling of extra edges, weights in [0.5, 1.5)."""
    edges = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.5, 1.5))))
        seen.add((u, v))
    for _ in range(int(np.ceil(extra_frac * n))):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j:
            continue
        i, j = min(i, j), max(i, j)
        if (i, j) in seen:
            continue
        seen.add((i, j))
        edges.append((i, j, float(rng.uniform(0.5, 1.5))))
    return edges


def random_submodular_quadratic(rng: np.random.Generator, n: int) -> QuadraticEnergy:
    """Z-matrix PSD energy: random graph Laplacian plus a diagonal in [0.3, 1.5), normal b."""
    edges = validate_edges(n, random_connected_edges(rng, n) if n > 1 else [])
    a = laplacian(n, *edges, diag=rng.uniform(0.3, 1.5, size=n))
    return QuadraticEnergy(a, rng.normal(size=n))


def random_box(rng: np.random.Generator, n: int) -> OrderInterval:
    lo = rng.normal(size=n) - np.abs(rng.normal(size=n))
    hi = lo + 0.2 + np.abs(rng.normal(size=n))
    return OrderInterval(lo, hi)


def random_lower_obstacle_box(rng: np.random.Generator, n: int) -> OrderInterval:
    lo = rng.normal(size=n)
    return OrderInterval(lo, np.full(n, UNBOUNDED))


def random_symmetric_matrix(rng: np.random.Generator, n: int, z_matrix: bool) -> np.ndarray:
    """Dense random symmetric matrix; ``z_matrix=True`` forces off-diag <= 0."""
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    if z_matrix:
        off = ~np.eye(n, dtype=bool)
        a[off] = -np.abs(a[off])
    return a


def random_planar_metric(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Euclidean metric of a random point cloud in the unit square, points 1e-3 apart."""
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        space = FiniteMetricSpace.from_points(pts)
        off = ~np.eye(n, dtype=bool)
        if n == 1 or np.min(space.D[off]) > 1e-3:
            return space


def random_c_concave(rng: np.random.Generator, space: FiniteMetricSpace, scale: float) -> np.ndarray:
    """Double c-transform of uniform noise; always exactly c-concave."""
    raw = rng.uniform(-scale, scale, size=space.n)
    return c_transform(space, c_transform(space, raw))


def random_smooth_obstacles(rng: np.random.Generator, n: int, force_contact: str) -> OrderInterval:
    """Smooth lower/upper profiles on the unit-interval grid (n interior points).

    The profiles are shifted so an unconstrained-at-zero energy must touch the
    lower obstacle (``force_contact="lower"``) or the upper one (``"upper"``),
    keeping the instances nontrivial.
    """
    x = np.arange(1, n + 1) / (n + 1)
    k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    mid = (
        0.4 * rng.normal() * np.sin(np.pi * k1 * x)
        + 0.4 * rng.normal() * x * (1 - x)
        + 0.1 * rng.normal()
    )
    width = 0.2 + 0.15 * (1.0 + np.sin(np.pi * k2 * x + rng.uniform(0, np.pi)))
    lo, hi = mid - 0.5 * width, mid + 0.5 * width
    shift = 0.2 - np.max(lo) if force_contact == "lower" else -0.2 - np.min(hi)
    return OrderInterval(lo + shift, hi + shift)


def random_fractional_instance(rng: np.random.Generator, n_max: int):
    """Fractional kernel energy with random smooth obstacles; returns (E, box, s, p)."""
    n = int(rng.integers(8, n_max + 1))
    s = float(rng.choice([0.25, 0.5, 0.75]))
    p = float(rng.choice([2.0, 3.0]))
    side = "lower" if rng.integers(0, 2) else "upper"
    energy = fractional_kernel_1d(n, 1.0 / (n + 1), s, p, collar=3)
    return energy, random_smooth_obstacles(rng, n, force_contact=side), s, p


def random_kernel_pair(rng: np.random.Generator, n: int, p: float) -> KernelEnergy:
    """Random sparse kernel energy (for T-monotonicity sampling)."""
    pairs = []
    for i in range(n - 1):
        pairs.append((i, i + 1, float(rng.uniform(0.5, 2.0))))
    for _ in range(n // 2):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i < j and all((i, j) != (a, b) for a, b, _ in pairs):
            pairs.append((i, j, float(rng.uniform(0.5, 2.0))))
    exterior = [(i, float(rng.uniform(0.0, 1.0))) for i in range(n)]
    return KernelEnergy(n, pairs, exterior, p)


def random_grid_dirichlet(rng: np.random.Generator):
    """Dirichlet energy of a grid with sides 3 to 6 pinned on its boundary ring, random values there.

    Returns (energy, boundary_values); the energy carries the coupling block.
    """
    nx = int(rng.integers(3, 7))
    ny = int(rng.integers(3, 7))
    boundary = grid_boundary(nx, ny)
    energy = graph_dirichlet(nx * ny, grid_edges(nx, ny), boundary)
    values = rng.uniform(0.0, 1.0, size=len(boundary))
    return energy, values
