"""Double obstacle problem on a grid membrane, with its certificate.

A membrane pinned at the boundary is pushed up by a lower obstacle and
capped by an upper one.  We minimize the grid Dirichlet energy over the
interval between the obstacles, then verify the Lewy-Stampacchia
inequality: the Laplacian of the solution never exceeds what the obstacles
themselves impose.
"""

import numpy as np

from obslat import (
    OrderInterval,
    brute_force_active_set,
    certificate_report,
    graph_dirichlet,
    ls_certificate,
    solve_newton,
)
from obslat.instances import grid_boundary, grid_edges

nx = ny = 9
boundary = grid_boundary(nx, ny)
energy = graph_dirichlet(nx * ny, grid_edges(nx, ny), boundary)

# obstacles over the free (interior) nodes: a centered bump pushes the
# membrane up, a depression near one corner caps it from above
interior = [(i, j) for i in range(nx) for j in range(ny)
            if 0 < i < nx - 1 and 0 < j < ny - 1]
xy = np.array(interior) / (nx - 1)
bump = 0.35 - 2.2 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.5) ** 2)
lower = np.maximum(bump, -0.05)
profile = 0.40 - 0.25 * np.exp(-((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.2) ** 2) / 0.02)
upper = np.maximum(lower + 0.02, profile)
box = OrderInterval(lower, upper)

sol = solve_newton(energy, box, tol=1e-10)
print(f"projected Newton: {sol.iterations} step(s), KKT residual {sol.kkt_residual:.2e}")
print(f"active lower: {sol.active_lower.size} nodes, "
      f"active upper: {sol.active_upper.size}, free: {sol.free.size}")

cert = ls_certificate(energy, box, sol, tol=1e-9)
report = certificate_report(energy, box, sol, cert)
print(f"certificate pass: {report['pass']}")
print(f"  slack minima: lower {report['lower_slack_min']:.3e}, "
      f"upper {report['upper_slack_min']:.3e}")
print(f"  sup |Laplacian| of solution: {report['sup_laplacian']:.4f}")

# the same bound, spelled out: Laplacian of u is squeezed by the obstacles
lap_lo = -energy.gradient(lower)
lap_hi = -energy.gradient(upper)
obstacle_bound = max(np.max(np.abs(np.minimum(lap_lo, 0))),
                     np.max(np.abs(np.maximum(lap_hi, 0))))
print(f"  obstacle Laplacian bound:    {obstacle_bound:.4f}")

# sanity on a desk-size instance: enumeration agrees with the iteration
small = graph_dirichlet(12, [(i, i + 1, 1.0) for i in range(11)], [0, 11])
small_box = OrderInterval(0.3 * np.sin(np.linspace(0.3, 2.8, 10)), np.full(10, 0.5))
gap = np.max(np.abs(solve_newton(small, small_box, tol=1e-10).u
                    - brute_force_active_set(small, small_box).u))
print(f"Newton vs brute-force enumeration on a 10-node path: gap {gap:.2e}")
