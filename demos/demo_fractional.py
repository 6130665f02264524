"""Obstacle problems for discrete fractional kernels, p = 1.5, 2 and 3.

The kernel couples every pair of grid points with weight decaying like
dist^-(1+p*s), plus collar terms that stand in for the zero extension
outside the interval.  Certificates hold for every s and p because the
energy is submodular: |.|^p satisfies the scalar lattice inequality.
Each problem is solved by projected Newton, the solver of ``obslat solve``;
below p = 2 it runs on a model Hessian that floors ties.
"""

import numpy as np

from obslat import (
    OrderInterval,
    QuadraticEnergy,
    fractional_kernel_1d,
    ls_certificate,
    scalar_submodularity_inequality,
    solve_newton,
)

n = 24
x = np.arange(1, n + 1) / (n + 1)
lower = 0.25 * np.sin(np.pi * x) - 0.05
upper = lower + 0.18 + 0.1 * np.cos(2 * np.pi * x) ** 2
box = OrderInterval(lower, upper)

print("    s    p    iters   contact(lo/hi)   slack_lo     slack_hi")
for s in (0.25, 0.5, 0.75):
    for p in (1.5, 2.0, 3.0):
        energy = fractional_kernel_1d(n, 1.0 / (n + 1), s, p, collar=3)
        sol = solve_newton(energy, box, tol=1e-9)
        cert = ls_certificate(energy, box, sol, tol=1e-7)
        assert cert.passed
        print(f"  {s:.2f}  {p:.1f}  {sol.iterations:6d}   "
              f"{sol.active_lower.size:3d} / {sol.active_upper.size:<3d}      "
              f"{cert.lower_slack_min:+.2e}  {cert.upper_slack_min:+.2e}")

# p = 2 kernels are plain quadratic forms in disguise: E(u) = 1/2 <Hu,u>
# with H the Hessian, which does not depend on u
energy2 = fractional_kernel_1d(n, 1.0 / (n + 1), 0.5, 2.0, collar=3)
u = np.sin(3 * x)
quad = QuadraticEnergy(energy2.hessian(u))
print(f"\np=2 evaluation equivalence: kernel {energy2.value(u):.12f} "
      f"vs matrix {quad.value(u):.12f}")

# the scalar inequality behind all of this
worst = min(scalar_submodularity_inequality(3.0, *q).value
            for q in np.random.default_rng(0).uniform(-2, 2, size=(2000, 4)))
print(f"scalar |x|^3 lattice inequality, min margin over 2000 draws: {worst:.3e}")
