"""Cut-off functions with bounded Laplacian on a grid.

Between the distance-profile obstacles phi and psi the Dirichlet minimizer
is exactly 1 on the core, exactly 0 outside the region, and its Laplacian
is bounded by what the obstacles impose: regularization for free, certified
by the Lewy-Stampacchia inequality.
"""

import numpy as np

from obslat import build_cutoff, cutoff_obstacles
from obslat.instances import grid_space, path_space

side = 15
space = grid_space(side, side)
core = [i * side + j for i in range(6, 9) for j in range(6, 9)]
region = [i * side + j for i in range(3, 12) for j in range(3, 12)]

phi, psi, r2 = cutoff_obstacles(space, core, region)
cut = build_cutoff(space, core, region)
omega, cert = cut.solution.u, cut.certificate
energy = space.dirichlet_energy

print(f"grid {side}x{side}, core 3x3, region 9x9, r^2 = {r2}")
print(f"certificate pass: {cert.passed}  "
      f"(slacks {cert.lower_slack_min:.1e}, {cert.upper_slack_min:.1e})")
print(f"sup |Laplacian(omega)| = {np.max(np.abs(-energy.gradient(omega))):.4f}")
print(f"omega == 1 on core: {np.all(omega[core] == 1.0)}, "
      f"omega == 0 off region: "
      f"{np.all(omega[sorted(set(range(side * side)) - set(region))] == 0.0)}")

print("\ncross-section through the middle row:")
mid = omega.reshape(side, side)[7]
print("  " + "  ".join(f"{v:.2f}" for v in mid))

shades = " .:-=+*#%@"
print("\nheight map (0 = blank, 1 = @):")
for i in range(side):
    row = omega.reshape(side, side)[i]
    print("  " + "".join(shades[min(int(v * (len(shades) - 1) + 0.5), 9)] for v in row))

# The paper's literal radius r^2 = D0^2/2, twice the one used above, breaks
# the obstacle ordering at metric midpoints; the 5-node path shows it at once.
path, path_core, path_out = path_space(5), [2], [0, 4]
_, _, path_r2 = cutoff_obstacles(path, path_core, [1, 2, 3])
paper_phi = 1.0 - np.minimum(1.0, path.distance_to(path_core) ** 2 / (4.0 * path_r2))
paper_psi = np.minimum(1.0, path.distance_to(path_out) ** 2 / (4.0 * path_r2))
print(f"\npaper's radius r^2 = D0^2/2 on a 5-path: phi exceeds psi "
      f"by {np.max(paper_phi - paper_psi)} at the midpoint (this is why r^2 = D0^2/4)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(12, 4))
    for ax, (field, title) in zip(axes, [(phi, "phi"), (omega, "omega"), (psi, "psi")]):
        im = ax.imshow(field.reshape(side, side), vmin=0, vmax=1, cmap="viridis")
        ax.set_title(title)
        fig.colorbar(im, ax=ax, shrink=0.8)
    fig.savefig("cutoff_demo.png", dpi=120, bbox_inches="tight")
    print("wrote cutoff_demo.png")
except ImportError:
    pass
