"""Regenerate the frozen expected values in this directory.

Each golden value is cross-checked against an independent oracle before it
is written:

* fractional_p3_n3.json -- projected-Newton solution of the 3-point p=3
  kernel instance, checked against scipy L-BFGS-B on the same box.
* cutoff_path11.json -- obstacle-problem solution on the 11-node path by
  projected Newton, checked against the brute-force active-set enumeration
  (n = 11 <= 12).
* cutoff_grid5x5.json -- obstacle formulas on a 5x5 grid, recomputed here
  from BFS distances with plain loops (no library code).

The suite golden is the suite.csv of ``obslat suite --seed 0``, the run of
``test_suite_matches_golden``.  It records the suite's own measurements, so
the only check here is the exit code: every row passes.  Each row whose
worst_value differs from the committed golden is printed as
``moved name: old -> new``, a row only the golden has as
``removed name (was old)`` and a row only the new run has as
``added name: new``.

Run from the repository root:  PYTHONPATH=src python3 tests/golden/generate.py [OUT_DIR]
OUT_DIR defaults to this directory; ``test_goldens_regenerate_byte_for_byte``
regenerates into a temporary one and compares.
"""

import csv
import json
import shutil
import sys
import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import scipy.optimize

from obslat.certificates import ls_certificate
from obslat.cli import main
from obslat.energies import fractional_kernel_1d
from obslat.instances import grid_edges, path_space, grid_space
from obslat.lattice import OrderInterval
from obslat.metric import cutoff_obstacles
from obslat.solvers import brute_force_active_set, solve_newton


def write(out, name, payload):
    (out / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {name}")


def fractional_p3(out):
    energy = fractional_kernel_1d(3, 1.0, 0.5, 3.0, collar=2)
    box = OrderInterval([0.2, 0.2, 0.2], [1.0, 1.0, 1.0])
    sol = solve_newton(energy, box, tol=1e-10)
    assert sol.converged
    ref = scipy.optimize.minimize(
        energy.value, 0.5 * np.ones(3), jac=energy.gradient,
        bounds=[(0.2, 1.0)] * 3, method="L-BFGS-B",
        options={"ftol": 1e-16, "gtol": 1e-12},
    )
    gap = float(np.max(np.abs(sol.u - ref.x)))
    assert gap <= 1e-7, f"Newton vs L-BFGS-B gap {gap}"
    cert = ls_certificate(energy, box, sol, tol=1e-7)
    assert cert.passed
    write(out, "fractional_p3_n3.json", {
        "params": {"n": 3, "h": 1.0, "s": 0.5, "p": 3.0, "collar": 2},
        "lo": box.lo.tolist(),
        "hi": box.hi.tolist(),
        "u": sol.u.tolist(),
        "energy": energy.value(sol.u),
        "lbfgsb_gap": gap,
        "lower_slack_min": cert.lower_slack_min,
        "upper_slack_min": cert.upper_slack_min,
    })


def cutoff_path11(out):
    space = path_space(11)
    core, region = [5], list(range(2, 9))
    phi, psi, r2 = cutoff_obstacles(space, core, region)
    energy = space.dirichlet_energy
    box = OrderInterval(phi, psi)
    sol = solve_newton(energy, box, tol=1e-11)
    oracle = brute_force_active_set(energy, box)
    gap = float(np.max(np.abs(sol.u - oracle.u)))
    assert gap <= 1e-9, f"Newton vs enumeration gap {gap}"
    cert = ls_certificate(energy, box, sol, tol=1e-9)
    assert cert.passed
    write(out, "cutoff_path11.json", {
        "core": core,
        "region": region,
        "r2": r2,
        "phi": phi.tolist(),
        "psi": psi.tolist(),
        "omega": oracle.u.tolist(),
        "lower_slack_min": cert.lower_slack_min,
        "upper_slack_min": cert.upper_slack_min,
    })


def cutoff_grid5x5(out):
    # 5x5 unit grid, core = center node, region = everything but one corner.
    nx = ny = 5
    n = nx * ny
    core = [2 * ny + 2]
    far = 0
    region = [v for v in range(n) if v != far]

    adj = {v: [] for v in range(n)}
    for i, j, _ in grid_edges(nx, ny):
        adj[i].append(j)
        adj[j].append(i)

    def bfs(start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return [float(dist[v]) for v in range(n)]

    d_core = bfs(core[0])
    d_far = bfs(far)
    d0 = d_core[far]
    r2 = d0 * d0 / 4.0
    phi = [1.0 - min(1.0, d * d / (2.0 * r2)) for d in d_core]
    psi = [min(1.0, d * d / (2.0 * r2)) for d in d_far]
    assert all(p <= q for p, q in zip(phi, psi))

    space = grid_space(nx, ny)
    lib_phi, lib_psi, lib_r2 = cutoff_obstacles(space, core, region)
    assert lib_r2 == r2
    assert np.array_equal(lib_phi, phi) and np.array_equal(lib_psi, psi)
    write(out, "cutoff_grid5x5.json", {
        "core": core,
        "region": region,
        "r2": r2,
        "phi": phi,
        "psi": psi,
    })


def worst_values(path):
    """check_name -> worst_value, as the text of a suite.csv gives them."""
    with open(path, newline="") as fh:
        return {row["check_name"]: row["worst_value"] for row in csv.DictReader(fh)}


def suite_csv(out, name, cfg, expected_code):
    committed = worst_values(Path(__file__).parent / name)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        code = main(["suite", "--seed", "0", "--config", str(config), "--out", tmp])
        assert code == expected_code, f"{name}: suite exited {code}"
        shutil.copyfile(Path(tmp) / "suite.csv", out / name)
    print(f"wrote {name}")
    fresh = worst_values(out / name)
    for check in sorted(committed.keys() | fresh.keys()):
        old, new = committed.get(check), fresh.get(check)
        if new is None:
            print(f"  removed {check} (was {old})")
        elif old is None:
            print(f"  added {check}: {new}")
        elif old != new:
            print(f"  moved {check}: {old} -> {new}")


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent
    fractional_p3(out)
    cutoff_path11(out)
    cutoff_grid5x5(out)
    suite_csv(out, "suite_seed0.csv", {}, 0)
