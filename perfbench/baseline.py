"""Re-measure the three baseline figures quoted in ROADMAP.md, with spans.

Run from the repository root:

    python3 perfbench/baseline.py

ROADMAP.md quotes single cProfile runs: ``graph_dirichlet`` 4.46 s on the
40x40 grid with its boundary ring pinned (n = 1444), PSOR at about 6.3 ms
per sweep on that energy, and validation (PSD check plus metric axiom
check) at about 85% of an ``obslat cutoff`` on a 35x35 grid.  This script
measures the same three things through the benchmark's tracer, without
cProfile, and prints each layer's share of the cutoff.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import obslat  # noqa: E402
import obslat.cli  # noqa: E402
import obslat.instances  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import grid_points, membrane_box  # noqa: E402


def main() -> int:
    tracer = Tracer()
    instrument(tracer)
    grid = obslat.instances

    side = 40
    start = time.perf_counter()
    energy = obslat.graph_dirichlet(side * side, grid.grid_edges(side, side),
                                    grid.grid_boundary(side, side))
    build_s = time.perf_counter() - start
    tracer.take()

    box = obslat.OrderInterval(*membrane_box(np.random.default_rng(0),
                                             grid_points(side, energy.free_nodes), 0.0))
    sol = obslat.solve_psor(energy, box, tol=1e-9)
    solve_self, counts = tracer.take()
    per_sweep = solve_self["solvers.solve"] / counts["solvers.iterations"]

    side = 35
    nodes = side * side
    core = [17 * side + 17]
    region = [i * side + j for i in range(4, 31) for j in range(4, 31)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cutoff.json"
        cfg.write_text(json.dumps({
            "graph": {"nodes": nodes, "edges": [list(e) for e in grid.grid_edges(side, side)]},
            "core": core, "region": region}))
        with tracer.span("bench.op"):
            code = obslat.cli.main(["cutoff", "--config", str(cfg), "--out", tmp])
    cutoff_self, _ = tracer.take()
    total = sum(cutoff_self.values())
    validation = cutoff_self.get("energies.build", 0.0) + cutoff_self.get("metric.axiom_check", 0.0)

    print(f"graph_dirichlet 40x40 (n = {energy.n}): {build_s:.2f} s   [ROADMAP 4.46 s]")
    print(f"solve_psor on it: {sol.iterations} sweeps, {per_sweep * 1e3:.2f} ms per sweep"
          f"   [ROADMAP about 6.3 ms]")
    print(f"obslat cutoff 35x35 (n = {nodes}): exit {code}, {total:.2f} s, validation "
          f"{validation / total:.0%} (energy build with PSD check "
          f"{cutoff_self.get('energies.build', 0.0):.2f} s, metric axiom check "
          f"{cutoff_self.get('metric.axiom_check', 0.0):.2f} s), solve "
          f"{cutoff_self.get('solvers.solve', 0.0) / total:.0%}   [ROADMAP 85% and 9%]")
    for name, t in sorted(cutoff_self.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {t:8.3f} s  {t / total:6.1%}")
    return 0 if code == 0 and sol.converged else 1


if __name__ == "__main__":
    sys.exit(main())
