"""Work counts and memory at n = 10^4 (a 100 x 100 grid), not wall times,
and answers that must not depend on the scale of the edge weights.

An n x n float array at this size takes 800 MB, so a traced peak far below
that shows that neither path builds one.
"""

import json
import tracemalloc

import numpy as np
import pytest

from obslat.cli import main
from obslat.instances import grid_boundary, grid_edges, grid_space
from obslat.metric import build_cutoff, kantorovich_regularize

SIDE = 100

#: Traced peak allowed per call; an n x n array of one byte would take 95 MiB.
PEAK_BYTES = 48 * 2**20


def _traced(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cutoff_100x100_newton():
    ii, jj = np.divmod(np.arange(SIDE * SIDE), SIDE)
    dist = np.maximum(np.abs(ii - 50), np.abs(jj - 50))
    core, region = np.flatnonzero(dist <= 1), np.flatnonzero(dist <= 40)
    space = grid_space(SIDE, SIDE)
    cut, peak = _traced(lambda: build_cutoff(space, core, region))
    assert cut.solution.converged and cut.solution.iterations <= 25
    assert cut.certificate.passed
    assert np.all(cut.solution.u[core] == 1.0)
    assert np.all(cut.solution.u[dist > 40] == 0.0)
    assert peak < PEAK_BYTES


def test_cli_solve_100x100_newton(tmp_path):
    nodes, ring = SIDE * SIDE, grid_boundary(SIDE, SIDE)
    x = np.linspace(0.0, 1.0, SIDE)[1:-1]
    xx, yy = np.meshgrid(x, x)
    lo = 0.3 - 2.0 * ((xx - 0.5) ** 2 + (yy - 0.5) ** 2)
    hi = lo + 0.5 + 0.2 * np.sin(7.0 * xx)
    lo[:, 60] = hi[:, 60] = 0.2  # a pinned column
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({
        "energy": {"kind": "graph", "nodes": nodes, "edges": grid_edges(SIDE, SIDE),
                   "dirichlet": ring},
        "box": {"lo": lo.ravel().tolist(), "hi": hi.ravel().tolist()},
    }))
    out = tmp_path / "out"
    code, peak = _traced(lambda: main(["solve", "--config", str(config), "--out", str(out)]))
    assert code == 0
    solution = json.loads((out / "solution.json").read_text())
    assert solution["method"] == "newton" and solution["iterations"] <= 25
    assert np.all(np.asarray(solution["u"]).reshape(lo.shape)[:, 60] == 0.2)
    assert json.loads((out / "certificate.json").read_text())["pass"] is True
    assert peak < PEAK_BYTES


def test_kantorovich_40x40_holds_one_distance_matrix():
    # Hopf-Lax reads the dense D (8 n^2 bytes); building it and every
    # transform together may add at most 30% on top
    side = 40
    n = side * side
    space = grid_space(side, side)
    phi = np.random.default_rng(40).uniform(-0.2, 0.2, n)
    (eta, pair, cert), peak = _traced(
        lambda: kantorovich_regularize(space, phi, 0.4, cc_regularize=True))
    assert cert.passed and np.all((pair.lo <= eta) & (eta <= pair.hi))
    assert peak < 1.3 * 8 * n * n


SCALE_SIDE = 15
#: Direction 1 of ROADMAP.md: the Newton stop and certificate tolerances are
#: absolute, so they mean something different at every weight scale.
SCALE_REASON = "tolerances are not yet scale-invariant (ROADMAP direction 1)"


def _scaled_cutoff(weight):
    rows, cols = np.divmod(np.arange(SCALE_SIDE * SCALE_SIDE), SCALE_SIDE)
    core = np.flatnonzero((6 <= rows) & (rows <= 8) & (6 <= cols) & (cols <= 8))
    region = np.flatnonzero((2 <= rows) & (rows <= 12) & (2 <= cols) & (cols <= 12))
    return build_cutoff(grid_space(SCALE_SIDE, SCALE_SIDE, weight), core, region)


@pytest.mark.xfail(strict=True, reason=SCALE_REASON)
@pytest.mark.parametrize("weight", [1e-9, 1e9])
def test_cutoff_independent_of_edge_weight_scale(weight):
    # every weight w gives the same obstacles and the energy w * E, so the
    # same minimizer: today w = 1e-9 certifies after 0 steps 0.36 away from
    # it, and w = 1e9 stops unconverged after 1000 steps (KKT 3e-7)
    reference = _scaled_cutoff(1.0).solution.u
    cut = _scaled_cutoff(weight)
    assert cut.certificate.passed
    assert np.max(np.abs(cut.solution.u - reference)) <= 1e-12
