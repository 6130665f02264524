import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

import obslat.cli
import obslat.energies
import obslat.metric
import obslat.suite
from obslat.certificates import lipschitz_ratio
from obslat.cli import main
from obslat.energies import QuadraticEnergy
from obslat.errors import (
    CertificateError,
    ConstructionError,
    DimensionMismatch,
    ObstacleOrderError,
    PreconditionError,
)
from obslat.instances import (
    grid_edges,
    grid_space,
    path_space,
    random_c_concave,
    random_connected_edges,
    random_planar_metric,
)
from obslat.lattice import OrderInterval
from obslat.metric import (
    HOPF_LAX_BLOCK,
    FiniteMetricSpace,
    GraphSpace,
    build_cutoff,
    c_transform,
    coincidence_cc_report,
    cutoff_obstacles,
    hopf_lax,
    interpolation_duality_check,
    is_c_concave,
    kantorovich_regularize,
)
from obslat.solvers import solve_newton
from obslat.suite import check_cutoff, check_kantorovich, check_ls_quadratic

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def two_points():
    return FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))


# ------------------------------------------------------------------ spaces

def test_metric_validation():
    with pytest.raises(ConstructionError):
        FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ConstructionError):
        FiniteMetricSpace(np.array([[0.5]]))  # nonzero diagonal
    with pytest.raises(ConstructionError):
        FiniteMetricSpace(np.array([[0.0, 0.0], [0.0, 0.0]]))  # zero off-diag
    with pytest.raises(ConstructionError):
        # triangle inequality: d(0,2) = 5 > 1 + 1
        FiniteMetricSpace(np.array([[0.0, 1.0, 5.0],
                                    [1.0, 0.0, 1.0],
                                    [5.0, 1.0, 0.0]]))


def test_triangle_inequality_is_checked_through_every_point():
    # 250 points on a line, every distance to point 4 scaled by 0.9:
    # d(3, 5) = 2 > d(3, 4) + d(4, 5) = 1.8.  Above 200 points the check
    # used to go through 200 sampled points, none of them 4, and accepted it
    x = np.arange(250.0)
    d = np.abs(x[:, None] - x[None, :])
    d[4, :] *= 0.9
    d[:, 4] *= 0.9
    with pytest.raises(ConstructionError, match="through point 4"):
        FiniteMetricSpace(d)


def test_metric_symmetry_tolerance_is_relative():
    # Shortest paths with lengths near 1e3 differ from their transpose by
    # rounding far above 1e-12; that is not an asymmetric input.
    rng = np.random.default_rng(7)
    edges = [(i, j, 1e3 * w) for i, j, w in random_connected_edges(rng, 150)]
    i, j, w = (np.array(col) for col in zip(*edges))
    adj = sp.coo_matrix((w, (i, j)), shape=(150, 150)).tocsr()
    d = dijkstra(adj, directed=False)
    assert FiniteMetricSpace(d).n == 150
    space = GraphSpace.from_graph(150, edges)
    assert np.array_equal(space.D, space.D.T)
    assert not space.D.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 2 * HOPF_LAX_BLOCK + 45])
def test_graph_space_D_is_symmetrized_one_shot_dijkstra(n):
    # D is symmetrized in place, block pair by block pair; it must equal
    # the one-shot formula bit for bit, also
    # where the raw Dijkstra matrix is asymmetric by rounding
    rng = np.random.default_rng(n)
    edges = [(i, j, float(10.0 ** rng.uniform(-3.0, 3.0)))
             for i, j, _ in random_connected_edges(rng, n)] if n > 1 else []
    space = GraphSpace(n, edges)
    d = dijkstra(space.adj, directed=False)
    if n == 2 * HOPF_LAX_BLOCK + 45:
        assert not np.array_equal(d, d.T)
    assert np.array_equal(space.D, 0.5 * (d + d.T))
    assert not space.D.flags.writeable


def test_graph_space_shortest_paths():
    space = path_space(4, weight=2.0)
    assert space.D[0, 3] == 6.0
    with pytest.raises(ConstructionError):
        GraphSpace.from_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])  # disconnected
    for repeated in ([(0, 1, 1.0), (1, 0, 1.0)], [(0, 1, 1.0), (0, 1, 2.0)]):
        with pytest.raises(ConstructionError):
            GraphSpace.from_graph(2, repeated)
    with pytest.raises(ConstructionError):
        GraphSpace(3, [(0, 1, 1.0), (1, 2, np.inf)])  # at construction, not at first use


def test_graph_space_constructor_is_from_graph():
    edges = [(0, 1, 1.0), (2, 1, 2.0), (0, 2, 5.0)]
    direct, built = GraphSpace(3, edges), GraphSpace.from_graph(3, edges)
    assert type(direct) is type(built) is GraphSpace
    assert direct.n == built.n == 3 and np.array_equal(direct.edges, built.edges)
    assert repr(direct) == repr(built) == "GraphSpace(nodes=3, edges=3)"
    assert (direct.adj != built.adj).nnz == 0
    assert np.array_equal(direct.D, built.D)
    assert (direct.dirichlet_energy.a != built.dirichlet_energy.a).nnz == 0
    with pytest.raises(ConstructionError):
        GraphSpace(4, [(0, 1, 1.0), (2, 3, 1.0)])  # disconnected
    with pytest.raises(ConstructionError, match="is not an integer"):
        GraphSpace(built.D, edges=edges)  # a distance matrix is no node count
    with pytest.raises(ConstructionError, match="nodes 2.5 is not an integer"):
        GraphSpace(2.5, edges)
    assert GraphSpace(3.0, edges).n == 3
    with pytest.raises(TypeError):
        GraphSpace(D=built.D, edges=edges)
    # a plain class: no dataclass fields, no inherited from_points
    assert not dataclasses.is_dataclass(GraphSpace)
    assert not issubclass(GraphSpace, FiniteMetricSpace)
    assert not hasattr(GraphSpace, "from_points")
    assert sorted(vars(GraphSpace(3, edges))) == ["adj", "edges"]


def _count_calls(monkeypatch, name, *modules) -> list:
    """Patch ``module.<name>`` in each module to log its calls into the returned list."""
    calls = []
    for module in modules:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_edges_validated_once_per_space(monkeypatch):
    calls = _count_calls(monkeypatch, "validate_edges", obslat.metric, obslat.energies)
    energy = GraphSpace.from_graph(9, grid_edges(3, 3)).dirichlet_energy
    assert energy.n == 9 and obslat.energies.z_matrix_violation(energy) is None
    assert calls == ["validate_edges"]


def _graph_cases():
    """(space, exact) pairs: unit-weight graphs have exact distances."""
    rng = np.random.default_rng(11)
    yield path_space(9), True
    yield grid_space(7, 6), True
    for n in (2, 30, 120):
        yield GraphSpace.from_graph(n, random_connected_edges(rng, n)), False
    # the edge (0, 2) is longer than its detour through node 1
    yield GraphSpace.from_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 0.3)]), False


def test_distance_to_matches_dense_column_min():
    rng = np.random.default_rng(12)
    for space, exact in _graph_cases():
        # Dijkstra runs directed on the two-arc adjacency; scipy's undirected
        # mode gives the same distances bit for bit
        d = dijkstra(space.adj, directed=False)
        assert np.array_equal(space.D, 0.5 * (d + d.T))
        for size in (1, 2, max(1, space.n // 3)):
            idx = sorted(rng.choice(space.n, size=size, replace=False).tolist())
            assert np.array_equal(space.distance_to(idx), dijkstra(
                space.adj, directed=False, min_only=True, indices=idx))
            dense = np.min(space.D[:, idx], axis=1)
            assert space.n == FiniteMetricSpace(space.D).n
            assert np.array_equal(FiniteMetricSpace(space.D).distance_to(idx), dense)
            got = space.distance_to(idx)
            if exact:
                assert np.array_equal(got, dense)
            else:
                assert np.allclose(got, dense, rtol=1e-12, atol=0)


def test_distance_to_checks_its_index_set():
    # list(indices) used to answer [1.5] for node 1 and [-1] for the last node
    space = path_space(4)
    for metric in (space, FiniteMetricSpace(space.D)):
        for bad in ([1.5], [-1], [4], ["1"]):
            with pytest.raises(ConstructionError):
                metric.distance_to(bad)
        assert np.array_equal(metric.distance_to([3.0, 0, 3]), [0.0, 1.0, 1.0, 0.0])


def test_graph_lipschitz_matches_pairwise_ratio():
    rng = np.random.default_rng(13)
    for space, exact in _graph_cases():
        dense = FiniteMetricSpace(space.D)
        for v in (rng.normal(size=space.n), np.arange(space.n, dtype=float),
                  np.zeros(space.n)):
            got, want = space.lipschitz(v), dense.lipschitz(v)
            if exact:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0)
    detour = GraphSpace.from_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    v = np.array([0.0, 1.0, 2.0])
    assert detour.lipschitz(v) == FiniteMetricSpace(detour.D).lipschitz(v) == 1.0
    assert GraphSpace.from_graph(1, []).lipschitz([3.0]) == 0.0
    assert FiniteMetricSpace(np.zeros((1, 1))).lipschitz([3.0]) == 0.0


@pytest.mark.parametrize("length", [2, 4])
def test_lipschitz_needs_one_value_per_point(length):
    # the edge form would ignore a fourth value and index past a second
    space = GraphSpace.from_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    for metric in (space, FiniteMetricSpace(space.D)):
        with pytest.raises(DimensionMismatch):
            metric.lipschitz(np.zeros(length))


def test_cutoff_builds_no_all_pairs_matrix(tmp_path, monkeypatch):
    # every Dijkstra call must be a multi-source distance to a set; D's row
    # blocks ask for one full row per source instead
    dijkstra_ = obslat.metric.dijkstra

    def sources_only(*args, **kwargs):
        if not kwargs.get("min_only"):
            raise AssertionError("all-pairs Dijkstra called")
        return dijkstra_(*args, **kwargs)

    monkeypatch.setattr(obslat.metric, "dijkstra", sources_only)
    side = 100
    cfg = {
        "graph": {"nodes": side * side, "edges": grid_edges(side, side)},
        "core": [side * 50 + 50],
        "region": [side * r + c for r in range(46, 55) for c in range(46, 55)],
    }
    path = tmp_path / "cutoff.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["cutoff", "--config", str(path), "--out", str(out)]) == 0
    certificate = json.loads((out / "certificate.json").read_text())
    assert certificate["pass"] is True and certificate["lipschitz_ratio"] > 0.0


# ---------------------------------------------------------------- Hopf-Lax

def test_hopf_lax_two_point_example(two_points):
    q = hopf_lax(two_points, [0.0, -2.0], 0.5)
    assert np.array_equal(q, [-1.0, -2.0])


def test_hopf_lax_constant_and_monotone(two_points):
    c = np.array([0.7, 0.7])
    assert np.array_equal(hopf_lax(two_points, c, 0.3), c)
    rng = np.random.default_rng(5)
    for _ in range(20):
        space = random_planar_metric(rng, 8)
        psi = rng.normal(size=8)
        q1 = hopf_lax(space, psi, 0.2)
        q2 = hopf_lax(space, psi, 0.9)
        # exact: d(x, x) = 0, and rounded +, / t > 0 and min are monotone
        assert np.all(q1 <= psi)
        assert np.all(q2 <= q1)
        assert np.all(q1 <= hopf_lax(space, psi + np.abs(rng.normal(size=8)), 0.2))


def test_hopf_lax_blocks_match_one_shot():
    rng = np.random.default_rng(14)
    n = 2 * HOPF_LAX_BLOCK + 45
    for space in (random_planar_metric(rng, n), grid_space(n, 1)):
        psi = rng.normal(size=n)
        for t in (0.3, 1.0):
            one_shot = np.min(space.D ** 2 / (2.0 * t) + psi[None, :], axis=1)
            assert np.array_equal(hopf_lax(space, psi, t), one_shot)


def test_hopf_lax_requires_positive_time(two_points):
    for t in (0.0, -1.0, np.nan):  # t <= 0 used to let NaN through: an all-NaN answer
        with pytest.raises(PreconditionError):
            hopf_lax(two_points, [0.0, 0.0], t)
    assert np.array_equal(hopf_lax(two_points, [0.5, -2.0], np.inf), [-2.0, -2.0])


def test_c_transform_examples(two_points):
    assert np.array_equal(c_transform(two_points, [0.0, 0.0]), [0.0, 0.0])
    assert np.array_equal(c_transform(two_points, [0.0, -0.3]), [0.0, 0.3])
    rng = np.random.default_rng(7)
    for _ in range(20):
        space = random_planar_metric(rng, 10)
        psi = rng.normal(size=10)
        psi_c = c_transform(space, psi)
        triple = c_transform(space, c_transform(space, psi_c))
        assert np.max(np.abs(triple - psi_c)) <= 1e-12


def test_is_c_concave(two_points):
    assert is_c_concave(two_points, [0.0, 0.0]).passed
    assert is_c_concave(two_points, [0.0, -0.3]).passed
    assert not is_c_concave(two_points, [0.0, 10.0]).passed
    rng = np.random.default_rng(9)
    space = random_planar_metric(rng, 12)
    phi = random_c_concave(rng, space, scale=0.3)
    assert is_c_concave(space, phi).passed
    # phi^cc >= phi for arbitrary phi
    raw = rng.normal(size=12)
    cc = c_transform(space, c_transform(space, raw))
    assert np.all(cc >= raw - 1e-12)


# ------------------------------------------------------------------ cutoff

def test_cutoff_obstacles_path5():
    space = path_space(5)
    phi, psi, r2 = cutoff_obstacles(space, [2], [1, 2, 3])
    assert r2 == 1.0
    expected = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    assert np.array_equal(phi, expected)
    assert np.array_equal(psi, expected)


def test_cutoff_paper_radius_discrepancy(paper_radius_obstacles):
    # the paper's radius r^2 = D0^2/2 crosses at the metric midpoints
    phi, psi = paper_radius_obstacles(path_space(5), [2], [1, 2, 3])
    assert np.max(phi - psi) == 0.5
    assert phi[1] == 0.75 and psi[1] == 0.25
    # it crosses on every cut-off case of the seed-0 suite, by 1/2 at most
    crossings = []
    for space, core, region, _ in obslat.suite._cutoff_cases(obslat.suite._rng(0, "cutoff")):
        phi, psi = paper_radius_obstacles(space, core, region)
        crossings.append(float(np.max(phi - psi)))
    assert len(crossings) == 4 and min(crossings) > 0.0
    assert max(crossings) == 0.5


def test_cutoff_preconditions():
    space = path_space(5)
    with pytest.raises(ConstructionError):
        cutoff_obstacles(space, [], [1, 2, 3])
    with pytest.raises(ConstructionError):
        cutoff_obstacles(space, [4], [1, 2, 3])  # core not inside region
    with pytest.raises(ConstructionError):
        cutoff_obstacles(space, [2], list(range(5)))  # empty complement


def test_cutoff_obstacles_absorb_rounding_crossings(tmp_path):
    # every edge 0.37: at metric midpoints d(., core)^2 + d(., out)^2 rounds
    # below 2 r^2, so the raw phi exceeds psi by 3.9e-16 and the obstacles
    # used to raise ObstacleOrderError (obslat cutoff exited 4)
    side, weight = 38, 0.37
    rows, cols = np.divmod(np.arange(side * side), side)
    dist = np.maximum(np.abs(rows - 12), np.abs(cols - 12))
    core, region = np.flatnonzero(dist <= 3), np.flatnonzero(dist <= 8)
    space = grid_space(side, side, weight)
    phi, psi, r2 = cutoff_obstacles(space, core, region)
    raw_psi = np.minimum(1.0, space.distance_to(np.flatnonzero(dist > 8)) ** 2 / (2.0 * r2))
    assert 0.0 < np.max(phi - raw_psi) <= 4.0 * np.finfo(float).eps
    assert np.all(phi <= psi)
    assert np.array_equal(psi, np.maximum(raw_psi, phi))
    assert np.all(psi[core] == 1.0) and np.all(phi[dist > 8] == 0.0)
    config = tmp_path / "cutoff.json"
    config.write_text(json.dumps({
        "graph": {"nodes": side * side, "edges": grid_edges(side, side, weight)},
        "core": core.tolist(), "region": region.tolist(),
    }))
    out = tmp_path / "out"
    assert main(["cutoff", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "certificate.json").read_text())["pass"] is True


def test_cutoff_grid5x5_golden():
    golden = json.loads((GOLDEN / "cutoff_grid5x5.json").read_text())
    space = grid_space(5, 5)
    phi, psi, r2 = cutoff_obstacles(space, golden["core"], golden["region"])
    assert r2 == golden["r2"]
    assert np.array_equal(phi, golden["phi"])
    assert np.array_equal(psi, golden["psi"])
    assert psi[golden["core"][0]] == 1.0


def test_build_cutoff_path5_singleton():
    space = path_space(5)
    cut = build_cutoff(space, [2], [1, 2, 3])
    omega, cert = cut.solution.u, cut.certificate
    assert np.array_equal(omega, [0.0, 0.5, 1.0, 0.5, 0.0])
    assert cert.passed


def test_build_cutoff_path11_golden():
    golden = json.loads((GOLDEN / "cutoff_path11.json").read_text())
    space = path_space(11)
    cut = build_cutoff(space, golden["core"], golden["region"], tol=1e-11)
    omega, cert = cut.solution.u, cut.certificate
    assert np.max(np.abs(omega - np.array(golden["omega"]))) <= 1e-9
    assert cert.passed
    assert cert.lower_slack_min >= -1e-9 and cert.upper_slack_min >= -1e-9


def test_build_cutoff_grid15():
    space = grid_space(15, 15)
    core = [i * 15 + j for i in range(6, 9) for j in range(6, 9)]
    region = [i * 15 + j for i in range(3, 12) for j in range(3, 12)]
    cut = build_cutoff(space, core, region)
    omega, cert = cut.solution.u, cut.certificate
    out = sorted(set(range(225)) - set(region))
    assert np.all(omega[core] == 1.0)
    assert np.all(omega[out] == 0.0)
    assert cert.passed
    energy = space.dirichlet_energy
    phi, psi, _ = cutoff_obstacles(space, core, region)
    lap = -energy.gradient(omega)
    bound = max(
        np.max(np.abs(np.minimum(-energy.gradient(phi), 0.0))),
        np.max(np.abs(np.maximum(-energy.gradient(psi), 0.0))),
    )
    assert np.max(np.abs(lap)) <= bound + 1e-8
    assert cut.certificate.obstacle_bound == bound
    assert np.array_equal(cut.phi, phi) and np.array_equal(cut.psi, psi)
    ratio = lipschitz_ratio(space, omega, phi, psi)
    assert np.isfinite(ratio) and ratio > 0.0


def test_build_cutoff_requires_graph_space():
    cloud = random_planar_metric(np.random.default_rng(3), 6)
    with pytest.raises(PreconditionError):
        build_cutoff(cloud, [0], [0, 1, 2])


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__/__hash__ would compare or hash the ndarray fields
    assert path_space(4) != path_space(4)
    assert OrderInterval([0.0], [1.0]) != OrderInterval([0.0], [1.0])
    space = path_space(5)
    cut = build_cutoff(space, [2], [1, 2, 3])
    _, pair, _ = kantorovich_regularize(path_space(2), [0.0, -0.3], 0.5)
    objects = [FiniteMetricSpace(space.D), space, OrderInterval(cut.phi, cut.psi),
               cut, cut.solution, cut.certificate, pair]
    for obj in objects:
        assert obj == obj and hash(obj) == hash(obj)
        assert obj != copy.copy(obj)
    assert len(set(objects)) == len(objects)


# ------------------------------------------------------------- kantorovich

def test_kantorovich_two_point_worked_example():
    space = GraphSpace.from_graph(2, [(0, 1, 1.0)])
    eta, pair, cert = kantorovich_regularize(space, [0.0, -0.3], 0.5)
    assert np.allclose(hopf_lax(space, [0.0, 0.3], 0.5), [0.0, 0.3], atol=0)
    assert np.array_equal(pair.lo, pair.hi)
    assert np.allclose(pair.lo, [0.0, -0.3], atol=0)
    assert np.allclose(eta, [0.0, -0.3], atol=0)
    assert np.array_equal(pair.coincidence_set, [0, 1])
    assert cert.passed


def test_kantorovich_zero_potential():
    space = path_space(6)
    eta, pair, cert = kantorovich_regularize(space, np.zeros(6), 0.3)
    assert np.array_equal(pair.lo, np.zeros(6))
    assert np.array_equal(pair.hi, np.zeros(6))
    assert np.array_equal(eta, np.zeros(6))
    assert cert.passed


def test_kantorovich_rejects_non_c_concave():
    space = path_space(4)
    bad = np.array([0.0, 5.0, 0.0, 0.0])
    with pytest.raises(PreconditionError):
        kantorovich_regularize(space, bad, 0.5)
    eta, pair, cert = kantorovich_regularize(space, bad, 0.5, cc_regularize=True)
    assert is_c_concave(space, pair.phi).passed
    assert cert.passed
    with pytest.raises(PreconditionError):
        kantorovich_regularize(space, np.zeros(4), 1.0)


def test_kantorovich_regularized_phi_is_the_c_transform_of_phi_c():
    # regularizing computes phi^c once and phi = (phi^c)^c from it, so the
    # pair holds a c-transform pair bit for bit
    rng = np.random.default_rng(4)
    for space in (path_space(9), grid_space(6, 6)):
        raw = rng.uniform(-1.0, 1.0, space.n)
        _, pair, cert = kantorovich_regularize(space, raw, 0.4, cc_regularize=True)
        assert np.array_equal(pair.phi, c_transform(space, pair.phi_c))
        assert cert.passed


def test_kantorovich_line21_properties():
    rng = np.random.default_rng(11)
    space = path_space(21, weight=1.0 / 20.0)
    for t in (0.25, 0.5, 0.75):
        phi = random_c_concave(rng, space, scale=0.2)
        eta, pair, cert = kantorovich_regularize(space, phi, t)
        assert np.all(pair.lo <= pair.hi)
        assert cert.passed
        idx = pair.coincidence_set
        if idx.size:
            assert np.max(np.abs(eta[idx] - pair.lo[idx])) <= 1e-9
        report = coincidence_cc_report(space, pair, eta)
        assert report["derived_minus_t_eta"] <= 1e-8
        assert report["derived_one_minus_t_eta"] <= 1e-8


def test_interpolation_duality():
    space = path_space(2)
    ok, slack = interpolation_duality_check(space, [0.0, -0.3], 0.5)
    assert ok and slack == 0.0
    rng = np.random.default_rng(13)
    for _ in range(25):
        cloud = random_planar_metric(rng, 10)
        phi = random_c_concave(rng, cloud, scale=0.4)
        t = float(rng.uniform(0.05, 0.95))
        ok, slack = interpolation_duality_check(cloud, phi, t)
        assert ok, slack
    with pytest.raises(PreconditionError):
        interpolation_duality_check(space, [0.0, 10.0], 0.5)


def test_duality_slack_is_the_unabsorbed_kantorovich_gap():
    rng = np.random.default_rng(21)
    space = path_space(21, weight=1.0 / 20.0)
    for t in (0.25, 0.5, 0.75):
        phi = random_c_concave(rng, space, scale=0.2)
        phi_c = c_transform(space, phi)
        lo, hi = -hopf_lax(space, -phi, t), hopf_lax(space, -phi_c, 1.0 - t)
        slack = interpolation_duality_check(space, phi, t).value
        assert slack == float(np.min(hi - lo))
        assert slack == float(np.min(hopf_lax(space, -phi, t) + hopf_lax(space, -phi_c, 1.0 - t)))
        _, pair, _ = kantorovich_regularize(space, phi, t)
        assert np.array_equal(pair.lo, lo) and np.array_equal(pair.hi, np.maximum(hi, lo))


@pytest.mark.parametrize("drop, raises", [(1e-15, False), (1e-6, True)])
def test_kantorovich_crossing_rule(monkeypatch, drop, raises):
    # lowering hi at one node crosses it below lo; within 1e-12 (1 + max|lo|
    # + max|hi|) hi is lifted to lo, above that the order error reports max(lo - hi)
    space = path_space(9)
    phi = random_c_concave(np.random.default_rng(17), space, scale=0.3)
    bounds = obslat.metric._interpolation_bounds

    def crossed(*args):
        phi, phi_c, lo, hi = bounds(*args)
        hi = hi.copy()
        hi[4] = lo[4] - drop
        return phi, phi_c, lo, hi

    monkeypatch.setattr(obslat.metric, "_interpolation_bounds", crossed)
    if raises:
        with pytest.raises(ObstacleOrderError) as err:
            kantorovich_regularize(space, phi, 0.4)
        assert err.value.violation == float(np.max(err.value.lo - err.value.hi)) > 0.0
    else:
        _, pair, _ = kantorovich_regularize(space, phi, 0.4)
        assert pair.hi[4] == pair.lo[4] and 4 in pair.coincidence_set


def test_hopf_lax_calls_per_construction(tmp_path, monkeypatch):
    space = path_space(21, weight=1.0 / 20.0)
    phi = random_c_concave(np.random.default_rng(11), space, scale=0.2)
    config = tmp_path / "kantorovich.json"
    config.write_text(json.dumps({
        "graph": {"nodes": 21, "edges": [[i, i + 1, 0.05] for i in range(20)]},
        "potential": np.random.default_rng(3).uniform(-0.2, 0.2, 21).tolist(),
        "t": 0.4, "cc_regularize": True,
    }))
    calls = _count_calls(monkeypatch, "hopf_lax", obslat.metric)
    # phi^c and phi^cc for the c-concavity check (phi^c feeds the upper
    # bound), the 2 bounds, and 2 x 2 for the derived defects of the report
    eta, pair, _ = kantorovich_regularize(space, phi, 0.5)
    coincidence_cc_report(space, pair, eta)
    assert len(calls) == 8
    calls.clear()
    # the CLI regularizes: phi^c, then phi^cc from it (phi^c feeds the
    # upper bound), the 2 bounds, and 4 for the report
    assert main(["kantorovich", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 8
    calls.clear()
    assert interpolation_duality_check(space, phi, 0.5).passed
    assert len(calls) == 4


def test_gradient_calls_per_cutoff_run(tmp_path, monkeypatch):
    config = tmp_path / "cutoff.json"
    config.write_text(json.dumps({
        "graph": {"nodes": 144, "edges": grid_edges(12, 12)},
        "core": [65, 66, 77, 78],
        "region": [12 * r + c for r in range(2, 10) for c in range(2, 10)],
    }))
    calls = []
    gradient = QuadraticEnergy.gradient

    def counted(self, u):
        calls.append(u)
        return gradient(self, u)

    monkeypatch.setattr(QuadraticEnergy, "gradient", counted)
    evaluate = QuadraticEnergy.evaluate

    def counted_evaluate(self, u):
        f, lazy = evaluate(self, u)

        def gradient():
            calls.append(u)
            return lazy()
        return f, gradient

    # a gradient taken through evaluate counts when it is computed
    monkeypatch.setattr(QuadraticEnergy, "evaluate", counted_evaluate)
    report = obslat.cli.certificate_report
    report_calls = []

    def counted_report(*args, **kwargs):
        before = len(calls)
        result = report(*args, **kwargs)
        report_calls.append(len(calls) - before)
        return result

    monkeypatch.setattr(obslat.cli, "certificate_report", counted_report)
    assert main(["cutoff", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # Newton: the start and each of its 2 steps, the last of which the
    # Solution reuses; the certificate's g_u, g_lo and g_hi.  The report
    # reads cert.g_u.
    assert len(calls) == 6
    assert report_calls == [0]


def _move_answer(monkeypatch, move, where=lambda box, u: box.lo == box.hi,
                 module=obslat.metric):
    """Make ``module``'s solver return its answer with ``move`` applied at ``where(box, u)``."""
    solve = module.solve_newton

    def moved(energy, box, **kwargs):
        sol = solve(energy, box, **kwargs)
        u = sol.u.copy()
        at = where(box, u)
        u[at] = move(u[at])
        return dataclasses.replace(sol, u=u)

    monkeypatch.setattr(module, "solve_newton", moved)


def test_cutoff_pins_row_fails_on_its_own(monkeypatch):
    _move_answer(monkeypatch, lambda v: np.nextafter(v, np.inf))
    rows = {r["check_name"]: r for r in check_cutoff(0)}
    assert not rows["cutoff_pins_exact"]["pass"]
    assert rows["cutoff_pins_exact"]["worst_value"] > 0.0
    assert rows["cutoff_certificate"]["pass"]


def test_certificate_rows_catch_a_moved_free_value(monkeypatch):
    # sup|L(u)| <= obstacle_bound + tol has no row of its own: a passing
    # certificate implies it, so a wrong answer must fail the certificate
    def first_free(box, u):
        return np.flatnonzero((box.lo < u) & (u < box.hi))[:1]

    _move_answer(monkeypatch, lambda v: v + 1e-3, first_free)
    rows = {r["check_name"]: r for r in check_cutoff(0)}
    assert not rows["cutoff_certificate"]["pass"]
    _move_answer(monkeypatch, lambda v: v + 1e-3, first_free, obslat.suite)
    rows = {r["check_name"]: r for r in check_ls_quadratic(0)}
    assert not rows["ls_certificate_quadratic"]["pass"]


def test_kantorovich_clamping_row_fails_on_its_own(monkeypatch):
    _move_answer(monkeypatch, lambda v: v + 2e-9)
    rows = {r["check_name"]: r for r in check_kantorovich(0)}
    assert not rows["kantorovich_clamping"]["pass"]
    assert rows["kantorovich_clamping"]["worst_value"] >= 1.9e-9
    assert rows["kantorovich_certificate"]["pass"]


def test_unconverged_constructions_fail_their_certificate_rows(monkeypatch):
    solve = obslat.metric.solve_newton
    monkeypatch.setattr(obslat.metric, "solve_newton", lambda energy, box, **kwargs:
                        dataclasses.replace(solve(energy, box, **kwargs), converged=False))
    rows = {r["check_name"]: r for r in check_cutoff(0) + check_kantorovich(0)}
    assert rows["cutoff_certificate"]["worst_value"] == np.inf
    assert rows["kantorovich_certificate"]["worst_value"] == np.inf


def test_potential_bounds_coincide_under_solver(two_points):
    # eta clamps wherever the two bounds agree: solve with Newton directly
    space = path_space(9)
    rng = np.random.default_rng(17)
    phi = random_c_concave(rng, space, scale=0.3)
    _, pair, _ = kantorovich_regularize(space, phi, 0.4)
    box = OrderInterval(pair.lo, pair.hi)
    sol = solve_newton(space.dirichlet_energy, box, tol=1e-10)
    idx = pair.coincidence_set
    if idx.size:
        assert np.max(np.abs(sol.u[idx] - pair.lo[idx])) <= 1e-9
