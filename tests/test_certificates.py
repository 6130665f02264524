import numpy as np
import pytest

from obslat.certificates import (
    certificate_report,
    free_set_harmonicity,
    harmonic_extension,
    lipschitz_ratio,
    ls_certificate,
    maximum_principle_check,
)
from obslat.energies import QuadraticEnergy, graph_dirichlet
from obslat.errors import CertificateError, DimensionMismatch, PreconditionError
from obslat.instances import (
    grid_boundary,
    grid_edges,
    random_box,
    random_submodular_quadratic,
)
from obslat.lattice import UNBOUNDED, OrderInterval, clamp
from obslat.metric import FiniteMetricSpace
from obslat.solvers import (
    brute_force_active_set,
    classify_active,
    kkt_residual,
    solve_newton,
    solve_projected_gradient,
    solve_psor,
)

TRIDIAG = [(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0),
           (0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0), (2, 1, -1.0)]


@pytest.fixture
def tridiag():
    return QuadraticEnergy.from_triplets(3, TRIDIAG)


def test_certificate_tridiag_hand_values(tridiag):
    box = OrderInterval([0.5, 1.0, 0.5], [10.0, 10.0, 10.0])
    sol = solve_psor(tridiag, box, tol=1e-10)
    cert = ls_certificate(tridiag, box, sol, tol=1e-9)
    assert cert.passed
    # by hand: grad at lo is (0,1,0) so (g_lo v 0) = (0,1,0); grad at hi is
    # A (10,10,10) = (10,0,10) so (g_hi ^ 0) = 0; slacks are (0,0,0) and (0,1,0)-(0,1,0).
    assert np.array_equal(cert.g_u, [0.0, 1.0, 0.0])
    assert np.array_equal(np.maximum(cert.g_lo, 0.0), [0.0, 1.0, 0.0])
    assert np.array_equal(cert.g_hi, [10.0, 0.0, 10.0])
    assert np.array_equal(cert.lower_slack, [0.0, 1.0, 0.0])
    assert np.array_equal(cert.upper_slack, [0.0, 0.0, 0.0])
    assert cert.lower_slack_min == 0.0 and cert.upper_slack_min == 0.0


def test_certificate_singleton_interval(tridiag):
    box = OrderInterval([0.2, -0.4, 1.0], [0.2, -0.4, 1.0])
    sol = solve_psor(tridiag, box)
    cert = ls_certificate(tridiag, box, sol, tol=0.0)
    assert cert.passed  # g ^ 0 <= g <= g v 0 holds for any g


def test_certificate_refuses_unconverged(tridiag):
    box = OrderInterval([-5.0] * 3, [5.0] * 3)
    sol = solve_psor(tridiag, box, tol=1e-14, max_iter=1,
                     u0=np.array([4.0, -3.0, 2.0]))
    with pytest.raises(CertificateError):
        ls_certificate(tridiag, box, sol, tol=1e-6)


def test_certificate_one_sided_lower(tridiag):
    # no upper obstacle: the certificate must include grad E(u) >= 0
    box = OrderInterval([0.5, 1.0, 0.5], np.full(3, UNBOUNDED))
    sol = solve_psor(tridiag, box, tol=1e-10)
    cert = ls_certificate(tridiag, box, sol, tol=1e-9)
    assert cert.passed
    assert not cert.upper_present and cert.lower_present
    assert cert.g_hi is None
    assert np.array_equal(cert.lower_slack, cert.g_u)


def test_certificate_one_sided_upper(tridiag):
    box = OrderInterval(np.full(3, -UNBOUNDED), [-0.5, -1.0, -0.5])
    sol = solve_psor(tridiag, box, tol=1e-10)
    cert = ls_certificate(tridiag, box, sol, tol=1e-9)
    assert cert.passed
    assert np.all(cert.g_u <= 1e-9)  # grad E(u) <= 0 without a lower obstacle


def test_certificate_json_fields(tridiag):
    box = OrderInterval([0.5, 1.0, 0.5], [10.0] * 3)
    sol = solve_psor(tridiag, box, tol=1e-10)
    cert = ls_certificate(tridiag, box, sol, tol=1e-9)
    report = certificate_report(tridiag, box, sol, cert)
    for key in ("pass", "tol", "lower_slack_min", "upper_slack_min",
                "sup_laplacian", "free_harmonicity", "lipschitz_ratio"):
        assert key in report
    assert report["pass"] is True
    assert report["sup_laplacian"] == 1.0


def test_certificate_report_refuses_certificate_of_another_point(tridiag):
    box = OrderInterval([0.5, 1.0, 0.5], [10.0] * 3)
    sol = solve_psor(tridiag, box, tol=1e-10)
    cert = ls_certificate(tridiag, box, sol, tol=1e-9)
    assert certificate_report(tridiag, box, sol.u.copy(), cert)["pass"] is True
    with pytest.raises(CertificateError):
        certificate_report(tridiag, box, sol.u + np.array([0.0, 0.5, 0.0]), cert)


def test_certificate_passes_on_random_instances():
    rng = np.random.default_rng(57)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        energy = random_submodular_quadratic(rng, n)
        box = random_box(rng, n)
        sol = solve_psor(energy, box, tol=1e-9)
        cert = ls_certificate(energy, box, sol, tol=1e-8)
        assert cert.passed, (cert.lower_slack_min, cert.upper_slack_min)
        # consequence: Laplacian of the minimizer bounded by obstacle Laplacians
        lap_u = float(np.max(np.abs(energy.gradient(sol.u))))
        bound = max(
            float(np.max(np.abs(np.minimum(-cert.g_lo, 0.0)))),
            float(np.max(np.abs(np.maximum(-cert.g_hi, 0.0)))),
        )
        assert lap_u <= bound + 1e-8


def test_free_set_harmonicity(tridiag):
    box = OrderInterval([-2.0] * 3, [2.0] * 3)
    sol = solve_psor(tridiag, box, tol=1e-10)
    ok, worst_idx, worst = free_set_harmonicity(tridiag, box, sol, tol=1e-9)
    assert ok and worst <= 1e-9
    # fully active solution: vacuous pass
    tight = OrderInterval([0.5, 1.0, 0.5], [10.0] * 3)
    sol2 = solve_psor(tridiag, tight, tol=1e-10)
    ok2, idx2, _ = free_set_harmonicity(tridiag, tight, sol2, tol=1e-9)
    assert ok2 and idx2 is None
    # E = |u|^2/2 + u_0 on [0, 1]^2: u_0 = 1e-12 is off its bound, so free
    energy = QuadraticEnergy(np.eye(2), np.array([1.0, 0.0]))
    square = OrderInterval([0.0, 0.0], [1.0, 1.0])
    ok3, idx3, worst3 = free_set_harmonicity(energy, square, np.array([1e-12, 0.5]), tol=1e-9)
    assert not ok3 and idx3 == 0 and worst3 == pytest.approx(1.0)


def test_harmonicity_follows_kkt():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        energy = random_submodular_quadratic(rng, n)
        box = random_box(rng, n)
        sol = solve_psor(energy, box, tol=1e-9)
        ok, _, worst = free_set_harmonicity(energy, box, sol, tol=1e-9)
        assert ok, worst


def test_maximum_principle_constant_boundary():
    energy = graph_dirichlet(9, grid_edges(3, 3), grid_boundary(3, 3))
    values = np.full(8, 0.7)
    interior = harmonic_extension(energy, values)
    assert interior[0] == pytest.approx(0.7, abs=1e-12)
    ok, overshoot = maximum_principle_check(energy, values, interior)
    assert ok and overshoot <= 1e-9


def test_maximum_principle_path_interpolation():
    n = 7
    energy = graph_dirichlet(n, [(i, i + 1, 1.0) for i in range(n - 1)], [0, n - 1])
    values = np.array([0.0, 1.0])
    interior = harmonic_extension(energy, values)
    x = np.arange(1, n - 1) / (n - 1)
    assert np.allclose(interior, x, atol=1e-12)
    ok, _ = maximum_principle_check(energy, values, interior)
    assert ok


def test_maximum_principle_random_grids():
    rng = np.random.default_rng(67)
    for _ in range(10):
        nx, ny = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        energy = graph_dirichlet(nx * ny, grid_edges(nx, ny), grid_boundary(nx, ny))
        values = rng.uniform(0.0, 1.0, size=len(grid_boundary(nx, ny)))
        interior = harmonic_extension(energy, values)
        ok, overshoot = maximum_principle_check(energy, values, interior)
        assert ok, overshoot
        assert np.all(interior >= 0.0 - 1e-9) and np.all(interior <= 1.0 + 1e-9)


def test_maximum_principle_rejects_unsolved():
    energy = graph_dirichlet(9, grid_edges(3, 3), grid_boundary(3, 3))
    values = np.full(8, 0.5)
    with pytest.raises(CertificateError):
        maximum_principle_check(energy, values, np.array([3.0]))
    with pytest.raises(DimensionMismatch):
        maximum_principle_check(energy, values[1:], np.array([3.0]))
    plain = QuadraticEnergy(np.eye(2))
    with pytest.raises(PreconditionError):
        maximum_principle_check(plain, values, np.zeros(2))


def test_lipschitz_ratio_conventions():
    space = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    v = np.array([0.0, 1.0])
    const = np.zeros(2)
    assert lipschitz_ratio(space, v, v, v) == 1.0
    assert lipschitz_ratio(space, const, v, v) == 0.0
    assert lipschitz_ratio(space, v, const, const) == float("inf")
    assert lipschitz_ratio(space, const, const, const) == 0.0


#: Each public (energy, box, u) entry point, called as f(energy, box, solution, cert).
SHORT_BOX_CALLS = {
    "kkt_residual": lambda e, box, sol, cert: kkt_residual(e, box, sol.u),
    "free_set_harmonicity": lambda e, box, sol, cert: free_set_harmonicity(e, box, sol, 1e-9),
    "certificate_report": lambda e, box, sol, cert: certificate_report(e, box, sol, cert),
    "ls_certificate": lambda e, box, sol, cert: ls_certificate(e, box, sol, 1e-8),
    "clamp": lambda e, box, sol, cert: clamp(sol.u, box),
    "classify_active": lambda e, box, sol, cert: classify_active(sol.u, box),
    "solve_newton": lambda e, box, sol, cert: solve_newton(e, box),
    "solve_psor": lambda e, box, sol, cert: solve_psor(e, box),
    "solve_projected_gradient": lambda e, box, sol, cert: solve_projected_gradient(e, box),
    "brute_force_active_set": lambda e, box, sol, cert: brute_force_active_set(e, box),
}


@pytest.mark.parametrize("name", list(SHORT_BOX_CALLS))
def test_box_shorter_than_energy_raises_dimension_mismatch(name):
    # 3 free nodes of a 4-node path pinned at node 0; u is its minimizer on [0, 1]^3
    energy = graph_dirichlet(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], [0])
    box = OrderInterval([0.2, 0.0, 0.0], [1.0, 1.0, 1.0])
    sol = solve_newton(energy, box)
    cert = ls_certificate(energy, box, sol, 1e-8)
    with pytest.raises(DimensionMismatch):
        SHORT_BOX_CALLS[name](energy, OrderInterval([0.0], [1.0]), sol, cert)
