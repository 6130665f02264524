import ast
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp

import obslat.solvers
import obslat.suite
from obslat.certificates import ls_certificate
from obslat.energies import (
    KernelEnergy,
    QuadraticEnergy,
    fractional_kernel_1d,
    graph_dirichlet,
    z_matrix_violation,
)
from obslat.errors import ConstructionError, PreconditionError, SolverError
from obslat.instances import (
    grid_boundary,
    grid_edges,
    grid_space,
    path_space,
    random_box,
    random_c_concave,
    random_fractional_instance,
    random_lower_obstacle_box,
    random_submodular_quadratic,
)
from obslat.lattice import UNBOUNDED, OrderInterval, clamp
from obslat.metric import kantorovich_regularize
from obslat.solvers import (
    ENERGY_ROUND_RTOL,
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


@pytest.fixture
def tridiag_box():
    return OrderInterval([0.5, 1.0, 0.5], [10.0, 10.0, 10.0])


def _factor_sides(monkeypatch) -> list:
    """Names of the factor helpers, in call order, of Newton steps from now on."""
    sides = []
    for name in ("_factor_banded", "_factor_sparse"):
        def spy(block, mu, name=name, real=getattr(obslat.solvers, name)):
            sides.append(name)
            return real(block, mu)

        monkeypatch.setattr(obslat.solvers, name, spy)
    return sides


def test_psor_tridiag_instance(tridiag, tridiag_box):
    # KKT oracle: u = lo is stationary with multiplier Au = (0,1,0) >= 0 on
    # the fully lower-active set, so it is the minimizer.
    sol = solve_psor(tridiag, tridiag_box, tol=1e-9)
    assert sol.converged
    assert np.array_equal(sol.u, [0.5, 1.0, 0.5])
    assert np.array_equal(sol.grad, [0.0, 1.0, 0.0])
    assert np.array_equal(sol.active_lower, [0, 1, 2])
    assert sol.active_upper.size == 0 and sol.free.size == 0
    oracle = brute_force_active_set(tridiag, tridiag_box)
    assert np.allclose(sol.u, oracle.u, atol=1e-12)


def test_psor_singleton_interval(tridiag):
    box = OrderInterval([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    sol = solve_psor(tridiag, box)
    assert sol.converged and sol.iterations == 1
    assert np.array_equal(sol.u, box.lo)
    assert sol.kkt_residual == 0.0


def test_psor_inactive_obstacles(tridiag):
    box = OrderInterval([-1.0] * 3, [1.0] * 3)
    sol = solve_psor(tridiag, box)
    assert sol.converged
    assert np.allclose(sol.u, 0.0, atol=1e-10)
    assert sol.free.size == 3


def test_psor_parameter_errors(tridiag, tridiag_box):
    with pytest.raises(PreconditionError):
        solve_psor(tridiag, OrderInterval([0.0], [1.0]))
    zero_diag = QuadraticEnergy(np.zeros((2, 2)))
    with pytest.raises(SolverError):
        solve_psor(zero_diag, OrderInterval([0.0, 0.0], [1.0, 1.0]))


def test_psor_requires_zmatrix_or_dominance():
    # PSD, not a Z-matrix, not strictly diagonally dominant
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    energy = QuadraticEnergy(a)
    assert z_matrix_violation(energy) is not None
    with pytest.raises(SolverError):
        solve_psor(energy, OrderInterval([0.0, 0.0], [1.0, 1.0]))
    # strictly dominant non-Z matrices are accepted
    dominant = QuadraticEnergy(np.array([[2.0, 0.5], [0.5, 2.0]]))
    sol = solve_psor(dominant, OrderInterval([-1.0, -1.0], [1.0, 1.0]))
    assert sol.converged


def test_psor_max_iter_flags_nonconvergence(tridiag):
    box = OrderInterval([-5.0] * 3, [5.0] * 3)
    sol = solve_psor(QuadraticEnergy(tridiag.a, [5.0, -3.0, 2.0]), box, tol=1e-14, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert np.all((box.lo <= sol.u) & (sol.u <= box.hi))


def test_psor_monotone_from_upper_start():
    # the sweep of the suite's psor_monotone_from_above check
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(3, 15))
        energy = random_submodular_quadratic(rng, n)
        box = random_box(rng, n)
        iterates = obslat.suite._gauss_seidel_from_hi(energy, box)
        assert iterates[0].tobytes() == box.hi.tobytes() and len(iterates) > 1
        for prev, u in zip(iterates, iterates[1:]):
            assert np.all(u <= prev)
            assert np.all((box.lo <= u) & (u <= box.hi))
        assert kkt_residual(energy, box, iterates[-1]) <= 1e-9


def test_projected_gradient_agrees_with_oracle(tridiag, tridiag_box):
    pg = solve_projected_gradient(tridiag, tridiag_box, tol=1e-9)
    oracle = brute_force_active_set(tridiag, tridiag_box)
    assert pg.converged
    assert np.max(np.abs(pg.u - oracle.u)) <= 1e-7


def test_projected_gradient_symmetric_box(tridiag):
    box = OrderInterval([-2.0] * 3, [2.0] * 3)
    sol = solve_projected_gradient(tridiag, box, tol=1e-10)
    assert sol.converged
    assert np.allclose(sol.u, 0.0, atol=1e-9)


def test_projected_gradient_energy_descent():
    energy = fractional_kernel_1d(12, 1.0 / 13.0, 0.5, 3.0, 3)
    lo = 0.2 * np.ones(12)
    box = OrderInterval(lo, np.ones(12))
    values = []
    sol = solve_projected_gradient(energy, box, tol=1e-9,
                                   step_callback=lambda u, f: values.append(f))
    assert sol.converged
    assert np.all(sol.u >= lo)
    diffs = np.diff(np.array(values))
    assert np.all(diffs <= 1e-12)


def test_projected_gradient_solves_kernels_below_p_two():
    # the kernel gradient exists for every p > 1, and projected gradient
    # needs nothing else; the suite's instances with p = 1.2, 1.5, 1.8
    converged = {}
    for p in (1.5, 1.8, 1.2):
        rng = np.random.default_rng(7)
        converged[p] = 0
        for _ in range(8):
            drawn, box, s, _ = random_fractional_instance(rng, n_max=32)
            energy = fractional_kernel_1d(drawn.n, 1.0 / (drawn.n + 1), s, p, collar=3)
            # at p = 1.2 the gradient is Hölder with exponent 0.2 at a tie, and
            # some solves end unconverged within the budget
            sol = solve_projected_gradient(energy, box, tol=1e-8, max_iter=2000)
            if sol.converged:
                converged[p] += 1
                assert ls_certificate(energy, box, sol, 1e-6).passed, (p, energy.n, s)
    assert converged[1.5] == converged[1.8] == 8 and converged[1.2] >= 1


def test_newton_solves_kernels_below_p_two():
    # the draws above: below p = 2 Newton's model Hessian floors ties at
    # eps ||u||_inf, and every solve converges, certifies and ends no higher
    # than L-BFGS-B
    for p in (1.5, 1.8, 1.2):
        rng = np.random.default_rng(7)
        for _ in range(8):
            drawn, box, s, _ = random_fractional_instance(rng, n_max=32)
            energy = fractional_kernel_1d(drawn.n, 1.0 / (drawn.n + 1), s, p, collar=3)
            sol = solve_newton(energy, box, tol=1e-8)
            assert sol.converged and ls_certificate(energy, box, sol, 1e-6).passed, (p, energy.n, s)
            ref = scipy.optimize.minimize(energy.value, clamp(np.zeros(energy.n), box),
                                          jac=energy.gradient, method="L-BFGS-B",
                                          bounds=list(zip(box.lo, box.hi)),
                                          options={"ftol": 1e-16, "gtol": 1e-12})
            e_ref = energy.value(clamp(ref.x, box))
            assert energy.value(sol.u) <= e_ref + 1e-12 * abs(e_ref), (p, energy.n, s)


@pytest.mark.parametrize("n, s, p", [(32, 0.5, 1.5), (128, 0.5, 1.5), (64, 0.75, 1.8),
                                     (32, 0.25, 1.5)])
def test_newton_steps_below_p_two_do_not_change_with_scale(monkeypatch, n, s, p):
    # obstacles lam (0.3 - 4 (x - 1/2)^2) at tol 1e-8 lam^(p-1): the tie
    # floor eps ||u||_inf scales with u, where an absolute floor of 1e-12
    # took 311, 7 and 8 steps on the first case; every kernel block is
    # dense, and banded Cholesky factors it
    x = np.arange(1, n + 1) / (n + 1)
    energy = fractional_kernel_1d(n, 1.0 / (n + 1), s, p, collar=8)
    sides = _factor_sides(monkeypatch)
    steps = []
    for lam in (1e-6, 1.0, 1e6):
        box = OrderInterval(lam * (0.3 - 4.0 * (x - 0.5) ** 2), np.full(n, UNBOUNDED))
        sol = solve_newton(energy, box, tol=1e-8 * lam ** (p - 1))
        assert sol.converged and ls_certificate(energy, box, sol, 1e-6 * lam ** (p - 1)).passed
        steps.append(sol.iterations)
    assert max(steps) - min(steps) <= 1, steps
    assert sides and set(sides) == {"_factor_banded"}


def test_overflowing_full_step_raises_in_newton_and_projected_gradient():
    # the minimizer 3.4e308 lies beyond the largest float: from u = 1e308,
    # Newton's step -g / 0.5 and the gradient step -g both overflow
    energy = QuadraticEnergy(np.array([[0.5]]), np.array([-1.7e308]))
    box = OrderInterval([1e308], [1.5e308])
    messages = []
    for solve in (solve_newton, solve_projected_gradient):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConstructionError) as err:
            solve(energy, box)
        messages.append(str(err.value))
    assert messages == ["u must hold finite numbers (dtype float64)"] * 2


def test_projected_gradient_searches_along_the_gradient_when_its_spectral_step_overflows():
    # after one step s . y = 0, so lambda = SPECTRAL_MAX = 1e30 and
    # -lambda g = 1e310 overflows; the step searches along -g = 1e280 instead
    energy = QuadraticEnergy(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1e280, -1e280]))
    box = OrderInterval([0.0, 0.0], [1e300, 1e300])
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_projected_gradient(energy, box, max_iter=20)
    assert sol.iterations == 20 and not sol.converged


def _suite_fractional_instance(seed, index):
    """Instance ``index`` of the suite's ls_certificate_fractional check at ``seed``."""
    rng = np.random.default_rng([seed, zlib.crc32(b"ls_certificate_fractional")])
    for _ in range(index + 1):
        energy, box, s, p = random_fractional_instance(rng, n_max=32)
    return energy, box, s, p


def test_projected_gradient_certifies_past_the_rounding_of_the_energy():
    # instance 2 of the suite's ls_certificate_fractional check at seed 1: the
    # true energy drop falls below the rounding of E while the KKT residual
    # is still above tol, so only steps that rise by rounding can end it
    energy, box, s, p = _suite_fractional_instance(1, 2)
    assert (energy.n, s, p) == (29, 0.75, 3.0)
    values = [energy.value(clamp(np.zeros(energy.n), box))]
    sol = solve_projected_gradient(energy, box, tol=1e-8, max_iter=3000,
                                   step_callback=lambda u, f: values.append(f))
    assert sol.converged and sol.kkt_residual <= 1e-8
    assert ls_certificate(energy, box, sol, tol=1e-6).passed
    values = np.array(values)
    assert np.all(np.diff(values) <= ENERGY_ROUND_RTOL * np.abs(values[:-1]))


@pytest.mark.parametrize("seed, index", [(1, 2), (25, 0)])
def test_projected_gradient_spectral_step_pins(seed, index):
    # unit steps along -grad take 398 steps on the first and stall past 3000
    # on the second
    energy, box, _, _ = _suite_fractional_instance(seed, index)
    sol = solve_projected_gradient(energy, box, tol=1e-8, max_iter=100)
    assert sol.converged and sol.kkt_residual <= 1e-8
    assert ls_certificate(energy, box, sol, tol=1e-6).passed


def test_projected_gradient_steps_do_not_depend_on_scale():
    # E scaled by c scales the gradient by c and leaves the minimizer; unit
    # steps along -grad take 3286, 398 and 222 steps here
    energy, box, _, _ = _suite_fractional_instance(1, 2)
    steps = []
    for c in (1e-3, 1.0, 1e3):
        scaled = KernelEnergy(energy.n, list(zip(energy.i, energy.j, c * energy.w)),
                              list(enumerate(c * energy.d)), energy.p)
        sol = solve_projected_gradient(scaled, box, tol=1e-8 * c, max_iter=3000)
        assert sol.converged
        assert ls_certificate(scaled, box, sol, tol=1e-6 * c).passed
        steps.append(sol.iterations)
    assert max(steps) <= 1.1 * min(steps)


def test_projected_gradient_first_step_is_the_unit_gradient_step():
    rng = np.random.default_rng(22)
    quadratic = random_submodular_quadratic(rng, 8)
    for energy, box in (_suite_fractional_instance(1, 2)[:2],
                        (quadratic, random_box(rng, quadratic.n))):
        u0, f0, g0, res0 = obslat.solvers._start(energy, box)
        want = obslat.solvers._arc_search(energy, box, u0, f0, g0, res0, -g0)[0]
        seen = []
        solve_projected_gradient(energy, box, max_iter=1,
                                 step_callback=lambda u, f: seen.append(u))
        assert seen[0].tobytes() == want.tobytes()


def test_projected_gradient_flat_curvature_takes_the_largest_step():
    # the first step moves along the null vector (1, 1) of A, so s . y = 0
    # and the step length is SPECTRAL_MAX: the second step lands on hi
    energy = QuadraticEnergy(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, -1.0]))
    sol = solve_projected_gradient(energy, OrderInterval([0.0, 0.0], [10.0, 10.0]))
    assert sol.converged and sol.iterations == 2
    assert sol.u.tolist() == [10.0, 10.0]


def test_projected_gradient_retries_along_the_gradient():
    # with u_2 bounded only by 1e20, every candidate of the SPECTRAL_MAX
    # step raises E; each such step is taken along -grad instead
    energy = QuadraticEnergy(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, -1.0]))
    sol = solve_projected_gradient(energy, OrderInterval([0.0, 0.0], [10.0, 1e20]), tol=1e-9)
    assert sol.converged and sol.kkt_residual == 0.0
    assert sol.u.tolist() == [10.0, 11.0]


def test_brute_force_closed_forms():
    free = QuadraticEnergy(np.array([[2.0]]), np.array([-1.0]))
    sol = brute_force_active_set(free, OrderInterval([0.0], [10.0]))
    assert sol.u[0] == pytest.approx(0.5, abs=1e-12)  # -b/A inside the box
    assert sol.free.size == 1
    pinned = brute_force_active_set(free, OrderInterval([1.0], [2.0]))
    assert pinned.u[0] == pytest.approx(1.0)
    assert pinned.grad[0] == pytest.approx(1.0)  # multiplier >= 0 at lower bound
    assert np.array_equal(pinned.active_lower, [0])


def test_brute_force_size_cap():
    energy = QuadraticEnergy(np.eye(13))
    box = OrderInterval(np.zeros(13), np.ones(13))
    with pytest.raises(SolverError):
        brute_force_active_set(energy, box)


def test_oracle_equivalence_random_sample():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        energy = random_submodular_quadratic(rng, n)
        box = random_box(rng, n)
        sol = solve_newton(energy, box, tol=1e-9)
        oracle = brute_force_active_set(energy, box)
        assert sol.converged
        assert np.max(np.abs(sol.u - oracle.u)) <= 1e-7


def test_oracle_handles_one_sided_box():
    energy = QuadraticEnergy(np.array([[2.0, -1.0], [-1.0, 2.0]]),
                             np.array([-1.0, 0.5]))
    box = OrderInterval([0.3, 0.3], [UNBOUNDED, UNBOUNDED])
    sol = brute_force_active_set(energy, box)
    # u_2 on its obstacle 0.3, then 2 u_1 - 0.3 = 1 and g_2 = -0.65 + 0.6 + 0.5 >= 0
    assert np.max(np.abs(sol.u - [0.65, 0.3])) <= 1e-8


def _kkt_by_three_passes(u, box, g):
    """The KKT residual as one np.where pass per kind of index."""
    lower, upper = obslat.solvers._on_bounds(u, box)
    r = np.abs(g)
    r = np.where(lower, np.maximum(0.0, -g), r)
    r = np.where(upper, np.maximum(0.0, g), r)
    r = np.where(box.lo == box.hi, 0.0, r)
    return float(np.max(r)) + 0.0


def test_kkt_from_gradient_matches_three_passes():
    # every index kind (lower, upper, free, pinned) against gradient entries
    # of both signs, both zeros and NaN, each pair in every position of n = 3
    lo, hi, at = [0.0, -1.0, -1.0, 2.0], [1.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.5, 2.0]
    grads = [-1.5, -0.0, 0.0, 1e-300, 2.0, np.nan]
    kinds = [(k, x) for k in range(4) for x in grads]
    rng = np.random.default_rng(0)
    for (k1, x1), (k2, x2) in [(a, b) for a in kinds for b in kinds]:
        for k3, x3 in (kinds[rng.integers(len(kinds))], (2, -0.0)):
            ks = [k1, k2, k3]
            box = OrderInterval([lo[k] for k in ks], [hi[k] for k in ks])
            u, g = np.array([at[k] for k in ks]), np.array([x1, x2, x3])
            want = _kkt_by_three_passes(u, box, g)
            got = obslat.solvers._kkt_from_gradient(u, box, g)
            assert type(got) is float
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_kkt_residual_cases(tridiag, tridiag_box):
    sol = brute_force_active_set(tridiag, tridiag_box)
    assert kkt_residual(tridiag, tridiag_box, sol.u) == 0.0
    # interior point: residual reduces to the gradient max norm
    box = OrderInterval([-10.0] * 3, [10.0] * 3)
    u = np.array([0.5, 1.0, 0.5])
    assert kkt_residual(tridiag, box, u) == 1.0
    pinned = OrderInterval([1.0] * 3, [1.0] * 3)
    assert kkt_residual(tridiag, pinned, np.ones(3)) == 0.0
    with pytest.raises(PreconditionError):
        kkt_residual(tridiag, tridiag_box, np.zeros(3))
    # the slack of the finite lower side ignores the absent upper side (1e30)
    one_sided = OrderInterval(np.zeros(3), np.full(3, UNBOUNDED))
    for below in (1.0, 1e17):
        with pytest.raises(PreconditionError):
            kkt_residual(tridiag, one_sided, np.array([0.0, -below, 0.0]))


def test_classification_tie_breaks():
    box = OrderInterval([0.0, 0.0, 0.0], [0.0, 1.0, 1.0])
    lower, upper, free = classify_active(np.array([0.0, 1.0, 0.5]), box)
    assert np.array_equal(lower, [0])  # lo == hi classifies as lower
    assert np.array_equal(upper, [1])
    assert np.array_equal(free, [2])
    # on a bound means equal to it: 1e-12 above lo and below hi is free
    square = OrderInterval([0.0, 0.0], [1.0, 1.0])
    for u in ([1e-12, 0.5], [0.5, 1.0 - 1e-12]):
        lower, upper, free = classify_active(np.array(u), square)
        assert lower.size == 0 and upper.size == 0
        assert np.array_equal(free, [0, 1])


def _kkt_charged_free(box, u):
    """Indices that kkt_residual charges |g_i|: charged for g = e_i and g = -e_i."""
    def charged(g):
        return kkt_residual(SimpleNamespace(gradient=lambda _: g), box, u) > 0.0
    eye = np.eye(box.n)
    return [i for i in range(box.n) if charged(eye[i]) and charged(-eye[i])]


def test_partition_matches_kkt_free_set():
    # minimizers 1e-12 above lo, interior, 1e-12 below hi, on lo, on hi, and
    # pinned: every solver's free set is the set kkt_residual charges as free
    b = np.array([-1e-12, -0.5, -(1.0 - 1e-12), 1.0, -2.0, 0.0])
    energy = QuadraticEnergy(np.eye(6), b)
    box = OrderInterval([0.0] * 5 + [0.5], [1.0] * 5 + [0.5])
    for solve in (solve_newton, solve_psor, solve_projected_gradient, brute_force_active_set):
        sol = solve(energy, box)
        assert sol.converged, solve.__name__
        assert list(sol.free) == _kkt_charged_free(box, sol.u), solve.__name__
    sol = solve_newton(energy, box)
    assert list(sol.free) == [0, 1, 2]
    assert list(sol.active_lower) == [3, 5] and list(sol.active_upper) == [4]


def test_comparison_principle_path():
    # harmonic extension lies below every lower-obstacle solution
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        pinned = graph_dirichlet(n, [(i, i + 1, 1.0) for i in range(n - 1)],
                                 [0, n - 1])
        vals = rng.uniform(-1, 1, size=2)
        energy = QuadraticEnergy(pinned.a, pinned.coupling @ vals)
        big = OrderInterval(np.full(energy.n, -UNBOUNDED), np.full(energy.n, UNBOUNDED))
        u_harm = solve_newton(energy, big, tol=1e-11).u
        obstacle = u_harm + rng.uniform(0.0, 0.5, size=energy.n) - 0.2
        u_obs = solve_newton(energy, OrderInterval(obstacle, np.full(energy.n, UNBOUNDED)),
                             tol=1e-11).u
        assert np.all(u_harm <= u_obs + 1e-9)


def _reference_psor(energy, box, tol=1e-9, max_iter=20000, omega=1.5, u0=None):
    """Projected SOR on numpy scalars: the arithmetic PSOR's sweep must repeat bit for bit.

    Returns the final iterate, the sweep count, the convergence flag and a
    copy of the iterate after every sweep.
    """
    a, b, diag = energy.a, energy.b, energy.a.diagonal()
    lo, hi = box.lo, box.hi
    u = clamp(np.zeros(energy.n) if u0 is None else u0, box)
    iterates = []
    converged = False
    while len(iterates) < max_iter:
        for i in range(energy.n):
            acc = b[i]
            for k in range(a.indptr[i], a.indptr[i + 1]):
                j = a.indices[k]
                if j != i:
                    acc += a.data[k] * u[j]
            x_gs = -acc / diag[i]
            if omega == 1.0:
                x = x_gs
            else:
                x = u[i] + omega * (x_gs - u[i])
            if x < lo[i]:
                x = lo[i]
            elif x > hi[i]:
                x = hi[i]
            u[i] = x
        iterates.append(u.copy())
        if kkt_residual(energy, box, u) <= tol:
            converged = True
            break
    return clamp(u, box), len(iterates), converged, iterates


def _membrane():
    """Dirichlet energy of the 30x30 free grid with a bump below and a dent above."""
    energy = graph_dirichlet(32 * 32, grid_edges(32, 32), grid_boundary(32, 32))
    x, y = np.divmod(energy.free_nodes, 32)
    x, y = x / 31.0, y / 31.0
    bump = np.exp(-((x - 0.35) ** 2 + (y - 0.4) ** 2) / 0.05)
    dent = np.exp(-((x - 0.65) ** 2 + (y - 0.6) ** 2) / 0.05)
    lo = 0.5 * bump - 0.1
    return energy, OrderInterval(lo, np.maximum(0.4 - 0.6 * dent, lo + 0.05))


def _dominant_non_z():
    rng = np.random.default_rng(5)
    n = 9
    a = rng.uniform(-0.4, 0.4, size=(n, n))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 0.3)
    return QuadraticEnergy(a, rng.normal(size=n)), random_box(rng, n)


def _pinned():
    rng = np.random.default_rng(7)
    energy = random_submodular_quadratic(rng, 11)
    box = random_box(rng, 11)
    lo = box.lo.copy()
    lo[::3] = box.hi[::3]
    return energy, OrderInterval(lo, box.hi)


def _psor_case(name):
    if name in ("membrane", "membrane_gs_from_hi"):
        return (*_membrane(), {})
    if name == "random_z_matrix":
        rng = np.random.default_rng(3)
        return random_submodular_quadratic(rng, 12), random_box(rng, 12), {}
    if name == "dominant_non_z":
        return (*_dominant_non_z(), {})
    if name == "pinned":
        return (*_pinned(), {})
    energy = QuadraticEnergy.from_triplets(3, TRIDIAG, [5.0, -3.0, 2.0])
    return energy, OrderInterval([-5.0] * 3, [5.0] * 3), {"tol": 1e-14, "max_iter": 1}


@pytest.mark.parametrize("name", ["membrane", "membrane_gs_from_hi", "random_z_matrix",
                                  "dominant_non_z", "pinned", "max_iter_1"])
def test_psor_bit_identical_to_numpy_scalar_sweep(name):
    # solve_psor at omega = 1.5 from clamp(0, box), and the suite's omega = 1
    # sweep from hi, whose every iterate is compared
    energy, box, kwargs = _psor_case(name)
    if name == "membrane_gs_from_hi":
        seen = obslat.suite._gauss_seidel_from_hi(energy, box)
        u, sweeps, converged, iterates = _reference_psor(energy, box, omega=1.0, u0=box.hi)
        assert converged and len(seen) == sweeps + 1
        assert [v.tobytes() for v in seen] == [v.tobytes() for v in [box.hi, *iterates]]
        return
    sol = solve_psor(energy, box, **kwargs)
    u, sweeps, converged, iterates = _reference_psor(energy, box, **kwargs)
    assert converged == (name != "max_iter_1")
    assert sol.converged == converged
    assert sol.iterations == sweeps
    assert sol.u.tobytes() == u.tobytes()
    assert sol.kkt_residual == kkt_residual(energy, box, u)


def test_psor_leaves_the_energy_unchanged():
    # the row lists are built per call; nothing is cached on the energy
    energy, box, kwargs = _psor_case("membrane")
    before = dict(vars(energy))
    first = solve_psor(energy, box, **kwargs)
    second = solve_psor(energy, box, **kwargs)
    assert vars(energy).keys() == before.keys()
    assert all(vars(energy)[k] is v for k, v in before.items())
    assert first.converged and first.u.tobytes() == second.u.tobytes()


# ---------------------------------------------------------------- projected Newton

def _assert_newton_matches_oracle(seed, make_box, n_max):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(2, n_max + 1))
        energy = random_submodular_quadratic(rng, n)
        box = make_box(rng, n)
        sol = solve_newton(energy, box, tol=1e-9)
        oracle = brute_force_active_set(energy, box)
        assert sol.converged and sol.kkt_residual <= 1e-9
        assert np.max(np.abs(sol.u - oracle.u)) <= 1e-7


def test_newton_matches_oracle():
    _assert_newton_matches_oracle(37, random_box, 9)


def test_newton_matches_oracle_on_lower_obstacle_boxes():
    # the upper side is absent (1e30); the oracle must not widen the lower
    # side's feasibility slack by it
    _assert_newton_matches_oracle(41, random_lower_obstacle_box, 8)


def test_newton_membrane_agrees_with_bounded_least_squares():
    # E(u) = 1/2 |R u|^2 with A = R^T R (b = 0): its minimizer over the box
    # is the bounded least-squares solution of R u = 0
    side = 12
    energy = graph_dirichlet(side * side, grid_edges(side, side), grid_boundary(side, side))
    x = np.linspace(0.0, 1.0, side)[1:-1]
    xx, yy = np.meshgrid(x, x)
    lo = (0.3 - 2.0 * ((xx - 0.5) ** 2 + (yy - 0.5) ** 2)).ravel()
    box = OrderInterval(lo, lo + 0.4)
    sol = solve_newton(energy, box, tol=1e-12)
    ref = scipy.optimize.lsq_linear(scipy.linalg.cholesky(energy.a.toarray()), np.zeros(energy.n),
                                    bounds=(box.lo, box.hi), method="bvls")
    ref_lower, ref_upper, _ = classify_active(ref.x, box)
    assert sol.converged and sol.iterations <= 10
    assert np.max(np.abs(sol.u - ref.x)) <= 1e-10
    assert np.array_equal(sol.active_lower, ref_lower)
    assert np.array_equal(sol.active_upper, ref_upper)


def test_newton_banded_and_superlu_sides_agree(monkeypatch):
    # a 30 x 30 membrane: in natural numbering every free block has a band of
    # 28 and banded Cholesky factors it; with the nodes scrambled the band
    # spans the block and SuperLU factors it
    side, n = 30, 900
    perm = np.random.default_rng(5).permutation(n)
    x = np.linspace(0.0, 1.0, side)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    lo = (0.3 - 2.0 * ((xx - 0.5) ** 2 + (yy - 0.5) ** 2)).ravel()
    sides = _factor_sides(monkeypatch)
    answers = {}
    for name, order, want in (("natural", np.arange(n), "_factor_banded"),
                              ("scrambled", perm, "_factor_sparse")):
        edges = [(int(order[i]), int(order[j]), w) for i, j, w in grid_edges(side, side)]
        energy = graph_dirichlet(n, edges, order[grid_boundary(side, side)])
        lo_nodes = np.empty(n)
        lo_nodes[order] = lo
        box = OrderInterval(lo_nodes[energy.free_nodes], lo_nodes[energy.free_nodes] + 0.4)
        sides.clear()
        sol = solve_newton(energy, box, tol=1e-12)
        assert sol.converged and sides and set(sides) == {want}, name
        assert ls_certificate(energy, box, sol, 1e-11).passed, name
        if name == "scrambled":
            # the wide block is built in the same pass as its band, with
            # the arrays of scipy's H[F][:, F].tocsc()
            free = np.zeros(energy.n, dtype=bool)
            free[sol.free] = True
            block = obslat.solvers._free_block(energy.a, free)
            ref = energy.a[free][:, free].tocsc()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block, attr), getattr(ref, attr)), attr
        # u, and active (-1 lower, 1 upper) on the grid's own node order
        u, active = np.zeros(n), np.zeros(n, dtype=int)
        u[energy.free_nodes] = sol.u
        active[energy.free_nodes[sol.active_lower]] = -1
        active[energy.free_nodes[sol.active_upper]] = 1
        answers[name] = u[order], active[order]
    assert np.max(np.abs(answers["natural"][0] - answers["scrambled"][0])) <= 1e-12
    assert np.array_equal(answers["natural"][1], answers["scrambled"][1])
    assert np.any(answers["natural"][1] == -1) and np.any(answers["natural"][1] == 1)


def test_newton_singular_free_block_takes_shifted_steps():
    # full path Laplacian: constants span its kernel, and at the start
    # u = 0 nothing sits on a bound, so the free block is the whole matrix
    lap = np.diag([1.0, 2.0, 2.0, 2.0, 1.0]) - np.eye(5, k=1) - np.eye(5, k=-1)
    energy = QuadraticEnergy(lap, [1.0, 0.0, 0.0, 0.0, -1.0])
    box = OrderInterval(np.full(5, -10.0), np.full(5, 10.0))
    # on the 5 x 5 grid the rounding leaves a last pivot of 1e-16, not 0;
    # both blocks are narrow, and both sides find them singular
    grid = grid_space(5, 5).dirichlet_energy
    for a in (energy.a, grid.a):
        band = obslat.solvers._free_block(a, np.ones(a.shape[0], dtype=bool))
        assert isinstance(band, np.ndarray) and obslat.solvers._factor_banded(band, 0.0) is None
        assert obslat.solvers._factor_sparse(a.tocsc(), 0.0) is None
    # the shifted solve is the Newton step on the range of the Laplacian
    u0, g0 = np.zeros(5), energy.gradient(np.zeros(5))
    d = obslat.solvers._newton_direction(energy, u0, g0, np.ones(5, dtype=bool))
    assert g0 @ d < 0.0
    assert np.max(np.abs(lap @ d + g0)) <= 1e-7
    sol = solve_newton(energy, box, tol=1e-9)
    assert sol.converged and sol.kkt_residual <= 1e-9 and sol.iterations <= 2
    # b is in the range of A and the box is inactive: -pinv(A) b minimizes E
    ref = -np.linalg.pinv(lap) @ energy.b
    assert np.all((box.lo < ref) & (ref < box.hi))
    assert abs(energy.value(sol.u) - energy.value(ref)) <= 1e-12


def test_newton_zero_free_block_falls_back_to_gradient():
    # a linear energy has a zero Hessian: no shift makes its free block
    # definite, so Newton has no direction and the step runs along -grad
    energy = QuadraticEnergy(sp.csr_matrix((2, 2)), [1.0, -1.0])
    box = OrderInterval([0.0, 0.0], [1.0, 1.0])
    u0, g0 = np.zeros(2), energy.gradient(np.zeros(2))
    assert obslat.solvers._newton_direction(energy, u0, g0, np.array([False, True])) is None
    sol = solve_newton(energy, box)
    assert sol.converged and sol.iterations == 1
    assert np.array_equal(sol.u, [0.0, 1.0])
    # a p = 3 kernel on a path, all tied at u = 0: its zero block stores
    # zeros, so it is narrow, and the banded side finds no direction either
    kernel = KernelEnergy(3, [(0, 1, 1.0), (1, 2, 1.0)], [], 3.0)
    u0 = np.zeros(3)
    assert isinstance(obslat.solvers._free_block(kernel.hessian(u0), np.ones(3, dtype=bool)),
                      np.ndarray)
    assert obslat.solvers._newton_direction(kernel, u0, np.array([1.0, 0.0, -1.0]),
                                            np.ones(3, dtype=bool)) is None


def _path_laplacian(n):
    return np.diag([1.0] + [2.0] * (n - 2) + [1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)


@pytest.mark.parametrize("b", ["mean_zero", "linear"])
def test_newton_no_gradient_crawl_on_singular_hessian(b):
    # a full 20-node path Laplacian with a linear term and a loose box: the
    # free block is singular while nothing is held, and unscaled gradient
    # steps need more than 1000 steps on the mean-zero term
    n = 20
    if b == "mean_zero":
        lin = np.sin(np.arange(n)) - np.mean(np.sin(np.arange(n)))
    else:
        lin = np.linspace(-1.0, 1.5, n)
    energy = QuadraticEnergy(_path_laplacian(n), lin)
    box = OrderInterval(np.full(n, -100.0), np.full(n, 100.0))
    sol = solve_newton(energy, box, tol=1e-9)
    assert sol.converged and sol.iterations <= 15
    assert ls_certificate(energy, box, sol, 1e-8).passed
    if b == "mean_zero":  # b in the range of A, box inactive: -pinv(A) b minimizes E
        ref = -np.linalg.pinv(_path_laplacian(n)) @ lin
        assert np.all((box.lo < ref) & (ref < box.hi))
    else:  # no exact reference: the linear term drives the constants onto lo
        ref = solve_psor(energy, box, tol=1e-12).u
    assert energy.value(sol.u) <= energy.value(ref) + 1e-9 * (1.0 + abs(energy.value(ref)))


def test_newton_no_gradient_crawl_on_singular_kernel_hessian():
    # p = 3 kernel on a path without exterior weights: the start ties nodes
    # 1-19 at 0, so their Hessian rows are zero, and the minimizer, the
    # constant 1, makes every pair tied again
    rng = np.random.default_rng(3)
    n = 20
    pairs = [(i, i + 1, 1.0 + 0.5 * float(rng.random())) for i in range(n - 1)]
    energy = KernelEnergy(n, pairs, [], 3.0)
    lo, hi = np.full(n, -10.0), np.full(n, 10.0)
    lo[0], hi[0] = 1.0, 2.0
    box = OrderInterval(lo, hi)
    sol = solve_newton(energy, box, tol=1e-9)
    assert sol.converged and sol.iterations <= 40
    assert ls_certificate(energy, box, sol, 1e-8).passed


def test_newton_p3_tied_pairs():
    # nodes 1-5 start tied at their lower bound 0.3, so every pair among
    # them has zero Hessian weight; nodes 2-4 have no exterior weight, and
    # their rows of the free block are zero
    pairs = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
             (1, 3, 0.5), (2, 5, 0.5)]
    energy = KernelEnergy(6, pairs, [(5, 0.2)], 3.0)
    box = OrderInterval([1.0] + [0.3] * 5, [1.0] + [2.0] * 5)
    u0 = clamp(np.zeros(6), box)
    assert not energy.hessian(u0).toarray()[2:5].any()
    values = []
    sol = solve_newton(energy, box, tol=1e-9, step_callback=lambda u, f: values.append(f))
    assert sol.converged and sol.kkt_residual <= 1e-9
    assert np.all(np.diff(values) <= 64 * np.finfo(float).eps * np.abs(values[:-1]))
    assert ls_certificate(energy, box, sol, 1e-8).passed


def test_newton_accepts_step_onto_bound_1e17_away():
    # On this Kantorovich instance some bounds are 1e-17 apart.  The step
    # that moves such an index onto its upper bound lowers E by about 1e-21,
    # below the rounding of E, which rounds one ulp up; it is taken because
    # E rises no more than rounding and the KKT residual falls.
    rng = np.random.default_rng(110)
    space = path_space(21, weight=1.0 / 20.0)
    for _ in range(8):
        phi = random_c_concave(rng, space, scale=0.2)
    _, pair, _ = kantorovich_regularize(space, phi, 0.5)
    gap = pair.hi - pair.lo
    assert np.any((gap > 0.0) & (gap < 1e-16))
    box = OrderInterval(pair.lo, pair.hi)
    energy = space.dirichlet_energy
    values = []
    sol = solve_newton(energy, box, step_callback=lambda u, f: values.append(f))
    assert sol.converged and sol.kkt_residual <= 1e-9
    assert np.all(np.diff(values) <= 64 * np.finfo(float).eps * np.abs(values[:-1]))
    assert ls_certificate(energy, box, sol, 1e-8).passed


def test_newton_and_projected_gradient_flag_budget(tridiag):
    shifted = QuadraticEnergy(tridiag.a, [5.0, -3.0, 2.0])
    box = OrderInterval([-5.0] * 3, [5.0] * 3)
    coupled = QuadraticEnergy(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([-1.0, 0.5]))
    square = OrderInterval([-5.0] * 2, [5.0] * 2)
    # (solver, energy, box, steps to tol 1e-9): the last allowed step may meet tol
    cases = [(solve_newton, shifted, box, 1),  # one exact step
             (solve_newton, coupled, square, 1),
             (solve_projected_gradient, coupled, square, 9)]
    for solve, energy, box, steps in cases:
        assert not solve(energy, box, tol=1e-9, max_iter=steps - 1).converged
        sol = solve(energy, box, tol=1e-9, max_iter=steps)
        assert sol.converged and sol.iterations == steps


def test_no_library_code_calls_the_secondary_solvers():
    # projected Newton is the solver of the package, the demos and the
    # goldens; PSOR and projected gradient are benchmark fixtures, called
    # only by the benchmark and their own unit tests
    root = Path(__file__).resolve().parent.parent
    files = [*sorted((root / "src" / "obslat").glob("*.py")),
             *sorted((root / "demos").glob("*.py")), root / "tests" / "golden" / "generate.py"]
    secondary = {"solve_psor", "solve_projected_gradient"}

    def calls_in(node, scope):
        """(enclosing function, solver) of each secondary-solver call below node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in secondary:
                    yield scope, name
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from calls_in(child, inner)

    calls = [(path.relative_to(root).as_posix(), *call) for path in files
             for call in calls_in(ast.parse(path.read_text(), filename=str(path)), None)]
    assert calls == []
