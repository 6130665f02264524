"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure); the assertions themselves carry the tolerances.  Runtime caps are
asserted where stated.
"""

import json
import time

import numpy as np

from obslat.certificates import (
    harmonic_extension,
    ls_certificate,
    maximum_principle_check,
)
from obslat.cli import main
from obslat.energies import (
    scalar_submodularity_inequality,
    submodularity_check,
    t_monotonicity_check,
    z_matrix_violation,
)
from obslat.instances import (
    grid_space,
    path_space,
    random_box,
    random_c_concave,
    random_fractional_instance,
    random_grid_dirichlet,
    random_kernel_pair,
    random_planar_metric,
    random_smooth_obstacles,
    random_submodular_quadratic,
    random_symmetric_matrix,
)
from obslat.metric import (
    build_cutoff,
    c_transform,
    cutoff_obstacles,
    hopf_lax,
    interpolation_duality_check,
    kantorovich_regularize,
)
from obslat.solvers import brute_force_active_set, solve_newton
from obslat.energies import fractional_kernel_1d


def test_c01_abstract_ls_verification():
    """200 random Z-matrix instances: Newton tol 1e-9, certificate tol 1e-8, < 10 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        energy = random_submodular_quadratic(rng, n)
        box = random_box(rng, n)
        sol = solve_newton(energy, box, tol=1e-9)
        assert sol.converged
        cert = ls_certificate(energy, box, sol, tol=1e-8)
        assert cert.passed, (cert.lower_slack_min, cert.upper_slack_min)
        worst = min(worst, cert.lower_slack_min, cert.upper_slack_min)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    print(f"ACCEPTANCE 1 PASS: 200/200 certificates, worst slack {worst:.3e}, "
          f"{elapsed:.2f}s")


def test_c02_oracle_equivalence():
    """50 random instances n <= 10: ||Newton - enumeration||_inf <= 1e-7, < 30 s."""
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        energy = random_submodular_quadratic(rng, n)
        box = random_box(rng, n)
        sol = solve_newton(energy, box, tol=1e-9)
        oracle = brute_force_active_set(energy, box)
        gap = float(np.max(np.abs(sol.u - oracle.u)))
        assert gap <= 1e-7, gap
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    print(f"ACCEPTANCE 2 PASS: 50/50 solver-oracle gaps <= {worst:.3e}, "
          f"{elapsed:.2f}s")


def test_c03_submodularity_iff_zmatrix():
    """Witness returned iff an off-diagonal entry is positive, and delta == entry."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 13))
        a = random_symmetric_matrix(rng, n, z_matrix=bool(k % 2))
        off = a[~np.eye(n, dtype=bool)]
        expect_witness = bool(np.max(off) > 0.0)
        viol = z_matrix_violation(a)
        assert (viol is not None) == expect_witness
        if viol is not None:
            _, delta = submodularity_check(
                lambda x: 0.5 * float(x @ a @ x), viol.u, viol.v)
            assert abs(delta - viol.entry) <= 1e-12
            worst = max(worst, abs(delta - viol.entry))
    print(f"ACCEPTANCE 3 PASS: 100/100 matrices, worst |delta - entry| {worst:.3e}")


def test_c04_t_monotonicity():
    """mu >= -1e-10 on 1000 random pairs across quadratic and kernel families."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for k in range(1000):
        family = k % 3
        if family == 0:
            n = int(rng.integers(2, 25))
            energy = random_submodular_quadratic(rng, n)
        else:
            n = int(rng.integers(2, 12))
            energy = random_kernel_pair(rng, n, p=2.0 if family == 1 else 3.0)
        u, v = rng.normal(size=n), rng.normal(size=n)
        _, mu = t_monotonicity_check(energy.gradient, u, v)
        assert mu >= -1e-10, (family, mu)
        worst = min(worst, mu)
    print(f"ACCEPTANCE 4 PASS: 1000/1000 pairs, min mu {worst:.3e}")


def test_c05_scalar_inequality():
    """No violation beyond 1e-12 over 1e4 quadruples for p in {1.5, 2, 3}."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        quads = rng.uniform(-2.0, 2.0, size=(10000, 4))
        for q in quads:
            ok, margin = scalar_submodularity_inequality(p, *q)
            assert ok, (p, q, margin)
            worst = min(worst, margin)
    print(f"ACCEPTANCE 5 PASS: 3x10^4 quadruples, min margin {worst:.3e}")


def test_c06_fractional_ls():
    """All (s, p) combos, n <= 40: monotone Newton descent, certificates at 1e-6, < 60 s."""
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    count = 0
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        for p in (2.0, 3.0):
            for contact in ("lower", "upper"):
                n = int(rng.integers(10, 41))
                energy = fractional_kernel_1d(n, 1.0 / (n + 1), s, p, collar=3)
                box = random_smooth_obstacles(rng, n, force_contact=contact)
                values = []
                sol = solve_newton(energy, box, tol=1e-8,
                                   step_callback=lambda u, f: values.append(f))
                assert sol.converged, (s, p, sol.kkt_residual)
                if len(values) > 1:
                    assert np.all(np.diff(values) <= 1e-12), (s, p)
                cert = ls_certificate(energy, box, sol, tol=1e-6)
                assert cert.passed, (s, p, cert.lower_slack_min, cert.upper_slack_min)
                worst = min(worst, cert.lower_slack_min, cert.upper_slack_min)
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    print(f"ACCEPTANCE 6 PASS: {count} fractional instances, worst slack "
          f"{worst:.3e}, {elapsed:.2f}s")


def test_c07_hopf_lax_identities():
    """Triple transform, Q_t monotonicity, Lipschitz bound on 100 point clouds."""
    rng = np.random.default_rng(107)
    worst_triple = worst_lip = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        space = random_planar_metric(rng, n)
        psi = rng.uniform(-0.5, 0.5, size=n)
        psi_c = c_transform(space, psi)
        triple = c_transform(space, c_transform(space, psi_c))
        defect = float(np.max(np.abs(triple - psi_c)))
        assert defect <= 1e-12
        worst_triple = max(worst_triple, defect)
        t1, t2 = sorted(rng.uniform(0.05, 1.5, size=2))
        q1, q2 = hopf_lax(space, psi, t1), hopf_lax(space, psi, t2)
        assert np.all(q1 <= psi + 1e-12)
        assert np.all(q2 <= q1 + 1e-12)
        phi = random_c_concave(rng, space, scale=0.3)
        off = ~np.eye(n, dtype=bool)
        for t in (0.25, 0.5, 0.75):
            q = hopf_lax(space, -phi, t)
            lip = float(np.max(np.abs(q[:, None] - q[None, :])[off] / space.D[off]))
            bound = 2.0 * np.sqrt(float(np.max(np.abs(phi))) / t) + 1e-9
            assert lip <= bound, (t, lip, bound)
            worst_lip = max(worst_lip, lip - bound)
    print(f"ACCEPTANCE 7 PASS: 100 spaces; worst triple-transform defect "
          f"{worst_triple:.3e}, worst Lipschitz margin {worst_lip:.3e}")


def test_c08_interpolation_positivity():
    """Min slack >= -1e-12 for 100 c-concave potentials, t in {0.1..0.9}."""
    rng = np.random.default_rng(108)
    worst = np.inf
    for _ in range(100):
        n = int(rng.integers(3, 15))
        space = random_planar_metric(rng, n)
        phi = random_c_concave(rng, space, scale=0.4)
        for t in np.arange(1, 10) / 10.0:
            ok, slack = interpolation_duality_check(space, phi, float(t))
            assert ok, slack
            worst = min(worst, slack)
    two = path_space(2)
    phi2 = np.array([0.0, -0.3])
    slack2 = (hopf_lax(two, -phi2, 0.5)
              + hopf_lax(two, -c_transform(two, phi2), 0.5))
    assert slack2[0] == 0.0 and slack2[1] == 0.0
    print(f"ACCEPTANCE 8 PASS: 900 slack checks, min slack {worst:.3e}; "
          f"two-point slack exactly (0, 0)")


def test_c09_cutoff_construction(paper_radius_obstacles):
    """Exact pins and certified Laplacian bound on path-11 and grid-15x15."""
    cases = [
        (path_space(11), [5], list(range(2, 9))),
        (grid_space(15, 15),
         [i * 15 + j for i in range(6, 9) for j in range(6, 9)],
         [i * 15 + j for i in range(3, 12) for j in range(3, 12)]),
    ]
    sup_laps = []
    for space, core, region in cases:
        phi, psi, _ = cutoff_obstacles(space, core, region)
        cut = build_cutoff(space, core, region)
        omega, cert = cut.solution.u, cut.certificate
        out = sorted(set(range(space.n)) - set(region))
        assert np.all(omega[core] == 1.0)
        assert np.all(omega[out] == 0.0)
        assert cert.passed
        energy = space.dirichlet_energy
        lap = float(np.max(np.abs(-energy.gradient(omega))))
        bound = max(
            float(np.max(np.abs(np.minimum(-energy.gradient(phi), 0.0)))),
            float(np.max(np.abs(np.maximum(-energy.gradient(psi), 0.0)))),
        )
        assert lap <= bound + 1e-8
        sup_laps.append(lap)
    # the paper's radius r^2 = D0^2/2 breaks phi <= psi on the 5-path
    phi, psi = paper_radius_obstacles(path_space(5), [2], [1, 2, 3])
    crossing = float(np.max(phi - psi))
    assert crossing == 0.5
    print(f"ACCEPTANCE 9 PASS: pins exact, sup|Laplacian| = {sup_laps}; "
          f"paper's radius violates phi <= psi by {crossing}")


def test_c10_regularized_potentials():
    """21-point line, 10 potentials, t in {0.25, 0.5, 0.75}."""
    rng = np.random.default_rng(110)
    space = path_space(21, weight=1.0 / 20.0)
    sup_lap = 0.0
    for _ in range(10):
        phi = random_c_concave(rng, space, scale=0.2)
        for t in (0.25, 0.5, 0.75):
            eta, pair, cert = kantorovich_regularize(space, phi, t)
            assert np.all(pair.lo <= pair.hi)
            assert cert.passed
            idx = pair.coincidence_set
            if idx.size:
                assert np.max(np.abs(eta[idx] - pair.lo[idx])) <= 1e-9
            lap = float(np.max(np.abs(-space.dirichlet_energy.gradient(eta))))
            assert np.isfinite(lap)
            sup_lap = max(sup_lap, lap)
    print(f"ACCEPTANCE 10 PASS: 30 regularizations, max sup|Laplacian| "
          f"{sup_lap:.6e}")


def test_c11_maximum_principle():
    """Harmonic extensions on 20 random grids stay inside boundary range."""
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(20):
        energy, values = random_grid_dirichlet(rng)
        interior = harmonic_extension(energy, values)
        ok, overshoot = maximum_principle_check(energy, values, interior)
        assert ok, overshoot
        worst = max(worst, overshoot)
    print(f"ACCEPTANCE 11 PASS: 20/20 extensions, worst overshoot {worst:.3e}")


def test_c12_suite_determinism(tmp_path):
    """cmd_suite twice with one seed produces byte-identical outputs."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["suite", "--seed", "0", "--out", str(out1)])
    code2 = main(["suite", "--seed", "0", "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    csv1 = (out1 / "suite.csv").read_bytes()
    csv2 = (out2 / "suite.csv").read_bytes()
    assert csv1 == csv2
    json1 = (out1 / "suite_summary.json").read_bytes()
    json2 = (out2 / "suite_summary.json").read_bytes()
    assert json1 == json2
    summary = json.loads(json1)
    assert summary["all_pass"] is True
    print(f"ACCEPTANCE 12 PASS: {summary['n_rows']} suite rows byte-identical "
          f"across runs (seed 0)")
