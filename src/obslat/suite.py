"""Property suites: every library-level invariant as a pass/fail row.

Each check function returns rows of the form::

    {"check_name": str, "n_instances": int, "worst_value": float,
     "threshold": float, "pass": bool}

where ``worst_value`` is the largest measured violation.  Checks draw
their randomness from a generator seeded by (seed, crc32(check name)), so
any subset of checks is reproducible independently of the others.
"""

from __future__ import annotations

import collections
import math
import multiprocessing
import os
import zlib

import numpy as np

from . import instances as inst
from .certificates import (
    free_set_harmonicity,
    harmonic_extension,
    ls_certificate,
    maximum_principle_check,
)
from .energies import (
    graph_dirichlet,
    scalar_submodularity_inequality,
    submodularity_check,
    t_monotonicity_check,
    z_matrix_violation,
)
from .errors import (
    CertificateError, ObslatError, ObstacleOrderError, PreconditionError, SolverError,
)
from .lattice import OrderInterval, UNBOUNDED
from .metric import (
    build_cutoff,
    c_transform,
    coincidence_cc_report,
    hopf_lax,
    interpolation_duality_check,
    is_c_concave,
    kantorovich_regularize,
)
from .solvers import _psor_rows, _psor_sweep, brute_force_active_set, kkt_residual, solve_newton


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def _row(name: str, n: int, worst: float, threshold: float) -> dict:
    worst = float(worst) + 0.0
    return {
        "check_name": name,
        "n_instances": int(n),
        "worst_value": worst,
        "threshold": float(threshold),
        "pass": bool(worst <= threshold),
    }


def check_zmatrix_equivalence(seed: int) -> list:
    rng = _rng(seed, "zmatrix_equivalence")
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 13))
        a = inst.random_symmetric_matrix(rng, n, z_matrix=bool(k % 2))
        off = a[~np.eye(n, dtype=bool)]
        expect = bool(np.max(off) > 0.0)
        viol = z_matrix_violation(a)
        if (viol is not None) != expect:
            worst = math.inf
            continue
        if viol is not None:
            _, delta = submodularity_check(lambda x: 0.5 * float(x @ a @ x), viol.u, viol.v)
            worst = max(worst, abs(delta - viol.entry))
    return [_row("zmatrix_equivalence", 100, worst, 1e-12)]


def check_t_monotonicity(seed: int) -> list:
    rng = _rng(seed, "t_monotonicity")
    worst = 0.0
    for k in range(300):
        kind = k % 3
        if kind == 0:
            n = int(rng.integers(2, 20))
            energy = inst.random_submodular_quadratic(rng, n)
        else:
            n = int(rng.integers(2, 12))
            energy = inst.random_kernel_pair(rng, n, p=2.0 if kind == 1 else 3.0)
        u, v = rng.normal(size=n), rng.normal(size=n)
        _, mu = t_monotonicity_check(energy.gradient, u, v)
        worst = max(worst, -mu)
    return [_row("t_monotonicity", 300, worst, 1e-10)]


def check_scalar_sub2(seed: int) -> list:
    rng = _rng(seed, "scalar_sub2")
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        quads = rng.uniform(-2.0, 2.0, size=(2000, 4))
        for x1, x2, y1, y2 in quads:
            _, margin = scalar_submodularity_inequality(p, x1, x2, y1, y2)
            worst = max(worst, -margin)
    return [_row("scalar_sub2", 3 * 2000, worst, 1e-12)]


def check_oracle_equivalence(seed: int) -> list:
    rng = _rng(seed, "oracle_equivalence")
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 10))
        energy = inst.random_submodular_quadratic(rng, n)
        box = inst.random_box(rng, n)
        sol = solve_newton(energy, box, tol=1e-9)
        oracle = brute_force_active_set(energy, box)
        worst = max(worst, float(np.max(np.abs(sol.u - oracle.u))))
    return [_row("oracle_equivalence", 12, worst, 1e-7)]


def check_ls_quadratic(seed: int) -> list:
    rng = _rng(seed, "ls_certificate_quadratic")
    worst_slack = worst_harm = 0.0
    for k in range(40):
        n = int(rng.integers(2, 40))
        energy = inst.random_submodular_quadratic(rng, n)
        box = (inst.random_lower_obstacle_box(rng, n) if k % 4 == 3
               else inst.random_box(rng, n))
        sol = solve_newton(energy, box, tol=1e-9)
        if not sol.converged:
            worst_slack = math.inf
            continue
        cert = ls_certificate(energy, box, sol, 1e-8)
        worst_slack = max(worst_slack, -cert.lower_slack_min, -cert.upper_slack_min)
        _, _, harm = free_set_harmonicity(energy, box, sol, 1e-9)
        worst_harm = max(worst_harm, harm)
    return [
        _row("ls_certificate_quadratic", 40, worst_slack, 1e-8),
        _row("ls_free_set_harmonicity", 40, worst_harm, 1e-9),
    ]


def check_ls_fractional(seed: int) -> list:
    rng = _rng(seed, "ls_certificate_fractional")
    worst_slack = worst_ascent = 0.0
    for _ in range(6):
        energy, box, _, _ = inst.random_fractional_instance(rng, n_max=32)
        energies = []
        sol = solve_newton(energy, box, tol=1e-8,
                           step_callback=lambda u, f: energies.append(f))
        if not sol.converged:
            worst_slack = math.inf
            continue
        if len(energies) > 1:
            steps = np.diff(np.asarray(energies))
            worst_ascent = max(worst_ascent, float(np.max(steps, initial=0.0)))
        cert = ls_certificate(energy, box, sol, 1e-6)
        worst_slack = max(worst_slack, -cert.lower_slack_min, -cert.upper_slack_min)
    return [
        _row("ls_certificate_fractional", 6, worst_slack, 1e-6),
        _row("newton_energy_descent", 6, worst_ascent, 1e-12),
    ]


def _gauss_seidel_from_hi(energy, box: OrderInterval) -> list:
    """hi, then each PSOR sweep at omega = 1 until KKT residual <= 1e-9 or 20,000 sweeps."""
    rows, diag = _psor_rows(energy.a), energy.a.diagonal().tolist()
    b, lo, hi = energy.b.tolist(), box.lo.tolist(), box.hi.tolist()
    u, iterates = list(hi), [box.hi.copy()]
    while len(iterates) <= 20000:
        _psor_sweep(rows, diag, b, lo, hi, u, 1.0)
        iterates.append(np.array(u))
        if kkt_residual(energy, box, iterates[-1]) <= 1e-9:
            break
    return iterates


def check_psor_monotone(seed: int) -> list:
    rng = _rng(seed, "psor_monotone")
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 25))
        energy = inst.random_submodular_quadratic(rng, n)
        box = inst.random_box(rng, n)
        arr = np.asarray(_gauss_seidel_from_hi(energy, box))
        worst = max(worst, float(np.max(np.diff(arr, axis=0), initial=0.0)))
    return [_row("psor_monotone_from_above", 10, worst, 0.0)]


def check_comparison_principle(seed: int) -> list:
    rng = _rng(seed, "comparison_principle")
    worst = 0.0
    for k in range(20):
        if k % 2 == 0:
            side = int(rng.integers(3, 7))
            base = inst.grid_edges(side, side)
            nodes = side * side
            boundary = inst.grid_boundary(side, side)
        else:
            nodes = int(rng.integers(6, 15))
            base = inst.path_edges(nodes)
            boundary = [0, nodes - 1]
        pinned = graph_dirichlet(nodes, base, boundary)
        values = rng.uniform(-1.0, 1.0, size=len(boundary))
        n = pinned.n
        u_harm = harmonic_extension(pinned, values)
        obstacle = u_harm + 0.3 * rng.uniform(0.0, 1.0, size=n) - 0.1
        # E(u_harm + w) = 1/2 <Aw, w> + const, as A u_harm = -coupling @ values
        lower = OrderInterval(obstacle - u_harm, np.full(n, UNBOUNDED))
        w = solve_newton(pinned, lower, tol=1e-10).u
        worst = max(worst, float(np.max(-w)))
    return [_row("comparison_principle", 20, worst, 1e-8)]


def check_hopf_lax(seed: int) -> list:
    rng = _rng(seed, "hopf_lax")
    worst_triple = worst_lip = worst_ccdef = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 31))
        space = inst.random_planar_metric(rng, n)
        psi = rng.uniform(-0.5, 0.5, size=n)
        worst_triple = max(worst_triple, is_c_concave(space, c_transform(space, psi)).value)
        phi = inst.random_c_concave(rng, space, scale=0.3)
        worst_ccdef = max(worst_ccdef, is_c_concave(space, phi).value)
        for t in (0.25, 0.5, 0.75):
            lip_q = space.lipschitz(hopf_lax(space, -phi, t))
            bound = 2.0 * math.sqrt(float(np.max(np.abs(phi))) / t)
            worst_lip = max(worst_lip, lip_q - bound)
    return [
        _row("hopflax_triple_transform", 40, worst_triple, 1e-12),
        _row("hopflax_cc_idempotent", 40, worst_ccdef, 1e-12),
        _row("hopflax_lipschitz_bound", 3 * 40, worst_lip, 1e-9),
    ]


def check_intpot(seed: int) -> list:
    rng = _rng(seed, "intpot")
    worst = 0.0
    ts = np.arange(1, 10) / 10.0
    for _ in range(30):
        n = int(rng.integers(3, 11))
        space = inst.random_planar_metric(rng, n)
        phi = inst.random_c_concave(rng, space, scale=0.4)
        for t in ts:
            _, slack = interpolation_duality_check(space, phi, float(t))
            worst = max(worst, -slack)
    # Two-point worked instance: slack must vanish exactly at both points.
    two = inst.path_space(2)
    phi2 = np.array([0.0, -0.3])
    slack2 = (hopf_lax(two, -phi2, 0.5)
              + hopf_lax(two, -c_transform(two, phi2), 0.5))
    return [
        _row("intpot_positivity", 30 * ts.size, worst, 1e-12),
        _row("intpot_two_point_exact", 1, float(np.max(np.abs(slack2))), 0.0),
    ]


def _cutoff_cases(rng: np.random.Generator) -> list:
    cases = [
        (inst.path_space(5), [2], [1, 2, 3], "path5"),
        (inst.path_space(11), [5], list(range(2, 9)), "path11"),
        (inst.grid_space(15, 15),
         [i * 15 + j for i in range(6, 9) for j in range(6, 9)],
         [i * 15 + j for i in range(3, 12) for j in range(3, 12)],
         "grid15"),
    ]
    side = int(rng.integers(7, 10))
    center = side // 2
    cases.append((
        inst.grid_space(side, side),
        [center * side + center],
        [i * side + j for i in range(1, side - 1) for j in range(1, side - 1)],
        "random_grid",
    ))
    return cases


def check_cutoff(seed: int) -> list:
    """Grade :func:`metric.build_cutoff` on the cut-off cases.

    An ObstacleOrderError adds its violation to ``cutoff_phi_le_psi``.  A
    SolverError (unconverged solve) or CertificateError (failed certificate)
    sets ``cutoff_certificate`` to inf and skips the case; the pins are
    measured only by ``cutoff_pins_exact``.  The Laplacian bound
    sup|L(u)| <= ``obstacle_bound`` + tol is no separate row: a passing
    certificate implies it, and a violated one fails the certificate.
    """
    cases = _cutoff_cases(_rng(seed, "cutoff"))
    worst_order = worst_pins = worst_slack = 0.0
    n_built = 0
    for space, core, region, _name in cases:
        try:
            cut = build_cutoff(space, core, region)
        except ObstacleOrderError as err:
            worst_order = max(worst_order, float(err.violation))
            continue
        except (CertificateError, SolverError):
            worst_slack = math.inf
            continue
        n_built += 1
        cert = cut.certificate
        worst_slack = max(worst_slack, -cert.lower_slack_min, -cert.upper_slack_min)
        out = sorted(set(range(space.n)) - set(region))
        worst_pins = max(
            worst_pins,
            float(np.max(np.abs(cut.solution.u[core] - 1.0))),
            float(np.max(np.abs(cut.solution.u[out]))),
        )
    if not n_built:
        worst_pins = worst_slack = math.inf
    return [
        _row("cutoff_phi_le_psi", len(cases), worst_order, 0.0),
        _row("cutoff_pins_exact", n_built, worst_pins, 0.0),
        _row("cutoff_certificate", n_built, worst_slack, 1e-8),
    ]


def check_kantorovich(seed: int) -> list:
    """Grade :func:`metric.kantorovich_regularize` on random potentials.

    An ObstacleOrderError adds its violation to ``kantorovich_lo_le_hi``.  A
    SolverError (unconverged solve) or CertificateError (failed certificate)
    sets ``kantorovich_certificate`` to inf and skips the run; clamping is
    measured only by ``kantorovich_clamping``.
    """
    rng = _rng(seed, "kantorovich")
    space = inst.path_space(21, weight=1.0 / 20.0)
    worst_gap = worst_slack = worst_clamp = worst_cc = 0.0
    ts = (0.25, 0.5, 0.75)
    n_runs = 4 * len(ts)
    for _ in range(4):
        phi = inst.random_c_concave(rng, space, scale=0.2)
        for t in ts:
            try:
                eta, pair, cert = kantorovich_regularize(space, phi, t)
            except ObstacleOrderError as err:
                worst_gap = max(worst_gap, float(err.violation))
                continue
            except (CertificateError, SolverError):
                worst_slack = math.inf
                continue
            worst_slack = max(worst_slack, -cert.lower_slack_min, -cert.upper_slack_min)
            idx = pair.coincidence_set
            if idx.size:
                worst_clamp = max(worst_clamp, float(np.max(np.abs(eta[idx] - pair.lo[idx]))))
            report = coincidence_cc_report(space, pair, eta)
            worst_cc = max(worst_cc, report["derived_minus_t_eta"],
                           report["derived_one_minus_t_eta"])
    return [
        _row("kantorovich_lo_le_hi", n_runs, worst_gap, 1e-12),
        _row("kantorovich_certificate", n_runs, worst_slack, 1e-8),
        _row("kantorovich_clamping", n_runs, worst_clamp, 1e-9),
        _row("kantorovich_cc_derived", n_runs, worst_cc, 1e-8),
    ]


def check_maximum_principle(seed: int) -> list:
    rng = _rng(seed, "maximum_principle")
    worst = 0.0
    for _ in range(20):
        energy, values = inst.random_grid_dirichlet(rng)
        interior = harmonic_extension(energy, values)
        _, overshoot = maximum_principle_check(energy, values, interior)
        worst = max(worst, overshoot)
    return [_row("maximum_principle", 20, worst, 1e-9)]


#: Registered checks in canonical order; each takes only the seed.
CHECKS = {
    "zmatrix": check_zmatrix_equivalence,
    "t_monotonicity": check_t_monotonicity,
    "scalar_sub2": check_scalar_sub2,
    "oracle": check_oracle_equivalence,
    "ls_quadratic": check_ls_quadratic,
    "ls_fractional": check_ls_fractional,
    "psor_monotone": check_psor_monotone,
    "comparison": check_comparison_principle,
    "hopf_lax": check_hopf_lax,
    "intpot": check_intpot,
    "cutoff": check_cutoff,
    "kantorovich": check_kantorovich,
    "maximum_principle": check_maximum_principle,
}


def _run_check(task) -> list:
    """Rows of one check; an ObslatError becomes its ``<name>_error:<Type>`` row.

    ``task`` is ``(name, seed)``: plain values, so that the check is found
    by name in ``CHECKS`` of the process that runs it.
    """
    name, seed = task
    try:
        return CHECKS[name](seed)
    except ObslatError as err:
        return [_row(f"{name}_error:{type(err).__name__}", 0, math.inf, 0.0)]


def run_suite(seed: int = 0, checks=None):
    """Run the selected checks (all by default); returns (rows, all_pass).

    Rows come back sorted by check name.  A selection naming an unknown
    check, or one check twice, raises PreconditionError, naming each such
    name, before any check runs.

    The checks share no state (each seeds its own generator), so they run
    in forked worker processes, one per CPU in the affinity mask and at most
    one per check; a free worker takes the next check in ``CHECKS`` order.
    With one worker, or where the fork start method or the affinity mask is
    missing, they run in this process.  Rows and their order do not depend
    on the worker count.  Fork, not spawn: a forked worker starts with the
    package imported and ``CHECKS`` as the caller left it, where a spawned
    one would import numpy and scipy afresh, at more than most checks cost.
    An exception that is not an ObslatError leaves ``run_suite``; the
    workers are terminated and joined on every exit.
    """
    selected = list(CHECKS) if checks is None else list(checks)
    unknown = [c for c in selected if not (isinstance(c, str) and c in CHECKS)]
    counts = collections.Counter(c for c in selected if isinstance(c, str) and c in CHECKS)
    repeated = sorted(c for c, count in counts.items() if count > 1)
    problems = [f"{what} checks: {names}"
                for what, names in (("unknown", unknown), ("repeated", repeated)) if names]
    if problems:
        raise PreconditionError("; ".join(problems))
    tasks = [(name, seed) for name in sorted(selected, key=list(CHECKS).index)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(tasks))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            per_check = pool.map(_run_check, tasks, chunksize=1)
    else:
        per_check = map(_run_check, tasks)
    rows = [row for check_rows in per_check for row in check_rows]
    rows.sort(key=lambda r: r["check_name"])
    return rows, all(r["pass"] for r in rows)
