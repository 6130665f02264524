"""The benchmark's workloads: inputs made from a seed, ops, and output checks.

Each workload function builds its inputs (the set-up phase) and returns the
fixed list of ops that one round of the timed phase runs.  An op is one
certified answer: one library solve plus its certificate, or one CLI
command.  ``Op.run`` is the timed call into ``obslat``; ``Op.check``
verifies its output from outside and never trusts the solver's own flags
alone: it recomputes ``kkt_residual`` against the op's tolerance and
requires the certificate to pass.

Library calls go through module attributes at call time (``obslat.solve_psor``
and so on), so that spans installed by a traced run see them.

Why these four workloads:

* ``membrane_sweep`` -- PSOR on one 30x30 grid energy; the PSD check runs
  only in set-up.  A solver change moves ``op_p50_s``; a PSD change moves
  only ``setup_s``.
* ``cli_commands`` -- every op rebuilds the metric and the energy, so
  validation dominates.  The only workload for the metric layer, Hopf-Lax,
  JSON output and the dense distance matrix.
* ``fractional_pg`` -- kernel energies and projected gradient only; PSD,
  metric and PSOR are bypassed.  It carries the projected-gradient stall:
  every round ends with the two documented s = 0.75, p = 3 stall instances
  at the fixed budget.  The seed-drawn instances have s <= 0.5, because
  seed-drawn s = 0.75 instances stall at random (about one in twenty), which
  would make a run's length depend on its seed.
* ``suite`` -- many tiny problems, so per-call overhead dominates.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

import obslat
import obslat.cli
import obslat.instances

#: Solver tolerance of the PSOR ops (library and CLI default).
PSOR_TOL = 1e-9

#: Certificate tolerance of the PSOR ops, as ``metric._certified_solve`` uses.
PSOR_CERT_TOL = 1e-8

#: Projected-gradient tolerance and certificate tolerance (as in the suite).
PG_TOL = 1e-8
PG_CERT_TOL = 1e-6

#: Fixed iteration budget of every projected-gradient op.  The seed-drawn
#: instances (s <= 0.5) need at most about 1600 iterations.
PG_BUDGET = 3000

#: Documented projected-gradient stalls: (suite seed, instance index) of the
#: ``ls_certificate_fractional`` suite check.  Both are s = 0.75, p = 3 and
#: freeze at a KKT residual near 1.2e-7 and 1.1e-7, above PG_TOL.
PG_STALLS = ((1, 2), (25, 0))

#: The suite workload's fixed list of suite seeds: 0 to 6 without 1.  Of
#: seeds 0 to 39, seeds 1, 8, 14 and 25 stall in ``ls_certificate_fractional``
#: for 200 000 iterations (about 200 s each); they are left out only for run
#: length, and fractional_pg measures the stall instead.
SUITE_SEEDS = (0, 2, 3, 4, 5, 6)


@dataclass
class Outcome:
    """Verdict of one op's output check.

    ``status`` is ``certified``, ``stall`` (the documented projected-gradient
    stall, verified as such) or ``failed``.  ``problems`` lists wrong outputs;
    any entry makes the run incorrect.
    """

    status: str
    digest: str
    problems: list = field(default_factory=list)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def _bump(points: np.ndarray, centre: np.ndarray, width: float) -> np.ndarray:
    """exp(-|x - c|^2 / width) at each row of ``points``."""
    return np.exp(-np.sum((points - centre) ** 2, axis=-1) / width)


def membrane_box(rng, points: np.ndarray, angle: float):
    """A bump below and a dent above, both binding, on opposite sides of the centre.

    The bump sits at ``angle`` and the dent opposite it, each at a random
    distance from the middle of the unit square.  Callers spread the angles
    of one round evenly from a random start, so that the work of a round
    (PSOR sweeps vary with the obstacle positions) hardly depends on the seed.
    """
    direction = np.array([np.cos(angle), np.sin(angle)])
    r_lo, r_hi = rng.uniform(0.1, 0.2, size=2)
    c_lo, c_hi = 0.5 + r_lo * direction, 0.5 - r_hi * direction
    lo = 0.5 * _bump(points, c_lo, 0.05) - 0.1
    hi = np.maximum(0.4 - 0.6 * _bump(points, c_hi, 0.05), lo + 0.05)
    return lo, hi


def grid_points(side: int, nodes: np.ndarray) -> np.ndarray:
    """Unit-square coordinates of grid nodes (row-major numbering)."""
    return np.column_stack(np.divmod(nodes, side)) / (side - 1)


# --- library ops -----------------------------------------------------------

def _certify(energy, box, sol, cert_tol):
    """The op's answer: (solution, certificate, report), unconverged ones uncertified."""
    if not sol.converged:
        return sol, None, None
    cert = obslat.ls_certificate(energy, box, sol, cert_tol)
    return sol, cert, obslat.certificate_report(energy, box, sol, cert)


def _psor_op(energy, box):
    return _certify(energy, box, obslat.solve_psor(energy, box, tol=PSOR_TOL), PSOR_CERT_TOL)


def _pg_op(energy, box):
    sol = obslat.solve_projected_gradient(energy, box, tol=PG_TOL, max_iter=PG_BUDGET)
    return _certify(energy, box, sol, PG_CERT_TOL)


def _check_library(energy, box, tol, stall_expected, result) -> Outcome:
    sol, cert, report = result
    digest = _digest(sol.u.tobytes(), sol.iterations, sol.converged,
                     json.dumps(report, sort_keys=True))
    problems = []
    kkt = obslat.kkt_residual(energy, box, sol.u)
    if kkt != sol.kkt_residual:
        problems.append(f"recomputed KKT residual {kkt!r} != reported {sol.kkt_residual!r}")
    if not sol.converged:
        if kkt <= tol:
            problems.append(f"unconverged solve already meets tol (KKT {kkt:.3e})")
        return Outcome("stall" if stall_expected else "failed", digest, problems)
    if kkt > tol:
        problems.append(f"converged solve has KKT residual {kkt:.3e} > tol {tol:.1e}")
    if not (cert.passed and report["pass"]):
        problems.append("certificate does not pass")
    return Outcome("failed" if problems else "certified", digest, problems)


def membrane_sweep(rng, workdir: Path, smoke: bool) -> list:
    side, n_boxes = (8, 2) if smoke else (32, 12)
    energy = obslat.graph_dirichlet(side * side, obslat.instances.grid_edges(side, side),
                                    obslat.instances.grid_boundary(side, side))
    points = grid_points(side, energy.free_nodes)
    start = rng.uniform(0.0, 2.0 * np.pi)
    ops = []
    for k in range(n_boxes):
        box = obslat.OrderInterval(*membrane_box(rng, points, start + 2.0 * np.pi * k / n_boxes))
        ops.append(Op(f"psor{k}", lambda box=box: _psor_op(energy, box),
                      lambda r, box=box: _check_library(energy, box, PSOR_TOL, False, r)))
    return ops


def _stall_instance(suite_seed: int, index: int):
    """Instance ``index`` of the suite's ls_certificate_fractional check."""
    rng = np.random.default_rng([suite_seed, zlib.crc32(b"ls_certificate_fractional")])
    for _ in range(index + 1):
        energy, box, _, _ = obslat.instances.random_fractional_instance(rng, n_max=32)
    return energy, box


def fractional_pg(rng, workdir: Path, smoke: bool) -> list:
    sizes, exps, draws = ((16,), (0.5,), 1) if smoke else ((64, 96, 128), (0.25, 0.5), 2)
    ops = []
    for n in sizes:
        x = (np.arange(1, n + 1) / (n + 1))[:, None]
        for s in exps:
            for p in (2.0, 3.0):
                energy = obslat.fractional_kernel_1d(n, 1.0 / (n + 1), s, p, collar=3)
                for k in range(draws):
                    box = obslat.OrderInterval(*_fractional_box(rng, x))
                    ops.append(Op(f"pg_n{n}_s{s}_p{p:g}_{k}", lambda e=energy, b=box: _pg_op(e, b),
                                  lambda r, e=energy, b=box: _check_library(e, b, PG_TOL, False, r)))
    for suite_seed, index in PG_STALLS[:1] if smoke else PG_STALLS:
        energy, box = _stall_instance(suite_seed, index)
        ops.append(Op(f"pg_stall_seed{suite_seed}_{index}",
                      lambda e=energy, b=box: _pg_op(e, b),
                      lambda r, e=energy, b=box: _check_library(e, b, PG_TOL, True, r)))
    return ops


def _fractional_box(rng, x: np.ndarray):
    """A bump below left of the middle and a dent above right of it.

    The narrow ranges keep each op's iteration count within about 10% across
    seeds; with centres anywhere in [0.3, 0.7] it varies threefold.
    """
    c_lo, c_hi = rng.uniform(0.35, 0.45), rng.uniform(0.55, 0.65)
    lo = 0.6 * _bump(x, c_lo, 0.01) - 0.1
    hi = np.maximum(1.0 - 0.8 * _bump(x, c_hi, 0.01), lo + 0.05)
    return lo, hi


# --- CLI ops ---------------------------------------------------------------

class _Laplacian:
    """Reference energy for output checks, built with scipy, not by obslat."""

    def __init__(self, nodes: int, edges, keep=None):
        i, j, w = (np.array(col) for col in zip(*edges))
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([i, j, j, i])
        vals = np.concatenate([w, w, -w, -w])
        lap = sp.coo_matrix((vals, (rows, cols)), shape=(nodes, nodes)).tocsr()
        self.a = lap if keep is None else lap[keep][:, keep]

    def gradient(self, u):
        return self.a @ u


def _cli_op(argv):
    return obslat.cli.main(argv)


def _check_cli_files(code, out: Path, names):
    """Output files of a CLI op, or None; returns (files, problems).

    A nonzero exit code is a failed op, not a wrong output; missing files
    after exit code 0 are a wrong output.
    """
    if code != 0:
        return None, []
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        return None, [f"exit code 0 without {missing}"]
    return [(out / n).read_bytes() for n in names], []


def _certified(files, problems, cert) -> Outcome:
    if not cert["pass"]:
        problems.append("certificate does not pass")
    return Outcome("failed" if problems else "certified", _digest(*files), problems)


def _kkt_problems(energy, lo, hi, u) -> list:
    kkt = obslat.kkt_residual(energy, obslat.OrderInterval(lo, hi), np.asarray(u))
    if kkt > PSOR_TOL:
        return [f"KKT residual {kkt:.3e} > tol {PSOR_TOL:.1e}"]
    return []


def _check_solve(energy, lo, hi, out, code) -> Outcome:
    files, problems = _check_cli_files(code, out, ("solution.json", "certificate.json"))
    if files is None:
        return Outcome("failed", "", problems)
    solution, cert = (json.loads(f) for f in files)
    if not solution["converged"]:
        problems.append("solution.json reports an unconverged solve with exit code 0")
    problems += _kkt_problems(energy, lo, hi, solution["u"])
    return _certified(files, problems, cert)


def _check_cutoff(energy, core, outside, out, code) -> Outcome:
    files, problems = _check_cli_files(code, out, ("cutoff.json", "certificate.json"))
    if files is None:
        return Outcome("failed", "", problems)
    result, cert = (json.loads(f) for f in files)
    omega = np.asarray(result["omega"])
    problems += _kkt_problems(energy, result["phi"], result["psi"], omega)
    if np.any(omega[core] != 1.0) or np.any(omega[outside] != 0.0):
        problems.append("cut-off is not exactly 1 on the core and 0 off the region")
    return _certified(files, problems, cert)


def _check_kantorovich(energy, out, code) -> Outcome:
    files, problems = _check_cli_files(code, out, ("kantorovich.json", "certificate.json"))
    if files is None:
        return Outcome("failed", "", problems)
    result, cert = (json.loads(f) for f in files)
    eta, lo = np.asarray(result["eta"]), np.asarray(result["lo"])
    problems += _kkt_problems(energy, lo, result["hi"], eta)
    idx = result["coincidence_set"]
    if idx and np.max(np.abs(eta[idx] - lo[idx])) > 1e-9:
        problems.append("potential does not clamp on the coincidence set")
    return _certified(files, problems, cert)


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _solve_op(rng, workdir: Path, side: int, angle: float) -> Op:
    nodes, edges = side * side, obslat.instances.grid_edges(side, side)
    ring = obslat.instances.grid_boundary(side, side)
    free = np.setdiff1d(np.arange(nodes), ring)
    lo, hi = membrane_box(rng, grid_points(side, free), angle)
    cfg = _write_config(workdir / f"solve_{side}.json", {
        "energy": {"kind": "graph", "nodes": nodes,
                   "edges": [list(e) for e in edges], "dirichlet": ring},
        "box": {"lo": lo.tolist(), "hi": hi.tolist()},
    })
    out = workdir / f"solve_{side}"
    energy = _Laplacian(nodes, edges, free)
    return Op(f"solve_{side}x{side}",
              lambda: _cli_op(["solve", "--config", cfg, "--out", str(out)]),
              lambda code: _check_solve(energy, lo, hi, out, code))


def _cutoff_op(rng, workdir: Path, side: int) -> Op:
    """Core: a 3x3 block at a random centre; region: the block of half-width side // 4."""
    nodes, edges = side * side, obslat.instances.grid_edges(side, side)
    half = side // 4
    ci, cj = rng.integers(half + 1, side - half - 1, size=2)
    ii, jj = np.divmod(np.arange(nodes), side)
    dist = np.maximum(np.abs(ii - ci), np.abs(jj - cj))
    core, outside = np.flatnonzero(dist <= 1), np.flatnonzero(dist > half)
    cfg = _write_config(workdir / f"cutoff_{side}.json", {
        "graph": {"nodes": nodes, "edges": [list(e) for e in edges]},
        "core": core.tolist(), "region": np.flatnonzero(dist <= half).tolist(),
    })
    out = workdir / f"cutoff_{side}"
    energy = _Laplacian(nodes, edges)
    return Op(f"cutoff_{side}x{side}",
              lambda: _cli_op(["cutoff", "--config", cfg, "--out", str(out)]),
              lambda code: _check_cutoff(energy, core, outside, out, code))


def _kantorovich_op(rng, workdir: Path, side: int) -> Op:
    """Unit-square grid, uniform noise as potential (made c-concave by the CLI)."""
    nodes, h = side * side, 1.0 / (side - 1)
    edges = [(i, j, h) for i, j, _ in obslat.instances.grid_edges(side, side)]
    cfg = _write_config(workdir / f"kantorovich_{side}.json", {
        "graph": {"nodes": nodes, "edges": [list(e) for e in edges]},
        "potential": rng.uniform(-0.2, 0.2, size=nodes).tolist(),
        "t": float(rng.uniform(0.4, 0.6)), "cc_regularize": True,
    })
    out = workdir / f"kantorovich_{side}"
    energy = _Laplacian(nodes, edges)
    return Op(f"kantorovich_{side}x{side}",
              lambda: _cli_op(["kantorovich", "--config", cfg, "--out", str(out)]),
              lambda code: _check_kantorovich(energy, out, code))


#: Grid sides of the CLI ops, a ladder from 20x20 to 32x32.  Which command
#: runs at which side is chosen so that op_tail_s (the 14th of 24 op times)
#: lands inside the group of ops near 1.2 s rather than on the gap below it,
#: where run-to-run noise would flip it between the two groups.
CLI_LADDER = {"solve": (24, 28, 32), "cutoff": (20, 24, 28, 30, 32),
              "kantorovich": (20, 24, 28, 32)}


def cli_commands(rng, workdir: Path, smoke: bool) -> list:
    ladder = {command: (10,) for command in CLI_LADDER} if smoke else CLI_LADDER
    start = rng.uniform(0.0, 2.0 * np.pi)
    ops = []
    for side in sorted(set().union(*ladder.values())):
        if side in ladder["solve"]:
            k = ladder["solve"].index(side)
            ops.append(_solve_op(rng, workdir, side,
                                 start + 2.0 * np.pi * k / len(ladder["solve"])))
        if side in ladder["cutoff"]:
            ops.append(_cutoff_op(rng, workdir, side))
        if side in ladder["kantorovich"]:
            ops.append(_kantorovich_op(rng, workdir, side))
    return ops


def _check_suite(out: Path, code) -> Outcome:
    files, problems = _check_cli_files(code, out, ("suite.csv", "suite_summary.json"))
    if files is None:
        return Outcome("failed", "", problems)
    rows = files[0].decode("utf-8").splitlines()[1:]
    summary = json.loads(files[1])
    if not summary["all_pass"] or summary["n_rows"] != len(rows):
        problems.append("suite summary disagrees with an all-pass CSV")
    if any(not row.endswith(",True") for row in rows):
        problems.append("a suite row fails")
    return Outcome("failed" if problems else "certified", _digest(*files), problems)


def suite(rng, workdir: Path, smoke: bool) -> list:
    """The fixed suite seeds, in an order drawn from the benchmark seed."""
    seeds = rng.permutation(SUITE_SEEDS[:1] if smoke else SUITE_SEEDS)
    ops = []
    for seed in seeds.tolist():
        out = workdir / f"suite_{seed}"
        ops.append(Op(f"suite_seed{seed}",
                      lambda seed=seed, out=out: _cli_op(["suite", "--seed", str(seed),
                                                          "--out", str(out)]),
                      lambda code, out=out: _check_suite(out, code)))
    return ops


WORKLOADS = {
    "membrane_sweep": membrane_sweep,
    "cli_commands": cli_commands,
    "fractional_pg": fractional_pg,
    "suite": suite,
}
