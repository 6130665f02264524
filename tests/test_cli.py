import copy
import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obslat.cli
import obslat.energies
import obslat.errors
from obslat.cli import main
from obslat.instances import grid_edges

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

TRIDIAG_CONFIG = {
    "energy": {
        "kind": "quadratic",
        "n": 3,
        "triplets": [[0, 0, 2.0], [1, 1, 2.0], [2, 2, 2.0],
                     [0, 1, -1.0], [1, 0, -1.0], [1, 2, -1.0], [2, 1, -1.0]],
    },
    "box": {"lo": [0.5, 1.0, 0.5], "hi": 10.0},
}


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_golden_instance(tmp_path):
    cfg = write_config(tmp_path, TRIDIAG_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    solution = json.loads((out / "solution.json").read_text())
    assert solution["converged"] is True
    assert np.allclose(solution["u"], [0.5, 1.0, 0.5], atol=1e-9)
    assert solution["active_lower"] == [0, 1, 2]
    certificate = json.loads((out / "certificate.json").read_text())
    assert certificate["pass"] is True
    assert certificate["sup_laplacian"] == 1.0


def test_solve_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_solve_missing_config(tmp_path):
    assert main(["solve", "--out", str(tmp_path)]) == 2
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_solve_bad_schema(tmp_path):
    cfg = write_config(tmp_path, {"energy": {"kind": "warp-drive"}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg2 = write_config(tmp_path, {
        "energy": {"kind": "quadratic", "n": 2,
                   "triplets": [[0, 0, 1.0], [1, 1, 1.0], [0, 1, 0.7]]},
    }, "asym.json")
    assert main(["solve", "--config", cfg2, "--out", str(tmp_path)]) == 2
    cfg3 = write_config(tmp_path, {
        "energy": {"kind": "graph", "nodes": 3, "dirichlet": [0],
                   "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 1, 1.0]]},
        "box": {"lo": 0.0, "hi": 1.0},
    }, "repeated_edge.json")
    assert main(["solve", "--config", cfg3, "--out", str(tmp_path)]) == 2
    cfg3b = write_config(tmp_path, {
        "energy": {"kind": "kernel", "n": 3, "p": 2.0,
                   "pairs": [[0, 1, 1.0], [1, 2, 1.0], [0, 1, 2.0]]},
        "box": {"lo": 0.0, "hi": 1.0},
    }, "repeated_pair.json")
    assert main(["solve", "--config", cfg3b, "--out", str(tmp_path)]) == 2
    for weight in (float("nan"), float("inf")):  # JSON NaN and Infinity
        cfg3c = write_config(tmp_path, {
            "energy": {"kind": "kernel", "n": 3, "p": 2.0,
                       "pairs": [[0, 1, 1.0], [1, 2, weight]]},
            "box": {"lo": 0.0, "hi": 1.0},
        }, "nonfinite_pair.json")
        assert main(["solve", "--config", cfg3c, "--out", str(tmp_path)]) == 2
    # an integer too large for a float is invalid input, not a crash
    cfg3d = write_config(tmp_path, {
        "energy": {"kind": "graph", "nodes": 3, "dirichlet": [0],
                   "edges": [[0, 1, 1.0], [1, 2, 10**400]]},
        "box": {"lo": 0.0, "hi": 1.0},
    }, "overflow_weight.json")
    assert main(["solve", "--config", cfg3d, "--out", str(tmp_path)]) == 2
    cfg3e = write_config(tmp_path, {
        "graph": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 10**400, 1.0]]},
        "core": [1], "region": [0, 1, 2],
    }, "overflow_index.json")
    assert main(["cutoff", "--config", cfg3e, "--out", str(tmp_path)]) == 2
    # malformed solver values are config errors in every command
    cfg4 = write_config(tmp_path, dict(TRIDIAG_CONFIG, solver={"max_iter": "abc"}),
                        "max_iter.json")
    assert main(["solve", "--config", cfg4, "--out", str(tmp_path)]) == 2
    cfg5 = write_config(tmp_path, dict(TRIDIAG_CONFIG,
                                       solver={"method": "psor", "omega": "x"}),
                        "omega.json")
    assert main(["solve", "--config", cfg5, "--out", str(tmp_path)]) == 2
    # a solver key no command reads is an error, not ignored
    cfg5b = write_config(tmp_path, dict(TRIDIAG_CONFIG, solver={"omega": 1.2}),
                         "omega_only.json")
    assert main(["solve", "--config", cfg5b, "--out", str(tmp_path)]) == 2
    cfg6 = write_config(tmp_path, {
        "graph": {"nodes": 5, "edges": [[i, i + 1, 1.0] for i in range(4)]},
        "core": [2], "region": [1, 2, 3], "certificate_tol": "abc",
    }, "certificate_tol.json")
    assert main(["cutoff", "--config", cfg6, "--out", str(tmp_path)]) == 2
    # solver settings that parse but no solve can honour
    for name, settings in [("tol_nan", {"solver": {"tol": float("nan")}}),
                           ("tol_negative", {"solver": {"tol": -1}}),
                           ("tol_overflow", {"solver": {"tol": 10**400}}),
                           ("max_iter_negative", {"solver": {"max_iter": -3}}),
                           ("certificate_tol_nan", {"certificate_tol": float("nan")}),
                           ("certificate_tol_inf", {"certificate_tol": float("inf")})]:
        out = tmp_path / name
        cfg7 = write_config(tmp_path, dict(TRIDIAG_CONFIG, **settings), f"{name}.json")
        assert main(["solve", "--config", cfg7, "--out", str(out)]) == 2, name
        assert not (out / "solution.json").exists(), name
    cfg8 = write_config(tmp_path, TRIDIAG_CONFIG, "tridiag.json")
    assert main(["solve", "--config", cfg8, "--out", str(tmp_path), "--tol", "-1"]) == 2
    assert main(["solve", "--config", cfg8, "--out", str(tmp_path), "--tol", "nan"]) == 2
    # a --out that cannot be a directory
    (tmp_path / "a_file").write_text("")
    assert main(["solve", "--config", cfg8, "--out", str(tmp_path / "a_file")]) == 2


#: The exit code that the module docstring of obslat.cli documents for each package error.
_EXIT_CODES = {"ConstructionError": 2, "DimensionMismatch": 2, "PreconditionError": 2,
               "SolverError": 3, "CertificateError": 4, "ObstacleOrderError": 4}


def test_every_package_error_exits_with_its_documented_code(tmp_path, monkeypatch):
    # a new error class without an exit code of its own escapes main as a traceback
    errors = {name: cls for name, cls in vars(obslat.errors).items() if isinstance(cls, type)
              and issubclass(cls, obslat.errors.ObslatError) and cls is not obslat.errors.ObslatError}
    assert sorted(errors) == sorted(_EXIT_CODES)
    config = write_config(tmp_path, TRIDIAG_CONFIG)
    for name, cls in errors.items():
        def raise_error(args, cls=cls):
            raise cls(f"{cls.__name__} raised by the test")
        monkeypatch.setattr(obslat.cli, "cmd_solve", raise_error)
        assert main(["solve", "--config", config, "--out", str(tmp_path)]) == _EXIT_CODES[name], name


def test_every_exported_name_resolves():
    assert [name for name in obslat.__all__ if not hasattr(obslat, name)] == []


def test_solve_single_point_fractional_kernel(tmp_path):
    # n = 1 has no pairs; its gradient once failed on numpy's int64 bincount
    cfg = {"energy": {"kind": "fractional_1d", "n": 1, "h": 0.5, "s": 0.5, "p": 3.0,
                      "collar": 2},
           "box": {"lo": 0.1, "hi": 1.0}}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert json.loads((out / "solution.json").read_text())["u"] == [0.1]
    assert json.loads((out / "certificate.json").read_text())["pass"] is True


def test_solve_refuses_dense_psd_check_above_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(obslat.energies, "PSD_DENSE_MAX_N", 3)
    # two 3x3 all-ones blocks: PSD, not diagonally dominant, n = 6 above the cap
    blocks = [[3 * k + i, 3 * k + j, 1.0] for k in range(2) for i in range(3) for j in range(3)]
    cfg = {"energy": {"kind": "quadratic", "n": 6, "triplets": blocks},
           "box": {"lo": 0.0, "hi": 1.0}}
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "PSD_DENSE_MAX_N = 3" in capsys.readouterr().err
    # the all-pairs fractional kernel is refused before any array is built:
    # 100000 points would ask for 9.3 GiB of pair indices, 10**400 for a list
    # without end; the child's address space is capped in case that returns
    env = dict(_env_with_src(), OPENBLAS_NUM_THREADS="1")
    cap = (resource.RLIMIT_AS, (2**31, 2**31))
    for n in (100000, 10**400):
        cfg = {"energy": {"kind": "fractional_1d", "n": n, "h": 0.5, "s": 0.5, "p": 3.0,
                          "collar": 2},
               "box": {"lo": 0.0, "hi": 1.0}}
        path = write_config(tmp_path, cfg, "fractional.json")
        proc = subprocess.run([sys.executable, "-m", "obslat.cli", "solve", "--config", path,
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(*cap))
        assert proc.returncode == 2, proc.stderr
        assert f"FRACTIONAL_1D_MAX_N = {obslat.energies.FRACTIONAL_1D_MAX_N}" in proc.stderr


def test_solve_refuses_fractional_collar_above_cap(tmp_path):
    # the exterior weights are summed point by point over the collar: 10**9
    # points would take hours and 10**400 would never end
    env = _env_with_src()
    for collar in (10**9, 10**400):
        cfg = {"energy": {"kind": "fractional_1d", "n": 8, "h": 0.125, "s": 0.5, "p": 3.0,
                          "collar": collar},
               "box": {"lo": 0.0, "hi": 1.0}}
        path = write_config(tmp_path, cfg, "fractional.json")
        proc = subprocess.run([sys.executable, "-m", "obslat.cli", "solve", "--config", path,
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert f"FRACTIONAL_1D_MAX_COLLAR = {obslat.energies.FRACTIONAL_1D_MAX_COLLAR}" in proc.stderr


def _path_laplacian_triplets(n):
    triplets = []
    for i in range(n - 1):
        triplets += [[i, i, 1.0], [i + 1, i + 1, 1.0], [i, i + 1, -1.0], [i + 1, i, -1.0]]
    return triplets


def _singular_hessian_config(name):
    n = 20
    if name.startswith("path"):
        if name == "path_mean_zero_b":
            lin = np.sin(np.arange(n)) - np.mean(np.sin(np.arange(n)))
        else:
            lin = np.linspace(-1.0, 1.5, n)
        return {"energy": {"kind": "quadratic", "n": n, "triplets": _path_laplacian_triplets(n),
                           "b": lin.tolist()},
                "box": {"lo": -100.0, "hi": 100.0}}
    rng = np.random.default_rng(3)
    pairs = [[i, i + 1, 1.0 + 0.5 * float(rng.random())] for i in range(n - 1)]
    lo, hi = [-10.0] * n, [10.0] * n
    lo[0], hi[0] = 1.0, 2.0
    p = 2.0
    if name == "kernel_p3_two_anchors":
        lo[n - 1], hi[n - 1] = -3.0, -0.5
        p = 3.0
    return {"energy": {"kind": "kernel", "n": n, "p": p, "pairs": pairs, "exterior": []},
            "box": {"lo": lo, "hi": hi}}


@pytest.mark.parametrize("name", ["path_mean_zero_b", "path_linear_b",
                                  "kernel_p2_one_anchor", "kernel_p3_two_anchors"])
def test_solve_default_on_singular_hessian(tmp_path, name):
    # Energies whose Hessian is singular on the constants (a full path
    # Laplacian with a linear term in a loose box, kernels without exterior
    # weights): the default method converges and certifies
    path = write_config(tmp_path, _singular_hessian_config(name))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "solution.json").read_text())["converged"] is True
    assert json.loads((out / "certificate.json").read_text())["pass"] is True


def test_solve_forced_nonconvergence(tmp_path):
    # the full solve of this instance takes 10 Newton steps; after one the
    # KKT residual is still 1.0
    cfg = dict(_singular_hessian_config("path_linear_b"), solver={"max_iter": 1})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 3
    solution = json.loads((out / "solution.json").read_text())
    assert solution["converged"] is False
    assert not (out / "certificate.json").exists()


def test_oracle_matches_solve(tmp_path):
    cfg = write_config(tmp_path, TRIDIAG_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["oracle", "--config", cfg, "--out", str(out_b)]) == 0
    ua = json.loads((out_a / "solution.json").read_text())["u"]
    ub = json.loads((out_b / "solution.json").read_text())["u"]
    assert np.max(np.abs(np.array(ua) - np.array(ub))) <= 1e-7


def test_oracle_refuses_large_instances(tmp_path):
    cfg = {
        "energy": {"kind": "quadratic", "n": 13,
                   "triplets": [[i, i, 1.0] for i in range(13)]},
        "box": {"lo": 0.0, "hi": 1.0},
    }
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--out", str(tmp_path)]) == 3


def test_solve_fractional_kernel(tmp_path):
    cfg = {
        "energy": {"kind": "fractional_1d", "n": 8, "h": 0.125, "s": 0.5,
                   "p": 3.0, "collar": 2},
        "box": {"lo": 0.1, "hi": 1.0},
        "solver": {"tol": 1e-9},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    certificate = json.loads((out / "certificate.json").read_text())
    assert certificate["pass"] is True


def test_quadratic_file_energy(tmp_path):
    # the matrix of TRIDIAG_CONFIG as triplet text
    matrix_path = tmp_path / "matrix.txt"
    matrix_path.write_text("3 7\n0 0 2.0\n0 1 -1.0\n1 0 -1.0\n1 1 2.0\n"
                           "1 2 -1.0\n2 1 -1.0\n2 2 2.0\n")
    cfg = {
        "energy": {"kind": "quadratic_file", "path": str(matrix_path)},
        "box": {"lo": [0.5, 1.0, 0.5], "hi": 10.0},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0


def test_cutoff_command(tmp_path):
    cfg = {
        "graph": {"nodes": 11, "edges": [[i, i + 1, 1.0] for i in range(10)]},
        "core": [5],
        "region": list(range(2, 9)),
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["cutoff", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "cutoff.json").read_text())
    omega = np.array(payload["omega"])
    assert omega[5] == 1.0
    assert np.all(omega[[0, 1, 9, 10]] == 0.0)
    assert main(["cutoff", "--config", path, "--out", str(out),
                 "--paper-radius"]) == 4


def test_kantorovich_command(tmp_path):
    cfg = {
        "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
        "potential": [0.0, -0.3],
        "t": 0.5,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["kantorovich", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "kantorovich.json").read_text())
    assert np.allclose(payload["eta"], [0.0, -0.3], atol=0)
    assert payload["coincidence_set"] == [0, 1]
    cfg["potential"] = [0.0, 10.0]
    path2 = write_config(tmp_path, cfg, "bad_potential.json")
    assert main(["kantorovich", "--config", path2, "--out", str(out)]) == 2


@pytest.mark.parametrize("method", ["warp-drive", "projected_gradient", "psor"])
def test_cutoff_and_kantorovich_run_newton_only(tmp_path, method):
    # solve and oracle as well: every command rejects a method but newton
    solver = {"method": method}
    graph = {"nodes": 5, "edges": [[i, i + 1, 1.0] for i in range(4)]}
    configs = {
        "solve": dict(TRIDIAG_CONFIG, solver=solver),
        "oracle": dict(TRIDIAG_CONFIG, solver=solver),
        "cutoff": {"graph": graph, "core": [2], "region": [1, 2, 3], "solver": solver},
        "kantorovich": {"graph": graph, "potential": [0.0] * 5, "t": 0.5, "solver": solver},
    }
    for command, cfg in configs.items():
        path = write_config(tmp_path, cfg, f"{command}.json")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2, command


def _grid_cutoff_config():
    return {
        "graph": {"nodes": 144, "edges": grid_edges(12, 12)},
        "core": [65, 66, 77, 78],
        "region": [12 * r + c for r in range(2, 10) for c in range(2, 10)],
    }


def test_constructions_exit_3_when_unconverged(tmp_path):
    # both need more than one Newton step on these 12x12 grids
    potential = np.random.default_rng(0).uniform(-3.0, 3.0, 144).tolist()
    configs = {
        "cutoff": _grid_cutoff_config(),
        "kantorovich": {"graph": {"nodes": 144, "edges": grid_edges(12, 12)},
                        "potential": potential, "t": 0.5, "cc_regularize": True},
    }
    for command, cfg in configs.items():
        path = write_config(tmp_path, dict(cfg, solver={"max_iter": 1}), f"{command}.json")
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 3, command
        assert not (out / f"{command}.json").exists()
        assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("argv", [
    ["suite", "--tol", "1e-3"],
    ["solve", "--seed", "1"],
    ["kantorovich", "--paper-radius"],
])
def test_commands_reject_flags_they_do_not_read(tmp_path, argv):
    env = _env_with_src()
    proc = subprocess.run([sys.executable, "-m", "obslat.cli", *argv, "--out", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments" in proc.stderr
    assert list(tmp_path.iterdir()) == []
    # in process the parse error is a return value, like every other config error
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_help_returns_zero(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--tol" in capsys.readouterr().out


def test_cutoff_certificate_tol_follows_solver_tol(tmp_path):
    # the default certificate tolerance is 10 * tol in every command
    cfg = write_config(tmp_path, _grid_cutoff_config())
    out = tmp_path / "out"
    assert main(["cutoff", "--config", cfg, "--out", str(out), "--tol", "1e-12"]) == 0
    certificate = json.loads((out / "certificate.json").read_text())
    assert certificate["tol"] == 1e-11
    assert certificate["pass"] is True


def test_suite_empty_selection(tmp_path):
    cfg = write_config(tmp_path, {"checks": []})
    out = tmp_path / "out"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "suite.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["check_name", "n_instances", "worst_value", "threshold", "pass"]]


def test_suite_unknown_check(tmp_path):
    cfg = write_config(tmp_path, {"checks": ["nonsense"]})
    assert main(["suite", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_suite_negative_seed(tmp_path):
    out = tmp_path / "out"
    assert main(["suite", "--seed", "-1", "--out", str(out)]) == 2
    cfg = write_config(tmp_path, {"seed": -1, "checks": ["zmatrix"]})
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_suite_single_check_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg = write_config(tmp_path, {"checks": ["lattice", "zmatrix"]})
    assert main(["suite", "--config", cfg, "--seed", "3", "--out", str(out1)]) == 0
    assert main(["suite", "--config", cfg, "--seed", "3", "--out", str(out2)]) == 0
    assert (out1 / "suite.csv").read_bytes() == (out2 / "suite.csv").read_bytes()
    summary = json.loads((out1 / "suite_summary.json").read_text())
    assert summary["seed"] == 3 and summary["all_pass"] is True


def test_suite_paper_radius_fails(tmp_path):
    cfg = write_config(tmp_path, {"checks": ["cutoff"]})
    out = tmp_path / "out"
    assert main(["suite", "--config", cfg, "--out", str(out), "--paper-radius"]) == 1
    with open(out / "suite.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    assert rows["cutoff_phi_le_psi"][4] == "False"
    assert float(rows["cutoff_phi_le_psi"][2]) == pytest.approx(0.5)


@pytest.mark.parametrize("golden, cfg, flags", [
    ("suite_seed0.csv", {}, []),
    ("suite_seed0_paper_radius_cutoff.csv", {"checks": ["cutoff"]}, ["--paper-radius"]),
], ids=["seed0", "seed0_paper_radius"])
def test_suite_matches_golden(tmp_path, golden, cfg, flags):
    """Seed-0 suite rows match the recorded suite.csv.

    The goldens are the suite.csv of ``obslat suite --seed 0`` and of the
    cutoff check alone with ``--paper-radius``.  Names, counts, thresholds
    and verdicts must match exactly; worst values to 1e-12 (relative or
    absolute), so other BLAS builds still pass.
    """
    code = main(["suite", "--seed", "0", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path), *flags])
    with open(GOLDEN / golden, newline="") as fh:
        expected = list(csv.DictReader(fh))
    with open(tmp_path / "suite.csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    assert code == (0 if all(r["pass"] == "True" for r in expected) else 1)
    exact = ("check_name", "n_instances", "threshold", "pass")
    assert [[r[k] for k in exact] for r in got] == [[r[k] for k in exact] for r in expected]
    for g, e in zip(got, expected):
        assert float(g["worst_value"]) == pytest.approx(
            float(e["worst_value"]), rel=1e-12, abs=1e-12), g["check_name"]


def test_goldens_regenerate_byte_for_byte(tmp_path):
    """generate.py, with its L-BFGS-B and enumeration cross-checks, rewrites every golden."""
    env = _env_with_src()
    proc = subprocess.run([sys.executable, str(GOLDEN / "generate.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("seed", [1, 8, 14, 25])
def test_suite_passes_on_former_stall_seeds(tmp_path, seed):
    # projected gradient stalled on s = 0.75 kernel instances of these seeds
    assert main(["suite", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "suite_summary.json").read_text())
    assert summary["all_pass"] is True and summary["failed_checks"] == []


_PATH5 = [[i, i + 1, 1.0] for i in range(4)]
#: One valid config per command; the sweep corrupts one value of each at a time.
SWEEP_BASES = {
    "solve_graph": ("solve", {
        "energy": {"kind": "graph", "nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                   "dirichlet": [0]},
        "box": {"lo": 0.0, "hi": [1.0, 1.0]},
        "solver": {"method": "newton", "tol": 1e-9, "max_iter": 100},
        "certificate_tol": 1e-8,
    }),
    "solve_kernel": ("solve", {
        "energy": {"kind": "kernel", "n": 3, "p": 3.0, "pairs": [[0, 1, 1.0], [1, 2, 1.0]],
                   "exterior": [[0, 1.0]]},
        "box": {"lo": 0.0, "hi": 1.0},
    }),
    "cutoff": ("cutoff", {
        "graph": {"nodes": 5, "edges": _PATH5},
        "core": [2], "region": [1, 2, 3], "paper_radius": False,
        "solver": {"max_iter": 100},
    }),
    "kantorovich": ("kantorovich", {
        "graph": {"nodes": 5, "edges": _PATH5},
        "potential": [0.0, -0.1, 0.0, -0.1, 0.0], "t": 0.5,
    }),
    "suite": ("suite", {"checks": ["zmatrix"], "seed": 0}),
}
SWEEP_VALUES = ["x", [], None, 10**400, -1, float("nan")]


def _value_paths(obj, prefix=()):
    """The path of every dict value and of the first element of every list."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list) and obj:
        items = [(0, obj[0])]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def _replaced(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


@pytest.mark.parametrize("base", list(SWEEP_BASES))
def test_config_mutation_sweep_exits_with_documented_codes(tmp_path, base):
    """No one-value corruption of a valid config escapes main as a traceback."""
    command, cfg = SWEEP_BASES[base]
    allowed = {0, 1, 2} if command == "suite" else {0, 2, 3, 4}
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "base")]) == 0
    bad = []
    for path in _value_paths(cfg):
        for value in SWEEP_VALUES:
            config = write_config(tmp_path, _replaced(cfg, path, value), "mutant.json")
            try:
                code = main([command, "--config", config, "--out", str(tmp_path / "out")])
            except Exception as err:  # the sweep reports every escape, not the first
                bad.append((path, value, type(err).__name__))
            else:
                if code not in allowed:
                    bad.append((path, value, code))
    assert bad == []


@pytest.mark.parametrize("base, path, value", [
    ("cutoff", ("paper_radius",), "false"),
    ("kantorovich", ("cc_regularize",), "false"),
    ("cutoff", ("core",), "2"),
    ("cutoff", ("region",), "123"),
    ("solve_graph", ("energy", "dirichlet"), "0"),
], ids=["paper_radius", "cc_regularize", "core", "region", "dirichlet"])
def test_flags_and_index_lists_take_only_json_booleans_and_arrays(tmp_path, base, path, value):
    # each string would pass as a flag under bool(...) or as indices when iterated
    command, cfg = SWEEP_BASES[base]
    out = tmp_path / "out"
    config = write_config(tmp_path, _replaced(cfg, path, value))
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert not out.exists()


_PATH5_FRACTIONAL = [[0, 1.9, 1.0], *_PATH5[1:]]
_PATH5_STRING = [_PATH5[0], [1, "2", 1.0], *_PATH5[2:]]


@pytest.mark.parametrize("base, changes", [
    ("cutoff", {("core",): [2.7], ("region",): [1, "2", 3.9]}),
    ("cutoff", {("core",): [2.7]}),
    ("cutoff", {("region",): [1, "2", 3]}),
    ("cutoff", {("graph", "edges"): _PATH5_FRACTIONAL}),
    ("cutoff", {("graph", "edges"): _PATH5_STRING}),
    ("kantorovich", {("graph", "edges"): _PATH5_STRING}),
    ("solve_graph", {("energy", "dirichlet"): [0.5]}),
    ("solve_graph", {("energy", "edges"): [[0, 1, 1.0], [1.5, 2, 1.0]]}),
    ("solve_kernel", {("energy", "pairs"): [[0, "1", 1.0], [1, 2, 1.0]]}),
    ("solve_kernel", {("energy", "exterior"): [[0.5, 1.0]]}),
    ("solve_kernel", {("energy", "exterior"): [["0", 1.0]]}),
], ids=["core_and_region", "core", "region", "edge_fraction", "edge_string", "kantorovich_edge",
        "dirichlet", "energy_edge", "pair_string", "exterior_fraction", "exterior_string"])
def test_fractional_or_string_indices_exit_2(tmp_path, base, changes):
    # int(...) used to truncate 2.7 to 2 and parse "2" as 2, and the command exited 0
    command, cfg = SWEEP_BASES[base]
    for path, value in changes.items():
        cfg = _replaced(cfg, path, value)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2


def test_integral_float_indices_read_as_ints(tmp_path):
    command, cfg = SWEEP_BASES["cutoff"]
    floats = _replaced(_replaced(cfg, ("core",), [2.0]), ("region",), [1.0, 2, 3.0])
    floats = _replaced(floats, ("graph", "edges"), [[float(i), float(j), w] for i, j, w in _PATH5])
    for name, c in (("ints", cfg), ("floats", floats)):
        config = write_config(tmp_path, c, f"{name}.json")
        assert main([command, "--config", config, "--out", str(tmp_path / name)]) == 0
    for name in ("cutoff.json", "certificate.json"):
        assert (tmp_path / "ints" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()


_FRACTIONAL = {"energy": {"kind": "fractional_1d", "n": 8, "h": 0.125, "s": 0.5, "p": 3.0,
                          "collar": 2},
               "box": {"lo": 0.1, "hi": 1.0}}
_STRICT_BASES = {**SWEEP_BASES, "solve_quadratic": ("solve", TRIDIAG_CONFIG),
                 "solve_fractional": ("solve", _FRACTIONAL)}


_STRICT_CASES = [
    ("cutoff", ("graph", "nodes"), 5.9),
    ("solve_graph", ("energy", "nodes"), 3.9),
    ("solve_quadratic", ("energy", "n"), 3.7),
    ("solve_kernel", ("energy", "n"), 3.5),
    ("solve_fractional", ("energy", "n"), 8.7),
    ("solve_fractional", ("energy", "collar"), 2.9),
    ("cutoff", ("solver", "max_iter"), 100.5),
    ("suite", ("seed",), 2.5),
    ("solve_graph", ("solver", "tol"), "1e-9"),
    ("solve_graph", ("certificate_tol",), "1e-8"),
    ("solve_graph", ("solver", "max_iter"), "100"),
    ("solve_fractional", ("energy", "h"), "0.125"),
    ("solve_fractional", ("energy", "s"), "0.5"),
    ("solve_fractional", ("energy", "p"), "3"),
    ("solve_kernel", ("energy", "p"), "3"),
    ("solve_quadratic", ("box", "lo"), ["0.5", "1.0", "0.5"]),
    ("solve_graph", ("box", "hi"), ["1", 1.0]),
    ("solve_quadratic", ("energy", "b"), ["1", "0", "0"]),
    ("solve_quadratic", ("energy", "triplets"),
     [[0, 0, "2.0"], *TRIDIAG_CONFIG["energy"]["triplets"][1:]]),
    ("solve_kernel", ("energy", "exterior"), [[0, "1.0"]]),
    ("kantorovich", ("t",), "0.5"),
    ("kantorovich", ("potential",), ["0.0", -0.1, 0.0, -0.1, 0.0]),
    ("solve_fractional", ("energy", "h"), True),
    ("solve_fractional", ("energy", "collar"), True),
    ("solve_fractional", ("solver",), {"max_iter": True}),
    ("solve_graph", ("box",), {"lo": False, "hi": True}),
    ("solve_graph", ("energy", "edges"), [[0, True, 1.0], [1, 2, 1.0]]),
    ("suite", ("seed",), True),
]


def test_solve_kernels_below_p_two(tmp_path):
    # projected Newton takes a model Hessian below p = 2, and used to exit 3
    cfg = _replaced(_FRACTIONAL, ("energy", "p"), 1.5)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert json.loads((out / "solution.json").read_text())["converged"] is True
    assert json.loads((out / "certificate.json").read_text())["pass"] is True


def test_solve_refuses_overflowing_exterior_sum(tmp_path):
    # two finite entries sum to d_0 = inf: the solve used to write "grad":
    # [Infinity, 0.0] and "upper_slack_min": NaN, which is not JSON, and exit 4
    cfg = {"energy": {"kind": "kernel", "n": 2, "p": 2.0, "pairs": [[0, 1, 1.0]],
                      "exterior": [[0, 1e308], [0, 1e308]]},
           "box": {"lo": 0.1, "hi": 1.0}}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_true_and_false_inside_strings_are_text(tmp_path):
    # the rule counts true and false literals, and a string holds none; the
    # string is a file path, the one free-text value of a config
    matrix = tmp_path / 'true, "false\\" and \\"true".txt'
    triplets = TRIDIAG_CONFIG["energy"]["triplets"]
    matrix.write_text(f"3 {len(triplets)}\n" + "".join(f"{i} {j} {v}\n" for i, j, v in triplets))
    cfg = dict(TRIDIAG_CONFIG, energy={"kind": "quadratic_file", "path": str(matrix)})
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0


_UNKNOWN_KEY_CASES = [
    ("solve", "solve_graph", (), "certifcate_tol"),
    ("solve", "solve_graph", ("energy",), "colar"),
    ("solve", "solve_graph", ("box",), "hj"),
    ("solve", "solve_kernel", ("energy",), "collar"),
    ("oracle", "solve_graph", (), "solvr"),
    ("cutoff", "cutoff", (), "radius"),
    ("cutoff", "cutoff", ("graph",), "weights"),
    ("kantorovich", "kantorovich", (), "tt"),
    ("suite", "suite", (), "sed"),
]


@pytest.mark.parametrize("command, base, path, key", _UNKNOWN_KEY_CASES,
                         ids=["-".join([command, *path, key]) for command, _, path, key in _UNKNOWN_KEY_CASES])
def test_unknown_config_keys_exit_2(tmp_path, capsys, command, base, path, key):
    # each of these configs used to run with the key ignored and exit 0
    cfg = copy.deepcopy(SWEEP_BASES[base][1])
    obj = cfg
    for name in path:
        obj = obj[name]
    obj[key] = 1e-30
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def _strict_id(base, path, value) -> str:
    # a JSON boolean case is kept apart from the number case of its key
    text = json.dumps(value)
    return f"{base}-{path[-1]}" + ("-bool" if "true" in text or "false" in text else "")


@pytest.mark.parametrize("base, path, value", _STRICT_CASES,
                         ids=[_strict_id(*case) for case in _STRICT_CASES])
def test_numbers_are_read_strictly(tmp_path, base, path, value):
    # int(...) truncated a fractional count, float(...) parsed a string and
    # a JSON true or false read as 1 or 0, and each of these configs used to
    # run and exit 0
    command, cfg = _STRICT_BASES[base]
    out = tmp_path / "out"
    config = write_config(tmp_path, _replaced(cfg, path, value))
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
