"""Batch front end: solve problem files, run constructions, emit certificates.

Subcommands
-----------
solve        minimize a configured energy over a box, write solution +
             certificate JSON
oracle       same, using the brute-force active-set enumeration (n <= 12)
cutoff       build a certified cut-off function on a weighted graph
kantorovich  regularize a c-concave potential at an interpolation time
suite        run the property suites, write a CSV row per check

Flags: solve, oracle, cutoff and kantorovich take --config and --out;
suite takes --config, --seed and --out.  Any other flag exits 2.  The suite
seed (default 0) is set only by --seed, every other setting only by its key.

Exit codes: 0 success; 1 failing suite rows; 2 config error (a flag, file,
key or value that could not be read, or is outside its documented range, or
an unusable --out) or invalid problem data (a well-formed value the library
rejects); 3 solver failure (including non-convergence); 4 certificate or
obstacle assertion failure.

Config schemas (JSON; a key not shown below exits 2; outputs sort keys, floats via repr)
----------------------------------------------------------------------------------------
solve/oracle::

    {"energy": <energy>, "box": {"lo": spec, "hi": spec},
     "solver": {"tol": float, "max_iter": int}}

where <energy> is one of::

    {"kind": "quadratic", "n": int, "triplets": [[i, j, value], ...],
     "b": [...]}                      # symmetric entries both listed
    {"kind": "graph", "nodes": int, "edges": [[i, j, w], ...],
     "dirichlet": [...]}
    {"kind": "kernel", "n": int, "p": float, "pairs": [[i, j, w], ...],
     "exterior": [[i, d], ...]}
    {"kind": "fractional_1d", "n": int, "h": float, "s": float,
     "p": float, "collar": int}

and a box side spec is a number (constant), a list, or null for an absent
side (encoded at +-1e30).

A quadratic matrix must be symmetric PSD.  One that is not diagonally
dominant is certified by a dense eigenvalue check only up to n = 2000
(``energies.PSD_DENSE_MAX_N``); above that cap it exits 2.  A fractional_1d
energy couples every pair of its n points; n above 2048 or a collar above
4096 exits 2 (``energies.FRACTIONAL_1D_MAX_N`` and ``FRACTIONAL_1D_MAX_COLLAR``).

Graph edges [i, j, w] are undirected ([j, i, w] is the same pair), each
pair listed at most once (a repeat exits 2), with finite w > 0: a conductance
in energies, and in cutoff/kantorovich also the shortest-path edge length.
Kernel pairs [i, j, w] follow the edge rules, in either orientation;
exterior entries [i, d] need a finite d >= 0 and add up per index, to a
finite sum.  NaN or Infinity exits 2.

cutoff::

    {"graph": {"nodes": int, "edges": [[i, j, w], ...]},
     "core": [...], "region": [...], "solver": {...}}

kantorovich::

    {"graph": {...}, "potential": [...], "t": float,
     "cc_regularize": bool, "solver": {...}}

solve, cutoff and kantorovich solve every energy above by projected Newton;
below p = 2 a kernel gives it a model Hessian that floors ties (see
``KernelEnergy.hessian``).  Their "solver" object takes "tol", the KKT
residual at which the solve stops (default 1e-9), and "max_iter", the
budget of Newton steps (each one Hessian solve or projected-gradient
fallback step; default 1000); any other solver key exits 2.  oracle parses
the same settings and uses "tol" only for the certificate.  Every command
certifies at tolerance 10 * tol.  tol must be finite and >= 0, max_iter >= 0.

suite::

    {"checks": [distinct names...]}

The checks (default: all) run in forked worker processes, one per CPU in
the affinity mask; suite.csv and suite_summary.json do not depend on that
count.  ``run_suite`` refuses an unknown or repeated name, naming each,
before any check runs (exit 2); suite creates --out only after the checks.

cc_regularize, the only flag key, takes only JSON true or false, and core,
region and dirichlet only JSON arrays; "false" or "56" exits 2.  A number
is a JSON number, never a string or a boolean: "0.1", "2" or true exits 2,
as does true or false anywhere else.  Node indices (in edges, pairs,
triplets, exterior, core, region and dirichlet) and counts (n, nodes,
collar, max_iter) are integers: a fraction such as 2.7 exits 2, where 2.0
counts as 2.
Removed routes exit 2: the flags --tol and --paper-radius, the solver key
"method", the suite key "seed", the keys "paper_radius" and
"certificate_tol", the energy kind "quadratic_file" and the suite check
"lattice".

Outputs are deterministic for a fixed config and seed: randomness comes
only from numpy PCG64 generators seeded per check, reductions run in fixed
order, and JSON/CSV serialization is canonical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .certificates import certificate_report, ls_certificate
from .energies import KernelEnergy, QuadraticEnergy, fractional_kernel_1d, graph_dirichlet
from .errors import (
    CertificateError,
    ConstructionError,
    ObslatError,
    ObstacleOrderError,
    PreconditionError,
    SolverError,
)
from .lattice import UNBOUNDED, OrderInterval, as_index, as_real, as_vector
from .metric import (
    GraphSpace,
    build_cutoff,
    coincidence_cc_report,
    kantorovich_regularize,
)
from .solvers import brute_force_active_set, solve_newton
from .suite import CHECKS, run_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATE = 4


class ConfigError(Exception):
    pass


@contextmanager
def _parsing(command: str):
    """Turn a failure to read any outside value into a ConfigError.

    Each command reads its config, converts every value (energy, box and
    graph space included) and creates --out inside such blocks; no solve,
    cut-off or Kantorovich construction, suite check or output write runs
    there.  Package errors pass unchanged: a well-formed value that the
    library rejects is invalid problem data.
    """
    try:
        yield
    except ObslatError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError, AttributeError, OSError) as err:
        raise ConfigError(f"{command}: {type(err).__name__}: {err}") from err


#: A JSON string: a true or false inside one is text, not a literal.
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _known(obj: dict, keys: str) -> dict:
    """``obj``, once each of its keys is one of the space-separated ``keys``."""
    unknown = sorted(set(obj) - set(keys.split()))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; this object takes only: {keys}")
    return obj


def _load_config(args, keys: str) -> dict:
    if not args.config:
        raise ConfigError("--config PATH is required for this command")
    text = Path(args.config).read_text(encoding="utf-8")
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _known(cfg, keys)
    flag = cfg.get("cc_regularize", False)
    if not isinstance(flag, bool):
        raise ConfigError(f"cc_regularize must be true or false, got {flag!r}")
    # Python reads any other JSON true or false as the number 1 or 0; each
    # one is a literal of the text outside its strings
    bare = _JSON_STRING.sub("", text)
    if bare.count("true") + bare.count("false") > ("cc_regularize" in cfg):
        raise ConfigError("JSON true or false outside cc_regularize: "
                          "numbers, counts and indices take JSON numbers")
    return cfg


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _index_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be an array of indices, got {value!r}")
    return value


def _build_energy(spec: dict):
    kind = spec["kind"]
    if kind == "quadratic":
        _known(spec, "kind n triplets b")
        return QuadraticEnergy.from_triplets(spec["n"], spec["triplets"], spec.get("b"))
    if kind == "graph":
        _known(spec, "kind nodes edges dirichlet")
        return graph_dirichlet(as_index(spec["nodes"], "nodes"), spec["edges"],
                               _index_list(spec.get("dirichlet", []), "dirichlet"))
    if kind == "kernel":
        _known(spec, "kind n p pairs exterior")
        return KernelEnergy(spec["n"], spec["pairs"], spec.get("exterior", ()), spec["p"])
    if kind == "fractional_1d":
        _known(spec, "kind n h s p collar")
        return fractional_kernel_1d(spec["n"], spec["h"], spec["s"], spec["p"], spec["collar"])
    raise ConfigError(f"unknown energy kind {kind!r}")


def _box_side(spec, n: int, default: float) -> np.ndarray:
    if spec is None:
        return np.full(n, default)
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    return as_vector(spec, "box side", n)


def _build_box(spec: dict, n: int) -> OrderInterval:
    return OrderInterval(_box_side(_known(spec, "lo hi").get("lo"), n, -UNBOUNDED),
                         _box_side(spec.get("hi"), n, UNBOUNDED))


def _solver_params(cfg: dict) -> dict:
    """Solver settings; values no solve can honour are config errors."""
    solver = _known(cfg.get("solver", {}), "tol max_iter")
    params = {
        "tol": as_real(solver.get("tol", 1e-9), "tol"),
        "max_iter": as_index(solver.get("max_iter", 1000), "max_iter"),
    }
    for name, value in params.items():
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} = {value} must be finite and >= 0")
    return params


def _cmd_solve(args, oracle: bool) -> int:
    with _parsing(args.command):
        cfg = _load_config(args, "energy box solver")
        energy = _build_energy(cfg["energy"])
        box = _build_box(cfg.get("box", {}), energy.n)
        params = _solver_params(cfg)
        out = _out_dir(args)
    if oracle:
        solution = brute_force_active_set(energy, box)
    else:
        solution = solve_newton(energy, box, tol=params["tol"], max_iter=params["max_iter"])
    payload = solution.to_json_dict()
    payload["method"] = "oracle" if oracle else "newton"
    payload["tol"] = params["tol"]
    _write_json(out / "solution.json", payload)
    if not solution.converged:
        print(f"solver did not converge within budget (kkt residual "
              f"{solution.kkt_residual:.3e})", file=sys.stderr)
        return EXIT_SOLVER
    cert = ls_certificate(energy, box, solution, 10.0 * params["tol"])
    _write_json(out / "certificate.json", certificate_report(energy, box, solution, cert))
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def cmd_solve(args) -> int:
    return _cmd_solve(args, oracle=False)


def cmd_oracle(args) -> int:
    return _cmd_solve(args, oracle=True)


def _build_space(spec: dict) -> GraphSpace:
    return GraphSpace.from_graph(as_index(_known(spec, "nodes edges")["nodes"], "nodes"),
                                 spec["edges"])


def _write_construction(out: Path, name: str, fields: dict, space, box, solution, cert) -> int:
    """Write ``<name>.json`` (fields plus sup_laplacian) and certificate.json."""
    report = certificate_report(space.dirichlet_energy, box, solution, cert, metric=space)
    _write_json(out / f"{name}.json", {**fields, "sup_laplacian": report["sup_laplacian"]})
    _write_json(out / "certificate.json", report)
    return EXIT_OK


def cmd_cutoff(args) -> int:
    with _parsing("cutoff"):
        cfg = _load_config(args, "graph core region solver")
        space = _build_space(cfg["graph"])
        params = _solver_params(cfg)
        core = _index_list(cfg["core"], "core")
        region = _index_list(cfg["region"], "region")
        out = _out_dir(args)
    cut = build_cutoff(space, core, region, tol=params["tol"], max_iter=params["max_iter"])
    return _write_construction(out, "cutoff", {
        "omega": cut.solution.u.tolist(),
        "phi": cut.phi.tolist(),
        "psi": cut.psi.tolist(),
        "r2": cut.r2,
    }, space, OrderInterval(cut.phi, cut.psi), cut.solution, cut.certificate)


def cmd_kantorovich(args) -> int:
    with _parsing("kantorovich"):
        cfg = _load_config(args, "graph potential t cc_regularize solver")
        space = _build_space(cfg["graph"])
        params = _solver_params(cfg)
        phi = as_vector(cfg["potential"], "potential")
        t = as_real(cfg["t"], "t")
        cc_regularize = cfg.get("cc_regularize", False)
        out = _out_dir(args)
    eta, pair, cert = kantorovich_regularize(
        space, phi, t, tol=params["tol"], max_iter=params["max_iter"],
        cc_regularize=cc_regularize)
    return _write_construction(out, "kantorovich", {
        "eta": eta.tolist(),
        "phi": pair.phi.tolist(),
        "phi_c": pair.phi_c.tolist(),
        "lo": pair.lo.tolist(),
        "hi": pair.hi.tolist(),
        "t": pair.t,
        "coincidence_set": pair.coincidence_set.tolist(),
        "cc_report": coincidence_cc_report(space, pair, eta),
    }, space, OrderInterval(pair.lo, pair.hi), eta, cert)


def cmd_suite(args) -> int:
    with _parsing("suite"):
        cfg = _load_config(args, "checks") if args.config else {}
        if args.seed < 0:
            raise ConfigError(f"seed = {args.seed} must be >= 0")
        checks = cfg.get("checks", list(CHECKS))
        if not isinstance(checks, list):
            raise ConfigError(f"checks must be an array of check names, got {checks!r}")
    # run_suite refuses an unknown or repeated name before any check runs,
    # so a refused selection leaves no --out behind
    rows, all_pass = run_suite(seed=args.seed, checks=checks)
    with _parsing("suite"):
        out = _out_dir(args)
    with open(out / "suite.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_name", "n_instances", "worst_value", "threshold", "pass"])
        for row in rows:
            writer.writerow([row["check_name"], row["n_instances"],
                             row["worst_value"], row["threshold"], row["pass"]])
    _write_json(out / "suite_summary.json", {
        "seed": args.seed,
        "generator": "numpy PCG64 seeded per check as [seed, crc32(check_name)]",
        "all_pass": all_pass,
        "n_rows": len(rows),
        "failed_checks": [r["check_name"] for r in rows if not r["pass"]],
    })
    for row in rows:
        if not row["pass"]:
            print(f"FAIL {row['check_name']}: worst {row['worst_value']:.6e} "
                  f"exceeds {row['threshold']:.1e}", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_SUITE_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It holds no handler: :func:`main` calls ``cmd_<command>`` by name, so a
    handler replaced after the first call (a test double, a tracing wrapper)
    is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="obslat",
        description="Double obstacle problems on finite lattices with "
                    "Lewy-Stampacchia certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": {"type": str, "default": None, "help": "JSON config file"},
        "--seed": {"type": int, "default": 0, "help": "random seed"},
        "--out": {"type": str, "default": ".", "help": "output directory"},
    }
    solve_flags = ("--config", "--out")
    commands = {
        "solve": ("solve an obstacle problem and certify it", solve_flags),
        "oracle": ("solve by brute-force enumeration (n <= 12)", solve_flags),
        "cutoff": ("build a certified cut-off function", solve_flags),
        "kantorovich": ("regularize a Kantorovich potential", solve_flags),
        "suite": ("run the property suites and write a CSV report",
                  ("--config", "--seed", "--out")),
    }
    for name, (help_text, names) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse: 2 on a parse error, 0 after --help
        return exit_.code
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConstructionError, PreconditionError) as err:
        print(f"invalid problem data: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (CertificateError, ObstacleOrderError) as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
