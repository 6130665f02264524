"""Benchmark of obslat: one workload per call, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload membrane_sweep --seed 1 --seconds 15 --trace 0

Workloads and metrics are defined in BENCHMARK.json.  Every process this
script starts is a fresh single-threaded Python (one BLAS thread, glibc
malloc thresholds fixed; see CHILD_ENV) that imports ``obslat`` from
``src/`` and measures it only from outside.

A run makes ceil(--seconds / nominal round length) rounds of the
workload's fixed op list, so that the op count, and with it the percentile
of op_tail_s, is the same in every run and on every commit.

``--trace 0`` runs each round in a fresh process, and a few more processes
only set up; ``setup_s`` is the median over all of them, from process start
to the first timed op.  Spreading the rounds over processes averages out
how fast one process happens to run on a shared host, which differs by up
to a quarter between processes doing identical work.
``--trace 1`` runs the rounds so, then all of them again in one traced
process, and reports the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the same numbers for a reader, with the environment.  A detailed
report, the per-op digests and the span log go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Nominal length of one round in seconds, measured on a 2-vCPU Xeon VM.
ROUND_SECONDS = {"membrane_sweep": 4.5, "cli_commands": 12.0,
                 "fractional_pg": 5.5, "suite": 5.0}

#: Set-up is timed in at least this many fresh processes.
SETUP_SAMPLES = 5

#: Children still running this long after the start are killed, so that the
#: run fails within its 180 s limit instead of hanging.
RUN_DEADLINE_S = 170.0

#: Environment of every child: one BLAS thread, and glibc malloc thresholds
#: fixed at values the dynamic thresholds reach after the first large free.
#: Without them the first round of a process runs the PSD check's O(n^2)
#: temporaries through fresh pages, and the 24x24 cutoff takes 0.9 s there
#: instead of 0.5 s; with them every round sees the steady state of an
#: in-process caller.
CHILD_ENV = {
    **{k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(128 * 2**20),
}


class ChildError(RuntimeError):
    pass


def _spawn(args, mode: str, index: int, rounds: int = 1) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from spawn to READY, its JSON result)."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds), "--mode", mode,
           "--workdir", str(OUT / f"work-{os.getpid()}-{index}")]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(args.deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise ChildError(f"{mode} process exited with code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} process printed no result")
    return setup_s, json.loads(lines[-1])


def _merge(per_round: list) -> dict:
    """One result from the single-round processes of an untraced run."""
    return {
        "ops_per_round": per_round[0]["ops_per_round"],
        "round_walls": [w for r in per_round for w in r["round_walls"]],
        "op_times": [t for r in per_round for t in r["op_times"]],
        "outcomes": [o for r in per_round for o in r["outcomes"]],
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in per_round),
        "env": per_round[0]["env"],
    }


def _tail(samples: list) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile); with 10 samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _source_hash() -> str:
    """Hash of the package and benchmark sources: digests are kept per source tree."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "obslat").rglob("*.py"), *WORKER.parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_digests(args, results: list) -> tuple[dict, list]:
    """Per-op digests must agree across rounds, processes and earlier runs.

    Earlier runs are those of the same workload, seed and source tree,
    remembered under .perfbench/digests/.
    """
    seen, problems = {}, []
    for result in results:
        for label, status, digest, _ in result["outcomes"]:
            if seen.setdefault(label, digest) != digest:
                problems.append(f"{label}: output digest differs between rounds")
    store = OUT / "digests" / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    source = _source_hash()
    if store.is_file():
        earlier = json.loads(store.read_text())
        if earlier["source"] == source and earlier["digests"] != seen:
            problems.append("output digests differ from an earlier run of the same source")
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps({"source": source, "digests": seen}, sort_keys=True))
    os.replace(tmp, store)
    return seen, problems


def _tally(results: list) -> dict:
    statuses = [o[1] for r in results for o in r["outcomes"]]
    attempted = len(statuses)
    return {
        "attempted": attempted,
        "certified": statuses.count("certified"),
        "stalled": statuses.count("stall"),
        "failed": statuses.count("failed"),
        "fail_frac": (attempted - statuses.count("certified")) / attempted,
        "problems": sorted({p for r in results for o in r["outcomes"] for p in o[3]}),
    }


def _end_to_end(setups: list, run: dict, tally: dict) -> tuple[dict, dict]:
    tail, pct = _tail(run["op_times"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["round_walls"]),
        "op_p50_s": statistics.median(run["op_times"]),
        "op_tail_s": tail,
        "peak_rss_mib": run["peak_rss_mib"],
        "certified_frac": tally["certified"] / tally["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(run['round_walls'])} rounds of {run['ops_per_round']} ops",
        "peak_rss_mib": f"median of {len(run['round_walls'])} processes",
        "op_p50_s": f"{len(run['op_times'])} ops",
        "op_tail_s": f"p{pct:.1f} of {len(run['op_times'])} ops",
        "certified_frac": (f"fail_frac {tally['fail_frac']:.4g}: {tally['failed']} failed, "
                           f"{tally['stalled']} documented stalls"),
    }
    return values, notes


def _per_layer(base: dict, traced: dict) -> tuple[dict, dict]:
    """Layer totals for set-up plus one round (the mean over traced rounds)."""
    rounds = traced["round_layers"]
    names = set(traced["setup_layers"][0]).union(*(r[0] for r in rounds))
    counters = set(traced["setup_layers"][1]).union(*(r[1] for r in rounds))

    def total(kind, name):
        per_round = statistics.fmean(r[kind].get(name, 0.0) for r in rounds)
        return traced["setup_layers"][kind].get(name, 0.0) + per_round

    values = {f"{name}_s": total(0, name) for name in names}
    values.update({name: total(1, name) for name in counters})
    iterations = values.get("solvers.iterations", 0.0)
    values["solvers.s_per_iter"] = values.get("solvers.solve_s", 0.0) / iterations if iterations else 0.0
    for layer in ("metric", "energies"):
        values[f"{layer}.peak_mib"] = traced["peak_bytes"].get(layer, 0) / 2**20
    untraced_wall = statistics.median(base["round_walls"])
    traced_wall = statistics.median(traced["round_walls"])
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    round_self = {name: statistics.fmean(r[0].get(name, 0.0) for r in rounds) for name in names}
    values["trace.accounted_frac"] = sum(round_self.values()) / untraced_wall
    shares = {name: t / sum(round_self.values()) for name, t in
              sorted(round_self.items(), key=lambda kv: -kv[1])}
    return values, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                    "round_shares": shares, "span_file": traced["span_file"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs and one set-up process (smoke test only)")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "obslat" / "__init__.py").is_file():
        print(f"no obslat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    rounds = max(1, math.ceil(args.seconds / ROUND_SECONDS[args.workload]))
    processes = rounds if args.smoke or args.trace else max(rounds, SETUP_SAMPLES)
    try:
        setups, per_round = [], []
        for i in range(processes):
            setup_s, result = _spawn(args, "run" if i < rounds else "setup", i)
            setups.append(setup_s)
            if result is not None:
                per_round.append(result)
        base = _merge(per_round)
        results = [base]
        if args.trace:
            _, traced = _spawn(args, "trace", processes, rounds)
            results.append(traced)
    except ChildError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    tally = _tally(results)
    digests, digest_problems = _check_digests(args, results)
    problems = tally["problems"] + digest_problems
    if args.trace:
        values, notes = _per_layer(base, traced)
    else:
        values, notes = _end_to_end(setups, base, tally)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": base["env"],
              "tally": tally, "problems": problems, "metrics": metrics, "notes": notes,
              "all_values": values, "digests": digests,
              "op_times": {"labels": [o[0] for o in base["outcomes"]],
                           "seconds": base["op_times"]}}
    OUT.mkdir(exist_ok=True)
    stem = f"report-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally['attempted']} ops, {tally['certified']} certified, "
          f"{tally['stalled']} documented stalls, {tally['failed']} failed, "
          f"fail_frac {tally['fail_frac']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:12.6g} {m['unit']:6s} {notes.get(name, '')}".rstrip())
    if args.trace:
        print("  self-time share per round: " + ", ".join(
            f"{k} {v:.1%}" for k, v in notes["round_shares"].items() if v >= 0.001))
    print("  env: " + json.dumps(base["env"], sort_keys=True))
    for problem in problems:
        print(f"  WRONG OUTPUT: {problem}")
    print(json.dumps({"correct": not problems, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
