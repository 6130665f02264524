"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The process prints
``READY`` once set-up is done, so the parent can time set-up from process
start.  In ``setup`` mode it exits there.  Otherwise it runs ``--rounds``
rounds of the workload's fixed op list, one op at a time from one caller,
and prints one JSON line with its measurements.  In ``trace`` mode spans
are installed around the ``obslat`` layers first, and a final memory pass
repeats set-up and one round with tracemalloc on inside the metric and
energy-construction spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
    }


def _run_round(ops, tracer, round_index, op_times, outcomes):
    """Run every op once, one at a time; time ``Op.run`` and check its output."""
    import obslat
    from workloads import Outcome

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    for op in ops:
        if tracer:
            tracer.op = f"{round_index}:{op.label}"
        with span("bench.op"):
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except obslat.ObslatError as err:
                result, error = None, f"{type(err).__name__}: {err}"
            op_times.append(time.perf_counter() - start)
            with span("bench.check"), (tracer.paused() if tracer else contextlib.nullcontext()):
                if error is None:
                    outcome = op.check(result)
                else:
                    print(f"op {op.label} raised {error}", file=sys.stderr)
                    outcome = Outcome("failed", "", [])
        outcomes.append((op.label, outcome))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from tracer import Tracer, instrument
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        instrument(tracer)
    build = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def setup():
        rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
        if tracer is None:
            return build(rng, workdir, args.smoke)
        with tracer.span("bench.gen"):
            return build(rng, workdir, args.smoke)

    try:
        ops = setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        setup_layers = tracer.take() if tracer else None

        op_times, outcomes, round_walls, round_layers = [], [], [], []
        for _ in range(args.rounds):
            t0 = time.perf_counter()
            _run_round(ops, tracer, len(round_walls), op_times, outcomes)
            round_walls.append(time.perf_counter() - t0)
            if tracer:
                round_layers.append(tracer.take())
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        result = {
            "ops_per_round": len(ops),
            "round_walls": round_walls,
            "op_times": op_times,
            "outcomes": [[label, o.status, o.digest, o.problems] for label, o in outcomes],
            "peak_rss_mib": rss_kib / 1024.0,
            "env": _environment(),
        }
        if tracer:
            result["setup_layers"] = setup_layers
            result["round_layers"] = round_layers
            tracer.memory = True
            _run_round(setup(), tracer, "memory", [], [])
            tracer.take()
            result["peak_bytes"] = dict(tracer.peak_bytes)
            result["span_count"] = len(tracer.spans)
            trace_file = workdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"fields": ["name", "parent", "op", "start", "end"], "spans": tracer.spans}))
            result["span_file"] = str(trace_file.relative_to(ROOT))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
