"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload probe_z3 --seed 1 --seconds 25 --trace 0

``--trace 0`` times operations with nothing wrapped and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` alternates untraced and
traced operations, reports the per-layer metrics and writes every span to
``.bench_build/``.  Every operation is checked against the workload's
oracle, outside the timed region.  The package is imported from ``src/`` of
the checkout this file sits in; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import netenergy
    except ImportError as exc:
        raise SystemExit(f"error: cannot import netenergy from {SRC}: {exc}") from None
    where = Path(netenergy.__file__).resolve().parent
    if where != SRC / "netenergy":
        raise SystemExit(f"error: netenergy imported from {where}, not from {SRC}")


def _blas(module, libdir: str) -> dict:
    """BLAS build info of numpy or scipy, with the thread count of its OpenBLAS."""
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        out = {"name": None, "version": None}
    out["threads"] = None
    base = Path(module.__file__).resolve().parent.parent / libdir
    for lib_path in glob.glob(str(base / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy, "numpy.libs"),
        "blas_scipy": _blas(scipy, "scipy.libs"),
        "platform": platform.platform(),
    }


def _setup_time(args) -> float:
    """Process start to inputs ready, in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-child",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def _operate(workload, state, tracer):
    """One operation and its check: (seconds, trace summary, failure reason)."""
    gc.collect()
    summary = None
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = workload.run(state)
            wall = time.perf_counter() - t0
        else:
            tracer.install()
            try:
                result, summary = tracer.phase(workload.run, state)
            finally:
                tracer.uninstall()
            wall = summary["wall_s"]
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, None, f"{type(exc).__name__}: {exc}"
    try:
        reason = workload.check(state, result)
    except Exception as exc:  # so is a result the oracle cannot read
        reason = f"check raised {type(exc).__name__}: {exc}"
    finally:
        workload.discard(result)
    return wall, summary, reason


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _import_package()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}, one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        if args.setup_child:
            workload.setup(args.seed, workdir)
            print(time.monotonic(), flush=True)
            return 0

        tracer = Tracer() if args.trace else None
        setup_summary = None
        if tracer is None:
            state = workload.setup(args.seed, workdir)
        else:
            tracer.install()
            try:
                state, setup_summary = tracer.phase(workload.setup, args.seed, workdir)
            finally:
                tracer.uninstall()

        # the warm-up operation fills caches and finishes lazy imports; it is
        # checked and counted, not timed
        _, _, reason = _operate(workload, state, None)
        attempted, failures = 1, [] if reason is None else [reason]
        untraced, traced, setup_times = [], [], []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or (tracer is not None and not traced):
            traced_op = tracer is not None and i % 2 == 1
            wall, summary, reason = _operate(workload, state, tracer if traced_op else None)
            attempted += 1
            if reason is not None:
                failures.append(reason)
            elif traced_op:
                traced.append(summary)
            else:
                untraced.append(wall)
            if tracer is None and i % 2 == 0:
                # set-up samples spread over the run, so that they see the
                # same machine as the operations; the clock stops meanwhile
                t0 = time.perf_counter()
                setup_times.append(_setup_time(args))
                deadline += time.perf_counter() - t0
            i += 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s_samples": len(untraced),
        "wall_s_values": untraced,
        "traced_samples": len(traced),
        "setup_s_values": setup_times,
        "fail_rate": len(failures) / attempted,
        "failures": failures[:5],
        "environment": _environment(),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if untraced:
            values["wall_s"] = statistics.median(untraced)
        names = spec["end_to_end"]
    else:
        per_op = [layer_metrics(s) for s in traced]
        values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]} if per_op else {}
        if per_op and untraced:
            values["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
            values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(untraced)
        rn = "generators.random_network"
        values[rn + "_s"] = setup_summary["inclusive_s"].get(rn, 0.0)
        names = spec["per_layer"]
        tracer.dump(
            WORK / f"trace-{args.workload}-seed{args.seed}.json",
            {**info, "metrics": values, "setup": setup_summary},
        )

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names if m["name"] in values}
    complete = len(metrics) == len(names)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures and complete,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
