"""One benchmark process: set up a workload, run solves for a time budget.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --workdir DIR [--trace-file PATH] [--environment]

Started by run.py with the package's ``src`` on PYTHONPATH.  Set-up (imports,
initial data, flow workspace, one warm step) is timed from before numpy is
imported.  Solves then run one after another, each timed for wall and process
CPU seconds and checked after its timer stops, until S seconds have passed
(at least one solve).  The calibration kernel runs after set-up and after
every solve, so each solve has the kernel's time on either side of it; set-up
is paired with the median of all the process's kernel times, as the first
one alone read 24-54 ms where the median read 34-38 ms.  With --trace-file
the process installs the tracing wrappers before set-up and writes its spans
to that file at exit.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


CALIBRATION_LOOPS = 6000


def calibration_s() -> float:
    """Seconds taken by a fixed kernel of interpreted Python and small numpy
    calls that shares no code with entroflow: a gauge of how fast this host
    runs such code right now.  Its 32 x 32 products are too small for
    OpenBLAS to thread."""
    import numpy as np
    a = np.full((32, 32), 1.0 / 32)
    x = np.ones(32)
    acc, table = 0.0, {}
    t0 = time.perf_counter()
    for j in range(CALIBRATION_LOOPS):
        x = a @ (1.0 / (a @ x)) + 0.5 * x
        acc += (j % 7) * 0.5
        table[j & 255] = acc
    np.fft.irfft(np.fft.rfft(x))
    return time.perf_counter() - t0


def environment(ef) -> dict:
    """Versions, BLAS, backend, processor count, CPU model and cache sizes."""
    import ctypes
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "backend": "numba" if getattr(ef.flow, "_HAVE_NUMBA", False) else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            so = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(so, sym):
                    fn = getattr(so, sym)
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = fn()
                    break
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--environment", action="store_true")
    args = ap.parse_args(argv)

    t_setup = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace_file:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    state = wl.setup(args.seed, Path(args.workdir))
    setup_s = time.perf_counter() - t_setup
    calibs = [calibration_s()]

    solves = []
    start = time.perf_counter()
    while not solves or time.perf_counter() - start < args.seconds:
        sid = tracer.begin_solve() if tracer else None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = wl.solve(state), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        counts = tracer.end_solve(sid) if tracer else {}
        calibs.append(calibration_s())
        calib_s = (calibs[-2] + calibs[-1]) / 2
        if error is None:
            try:
                outcome = wl.check(state, out)
            except Exception:
                outcome = workloads.Outcome(False, traceback.format_exc(limit=3))
        else:
            outcome = workloads.Outcome(False, error)
        solves.append({"wall_s": wall, "cpu_s": cpu, "calib_s": calib_s,
                       "ok": outcome.ok, "why": outcome.why, "digest": outcome.digest,
                       "facts": outcome.facts, "counts": counts})

    result = {"setup_s": setup_s, "setup_calib_s": statistics.median(calibs),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "workspace_s": state.workspace_s, "workspace_mb": state.workspace_mb,
              "solves": solves}
    if tracer is not None:
        for i, times in tracer.solve_times().items():
            solves[i].update(times)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        tracer.write(args.trace_file)
    if args.environment:
        result["environment"] = environment(state.ef)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
