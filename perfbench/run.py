"""entroflow benchmark: four closed-loop batch workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from ``src`` as checked
out.  Each workload runs one solve after the previous one finishes, in its own
processes (perfbench/worker.py), and checks every solve's output.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  The two lines before it carry the environment, then either the
samples behind the timings (--trace 0) or a summary of the trace (--trace 1).

--trace 0 measures the end-to-end metrics with tracing off, over
UNTRACED_PROCESSES fresh processes that share the S seconds:
  wall_s       median wall seconds per solve
  cpu_s        median process CPU seconds per solve (all threads)
  setup_s      median over the processes of the time to import entroflow,
               build the initial data and flow workspace and make one warm step
  peak_rss_mb  median over the processes of their peak resident memory
Every time is taken at the reference host speed: it is multiplied by
REFERENCE_CALIBRATION_S over the time of a fixed kernel of Python and small
numpy calls (worker.calibration_s) measured next to it.  On the shared 2-core
VM the benchmark was written on, other tenants slowed the same solve by up
to 1.7x for minutes at a time; the median solve of 20-second windows then
spread by 11-24 % (interquartile range over the median), and the rescaled
median by 2-5 %.  The raw times are printed on the line before the result.

--trace 1 runs one untraced process for a third of S and one traced process
for the rest, checks that both end in bit-identical final states, and reports
the per-layer metrics (see PER_LAYER) as per-solve medians of the traced
solves, times again at the reference host speed.  Spans go to
perfbench/out/trace-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from worker import calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {   # name -> layer predicted to carry most of the self time
    "circle-rk4": "flow",
    "rescaled-n48-records": "diagnostics",
    "rescaled-n1024-operator": "flow",
    "cli-rescaled-artifacts": "cli",
}
UNTRACED_PROCESSES = 3
# calibration_s() on the 2-core Xeon KVM guest the benchmark was written on,
# when no other tenant slowed it
REFERENCE_CALIBRATION_S = 0.032
LAYERS = ("flow", "diagnostics", "support", "cli")
WORKER_GRACE_S = 60

# per-layer metric -> (unit, seams it needs); a metric whose seam is missing
# is reported with value null
PER_LAYER = {
    "flow.step_s": ("s", ["entroflow.flow.evolve", "entroflow.flow.compute_record"]),
    "flow.operator_applies": ("count", ["entroflow.flow.workspace",
                                        "entroflow.flow.workspace.D2I"]),
    "flow.operator_bytes": ("bytes_computed", ["entroflow.flow.workspace",
                                               "entroflow.flow.workspace.D2I"]),
    "flow.si_attempts": ("count", ["entroflow.flow._semi_implicit_attempt"]),
    "flow.si_rejected": ("count", ["entroflow.flow._semi_implicit_attempt"]),
    "flow.workspace_s": ("s", ["entroflow.flow.workspace"]),
    "flow.workspace_mb": ("MB", ["entroflow.flow.workspace"]),
    "diagnostics.records": ("count", ["entroflow.flow.compute_record"]),
    "diagnostics.record_s": ("s", ["entroflow.flow.compute_record"]),
    "diagnostics.record_us": ("us", ["entroflow.flow.compute_record"]),
    "diagnostics.ffts_per_record": ("count", ["entroflow.flow.compute_record"]),
    "diagnostics.monitors_s": ("s", ["entroflow.diagnostics.run_monitors"]),
    "diagnostics.monitor_fail_checks": ("count", []),
    "spectral.fft_calls": ("count", []),
    "spectral.fft_s": ("s", []),
    "support.import_s": ("s", ["entroflow.support"]),
    "support.reconstruct_s": ("s", ["entroflow.support.reconstruct"]),
    "cli.artifacts_s": ("s", ["entroflow.cli._emit_artifacts"]),
    "cli.io_us_per_record": ("us", ["entroflow.cli._emit_artifacts",
                                    "entroflow.flow.compute_record"]),
    "cli.files_written": ("count", []),
    "cli.bytes_written": ("bytes", []),
    "cli.readback_s": ("s", ["entroflow.diagnostics.read_csv",
                             "entroflow.flow.read_snapshot"]),
    "cli.csv_bit_identical": ("count", []),
    **{f"{layer}.self_s": ("s", []) for layer in LAYERS},
    "intended_layer_share": ("fraction", []),
    "failed_frac": ("fraction", []),
    "trace_overhead_frac": ("fraction", []),
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # OpenBLAS starts one thread per processor unless told otherwise; never
    # more than this process may run on
    nproc = len(os.sched_getaffinity(0))
    asked = env.get("OPENBLAS_NUM_THREADS", "")
    env["OPENBLAS_NUM_THREADS"] = str(min(int(asked), nproc) if asked.isdigit() else nproc)
    return env


def run_worker(args, seconds, workdir, trace_file=None, environment=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--workdir", str(workdir)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    if environment:
        cmd.append("--environment")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def at_reference_speed(seconds, calib_s):
    return seconds * REFERENCE_CALIBRATION_S / calib_s


def import_seconds() -> dict:
    """Cumulative import seconds per entroflow module, from -X importtime,
    at the reference host speed."""
    before = calibration_s()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import entroflow"],
                          env=worker_env(), capture_output=True, text=True, timeout=120)
    calib = (before + calibration_s()) / 2
    if proc.returncode != 0:
        raise BenchError(f"import entroflow failed:\n{proc.stderr[-4000:]}")
    out = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            out[parts[2]] = at_reference_speed(int(parts[1]) / 1e6, calib)
    return out


def distribution(values) -> dict:
    return {"n": len(values), "min": min(values), "median": statistics.median(values),
            "max": max(values)}


def end_to_end(runs) -> tuple[dict, dict]:
    solves = [s for r in runs for s in r["solves"]]

    def scaled(key):
        return [at_reference_speed(s[key], s["calib_s"]) for s in solves]

    setup = [at_reference_speed(r["setup_s"], r["setup_calib_s"]) for r in runs]
    metrics = {
        "wall_s": (statistics.median(scaled("wall_s")), "s"),
        "cpu_s": (statistics.median(scaled("cpu_s")), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in runs]), "MB"),
    }
    raw = {key: distribution([s[key] for s in solves])
           for key in ("wall_s", "cpu_s", "calib_s")}
    raw["setup_s"] = [r["setup_s"] for r in runs]
    raw["setup_calib_s"] = [r["setup_calib_s"] for r in runs]
    return metrics, raw


def per_layer(args, plain, traced, imports) -> tuple[dict, dict]:
    solves = traced["solves"]

    def med(fn):   # a value some solve really had, so counts stay whole
        return statistics.median_low([fn(s) for s in solves])

    def span(name):
        return lambda s: at_reference_speed(s["span_s"].get(name, 0.0), s["calib_s"])

    def calls(name):
        return lambda s: s["calls"].get(name, 0)

    def count(name):
        return lambda s: s["counts"].get(name, 0)

    def fact(name):
        return lambda s: s["facts"].get(name, 0)

    def per_record(fn, scale=1.0):
        return lambda s: (fn(s) / s["calls"]["diagnostics.record"] * scale
                          if s["calls"].get("diagnostics.record") else 0.0)

    layer = WORKLOADS[args.workload]
    everything = plain["solves"] + solves
    values = {
        "flow.step_s": med(lambda s: at_reference_speed(
            s["span_s"].get("flow.evolve", 0.0) - s["evolve_record_s"], s["calib_s"])),
        "flow.operator_applies": med(count("operator_applies")),
        "flow.operator_bytes": med(count("operator_bytes")),
        "flow.si_attempts": med(count("si_attempts")),
        "flow.si_rejected": med(count("si_rejected")),
        "flow.workspace_s": at_reference_speed(plain["workspace_s"], plain["setup_calib_s"]),
        "flow.workspace_mb": plain["workspace_mb"],
        "diagnostics.records": med(calls("diagnostics.record")),
        "diagnostics.record_s": med(span("diagnostics.record")),
        "diagnostics.record_us": med(per_record(span("diagnostics.record"), 1e6)),
        "diagnostics.ffts_per_record": med(per_record(count("record_ffts"))),
        "diagnostics.monitors_s": med(span("diagnostics.monitors")),
        "diagnostics.monitor_fail_checks": med(fact("monitor_fail_checks")),
        "spectral.fft_calls": med(count("fft_calls")),
        "spectral.fft_s": med(lambda s: at_reference_speed(s["counts"]["fft_s"], s["calib_s"])),
        "support.import_s": imports.get("entroflow.support"),
        "support.reconstruct_s": med(span("support.reconstruct")),
        "cli.artifacts_s": med(span("cli.artifacts")),
        "cli.io_us_per_record": med(per_record(span("cli.artifacts"), 1e6)),
        "cli.files_written": med(fact("files_written")),
        "cli.bytes_written": med(fact("bytes_written")),
        "cli.readback_s": med(span("cli.readback")),
        "cli.csv_bit_identical": min(s["facts"].get("csv_bit_identical", 0) for s in solves),
        **{f"{ly}.self_s": med(lambda s, ly=ly: at_reference_speed(
            s["self_s"].get(ly, 0.0), s["calib_s"])) for ly in LAYERS},
        "intended_layer_share": med(lambda s: s["self_s"].get(layer, 0.0) / s["span_s"]["solve"]),
        "failed_frac": sum(not s["ok"] for s in everything) / len(everything),
        "trace_overhead_frac": (
            statistics.median(at_reference_speed(s["wall_s"], s["calib_s"]) for s in solves)
            / statistics.median(at_reference_speed(s["wall_s"], s["calib_s"])
                                for s in plain["solves"]) - 1.0),
    }
    absent = set(traced["absent"])
    if "entroflow.support" not in imports:
        absent.add("entroflow.support")
    metrics = {name: (None if absent.intersection(seams) else values[name], unit)
               for name, (unit, seams) in PER_LAYER.items()}
    self_s = {ly: metrics[f"{ly}.self_s"][0] for ly in LAYERS}
    dominant = max(self_s, key=self_s.get)
    summary = {
        "trace_file": str(Path(traced["trace_file"]).relative_to(ROOT)),
        "spans": traced["spans"],
        "traced_solves": len(solves),
        "layer_self_s": self_s,
        "dominant_layer": dominant,
        "predicted_layer": layer,
        "prediction_met": dominant == layer,
        "absent_seams": sorted(absent),
        "failing_monitors": sorted({m for s in solves
                                    for m in s["facts"].get("monitor_failing", [])}),
    }
    return metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "entroflow" / "__init__.py").is_file():
        print(f"error: the entroflow sources are not at {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run then kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT.mkdir(exist_ok=True)
    # relative to the checkout, so that artifacts naming it (the CLI's
    # effective_config.json) have the same bytes in every checkout
    workdir = (OUT / f"work-{args.workload}-seed{args.seed}").relative_to(ROOT)
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    # byte-compile the package once, so no measured set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   capture_output=True, timeout=120)
    try:
        if args.trace == 0:
            share = args.seconds / UNTRACED_PROCESSES
            runs = [run_worker(args, share, workdir, environment=(i == 0))
                    for i in range(UNTRACED_PROCESSES)]
            metrics, raw = end_to_end(runs)
            summary = {"raw_samples": raw}
        else:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            plain = run_worker(args, args.seconds / 3, workdir, environment=True)
            traced = run_worker(args, 2 * args.seconds / 3, workdir, trace_file=trace_file)
            traced["trace_file"] = str(trace_file)
            runs = [plain, traced]
            metrics, summary = per_layer(args, plain, traced, import_seconds())
            summary = {"trace": summary}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    solves = [s for r in runs for s in r["solves"]]
    failed = [s for s in solves if not s["ok"]]
    digests = {s["digest"] for s in solves}
    identical = len(digests) == 1
    print(json.dumps({"environment": runs[0]["environment"]}))
    print(json.dumps(summary))
    for s in failed[:3]:
        print(f"failed solve: {s['why']}", file=sys.stderr)
    if not identical:
        print(f"final states differ between solves: {len(digests)} distinct digests",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed and identical,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
