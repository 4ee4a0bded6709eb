"""The benchmark's four workloads: seeded inputs, one solve, and its check.

Seed 0 reproduces the acceptance configurations exactly.  Any other seed adds
a small band-limited perturbation (wavenumbers 2-4, each coefficient at most
PERTURBATION * mean(h)) to the initial support function, which SupportGrid
validates as strictly convex.

entroflow is imported inside ``setup``, so the import is part of the measured
set-up time.  Solves reach the package through module attributes
(``ef.flow.evolve``, ``ef.cli.main``, ...) so that the traced run's wrappers,
installed on those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CLI_REFERENCE = REFERENCE_DIR / "cli-rescaled-artifacts.seed0.csv"

PERTURBATION = 1e-3
PERTURBED_WAVENUMBERS = (2, 3, 4)

# criterion-09's stepper and cadence, shared by the rescaled workloads
RESCALED_STEPPER = dict(scheme="semi_implicit", dt_init=5e-4, max_dt=2e-3)
RESCALED_CADENCE = 4e-3

# tolerance of the cli CSV against the stored seed-0 reference, per column, as
# a share of the column's largest magnitude.  Other seeds start from a
# perturbed curve and are held to 10 * PERTURBATION on the columns that move
# in proportion to it (seeds 1-3, 7 and 123 moved them by at most 3e-3); the
# derivative seminorms h1-h4, logk_dirichlet, kgrad_inf and margin amplify
# the perturbation by up to 4^p and are left out for those seeds.
CSV_RTOL_SEED0 = 1e-9
CSV_RTOL_PERTURBED = 1e-2
CSV_COLUMNS_PERTURBED = ("t", "entropy", "length", "area", "f_l2sq", "h0",
                         "kmin", "kmax", "k_l1", "dt")


@dataclass
class Outcome:
    """What the check of one solve found."""

    ok: bool
    why: str = ""
    digest: str = ""                            # hash of the final state
    facts: dict = field(default_factory=dict)   # counts for the traced run


@dataclass
class Workload:
    name: str
    setup: Callable     # (seed, workdir) -> state
    solve: Callable     # state -> output
    check: Callable     # (state, output) -> Outcome


def perturbed(grid, values, seed):
    """values plus the seed's mode-2..4 perturbation; seed 0 adds nothing."""
    if seed == 0:
        return values
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, size=(len(PERTURBED_WAVENUMBERS), 2))
    coef *= PERTURBATION * float(np.mean(values))
    th = grid.nodes
    out = values.copy()
    for m, (a, b) in zip(PERTURBED_WAVENUMBERS, coef):
        out = out + a * np.cos(m * th) + b * np.sin(m * th)
    return out


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return sha.hexdigest()


def _prepare(ef, states, scheme_cfg):
    """Build each grid's flow workspace, then make one warm step.

    Returns (workspace seconds, workspace MB); the workspace figures are None
    when flow no longer exposes ``workspace``.
    """
    build = getattr(ef.flow, "workspace", None)
    ws_s, ws_mb = None, None
    if build is not None:
        ws_s, ws_mb, seen = 0.0, 0.0, set()
        for state in states:
            key = (state.grid.omega, state.grid.n)
            if key in seen:
                continue
            seen.add(key)
            t0 = time.perf_counter()
            ws = build(state.grid)
            ws_s += time.perf_counter() - t0
            ws_mb += sum(v.nbytes for v in vars(ws).values()
                         if isinstance(v, np.ndarray)) / 1e6
    ef.flow.step(states[0], 1e-9, scheme_cfg)
    return ws_s, ws_mb


# ---------------------------------------------------------------------------
# circle-rk4: criterion-01

CIRCLE_CASES = ((1, 1.5), (2, 4.0))   # (omega, t_end); r0 = 1, n = 32
CIRCLE_TOL = 1e-8


def circle_setup(seed, workdir):
    import entroflow as ef
    states, t_ends = [], []
    for omega, t_end in CIRCLE_CASES:
        grid = ef.PeriodicGrid(omega=omega, n=32)
        h = perturbed(grid, np.full(grid.n, 1.0), seed)
        states.append(ef.FlowState(support=ef.SupportGrid(ef.GridFunction(grid, h))))
        t_ends.append(t_end)
    cfg = ef.StepperConfig()
    ws_s, ws_mb = _prepare(ef, states, cfg)
    return SimpleNamespace(ef=ef, seed=seed, cfg=cfg, states=states, t_ends=t_ends,
                           workspace_s=ws_s, workspace_mb=ws_mb)


def circle_solve(st):
    return [st.ef.flow.evolve(s, t_end, st.cfg) for s, t_end in zip(st.states, st.t_ends)]


def circle_check(st, trs):
    """Seed 0: max|h - sqrt(1 + 2t)| <= 1e-8.  Other seeds: the exact
    semidiscrete law ||h||^2(t) = ||h0||^2 + 4*omega*pi*t to 1e-8 relative,
    and a final curve rounder than the initial one."""
    problems = []
    for s0, t_end, tr in zip(st.states, st.t_ends, trs):
        h0, h = s0.support.values, tr.final.support.values
        omega = s0.grid.omega
        if st.seed == 0:
            err = float(np.max(np.abs(h - math.sqrt(1.0 + 2.0 * t_end))))
            if not err <= CIRCLE_TOL:
                problems.append(f"omega={omega}: max|h - r(t)| = {err:.3e}")
        else:
            w = s0.grid.period / s0.grid.n
            gain = 4.0 * omega * math.pi * t_end
            law = abs((np.sum(h * h) - np.sum(h0 * h0)) * w / gain - 1.0)
            if not law <= CIRCLE_TOL:
                problems.append(f"omega={omega}: ||h||^2 law off by {law:.3e}")
            if not np.ptp(h) < np.ptp(h0):
                problems.append(f"omega={omega}: curve did not become rounder")
    digest = _digest(*(tr.final.support.values for tr in trs))
    return Outcome(not problems, "; ".join(problems), digest)


# ---------------------------------------------------------------------------
# rescaled-n48-records (criterion-09) and rescaled-n1024-operator

def rescaled_setup(n, t_end):
    def setup(seed, workdir):
        import entroflow as ef
        grid = ef.PeriodicGrid(omega=1, n=n)
        s0 = ef.ellipse_support(grid, 1.3, 1.0)
        h = perturbed(grid, s0.values / ef.integrate(s0.h), seed)
        state = ef.FlowState(support=ef.SupportGrid(ef.GridFunction(grid, h)),
                             variant="rescaled_chainrule")
        cfg = ef.StepperConfig(**RESCALED_STEPPER)
        ws_s, ws_mb = _prepare(ef, [state], cfg)
        return SimpleNamespace(ef=ef, seed=seed, cfg=cfg, state=state, t_end=t_end,
                               workspace_s=ws_s, workspace_mb=ws_mb)
    return setup


def rescaled_solve(st):
    tr = st.ef.flow.evolve(st.state, st.t_end, st.cfg, monitor_every=RESCALED_CADENCE)
    return tr, st.ef.diagnostics.run_monitors(tr)


def rescaled_check(st, out):
    """criterion-09's conditions: max|h - mean| <= 1e-4 at the end, every
    fitted seminorm decay rate > 0, and M12-convexity passing.  Other monitor
    failures (M11 at t = 0, see BENCHMARK.json) are counted, not gated."""
    tr, rep = out
    h = tr.final.support.values
    problems = []
    dev = float(np.max(np.abs(h - h.mean())))
    if not dev <= 1e-4:
        problems.append(f"max|h - mean| = {dev:.3e}")
    t = tr.record_series("t")
    for p in (1, 2, 3, 4):
        rate, _ = st.ef.diagnostics.fit_decay_rate(t, tr.record_series("h_seminorms")[:, p])
        if not rate > 0:
            problems.append(f"h{p} decay rate {rate}")
    conv = rep["M12-convexity"].status
    if conv != "pass":
        problems.append(f"M12-convexity {conv}")
    failing = sorted(c.name for c in rep.checks if c.status == "fail")
    return Outcome(not problems, "; ".join(problems), _digest(h),
                   {"monitor_fail_checks": len(failing), "monitor_failing": failing})


# ---------------------------------------------------------------------------
# cli-rescaled-artifacts: `entroflow rescaled --config ...`, in process

CLI_CONFIG = {
    "omega": 1, "n": 48, "variant": "rescaled_chainrule",
    "initial": {"kind": "ellipse", "a": 1.3, "b": 1.0},
    "t_end": 0.5,
    "stepper": {"dt_init": 5e-4, "safety": 0.9, "max_dt": 2e-3, "guard_ratio": 0.2,
                "scheme": "semi_implicit", "stabilization_coeff": 1.0},
    "monitor_every": 1e-3, "output_dir": "out", "seed": 0,
}


def cli_config(seed, workdir: Path) -> dict:
    """The run's config; other seeds read a perturbed ellipse from a file."""
    cfg = json.loads(json.dumps(CLI_CONFIG))
    cfg["output_dir"] = str(workdir / "out")
    if seed != 0:
        from entroflow import PeriodicGrid, ellipse_support
        grid = PeriodicGrid(omega=1, n=cfg["n"])
        h = perturbed(grid, ellipse_support(grid, 1.3, 1.0).values, seed)
        path = workdir / "initial_support.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in h))
        cfg["initial"] = {"kind": "support_file", "path": str(path)}
    return cfg


def cli_setup(seed, workdir):
    import entroflow as ef
    import entroflow.cli  # noqa: F401  (makes ef.cli available)
    workdir.mkdir(parents=True, exist_ok=True)
    data = cli_config(seed, workdir)
    path = workdir / "config.json"
    path.write_text(json.dumps(data, indent=2))
    cfg = ef.cli.RunConfig.from_json(path)
    state = ef.FlowState(support=ef.cli.build_initial_support(cfg), variant=cfg.variant)
    ws_s, ws_mb = _prepare(ef, [state], cfg.stepper)
    return SimpleNamespace(ef=ef, seed=seed, config=path, out=Path(cfg.output_dir),
                           workspace_s=ws_s, workspace_mb=ws_mb)


def cli_solve(st):
    # Solves of one process share one output directory, as repeated runs with
    # the same --out do: the first creates the 1006 files, later ones
    # overwrite them.  Creating a file cost ~0.4 ms of kernel time on the
    # ext4 (discard) disk this was written on, and that cost grew with the
    # file churn of earlier runs, moving the solve time by 20 % between runs.
    st.started = time.time()
    return st.ef.cli.main(["rescaled", "--config", str(st.config), "--out", str(st.out)])


def _read_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) if x else math.nan for x in line.strip().split(",")]
                for line in fh]
    return header, np.array(rows)


def compare_csv(seed, csv_path, ref_path=CLI_REFERENCE):
    """Problems found comparing a diagnostics CSV with the stored reference."""
    header, got = _read_table(csv_path)
    ref_header, ref = _read_table(ref_path)
    if header != ref_header or got.shape != ref.shape:
        return [f"CSV layout {len(header)}x{got.shape} differs from the reference"]
    cols = header if seed == 0 else CSV_COLUMNS_PERTURBED
    rtol = CSV_RTOL_SEED0 if seed == 0 else CSV_RTOL_PERTURBED
    problems = []
    for name in cols:
        j = header.index(name)
        err = float(np.max(np.abs(got[:, j] - ref[:, j])))
        scale = float(np.max(np.abs(ref[:, j])))
        if not err <= rtol * scale:
            problems.append(f"CSV column {name} off by {err:.3e} (> {rtol:g} * {scale:.3e})")
    return problems


def cli_check(st, status):
    """Exit 0, every artifact rewritten by this solve, every fitted decay
    rate > 0, and the CSV within the stated tolerance of the stored
    reference.  Byte identity with the seed-0 reference is reported as a
    count, not gated."""
    out = st.out
    problems = [] if status == 0 else [f"exit status {status}"]
    facts = {"files_written": 0, "bytes_written": 0, "csv_bit_identical": 0,
             "monitor_fail_checks": 0, "monitor_failing": []}
    digest = ""
    try:
        files = [p for p in out.iterdir() if p.is_file()]
        # file times come from the kernel's coarse clock, up to a tick early
        stale = [p.name for p in files if p.stat().st_mtime < st.started - 0.05]
        if stale:
            problems.append(f"{len(stale)} files not rewritten, e.g. {stale[0]}")
        facts["files_written"] = len(files)
        facts["bytes_written"] = sum(p.stat().st_size for p in files)
        rates = json.loads((out / "decay_rates.json").read_text())["fitted_decay_rates"]
        problems += [f"{k} decay rate {v['rate']}" for k, v in sorted(rates.items())
                     if not v["rate"] > 0]
        monitors = json.loads((out / "monitors.json").read_text())
        failing = sorted(k for k, v in monitors.items() if v["status"] == "fail")
        facts.update(monitor_fail_checks=len(failing), monitor_failing=failing)
        csv = (out / "diagnostics.csv").read_bytes()
        facts["csv_bit_identical"] = int(st.seed == 0 and csv == CLI_REFERENCE.read_bytes())
        problems += compare_csv(st.seed, out / "diagnostics.csv")
        last = sorted(out.glob("snapshot_*.txt"))[-1].read_bytes()
        digest = hashlib.sha256(csv + last).hexdigest()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"artifacts unreadable: {exc!r}")
    return Outcome(not problems, "; ".join(problems), digest, facts)


WORKLOADS = {w.name: w for w in (
    Workload("circle-rk4", circle_setup, circle_solve, circle_check),
    Workload("rescaled-n48-records", rescaled_setup(48, 3.2),
             rescaled_solve, rescaled_check),
    Workload("rescaled-n1024-operator", rescaled_setup(1024, 1.0),
             rescaled_solve, rescaled_check),
    Workload("cli-rescaled-artifacts", cli_setup, cli_solve, cli_check),
)}
