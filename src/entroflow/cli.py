"""Command-line front end: simulate, rescaled, crosscheck, verify, plots.

Configuration is a JSON object with exactly the RunConfig keys; command-line
flags override file values and unknown keys are rejected.  Exit codes:
0 success, 1 config, usage or validation failure, 2 flow breakdown,
3 monitor/residual failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import graph, verify
from .diagnostics import finite_or_none, fit_decay_rate, run_monitors, write_csv
from .errors import (ConfigError, CurveIngestionError, EntroflowError,
                     FlowBreakdownError, NotLocallyConvexError)
from .flow import (VARIANTS, FlowState, StepperConfig, check_record_count, evolve,
                   record_blocks, snapshot_format, write_snapshot)
from .spectral import GridFunction, PeriodicGrid
from .support import (SupportGrid, circle_support, ellipse_support,
                      fourier_support, read_curve_file, read_support_file,
                      reconstruct, support_from_curve, write_text)


class ExitStatus(IntEnum):
    OK = 0
    VALIDATION = 1
    BREAKDOWN = 2
    MONITOR = 3
    IO = 4


_INITIAL_KINDS = {
    "circle": {"r"},
    "ellipse": {"a", "b"},
    "fourier": {"constant", "modes"},
    "curve_file": {"path"},
    "support_file": {"path"},
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_modes(modes) -> None:
    """initial.modes is a list of [m, a, b]: m a number, not a bool (whether
    it is an integer below n/2 is fourier_support's check), and a, b finite
    numbers."""
    if not isinstance(modes, (list, tuple)):
        raise ConfigError(f"initial.modes must be a list of [m, a, b], got {modes!r}")
    for i, mode in enumerate(modes):
        if not (isinstance(mode, (list, tuple)) and len(mode) == 3):
            raise ConfigError(f"initial.modes[{i}] must be [m, a, b], got {mode!r}")
        m, a, b = mode
        if not _is_number(m):
            raise ConfigError(f"initial.modes[{i}] mode number must be a number, "
                              f"got {m!r}")
        for name, x in (("a", a), ("b", b)):
            if not (_is_number(x) and math.isfinite(x)):
                raise ConfigError(f"initial.modes[{i}] coefficient {name} must be "
                                  f"a finite number, got {x!r}")


@dataclass
class RunConfig:
    omega: int = 1
    n: int = 48
    variant: str = "unscaled"
    initial: dict = field(default_factory=lambda: {"kind": "circle", "r": 1.0})
    t_end: float = 1.0
    stepper: StepperConfig = field(default_factory=StepperConfig)
    monitor_every: float = 0.01
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        for name in ("omega", "n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        try:
            PeriodicGrid(omega=self.omega, n=self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(self.t_end, bool) or not self.t_end > 0:
            raise ConfigError(f"t_end must be a positive number, got {self.t_end}")
        every = self.monitor_every
        if not (_is_number(every) and math.isfinite(every) and every > 0):
            raise ConfigError(
                f"monitor_every must be a finite number > 0, got {every!r}")
        try:
            check_record_count(self.n, 0.0, self.t_end, every)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if not isinstance(self.initial, dict):
            raise ConfigError("initial must be an object")
        kind = self.initial.get("kind")
        if kind not in _INITIAL_KINDS:
            raise ConfigError(f"initial.kind must be one of {sorted(_INITIAL_KINDS)}")
        extra = set(self.initial) - _INITIAL_KINDS[kind] - {"kind"}
        if extra:
            raise ConfigError(f"unknown initial keys {sorted(extra)}")
        missing = _INITIAL_KINDS[kind] - set(self.initial)
        if missing:
            raise ConfigError(f"initial.{kind} requires keys {sorted(missing)}")
        for key in _INITIAL_KINDS[kind] & {"r", "a", "b", "constant"}:
            if isinstance(self.initial[key], bool):
                raise ConfigError(f"initial.{key} must be a number, got "
                                  f"{self.initial[key]}")
        if kind == "fourier":
            _check_modes(self.initial["modes"])
        path = self.initial.get("path", "")
        if not isinstance(path, str):
            raise ConfigError(f"initial.path must be a string, got {path!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be an object")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        sdata = data.get("stepper", {})
        if not isinstance(sdata, dict):
            raise ConfigError("stepper must be an object")
        sextra = set(sdata) - {f.name for f in fields(StepperConfig)}
        if sextra:
            raise ConfigError(f"unknown stepper keys {sorted(sextra)}")
        try:
            return cls(**dict(data, stepper=StepperConfig(**sdata)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(d["stepper"]["max_dt"]):
            d["stepper"]["max_dt"] = 1e308
        return d

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def write_json(self, path):
        write_text(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def build_initial_support(cfg: RunConfig) -> SupportGrid:
    grid = PeriodicGrid(omega=cfg.omega, n=cfg.n)
    init = cfg.initial
    kind = init["kind"]
    if kind == "circle":
        return circle_support(grid, init["r"])
    if kind == "ellipse":
        if cfg.omega != 1:
            raise ConfigError("ellipse initial data requires omega = 1")
        return ellipse_support(grid, init["a"], init["b"])
    if kind == "fourier":
        return fourier_support(grid, init["constant"],
                               [tuple(m) for m in init["modes"]])
    if kind == "curve_file":
        pts = read_curve_file(init["path"])
        return support_from_curve(pts, cfg.omega, n=cfg.n)
    if kind == "support_file":
        s = read_support_file(init["path"], cfg.omega)
        if s.n != cfg.n:
            raise ConfigError(
                f"support file has {s.n} lines but config requests n={cfg.n}")
        return s
    raise ConfigError(f"unhandled initial kind {kind}")


def _emit_artifacts(cfg: RunConfig, tr):
    """Write diagnostics.csv, a snapshot and a points file per recorded
    state, and effective_config.json into cfg.output_dir.

    The curves are reconstructed one record block at a time.  Names are
    plain str: pathlib interns every name it parses, which kept ~1 MB alive
    per thousand artifacts.
    """
    outdir = cfg.output_dir
    write_csv(tr.columns, os.path.join(outdir, "diagnostics.csv"))
    grid = tr.grid
    snapshot = snapshot_format(grid, tr.variant)
    points = "%.17g %.17g\n" * grid.n
    times = tr.times.tolist()
    for b in record_blocks(grid, len(times)):
        H = tr.H[b]
        P = reconstruct(SupportGrid(GridFunction(grid, H), validate=False)).points
        for i, h, p in zip(range(b.start, b.start + len(H)), H, P):
            write_text(os.path.join(outdir, f"snapshot_{i:06d}.txt"),
                       snapshot % (times[i], *h.tolist()))
            write_text(os.path.join(outdir, f"points_{i:06d}.txt"),
                       points % tuple(p.ravel().tolist()))
    cfg.write_json(os.path.join(outdir, "effective_config.json"))


def _simulate(cfg: RunConfig):
    """Run, write the artifacts, return (status, trajectory or None).  An
    OSError goes up to main's failure table."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    try:
        s0 = build_initial_support(cfg)
    except (NotLocallyConvexError, CurveIngestionError, TypeError,
            ValueError, OverflowError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return ExitStatus.VALIDATION, None
    state = FlowState(support=s0, time=0.0, variant=cfg.variant)
    try:
        tr = evolve(state, cfg.t_end, cfg.stepper, monitor_every=cfg.monitor_every)
    except FlowBreakdownError as exc:
        print(f"flow breakdown: {exc}", file=sys.stderr)
        if exc.last_state is not None:
            write_snapshot(os.path.join(cfg.output_dir, "breakdown_state.txt"),
                           exc.last_state)
        return ExitStatus.BREAKDOWN, None
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return ExitStatus.VALIDATION, None
    _emit_artifacts(cfg, tr)
    report = run_monitors(tr)
    report.to_json(os.path.join(cfg.output_dir, "monitors.json"))
    return (ExitStatus.OK if report.passed else ExitStatus.MONITOR), tr


def cmd_rescaled(cfg: RunConfig) -> ExitStatus:
    if cfg.variant == "unscaled":    # RunConfig's default variant
        cfg = replace(cfg, variant="rescaled_chainrule")
    status, tr = _simulate(cfg)
    if tr is None:
        return status
    # decay-rate fits and final roundness on top of the plain artifacts
    t = tr.record_series("t")
    seminorms = tr.record_series("h_seminorms")
    rates = {}
    for p in (1, 2, 3, 4):
        rate, used = fit_decay_rate(t, seminorms[:, p])
        rates[f"h{p}"] = {"rate": finite_or_none(rate), "records_used": used}
    h = tr.final.support.values
    payload = {"fitted_decay_rates": rates,
               "final_sup_deviation_from_mean": float(np.max(np.abs(h - h.mean())))}
    write_text(os.path.join(cfg.output_dir, "decay_rates.json"),
               json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return status


def cmd_crosscheck(cfg: RunConfig) -> ExitStatus:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    kind = cfg.initial.get("kind")
    radius = cfg.initial.get("r")    # set for circle bases only
    try:
        if kind not in ("circle", "ellipse"):
            raise ConfigError("crosscheck supports circle or ellipse bases")
        # the support first: it refuses semi-axes whose squares overflow,
        # which the scene would carry on with as inf and NaN
        s0 = build_initial_support(cfg)
        if kind == "circle":
            base = graph.scene_circle(radius, cfg.n)
        else:
            base = graph.scene_ellipse(cfg.initial["a"], cfg.initial["b"], cfg.n)
        graph.require_resolved(base)
    except (EntroflowError, TypeError, ValueError, OverflowError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return ExitStatus.VALIDATION

    rows = graph.crosscheck(base, cfg.seed * 1000, draws=20, radius=radius)
    rows.append(("parametrization_identity",
                 graph.check_parametrization_identity(s0),
                 graph.PARAMETRIZATION_TOL))
    write_text(outdir / "crosscheck.csv", "check,residual,threshold,pass\n" + "".join(
        f"{name},{value:.17g},{threshold:.3g},{int(value <= threshold)}\n"
        for name, value, threshold in rows))
    cfg.write_json(outdir / "effective_config.json")
    bad = [row for row in rows if not row[1] <= row[2]]
    for name, value, threshold in bad:
        print(f"residual failure: {name} = {value:.3e} > {threshold:.1e}",
              file=sys.stderr)
    return ExitStatus.OK if not bad else ExitStatus.MONITOR


GNUPLOT_TEMPLATE = """\
# gnuplot script generated by entroflow; run: gnuplot -p {name}
set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set logscale y
plot '{csv}' using 1:5 with lines title '||F||_2^2', \\
     '{csv}' using 1:7 with lines title '||h_theta||_2^2', \\
     '{csv}' using 1:11 with lines title 'int sigma^2'
"""


def cmd_plots(csv_path: str, out_path: str) -> ExitStatus:
    csv = Path(csv_path)
    if not csv.exists():
        raise FileNotFoundError(f"{csv} not found")
    script = Path(out_path)
    write_text(script, GNUPLOT_TEMPLATE.format(name=script.name, csv=csv))
    return ExitStatus.OK


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, so main reports it as it does a bad
    config value; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="entroflow",
        description="support-function flow laboratory for convex planar curves")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--t-end", type=float, dest="t_end")
        p.add_argument("--variant", choices=VARIANTS)

    for name in ("simulate", "rescaled", "crosscheck"):
        common(sub.add_parser(name))
    pv = sub.add_parser("verify")
    pv.add_argument("suite", choices=sorted(verify.SUITES))
    pp = sub.add_parser("plots")
    pp.add_argument("csv")
    pp.add_argument("--out", default="plots.gp")
    return ap


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    flags = {"output_dir": args.out, "seed": args.seed, "n": args.n,
             "t_end": args.t_end, "variant": args.variant}
    # replace() re-runs RunConfig's validation on the overridden values
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    """Run one command.  A ConfigError (usage errors included) or a config
    file that is not JSON text exits 1 and an OSError exits 4, each with one stderr line; the
    commands report their own validation failures and breakdowns."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            passed = all(r.passed for r in verify.run_suite(args.suite))
            return int(ExitStatus.OK if passed else ExitStatus.MONITOR)
        if args.command == "plots":
            return int(cmd_plots(args.csv, args.out))
        cfg = _load_config(args)
        if args.command == "simulate":
            return int(_simulate(cfg)[0])
        if args.command == "rescaled":
            return int(cmd_rescaled(cfg))
        return int(cmd_crosscheck(cfg))
    except (ConfigError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return int(ExitStatus.VALIDATION)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return int(ExitStatus.IO)


if __name__ == "__main__":
    sys.exit(main())
