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
from .diagnostics import (compute_record, finite_or_none, fit_decay_rate,
                          run_monitors, write_csv)
from .errors import ConfigError, EntroflowError, FlowBreakdownError
from .flow import (NUMBER, STEPPER_ROWS, VARIANTS, FlowState, StepperConfig,
                   check_key, check_record_count, evolve, record_blocks,
                   snapshot_format, write_snapshot)
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


# config rows, (what, types, range) as in flow.STEPPER_ROWS.  A range that
# needs the grid is checked where it lives: PeriodicGrid's for omega and n,
# and fourier_support's for each m.
_OBJECT = ("an object", dict, None)
_NUMBER = ("a number", NUMBER, None)
_FINITE = ("a finite number", NUMBER, math.isfinite)
_STRING = ("a string", str, None)
_ROWS = {
    "omega": ("an integer", int, None),
    "n": ("an integer", int, None),
    "variant": (f"one of {VARIANTS}", str, VARIANTS.__contains__),
    "t_end": ("a number > 0", NUMBER, lambda x: x > 0),
    "monitor_every": ("a finite number > 0", NUMBER, lambda x: 0 < x < math.inf),
    "output_dir": _STRING,
    "seed": ("a non-negative integer", int, lambda x: x >= 0),
}
_MODE = ("[m, a, b]", (list, tuple), lambda x: len(x) == 3)


def _modes_in_range(modes) -> bool:
    """Check each initial.modes[i] = [m, a, b] by its rows: m a number, a
    and b finite."""
    for i, mode in enumerate(modes):
        check_key(f"initial.modes[{i}]", mode, _MODE)
        for name, x, row in zip(("mode number", "coefficient a", "coefficient b"),
                                mode, (_NUMBER, _FINITE, _FINITE)):
            check_key(f"initial.modes[{i}] {name}", x, row)
    return True


# ellipse_support squares a semi-axis as a Python float, which raises
# OverflowError above this root of the largest float
_ROOT = math.sqrt(sys.float_info.max)
_SEMI_AXIS = (f"a number > 0 with a finite square, x <= {_ROOT:.6g}", NUMBER,
              lambda x: 0 < x <= _ROOT)
_INITIAL_KINDS = {
    "circle": {"r": ("a finite number > 0", NUMBER, lambda x: 0 < x < math.inf)},
    "ellipse": {"a": _SEMI_AXIS, "b": _SEMI_AXIS},
    "fourier": {"constant": _FINITE,
                "modes": ("a list of [m, a, b]", (list, tuple), _modes_in_range)},
    "curve_file": {"path": _STRING},
    "support_file": {"path": _STRING},
}
_KIND = (f"one of {sorted(_INITIAL_KINDS)}", str, _INITIAL_KINDS.__contains__)


def _refuse_unknown(prefix, data, known, where) -> None:
    """Raise ConfigError naming the first key of data not in known."""
    for key in data:
        if key not in known:
            raise ConfigError(f"{prefix}{key} is not a key{where}, got {data[key]!r}")


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
        """Check each key by its row, then the rules that span keys."""
        for key, row in _ROWS.items():
            check_key(key, getattr(self, key), row)
        try:
            PeriodicGrid(omega=self.omega, n=self.n)
            check_record_count(self.n, 0.0, self.t_end, self.monitor_every)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        check_key("initial", self.initial, _OBJECT)
        kind = self.initial.get("kind")
        check_key("initial.kind", kind, _KIND)
        rows = _INITIAL_KINDS[kind]
        _refuse_unknown("initial.", self.initial, {"kind", *rows}, f" of kind {kind}")
        for key, row in rows.items():
            if key not in self.initial:
                raise ConfigError(f"initial.{key} is required by kind {kind}")
            check_key(f"initial.{key}", self.initial[key], row)
        if kind == "ellipse" and self.omega != 1:
            raise ConfigError("ellipse initial data requires omega = 1")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        check_key("config", data, _OBJECT)
        _refuse_unknown("", data, {f.name for f in fields(cls)}, "")
        sdata = data.get("stepper", {})
        check_key("stepper", sdata, _OBJECT)
        _refuse_unknown("stepper.", sdata, STEPPER_ROWS, " of stepper")
        return cls(**dict(data, stepper=StepperConfig(**sdata)))

    def to_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(d["stepper"]["max_dt"]):
            d["stepper"]["max_dt"] = 1e308
        return d

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """The config in the file at path; text that is not UTF-8 JSON is a
        ConfigError, so main tells it from a data file that is not UTF-8."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc)) from exc
        return cls.from_dict(data)

    def write_json(self, path):
        write_text(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def build_initial_support(cfg: RunConfig) -> SupportGrid:
    grid = PeriodicGrid(omega=cfg.omega, n=cfg.n)
    init = cfg.initial
    kind = init["kind"]
    if kind == "circle":
        return circle_support(grid, init["r"])
    if kind == "ellipse":
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
            raise ValueError(
                f"support file has {s.n} lines but config requests n={cfg.n}")
        return s


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
    """Run, write the artifacts, return (status, trajectory or None).  A
    refusal of the data or the run, and an OSError, go up to main's failure
    table; a breakdown is reported here, with the last state written."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    s0 = build_initial_support(cfg)
    # valid data can overflow a functional: h^2 of a huge curve, k^3 of a tiny one
    with np.errstate(all="ignore"):
        record = vars(compute_record(s0, 0.0, 0.0))
    bad = [k for k, v in record.items() if v is not None and not np.all(np.isfinite(v))]
    if bad:
        raise ValueError("initial data overflows the record functionals "
                         f"({', '.join(bad)})")
    state = FlowState(support=s0, time=0.0, variant=cfg.variant)
    try:
        tr = evolve(state, cfg.t_end, cfg.stepper, monitor_every=cfg.monitor_every)
    except FlowBreakdownError as exc:
        print(f"flow breakdown: {exc}", file=sys.stderr)
        if exc.last_state is not None:
            write_snapshot(os.path.join(cfg.output_dir, "breakdown_state.txt"),
                           exc.last_state)
        return ExitStatus.BREAKDOWN, None
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
    if kind not in ("circle", "ellipse"):
        raise ValueError("crosscheck supports circle or ellipse bases")
    # the support first: it refuses semi-axes too unequal for a convex
    # curve on the grid (a = 1e-100), on which the scene divides by zero
    s0 = build_initial_support(cfg)
    if kind == "circle":
        base = graph.scene_circle(radius, cfg.n)
    else:
        base = graph.scene_ellipse(cfg.initial["a"], cfg.initial["b"], cfg.n)
    graph.require_resolved(base)
    # a draw may leave a composite curve that is not locally convex
    # (n = 22 on the default circle)
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
    """Run one command.  A ConfigError (usage errors and a config file
    that is not UTF-8 JSON included) exits 1 as a config error, any other
    refusal of the data or the run (EntroflowError, ValueError,
    OverflowError) exits 1 as a validation failure, and an OSError exits 4,
    each with one stderr line; a command reports only its breakdowns and
    monitor or residual failures."""
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return int(ExitStatus.VALIDATION)
    except (EntroflowError, ValueError, OverflowError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return int(ExitStatus.VALIDATION)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return int(ExitStatus.IO)


if __name__ == "__main__":
    sys.exit(main())
