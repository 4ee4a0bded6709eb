import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import entroflow.flow as flow
import entroflow.graph as graph
from entroflow.cli import (GNUPLOT_TEMPLATE, ExitStatus, RunConfig, _simulate,
                           build_initial_support, main)
from entroflow.diagnostics import CSV_HEADER, read_csv
from entroflow.errors import ConfigError, NotLocallyConvexError
from entroflow.flow import FlowState, read_snapshot, write_snapshot
from entroflow.spectral import GridFunction, PeriodicGrid
from entroflow.support import SupportGrid, fourier_support, reconstruct


def fast_config(tmp_path, **over):
    data = {
        "omega": 1, "n": 16,
        "variant": "unscaled",
        "initial": {"kind": "circle", "r": 1.0},
        "t_end": 0.05,
        "stepper": {"dt_init": 1e-3, "safety": 0.9, "max_dt": 1e308,
                    "guard_ratio": 0.2, "scheme": "explicit_rk4",
                    "stabilization_coeff": 1.0},
        "monitor_every": 0.01,
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    data.update(over)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def strict_json(path):
    """The JSON in path, refusing NaN and +-Infinity as strict parsers do."""
    def refuse(constant):
        raise ValueError(f"{path.name}: non-standard JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"omega": 1, "bogus": 2})

    def test_unknown_stepper_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"stepper": {"dt": 1.0}})

    def test_unknown_initial_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"initial": {"kind": "circle", "r": 1, "x": 2}})

    def test_round_trip(self, tmp_path):
        cfg = RunConfig.from_dict(fast_config(tmp_path))
        p = tmp_path / "eff.json"
        cfg.write_json(p)
        cfg2 = RunConfig.from_json(p)
        assert cfg2.to_dict() == cfg.to_dict()

    def test_initial_builders(self, tmp_path):
        cfg = RunConfig.from_dict(fast_config(
            tmp_path, initial={"kind": "ellipse", "a": 1.3, "b": 1.0}))
        s = build_initial_support(cfg)
        assert s.n == 16
        cfg = RunConfig.from_dict(fast_config(
            tmp_path, initial={"kind": "fourier", "constant": 1.0,
                               "modes": [[2, 0.1, 0.0]]}))
        assert build_initial_support(cfg).values[0] == pytest.approx(1.1)


class TestSimulate:
    def test_circle_run_artifacts(self, tmp_path):
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        assert main(["simulate", "--config", str(cfgp)]) == 0
        out = tmp_path / "out"
        assert (out / "diagnostics.csv").exists()
        assert (out / "monitors.json").exists()
        assert (out / "effective_config.json").exists()
        snaps = sorted(out.glob("snapshot_*.txt"))
        assert len(snaps) == 6
        lines = snaps[-1].read_text().splitlines()
        assert lines[0] == "# omega=1"
        assert lines[1] == "# n=16"
        h = float(lines[4])
        assert h == pytest.approx(math.sqrt(1 + 2 * 0.05), abs=1e-10)
        pts = np.loadtxt(out / "points_000005.txt")
        assert pts.shape == (16, 2)

    def test_ellipse_text_artifacts(self, tmp_path):
        # each snapshot reads back == to its trajectory row, and each points
        # file holds the "%.17g %.17g" rows of its snapshot's reconstruction
        cfg = RunConfig.from_dict(fast_config(
            tmp_path, n=32, monitor_every=0.001,
            initial={"kind": "ellipse", "a": 1.3, "b": 1.0}))
        status, tr = _simulate(cfg)
        assert status == 0
        out = tmp_path / "out"
        assert len(sorted(out.glob("points_*.txt"))) == len(tr.times) == 51
        for i in range(len(tr.times)):
            snap = read_snapshot(out / f"snapshot_{i:06d}.txt")
            assert snap.time == tr.times[i]
            assert np.array_equal(snap.support.values, tr.H[i])
            rows = "".join("%.17g %.17g\n" % tuple(p)
                           for p in reconstruct(snap.support).points)
            assert (out / f"points_{i:06d}.txt").read_text() == rows

    def test_translated_snapshots_read_back(self, tmp_path):
        # mode 1 translates the curve; the flow carries the origin outside
        # it (h < 0 from the first record on) while h_thth + h stays positive
        cfg = RunConfig.from_dict(fast_config(
            tmp_path, n=48, monitor_every=1e-3,
            initial={"kind": "fourier", "constant": 1.0,
                     "modes": [[1, 1.29, 0.0], [2, 0.3, 0.0]]}))
        status, tr = _simulate(cfg)
        assert status == ExitStatus.MONITOR
        assert len(tr.times) == 51 and np.min(tr.H[1]) < 0.0
        out = tmp_path / "out"
        for i in range(len(tr.times)):
            snap = read_snapshot(out / f"snapshot_{i:06d}.txt")
            assert np.array_equal(snap.support.values, tr.H[i])
        # a file that is not strictly locally convex is still refused, by
        # its convexity and not by the sign of h
        g = PeriodicGrid(omega=1, n=48)
        bad = SupportGrid(GridFunction(g, 0.3 + 0.8 * np.cos(2 * g.nodes)),
                          validate=False)
        write_snapshot(out / "bad.txt", FlowState(support=bad))
        with pytest.raises(NotLocallyConvexError, match="not strictly locally convex"):
            read_snapshot(out / "bad.txt")

    @pytest.mark.parametrize("mode", [[1.5, 0.001, 0.0], [30, 1e-4, 0.0]],
                             ids=["non_integer", "aliased"])
    def test_fourier_mode_refused_exit1(self, tmp_path, capsys, mode):
        # at n = 32, m = 1.5 gives an h that jumps at theta = 2 pi, and the
        # grid samples m = 30 as mode 2
        with pytest.raises(ValueError, match=f"fourier mode m={mode[0]} "):
            fourier_support(PeriodicGrid(omega=1, n=32), 1.0, [tuple(mode)])
        cfgp = write_config(tmp_path, fast_config(
            tmp_path, n=32,
            initial={"kind": "fourier", "constant": 1.0, "modes": [mode]}))
        assert main(["simulate", "--config", str(cfgp)]) == ExitStatus.VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"validation failure: fourier mode m={mode[0]} ")

    @pytest.mark.parametrize("modes,want", [
        ([[True, 1e-4, 0.0]], "initial.modes[0] mode number must be a number"),
        ([[2, 0.1, 0.0], ["x", 1e-4, 0.0]],
         "initial.modes[1] mode number must be a number"),
        ([[2, 0.1, 0.0, 0.0]], "initial.modes[0] must be [m, a, b]"),
        ([2], "initial.modes[0] must be [m, a, b]"),
        ([[2, "0.1", 0.0]], "initial.modes[0] coefficient a must be a finite"),
        ({"2": [0.1, 0.0]}, "initial.modes must be a list of [m, a, b]"),
    ], ids=["bool", "string", "arity", "entry_not_list", "coeff_string",
            "not_list"])
    def test_fourier_modes_config_error_exit1(self, tmp_path, capsys, modes, want):
        cfgp = write_config(tmp_path, fast_config(
            tmp_path, n=32,
            initial={"kind": "fourier", "constant": 1.0, "modes": modes}))
        assert main(["simulate", "--config", str(cfgp)]) == ExitStatus.VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {want}")
        assert not (tmp_path / "out").exists()

    def test_monitor_failure_exit3(self, tmp_path):
        # a strongly non-round datum at coarse cadence: the centered-difference
        # identities cannot resolve its fast start
        data = fast_config(tmp_path, n=48, t_end=0.05, monitor_every=1e-3,
                           initial={"kind": "fourier", "constant": 1.0,
                                    "modes": [[2, 0.3, 0.0]]})
        cfgp = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfgp)]) == ExitStatus.MONITOR
        monitors = json.loads((tmp_path / "out" / "monitors.json").read_text())
        failing = sorted(k for k, v in monitors.items() if v["status"] == "fail")
        assert failing == ["M1", "M11", "M3", "M7", "M8", "M9"]

    def test_monitors_json_is_strict(self, tmp_path):
        # M10's threshold is first met at the last record, so its slack is the
        # max of no differences, -inf: written as null, as is every NaN
        data = fast_config(tmp_path, n=32, t_end=0.064, monitor_every=0.032,
                           initial={"kind": "ellipse", "a": 1.04, "b": 1.0})
        assert main(["simulate", "--config", str(write_config(tmp_path, data))]) \
            in (ExitStatus.OK, ExitStatus.MONITOR)
        monitors = strict_json(tmp_path / "out" / "monitors.json")
        assert monitors["M10"]["status"] == "pass"
        assert monitors["M10"]["slack"] is None

    def test_breakdown_exit2(self, tmp_path, capsys, monkeypatch):
        # every attempt returns a state with negative h_thth + h
        monkeypatch.setattr(flow, "_rk4_attempt", lambda *run: lambda h, w, *a: (h, -w))
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        assert main(["simulate", "--config", str(cfgp)]) == ExitStatus.BREAKDOWN
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("flow breakdown:")
        last = read_snapshot(tmp_path / "out" / "breakdown_state.txt")
        assert last.time == 0.0
        assert np.array_equal(last.support.values, np.ones(16))

    @pytest.mark.parametrize("command,name", [
        ("simulate", "snapshot_000001.txt"),
        ("simulate", "monitors.json"),
        ("rescaled", "decay_rates.json"),
    ])
    def test_artifact_write_failure_exit4(self, tmp_path, capsys, command, name):
        # a directory stands where the artifact goes, so writing it fails
        (tmp_path / "out" / name).mkdir(parents=True)
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        assert main([command, "--config", str(cfgp), "--t-end", "0.02"]) == ExitStatus.IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")

    def test_breakdown_state_write_failure_exit4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(flow, "_rk4_attempt", lambda *run: lambda h, w, *a: (h, -w))
        (tmp_path / "out" / "breakdown_state.txt").mkdir(parents=True)
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        assert main(["simulate", "--config", str(cfgp)]) == ExitStatus.IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("flow breakdown:")
        assert err[1].startswith("i/o error:")

    def test_rk4_step_cap_exit1(self, tmp_path, capsys):
        # RK4 at n = 32768 would take ~3e14 steps to t = 0.01
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        argv = ["simulate", "--config", str(cfgp), "--n", "32768", "--t-end", "0.01"]
        assert main(argv) == ExitStatus.VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure: explicit RK4")

    def test_semi_implicit_step_cap_exit1(self, tmp_path, capsys, monkeypatch):
        # max_dt = 1e-12 bounds every semi-implicit dt: 1e12 steps to t = 1,
        # refused before any attempt (one would fail this test, not hang it)
        monkeypatch.setattr(flow, "_semi_implicit_attempt",
                            lambda *a: pytest.fail("a refused run made an attempt"))
        cfgp = write_config(tmp_path, fast_config(
            tmp_path, n=32, t_end=1.0, monitor_every=0.5,
            stepper={"scheme": "semi_implicit", "max_dt": 1e-12}))
        assert main(["simulate", "--config", str(cfgp)]) == ExitStatus.VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure: semi_implicit")

    def test_invalid_initial_exit1(self, tmp_path):
        data = fast_config(tmp_path, initial={
            "kind": "fourier", "constant": 1.0, "modes": [[2, 0.8, 0.0]]})
        cfgp = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfgp)]) == 1

    def test_unknown_config_key_exit1(self, tmp_path):
        data = fast_config(tmp_path)
        data["typo"] = True
        cfgp = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfgp)]) == 1

    def test_missing_curve_file_exit4(self, tmp_path):
        data = fast_config(tmp_path, initial={"kind": "curve_file",
                                              "path": str(tmp_path / "nope.txt")})
        cfgp = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfgp)]) == 4

    @pytest.mark.parametrize("flag", [["--n", "7"], ["--t-end", "-1"]],
                             ids=["n_odd", "t_end_negative"])
    def test_bad_flag_value_exit1(self, tmp_path, capsys, flag):
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        assert main(["simulate", "--config", str(cfgp)] + flag) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("command,over", [
        ("simulate", {"stepper": {"safety": 0}}),
        ("simulate", {"stepper": 3}),
        ("simulate", {"stepper": {"dt_init": "x"}}),
        ("simulate", {"initial": 3}),
        ("simulate", {"initial": {"kind": "circle", "r": -1}}),
        ("crosscheck", {"initial": {"kind": "circle", "r": -1}}),
        ("simulate", {"initial": {"kind": "ellipse", "a": 1, "b": 0}}),
        ("simulate", {"initial": {"kind": "fourier", "constant": 1,
                                  "modes": [[2, 0.1]]}}),
        ("simulate", {"monitor_every": "x"}),
        ("simulate", {"monitor_every": 0}),
        ("simulate", {"monitor_every": -1}),
        ("simulate", {"monitor_every": float("inf")}),
        ("simulate", {"monitor_every": True}),
        ("crosscheck", {"seed": "x"}),
        ("crosscheck", {"seed": 1.5}),
        ("crosscheck", {"seed": True}),
        ("simulate", {"output_dir": 3}),
        ("crosscheck", {"output_dir": 3}),
        ("simulate", {"stepper": {"scheme": "semi_implicit", "dt_init": math.nan}}),
        ("simulate", {"stepper": {"scheme": "semi_implicit",
                                  "stabilization_coeff": math.nan}}),
        ("simulate", {"stepper": {"max_dt": math.nan}}),
        ("simulate", {"omega": True}),
        ("simulate", {"omega": 2.0}),
        ("simulate", {"n": 48.0}),
        ("simulate", {"n": True}),
    ], ids=["safety_zero", "stepper_not_object", "dt_init_string",
            "initial_not_object", "circle_negative_r", "crosscheck_negative_r",
            "ellipse_flat", "fourier_mode_pair", "monitor_every_string",
            "monitor_every_zero", "monitor_every_negative", "monitor_every_inf",
            "monitor_every_bool", "seed_string", "seed_float", "seed_bool",
            "output_dir_number", "crosscheck_output_dir_number", "dt_init_nan",
            "stabilization_coeff_nan", "max_dt_nan", "omega_bool", "omega_float",
            "n_float", "n_bool"])
    def test_bad_config_value_exit1(self, tmp_path, capsys, command, over):
        cfgp = write_config(tmp_path, fast_config(tmp_path, **over))
        assert main([command, "--config", str(cfgp)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("over", [
        {"t_end": True},
        {"initial": {"kind": "circle", "r": True}},
        {"initial": {"kind": "ellipse", "a": True, "b": 0.8}},
        {"initial": {"kind": "ellipse", "a": 1.0, "b": True}},
        {"initial": {"kind": "fourier", "constant": True, "modes": []}},
        *({"stepper": {key: True}} for key in (
            "dt_init", "safety", "max_dt", "guard_ratio", "stabilization_coeff")),
    ], ids=["t_end", "r", "a", "b", "constant", "dt_init", "safety", "max_dt",
            "guard_ratio", "stabilization_coeff"])
    def test_bool_number_exit1(self, tmp_path, capsys, over):
        # JSON true is not a number, though Python's True == 1
        cfgp = write_config(tmp_path, fast_config(tmp_path, **over))
        assert main(["simulate", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "must be a" in err[0] and "True" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data,key,shown", [
        ({"initial": {"kind": "circle", "r": "x"}}, "initial.r", "'x'"),
        ({"initial": {"kind": "fourier", "constant": "x", "modes": []}},
         "initial.constant", "'x'"),
        ({"initial": {"kind": {}}}, "initial.kind", "{}"),
        ({"t_end": "x"}, "t_end", "'x'"),
        ({"stepper": {"safety": "x"}}, "stepper.safety", "'x'"),
        ({"stepper": {"max_dt": "x"}}, "stepper.max_dt", "'x'"),
        ({"stepper": {"dt_init": None}}, "stepper.dt_init", "None"),
        ({"initial": {"kind": "circle", "r": None}}, "initial.r", "None"),
        ({"t_end": 10**400}, "t_end", str(10**400)),
        ({"stepper": {"max_dt": 10**400}}, "stepper.max_dt", str(10**400)),
        ({"initial": {"kind": "fourier", "constant": 1, "modes": [[2, 10**400, 0]]}},
         "initial.modes[0] coefficient a", str(10**400)),
        ({"initial": {"kind": "circle", "r": -1}}, "initial.r", "-1"),
        ({"initial": {"kind": "circle", "r": math.nan}}, "initial.r", "nan"),
        ({"initial": {"kind": "ellipse", "a": 1.3, "b": 0}}, "initial.b", "0"),
        ({"initial": {"kind": "fourier", "constant": math.nan, "modes": []}},
         "initial.constant", "nan"),
    ], ids=["r_string", "constant_string", "kind_object", "t_end_string",
            "safety_string", "max_dt_string", "dt_init_null", "r_null",
            "t_end_huge_int", "max_dt_huge_int", "coefficient_huge_int",
            "r_negative", "r_nan", "b_zero", "constant_nan"])
    def test_refusal_names_key(self, tmp_path, capsys, data, key, shown):
        # a value of the wrong type is refused by its key, before a
        # comparison, a hash or build_initial_support meets it; so is a JSON
        # int too large for a float, which float() refuses (OverflowError),
        # and a value out of the range the builder would refuse
        cfgp = write_config(tmp_path, data)
        argv = ["simulate", "--config", str(cfgp), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key} "), err
        assert err[0].endswith(f", got {shown}"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("over,flag,cap", [
        ({"monitor_every": 1e-9, "t_end": 1.0}, [], "cap of 100000"),
        ({"monitor_every": 0.01}, ["--t-end", "1e4"], "cap of 100000"),
        ({"n": 32768, "monitor_every": 1.0 / 2000, "t_end": 1.0}, [],
         f"cap of {flow.MAX_RECORD_BYTES} bytes"),
    ], ids=["fine_cadence", "long_t_end_flag", "record_bytes"])
    def test_record_cap_exit1(self, tmp_path, capsys, over, flag, cap):
        # 1e9 and 1e6 records, and 2,002 records of n = 32768 (537 MB),
        # refused before the events, the record array or the workspace
        cfgp = write_config(tmp_path, fast_config(tmp_path, **over))
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfgp)] + flag) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert cap in err[0]
        assert peak < 1e7
        assert not (tmp_path / "out").exists()

    def test_flag_overrides(self, tmp_path):
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        out2 = tmp_path / "other"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out2),
                     "--n", "32", "--t-end", "0.02"]) == 0
        eff = json.loads((out2 / "effective_config.json").read_text())
        assert eff["n"] == 32
        assert eff["t_end"] == 0.02

    def test_determinism(self, tmp_path):
        a = fast_config(tmp_path, n=32, monitor_every=1e-3,
                        output_dir=str(tmp_path / "a"),
                        initial={"kind": "ellipse", "a": 1.3, "b": 1.0})
        b = dict(a, output_dir=str(tmp_path / "b"))
        assert main(["simulate", "--config", str(write_config(tmp_path, a, "a.json"))]) == 0
        assert main(["simulate", "--config", str(write_config(tmp_path, b, "b.json"))]) == 0
        csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b
        mon_a = (tmp_path / "a" / "monitors.json").read_bytes()
        mon_b = (tmp_path / "b" / "monitors.json").read_bytes()
        assert mon_a == mon_b

    def test_support_file_initial(self, tmp_path):
        sup = tmp_path / "h.txt"
        sup.write_text("".join("1.0\n" for _ in range(16)))
        data = fast_config(tmp_path,
                           initial={"kind": "support_file", "path": str(sup)})
        cfgp = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfgp)]) == 0

    def test_curve_file_initial(self, tmp_path):
        # the polygonal sup carries O((pi/m)^2) noise that fourth-derivative
        # diagnostics amplify, so the polyline must be dense
        phi = np.arange(32768) * 2 * math.pi / 32768
        pts = np.stack([1.3 * np.cos(phi), np.sin(phi)], axis=1)
        cf = tmp_path / "curve.txt"
        np.savetxt(cf, pts)
        data = fast_config(tmp_path, n=32, monitor_every=1e-3,
                           initial={"kind": "curve_file", "path": str(cf)})
        cfgp = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfgp)]) == 0

    def test_immersed_points_file_round_trip(self, tmp_path):
        # an omega = 2 run's own points file, read back as an omega = 2
        # curve_file, starts from the run's initial curve
        src = fast_config(tmp_path, omega=2, n=32, t_end=0.01, monitor_every=0.01,
                          initial={"kind": "fourier", "constant": 1.0,
                                   "modes": [[3, 0.02, 0.0]]})
        assert main(["simulate", "--config", str(write_config(tmp_path, src))]) == 0
        out = tmp_path / "out"
        back = fast_config(tmp_path, omega=2, n=32, t_end=0.01, monitor_every=0.01,
                           output_dir=str(tmp_path / "back"),
                           initial={"kind": "curve_file",
                                    "path": str(out / "points_000000.txt")})
        assert main(["simulate", "--config",
                     str(write_config(tmp_path, back, "back.json"))]) == 0
        h0 = read_snapshot(out / "snapshot_000000.txt").support.values
        h1 = read_snapshot(tmp_path / "back" / "snapshot_000000.txt").support.values
        assert np.max(np.abs(h1 - h0)) < 2e-4


class TestRescaled:
    def test_rescaled_paper_stationary(self, tmp_path):
        data = fast_config(tmp_path, variant="rescaled_paper", t_end=0.2,
                           monitor_every=0.05)
        data["stepper"]["scheme"] = "semi_implicit"
        data["stepper"]["max_dt"] = 1e-3
        cfgp = write_config(tmp_path, data)
        assert main(["rescaled", "--config", str(cfgp)]) == 0
        out = tmp_path / "out"
        assert (out / "decay_rates.json").exists()
        last = sorted(out.glob("snapshot_*.txt"))[-1]
        vals = [float(x) for x in last.read_text().splitlines()[4:]]
        assert max(abs(v - 1.0) for v in vals) < 1e-12

    def test_breakdown_exit2(self, tmp_path, capsys, monkeypatch):
        # as under simulate: one line, and the last state is the only
        # artifact, with no decay-rate fits
        monkeypatch.setattr(flow, "_rk4_attempt", lambda *run: lambda h, w, *a: (h, -w))
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        assert main(["rescaled", "--config", str(cfgp)]) == ExitStatus.BREAKDOWN
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("flow breakdown:")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["breakdown_state.txt"]

    def test_chainrule_fixed_point(self, tmp_path):
        data = fast_config(tmp_path, variant="rescaled_chainrule", t_end=0.01,
                           monitor_every=0.002,
                           initial={"kind": "circle", "r": 1.0 / (2 * math.pi)})
        cfgp = write_config(tmp_path, data)
        assert main(["rescaled", "--config", str(cfgp)]) == 0
        last = sorted((tmp_path / "out").glob("snapshot_*.txt"))[-1]
        vals = [float(x) for x in last.read_text().splitlines()[4:]]
        assert max(abs(v - 1 / (2 * math.pi)) for v in vals) < 1e-12

    def test_fits_ignore_stale_snapshots(self, tmp_path):
        # a longer earlier run leaves later-numbered snapshots in the directory
        data = fast_config(tmp_path, variant="rescaled_chainrule", t_end=0.01,
                           monitor_every=0.002,
                           initial={"kind": "circle", "r": 1.0 / (2 * math.pi)})
        out = tmp_path / "out"
        out.mkdir()
        stale = 1.0 + 0.01 * np.cos(2 * np.arange(16) * math.pi / 8)
        (out / "snapshot_999999.txt").write_text(
            "# omega=1\n# n=16\n# t=9\n# variant=rescaled_chainrule\n"
            + "".join(f"{v:.17g}\n" for v in stale))
        assert main(["rescaled", "--config", str(write_config(tmp_path, data))]) == 0
        fits = json.loads((out / "decay_rates.json").read_text())
        assert fits["final_sup_deviation_from_mean"] < 1e-12

    def test_overwrite_leaves_no_stale_tail(self, tmp_path):
        # the n = 64 run leaves longer files behind; the n = 48 run over them
        # must leave exactly what it writes into a fresh directory
        data = fast_config(tmp_path, initial={"kind": "ellipse", "a": 1.3, "b": 1.0})
        data["stepper"].update(scheme="semi_implicit", max_dt=1e-3)
        cfgp = write_config(tmp_path, data)
        over, fresh = tmp_path / "over", tmp_path / "fresh"
        for out, n in ((over, "64"), (over, "48"), (fresh, "48")):
            assert main(["rescaled", "--config", str(cfgp), "--out", str(out),
                         "--n", n]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert len(names) == 16
        assert sorted(p.name for p in over.iterdir()) == names
        for name in names:
            got, want = (over / name).read_bytes(), (fresh / name).read_bytes()
            if name == "effective_config.json":
                got, want = (dict(json.loads(x), output_dir=None) for x in (got, want))
            assert got == want, name

    @pytest.mark.parametrize("omega,scheme,unit,t_end,every,max_dt", [
        # slow-time span 2.5 at omega = 2: 8 omega^2 pi^2 * span = 790 > 709
        pytest.param(2, "semi_implicit", 1.0, 2.5, 0.01, 1e-2, id="omega2"),
        # times in units of 1/(8 omega^2 pi^2): span 720, and RK4 held to
        # dt = 2 units, inside its stability interval
        pytest.param(1000, "explicit_rk4", 1.0 / (8e6 * math.pi**2), 720.0, 36.0,
                     2.0, id="omega1000"),
    ])
    def test_long_span_monitors_written(self, tmp_path, omega, scheme, unit,
                                        t_end, every, max_dt):
        # M12-length's tau_max = expm1(8 omega^2 pi^2 * span) / (8 omega^2
        # pi^2) is past exp's range here; every value must stay finite
        data = fast_config(tmp_path, omega=omega, n=32, variant="rescaled_chainrule",
                           t_end=t_end * unit, monitor_every=every * unit,
                           initial={"kind": "circle", "r": 1.0 / (2 * omega * math.pi)})
        data["stepper"].update(scheme=scheme, max_dt=max_dt * unit)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main(["rescaled", "--config", str(write_config(tmp_path, data))])
        assert status in (ExitStatus.OK, ExitStatus.MONITOR)
        out = tmp_path / "out"
        monitors = strict_json(out / "monitors.json")
        strict_json(out / "decay_rates.json")
        assert monitors["M12-length"]["status"] != "not-applicable"
        cap = float(monitors["M12-length"]["note"].removeprefix("c_L="))
        assert math.isfinite(cap)
        assert cap >= math.sqrt(2.0) * omega * math.pi * (1 - 1e-3)

    @pytest.mark.parametrize("omega,scheme,unit,t_end,every,max_dt", [
        # the omega = 2 run above: its max_dt 1e-2 is past the constant
        # mode's explicit bound 2 / (8 omega^2 pi^2) = 6.3e-3
        pytest.param(2, "semi_implicit", 1.0, 2.5, 0.01, 1e-2, id="omega2"),
        # times in units of 1/(8 omega^2 pi^2), five records 36 units apart:
        # RK4's fourth-derivative bound at ximax = n/(2 omega) = 0.016 is
        # thousands of units, and no max_dt holds it
        pytest.param(1000, "explicit_rk4", 1.0 / (8e6 * math.pi**2), 144.0, 36.0,
                     1e308, id="omega1000"),
    ])
    def test_fixed_point_stays_put(self, tmp_path, omega, scheme, unit, t_end,
                                   every, max_dt):
        # h = 1/(2 omega pi) is the rescaled flow's fixed point; both schemes
        # cap dt at the constant mode's bound, so the length stays 1
        data = fast_config(tmp_path, omega=omega, n=32, variant="rescaled_chainrule",
                           t_end=t_end * unit, monitor_every=every * unit,
                           initial={"kind": "circle", "r": 1.0 / (2 * omega * math.pi)})
        data["stepper"].update(scheme=scheme, max_dt=max_dt * unit)
        status = main(["rescaled", "--config", str(write_config(tmp_path, data))])
        assert status == ExitStatus.OK
        out = tmp_path / "out"
        length = read_csv(out / "diagnostics.csv").length
        assert np.max(np.abs(length - 1.0)) <= 1e-12
        monitors = strict_json(out / "monitors.json")
        assert monitors["M12-length"]["status"] == "pass"
        # every seminorm p >= 1 of a run at its fixed point is round-off
        for p in (1, 2, 3, 4):
            assert monitors[f"M12-decay-h{p}"]["status"] == "not-applicable"

    def test_tiny_span_keeps_its_cadence(self, tmp_path):
        # omega = 1e8: the run spans 720 units of 1/(8 omega^2 pi^2), 9.1e-16,
        # so the event merge and the stepping loop's end test must be
        # relative to the times, not floored at 1e-13 and 1e-14
        unit = 1.0 / (8e16 * math.pi**2)
        data = fast_config(tmp_path, omega=10**8, n=32, variant="rescaled_chainrule",
                           t_end=720 * unit, monitor_every=36 * unit,
                           initial={"kind": "circle", "r": 1.0 / (2e8 * math.pi)})
        data["stepper"]["scheme"] = "semi_implicit"
        status = main(["rescaled", "--config", str(write_config(tmp_path, data))])
        assert status == ExitStatus.OK
        cols = read_csv(tmp_path / "out" / "diagnostics.csv")
        assert len(cols.t) == 21
        assert cols.t[-1] == data["t_end"]
        assert np.all(cols.dt_used[1:] > 0)

    def test_unscaled_config_runs_chainrule(self, tmp_path):
        # `rescaled` on a config whose variant is the unscaled default runs
        # the chain-rule variant, and its artifacts say so
        data = fast_config(tmp_path, t_end=0.02,
                           initial={"kind": "circle", "r": 1.0 / (2 * math.pi)})
        assert main(["rescaled", "--config", str(write_config(tmp_path, data))]) == 0
        out = tmp_path / "out"
        header = (out / "snapshot_000002.txt").read_text().splitlines()[3]
        assert header == "# variant=rescaled_chainrule"
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["variant"] == "rescaled_chainrule"


class TestCrosscheck:
    def test_circle_base(self, tmp_path):
        data = fast_config(tmp_path, n=64)
        cfgp = write_config(tmp_path, data)
        assert main(["crosscheck", "--config", str(cfgp), "--seed", "3"]) == 0
        table = (tmp_path / "out" / "crosscheck.csv").read_text().splitlines()
        assert table[0] == "check,residual,threshold,pass"
        assert any(row.startswith("concentric_velocity") for row in table)
        assert all(row.rsplit(",", 1)[1] == "1" for row in table[1:])

    def test_ellipse_base(self, tmp_path):
        # the 1e-8 residual thresholds presume the n = 256 working resolution
        data = fast_config(tmp_path, n=256,
                           initial={"kind": "ellipse", "a": 2.0, "b": 1.0})
        cfgp = write_config(tmp_path, data)
        assert main(["crosscheck", "--config", str(cfgp)]) == 0

    def test_under_resolved_base(self, tmp_path, capsys):
        # at n = 48 the 2:1 ellipse's curvature spectrum is not resolved
        # (tail 2.7e-3), so the residuals would judge the grid, not the formulas
        data = fast_config(tmp_path, n=48,
                           initial={"kind": "ellipse", "a": 2.0, "b": 1.0})
        cfgp = write_config(tmp_path, data)
        assert main(["crosscheck", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert "spectral tail 2.74e-03" in err[0]

    @pytest.mark.parametrize("n", [16, 18])
    def test_grid_below_the_draws(self, tmp_path, capsys, n):
        # the draws reach mode 8 and the circle's normal adds mode 1, so at
        # n/2 <= 9 the composite reaches the Nyquist mode
        cfgp = write_config(tmp_path, fast_config(tmp_path, n=n))
        assert main(["crosscheck", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:"), err
        assert err[0].endswith("raise n")

    def test_draw_not_locally_convex(self, tmp_path, capsys):
        # at n = 22, seed 0, draw 0's composite curve over the circle is not
        # locally convex: one refusal line, not a traceback
        cfgp = write_config(tmp_path, fast_config(tmp_path, n=22))
        assert main(["crosscheck", "--config", str(cfgp), "--seed", "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("validation failure: composite curve not locally convex")

    def test_grid_above_the_draws(self, tmp_path):
        cfgp = write_config(tmp_path, fast_config(tmp_path, n=20))
        assert main(["crosscheck", "--config", str(cfgp)]) == 0

    def test_write_failure_exit4(self, tmp_path, capsys):
        (tmp_path / "out" / "crosscheck.csv").mkdir(parents=True)
        cfgp = write_config(tmp_path, fast_config(tmp_path, n=64))
        assert main(["crosscheck", "--config", str(cfgp)]) == ExitStatus.IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")

    def test_residual_failure_exit3(self, tmp_path, capsys, monkeypatch):
        # with no tolerance every non-zero bundle and split residual fails:
        # one line per row that reads 0 in the written table
        monkeypatch.setattr(graph, "RESIDUAL_TOL", 0.0)
        cfgp = write_config(tmp_path, fast_config(tmp_path, n=64))
        assert main(["crosscheck", "--config", str(cfgp)]) == ExitStatus.MONITOR
        err = capsys.readouterr().err.splitlines()
        table = (tmp_path / "out" / "crosscheck.csv").read_text().splitlines()
        failing = [row.split(",")[0] for row in table[1:] if row.endswith(",0")]
        assert failing
        assert [line.split(" = ")[0] for line in err] == \
            [f"residual failure: {name}" for name in failing]

    def test_unsupported_base(self, tmp_path, capsys):
        data = fast_config(tmp_path, initial={
            "kind": "fourier", "constant": 1.0, "modes": [[2, 0.1, 0.0]]})
        cfgp = write_config(tmp_path, data)
        assert main(["crosscheck", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["validation failure: crosscheck supports circle or ellipse bases"]


def _uncreatable_out(tmp_path, command):
    """command on a fast config whose output directory lies below a file."""
    (tmp_path / "file").write_text("")
    cfgp = write_config(tmp_path, fast_config(tmp_path, n=64))
    return [command, "--config", str(cfgp), "--out", str(tmp_path / "file" / "out")]


def _not_utf8_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"n": "\xc0"}')
    return ["simulate", "--config", str(path)]


def _data_file(command, kind, data, **over):
    """command on a fast config, with over, from a curve or support file
    data.txt holding data: bytes as they are, or an array's rows."""
    def argv(tmp_path):
        path = tmp_path / "data.txt"
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            np.savetxt(path, data)
        config = fast_config(tmp_path, initial={"kind": kind, "path": str(path)}, **over)
        return [command, "--config", str(write_config(tmp_path, config))]
    return argv


def _polygon(k):
    """The k vertices of a regular polygon on the unit circle."""
    theta = 2 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _winding_twice_curve():
    """256 points of r = 1 + 0.6 cos(1.5 phi), phi in [0, 4 pi)."""
    phi = 4 * np.pi * np.arange(256) / 256
    r = 1 + 0.6 * np.cos(1.5 * phi)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _nonfinite_curve(value, omega):
    """simulate from a curve_file of an omega-curve whose fifth x is value."""
    def argv(tmp_path):
        pts = reconstruct(fourier_support(PeriodicGrid(omega, 64), 1.0,
                                          [(3, 0.02, 0.0)])).points
        pts[4, 0] = value
        path = tmp_path / "curve.txt"
        np.savetxt(path, pts)
        data = fast_config(tmp_path, omega=omega,
                           initial={"kind": "curve_file", "path": str(path)})
        return ["simulate", "--config", str(write_config(tmp_path, data))]
    return argv


def _with_initial(command, **initial):
    """command on a config with the given initial data."""
    def argv(tmp_path):
        data = fast_config(tmp_path, initial=initial)
        return [command, "--config", str(write_config(tmp_path, data))]
    return argv


@pytest.mark.parametrize("argv,status,prefix", [
    pytest.param(lambda p: ["simulate", "--n", "abc"], ExitStatus.VALIDATION,
                 "config error:", id="bad-flag-value"),
    pytest.param(lambda p: ["verify", "nosuch"], ExitStatus.VALIDATION,
                 "config error:", id="unknown-suite"),
    pytest.param(lambda p: [], ExitStatus.VALIDATION, "config error:", id="no-command"),
    pytest.param(_not_utf8_config, ExitStatus.VALIDATION, "config error:",
                 id="config-not-utf8"),
    *(pytest.param(lambda p, c=c: _uncreatable_out(p, c), ExitStatus.IO,
                   "i/o error:", id=f"uncreatable-out-{c}")
      for c in ("simulate", "rescaled", "crosscheck")),
    pytest.param(lambda p: ["plots", str(p / "nope.csv")], ExitStatus.IO,
                 "i/o error:", id="plots-missing-csv"),
    pytest.param(lambda p: ["crosscheck", "--seed", "-1", "--out", str(p / "out")],
                 ExitStatus.VALIDATION, "config error: seed must be a non-negative",
                 id="negative-seed-flag"),
    pytest.param(lambda p: ["simulate", "--config",
                            str(write_config(p, fast_config(p, seed=-1)))],
                 ExitStatus.VALIDATION, "config error: seed must be a non-negative",
                 id="negative-seed-config"),
    *(pytest.param(_data_file("simulate", kind, text), ExitStatus.VALIDATION,
                   "validation failure: {p}/data.txt: the file holds no data",
                   id=f"{kind}-{name}")
      for kind in ("curve_file", "support_file")
      for name, text in (("empty", b""), ("comments-only", b"# x y\n# none\n"))),
    # refusals of the data itself, each raised below the commands and
    # reported by main's one table
    *(pytest.param(_data_file(c, "support_file", np.ones(16), n=48), ExitStatus.VALIDATION,
                   "validation failure: support file has 16 lines but config "
                   "requests n=48", id=f"support_file-16-lines-{c}")
      for c in ("simulate", "rescaled")),
    pytest.param(_data_file("simulate", "curve_file", np.column_stack(
        [_polygon(16), np.zeros(16)])), ExitStatus.VALIDATION,
                 "validation failure: {p}/data.txt: expected two columns, got 3",
                 id="curve_file-three-columns"),
    pytest.param(_data_file("simulate", "curve_file", _polygon(6)), ExitStatus.VALIDATION,
                 "validation failure: need at least 8 planar points",
                 id="curve_file-6-points"),
    pytest.param(_data_file("simulate", "curve_file", _polygon(8), n=48),
                 ExitStatus.VALIDATION,
                 "validation failure: hull support is not C^1-consistent on this grid: ",
                 id="curve_file-octagon"),
    pytest.param(_data_file("simulate", "curve_file", _polygon(64), omega=2),
                 ExitStatus.VALIDATION,
                 "validation failure: outward-normal angle increases by 6.28319 over "
                 "the closed curve; expected 2*omega*pi = 12.5664 for omega=2",
                 id="curve_file-omega2-once-around"),
    pytest.param(_data_file("simulate", "curve_file", np.ones((8, 2))),
                 ExitStatus.VALIDATION, "validation failure: degenerate polyline",
                 id="curve_file-equal-points"),
    # a curve winding twice that is not locally convex near r = 0.4: its
    # estimated normal angle turns back
    pytest.param(_data_file("simulate", "curve_file", _winding_twice_curve(), omega=2),
                 ExitStatus.VALIDATION,
                 "validation failure: outward-normal angle is not strictly increasing",
                 id="curve_file-omega2-angle-turns-back"),
    # a data file that is not UTF-8 is a validation failure; a config file
    # that is not is a config error (config-not-utf8)
    *(pytest.param(_data_file(c, kind, b"1 2\n\xc0 3\n"), ExitStatus.VALIDATION,
                   "validation failure: 'utf-8' codec can't decode byte 0xc0",
                   id=f"{kind}-not-utf8-{c}")
      for c, kind in (("simulate", "curve_file"), ("rescaled", "support_file"))),
    # refused before the hull's RuntimeWarnings, its centering message or
    # scipy's interpolation message
    *(pytest.param(_nonfinite_curve(value, omega), ExitStatus.VALIDATION,
                   "validation failure: curve points and normal angles must be finite",
                   id=f"curve_file-{value}-omega{omega}")
      for value in (math.nan, math.inf) for omega in (1, 2)),
    # refused with the config, not by numpy's two-line loadtxt message
    *(pytest.param(_with_initial("simulate", kind=kind, path=path), ExitStatus.VALIDATION,
                   f"config error: initial.path must be a string, got {path!r}",
                   id=f"{kind}-path-{name}")
      for kind in ("curve_file", "support_file")
      for name, path in (("int", 0), ("bool", True), ("float", 1.5))),
    # a**2 would overflow in ellipse_support, so the config refuses it before
    # crosscheck builds a scene of inf and NaN, which would warn
    *(pytest.param(_with_initial(c, kind="ellipse", a=1e200, b=1), ExitStatus.VALIDATION,
                   "config error: initial.a", id=f"overflowing-ellipse-{c}")
      for c in ("simulate", "crosscheck")),
    pytest.param(_with_initial("simulate", kind="ellipse", a=1, b=float("nan")),
                 ExitStatus.VALIDATION, "config error: initial.b",
                 id="nan-ellipse-simulate"),
    # valid initial data whose t = 0 record overflows: ||h||^2 (and the area)
    # above the largest float, or k^3 in the dissipation of a tiny circle
    *(pytest.param(_with_initial("simulate", **initial), ExitStatus.VALIDATION,
                   "validation failure: initial data overflows the record functionals",
                   id=f"overflowing-record-{name}")
      for name, initial in (
          ("circle-1e155", {"kind": "circle", "r": 1e155}),
          ("circle-5e153", {"kind": "circle", "r": 5e153}),
          ("fourier-1e155", {"kind": "fourier", "constant": 1e155, "modes": []}),
          ("ellipse-1e154", {"kind": "ellipse", "a": 1e154, "b": 7e153}),
          ("circle-1e-110", {"kind": "circle", "r": 1e-110}))),
    pytest.param(lambda p: ["simulate", "--config", str(write_config(p, fast_config(
        p, omega=2, initial={"kind": "ellipse", "a": 1.3, "b": 1.0})))],
                 ExitStatus.VALIDATION,
                 "config error: ellipse initial data requires omega = 1",
                 id="ellipse-omega-2"),
])
def test_failure_table(tmp_path, capsys, argv, status, prefix):
    # each failure class ends in its exit status and one stderr line, with
    # no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv(tmp_path)) == status
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix.format(p=tmp_path)), err


class TestVerifyAndPlots:
    def test_verify_circle_suite(self, capsys):
        assert main(["verify", "circle"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion-01" in out

    def test_plots(self, tmp_path):
        cfgp = write_config(tmp_path, fast_config(tmp_path))
        main(["simulate", "--config", str(cfgp)])
        csv = tmp_path / "out" / "diagnostics.csv"
        gp = tmp_path / "plots.gp"
        assert main(["plots", str(csv), "--out", str(gp)]) == 0
        assert "gnuplot" in gp.read_text()

    def test_plots_path_with_quote(self, tmp_path):
        # gnuplot doubles a ' inside a single-quoted string; each plot term
        # must read back the CSV path it was given
        csv = tmp_path / "q'x" / "diagnostics.csv"
        csv.parent.mkdir()
        csv.write_text("")
        gp = tmp_path / "plots.gp"
        assert main(["plots", str(csv), "--out", str(gp)]) == 0
        plot = gp.read_text().split("plot ", 1)[1]
        quoted = re.findall(r"'((?:[^']|'')*)' using", plot)
        assert [q.replace("''", "'") for q in quoted] == [str(csv)] * 3

    def test_plots_template_columns(self):
        # the template's 1-based using columns name the plotted functionals
        columns = [int(c) for c in re.findall(r"using 1:(\d+)", GNUPLOT_TEMPLATE)]
        names = CSV_HEADER.split(",")
        assert [names[c - 1] for c in columns] == ["f_l2sq", "h1", "logk_dirichlet"]

    def test_plots_missing_csv(self, tmp_path):
        assert main(["plots", str(tmp_path / "nope.csv")]) == 4

    def test_plots_write_failure_exit4(self, tmp_path, capsys):
        csv = tmp_path / "diagnostics.csv"
        csv.write_text("")
        gp = tmp_path / "plots.gp"
        gp.mkdir()
        assert main(["plots", str(csv), "--out", str(gp)]) == ExitStatus.IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
