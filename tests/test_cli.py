import json
import math
import tracemalloc

import numpy as np
import pytest

import entroflow.flow as flow
from entroflow.cli import ExitStatus, RunConfig, _simulate, build_initial_support, main
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

    def test_breakdown_exit2(self, tmp_path, capsys, monkeypatch):
        # every attempt returns a state with negative h_thth + h
        monkeypatch.setattr(flow, "_rk4_attempt", lambda h, w, *rest: (h, -w))
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
        monkeypatch.setattr(flow, "_rk4_attempt", lambda h, w, *rest: (h, -w))
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

    def test_unscaled_variant_rejected(self, tmp_path):
        data = fast_config(tmp_path)
        cfgp = write_config(tmp_path, data)
        cfg = RunConfig.from_json(cfgp)
        from entroflow.cli import cmd_rescaled
        assert cmd_rescaled(cfg) == ExitStatus.VALIDATION


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

    def test_write_failure_exit4(self, tmp_path, capsys):
        (tmp_path / "out" / "crosscheck.csv").mkdir(parents=True)
        cfgp = write_config(tmp_path, fast_config(tmp_path, n=64))
        assert main(["crosscheck", "--config", str(cfgp)]) == ExitStatus.IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")

    def test_unsupported_base(self, tmp_path):
        data = fast_config(tmp_path, initial={
            "kind": "fourier", "constant": 1.0, "modes": [[2, 0.1, 0.0]]})
        cfgp = write_config(tmp_path, data)
        assert main(["crosscheck", "--config", str(cfgp)]) == 1


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
