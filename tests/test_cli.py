"""End-to-end CLI runs: exit codes, outputs, manifests, determinism."""

import json
import os
import re
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mesahs
import mesahs.cli
import mesahs.stencil
from mesahs import baiocchi, snapshots, stefan
from mesahs.cli import main
from mesahs.geometry import load_scenario
from mesahs.stencil import SOLVE_TOL


def write_scenario(tmp_path, name="radial.json", h=1 / 12, margin=2.2,
                   p=1.0, t_max=0.3, m_list=(8, 16, 32), u_init=None):
    spec = {
        "dimension": 2,
        "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
        "grid": {"h": h, "margin": margin},
        "u_init": u_init or {"kind": "constant", "value": 0.0},
        "p": {"kind": "constant", "value": p},
        "t_max": t_max, "m_list": list(m_list), "lambda": 0.0,
    }
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def mini_annulus_spec(tmp_path):
    return write_scenario(
        tmp_path, name="annulus.json", h=1 / 12, margin=2.6, t_max=0.3,
        m_list=(8, 16, 64),
        u_init={"kind": "radial",
                "breakpoints": [[0.0, 0.0], [1.4, 0.0], [1.5, 1.0],
                                [2.0, 1.0], [2.1, 0.0]]})


class TestObstacleCommand:
    def test_report_matches_oracle(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        code = main(["obstacle", str(scenario), "--times", "0.25",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "obstacle_report.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        values = dict(zip(header, rows[1].split(",")))
        assert header[-1] == "corrections"
        R = baiocchi.radial_fb_radius(0.25)
        assert abs(float(values["fb_r_median"]) - R) <= 2 / 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario_sha256"]
        w, meta = snapshots.load_raster(out / "obstacle_W_0000.json")
        assert meta["t"] == 0.25
        assert w.min() >= 0

    def test_deterministic_rerun(self, tmp_path):
        scenario = write_scenario(tmp_path)
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["obstacle", str(scenario), "--times", "0.1,0.2",
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            hashes.append(manifest["output_hashes"])
        assert hashes[0] == hashes[1]


class TestStefanCommand:
    def test_zero_pressure_run_is_static(self, tmp_path):
        scenario = write_scenario(tmp_path, p=0.0, m_list=(8, 16))
        out = tmp_path / "run"
        code = main(["stefan", str(scenario), "--m", "16",
                     "--snapshots", "0.0,0.1,0.2", "--out", str(out)])
        assert code == 0
        u0, _ = snapshots.load_raster(out / "stefan_m16_u_0000.json")
        u2, _ = snapshots.load_raster(out / "stefan_m16_u_0002.json")
        assert np.array_equal(u0, u2)
        assert not (out / "stefan_m16_flux.csv").exists()
        log = (out / "stefan_m16_steps.csv").read_text().strip().splitlines()
        assert len(log) > 1
        assert all(float(r.split(",")[2]) == 0.0 for r in log[1:])
        assert all(float(r.split(",")[3]) == 0.0 for r in log[1:])


    def test_step_record_counts_every_sweep(self, tmp_path, monkeypatch):
        scenario = write_scenario(tmp_path)
        used = []
        kernel = mesahs.stencil.projected_sor

        def counted(*args, **kwargs):
            result = kernel(*args, **kwargs)
            used.append(result[1])
            checks.append(len(result[2]))
            corrections.append(result[2].corrections)
            return result

        monkeypatch.setattr(mesahs.stencil, "projected_sor", counted)
        checks, corrections = [], []
        records = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["stefan", str(scenario), "--m", "16",
                         "--snapshots", "0.1,0.2", "--out", str(out)])
            assert code == 0
            records.append((out / "stefan_m16_steps.csv").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        assert "stefan_m16_steps.csv" in manifest["output_hashes"]
        assert records[0] == records[1]
        lines = records[0].decode().split()
        assert lines[0] == ("step,t,influx,cumulative,sweeps,residual,"
                            "box_cells,checks,regrowths,corrections")
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, manifest["steps"] + 1))
        assert float(rows[-1][1]) == 0.2
        assert all(float(r[2]) > 0 for r in rows)
        assert all(float(b[3]) > float(a[3]) for a, b in zip(rows, rows[1:]))
        assert 2 * sum(int(r[4]) for r in rows) == sum(used)
        assert all(0 <= float(r[5]) <= 1e-10 for r in rows)
        assert all(int(r[6]) > 0 for r in rows)
        # checks of every kernel call; each regrowth adds one call
        assert 2 * sum(int(r[7]) for r in rows) == sum(checks)
        assert 2 * sum(1 + int(r[8]) for r in rows) == len(checks)
        assert 2 * sum(int(r[9]) for r in rows) == sum(corrections)


    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        # one diffusivity runs in one process: no --jobs, no manifest key
        scenario = write_scenario(tmp_path, p=0.0, m_list=(8, 16))
        out = tmp_path / "run"
        code = main(["stefan", str(scenario), "--m", "16", "--snapshots",
                     "0.1", "--jobs", "1", "--out", str(out)])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert "--jobs" in record["message"]
        assert main(["stefan", str(scenario), "--m", "16",
                     "--snapshots", "0.1", "--out", str(out)]) == 0
        assert "jobs" not in json.loads((out / "manifest.json").read_text())


class TestMesaCommand:
    def test_m_list_override_and_jobs_env(self, tmp_path):
        scenario = write_scenario(tmp_path, h=1 / 10, m_list=(8, 16))
        out = tmp_path / "run"
        code = main(["mesa", str(scenario), "--m-list", "8,16,32",
                     "--snapshots", "0.1,0.2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["m_list"] == [8, 16, 32]
        # the sweep runs in one process: no --jobs, no manifest key
        assert "jobs" not in manifest
        assert len(manifest["tail_gap"]) == 2
        # the last level's conservation error, at rounding level
        assert 0.0 <= manifest["mass_error"] <= 1e-12
        v, meta = snapshots.load_raster(out / "mesa_V_0001.json")
        assert meta["m"] == 32
        assert v.max() > 0

    def test_bad_level_list_runs_no_level(self, tmp_path, monkeypatch,
                                          capsys):
        # the sweep validates its levels before it starts any
        scenario = write_scenario(tmp_path, h=1 / 10)
        calls = []

        def level_step(st, u, theta, m, dt, support):
            calls.append(m)
            raise AssertionError("a level ran before validation")

        monkeypatch.setattr(stefan, "_advance", level_step)
        code = main(["mesa", str(scenario), "--m-list", "16,1024",
                     "--snapshots", "0.1", "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert "at least 3 diffusivity values" in record["message"]
        assert calls == []


class TestCompareCommand:
    def test_contact_record_present(self, tmp_path):
        scenario = mini_annulus_spec(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", str(scenario), "--times", "0.1,0.2,0.3",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        contact = manifest["contact"]
        assert contact is not None
        assert contact["gap"] <= contact["tol"]
        assert contact["agree"] is True
        # tol follows dt; the gap also stays within h / 2 in absolute terms
        assert contact["gap"] <= (1 / 12) / 2
        assert (out / "compare.csv").exists()
        worst = max(r["supgap_rel"] for r in manifest["cross_validation"])
        assert worst <= 0.08
        assert 0.0 <= manifest["mass_error"] <= 1e-12

    def test_contact_tolerance_follows_dt(self, tmp_path):
        scenario = mini_annulus_spec(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", str(scenario), "--times", "0.3",
                     "--dt", "0.04", "--out", str(out)])
        assert code == 0
        contact = json.loads((out / "manifest.json").read_text())["contact"]
        assert contact["tol"] == 2 * 0.04
        assert contact["gap"] <= contact["tol"]

    def test_contact_bracket_holds_when_dt_passes_contact(self, tmp_path):
        # one step of dt = 0.2 already runs past the contact (t about 0.12);
        # the obstacle bracket must still start before it, and a step
        # longer than one cell's time h / max(p, 1) does not widen the gate
        scenario = mini_annulus_spec(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", str(scenario), "--times", "0.2",
                     "--dt", "0.2", "--out", str(out)])
        assert code == 0
        contact = json.loads((out / "manifest.json").read_text())["contact"]
        assert contact["t_obstacle"] is not None
        assert contact["gap"] <= contact["tol"] == 2 * (1 / 12)

    def test_contact_bracketing_failure_is_recorded(self, tmp_path,
                                                   monkeypatch):
        # a contact_time ConfigError is no failure of the run: the record
        # keeps the sweep route's time and says why the slices have none
        def no_bracket(*args, **kwargs):
            raise mesahs.ConfigError("patch not active at t_hi")

        monkeypatch.setattr(baiocchi, "contact_time", no_bracket)
        scenario = mini_annulus_spec(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", str(scenario), "--times", "0.2",
                     "--dt", "0.2", "--out", str(out)])
        assert code == 0
        contact = json.loads((out / "manifest.json").read_text())["contact"]
        assert contact["t_mesa"] > 0
        assert contact["t_obstacle"] is None
        assert contact["note"] == "bracketing failed: patch not active at t_hi"
        assert "gap" not in contact
        assert "agree" not in contact

    def test_contact_disagreement_is_recorded(self, tmp_path, monkeypatch):
        # one step of dt = 0.2 runs past the contact, so the sweep route's
        # contact time is that step's midpoint, 0.1, and tol is 0.4; slices
        # that put contact 3 tol later disagree, and the record says so
        # without failing the run
        def late(*args, tol_t, **kwargs):
            return 0.1 + 3 * (2 * tol_t)

        monkeypatch.setattr(baiocchi, "contact_time", late)
        scenario = mini_annulus_spec(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", str(scenario), "--times", "0.2",
                     "--dt", "0.2", "--out", str(out)])
        assert code == 0
        contact = json.loads((out / "manifest.json").read_text())["contact"]
        assert contact["t_mesa"] == 0.1
        assert contact["gap"] == pytest.approx(3 * contact["tol"])
        assert contact["agree"] is False

    def test_bad_level_list_builds_no_stencil(self, tmp_path, monkeypatch,
                                              capsys):
        # main applies --m-list to the scenario before the command starts,
        # so a list that does not increase is refused before the stencil
        def no_build(scenario):
            raise AssertionError("a stencil was built before validation")

        monkeypatch.setattr(mesahs.cli, "build_stencil", no_build)
        scenario = write_scenario(tmp_path)
        code = main(["compare", str(scenario), "--m-list", "16,16",
                     "--times", "0.1", "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert "strictly increasing" in record["message"]


def _strict_json(text):
    """``json.loads`` that refuses Infinity and NaN, as RFC 8259 does."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestBarriersCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "bar"
        assert main(["barriers", "--n", "2", "--out", str(out)]) == 0
        record = json.loads((out / "barrier_bounds.json").read_text())
        assert record["ell_sub"] > 0
        assert len(record["gamma"]) == 4
        assert (out / "barrier_profiles.csv").exists()

    @pytest.mark.parametrize("args", [["--eps", "0"], ["--k", "1e308"]],
                             ids=" ".join)
    def test_unbounded_m_min_is_null(self, tmp_path, args):
        # no finite diffusivity suffices: both files stay strict JSON
        out = tmp_path / "bar"
        assert main(["barriers", *args, "--out", str(out)]) == 0
        for name in ("barrier_bounds.json", "manifest.json"):
            record = _strict_json((out / name).read_text())
            assert record["m_min"] is None
            assert record["ell_sub"] > 0

    def test_huge_k_prints_a_short_line(self, tmp_path, capsys):
        # the printed bound does not grow with its value
        out = tmp_path / "bar"
        assert main(["barriers", "--k", "1e308", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(line) < 120
        assert "e+307" in line


class TestDiagnoseCommand:
    def test_classifications_emitted(self, tmp_path):
        scenario = write_scenario(tmp_path, h=1 / 16, margin=2.0, t_max=0.25)
        run_dir = tmp_path / "run"
        assert main(["obstacle", str(scenario), "--times", "0.1,0.25",
                     "--out", str(run_dir)]) == 0
        out = tmp_path / "diag"
        assert main(["diagnose", str(run_dir), str(scenario),
                     "--out", str(out)]) == 0
        reports = json.loads((out / "fb_points.json").read_text())
        assert reports
        assert all(r["classification"] in ("regular", "cusp-suspect",
                                           "unresolved") for r in reports)
        assert (out / "regions.csv").exists()

    def test_mesa_run_with_given_points(self, tmp_path):
        # a mesa directory holds V rasters; --points fixes where to classify
        scenario = write_scenario(tmp_path, h=1 / 10, m_list=(8, 16, 32),
                                  t_max=0.2)
        run_dir = tmp_path / "run"
        assert main(["mesa", str(scenario), "--snapshots", "0.1,0.2",
                     "--out", str(run_dir)]) == 0
        out = tmp_path / "diag"
        assert main(["diagnose", str(run_dir), str(scenario),
                     "--points", "1.3,0;0,-1.3", "--radii", "0.4,0.5,0.6",
                     "--out", str(out)]) == 0
        reports = json.loads((out / "fb_points.json").read_text())
        assert [r["point"] for r in reports] == [[1.3, 0.0], [0.0, -1.3]]
        assert all(r["t"] == 0.2 and r["radii"] == [0.4, 0.5, 0.6]
                   for r in reports)
        rows = (out / "regions.csv").read_text().split()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.1, 0.2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_growth_slope"] is not None
        assert len(manifest["classifications"]) == 2

    def test_stefan_run_reads_theta_rasters(self, tmp_path):
        # a stefan directory holds u and theta rasters, no W or V: the
        # regions come from theta, one row per snapshot
        scenario = write_scenario(tmp_path, h=1 / 10, t_max=0.2)
        run_dir = tmp_path / "run"
        assert main(["stefan", str(scenario), "--m", "16",
                     "--snapshots", "0.1,0.2", "--out", str(run_dir)]) == 0
        out = tmp_path / "diag"
        assert main(["diagnose", str(run_dir), str(scenario),
                     "--out", str(out)]) == 0
        rows = (out / "regions.csv").read_text().split()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.1, 0.2]
        assert all(float(r.split(",")[1]) > 0 for r in rows[1:])


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obstacle", str(bad), "--times", "0.1",
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("text", [None, "dimension: 2"],
                             ids=["missing", "not-json"])
    def test_unreadable_scenario_is_config_error(self, tmp_path, capsys,
                                                 text):
        path = tmp_path / "scenario.json"
        if text is not None:
            path.write_text(text)
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert record["message"].startswith("cannot read scenario file")

    @pytest.mark.parametrize("damage,message", [
        ("size", "size does not match its shape"),
        ("shape", "does not match grid"),
    ])
    def test_mismatched_raster_is_config_error(self, tmp_path, capsys,
                                               damage, message):
        # a raster u_init whose byte count or whose shape is not the grid's
        path = write_scenario(tmp_path)
        shape = list(load_scenario(path).grid.shape)
        cells = shape[0] * shape[1]
        if damage == "size":
            cells -= 1
        else:
            shape = [1, cells]
        np.zeros(cells, dtype="<f8").tofile(tmp_path / "u.bin")
        spec = json.loads(path.read_text())
        spec["u_init"] = {"kind": "raster", "path": "u.bin", "shape": shape}
        path.write_text(json.dumps(spec))
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert message in record["message"]

    def test_solver_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mesahs.stencil, "SOLVE_TOL", 1e-30)
        scenario = write_scenario(tmp_path)
        code = main(["obstacle", str(scenario), "--times", "0.25",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["stefan", "--m", "16"],
        ["obstacle"],
        ["stefan", "--m", "16", "--snapshots", "0.1", "--jobs", "2"],
        ["mesa", "--snapshots", "0.1", "--jobs", "2"],
        ["obstacle", "--times", "0.1", "--tol", "1e-12"],
        ["mesa", "--snapshots", "0.1", "--tol", "1e-12"],
        ["obstacle", "--times", "0.1", "--jobs", "x"],
        ["obstacle", "--times", "0.1", "--jobs", "0"],
        ["barriers", "--n", "4"],
        ["frobnicate"],
    ], ids=" ".join)
    def test_usage_error_is_config_error(self, tmp_path, capsys, args):
        # a missing argument, an unknown or deleted flag, a bad int or an
        # unknown command exits 1 with the JSON record, like bad input
        scenario = write_scenario(tmp_path)
        if args[0] not in ("barriers", "frobnicate"):
            args = [args[0], str(scenario), *args[1:]]
        code = main([*args, "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert not (tmp_path / "x").exists()

    def test_diagnose_of_repeated_times_is_config_error(self, tmp_path,
                                                         capsys):
        # a run may repeat a time, but no growth slope spans zero time
        scenario = write_scenario(tmp_path, h=1 / 16, margin=2.0, t_max=0.25)
        run_dir = tmp_path / "run"
        assert main(["obstacle", str(scenario), "--times", "0.1,0.1",
                     "--out", str(run_dir)]) == 0
        code = main(["diagnose", str(run_dir), str(scenario),
                     "--out", str(tmp_path / "diag")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")

    def test_used_out_is_refused_before_any_work(self, tmp_path, capsys):
        # a second run into a used --out would leave the first run's extra
        # rasters beside its own manifest, and diagnose into its run
        # directory would overwrite that run's manifest
        scenario = write_scenario(tmp_path, h=1 / 16, t_max=0.5)
        out = tmp_path / "run"
        assert main(["obstacle", str(scenario), "--times", "0.1,0.2,0.3",
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (tmp_path / "file").write_text("")
        for args in (["obstacle", str(scenario), "--times", "0.4,0.5"],
                     ["diagnose", str(out), str(scenario)],
                     ["obstacle", str(tmp_path / "missing.json"),
                      "--times", "0.4"]):
            for target in (out, tmp_path / "file"):
                assert main([*args, "--out", str(target)]) == 1
                record = json.loads(capsys.readouterr().err.splitlines()[-1])
                assert record["error"] == "config"
                assert "is not an empty directory" in record["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obstacle", str(scenario), "--times", "0.4,0.5",
                     "--out", str(empty)]) == 0

    @pytest.mark.parametrize("args", [["--help"], ["--version"],
                                      ["obstacle", "--help"]], ids=" ".join)
    def test_help_and_version_exit_0(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda s: s.update(dimension="two"), id="dimension-word"),
        pytest.param(lambda s: [1, 2], id="top-level-list"),
        pytest.param(lambda s: s.update(grid=[1, 2]), id="grid-list"),
        pytest.param(lambda s: s["grid"].update(h="x"), id="h-word"),
        pytest.param(lambda s: s["grid"].update(h=float("nan")), id="h-nan"),
        pytest.param(lambda s: s["grid"].update(margin=-5.0),
                     id="negative-margin"),
        pytest.param(lambda s: s.update(m_list="abc"), id="m-list-word"),
        pytest.param(lambda s: s.update(m_list=[[1], [2], [3]]),
                     id="m-list-nested"),
        pytest.param(lambda s: s.update(t_max="soon"), id="t-max-word"),
        pytest.param(lambda s: s["slot"].update(centers=[[0.0, 0.0], [3.0]],
                                                radii=[1.0, 1.0]),
                     id="ragged-centers"),
        pytest.param(lambda s: s["slot"].update(kind="square"),
                     id="unknown-slot-kind"),
        pytest.param(lambda s: s.update(p={"kind": "samples",
                                           "values": "abc"}),
                     id="p-samples-word"),
        pytest.param(lambda s: s.update(u_init={"kind": "raster",
                                                "path": "missing.bin",
                                                "shape": [32, 32]}),
                     id="missing-raster"),
    ])
    def test_malformed_scenario_is_config_error(self, tmp_path, capsys,
                                                mutate):
        path = write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec = mutate(spec) or spec
        path.write_text(json.dumps(spec))
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")

    @pytest.mark.parametrize("slot", [
        pytest.param({"rounding": float("nan")}, id="nan-rounding"),
        pytest.param({"rounding": float("inf")}, id="inf-rounding"),
        pytest.param({"centers": [[0.0, 0.0], [1.0, float("nan")],
                                  [0.0, 1.0]]}, id="nan-vertex"),
        pytest.param({"centers": [[0.0, 0.0], [float("inf"), 0.0],
                                  [0.0, 1.0]]}, id="inf-vertex"),
        pytest.param({"centers": [[0.0, 0.0], [1e308, 0.0], [0.0, 1e308]]},
                     id="area-overflow"),
    ])
    def test_nan_or_huge_polygon_is_config_error(self, tmp_path, capsys,
                                                 slot):
        path = write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec["slot"] = {"kind": "polygon-with-rounded-corners",
                        "centers": [[-0.6, -0.6], [0.6, -0.6], [0.6, 0.6],
                                    [-0.6, 0.6]],
                        "rounding": 0.3, **slot}
        path.write_text(json.dumps(spec))
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert "finite" in record["message"]

    @pytest.mark.parametrize("slot", [
        pytest.param({"radii": [float("nan")]}, id="nan-radius"),
        pytest.param({"radii": [float("inf")]}, id="inf-radius"),
        pytest.param({"centers": [[float("nan"), 0.0]]}, id="nan-center"),
        pytest.param({"centers": [[0.0, float("-inf")]]}, id="inf-center"),
    ])
    def test_non_finite_ball_is_config_error(self, tmp_path, capsys, slot):
        path = write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec["slot"].update(slot)
        path.write_text(json.dumps(spec))
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert record["message"] == "slot ball centers and radii must be finite"

    @pytest.mark.parametrize("args", [
        ["stefan", "--m", "-1", "--snapshots", "0.1"],
        ["stefan", "--m", "nan", "--snapshots", "0.1"],
        ["stefan", "--m", "16", "--snapshots", "nan"],
        ["stefan", "--m", "16", "--snapshots", "0.1", "--dt", "nan"],
        ["stefan", "--m", "16", "--snapshots", "0.1", "--dt", "inf"],
        ["stefan", "--m", "16", "--snapshots", "0.1", "--dt", "1e-300"],
        ["mesa", "--snapshots", "0.1", "--dt", "inf"],
        ["obstacle", "--times", "nan"],
        ["obstacle", "--times", "inf"],
        ["obstacle", "--times", "abc"],
        ["mesa", "--m-list", "8,nan,32", "--snapshots", "0.1"],
        ["mesa", "--snapshots", ""],
        ["compare", "--times", ""],
        ["stefan", "--m", "16", "--snapshots", ""],
        ["obstacle", "--times", ""],
        ["obstacle", "--times", ",,,"],
    ], ids=" ".join)
    def test_bad_number_is_config_error(self, tmp_path, capsys, args):
        scenario = write_scenario(tmp_path)
        code = main([args[0], str(scenario), *args[1:],
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")

    @pytest.mark.parametrize("args", [["--k", "nan"], ["--eps", "nan"],
                                      ["--k", "inf"]], ids=" ".join)
    def test_non_finite_barrier_constant_is_config_error(self, tmp_path,
                                                         capsys, args):
        code = main(["barriers", *args, "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")

    @pytest.fixture(scope="class")
    def obstacle_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obstacle")
        scenario = write_scenario(tmp, h=1 / 16, margin=2.0, t_max=0.25)
        assert main(["obstacle", str(scenario), "--times", "0.1,0.25",
                     "--out", str(tmp / "run")]) == 0
        return scenario, tmp / "run"

    @pytest.mark.parametrize("args,damage", [
        (["--points", "1,2,3"], None),
        (["--points", "1"], None),
        (["--points", "a,b"], None),
        (["--points", "nan,nan"], None),
        (["--radii", "nan,0.5,0.6"], None),
        (["--radii", ""], None),
        (["--points", "100,100"], None),
        ([], "coarser scenario"),
        ([], "truncated raster"),
    ], ids=["3 coordinates", "1 coordinate", "letters", "NaN point",
            "NaN radius", "empty radii", "point off the grid",
            "coarser scenario", "truncated raster"])
    def test_bad_diagnose_input_is_config_error(self, tmp_path, capsys,
                                                obstacle_run, args, damage):
        # a point that is not 2 finite numbers, a NaN radius, an empty radius
        # list, rasters of another grid and a short raster file each exit 1
        # with the record
        scenario, run_dir = obstacle_run
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        if damage == "coarser scenario":
            scenario = write_scenario(tmp_path, h=1 / 12, margin=2.0,
                                      t_max=0.25)
        elif damage == "truncated raster":
            raster = sorted(run.glob("*.bin"))[0]
            raster.write_bytes(raster.read_bytes()[:-8])
        code = main(["diagnose", str(run), str(scenario), *args,
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")

    def test_radii_past_the_band_are_unresolved(self, tmp_path,
                                                obstacle_run):
        # every scan ball of radius 3 or more reaches the farfield band, so
        # no radius survives the trim and no point can be classified
        scenario, run_dir = obstacle_run
        out = tmp_path / "diag"
        assert main(["diagnose", str(run_dir), str(scenario),
                     "--radii", "3,4,5", "--out", str(out)]) == 0
        reports = json.loads((out / "fb_points.json").read_text())
        assert reports
        for report in reports:
            assert report["classification"] == "unresolved"
            assert report["radii"] == []
            assert any("farfield" in note for note in report["notes"])

    def test_envelope_error(self, tmp_path):
        scenario = write_scenario(tmp_path, margin=1.0, p=4.0, t_max=2.0,
                                  m_list=(8, 16))
        code = main(["stefan", str(scenario), "--m", "16",
                     "--snapshots", "2.0", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_obstacle_envelope_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, margin=1.0, p=4.0, t_max=2.0,
                                  m_list=(8, 16))
        code = main(["obstacle", str(scenario), "--times", "2.0",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (3, "envelope")
        assert re.match(r"obstacle slice at t=2: .*farfield clearance",
                        record["message"])

    @pytest.mark.parametrize("n", [2, 3])
    def test_huge_ball_is_config_error(self, tmp_path, capsys, n):
        path = write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec["dimension"] = n
        spec["slot"] = {"centers": [[0.0] * n], "radii": [1e308]}
        path.write_text(json.dumps(spec))
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert "finite" in record["message"]

    def test_pressure_sample_count_mismatch_is_config_error(self, tmp_path,
                                                           capsys):
        path = write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec["p"] = {"kind": "samples", "values": [1.0, 2.0, 3.0]}
        path.write_text(json.dumps(spec))
        code = main(["obstacle", str(path), "--times", "0.1",
                     "--out", str(tmp_path / "x")])
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (code, record["error"]) == (1, "config")
        assert "boundary sample count" in record["message"]


def _child_env():
    """Environment whose child imports the package this test imported."""
    src = os.path.dirname(os.path.dirname(mesahs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestSolverTolerance:
    @pytest.mark.parametrize("args", [
        ["stefan", "--m", "16", "--snapshots", "0.05"],
        ["mesa", "--snapshots", "0.05"],
        ["obstacle", "--times", "0.05"],
        ["compare", "--times", "0.05"],
    ], ids=lambda args: args[0])
    def test_manifest_records_the_one_tolerance(self, tmp_path, args):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main([args[0], str(scenario), *args[1:],
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_tol"] == SOLVE_TOL == 1e-10


class TestStepLength:
    @pytest.mark.parametrize("args", [
        ["stefan", "--m", "16", "--snapshots", "0.05"],
        ["mesa", "--snapshots", "0.05"],
        ["compare", "--times", "0.05"],
    ], ids=lambda args: args[0])
    def test_manifest_records_the_default_dt(self, tmp_path, args):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main([args[0], str(scenario), *args[1:],
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dt"] == stefan.default_dt(load_scenario(scenario))


class TestRunRecord:
    @pytest.mark.parametrize("command", ["stefan", "mesa", "obstacle",
                                         "compare", "barriers", "diagnose"])
    def test_every_manifest_carries_the_common_record(self, tmp_path,
                                                      command):
        # main writes every manifest: the version, the command and the
        # output hashes always, the scenario record exactly where the
        # command reads a scenario, and jobs exactly where --jobs exists
        scenario = str(write_scenario(tmp_path))
        run_dir = tmp_path / "slices"
        args = {
            "stefan": ["stefan", scenario, "--m", "16", "--snapshots", "0.1"],
            "mesa": ["mesa", scenario, "--snapshots", "0.1"],
            "obstacle": ["obstacle", scenario, "--times", "0.1"],
            "compare": ["compare", scenario, "--times", "0.1"],
            "barriers": ["barriers"],
            "diagnose": ["diagnose", str(run_dir), scenario],
        }[command]
        if command == "diagnose":
            assert main(["obstacle", scenario, "--times", "0.1",
                         "--out", str(run_dir)]) == 0
        out = tmp_path / "run"
        assert main([*args, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["package_version"] == mesahs.__version__
        assert manifest["command"] == command
        hashes = manifest["output_hashes"]
        assert hashes
        assert all(snapshots.file_sha256(out / name) == digest
                   for name, digest in hashes.items())
        reads_scenario = command != "barriers"
        for key in ("scenario_path", "scenario_sha256",
                    "scenario_content_hash", "grid"):
            assert (key in manifest) == reads_scenario
        if reads_scenario:
            assert manifest["scenario_path"] == scenario
            assert manifest["scenario_sha256"] == \
                snapshots.file_sha256(scenario)
            assert manifest["scenario_content_hash"] == \
                load_scenario(scenario).content_hash()
        has_jobs = command in ("obstacle", "compare", "diagnose")
        assert manifest.get("jobs") == (1 if has_jobs else None)


def _cap_address_space():
    limit = 2 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _capped_obstacle_run(tmp_path, path):
    """``mesahs obstacle`` on ``path`` in a 2 GiB address space: its exit
    code and the JSON record it ends with."""
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "mesahs.cli", "obstacle", str(path),
         "--times", "0.1", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space)
    return proc.returncode, json.loads(proc.stderr.splitlines()[-1])


class TestEntryPoint:
    @pytest.mark.parametrize("slot", [
        pytest.param({"centers": [[0.0, 0.0]], "radii": [1e12]},
                     id="ball-2d"),
        pytest.param({"kind": "polygon-with-rounded-corners",
                      "centers": [[0.0, 0.0], [1e12, 0.0], [0.0, 1e12]],
                      "rounding": 0.1}, id="polygon"),
    ])
    def test_huge_slot_exits_1_in_a_capped_process(self, tmp_path, slot):
        # the boundary sample count is bounded before anything is
        # allocated; in a 2 GiB address space the samples of these slots
        # (hundreds of TiB) would end in MemoryError, exit 4
        path = write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec["slot"] = slot
        path.write_text(json.dumps(spec))
        code, record = _capped_obstacle_run(tmp_path, path)
        assert (code, record["error"]) == (1, "config")
        assert "boundary samples exceed" in record["message"]


    def test_huge_grid_exits_1_in_a_capped_process(self, tmp_path):
        # a margin of 1e6 at h = 0.1 asks for 4e14 cells; the count is
        # bounded before any grid array is allocated
        path = write_scenario(tmp_path, h=0.1, margin=1e6)
        code, record = _capped_obstacle_run(tmp_path, path)
        assert (code, record["error"]) == (1, "config")
        assert "4e+14 cells exceed" in record["message"]

    def test_version_via_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "mesahs.cli",
                               "--version"], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0

    def test_import_leaves_scipy_optimize_unloaded(self, tmp_path):
        # scipy loads only for diagnostics that ask for it: neither the
        # import nor an obstacle run nor its free-boundary report does
        scenario = write_scenario(tmp_path, h=1 / 16, margin=2.0, t_max=0.25)
        run_dir, diag = tmp_path / "run", tmp_path / "diag"
        probe = "\n".join([
            "import sys",
            "from mesahs.cli import main",
            "loaded = lambda: sorted(m for m in sys.modules",
            "                        if m.split('.')[0] == 'scipy')",
            "print(loaded())",
            f"assert main(['obstacle', {str(scenario)!r}, '--times',",
            f"             '0.1,0.25', '--out', {str(run_dir)!r}]) == 0",
            f"assert main(['diagnose', {str(run_dir)!r}, {str(scenario)!r},",
            f"             '--out', {str(diag)!r}]) == 0",
            "print(loaded())"])
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")
        assert (diag / "fb_points.json").exists()

    def test_compare_leaves_scipy_unloaded(self, tmp_path):
        # both routes, the cross-validation and its Hausdorff distances run
        # on numpy alone, in one process
        scenario = write_scenario(tmp_path, h=1 / 8, margin=2.0, t_max=0.2)
        out = tmp_path / "cmp"
        probe = "\n".join([
            "import sys",
            "from mesahs.cli import main",
            f"assert main(['compare', {str(scenario)!r}, '--times',",
            f"             '0.1,0.2', '--jobs', '1', '--out', {str(out)!r}])"
            " == 0",
            "print(sorted(m for m in sys.modules",
            "             if m.split('.')[0] in ('scipy', 'multiprocessing')))"])
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (out / "compare.csv").exists()
        # compare still takes --jobs and only records it
        assert json.loads((out / "manifest.json").read_text())["jobs"] == 1
