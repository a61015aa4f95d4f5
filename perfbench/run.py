"""Benchmark of the mesahs sweep and obstacle routes, from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes its own scenario files
from the seed, drives the ``mesahs`` CLI (or, for the annulus workload, the
public API through ``child.py``) in fresh single-threaded processes with
``--jobs 1``, checks the outputs against the pinned acceptance tolerances and
prints one JSON result as the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics of untraced runs; with
``--trace 1`` it makes one untraced and two traced runs and reports the
per-layer metrics.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from tracer import load_spans, summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CPUS_AVAILABLE = sorted(os.sched_getaffinity(0))

#: every run ends well inside the 180 s a run may take
DEADLINE_S = 165.0
#: set-up probes before and again after the repetitions, so that the median
#: samples both ends of the run
SETUP_PROBES = 4
#: repetitions a run makes at least, unless one alone outlasts --seconds;
#: the low median of two drops a repetition slowed by a noisy neighbour
MIN_REPS = 2
MAX_REPS = 50

TIMES = [round(0.05 * k, 10) for k in range(1, 11)]
RADIAL_M_LIST = [16, 32, 64, 128, 256, 512, 1024]
ANNULUS_M_LIST = [16, 32, 64, 128, 256]
ANNULUS_BREAKPOINTS = [[0.0, 0.0], [2.9, 0.0], [3.0, 1.0], [5.0, 1.0],
                       [5.1, 0.0]]
#: the seed draws p in (1 - P_SPREAD, 1]; seed 0 is the reference p = 1
P_SPREAD = 0.03
#: grid cells the box keeps beyond the p = 1 propagation envelope:
#: the farfield band, its clearance, two cells of slack and one of rounding
ENVELOPE_PAD_CELLS = 7

# acceptance tolerances, pinned as in tests/test_acceptance.py
SOLVER_TOL = 1e-10
ROUTE_GAP_TOL = 0.05
HAUSDORFF_TOL = 2.0
RADIUS_TOL_H = 2.0
MASS_BALANCE_TOL = 0.05
AREA_JUMP_TOL = 0.10
JUMP_REL = 0.5
JUMP_SIGNIFICANT = 0.05
#: tolerance share reported when a run wrote no outputs to check: far above
#: the 1.0 at which a check fails
UNMEASURED_SHARE = 100.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "pass_frac": "ratio", "accuracy_tol_share": "ratio",
}

PER_LAYER = {
    "stencil.sor_calls": "count", "stencil.sor_sweeps": "count",
    "stencil.sor_s": "s", "stencil.cell_updates": "count",
    "stencil.mcups": "Mcell/s", "stencil.bytes_computed": "B",
    "stencil.unconverged": "count", "stencil.build_s": "s",
    "stencil.self_s": "s",
    "stefan.steps": "count", "stefan.sor_calls": "count",
    "stefan.sweeps": "count", "stefan.sweeps_per_step_mean": "count",
    "stefan.sweeps_per_step_max": "count", "stefan.run_s": "s",
    "stefan.self_s": "s", "stefan.regrowths": "count",
    "stefan.regrowth_frac": "ratio", "stefan.mass_error_max": "area",
    "mesa.sweep_s": "s", "mesa.self_s": "s",
    "baiocchi.slices": "count", "baiocchi.sweeps_per_slice": "count",
    "baiocchi.cold_slice_s": "s", "baiocchi.warm_slice_s": "s",
    "baiocchi.self_s": "s", "baiocchi.contact_solves": "count",
    "baiocchi.contact_s": "s", "baiocchi.cross_validate_s": "s",
    "geometry.load_s": "s", "geometry.fluid_cells": "count",
    "geometry.self_s": "s",
    "fbdiag.extract_s": "s", "fbdiag.classify_s": "s", "fbdiag.self_s": "s",
    "snapshots.bytes": "B", "snapshots.write_s": "s",
    "snapshots.manifest_s": "s", "snapshots.self_s": "s",
    "cli.self_s": "s", "process.self_s": "s",
    "trace.wall_s": "s", "trace.self_sum_s": "s", "trace.outside_s": "s",
    "trace.overhead_s": "s",
    "check.route_gap_rel": "ratio", "check.hausdorff_cells": "cells",
    "check.fb_radius_err_h": "h", "check.mass_balance_rel": "ratio",
    "check.area_jump_err_rel": "ratio",
    "check.determinism_mismatches": "count",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def pressure_for_seed(seed):
    """Constant slot pressure: exactly 1 for seed 0, else drawn near 1."""
    if seed == 0:
        return 1.0
    return round(1.0 - P_SPREAD * random.Random(seed).random(), 6)


def _margin(h, envelope, margin_scale):
    """Margin whose box holds the p = 1 envelope, ending mid-cell.

    Ending half a cell short of a cell edge keeps the grid shape independent
    of the few-ulp radius error of the sampled unit-ball slot.
    """
    half_cells = math.ceil(envelope / h - 1e-9) + ENVELOPE_PAD_CELLS
    return (half_cells * h - 1.0 - 0.5 * h) * margin_scale


def radial_spec(h, p, margin_scale=1.0):
    """Unit-ball slot, u_init = 0, horizon 0.5 (radial oracle applies)."""
    t_max = TIMES[-1]
    envelope = 2.0 + t_max
    return {
        "dimension": 2,
        "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
        "grid": {"h": h, "margin": _margin(h, envelope, margin_scale)},
        "u_init": {"kind": "constant", "value": 0.0},
        "p": {"kind": "constant", "value": p},
        "t_max": t_max, "m_list": RADIAL_M_LIST, "lambda": 0.0,
    }


def annulus_spec(h, p, margin_scale=1.0):
    """Saturated annulus 3 <= r <= 5 around the unit-ball slot, horizon 3.2/p.

    The horizon is 3.2 in the natural time p*t, as is the contact bracket
    that ``child.py`` bisects, so the grid is the same for every p.
    """
    p_t_max = 3.2
    rho = ANNULUS_BREAKPOINTS[-1][0] / 2.0
    envelope = 2.0 * rho + p_t_max / rho
    return {
        "dimension": 2,
        "slot": {"centers": [[0.0, 0.0]], "radii": [1.0]},
        "grid": {"h": h, "margin": _margin(h, envelope, margin_scale)},
        "u_init": {"kind": "radial", "breakpoints": ANNULUS_BREAKPOINTS},
        "p": {"kind": "constant", "value": p},
        "t_max": p_t_max / p, "m_list": ANNULUS_M_LIST, "lambda": 1.0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "compare", "obstacle" or "annulus"
    h_div: int
    why: str

    @property
    def h(self):
        return 1.0 / self.h_div

    def spec(self, p, margin_scale):
        build = annulus_spec if self.kind == "annulus" else radial_spec
        return build(self.h, p, margin_scale)

    def processes(self, scenario, out):
        """(mode, args) of each process of one run, in order."""
        times = ",".join(f"{t:g}" for t in TIMES)
        if self.kind == "compare":
            return [("cli", ["compare", scenario, "--times", times,
                             "--out", f"{out}/compare", "--jobs", "1"])]
        if self.kind == "obstacle":
            return [("cli", ["obstacle", scenario, "--times", times,
                             "--out", f"{out}/slices", "--jobs", "1"]),
                    ("cli", ["diagnose", f"{out}/slices", scenario,
                             "--out", f"{out}/diag", "--jobs", "1"])]
        return [("annulus", [scenario, f"{out}/annulus"])]


WORKLOADS = {w.name: w for w in (
    Workload("compare-radial32", "compare", 32,
             "whole sweep-route run of ROADMAP aim 1: 7 m-levels plus 10 "
             "obstacle slices and cross-validation, kernel ~90 %"),
    Workload("obstacle-radial64", "obstacle", 64,
             "obstacle route alone at twice the resolution, warm-start chain, "
             "raster I/O and fbdiag; stefan never runs"),
    Workload("annulus-jump32", "annulus", 32,
             "criterion-5 jump through the API: contact-time bisection, warm "
             "starts, active-set topology flip on a 422^2 grid"),
)}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("HS_JOBS", None)     # it would override --jobs 1
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class ProcResult:
    code: int
    wall: float
    rss_mb: float
    stdout: str


def run_process(argv, log_stem, timeout):
    """Run one child to completion; wall time, exit code and its own peak RSS."""
    out_path = Path(f"{log_stem}.out")
    err_path = Path(f"{log_stem}.err")
    with out_path.open("w") as out, err_path.open("w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()                 # interrupted: leave no child behind
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(code=proc.returncode, wall=wall,
                      rss_mb=usage.ru_maxrss / 1024.0,
                      stdout=out_path.read_text())


def child_argv(mode, args, spans=None, run_id=None):
    if mode == "cli" and spans is None:
        return [sys.executable, "-m", "mesahs.cli", *args]
    argv = [sys.executable, str(HERE / "child.py")]
    if spans is not None:
        argv += ["--spans", spans, "--run-id", run_id]
    return argv + [mode, *args]


class Run:
    """State of one benchmark invocation: work directory, deadline, tallies."""

    def __init__(self, workload, seed, trace, margin_scale=1.0):
        self.workload = workload
        self.seed = seed
        self.p = pressure_for_seed(seed)
        self.start = time.perf_counter()
        self.dir = WORK / f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.scenario = str(self.dir / "scenario.json")
        Path(self.scenario).write_text(
            json.dumps(workload.spec(self.p, margin_scale), indent=2))
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def count(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def rep(self, tag, traced=False):
        """One run of the workload; None once the deadline has passed."""
        if self.remaining() <= 0:
            return None
        out = self.dir / tag
        out.mkdir()
        walls, rss, span_sets = [], [], []
        ok = True
        for k, (mode, args) in enumerate(
                self.workload.processes(self.scenario, str(out))):
            spans = str(out / f"spans{k}.json") if traced else None
            argv = child_argv(mode, args, spans,
                              f"{self.workload.name}-s{self.seed}-{tag}-{k}")
            res = run_process(argv, out / f"proc{k}", self.remaining())
            walls.append(res.wall)
            rss.append(res.rss_mb)
            ok = self.count(f"{tag}.proc{k}.exit{res.code}", res.code == 0)
            if traced and Path(spans).exists():
                span_sets.append(load_spans(spans))
            if not ok:
                break
        return {"tag": tag, "ok": ok, "wall": sum(walls), "rss": max(rss),
                "out": out, "spans": span_sets,
                "hashes": output_hashes(out) if ok else None}

    def setup_probe(self):
        res = run_process(child_argv("setup", [self.scenario]),
                          self.dir / "setup", self.remaining())
        if res.code != 0:
            return None
        return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def output_hashes(out):
    hashes = {}
    for manifest in sorted(Path(out).rglob("manifest.json")):
        rel = manifest.parent.relative_to(out)
        for name, digest in json.loads(manifest.read_text())["output_hashes"].items():
            hashes[f"{rel}/{name}"] = digest
    return hashes


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _import_mesahs():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mesahs  # noqa: F401


def _worst(values):
    """Largest value, NaN if any value is NaN (max() would depend on order)."""
    values = [float(v) for v in values]
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    return max(values)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _shares(errors, tol):
    return [e / tol for e in errors]


def check_compare(run, out):
    rows = _read_csv(out / "compare" / "compare.csv")
    gaps = [float(r["supgap_rel"]) for r in rows]
    gap = _worst(gaps)
    haus = _worst(r["hausdorff_cells"] for r in rows)
    run.count("compare.rows", len(rows) == len(TIMES))
    run.count("compare.route_gap", gap <= ROUTE_GAP_TOL)
    run.count("compare.hausdorff", haus <= HAUSDORFF_TOL)
    # the Hausdorff distance is a whole number of cells (0 or 1 today) that
    # flips with p, so it is gated but kept out of the mean tolerance share
    return {"check.route_gap_rel": gap, "check.hausdorff_cells": haus,
            "shares": _shares(gaps, ROUTE_GAP_TOL)}


def check_obstacle(run, out):
    _import_mesahs()
    from mesahs import baiocchi, fbdiag, snapshots
    from mesahs.geometry import load_scenario
    from mesahs.stencil import build_stencil

    scenario = load_scenario(run.scenario)
    st = build_stencil(scenario)
    h = scenario.grid.h
    rows = _read_csv(out / "slices" / "obstacle_report.csv")
    radius_err, mass = [], []
    for i, row in enumerate(rows):
        t = float(row["t"])
        oracle = baiocchi.radial_fb_radius(run.p * t)
        radius_err.append(abs(float(row["fb_r_median"]) - oracle) / h)
        w, _ = snapshots.load_raster(out / "slices" / f"obstacle_W_{i:04d}.json")
        sl = baiocchi.BaiocchiPotential(
            t=t, w=w, active_mask=fbdiag.active_mask_from(w, scenario.grid),
            residual=float(row["residual"]), sweeps=int(row["sweeps"]))
        mass.append(baiocchi.mass_balance_check(scenario, sl,
                                                stencil=st)["relative"])
    err_h = _worst(radius_err)
    mass_rel = _worst(mass)
    regions = _read_csv(out / "diag" / "regions.csv")
    run.count("obstacle.rows", len(rows) == len(TIMES))
    run.count("obstacle.residuals",
              all(float(r["residual"]) <= SOLVER_TOL for r in rows))
    run.count("obstacle.oracle_radius", err_h <= RADIUS_TOL_H)
    run.count("obstacle.mass_balance", mass_rel <= MASS_BALANCE_TOL)
    run.count("diagnose.rows", len(regions) == len(TIMES))
    return {"check.fb_radius_err_h": err_h, "check.mass_balance_rel": mass_rel,
            "shares": _shares(radius_err, RADIUS_TOL_H)
            + _shares(mass, MASS_BALANCE_TOL)}


def check_annulus(run, out):
    _import_mesahs()
    import numpy as np
    from mesahs import fbdiag, snapshots
    from mesahs.geometry import load_scenario

    scenario = load_scenario(run.scenario)
    grid = scenario.grid
    fl = grid.fluid
    base = out / "annulus"
    w_pre, _ = snapshots.load_raster(base / "annulus_W_pre.json")
    w_post, _ = snapshots.load_raster(base / "annulus_W_post.json")
    v_pre, _ = snapshots.load_raster(base / "annulus_V_pre.json")
    v_post, _ = snapshots.load_raster(base / "annulus_V_post.json")
    area_pre = fbdiag.active_mask_from(w_pre, grid).sum() * grid.cell_volume
    area_post = fbdiag.active_mask_from(w_post, grid).sum() * grid.cell_volume
    expected = math.pi * (5.0 ** 2 - 3.0 ** 2)
    area_err = float(abs(area_post - area_pre - expected) / expected)
    dv = (v_post - v_pre)[fl]
    significant = dv >= JUMP_SIGNIFICANT * v_pre[fl].max()
    relative = dv >= JUMP_REL * np.maximum(v_pre[fl], 1e-12)
    jump_cells = int((significant & relative).sum())
    slices = _read_csv(base / "annulus_slices.csv")
    manifest = json.loads((base / "manifest.json").read_text())
    t_lo, t_hi = manifest["bracket"]
    run.count("annulus.area_jump", area_err <= AREA_JUMP_TOL)
    run.count("annulus.pressure_jump", jump_cells > 0)
    run.count("annulus.residuals",
              all(float(s["residual"]) <= SOLVER_TOL for s in slices))
    run.count("annulus.bracket", t_lo <= manifest["t_star"] <= t_hi)
    return {"check.area_jump_err_rel": area_err,
            "shares": _shares([area_err], AREA_JUMP_TOL)}


CHECKS = {"compare": check_compare, "obstacle": check_obstacle,
          "annulus": check_annulus}


def check_outputs(run, rep):
    """Accuracy figures of one run; each failed check is counted, none raise."""
    accuracy = {name: 0.0 for name in PER_LAYER if name.startswith("check.")}
    accuracy["accuracy_tol_share"] = math.nan
    if rep is None or not rep["ok"]:
        run.count("outputs", False)
        return accuracy
    try:
        accuracy.update(CHECKS[run.workload.kind](run, rep["out"]))
    except (OSError, KeyError, ValueError) as exc:
        run.count(f"outputs.{type(exc).__name__}", False)
        return accuracy
    accuracy["accuracy_tol_share"] = statistics.fmean(accuracy["shares"])
    return accuracy


def check_same(run, name, a, b):
    ok = a is not None and a == b
    run.count(name, ok)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_available": len(CPUS_AVAILABLE),
            "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: "1" for v in THREAD_VARS}, "jobs": 1}


def measure_untraced(run, seconds):
    """End-to-end metrics: set-up probes, then repetitions of the workload.

    A new repetition starts while the run has fewer than ``MIN_REPS`` of
    them, or while the next should end within ``seconds``; a repetition
    that alone takes longer than ``seconds`` is not repeated.
    """
    run.setup_probe()                       # fills the bytecode cache
    setups = [run.setup_probe() for _ in range(SETUP_PROBES)]

    reps = []
    t0 = time.perf_counter()
    while len(reps) < MAX_REPS:
        rep = run.rep(f"rep{len(reps)}")
        if rep is None:
            break
        reps.append(rep)
        elapsed = time.perf_counter() - t0
        if not rep["ok"] or rep["wall"] > seconds:
            break
        if len(reps) >= MIN_REPS and elapsed + rep["wall"] > seconds:
            break
    setups += [run.setup_probe() for _ in range(SETUP_PROBES)]
    run.count("setup_probes", None not in setups)
    setups = [s for s in setups if s is not None]
    accuracy = check_outputs(run, reps[0] if reps else None)
    mismatches = sum(check_same(run, f"determinism.{r['tag']}",
                                reps[0]["hashes"], r["hashes"])
                     for r in reps[1:])
    # with no successful repetition, the failed one's time is reported: the
    # time a user waited, cut at the deadline if the run was stopped there
    timed = [r for r in reps if r["ok"]] or reps
    metrics = {
        "wall_s": statistics.median_low(r["wall"] for r in timed) if timed else math.nan,
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": statistics.median_low(r["rss"] for r in timed) if timed else math.nan,
        "pass_frac": 1.0 - run.failed / max(run.attempted, 1),
        "accuracy_tol_share": accuracy["accuracy_tol_share"],
    }
    details = {"reps": [{k: r[k] for k in ("tag", "ok", "wall", "rss")}
                        for r in reps],
               "setup_s": setups, "accuracy": accuracy,
               "determinism_mismatches": mismatches}
    return metrics, details


def measure_traced(run):
    """Per-layer metrics: one untraced run, then two traced runs."""
    plain = run.rep("plain")
    traced = [run.rep(f"traced{k}", traced=True) for k in range(2)]
    traced = [r for r in traced if r is not None]
    accuracy = check_outputs(run, plain)
    summaries = []
    for r in traced:
        if r["ok"]:
            s = summarise(r["spans"])
            s["trace.wall_s"] = r["wall"]
            s["trace.outside_s"] = r["wall"] - s["trace.self_sum_s"]
            summaries.append(s)
    mismatches = 0
    for r in traced:
        mismatches += check_same(run, f"determinism.{r['tag']}.hashes",
                                 plain["hashes"] if plain else None,
                                 r["hashes"])
    if len(summaries) == 2:
        mismatches += check_same(run, "determinism.sor_sweeps",
                                 summaries[0]["stencil.sor_sweeps"],
                                 summaries[1]["stencil.sor_sweeps"])
    run.count("kernel.residuals",
              all(s["stencil.unconverged"] == 0 for s in summaries))

    metrics = {}
    for name in PER_LAYER:
        values = [s[name] for s in summaries if name in s]
        if values:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"] - plain["wall"]
                                   if plain and "trace.wall_s" in metrics
                                   else math.nan)
    metrics.update({k: v for k, v in accuracy.items() if k in PER_LAYER})
    metrics["check.determinism_mismatches"] = mismatches
    details = {"plain_wall_s": plain["wall"] if plain else None,
               "traced_wall_s": [r["wall"] for r in traced],
               "summaries": summaries}
    return metrics, details


def measure(workload_name, seed, seconds, trace, h_div=None, margin_scale=1.0):
    """Run the benchmark once and return its result record."""
    workload = WORKLOADS[workload_name]
    if h_div is not None:
        workload = replace(workload, h_div=h_div)
    run = Run(workload, seed, trace, margin_scale)
    try:
        if trace:
            metrics, details = measure_traced(run)
        else:
            metrics, details = measure_untraced(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    values = {name: _measured_or_fallback(run, name, metrics.get(name))
              for name in units}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "details": {"workload": workload.name, "seed": seed, "p": run.p,
                    "h": workload.h, "seconds": seconds, "trace": trace,
                    "failures": run.failures, **details},
    }


def _measured_or_fallback(run, name, value):
    """The metric's value; one that could not be measured fails the run.

    The result line must hold a number for every metric, so an unmeasured
    one is counted as a failed operation and reported as: the time the run
    took, for a time of the whole run; ``UNMEASURED_SHARE`` for the
    tolerance share; 0 for anything else (as for a layer that did not run).
    """
    if value is not None and math.isfinite(value):
        return value
    run.count(f"metric.{name}", False)
    if name in ("wall_s", "setup_s", "trace.wall_s"):
        return time.perf_counter() - run.start
    if name == "accuracy_tol_share":
        return UNMEASURED_SHARE
    return 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "mesahs" / "__init__.py").is_file():
        print(f"no mesahs sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # The children are single-threaded and run one at a time.  Keeping them
    # all on one core (they inherit the mask) spares them migrations between
    # the shared host's cores; runs varied less with it than without.
    os.sched_setaffinity(0, {CPUS_AVAILABLE[-1]})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _import_mesahs()

    result = measure(args.workload, args.seed, args.seconds, args.trace)
    details = result.pop("details")
    record = {"environment": environment(), **details}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=2, default=str))
    print(json.dumps({"environment": record["environment"],
                      "failures": record["failures"], "p": record["p"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
