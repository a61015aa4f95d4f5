"""Command-line runner: scenarios in, rasters/CSV reports and a manifest out.

Subcommands cover the full pipeline: ``stefan`` (one diffusivity), ``mesa``
(the sweep), ``obstacle`` (per-time slices), ``compare`` (both routes plus
cross-validation), ``barriers`` (closed-form profiles and certified
constants), and ``diagnose`` (free-boundary reports for a finished run).

Each ``cmd_*`` takes ``(args, scenario, out)``, the scenario loaded (with
any ``--m-list``) by :func:`main` or None for ``barriers``, writes its
outputs into ``out`` and returns its own manifest keys and its summary
line.  :func:`main` alone writes ``manifest.json`` into the ``--out``
directory, which must be new or empty: the package version, the command,
the scenario's path, hashes and grid, ``jobs`` where the flag exists, the
command's keys (every tolerance actually used among them) and a hash of
every output file; single-threaded reruns of the same manifest are
bit-identical.  Exit codes:
1 bad configuration or command line, 2 solver failure, 3 envelope
violation, 4 internal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, baiocchi, barriers, fbdiag, mesa, snapshots, stefan
from .errors import ConfigError, EnvelopeError, MesaHSError, SolverError
from .geometry import load_scenario
from .stencil import SOLVE_TOL, build_stencil

EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_ENVELOPE = 3
EXIT_INTERNAL = 4


def _parse_times(text):
    try:
        values = [float(x) for x in text.replace(";", ",").split(",") if x]
    except ValueError as exc:
        raise ConfigError(f"cannot parse time list {text!r}") from exc
    if not values:
        raise ConfigError(f"list {text!r} holds no value")
    return values


def cmd_stefan(args, scenario, out):
    snapshot_times = _parse_times(args.snapshots)
    envelope = barriers.supersolution_envelope(scenario)
    result = stefan.run(scenario, args.m, snapshot_times, dt=args.dt)
    tag = f"stefan_m{args.m:g}"
    for i, t in enumerate(result.times):
        header = {"t": t, "m": result.m, "h": scenario.grid.h}
        snapshots.dump_raster(out, f"{tag}_u_{i:04d}", result.u_fields[i],
                              header)
        snapshots.dump_raster(out, f"{tag}_theta_{i:04d}",
                              result.theta_fields[i], header)
    snapshots.write_csv(out / f"{tag}_steps.csv", stefan.STEP_LOG_COLUMNS,
                        result.step_log)
    return {
        "m": args.m, "dt": result.dt, "snapshot_times": snapshot_times,
        "solver_tol": SOLVE_TOL, "mass_error": result.mass_error,
        "steps": result.steps, "envelope": envelope.to_dict(),
    }, (f"stefan m={args.m:g}: {result.steps} steps, "
        f"mass error {result.mass_error:.3e}")


def cmd_mesa(args, scenario, out):
    snapshot_times = _parse_times(args.snapshots)
    limit = mesa.sweep(scenario, snapshot_times, dt=args.dt)
    q_counts = []
    for i, (t, u_inf) in enumerate(zip(limit.times, limit.u_inf)):
        header = {"t": t, "m": limit.m, "h": scenario.grid.h}
        snapshots.dump_raster(out, f"mesa_V_{i:04d}", limit.theta_fields[i],
                              header)
        snapshots.dump_raster(out, f"mesa_uinf_{i:04d}", u_inf, header)
        q_counts.append(int(limit.q_masks[i].sum()))
    return {
        "m_list": list(scenario.m_list), "dt": limit.dt,
        "snapshot_times": snapshot_times,
        "tail_gap": [float(g) for g in limit.tail_gap],
        "q_cell_counts": q_counts, "solver_tol": SOLVE_TOL,
        "mass_error": limit.mass_error,
    }, (f"mesa sweep m={list(scenario.m_list)}: tail gap "
        f"{max(limit.tail_gap):.3e}")


def cmd_obstacle(args, scenario, out):
    times = sorted(_parse_times(args.times))
    st = build_stencil(scenario)
    center, _ = scenario.geometry.bounding_center_radius()
    rows = []
    sl = None
    for i, t in enumerate(times):
        sl = baiocchi.solve_slice(scenario, t, warm=sl, stencil=st)
        snapshots.dump_raster(out, f"obstacle_W_{i:04d}", sl.w,
                              {"t": t, "m": None, "h": scenario.grid.h})
        balance = baiocchi.mass_balance_check(scenario, sl, stencil=st)
        radius = baiocchi.fb_radius_stats(sl.active_mask, scenario.grid, center)
        rows.append([t, sl.residual, sl.sweeps, balance["discrepancy"],
                     radius[0], radius[1], radius[2], sl.corrections])
    snapshots.write_csv(out / "obstacle_report.csv",
                        ["t", "residual", "sweeps", "mass_discrepancy",
                         "fb_r_min", "fb_r_median", "fb_r_max",
                         "corrections"], rows)
    return {"times": times, "solver_tol": SOLVE_TOL,
            "report": "obstacle_report.csv"}, f"obstacle slices at {times}"


def cmd_compare(args, scenario, out):
    times = sorted(_parse_times(args.times))
    # the levels change no coefficient: the sweep and the slices share it
    st = build_stencil(scenario)
    limit = mesa.sweep(scenario, times, dt=args.dt, stencil=st)
    slices, sl = [], None
    for t in times:
        sl = baiocchi.solve_slice(scenario, t, warm=sl, stencil=st)
        slices.append(sl)
    rows = baiocchi.cross_validate(limit, slices, scenario)

    contact = _contact_record(scenario, limit, st)
    csv_rows = [[r["t"], r["supgap_w"], r["supgap_rel"], r["hausdorff_cells"],
                 contact is not None] for r in rows]
    snapshots.write_csv(out / "compare.csv",
                        ["t", "supgap_W", "supgap_rel", "hausdorff_cells",
                         "contact_flags"], csv_rows)
    worst = max((r["supgap_rel"] for r in rows), default=0.0)
    return {
        "times": times, "m_list": list(scenario.m_list), "dt": limit.dt,
        "solver_tol": SOLVE_TOL, "mass_error": limit.mass_error,
        "cross_validation": rows, "contact": contact,
    }, f"compare: worst relative W gap {worst:.3%}"


def _contact_record(scenario, limit, st):
    """Contact-time agreement between the two routes, when a patch exists."""
    patch = scenario.zero_load
    if not patch.any():
        return None
    # the patch has zero load, so its first times are step midpoints, or
    # inf where a cell never turned active
    t_mesa = float(limit.first_theta_time[patch].min())
    if t_mesa == np.inf:
        return None
    # one cell's time, or the step if shorter: a longer default step does
    # not widen the gate
    d = min(limit.dt, scenario.cell_time)
    # W vanishes at t = 0, so the patch is inactive there whatever dt is
    try:
        t_obstacle = baiocchi.contact_time(
            scenario, patch, t_lo=0.0, t_hi=scenario.t_max,
            tol_t=d, stencil=st)
    except ConfigError as exc:
        return {"t_mesa": t_mesa, "t_obstacle": None,
                "note": f"bracketing failed: {exc}"}
    gap, tol = abs(t_mesa - t_obstacle), 2 * d
    return {"t_mesa": t_mesa, "t_obstacle": t_obstacle, "gap": gap,
            "tol": tol, "agree": gap <= tol}


def cmd_barriers(args, scenario, out):
    n, k, eps = args.n, args.k, args.eps
    bounds = barriers.derivative_bounds(n)
    sub = barriers.subsolution_speed(n, k, eps, bounds=bounds)
    rows = []
    for alpha, beta in [(1.0, 0.0), (1.0, 1.0), (4.0, 0.5)]:
        r = np.linspace(alpha, 1 + alpha + beta, 101)
        u = barriers.annulus_harmonic(r, n, alpha, beta)
        v = barriers.annulus_poisson(r, n, alpha, beta)
        du = barriers.annulus_harmonic_outer_slope(n, alpha, beta)
        dv = barriers.annulus_poisson_outer_slope(n, alpha, beta)
        rows += [[alpha, beta, ri, ui, vi, du, dv]
                 for ri, ui, vi in zip(r, u, v)]
    snapshots.write_csv(out / "barrier_profiles.csv",
                        ["alpha", "beta", "r", "harmonic", "poisson",
                         "harmonic_outer_slope", "poisson_outer_slope"], rows)
    record = {
        "n": n, "k": k, "eps": eps,
        "gamma": [bounds.gamma1, bounds.gamma2, bounds.gamma3, bounds.gamma4],
        "scan": {"alpha": bounds.scan_alpha, "beta": bounds.scan_beta,
                 "pad": bounds.pad},
        "ell_upper": k, "ell_sub": sub.ell_sub,
        # null where no finite diffusivity suffices (eps = 0, or overflow)
        "m_min": sub.m_min if np.isfinite(sub.m_min) else None,
    }
    (out / "barrier_bounds.json").write_text(json.dumps(record, indent=2))
    return record, f"barriers n={n}: ell in [{sub.ell_sub:.4g}, {k:g}]"


def cmd_diagnose(args, scenario, out):
    run_dir = Path(args.run_dir)
    fields, times = [], []
    for json_path in sorted(run_dir.glob("*_W_*.json")) or \
            sorted(run_dir.glob("*_V_*.json")) or \
            sorted(run_dir.glob("*_theta_*.json")):
        try:
            arr, meta = snapshots.load_raster(json_path)
            times.append(float(meta["t"]))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read raster {json_path}: {exc}") from exc
        if arr.shape != scenario.grid.shape:
            raise ConfigError(f"raster {json_path} has shape {list(arr.shape)}"
                              f", the scenario grid {list(scenario.grid.shape)}")
        fields.append(arr)
    if not fields:
        raise ConfigError(f"no field rasters found in {run_dir}")
    series = fbdiag.extract_regions(fields, scenario, times=times)
    rows = [[t, series.measures[i], series.weighted_measures[i],
             series.fb_points[i].shape[0] * scenario.grid.h ** (scenario.grid.n - 1)]
            for i, t in enumerate(series.times)]
    snapshots.write_csv(out / "regions.csv",
                        ["t", "measure", "weighted_measure",
                         "fb_size_estimate"], rows)

    h = scenario.grid.h
    radii = (_parse_times(args.radii) if args.radii is not None
             else [4 * h, 8 * h, 16 * h])
    t_last = series.times[-1]
    if args.points == "auto":
        pts = series.fb_points[-1]
        step = max(1, pts.shape[0] // 8)
        points = pts[::step][:8]
    else:
        try:
            points = [tuple(float(v) for v in chunk.split(","))
                      for chunk in args.points.split(";")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse point list {args.points!r}") \
                from exc
    reports = []
    for p in points:
        rep = fbdiag.classify_point(series, p, t_last, radii)
        reports.append({
            "point": list(map(float, np.asarray(p))), "t": t_last,
            "radii": rep.radii, "density_ratios": rep.density_ratios,
            "md_ratios": rep.md_ratios,
            "classification": rep.classification, "notes": rep.notes})
    (out / "fb_points.json").write_text(json.dumps(reports, indent=2))
    growth = fbdiag.measure_continuity(series, scenario.lambda_bound) \
        if len(series.times) > 1 else None
    return {
        "run_dir": str(run_dir), "radii": radii,
        "max_growth_slope": None if growth is None else growth["max_slope"],
        "classifications": [r["classification"] for r in reports],
    }, f"diagnose: {len(reports)} points classified"


class _Parser(argparse.ArgumentParser):
    """A usage error is bad configuration: exit 1 with a JSON record."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser():
    parser = _Parser(
        prog="mesahs",
        description="Hele-Shaw mushy-region laboratory: enthalpy sweep route "
                    "and obstacle-slice route with cross-validation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    dt_help = ("enthalpy step length (default: 2h / max(max pressure "
               "datum, 1), stefan.default_dt)")

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", required=True,
                       help="output directory, new or empty")

    def recorded_jobs(p):
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="runs serially; the value is only recorded in "
                            "the manifest")

    p = sub.add_parser("stefan", help="run one diffusivity")
    common(p)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--dt", type=float, default=None, help=dt_help)
    p.add_argument("--snapshots", required=True, help="comma-separated times")
    p.set_defaults(func=cmd_stefan)

    p = sub.add_parser("mesa", help="run the diffusivity sweep")
    common(p)
    p.add_argument("--m-list", default=None, help="override scenario m_list")
    p.add_argument("--dt", type=float, default=None, help=dt_help)
    p.add_argument("--snapshots", required=True)
    p.set_defaults(func=cmd_mesa)

    p = sub.add_parser("obstacle", help="solve obstacle slices")
    common(p)
    recorded_jobs(p)
    p.add_argument("--times", required=True)
    p.set_defaults(func=cmd_obstacle)

    p = sub.add_parser("compare", help="both routes plus cross-validation")
    common(p)
    recorded_jobs(p)
    p.add_argument("--m-list", default=None)
    p.add_argument("--dt", type=float, default=None, help=dt_help)
    p.add_argument("--times", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("barriers", help="emit barrier profiles and constants")
    p.add_argument("--n", type=int, default=2, choices=(2, 3))
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_barriers)

    p = sub.add_parser("diagnose", help="free-boundary reports for a run dir")
    p.add_argument("run_dir", help="directory written by a previous command")
    p.add_argument("scenario", help="scenario JSON file of that run")
    p.add_argument("--points", default="auto",
                   help='"auto" or "x,y;x,y;..."')
    p.add_argument("--radii", default=None, help="comma-separated scan radii")
    p.add_argument("--out", required=True)
    recorded_jobs(p)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        out = Path(args.out)
        # a run's outputs and manifest are never mixed with another's
        if out.exists() and not (out.is_dir() and not any(out.iterdir())):
            raise ConfigError(f"--out {out} exists and is not an empty "
                              "directory")
        manifest = {"package_version": __version__, "command": args.command}
        scenario = None
        if "scenario" in args:
            scenario = load_scenario(args.scenario)
            if getattr(args, "m_list", None) is not None:
                scenario = dataclasses.replace(
                    scenario, m_list=tuple(_parse_times(args.m_list)))
            grid = scenario.grid
            manifest.update({
                "scenario_path": str(args.scenario),
                "scenario_sha256": snapshots.file_sha256(args.scenario),
                "scenario_content_hash": scenario.content_hash(),
                "grid": {"h": grid.h, "shape": list(grid.shape),
                         "counts": grid.counts()}})
        if "jobs" in args:
            manifest["jobs"] = args.jobs
        record, summary = args.func(args, scenario, out)
        snapshots.write_manifest(out, {**manifest, **record})
        print(f"{summary}, wrote {out}")
        return 0
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except SolverError as exc:
        _emit_error("solver", exc,
                    extra={"residual_history": exc.residual_history[-20:]})
        return EXIT_SOLVER
    except EnvelopeError as exc:
        _emit_error("envelope", exc)
        return EXIT_ENVELOPE
    except MesaHSError as exc:
        _emit_error("internal", exc)
        return EXIT_INTERNAL
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        _emit_error("internal", exc, extra={"traceback":
                                            traceback.format_exc()})
        return EXIT_INTERNAL


def _emit_error(kind, exc, extra=None):
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if extra:
        record.update(extra)
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
