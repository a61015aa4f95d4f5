"""One benchmark process: a set-up probe, the annulus API run, or a traced CLI run.

    python3 child.py setup SCENARIO
    python3 child.py [--spans FILE --run-id ID] cli ARGS...
    python3 child.py [--spans FILE --run-id ID] annulus SCENARIO OUT_DIR

``setup`` prints one JSON line with the time to import the package, load the
scenario and build its stencil.  ``cli`` runs ``mesahs.cli.main(ARGS)`` and
exits with its code.  ``annulus`` runs the contact-time bisection, the four
slices around the contact time and the pressure recovery through the public
API, with its times scaled by 1/p, and writes their rasters and a manifest
with the CLI's exit codes.
With ``--spans`` the layers are traced and the spans are written to FILE when
the process ends.  Only the standard library is imported before the package,
so the probe's import time is the package's.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: the annulus workload's bracketing and slice offsets (acceptance criterion 5),
#: in the natural time p*t: with zero data beyond the slot, W(x, t) at slot
#: pressure p is W(x, p*t) at pressure 1, so every seeded p bisects the same
#: sequence of obstacle problems as p = 1.  A bracket fixed in t would land
#: the bisection on different problems for each p, and for some p on one just
#: past contact where the solver stalls (see README, "Known slow case").
CONTACT_T_LO, CONTACT_T_HI, CONTACT_TOL_T = 2.0, 3.2, 2e-3
DELTA, DT_V = 0.01, 0.01


def probe_setup(scenario_path):
    import mesahs.cli  # noqa: F401  (everything the CLI imports)
    from mesahs.geometry import load_scenario
    from mesahs.stencil import build_stencil

    t_import = time.perf_counter()
    scenario = load_scenario(scenario_path)
    t_load = time.perf_counter()
    build_stencil(scenario)
    t_build = time.perf_counter()
    print(json.dumps({"import_s": t_import - _START,
                      "load_s": t_load - t_import,
                      "build_s": t_build - t_load,
                      "setup_s": t_build - _START}))
    return 0


def run_annulus(scenario_path, out_dir):
    from mesahs import baiocchi, scenarios, snapshots
    from mesahs.cli import EXIT_CONFIG, EXIT_ENVELOPE, EXIT_SOLVER
    from mesahs.errors import ConfigError, EnvelopeError, SolverError
    from mesahs.geometry import load_scenario
    from mesahs.stencil import build_stencil

    with open(scenario_path) as fh:
        p = json.load(fh)["p"]["value"]
    t_lo, t_hi, tol_t = CONTACT_T_LO / p, CONTACT_T_HI / p, CONTACT_TOL_T / p
    delta, dt_v = DELTA / p, DT_V / p
    try:
        scenario = load_scenario(scenario_path)
        patch = scenarios.annulus_patch_mask(scenario)
        st = build_stencil(scenario)
        t_star = baiocchi.contact_time(
            scenario, patch, t_lo=t_lo, t_hi=t_hi, tol_t=tol_t, stencil=st)
        pre = baiocchi.solve_slice(scenario, t_star - delta, stencil=st)
        pre2 = baiocchi.solve_slice(scenario, t_star - delta + dt_v, warm=pre,
                                    stencil=st)
        post = baiocchi.solve_slice(scenario, t_star + delta, warm=pre,
                                    stencil=st)
        post2 = baiocchi.solve_slice(scenario, t_star + delta + dt_v,
                                     warm=post, stencil=st)
        v_pre = baiocchi.recover_pressure(pre, pre2)
        v_post = baiocchi.recover_pressure(post, post2)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except SolverError as exc:
        return _fail(EXIT_SOLVER, exc)
    except EnvelopeError as exc:
        return _fail(EXIT_ENVELOPE, exc)

    h = scenario.grid.h
    for name, arr, t in (("annulus_W_pre", pre.w, pre.t),
                         ("annulus_W_post", post.w, post.t),
                         ("annulus_V_pre", v_pre, pre.t),
                         ("annulus_V_post", v_post, post.t)):
        snapshots.dump_raster(out_dir, name, arr, {"t": t, "m": None, "h": h})
    slices = [{"t": s.t, "residual": s.residual, "sweeps": s.sweeps}
              for s in (pre, pre2, post, post2)]
    snapshots.write_csv(f"{out_dir}/annulus_slices.csv",
                        ["t", "residual", "sweeps"],
                        [[s["t"], s["residual"], s["sweeps"]] for s in slices])
    snapshots.write_manifest(out_dir, {
        "command": "annulus", "p": p, "t_star": t_star,
        "bracket": [t_lo, t_hi], "tol_t": tol_t,
        "delta": delta, "dt_v": dt_v, "slices": slices})
    return 0


def _fail(code, exc):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("mode", choices=("setup", "cli", "annulus"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return probe_setup(*args.rest)

    tracer = None
    if args.spans:
        from tracer import Tracer, install
        tracer = Tracer(args.run_id)
        root = tracer.open("process", "process", start=_START)
        install(tracer)
    try:
        if args.mode == "cli":
            from mesahs import cli
            return cli.main(args.rest)
        return run_annulus(*args.rest)
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
