"""Reproduce the slow warm-started solve of the contact bisection.

    python3 perfbench/stall.py

Run from the repository root (about 3 minutes).  It bisects the annulus
contact time as ``baiocchi.contact_time`` does, at p = 0.994562 with the
bracket fixed in t at [2.0, 3.2], and prints the sweeps and time of every
solve.  One solve just past the contact takes about 58,000 sweeps; the
others take hundreds.  The benchmark itself states the bracket in p*t and so
never reaches this solve (see README, "Known slow case").
"""

import json
import sys
import time

import numpy as np

from run import SRC, WORK, annulus_spec

P = 0.994562
T_LO, T_HI, TOL_T = 2.0, 3.2, 2e-3


def main():
    sys.path.insert(0, str(SRC))
    from mesahs import baiocchi, scenarios
    from mesahs.geometry import load_scenario
    from mesahs.stencil import build_stencil

    WORK.mkdir(exist_ok=True)
    path = WORK / "stall-scenario.json"
    spec = annulus_spec(1.0 / 32, P)
    spec["t_max"] = T_HI
    path.write_text(json.dumps(spec))
    scenario = load_scenario(path)
    path.unlink()
    patch = scenarios.annulus_patch_mask(scenario)
    st = build_stencil(scenario)

    def solve(t, warm=None):
        t0 = time.perf_counter()
        sl = baiocchi.solve_slice(scenario, t, warm=warm, stencil=st)
        touches = bool(np.any(sl.active_mask & patch))
        print(f"t={t:.6f}  p*t={P * t:.6f}  warm={warm is not None}  "
              f"sweeps={sl.sweeps}  {time.perf_counter() - t0:.1f} s  "
              f"patch active={touches}", flush=True)
        return sl, touches

    lo_slice, _ = solve(T_LO)
    solve(T_HI)
    lo, hi = T_LO, T_HI
    while hi - lo > TOL_T:
        mid = 0.5 * (lo + hi)
        sl, touches = solve(mid, warm=lo_slice)
        if touches:
            hi = mid
        else:
            lo, lo_slice = mid, sl
    return 0


if __name__ == "__main__":
    sys.exit(main())
