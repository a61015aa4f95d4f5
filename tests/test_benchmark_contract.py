"""What the benchmark's tracer binds in the package, checked on a tiny run.

``perfbench/tracer.py`` wraps the layer functions from outside and reads
their arguments and results: ``projected_sor``'s ``tol``, ``box`` and
``fluid`` and its 3-tuple, ``stefan._advance``'s sweep count at index 2,
``stefan.run``'s ``steps`` and ``mass_error``, and ``solve_slice``'s
``warm``, ``sweeps`` and ``residual``.  A change that breaks one of them
fails only inside the benchmark, so this runs the tracer in a subprocess on
an h = 1/8 scenario, once on single runs and slices and once on a sweep,
which must reach the traced ``stefan.run``.  The regrowth count, kernel
calls beyond the first per step, must equal the regrowths of the package's
own step log.  The command lines ``perfbench/run.py`` passes to the CLI are
checked against the CLI's parser too, and its scenario files, which still
state ``lambda``, against the loader, which derives it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mesahs.cli import build_parser
from mesahs.geometry import load_scenario

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install, summarise

tracer = Tracer("contract")
root = tracer.open("process", "process")
install(tracer)
from mesahs import baiocchi, scenarios, stefan

sc = scenarios.radial_scenario(h=1 / 8, t_max=0.2, m_list=(8, 16, 32))
res = stefan.run(sc, 16, [0.1, 0.2])
# one step of 0.2 outgrows its first window
long = stefan.run(sc, 16, [0.2], dt=0.2)
cold = baiocchi.solve_slice(sc, 0.1)
warm = baiocchi.solve_slice(sc, 0.2, warm=cold)
tracer.close(root)
print(json.dumps({
    "metrics": summarise([tracer.spans]),
    "step_logs": [res.step_log, long.step_log],
    "mass_errors": [res.mass_error, long.mass_error],
    "slice_sweeps": [cold.sweeps, warm.sweeps],
    "spans": [[s[3], s[6]] for s in tracer.spans],
}, default=lambda x: x.item()))
"""


SWEEP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install, summarise

tracer = Tracer("contract-sweep")
root = tracer.open("process", "process")
install(tracer)
from mesahs import mesa, scenarios

sc = scenarios.radial_scenario(h=1 / 8, t_max=0.2, m_list=(8, 16, 32))
lim = mesa.sweep(sc, [0.1, 0.2])
tracer.close(root)
print(json.dumps({"metrics": summarise([tracer.spans]),
                  "mass_error": lim.mass_error}))
"""


def _traced_run(script=SCRIPT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_binds_and_counts_the_step_log():
    out = _traced_run()
    metrics, logs = out["metrics"], out["step_logs"]
    log = [row for run_log in logs for row in run_log]
    assert len(log) > 0
    assert metrics["stefan.steps"] == len(log)
    assert metrics["stefan.sweeps"] == sum(row[4] for row in log)
    assert metrics["stefan.sweeps_per_step_max"] == max(row[4] for row in log)
    assert metrics["stefan.mass_error_max"] == max(out["mass_errors"])
    regrowths = sum(row[8] for row in log)
    assert metrics["stefan.regrowths"] == regrowths >= 1
    assert metrics["stefan.sor_calls"] == len(log) + regrowths
    assert metrics["baiocchi.slices"] == 2
    assert metrics["baiocchi.sweeps_per_slice"] == sum(out["slice_sweeps"]) / 2
    assert metrics["stencil.unconverged"] == 0
    # every hook ran and filled its attributes; no wrapped call raised
    attrs = {}
    for name, span_attrs in out["spans"]:
        assert "error" not in span_attrs, name
        attrs.setdefault(name, []).append(span_attrs)
    assert len(attrs["_advance"]) == len(log)
    assert [a["sweeps"] for a in attrs["_advance"]] == [r[4] for r in log]
    assert all({"sweeps", "residual", "converged", "fluid_cells",
                "box_cells"} <= set(a) for a in attrs["projected_sor"])
    assert [a["warm"] for a in attrs["solve_slice"]] == [False, True]
    assert attrs["run"] == [{"steps": len(run_log), "mass_error": error}
                            for run_log, error in zip(logs,
                                                      out["mass_errors"])]


def test_sweep_is_traced_as_a_run():
    # the sweep marches through stefan.run, so the benchmark times it and
    # reads the last level's conservation error
    out = _traced_run(SWEEP_SCRIPT)
    assert out["metrics"]["stefan.run_s"] > 0
    assert out["metrics"]["stefan.mass_error_max"] == out["mass_error"]


def _load_bench(monkeypatch):
    """``perfbench/run.py`` as a module."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    return bench


def test_benchmark_command_lines_parse(monkeypatch):
    # a flag the benchmark passes that the CLI drops or tightens would fail
    # only inside the benchmark run
    bench = _load_bench(monkeypatch)
    commands = [args for workload in bench.WORKLOADS.values()
                for mode, args in workload.processes("scenario.json", "out")
                if mode == "cli"]
    assert {args[0] for args in commands} == {"compare", "obstacle",
                                              "diagnose"}
    parser = build_parser()
    for args in commands:
        parser.parse_args(args)


@pytest.mark.parametrize("shape", ["radial_spec", "annulus_spec"])
def test_stated_lambda_moves_no_hash(monkeypatch, tmp_path, shape):
    # lambda is the largest u_init whatever the file states, so the
    # benchmark's manifests keep their scenario_content_hash
    spec = getattr(_load_bench(monkeypatch), shape)(1 / 8, 1.0)
    hashes = set()
    for stated in (spec["lambda"], None, 0.5):
        path = tmp_path / f"{stated}.json"
        path.write_text(json.dumps(
            {**{k: v for k, v in spec.items() if k != "lambda"},
             **({} if stated is None else {"lambda": stated})}))
        sc = load_scenario(path)
        assert sc.lambda_bound == float(sc.u_init.max()) == spec["lambda"]
        hashes.add(sc.content_hash())
    assert len(hashes) == 1
