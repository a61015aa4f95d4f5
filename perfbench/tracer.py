"""In-memory span tracer for the mesahs layers, installed from outside.

``install`` wraps every public module-level function of each layer module,
plus ``stefan._advance`` (the one implicit step, which has no public entry
point), and rebinds the wrapper everywhere a ``mesahs`` module holds the
original.  Callers bind some functions by name (``stefan`` and ``baiocchi``
do ``from .stencil import projected_sor``), so patching the defining module
alone would miss every solve.

Each span is ``(id, parent, layer, name, start, end, attrs)`` with times from
``time.perf_counter``; spans stay in memory and are written out once, when
the process ends.  ``summarise`` turns the spans of one traced run into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

LAYERS = ("geometry", "stencil", "stefan", "mesa", "baiocchi", "fbdiag",
          "snapshots", "cli")

#: private functions that mark a layer boundary worth a span of their own
PRIVATE_ENTRY_POINTS = {("stefan", "_advance")}

#: float64 loads and stores one red-black cell update needs at least: the
#: four neighbours, diag, rhs and the old value in, the new value out
BYTES_PER_CELL_UPDATE = 8 * 8


class Tracer:
    """Records nested spans of wrapped calls in one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, layer, name, start=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        t0 = time.perf_counter() if start is None else start
        self.spans.append([sid, parent, layer, name, t0, None, {}])
        self._stack.append(sid)
        return sid

    def close(self, sid, attrs=None):
        span = self.spans[sid]
        span[5] = time.perf_counter()
        if attrs:
            span[6].update(attrs)
        self._stack.pop()

    def wrap(self, layer, name, fn):
        hook = _HOOKS.get((layer, name))
        signature = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(layer, name)
            attrs = {}
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs.update(hook(bound.arguments, result))
                return result
            finally:
                tracer.close(sid, attrs)

        return functools.wraps(fn)(traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def install(tracer):
    """Wrap the layer entry points and rebind them in every mesahs module."""
    import mesahs

    for info in pkgutil.iter_modules(mesahs.__path__):
        importlib.import_module(f"mesahs.{info.name}")
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"mesahs.{layer}"]
        for name, obj in vars(module).items():
            public = not name.startswith("_") or (layer, name) in PRIVATE_ENTRY_POINTS
            if (public and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(layer, name, obj))
    for modname, module in list(sys.modules.items()):
        if modname != "mesahs" and not modname.startswith("mesahs."):
            continue
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])


# ---------------------------------------------------------------------------
# per-call attributes, read from arguments and results
# ---------------------------------------------------------------------------

def _sor_attrs(args, result):
    residual, sweeps, _ = result
    box = args["box"]
    box_cells = 1
    for s in box:
        box_cells *= s.stop - s.start
    return {"sweeps": int(sweeps), "residual": float(residual),
            "converged": bool(residual <= args["tol"]),
            "fluid_cells": int(args["fluid"][box].sum()),
            "box_cells": int(box_cells)}


def _advance_attrs(args, result):
    return {"sweeps": int(result[2])}


def _run_attrs(args, result):
    return {"steps": int(result.steps), "mass_error": float(result.mass_error)}


def _slice_attrs(args, result):
    return {"warm": args["warm"] is not None, "sweeps": int(result.sweeps),
            "residual": float(result.residual)}


def _load_attrs(args, result):
    return {"fluid_cells": int(result.grid.fluid.sum())}


def _raster_attrs(args, result):
    return {"bytes": os.path.getsize(result)
            + os.path.getsize(result.with_suffix(".json"))}


def _written_attrs(args, result):
    return {"bytes": os.path.getsize(result)}


_HOOKS = {
    ("stencil", "projected_sor"): _sor_attrs,
    ("stefan", "_advance"): _advance_attrs,
    ("stefan", "run"): _run_attrs,
    ("baiocchi", "solve_slice"): _slice_attrs,
    ("geometry", "load_scenario"): _load_attrs,
    ("snapshots", "dump_raster"): _raster_attrs,
    ("snapshots", "write_csv"): _written_attrs,
    ("snapshots", "write_manifest"): _written_attrs,
}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: layers whose self time is reported; ``process`` is the root span of each
#: traced process (interpreter-level imports and the benchmark's own glue)
SELF_LAYERS = LAYERS + ("process",)


def summarise(span_sets):
    """Per-layer metrics from the span lists of one traced run.

    ``span_sets`` holds one span list per process of the run (the obstacle
    workload runs two).  A span's self time is its duration minus the
    durations of its direct children; calls are single-threaded, so children
    never overlap and the self times of a process add up to its root span.
    """
    m = {}
    self_by_layer = dict.fromkeys(SELF_LAYERS, 0.0)
    sor, steps, runs, slices, loads = [], [], [], [], []
    totals = {}
    contact_solves = 0
    regrowths = 0
    stefan_sor_calls = 0
    snapshot_bytes = 0
    for spans in span_sets:
        children = {}
        for span in spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append(span)
        for span in spans:
            sid, _, layer, name, t0, t1, attrs = span
            dur = t1 - t0
            kids = children.get(sid, ())
            self_by_layer[layer] += dur - sum(k[5] - k[4] for k in kids)
            totals[(layer, name)] = totals.get((layer, name), 0.0) + dur
            if (layer, name) == ("stencil", "projected_sor"):
                sor.append(attrs)
            elif (layer, name) == ("stefan", "_advance"):
                steps.append(attrs)
                calls = sum(1 for k in kids if k[3] == "projected_sor")
                stefan_sor_calls += calls
                regrowths += max(0, calls - 1)
            elif (layer, name) == ("stefan", "run"):
                runs.append(attrs)
            elif (layer, name) == ("baiocchi", "solve_slice"):
                slices.append((dur, attrs))
            elif (layer, name) == ("baiocchi", "contact_time"):
                contact_solves += sum(1 for k in kids if k[3] == "solve_slice")
            elif (layer, name) == ("geometry", "load_scenario"):
                loads.append(attrs)
            if layer == "snapshots":
                snapshot_bytes += attrs.get("bytes", 0)

    def total(layer, *names):
        return sum(totals.get((layer, n), 0.0) for n in names)

    sor_s = total("stencil", "projected_sor")
    sweeps = sum(a["sweeps"] for a in sor)
    cell_updates = sum(a["sweeps"] * a["fluid_cells"] for a in sor)
    m["stencil.sor_calls"] = len(sor)
    m["stencil.sor_sweeps"] = sweeps
    m["stencil.sor_s"] = sor_s
    m["stencil.cell_updates"] = cell_updates
    m["stencil.mcups"] = cell_updates / sor_s / 1e6 if sor_s > 0 else 0.0
    m["stencil.bytes_computed"] = BYTES_PER_CELL_UPDATE * sum(
        a["sweeps"] * a["box_cells"] for a in sor)
    m["stencil.unconverged"] = sum(1 for a in sor if not a["converged"])
    m["stencil.build_s"] = total("stencil", "build_stencil")

    step_sweeps = [a["sweeps"] for a in steps]
    m["stefan.steps"] = len(steps)
    m["stefan.sor_calls"] = stefan_sor_calls
    m["stefan.sweeps"] = sum(step_sweeps)
    m["stefan.sweeps_per_step_mean"] = (sum(step_sweeps) / len(step_sweeps)
                                        if step_sweeps else 0.0)
    m["stefan.sweeps_per_step_max"] = max(step_sweeps, default=0)
    m["stefan.run_s"] = total("stefan", "run")
    m["stefan.regrowths"] = regrowths
    m["stefan.regrowth_frac"] = (regrowths / stefan_sor_calls
                                 if stefan_sor_calls else 0.0)
    m["stefan.mass_error_max"] = max((a["mass_error"] for a in runs),
                                     default=0.0)

    m["mesa.sweep_s"] = total("mesa", "sweep")

    cold = [d for d, a in slices if not a["warm"]]
    warm = [d for d, a in slices if a["warm"]]
    m["baiocchi.slices"] = len(slices)
    m["baiocchi.sweeps_per_slice"] = (
        sum(a["sweeps"] for _, a in slices) / len(slices) if slices else 0.0)
    m["baiocchi.cold_slice_s"] = sum(cold) / len(cold) if cold else 0.0
    m["baiocchi.warm_slice_s"] = sum(warm) / len(warm) if warm else 0.0
    m["baiocchi.contact_solves"] = contact_solves
    m["baiocchi.contact_s"] = total("baiocchi", "contact_time")
    m["baiocchi.cross_validate_s"] = total("baiocchi", "cross_validate")

    m["geometry.load_s"] = total("geometry", "load_scenario")
    m["geometry.fluid_cells"] = max((a["fluid_cells"] for a in loads),
                                    default=0)

    m["fbdiag.extract_s"] = total("fbdiag", "extract_regions")
    m["fbdiag.classify_s"] = total("fbdiag", "classify_point")

    m["snapshots.bytes"] = snapshot_bytes
    m["snapshots.write_s"] = total("snapshots", "dump_raster", "write_csv")
    m["snapshots.manifest_s"] = total("snapshots", "write_manifest")

    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.self_sum_s"] = sum(self_by_layer.values())
    return m


def load_spans(path):
    with open(path) as fh:
        return json.load(fh)["spans"]
