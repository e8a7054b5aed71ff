"""Spans around the calls between basinreach's modules, recorded from
outside the program.

While installed, the tracer replaces each name a caller module imports
(``basinreach.reach.run_gd``, ``basinreach.flow.min_norm_element``, ...)
with a wrapper that records a span: its layer, its parent span, start
and end, the objective evaluations made inside it and what the call
returned (steps, orbit points, bytes written).  Module globals are looked
up at call time, so the wrapper sees every call the program makes through
that name.  A layer's self time is the time of its spans minus the time
of their child spans.
"""

import os
from contextlib import contextmanager
from time import perf_counter

from workloads import GRAD, HESS, VALUE  # also puts the checkout's src/ on sys.path

import basinreach.cli as cli_mod  # noqa: E402
import basinreach.flow as flow_mod  # noqa: E402
import basinreach.reach as reach_mod  # noqa: E402
import basinreach.serialize as serialize_mod  # noqa: E402

LAYERS = ("reach", "reverse", "descent", "flow", "landscape", "serialize", "cli")


def _steps(traj, _=None):
    return {"steps": len(traj.states) - 1}


def _orbit(orbit, _):
    # reverse_orbit makes one ascent solve per point it adds, plus the one
    # that left the box when the orbit is partial
    return {"solves": len(orbit.points) - 1 + (orbit.status == "left_box")}


def _report(report, _):
    orbit = report.reverse_part
    return {"orbit_points": len(orbit.points) if hasattr(orbit, "anchor") else 0}


def _written(_, args):
    return {"bytes": os.path.getsize(args[-1])}


# (module, imported name, span name, layer, observe(result, args) or None)
TARGETS = (
    (reach_mod, "stability_probe", "reach.probe", "reach", None),
    (reach_mod, "_escape_radius", "reach.escape_radius", "reach", None),
    (reach_mod, "_first_crossing_orbit", "reach.first_crossing", "reach", None),
    (reach_mod, "reverse_orbit", "reverse.orbit", "reverse", _orbit),
    (reach_mod, "run_gd", "descent.run_gd", "descent", _steps),
    (reach_mod, "_run_to_level", "descent.run_to_level", "descent", lambda out, _: _steps(out[0])),
    (reach_mod, "classify_limit", "descent.classify", "descent", None),
    (reach_mod, "integrate", "flow.integrate", "flow", _steps),
    (reach_mod, "_sphere_exit_detail", "flow.sphere_exit", "flow", lambda out, _: _steps(out[2])),
    (reach_mod, "integrate_minnorm", "flow.minnorm", "flow", _steps),
    (flow_mod, "min_norm_element", "landscape.min_norm", "landscape", None),
    (cli_mod, "reach_general", "reach.reach_general", "reach", _report),
    (serialize_mod, "write_trajectory_csv", "serialize.write", "serialize", _written),
    (serialize_mod, "write_reverse_part_csv", "serialize.write", "serialize", _written),
    (serialize_mod, "write_json", "serialize.write", "serialize", _written),
)
ROOT_OBSERVERS = {"reach.reach_discrete": _report, "reach.reach_continuous": _report,
                  "cli.main": None}


class Span:
    __slots__ = ("name", "layer", "parent", "duration", "child_time", "evals", "work")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.child_time = 0.0
        self.work = {}

    @property
    def self_time(self):
        return self.duration - self.child_time

    def under(self, name):
        return self.parent is not None and self.parent.name == name


class Tracer:
    def __init__(self, counts):
        self.counts = counts
        self.spans = []
        self._stack = []

    def call(self, name, layer, fn, args, kwargs, observe=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent)
        self.spans.append(span)
        self._stack.append(span)
        snap = self.counts.snapshot()
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.duration = perf_counter() - start
            span.evals = self.counts.since(snap)
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration
        if observe is not None:
            span.work = observe(out, args)
        return out

    def root(self, name, fn):
        return self.call(name, name.split(".")[0], fn, (), {}, ROOT_OBSERVERS[name])

    @contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in TARGETS]
        try:
            for (module, attr, fn), (_, _, name, layer, observe) in zip(originals, TARGETS):
                setattr(module, attr, self._wrap(fn, name, layer, observe))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _wrap(self, fn, name, layer, observe):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, observe)
        return traced


def layer_metrics(spans, n_calls):
    """Per-layer metrics per reach call as (name, value, unit) rows, and the
    self time of each layer."""
    def total(names, key="duration", where=None):
        sel = [s for s in spans if s.name in names and (where is None or where(s))]
        if key == "duration":
            return sum(s.duration for s in sel)
        if key == "count":
            return len(sel)
        if key in ("grad", "value", "hess"):
            slot = {"grad": GRAD, "value": VALUE, "hess": HESS}[key]
            return sum(s.evals[slot] for s in sel)
        return sum(s.work.get(key, 0) for s in sel)

    def in_probe(s):
        return s.under("reach.probe")

    def not_in_probe(s):
        return not s.under("reach.probe")

    roots = [s for s in spans if s.parent is None]
    gd = ("descent.run_gd", "descent.run_to_level")
    rk4 = ("flow.integrate", "flow.sphere_exit")
    solves = total(("reverse.orbit",), "solves")
    points = total(("reach.reach_discrete", "reach.reach_continuous", "reach.reach_general"),
                   "orbit_points")
    gd_steps = total(gd, "steps")
    int_steps = total(("flow.integrate",), "steps")
    self_time = {layer: sum(s.self_time for s in spans if s.layer == layer) for layer in LAYERS}
    n_discrete = total(("reach.reach_discrete",), "count")
    rows = [
        ("reach.probe_s", total(("reach.probe",)), "s"),
        ("reach.probe_starts", total(("descent.run_gd", "flow.integrate"), "count", in_probe), "count"),
        ("descent.probe_steps", total(("descent.run_gd",), "steps", in_probe), "count"),
        ("flow.probe_steps", total(("flow.integrate",), "steps", in_probe), "count"),
        ("reach.escape_radius_s", total(("reach.escape_radius",)), "s"),
        ("reach.escape_radius_value_evals", total(("reach.escape_radius",), "value"), "count"),
        ("reverse.orbit_builds", total(("reverse.orbit",), "count"), "count"),
        ("reverse.ascent_solves", solves, "count"),
        ("reverse.orbit_points", points, "count"),
        ("reverse.solves_per_point", solves / points if points else 0.0, "ratio"),
        ("reverse.grad_evals", total(("reverse.orbit",), "grad"), "count"),
        ("reverse.s", total(("reverse.orbit",)), "s"),
        ("descent.replay_steps", total(("descent.run_gd",), "steps", not_in_probe), "count"),
        ("descent.replay_s", total(("descent.run_gd",), "duration", not_in_probe), "s"),
        ("descent.level_steps", total(("descent.run_to_level",), "steps"), "count"),
        ("descent.step_us", 1e6 * total(gd) / gd_steps if gd_steps else 0.0, "us"),
        ("flow.rk4_steps", total(rk4, "steps"), "count"),
        ("flow.integrate_s", total(("flow.integrate",)), "s"),
        ("flow.sphere_exit_s", total(("flow.sphere_exit",)), "s"),
        ("flow.sphere_exit_grad_evals", total(("flow.sphere_exit",), "grad"), "count"),
        ("flow.step_us", 1e6 * total(("flow.integrate",)) / int_steps if int_steps else 0.0, "us"),
        ("flow.minnorm_steps", total(("flow.minnorm",), "steps"), "count"),
        ("flow.minnorm_s", total(("flow.minnorm",)), "s"),
        ("landscape.min_norm_calls", total(("landscape.min_norm",), "count"), "count"),
        ("landscape.min_norm_s", total(("landscape.min_norm",)), "s"),
        ("landscape.hess_evals", sum(s.evals[HESS] for s in roots), "count"),
        ("serialize.s", total(("serialize.write",)), "s"),
        ("serialize.bytes", total(("serialize.write",), "bytes"), "bytes"),
        ("cli.self_s", self_time["cli"], "s"),
        ("reach.candidates_tried",
         total(("reach.first_crossing", "flow.sphere_exit"), "count"), "count"),
        ("reach.alpha_shrinks", total(("reach.escape_radius",), "count") - n_discrete, "count"),
        ("reach.self_s", self_time["reach"], "s"),
    ]
    # the ratios and per-step times are already normalized; the rest is per reach
    per_call = [(name, value if unit in ("ratio", "us") else value / n_calls, unit)
                for name, value, unit in rows]
    return per_call, self_time
