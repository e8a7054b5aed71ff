"""Command-line experiment runner.

Subcommands: bench, run, reach, probe, eos, check.  Configuration comes
from ``--config file.json`` and/or inline flags (flags win); the resolved
configuration is echoed verbatim into the output directory, and identical
config + seed reproduce byte-identical CSV/JSON outputs.  Each field is
declared once, in ``FIELDS``.  ``READS`` names the fields each subcommand
reads in each of its modes; a subcommand takes one ``--flag`` per field
that some mode of it reads, and a run refuses (exit 2) any other field
that is not at its default, so no value is accepted and then dropped.

Each subcommand but bench is a handler ``cmd_*(cfg, f)`` of the resolved
config and objective that does no I/O: it returns ``(outputs, line, ok)``,
its output files by name (each a function of the file's path that writes
it), its one stdout line and whether it succeeded.  ``main`` alone creates
the output directory, writes each output and ``config.json``, prints and
picks the exit code, and only once the handler has returned: a run that
fails writes no directory, and one with a directory at an output file's
path writes nothing.  Exit codes: 0 success, 1 procedure failure (a
failure status, or a LeftBoxError or ArithmeticError inside it), 2
configuration error (a field, a config file that cannot be read as a JSON
object, an output directory that cannot be made, or an output file whose
path is a directory).  ``main`` can be
called repeatedly in one process; the parser is built on the first call
and reused.
"""

import argparse
import errno
import json
import math
import os
import sys
from functools import cache, partial

import numpy as np

from . import serialize
from .descent import run_gd
from .flow import FlowSettings, integrate
from .landscape import LeftBoxError, make_builtin, norm
from .reach import (ReachBudgets, edge_of_stability, reach_continuous,
                    reach_discrete, reach_general, stability_probe)
from .reverse import FORWARD_RESIDUAL_RTOL, prox, prox_certificates
from .sampling import Lcg64
from .schedule import parse_schedule

#: every config field: name -> (default, kind, help); a None default means
#: the field may also be null
FIELDS = {
    "function": ("double_well", "str", "builtin, e.g. quad:1,4 or double_well:1.5"),
    "schedule": ("constant:0.02", "str",
                 "step schedule: constant:C or power:C:P (power:C:0 is constant:C)"),
    "procedure": ("gd", "str", "run's dynamics, gd or flow; other subcommands set their own"),
    "target": (None, "target", "target point x1,x2,... (or a catalog index in a config file)"),
    "x0": (None, "point", "start point x1,x2,... (eos defaults to all ones)"),
    "direction": ("forward", "str", "flow direction"),
    "mode": ("discrete", "str", "reach/probe dynamics: discrete is descent, continuous is flow"),
    "epsilon": (0.4, "number", "reach/probe ball radius"),
    "seed_radius": (1e-3, "number", "ascent-seed sphere radius"),
    "tol": (1e-4, "number", "reach success tolerance"),
    "delta": (None, "number", "saddle reach (--general) escape radius (default epsilon/2)"),
    "gtol": (1e-10, "number", "gradient stopping tolerance"),
    "h": (1e-3, "number", "flow integrator's first trial step, capped at 6/L (a flow reach "
                          "takes it, and reads it only in a minimum's stability probe)"),
    "t_max": (50.0, "time", "flow time budget, inf (null in a config file) for none"),
    "max_iter": (1000000, "count", "discrete iteration budget"),
    "kbar_max": (65536, "count", "reverse-orbit horizon budget"),
    "n_samples": (8, "count", "probe quasi-random starts per radius"),
    "alpha": (None, "number", "eos step size"),
    "n_checks": (500, "count", "prox-check sample count"),
    "seed": (0, "int", "quasi-random generator seed"),
    "output_dir": (None, "str", "output directory after --out and $BASINREACH_OUT, "
                                "else ./basinreach_out"),
}

#: the fields each run reads, by subcommand and mode (run's procedure, reach's
#: and probe's mode, None for eos and check); a subcommand flags each field
#: that some mode of it reads.  A run refuses any other field that is not at
#: its default, procedure and output_dir aside: reach's procedure is set by
#: --general, output_dir only by a config file.  A continuous reach keeps h,
#: though a minimum reach reads it only when it probes and a saddle reach
#: never: the saddles_cli benchmark and CI's flow-saddle checks pass it
READS = {
    ("run", "gd"): ("function", "procedure", "x0", "schedule", "gtol", "max_iter"),
    ("run", "flow"): ("function", "procedure", "x0", "direction", "h", "t_max", "gtol"),
    ("reach", "discrete"): ("function", "mode", "target", "epsilon", "schedule", "seed_radius",
                            "tol", "delta", "gtol", "max_iter", "kbar_max", "seed"),
    ("reach", "continuous"): ("function", "mode", "target", "epsilon", "seed_radius", "tol",
                              "delta", "gtol", "seed", "h", "t_max"),
    ("probe", "discrete"): ("function", "mode", "target", "epsilon", "schedule", "gtol",
                            "max_iter", "n_samples", "seed"),
    ("probe", "continuous"): ("function", "mode", "target", "epsilon", "gtol", "n_samples",
                              "seed", "h", "t_max"),
    ("eos", None): ("function", "alpha", "x0"),
    ("check", None): ("function", "n_checks", "seed"),
}

#: the field naming each subcommand's mode, and the message for a mode it lacks
MODES = {"run": ("procedure", "is not a run procedure"),
         "reach": ("mode", "is not discrete or continuous"),
         "probe": ("mode", "is not discrete or continuous")}

CHOICES = {"procedure": ("gd", "flow"), "direction": ("forward", "reverse"),
           "mode": ("discrete", "continuous")}

#: the procedures each subcommand but run records in its config.json: the
#: first, or the second that reach --general sets; a config may hold one of
#: them or the default gd
PROCEDURES = {"reach": ("reach", "reach-general"), "probe": ("probe",), "eos": ("eos",),
              "check": ("prox-check",)}


class ConfigError(ValueError):
    pass


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v):
    return isinstance(v, list) and all(map(_number, v))


def parse_point(text):
    return [float(v) for v in text.split(",")]


#: kind -> (the test a config-file value must pass, its phrase in messages,
#: the flag's type); counts and the seed must also be integers once merged,
#: and a time budget of inf is null, as strict JSON has no infinity
KINDS = {
    "str": (lambda v: isinstance(v, str), "a string", str),
    "number": (_number, "a number", float),
    "count": (_number, "a number", int),
    "int": (_number, "a number", int),
    "time": (lambda v: v is None or _number(v), "a number or null", float),
    "point": (_numbers, "a list of numbers", parse_point),
    "target": (lambda v: type(v) is int or _numbers(v),
               "a catalog index (int) or a list of numbers", parse_point),
}


def parse_function(text):
    """name or name:p1,p2,... e.g. quad:1,4 or double_well:2."""
    name, _, rest = text.partition(":")
    try:
        params = tuple(float(v) for v in rest.split(",")) if rest else ()
        return make_builtin(name, params)
    except ValueError as exc:
        raise ConfigError(f"function: {exc}") from exc


def resolve_config(args):
    cfg = {key: default for key, (default, _, _) in FIELDS.items()}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config: must be a JSON object of fields, got {json.dumps(loaded)}")
        for key, val in loaded.items():
            if key not in cfg:
                raise ConfigError(f"config: unknown field {key!r}")
            default, kind, _ = FIELDS[key]
            ok, what, _ = KINDS[kind]
            if not (ok(val) or default is None and val is None):
                what += " or null" if default is None else ""
                raise ConfigError(f"config: {key} must be {what}, got {json.dumps(val)}")
            cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "general", False):
        cfg["procedure"] = "reach-general"
    for key, (_, kind, _) in FIELDS.items():
        val = cfg[key]
        if kind == "time" and val == math.inf:
            cfg[key] = None
        if kind in ("count", "int") and (type(val) is not int or kind == "count" and val < 0):
            what = "an integer" if kind == "int" else "a nonnegative integer"
            raise ConfigError(f"{key} must be {what}, got {json.dumps(val)}")
    if getattr(args, "command", None) is not None:  # a Namespace with no subcommand
        refuse_unread(cfg, args.command)                # resolves its fields alone
    return cfg


def refuse_unread(cfg, command):
    """The one rule on the fields a run does not read: each field outside
    READS[command, mode] but procedure and output_dir must hold its FIELDS
    default, whether a flag or a config file gave it (a ConfigError names
    the field and the mode).  A subcommand that records its own procedure
    (``PROCEDURES``) takes it at its default or as one it records, and
    records the first unless given another.  So a config.json written by a
    run, which records every field, runs again as it is."""
    field, unknown = MODES.get(command, (None, None))
    mode = cfg[field] if field else None
    if (command, mode) not in READS:
        raise ConfigError(f"{field}: {mode!r} {unknown}")
    reads = (*READS[command, mode], "procedure", "output_dir")
    where = f"{command} --{field} {mode}" if field else command
    for key, (default, _, _) in FIELDS.items():
        if key not in reads and cfg[key] != default:
            raise ConfigError(f"{key}: {where} does not read it; leave it at its default "
                              f"{json.dumps(default)}")
    own, gd = PROCEDURES.get(command), FIELDS["procedure"][0]
    if own and cfg["procedure"] not in own:  # run's procedure is its mode, checked above
        if cfg["procedure"] != gd:
            raise ConfigError(f"procedure: {command} records {' or '.join(map(json.dumps, own))}"
                              f" itself; leave it at its default {json.dumps(gd)}")
        cfg["procedure"] = own[0]


def resolve_point(cfg, key, f, in_box=True):
    """cfg[key] as a finite point of the objective's dimension, in its box
    unless ``in_box`` is False."""
    x = np.atleast_1d(np.asarray(cfg[key], dtype=float))
    if x.shape != (f.dim,):
        raise ConfigError(f"{key}: needs {f.dim} coordinates for {f.name}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"{key}: coordinates must be finite")
    if in_box and not f.in_box(x):
        raise ConfigError(f"{key}: {x.tolist()} lies outside the operating box {f.box.tolist()}")
    return x


def resolve_target(cfg, f):
    target = cfg.get("target")
    if target is None:
        raise ConfigError("target: required for this procedure")
    if isinstance(target, int):
        if not 0 <= target < len(f.critical_points):
            raise ConfigError(f"target: catalog index {target} out of range")
        return f.critical_points[target].point
    return resolve_point(cfg, "target", f)


def flow_settings(cfg):
    t_max = math.inf if cfg["t_max"] is None else float(cfg["t_max"])
    return FlowSettings(h=float(cfg["h"]), t_max=t_max, gtol=float(cfg["gtol"]))


def refuse_seed_in_1d(cfg, f, command):
    """A 1-D reach or probe draws no quasi-random direction (its sphere is
    the axis pair), so a seed away from its default would be dropped."""
    default = FIELDS["seed"][0]
    if f.dim == 1 and cfg["seed"] != default:
        raise ConfigError(f"seed: {command} on a 1-D function draws no quasi-random "
                          f"direction; leave it at its default {default}")


def resolve_dynamics(cfg):
    """The reach and probe dynamics of cfg's mode: its schedule (gradient
    descent) for discrete, its flow settings for continuous."""
    return parse_schedule(cfg["schedule"]) if cfg["mode"] == "discrete" else flow_settings(cfg)


def catalog_json(f):
    return {
        "name": f.name,
        "dim": f.dim,
        "lipschitz_L": f.lipschitz_L,
        "box": [[float(lo), float(hi)] for lo, hi in f.box],
        "critical_points": [
            {"point": [float(c) for c in cp.point], "kind": cp.kind,
             "f_value": float(cp.f_value)}
            for cp in f.critical_points
        ],
    }


def cmd_bench(as_json):
    """The catalog of bench list, as text or as JSON."""
    functions = [make_builtin("quad", (1.0,)), make_builtin("double_well"),
                 make_builtin("himmelblau")]
    if as_json:
        return json.dumps([catalog_json(f) for f in functions], indent=2, sort_keys=True)
    lines = []
    for f in functions:
        lines.append(f"{f.name}  dim={f.dim}  L={f.lipschitz_L:.6g}  "
                     f"box={[list(map(float, b)) for b in f.box]}")
        for i, cp in enumerate(f.critical_points):
            pt = ", ".join(f"{c:.12g}" for c in cp.point)
            lines.append(f"  [{i}] ({pt})  {cp.kind}  f={cp.f_value:.12g}")
    return "\n".join(lines)


def cmd_run(cfg, f):
    if cfg["x0"] is None:
        raise ConfigError("x0: required for run")
    x0 = resolve_point(cfg, "x0", f)
    if cfg["procedure"] == "flow":
        traj = integrate(f, x0, cfg["direction"], flow_settings(cfg))
    else:
        s = parse_schedule(cfg["schedule"])
        traj = run_gd(f, x0, s, gtol=float(cfg["gtol"]), max_iter=cfg["max_iter"])
    outputs = {"trajectory.csv": partial(serialize.write_trajectory_csv, traj),
               "summary.json": partial(serialize.write_json,
                                       serialize.trajectory_summary(traj))}
    line = f"{cfg['procedure']}: {traj.terminal_status} after {len(traj) - 1} steps"
    return outputs, line, True


def cmd_reach(cfg, f):
    refuse_seed_in_1d(cfg, f, "reach")
    if cfg["procedure"] == "reach" and cfg["delta"] is not None:
        raise ConfigError("delta: only a saddle reach (--general) takes delta")
    target = resolve_target(cfg, f)
    dynamics = resolve_dynamics(cfg)
    # the GD budgets only under GD: a flow reach refuses them
    budgets = ReachBudgets(seed=cfg["seed"]) if cfg["mode"] == "continuous" else ReachBudgets(
        max_iter=cfg["max_iter"], gtol=float(cfg["gtol"]), kbar_max=cfg["kbar_max"],
        seed=cfg["seed"])
    given = (f, target, float(cfg["epsilon"]), dynamics, float(cfg["seed_radius"]),
             float(cfg["tol"]))
    minimum = reach_continuous if cfg["mode"] == "continuous" else reach_discrete
    if cfg["procedure"] == "reach-general":
        delta = None if cfg["delta"] is None else float(cfg["delta"])
        report = reach_general(*given, delta=delta, budgets=budgets)
    else:
        report = minimum(*given, budgets)

    outputs = {}
    if report.forward_part is not None:
        outputs["forward.csv"] = partial(serialize.write_trajectory_csv, report.forward_part)
    if report.reverse_part is not None:
        # the replay's schedule: reach_discrete halves the configured one where its
        # escape radius would not clear the seed radius
        s = report.forward_part.provenance.get("schedule")
        outputs["reverse.csv"] = partial(serialize.write_reverse_part_csv,
                                         report.reverse_part, f, s)
    csv_paths = [name if name in outputs else None for name in ("forward.csv", "reverse.csv")]
    outputs["reach.json"] = partial(serialize.write_json,
                                    serialize.reach_report_json(report, *csv_paths))
    line = f"reach: {report.status}, final_distance={report.final_distance:.6g}"
    return outputs, line, report.status == "success"


def cmd_probe(cfg, f):
    refuse_seed_in_1d(cfg, f, "probe")
    budgets = {} if cfg["mode"] == "continuous" else {  # a flow probe refuses them
        "max_iter": cfg["max_iter"], "gtol": float(cfg["gtol"])}
    est = stability_probe(
        f, resolve_target(cfg, f), float(cfg["epsilon"]), resolve_dynamics(cfg),
        n_samples=cfg["n_samples"], seed=cfg["seed"], **budgets)
    # probe.json: the estimate's fields, each failing start as a list
    probe = dict(vars(est), failures=[[float(c) for c in p] for p in est.failures])
    return ({"probe.json": partial(serialize.write_json, probe)},
            f"probe: delta_hat={est.delta_hat:.6g} (epsilon={est.epsilon:.6g})",
            est.delta_hat > 0.0)


def cmd_eos(cfg, f):
    if cfg["alpha"] is None:
        raise ConfigError("alpha: required for eos")
    x0 = np.ones(f.dim) if cfg["x0"] is None else resolve_point(cfg, "x0", f, in_box=False)
    verdict = edge_of_stability(f, float(cfg["alpha"]), x0)
    eos = {"alpha": float(cfg["alpha"]), "x0": [float(c) for c in x0], "verdict": verdict}
    return {"eos.json": partial(serialize.write_json, eos)}, f"eos: {verdict}", True


def cmd_check(cfg, f):
    rng = Lcg64(cfg["seed"])
    lo, hi = f.box[:, 0], f.box[:, 1]
    span = 0.8  # sample the inner 80% so prox iterates stay inside the box
    n = cfg["n_checks"]
    identity_fails = cert_fails = 0
    for _ in range(n):
        u = np.array([rng.uniform() for _ in range(f.dim)])
        x = lo + (0.5 * (1 - span) + span * u) * (hi - lo)
        lam = (0.05 + 0.85 * rng.uniform()) / max(f.lipschitz_L, 1e-12)
        xp = prox(f, x, lam)
        residual = norm(xp - (x - lam * f.gradient(xp)))
        if residual > FORWARD_RESIDUAL_RTOL * (1.0 + norm(x)):
            identity_fails += 1
        dec_ok, step_ok = prox_certificates(f, x, lam, xp)
        if not (dec_ok and step_ok):
            cert_fails += 1
    check = {"n": n, "identity_failures": identity_fails, "certificate_failures": cert_fails}
    return ({"check.json": partial(serialize.write_json, check)},
            f"check: {n} samples, {identity_fails} identity failures, "
            f"{cert_fails} certificate failures",
            identity_fails == 0 and cert_fails == 0)


@cache
def build_parser():
    """The argument parser, built once per process: each parse makes a
    fresh Namespace, so no state carries over between ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="basinreach",
        description="construct initial points from which gradient dynamics "
                    "converge to a designated critical point")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="list the benchmark catalog")
    p.add_argument("what", choices=["list"])
    p.add_argument("--json", action="store_true", help="print the catalog as JSON")

    for name, handler, text in (
            ("run", cmd_run, "emit a trajectory CSV + summary JSON"),
            ("reach", cmd_reach, "construct x0 reaching a designated target"),
            ("probe", cmd_probe, "estimate a stability radius"),
            ("eos", cmd_eos, "edge-of-stability verdict on the quad builtin"),
            ("check", cmd_check, "proximal identity and certificate sweep")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (BASINREACH_OUT overrides the default)")
        if name == "reach":
            p.add_argument("--general", action="store_true", help="saddle-targeting general case")
        for key in dict.fromkeys(k for (command, _), keys in READS.items() if command == name
                                 for k in keys):
            default, kind, doc = FIELDS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=KINDS[kind][2],
                           choices=CHOICES.get(key),
                           help=doc if default is None else f"{doc} (default {default})")
            if key == "target":
                p.add_argument("--target-index", dest="target", type=int, metavar="INDEX",
                               help="the target's index in the catalog of bench list")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    """Run one subcommand; returns its exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        print(cmd_bench(args.json))
        return 0
    try:
        cfg = resolve_config(args)
        outputs, line, ok = args.handler(cfg, parse_function(cfg["function"]))
        out = cfg["output_dir"] = (args.out or os.environ.get("BASINREACH_OUT")
                                   or cfg["output_dir"] or "basinreach_out")
        outputs["config.json"] = partial(serialize.write_json, cfg)
        paths = [os.path.join(out, name) for name in outputs]
        for path in paths:  # a directory (not a symlink, which is replaced) at an output
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        os.makedirs(out, exist_ok=True)
        for write, path in zip(outputs.values(), paths):
            write(path)
    except OSError as exc:  # the output directory or an output file cannot be made
        print(f"error: output_dir: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LeftBoxError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
