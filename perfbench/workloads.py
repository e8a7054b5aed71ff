"""Seeded inputs of the four benchmark workloads, and the checks every
result must pass.

A workload is a fixed list of targets.  Round r calls each target once,
with parameters drawn from (seed, workload, r).  The draws are stratified
over the targets of a round and shifted by one stratum per round (a Latin
square), so every round spans the whole parameter range and the cost of a
run moves little with the seed.

Every objective the program sees is the builtin with its ``f``, ``grad``
and ``hessian`` callables wrapped by :class:`Counts`, so evaluations are
counted in points whichever code path makes them.
"""

import contextlib
import dataclasses
import json
import os
import shutil
import sys
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import basinreach as br  # noqa: E402
from basinreach import cli  # noqa: E402
from basinreach.descent import descent_certificate_violations  # noqa: E402
from basinreach.reach import ReachBudgets, stability_probe  # noqa: E402

if not Path(br.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"basinreach was imported from {br.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("minima_const", "minima_power", "flow_minima", "saddles_cli")
TOL = 1e-4           # success tolerance of the minimum reaches
SADDLE_TOL = 1e-2    # success tolerance of the saddle reaches
RESIDUAL_RTOL = 1e-10
SPHERE_RTOL = 1e-8

GRAD, VALUE, HESS = 0, 1, 2


class Counts:
    """Objective evaluations in points: a call on a (B, d) batch counts B."""

    def __init__(self):
        self.n = [0, 0, 0]

    def snapshot(self):
        return tuple(self.n)

    def since(self, snap):
        return tuple(a - b for a, b in zip(self.n, snap))

    def wrap(self, f):
        def counted(fn, slot):
            if fn is None:
                return None

            def call(x):
                self.n[slot] += x.shape[0] if x.ndim == 2 else 1
                return fn(x)
            return call
        return dataclasses.replace(f, f=counted(f.f, VALUE), grad=counted(f.grad, GRAD),
                                   hessian=counted(f.hessian, HESS))


@dataclasses.dataclass
class Case:
    """One reach call: ``run()`` is timed; ``check(result, grad_points)``
    runs outside the timed region and returns the failed checks."""

    label: str
    run: object
    check: object


@dataclasses.dataclass
class Workload:
    name: str
    labels: tuple
    root: str           # span name of the call the benchmark makes
    make_round: object  # (round, overrides) -> [Case]
    round_s: float      # seconds per round at reference host speed, when defined


def _draw(rng, stratum, n_strata, lo, hi, log=False):
    u = (stratum + rng.random()) / n_strata
    if log:
        return float(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))
    return float(lo + u * (hi - lo))


def _round_params(seed, workload, r, n, frac_range, overrides):
    """Per-target seed radius, direction seed and, given a range, step
    fraction of 1/L."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    out = []
    for i in range(n):
        p = {
            "seed_radius": _draw(rng, (3 * r + 5 * i) % n, n, 5e-4, 2e-3, log=True),
            "dir_seed": int(rng.integers(0, 2**31)),
        }
        if frac_range:
            p["frac"] = _draw(rng, (r + i) % n, n, *frac_range)
        p.update(overrides or {})
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# checks


def _reach_failures(report, target, eps, tol, slack=0.0):
    """Status, tolerance and 0 < |x0 - target| <= eps; ``slack`` is the
    relative accuracy to which x0 is located when it lies on the eps-sphere."""
    out = []
    if report.status != "success":
        out.append(f"status {report.status}")
    if not report.final_distance <= tol:
        out.append(f"final_distance {report.final_distance:.3e} > tol {tol:g}")
    if report.x0 is None:
        return out + ["no x0"]
    r = float(np.linalg.norm(report.x0 - target))
    if not 0.0 < r <= eps * (1.0 + slack):
        out.append(f"|x0 - target| = {r:.3e} not in (0, {eps:g}]")
    return out


def _orbit_failures(orbit):
    return [f"orbit residual {res:.3e} at point {i}"
            for i, (res, x) in enumerate(zip(orbit.forward_residuals, orbit.points))
            if res > RESIDUAL_RTOL * (1.0 + np.linalg.norm(x))]


def _replay_failures(traj):
    bad = descent_certificate_violations(traj.provenance["f"], traj, traj.provenance["schedule"])
    return [f"replay certificate: {bad[0]} ({len(bad)} in all)"] if bad else []


def _sphere_failures(report, target):
    delta = report.delta_used
    err = abs(float(np.linalg.norm(report.x0 - target)) - delta)
    return [] if err <= SPHERE_RTOL * delta else [f"x0 off the delta-sphere by {err:.3e}"]


def _counter_failures(grad_points, traj):
    # every replay state needs a gradient, so fewer counted points means an
    # evaluation path bypassed the counted callables
    if grad_points < len(traj.states):
        return [f"{grad_points} gradient points counted for {len(traj.states)} replay states"]
    return []


def check_discrete(target, eps, tol, report, grad_points):
    out = _reach_failures(report, target, eps, tol)
    if report.reverse_part is not None:
        out += _orbit_failures(report.reverse_part)
    if report.forward_part is not None:
        out += _replay_failures(report.forward_part)
        out += _counter_failures(grad_points, report.forward_part)
    return out


def check_continuous(target, eps, tol, report, grad_points):
    out = _reach_failures(report, target, eps, tol, SPHERE_RTOL)
    if report.x0 is not None:
        out += _sphere_failures(report, target)
    if report.forward_part is not None:
        out += _counter_failures(grad_points, report.forward_part)
    return out


# ---------------------------------------------------------------------------
# workloads


def _minima_targets(counts, sharp):
    dw = counts.wrap(br.make_builtin("double_well"))
    hb = counts.wrap(br.make_builtin("himmelblau"))
    out = [("double_well:-1", dw, np.array([-1.0]), 0.4),
           ("double_well:+1", dw, np.array([1.0]), 0.4)]
    mins = [cp.point for cp in hb.critical_points if cp.kind == "local_min"]
    out += [(f"himmelblau:{i}", hb, p, 1.0) for i, p in enumerate(mins)]
    for eig in ((1.0, 4.0), (1.0, sharp)):
        q = counts.wrap(br.make_builtin("quad", eig))
        out.append((f"quad:{eig[0]:g},{eig[1]:g}", q, np.zeros(2), 1.0))
    return out


def minima_const(seed, counts, tmp):
    targets = _minima_targets(counts, 25.0)

    def make_round(r, overrides=None):
        cases = []
        for (label, f, t, eps), p in zip(targets, _round_params(
                seed, "minima_const", r, len(targets), (0.25, 0.5), overrides)):
            s = br.constant(p["frac"] / f.lipschitz_L)
            run = partial(br.reach_discrete, f, t, eps, s, p["seed_radius"], TOL,
                          ReachBudgets(seed=p["dir_seed"]))
            cases.append(Case(label, run, partial(check_discrete, t, eps, TOL)))
        return cases
    return Workload("minima_const", tuple(t[0] for t in targets), "reach.reach_discrete",
                    make_round, 3.0)


def minima_power(seed, counts, tmp):
    targets = _minima_targets(counts, 10.0)
    # The stability radius is uniform over admissible schedules, so one
    # probe per target at the largest step scale drawn serves every call.
    radii = [stability_probe(f, t, eps, br.constant(0.9 / f.lipschitz_L)).delta_hat
             for _, f, t, eps in targets]

    def make_round(r, overrides=None):
        cases = []
        for (label, f, t, eps), delta, p in zip(targets, radii, _round_params(
                seed, "minima_power", r, len(targets), (0.5, 0.9), overrides)):
            s = br.power(p["frac"] / f.lipschitz_L, 0.5)
            run = partial(br.reach_discrete, f, t, eps, s, p["seed_radius"], TOL,
                          ReachBudgets(seed=p["dir_seed"], delta_override=delta))
            cases.append(Case(label, run, partial(check_discrete, t, eps, TOL)))
        return cases
    return Workload("minima_power", tuple(t[0] for t in targets), "reach.reach_discrete",
                    make_round, 4.0)


def flow_minima(seed, counts, tmp):
    dw = counts.wrap(br.make_builtin("double_well"))
    q = counts.wrap(br.make_builtin("quad", (1.0, 4.0)))
    hb = counts.wrap(br.make_builtin("himmelblau"))
    targets = [("double_well:-1", dw, np.array([-1.0]), 0.4, 1e-3),
               ("double_well:+1", dw, np.array([1.0]), 0.4, 1e-3),
               ("quad:1,4", q, np.zeros(2), 1.0, 1e-2),
               ("himmelblau:0", hb, np.array([3.0, 2.0]), 1.0, 3e-4)]

    def make_round(r, overrides=None):
        cases = []
        for (label, f, t, eps, h), p in zip(targets, _round_params(
                seed, "flow_minima", r, len(targets), None, overrides)):
            st = br.FlowSettings(h=h, t_max=20.0, gtol=1e-6)
            run = partial(br.reach_continuous, f, t, eps, st, p["seed_radius"], TOL,
                          ReachBudgets(seed=p["dir_seed"]))
            cases.append(Case(label, run, partial(check_continuous, t, eps, TOL)))
        return cases
    return Workload("flow_minima", tuple(t[0] for t in targets), "reach.reach_continuous",
                    make_round, 3.5)


SADDLES = (5, 6, 7, 8)  # catalog indices of the himmelblau saddles


def saddles_cli(seed, counts, tmp):
    """``basinreach reach --general`` in-process.  Each fresh run is followed
    by its reproduction from the ``config.json`` it wrote, as a user checks
    a result; both calls are timed, and the second must give byte-identical
    outputs.  The CLI builds its own objective, so the name ``make_builtin``
    that the cli module imports is replaced by a counting one, and
    ``reach_general`` by one that keeps the report for the checks.  Both
    replacements last for the process."""
    captured = []
    make_builtin, reach_general = cli.make_builtin, cli.reach_general

    def counted_builtin(*args):
        return counts.wrap(make_builtin(*args))

    def capturing_reach_general(*args, **kwargs):
        captured.append(reach_general(*args, **kwargs))
        return captured[-1]

    cli.make_builtin = counted_builtin
    cli.reach_general = capturing_reach_general
    hb = br.make_builtin("himmelblau")
    labels = [f"himmelblau:{i}/{m}" for m in ("discrete", "continuous") for i in SADDLES]
    fresh, repeat = os.path.join(tmp, "fresh"), os.path.join(tmp, "repeat")
    outputs = ("reach.json", "forward.csv", "reverse.csv")

    def call(argv):
        captured.clear()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        return rc, captured[-1] if captured else None

    def check(target, mode, out_dir, result, grad_points):
        rc, report = result
        if report is None:
            return [f"exit code {rc} and no report"]
        out = [] if rc == 0 else [f"exit code {rc}"]
        with open(os.path.join(out_dir, "reach.json")) as fh:
            if json.load(fh)["status"] != "success":
                out.append("reach.json does not say success")
        checker = check_discrete if mode == "discrete" else check_continuous
        out += checker(target, 1.0, SADDLE_TOL, report, grad_points)
        if out_dir == fresh:
            shutil.rmtree(repeat, ignore_errors=True)
            return out
        for name in outputs:
            with open(os.path.join(fresh, name), "rb") as a, \
                    open(os.path.join(repeat, name), "rb") as b:
                if a.read() != b.read():
                    out.append(f"repeated config: {name} differs")
        return out

    def make_round(r, overrides=None):
        cases = []
        for label, p in zip(labels, _round_params(seed, "saddles_cli", r, len(labels),
                                                  (0.25, 0.5), overrides)):
            idx, mode = label.split(":")[1].split("/")
            argv = ["reach", "--general", "--function", "himmelblau", "--target-index", idx,
                    "--mode", mode, "--epsilon", "1.0", "--tol", repr(SADDLE_TOL),
                    "--seed-radius", repr(p["seed_radius"]), "--seed", str(p["dir_seed"]),
                    "--out", fresh]
            if mode == "discrete":
                argv += ["--schedule", f"constant:{p['frac'] / hb.lipschitz_L!r}"]
            else:
                argv += ["--h", "3e-4", "--t-max", "50", "--gtol", "1e-6", "--delta", "0.1"]
            again = ["reach", "--config", os.path.join(fresh, "config.json"), "--out", repeat]
            target = hb.critical_points[int(idx)].point
            cases.append(Case(label, partial(call, argv), partial(check, target, mode, fresh)))
            cases.append(Case(label + "/repeat", partial(call, again),
                              partial(check, target, mode, repeat)))
        return cases
    return Workload("saddles_cli", tuple(c.label for c in make_round(0)), "cli.main",
                    make_round, 1.15)


def build(name, seed, counts, tmp):
    """Objective construction, input generation and precomputed probe radii."""
    return globals()[name](seed, counts, tmp)
