"""perfbench/tracer.py wraps basinreach functions by module and name, so a
refactor that drops or renames one breaks the traced benchmark.  These
read the tracer's TARGETS table with ast, without importing the tracer.
The benchmark also counts evaluations by wrapping an objective's f and
grad (perfbench/workloads.Counts), so every code path must evaluate
through them."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import basinreach as br
import basinreach.cli as cli
import basinreach.flow as flow_mod
import basinreach.reach as reach_mod

from conftest import anderson_orbit, count_flow_steps

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return [(modules[row.elts[0].id], row.elts[1].value) for row in table.elts]


def test_tracer_targets_exist():
    targets = tracer_targets()
    assert ("basinreach.reach", "_first_crossing_orbit") in targets
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_continuous_saddle_reach_runs_integrate_minnorm_through_reach(monkeypatch, himmelblau):
    # the tracer's flow.minnorm span wraps reach.integrate_minnorm: a
    # continuous saddle reach must make its level run through that name
    runs = []
    minnorm = reach_mod.integrate_minnorm

    def counted(*args, **kwargs):
        runs.append(minnorm(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(reach_mod, "integrate_minnorm", counted)
    target = himmelblau.critical_points[8].point
    rep = br.reach_general(himmelblau, target, 1.0, br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6),
                           1e-3, tol=1e-2, delta=0.1)
    assert rep.status == "success" and len(runs) == 1 and rep.forward_part is runs[0]


def test_saddles_cli_replacements_reach_the_cli(monkeypatch, tmp_path):
    # saddles_cli counts the CLI's evaluations and keeps its reports by
    # replacing cli.make_builtin and cli.reach_general for the process, so
    # the CLI must look both names up at call time; setting them here first
    # restores the originals at teardown
    monkeypatch.setattr(cli, "make_builtin", cli.make_builtin)
    monkeypatch.setattr(cli, "reach_general", cli.reach_general)
    workloads = load_workloads()
    counts = workloads.Counts()
    case = workloads.saddles_cli(0, counts, str(tmp_path)).make_round(0)[0]
    snap = counts.snapshot()
    result = case.run()
    grads = counts.since(snap)[workloads.GRAD]
    assert case.check(result, grads) == [] and grads > 0


def test_all_is_exactly_what_init_imports():
    # the export list has no duplicates, each entry resolves, and it names
    # every name the package imports from its modules and nothing else
    tree = ast.parse((ROOT / "src" / "basinreach" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(br, name)] == []
    assert set(exported) == imported
    assert br.__all__ == exported


# one objective per lane: the float lane (dim <= 2) and the ndarray lane
LANES = [("himmelblau", (), [2.5, 1.5], [3.001, 2.002]),
         ("quad", (1.0, 2.0, 5.0, 7.0), [1.0, -2.0, 0.5, 3.0], [1e-3, 2e-3, 1e-3, 1e-3])]


@pytest.mark.parametrize("name,params,x0,anchor", LANES, ids=["float-lane", "ndarray-lane"])
def test_benchmark_counts_every_gradient(monkeypatch, name, params, x0, anchor):
    workloads = load_workloads()
    counts = workloads.Counts()
    f = counts.wrap(br.make_builtin(name, params))
    s = br.constant(0.5 / f.lipschitz_L)
    traj = br.run_gd(f, x0, s, gtol=1e-8)
    assert len(traj) > 10 and counts.n[workloads.GRAD] == len(traj)

    # an orbit takes the anchor's gradient, then one per tested iterate
    # beyond each solve's first, whose gradient the last solve returned;
    # each solve's count of tested iterates is the ndarray reference's,
    # whose points the orbit matches bit for bit
    iters = []
    snap = counts.snapshot()
    orbit = br.reverse_orbit(f, np.array(anchor), s, 12)
    points, _ = anderson_orbit(br.make_builtin(name, params), anchor, [s.alpha(0)] * 12, iters)
    solves = len(orbit.points) - 1
    assert solves == 12 and len(iters) == solves
    assert [p.tobytes() for p in orbit.points] == [p.tobytes() for p in points[::-1]]
    assert counts.since(snap)[workloads.GRAD] == 1 + sum(it - 1 for it in iters)

    # DOP853: one gradient at the start, 12 per accepted step, whose last
    # stage is the new state's gradient, and 11 per rejected one; a sphere exit adds the 3
    # extra stages of the dense output it locates the crossing on, and 1
    # at the crossing
    calls = count_flow_steps(monkeypatch)
    st = br.FlowSettings(h=0.05 / f.lipschitz_L, t_max=20.0, gtol=1e-8)
    snap = counts.snapshot()
    traj = br.integrate(f, x0, "forward", st)
    assert len(traj) > 10 and len(calls) >= len(traj) - 1
    accepted = len(traj) - 1
    assert counts.since(snap)[workloads.GRAD] == 1 + 12 * accepted + 11 * (len(calls) - accepted)
    calls.clear()
    snap = counts.snapshot()
    _, _, traj = flow_mod._sphere_exit_detail(f, anchor, "reverse", f.critical_points[0].point,
                                              1.0, st)
    assert len(calls) >= len(traj) - 1 > 10
    accepted = len(traj) - 1
    assert counts.since(snap)[workloads.GRAD] == (1 + 12 * accepted + 11 * (len(calls) - accepted)
                                                  + 3 + 1)

    # the probe: one gradient per GD state, or 1 per flow start, 12 per
    # accepted DOP853 step and 11 per rejected one, beside what its capture
    # certificate costs, the grid on the target's own curvature; on quad
    # (M = 0) every start passes at once in B_r
    target, eps = f.critical_points[0].point, 0.5
    snap = counts.snapshot()
    reach_mod._Basin(f, target, eps, "probe target").certificate
    certificate = counts.since(snap)[workloads.GRAD]
    for dynamics in (s, st):
        calls.clear()
        runs = []
        snap = counts.snapshot()
        with br.record_trajectories(runs):
            br.stability_probe(f, target, eps, dynamics)
        states = sum(map(len, runs))
        flow = dynamics is st
        assert len(runs) >= 2 * f.dim
        assert states == len(runs) if name == "quad" else flow == (len(calls) > 0)
        accepted = states - len(runs)
        per_run = len(runs) + 12 * accepted + 11 * (len(calls) - accepted) if flow else states
        assert counts.since(snap)[workloads.GRAD] == certificate + per_run


def test_minima_power_round_builds_each_orbit_about_once(monkeypatch, tmp_path):
    # a horizon search that falls back to doubling rebuilds each orbit
    # several times, at 2 or more ascent solves per final orbit point
    workloads = load_workloads()
    counts = workloads.Counts()
    workload = workloads.minima_power(0, counts, str(tmp_path))
    solves = grads = points = 0
    build = reach_mod.reverse_orbit

    def counted(*args, **kwargs):
        nonlocal solves, grads
        snap = counts.snapshot()
        orbit = build(*args, **kwargs)
        grads += counts.since(snap)[workloads.GRAD]
        solves += len(orbit.points) - 1 + (orbit.status == "left_box")
        return orbit

    monkeypatch.setattr(reach_mod, "reverse_orbit", counted)
    for case in workload.make_round(0):
        snap = counts.snapshot()
        report = case.run()
        assert case.check(report, counts.since(snap)[workloads.GRAD]) == []
        points += len(report.reverse_part.points)
    assert solves <= 1.2 * points
    assert grads <= 8 * points


@pytest.mark.parametrize("name", ["minima_const", "minima_power", "flow_minima"])
def test_workload_round_repeats_its_counts_and_passes_its_checks(tmp_path, name):
    # a traced benchmark run passes over round 0 more than once and is
    # judged incorrect when a reach fails its checks or when a case's
    # counts differ between passes, as any state kept between reach calls
    # (a cache keyed on the objective or the target) would make them
    workloads = load_workloads()
    counts = workloads.Counts()
    cases = workloads.build(name, 0, counts, str(tmp_path)).make_round(0)
    passes = []
    for _ in range(2):
        evals = []
        for case in cases:
            snap = counts.snapshot()
            result = case.run()
            evals.append(counts.since(snap))
            assert case.check(result, evals[-1][workloads.GRAD]) == [], case.label
        passes.append(evals)
    assert passes[0] == passes[1]
