import collections
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest

import basinreach as br
import basinreach.reach as reach_mod
import basinreach.reverse as reverse_mod
from basinreach.flow import (ATOL, ERR_K, H_STABLE, PI_SAFE, REVERSE_RTOL, RTOL, _Flow,
                             _sphere_exit_detail)
from basinreach.landscape import norm, row_norms
from basinreach.sampling import Lcg64, unit_directions
from basinreach.serialize import reach_report_json
from basinreach.trajectory import record_trajectories, recorded

from conftest import (anderson_orbit, capture_level_full_grid, count_flow_steps, counting,
                      make_saddle_quad, same_states, two_wells)


FLOW = br.FlowSettings(h=1e-2, t_max=50.0, gtol=1e-6)


# --- stability probe ---------------------------------------------------------

def test_probe_quad_full_radius(quad1):
    est = br.stability_probe(quad1, [0.0], 1.0, br.constant(0.5), seed=0)
    assert est.delta_hat == 1.0  # iterates contract monotonically
    assert est.failures == ()


def test_probe_double_well(dw):
    est = br.stability_probe(dw, [1.0], 0.5, br.constant(0.05), seed=0)
    assert est.delta_hat >= 0.4
    assert est.samples == 2  # the 1-D sphere is the axis pair


def test_probe_reports_basin_failures():
    # epsilon = 1.5 puts the local max at 0 inside the ball: starts in the
    # wrong basin descend to -1, which exits B_1.5(+1)
    f = br.make_builtin("double_well", (2.5,))
    est = br.stability_probe(f, [1.0], 1.5, br.constant(0.5 / f.lipschitz_L), seed=0)
    assert est.delta_hat < 1.5
    assert len(est.failures) > 0
    assert any(abs(p[0] - 1.0) > 1.0 for p in est.failures)


def test_probe_deterministic(dw):
    a = br.stability_probe(dw, [1.0], 0.5, br.constant(0.05), seed=9)
    b = br.stability_probe(dw, [1.0], 0.5, br.constant(0.05), seed=9)
    assert a.delta_hat == b.delta_hat
    assert all(np.array_equal(x, y) for x, y in zip(a.failures, b.failures))


def test_probe_continuous_mode(dw):
    st = br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)
    est = br.stability_probe(dw, [-1.0], 0.4, st)
    assert est.delta_hat == 0.4


def test_probe_preconditions(dw, quad1):
    with pytest.raises(ValueError):
        br.stability_probe(dw, [0.0], 0.5, br.constant(0.05))  # target is a max
    with pytest.raises(ValueError):
        br.stability_probe(dw, [1.0], 1.0, br.constant(0.05))  # ball exceeds box
    with pytest.raises(ValueError):
        br.stability_probe(quad1, [0.0], 1.0, br.constant(2.5))  # inadmissible
    with pytest.raises(ValueError, match="StepSchedule .*FlowSettings"):
        br.stability_probe(quad1, [0.0], 1.0, None)  # neither schedule nor flow settings


@pytest.mark.parametrize("field,value", [("gtol", math.nan), ("gtol", -1.0), ("max_iter", -1),
                                         ("gtol", math.inf)])
def test_probe_rejects_a_bad_gtol_or_max_iter_under_either_dynamics(dw, field, value):
    # FlowSettings carry their own gtol and budgets, so the probe's are
    # unused under them, but a bad one is still an error, as under a
    # StepSchedule, and is named before any start runs
    what = "a nonnegative integer" if field == "max_iter" else "nonnegative and finite"
    for dynamics in (br.constant(0.01), br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)):
        with pytest.raises(ValueError, match=f"^{field} must be {what}, got {value}$"):
            br.stability_probe(dw, [1.0], 0.4, dynamics, **{field: value})


def test_probe_rejects_a_negative_n_samples(dw):
    with pytest.raises(ValueError, match="^n_samples must be a nonnegative integer, got -5$"):
        br.stability_probe(dw, [1.0], 0.4, br.constant(0.01), n_samples=-5)


def test_probe_all_radii_fail():
    # a 3-D objective not known to be quadratic (no hessian_lipschitz) has
    # no capture certificate, so a 2-iteration budget converges nowhere:
    # delta_hat = 0, failures listed
    f = dataclasses.replace(br.make_builtin("quad", (1.0, 2.0, 5.0)), hessian_lipschitz=None)
    est = br.stability_probe(f, np.zeros(3), 1.0, br.constant(0.1), max_iter=2)
    assert est.delta_hat == 0.0
    assert len(est.failures) > 0
    assert est.capture_level is None and est.delta_cert is None


def test_probe_short_budget_passes_by_capture(dw):
    # 2 GD steps take every start below c = f(0.5) = 0.5625, the floor of
    # f on the 0.5-sphere around 1, which proves what a full run would show
    est, runs = probe_runs(dw, [1.0], 0.5, br.constant(0.05), max_iter=2)
    assert est.delta_hat == 0.5 and est.failures == ()
    assert est.capture_level == 0.5625
    assert est.delta_cert == math.sqrt(2.0 * 0.5625 / dw.lipschitz_L)
    assert all(r.provenance["stopped_on"] == "capture_set" and r.limit is None for r in runs)


def test_probe_rerun_containment(dw):
    # every start tested at delta_hat stays in B_epsilon and converges
    eps, s = 0.5, br.constant(0.05)
    est = br.stability_probe(dw, [1.0], eps, s, seed=0)
    for d in (np.array([1.0]), np.array([-1.0])):
        start = np.array([1.0]) + est.delta_hat * d
        traj = br.run_gd(dw, start, s, gtol=1e-8, max_iter=20000)
        assert traj.terminal_status == "converged"
        assert all(abs(st.x[0] - 1.0) <= eps * (1 + 1e-9) for st in traj.states)


# Each probe start is one march run by the step rule of run_gd or forward
# integrate; these check it against those runs, state by state, on both
# lanes.

def probe_runs(f, *args, **kwargs):
    runs = []
    with record_trajectories(runs):
        est = br.stability_probe(f, *args, **kwargs)
    return est, runs


def same_estimate(a, b):
    return (a.delta_hat == b.delta_hat and a.samples == b.samples
            and len(a.failures) == len(b.failures)
            and all(p.tobytes() == q.tobytes() for p, q in zip(a.failures, b.failures)))


WIDE_DW = br.make_builtin("double_well", (2.5,))


def check_passing_row(row, ref, est, target, eps):
    """A passing probe row against the full run from its start: the full
    run converges without leaving B_eps; a row stopped in the certified
    ball is its prefix up to and including the first state within r (up
    to the probe's 1e-9 rounding slack), with the target as its limit and
    the full run's limit near it; a captured row is its prefix up to and
    including the first state with f < c; any other row all of it.
    Returns whether the row was stopped by either certificate."""
    assert ref.terminal_status == "converged"
    assert (row_norms(ref.X - target) <= eps * (1 + 1e-9)).all()
    stopped_on = row.provenance.get("stopped_on")
    if stopped_on not in ("capture_set", "certified_ball"):
        assert same_states(row.states, ref.states)
        assert row.limit.tobytes() == ref.limit.tobytes()
        assert stopped_on is None
        return False
    r, mu = ball_radius(row.provenance["f"], target, eps)
    inside = row_norms(ref.X - target) <= r * (1.0 + 1e-9)
    c = est.capture_level
    below = ref.f < c if c is not None else np.zeros(len(ref), bool)
    first = int(np.flatnonzero(inside | below)[0])
    assert same_states(row.states, ref.states[:first + 1])
    if stopped_on == "certified_ball":
        assert inside[first] and row.limit.tobytes() == target.tobytes()
        assert (row.provenance["s"], row.provenance["mu_s"]) == (r, mu)
        assert norm(ref.limit - target) <= 1e-6
    else:
        assert below[first] and not inside[first]
        assert row.provenance["capture_level"] == c and row.limit is None
    return True


@pytest.mark.parametrize("f,target,eps,frac", [
    (br.make_builtin("double_well"), [1.0], 0.5, 0.2),
    (br.make_builtin("himmelblau"), [3.0, 2.0], 1.0, 0.5),
    (WIDE_DW, [1.0], 1.5, 0.5),
    (br.make_builtin("quad", (1.0, 2.0, 5.0)), [0.0, 0.0, 0.0], 1.0, 0.5),
])
def test_probe_discrete_runs_match_run_gd(f, target, eps, frac):
    s = br.constant(frac / f.lipschitz_L)
    est, runs = probe_runs(f, target, eps, s, seed=0)
    passing = [r for r in runs if r.terminal_status == "converged"]
    assert passing
    captured = 0
    for r in passing:
        ref = br.run_gd(f, r.initial_x, s, gtol=1e-8, max_iter=20_000)
        captured += check_passing_row(r, ref, est, np.array(target), eps)
        assert r.provenance["producer"] == "gd"
    assert captured > 0


@pytest.mark.parametrize("f,target,eps,h", [
    (br.make_builtin("double_well"), [-1.0], 0.4, 1e-3),
    (br.make_builtin("quad", (1.0, 4.0)), [0.0, 0.0], 1.0, 1e-2),
    (br.make_builtin("quad", (1.0, 2.0, 5.0)), [0.0, 0.0, 0.0], 1.0, 1e-2),
])
def test_probe_continuous_runs_match_integrate(f, target, eps, h):
    st = br.FlowSettings(h=h, t_max=20.0, gtol=1e-6)
    est, runs = probe_runs(f, target, eps, st)
    assert runs and all(r.terminal_status == "converged" for r in runs)
    captured = 0
    for r in runs:
        ref = br.integrate(f, r.initial_x, "forward", st)
        captured += check_passing_row(r, ref, est, np.array(target), eps)
    assert captured > 0


@pytest.mark.parametrize("f,target,eps,dynamics,seed", [
    (WIDE_DW, [1.0], 1.5, br.constant(0.5 / WIDE_DW.lipschitz_L), 0),
    (WIDE_DW, [1.0], 1.5, br.FlowSettings(h=1e-2, t_max=20.0, gtol=1e-6), 0),
    (br.make_builtin("himmelblau"), [3.0, 2.0], 2.0, br.constant(0.0058), 4),
    (br.make_builtin("himmelblau"), [3.0, 2.0], 2.0, br.FlowSettings(h=1e-2, t_max=20.0), 4),
    (br.make_builtin("quad", (1.0, 2.0, 5.0)), [0.0, 0.0, 0.0], 1.0, br.constant(0.1), 0),
], ids=["1-d-gd", "1-d-flow", "2-d-gd", "2-d-flow", "3-d-gd"])
def test_probe_records_its_starts_only_for_a_recorder(monkeypatch, f, target, eps, dynamics,
                                                      seed):
    # the probe ends each start in one recorded Trajectory, as every run
    # ends, but only a listening recorder keeps them: one run per start,
    # every sphere start at epsilon and, once one fails, at each bisected
    # radius; the estimate is the same, bit for bit, with or without one
    calls = []
    monkeypatch.setattr(reach_mod, "recorded",
                        lambda *args: calls.append(1) or recorded(*args))
    alone = br.stability_probe(f, target, eps, dynamics, seed=seed)
    unheard = len(calls)
    heard, runs = probe_runs(f, target, eps, dynamics, seed=seed)
    assert pickle.dumps(alone) == pickle.dumps(heard)
    trials = 1 + (reach_mod.PROBE_BISECTIONS if heard.failures else 0)
    assert unheard == len(calls) - unheard == len(runs) == heard.samples * trials


def test_probe_left_ball_stops_at_first_outside_state(monkeypatch):
    # distinct failing starts in 2-D, so the test sees their order
    f, target, eps = two_wells(), np.array([1.0, 0.0]), 1.5
    s = br.constant(0.9 / f.lipschitz_L)
    monkeypatch.setattr(reach_mod, "PROBE_BISECTIONS", 3)
    est, runs = probe_runs(f, target, eps, s, n_samples=4)
    contain = eps * (1.0 + 1e-9)
    failed, n_cut = [], 0
    for r in runs:
        ref = br.run_gd(f, r.initial_x, s, gtol=1e-8, max_iter=20_000)
        inside = [np.linalg.norm(st.x - target) <= contain for st in ref.states]
        if not (ref.terminal_status == "converged" and all(inside)):
            failed.append(r.initial_x)
        if r.provenance.get("stopped_on") == "left_ball":
            n_cut += 1
            assert inside.index(False) == len(r.states) - 1
            assert same_states(r.states, ref.states[:len(r.states)])
    assert n_cut > 1
    # the failures are the starts whose full run_gd fails, in probe order
    assert [p.tobytes() for p in est.failures] == [p.tobytes() for p in failed]


def test_probe_state_in_capture_set_at_gtol_converges(dw):
    # c = f(0.7) = 0.2601 on the 0.3-sphere around 1 and r = 8 / 72: one
    # step of 0.08 takes 1.3 to 1.013 in B_r, |grad f| = 0.11, and 0.7 to
    # 0.814 in K outside B_r, |grad f| = 1.10; with gtol 1.4 both rows end
    # converged with their limit, as the full runs do, not as stops
    target, eps, s = np.array([1.0]), 0.3, br.constant(0.08)
    est, runs = probe_runs(dw, target, eps, s, gtol=1.4)
    assert est.delta_hat == eps and est.capture_level == 0.2601 and len(runs) == 2
    r_ball = ball_radius(dw, target, eps)[0]
    inside, captured = sorted(runs, key=lambda r: abs(r.final_x[0] - 1.0))
    assert abs(inside.final_x[0] - 1.0) <= r_ball < abs(captured.final_x[0] - 1.0)
    assert captured.f[-1] < est.capture_level
    for r in runs:
        ref = br.run_gd(dw, r.initial_x, s, gtol=1.4)
        assert r.terminal_status == "converged" and same_states(r.states, ref.states)
        assert len(r) == 2 and r.limit.tobytes() == r.final_x.tobytes()
        assert "stopped_on" not in r.provenance


def test_probe_rowwise_objective_gives_same_estimate(quad14):
    s = br.constant(0.5 / WIDE_DW.lipschitz_L)
    rowwise = dataclasses.replace(WIDE_DW, vectorized=False)
    a = br.stability_probe(WIDE_DW, [1.0], 1.5, s, seed=0)
    assert a.failures
    assert same_estimate(a, br.stability_probe(rowwise, [1.0], 1.5, s, seed=0))
    st = br.FlowSettings(h=1e-2, t_max=20.0, gtol=1e-6)
    a = br.stability_probe(quad14, [0.0, 0.0], 1.0, st)
    b = br.stability_probe(dataclasses.replace(quad14, vectorized=False), [0.0, 0.0], 1.0, st)
    assert same_estimate(a, b)


def test_probe_evaluation_counts(monkeypatch, dw, quad14, himmelblau):
    # a continuous step reuses the gradient behind |grad f| as its DOP853
    # k1: 12 gradient points per accepted step, 11 per rejected one and 1
    # value per state, plus 1 each at the start; the 1-D certificate takes
    # the 2 sphere values
    f, counts = counting(dw)
    calls = count_flow_steps(monkeypatch)
    _, runs = probe_runs(f, [1.0], 0.4, br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6))
    steps = sum(len(r.states) - 1 for r in runs)
    assert 0 < steps <= len(calls)
    assert counts == {"grad": len(runs) + 12 * steps + 11 * (len(calls) - steps),
                      "value": len(runs) + steps + 2}
    # M = 0 makes B_r all of B_eps: each of the 2n + 8 starts passes at its
    # first state, for 1 gradient and 1 value, under the flow and under GD
    for dynamics in (br.FlowSettings(h=1e-2, t_max=20.0, gtol=1e-6), br.constant(0.1)):
        calls.clear()
        f, counts = counting(quad14)
        _, runs = probe_runs(f, [0.0, 0.0], 1.0, dynamics)
        assert len(runs) == 12 and calls == [] and counts == {"grad": 12, "value": 12}
    # a GD state costs one gradient and one value; the 1-D certificate takes
    # the 2 sphere values, the 2-D one here 22 values and 19 gradients on its
    # 256 grid points: both at the 8 coarse points and at the 5 middle points
    # the minorants, from the target's own curvature, leave in play, a value
    # at the 9 fill points they leave in play and a gradient at the 6 of
    # them that their values leave in play
    f, counts = counting(WIDE_DW)
    _, runs = probe_runs(f, [1.0], 1.5, br.constant(0.5 / f.lipschitz_L), seed=0)
    states = sum(len(r.states) for r in runs)
    assert counts == {"grad": states, "value": states + 2}
    f, counts = counting(himmelblau)
    _, runs = probe_runs(f, [3.0, 2.0], 1.0, br.constant(0.5 / f.lipschitz_L), seed=0)
    states = sum(len(r.states) for r in runs)
    assert counts == {"grad": states + 19, "value": states + 22}


@pytest.mark.parametrize("dynamics", [br.constant(0.2), br.FlowSettings(h=1e-2, t_max=20.0)],
                         ids=["gd", "flow"])
def test_probe_passes_every_quadratic_start_in_the_certified_ball(dynamics):
    # quad:1,2,4 has M = 0, so B_r = B_eps: each of the 2n + 8 starts
    # stops at its first state with the target as its limit, for one
    # gradient point each; no capture level is taken
    f, counts = counting(br.make_builtin("quad", (1.0, 2.0, 4.0)))
    target = np.zeros(3)
    est, runs = probe_runs(f, target, 1.0, dynamics)
    assert est.delta_hat == 1.0 and est.failures == () and est.capture_level is None
    assert len(runs) == 2 * 3 + 8 and counts["grad"] == len(runs)
    for r in runs:
        assert r.terminal_status == "converged" and len(r) == 1
        assert r.provenance["stopped_on"] == "certified_ball"
        assert (r.provenance["s"], r.provenance["mu_s"]) == (1.0, 1.0)
        assert r.limit.tobytes() == target.tobytes()


def test_probe_claims_the_limit_in_the_certified_ball_not_in_the_capture_set(himmelblau):
    # B_2(3, 2) holds saddle 8, (3.385, 0.074): K rows claim no limit, rows
    # stopped in B_r, r = 0.103, claim the target, and a run to gtol from
    # such a row's start converges to it; these starts reach B_r in one
    # step of 1.9/L from outside K
    f, target, eps = himmelblau, np.array([3.0, 2.0]), 2.0
    saddle = f.critical_points[8]
    assert saddle.kind == "saddle" and norm(saddle.point - target) < eps
    s = br.constant(1.9 / f.lipschitz_L)
    est, runs = probe_runs(f, target, eps, s, seed=4)
    r_ball, mu = ball_radius(f, target, eps)
    kinds = {}
    for r in runs:
        kinds.setdefault(r.provenance.get("stopped_on"), []).append(r)
    assert sorted(kinds) == ["capture_set", "certified_ball", "left_ball"]
    for r in kinds["capture_set"]:
        assert r.terminal_status == "converged" and r.limit is None
        assert r.f[-1] < est.capture_level and norm(r.final_x - target) > r_ball
    for r in kinds["certified_ball"]:
        assert r.terminal_status == "converged" and r.limit.tobytes() == target.tobytes()
        assert (r.provenance["s"], r.provenance["mu_s"]) == (r_ball, mu)
        assert norm(r.final_x - target) <= r_ball and r.f[-2] >= est.capture_level
        full = br.run_gd(f, r.initial_x, s, gtol=1e-10, max_iter=20_000)
        assert full.terminal_status == "converged" and norm(full.limit - target) <= 1e-10
        assert (row_norms(full.X[len(r) - 1:] - target) <= r_ball).all()


# --- capture certificate ---------------------------------------------------------

def misnamed_quad(eigenvalues, params):
    """The quad builtin on ``eigenvalues`` carrying other ``params``, as a
    user objective named "quad" may."""
    return dataclasses.replace(br.make_builtin("quad", eigenvalues), params=params)


@pytest.mark.parametrize("eigenvalues,params", [((1.0,), (4.0,)), ((1.0, 4.0), (9.0, 16.0))])
def test_capture_level_reads_the_hessian_not_the_name(eigenvalues, params):
    # x^2/2 (and x^2/2 + 2 y^2) with params (4,) (and (9, 16)): M = 0 makes
    # B_r all of B_eps, so no capture level is taken and delta_cert = r =
    # eps; every start stops in B_r at once with mu_r = lambda_min(hess f) =
    # 1, not 4 (9)
    f = misnamed_quad(eigenvalues, params)
    est, runs = probe_runs(f, np.zeros(f.dim), 1.0, br.constant(0.5 / f.lipschitz_L))
    assert est.capture_level is None and est.delta_cert == est.epsilon == 1.0
    assert len(runs) == est.samples
    for r in runs:
        assert len(r) == 1 and r.provenance["stopped_on"] == "certified_ball"
        assert (r.provenance["s"], r.provenance["mu_s"]) == (1.0, 1.0)
        assert r.limit.tolist() == [0.0] * f.dim



HB_MINIMA = [cp.point for cp in br.make_builtin("himmelblau").critical_points
             if cp.kind == "local_min"]
# every target the benchmark and the acceptance suite probe, with its epsilon
CERT_CASES = [
    ("double_well", (), [-1.0], 0.4), ("double_well", (), [1.0], 0.4),
    ("double_well", (), [1.0], 0.5), ("double_well", (2.5,), [1.0], 1.5),
    ("quad", (1.0,), [0.0], 1.0), ("quad", (1.0, 4.0), [0.0, 0.0], 1.0),
    ("quad", (1.0, 10.0), [0.0, 0.0], 1.0), ("quad", (1.0, 25.0), [0.0, 0.0], 1.0),
] + [("himmelblau", (), p, 1.0) for p in HB_MINIMA]


def certificate(name, params, target, eps):
    f = br.make_builtin(name, params)
    target = np.asarray(target, dtype=float)
    return f, target, reach_mod._capture_level(f, target, eps)


def sphere_sample(f, target, eps):
    """Both sphere points in 1-D, 20,000 evenly spaced ones in 2-D."""
    if f.dim == 1:
        return target + np.array([[-eps], [eps]])
    theta = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
    return target + eps * np.stack([np.cos(theta), np.sin(theta)], axis=1)


@pytest.mark.parametrize("name,params,target,eps", CERT_CASES)
def test_capture_level_is_a_sphere_floor(name, params, target, eps):
    f, target, c = certificate(name, params, target, eps)
    Y = sphere_sample(f, target, eps)
    fy = f.values(Y)
    assert (fy >= c).all()
    # the check is not vacuous: a level forged past the sampled minimum fails it
    forged = fy.min() + 1e-9 * (1.0 + abs(fy.min()))
    assert not (fy >= forged).all()
    # 1-D floors are exact; the 2-D grid, quad's too, gives up at most its
    # remainder
    d = 2.0 * eps * math.sin(math.pi / (2 * reach_mod.CAPTURE_GRID))
    slack = 0.0 if f.dim == 1 else (
        row_norms(f.gradients(Y)).max() * d + 0.5 * f.lipschitz_L * d * d
        + 1e-12 * (1.0 + np.abs(fy).max()))
    assert fy.min() - c <= slack


def test_capture_level_needs_a_positive_lipschitz_constant():
    # L = 0 (an affine objective) has no minimum to capture: no level
    f = br.ObjectiveFunction(dim=1, f=lambda x: float(x[0]), grad=lambda x: np.ones(1),
                             lipschitz_L=0.0, box=np.array([[-1.0, 1.0]]))
    assert reach_mod._capture_level(f, np.zeros(1), 0.5) is None


def test_capture_level_grid_on_renamed_quad(quad14):
    # not known to be quadratic (no hessian_lipschitz), quad takes the 2-D
    # grid: c lies below the exact floor 0.5 lambda_min eps^2 = 0.5 by at
    # most the remainder |grad| d + L d^2/2, and the probe has no B_r
    bowl = dataclasses.replace(quad14, name="bowl", hessian_lipschitz=None)
    c = reach_mod._capture_level(bowl, np.zeros(2), 1.0)
    d = 2.0 * math.sin(math.pi / (2 * reach_mod.CAPTURE_GRID))
    assert 0.5 - (4.0 * d + 2.0 * d * d + 1e-11) <= c <= 0.5
    est = br.stability_probe(bowl, [0.0, 0.0], 1.0, br.constant(0.1))
    assert est.capture_level == c and est.delta_cert == math.sqrt(2.0 * c / bowl.lipschitz_L)
    # with M = 0, B_r is all of B_eps: no grid, and delta_cert = r = eps
    est = br.stability_probe(quad14, [0.0, 0.0], 1.0, br.constant(0.1))
    assert est.capture_level is None
    assert est.delta_cert == 1.0


def capture_grid_cases():
    """Every certificate case, each himmelblau minimum at each epsilon whose
    ball fits the box, and quad:1,4 renamed without M."""
    hb = br.make_builtin("himmelblau")
    cases = [(br.make_builtin(name, params), np.asarray(target, dtype=float), eps)
             for name, params, target, eps in CERT_CASES]
    cases += [(hb, p, eps) for p in HB_MINIMA for eps in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0)
              if hb.in_box(p - eps) and hb.in_box(p + eps)]
    cases.append((dataclasses.replace(br.make_builtin("quad", (1.0, 4.0)), name="bowl",
                                      hessian_lipschitz=None), np.zeros(2), 1.0))
    return cases


# the grid points of each capture_grid_cases() case that the earlier
# two-pass grid evaluated (stride 8; a value and a gradient at every point
# that its cone bound f_j >= f_i - |g_i| D - L D^2/2 left in play); the 1-D
# cases take their 2 sphere values and no gradient
TWO_PASS_POINTS = [0] * 5 + [64, 52, 52, 49, 67, 61, 49, 68, 61, 52, 49, 47, 44, 144, 114, 83, 67,
                             57, 85, 74, 66, 61, 66, 58, 51, 49, 64]
# (gradients, values) on L, then (gradients, values) on the target's own
# curvature, of each capture_grid_cases() case: COARSE_FILL_POINTS for the
# grid of a coarse pass on every 16th point and one fill from its
# minorants, LADDER_POINTS for the ladder of levels of stride (32, 8, 1)
COARSE_FILL_POINTS = [(0, 2, 0, 2)] * 5 + [
    (20, 56, 20, 48), (20, 52, 20, 48), (20, 52, 20, 48), (28, 42, 28, 31), (27, 51, 25, 37),
    (27, 44, 26, 37), (26, 37, 26, 31), (26, 58, 19, 33), (25, 53, 21, 29), (26, 45, 25, 29),
    (28, 42, 28, 31), (30, 43, 30, 32), (31, 44, 31, 37), (36, 97, 25, 32), (34, 72, 25, 35),
    (31, 56, 25, 36), (27, 51, 25, 37), (26, 50, 25, 38), (29, 64, 29, 33), (28, 54, 28, 29),
    (27, 46, 27, 31), (27, 44, 26, 37), (26, 55, 24, 29), (26, 48, 25, 27), (26, 40, 25, 27),
    (26, 37, 26, 31), (20, 56, 20, 56)]
LADDER_POINTS = [(0, 2, 0, 2)] * 5 + [
    (20, 36, 16, 28), (20, 36, 16, 28), (20, 36, 16, 28), (26, 32, 19, 22), (30, 38, 20, 26),
    (25, 31, 19, 24), (22, 28, 20, 20), (32, 41, 17, 23), (29, 35, 19, 19), (28, 36, 20, 20),
    (26, 32, 19, 22), (24, 29, 20, 25), (23, 27, 21, 25), (44, 56, 19, 20), (39, 50, 18, 22),
    (35, 43, 18, 23), (30, 38, 20, 26), (27, 36, 20, 26), (28, 37, 17, 17), (28, 34, 17, 18),
    (26, 35, 20, 21), (25, 31, 19, 24), (25, 37, 19, 19), (25, 33, 18, 18), (24, 32, 19, 19),
    (22, 28, 20, 20), (20, 36, 20, 36)]


def target_curvature(f, target):
    """The (lambda_min, lambda_max, M) that ``_Basin`` hands the capture
    grid, or None without a Hessian or M."""
    if f.hessian is None or f.hessian_lipschitz is None:
        return None
    return (*reach_mod._spectrum(f, target)[:2], f.hessian_lipschitz)


def test_ladder_capture_level_is_the_full_grid_floor():
    # the ladder of levels gives the full grid's floor bit for bit on every
    # case, from the tabled counts: no more gradients or values than the
    # stride-8 two-pass grid took, and on the target's own curvature, where
    # there is a Hessian and M, no more than on L.  Against the coarse pass
    # and fill: on the target's curvature, the path every builtin reach
    # takes, no more of either; on L, where a middle point takes its
    # gradient with its value, no more of both together.  A himmelblau
    # minimum at epsilon = 1 takes at most 20 gradients and 26 values of
    # the 256 grid points
    cases = capture_grid_cases()
    assert len(cases) == 32
    assert len(TWO_PASS_POINTS) == len(COARSE_FILL_POINTS) == len(LADDER_POINTS) == len(cases)
    for (f, target, eps), before, coarse_fill, ladder in zip(cases, TWO_PASS_POINTS,
                                                             COARSE_FILL_POINTS, LADDER_POINTS):
        full = capture_level_full_grid(f, target, eps)
        taken = ()
        for curvature in (None, target_curvature(f, target)):
            counted, counts = counting(f)
            assert reach_mod._capture_level(counted, target, eps, curvature) == full, (
                f.name, target, eps, curvature)
            taken += (counts["grad"], counts["value"])
        assert taken == ladder, (f.name, target, eps, taken)
        grads, values, local_grads, local_values = taken
        assert grads <= before and values <= max(before, 2), (target, eps)
        assert local_grads <= grads and local_values <= values, (target, eps)
        was_grads, was_values, was_local_grads, was_local_values = coarse_fill
        assert local_grads <= was_local_grads and local_values <= was_local_values, (target, eps)
        assert grads + values <= was_grads + was_values, (target, eps)
        if f.name == "himmelblau" and eps == 1.0:
            assert 0 < local_grads <= 20 and 0 < local_values <= 26, taken


def test_capture_level_row_by_row_is_the_vectorized_level():
    # an objective that is not vectorized takes the same points one row at
    # a time: the same c from the same counts, on L and on the target's
    # own curvature
    for f, target, eps in capture_grid_cases():
        rows = dataclasses.replace(f, vectorized=False)
        for curvature in (None, target_curvature(f, target)):
            (vf, vc), (rf, rc) = counting(f), counting(rows)
            c = reach_mod._capture_level(vf, target, eps, curvature)
            assert reach_mod._capture_level(rf, target, eps, curvature) == c
            assert rc == vc, (f.name, target, eps, curvature)


def grid_spy(f):
    """(copy of f, values, gradients): the copy records the bytes of every
    point at which it takes f or grad f, batch rows one by one."""
    seen = {"value": [], "grad": []}

    def wrap(fn, key):
        def call(x):
            seen[key] += [row.tobytes() for row in np.atleast_2d(x)]
            return fn(x)
        return call
    return dataclasses.replace(f, f=wrap(f.f, "value"), grad=wrap(f.grad, "grad")), seen


def unit_grid():
    theta = 2.0 * np.pi * np.arange(reach_mod.CAPTURE_GRID) / reach_mod.CAPTURE_GRID
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)



def test_capture_chords_run_from_every_earlier_point_of_the_arc():
    # the coarse level (every 32nd grid point), the middle (the rest of
    # every 8th) and the fill (the rest) split the grid.  For each point of
    # the middle and the fill, each level's table names every point of the
    # earlier levels in its arc, in order: the middle its arc's two coarse
    # ends, the fill those and the arc's three middle points, the next
    # arc's coarse point last (grid point 0 after the last arc).  Each is
    # named as a post (a point of stride 8), with its grid steps n to the
    # point and the chord from it in its frame: turned by the post's unit
    # point, the chord is the point less the post, up to the 1e-15 the
    # capture level's margin allows a chord, of length 2 sin(pi |n|/N)
    N, Y = reach_mod.CAPTURE_GRID, unit_grid()
    coarse, post, _ = reach_mod.CAPTURE_STRIDES
    frames = Y.copy().view(complex)[:, 0]
    (middle, *_), (fill, *_) = reach_mod._LEVELS
    assert sorted(np.r_[0:N:coarse, middle, fill]) == list(range(N))
    assert (middle % post == 0).all() and (fill % post > 0).all()
    for (grid, posts, steps, chords), before in zip(reach_mod._LEVELS, (coarse, post)):
        assert posts.shape == steps.shape == chords.shape == (coarse // before + 1, len(grid))
        for col, j in enumerate(grid):
            earlier = range(j // coarse * coarse, j // coarse * coarse + coarse + 1, before)
            assert list(zip(posts[:, col], steps[:, col])) == [
                (i % N // post, j - i) for i in earlier], j
            for i, n, chord in zip(earlier, steps[:, col], chords[:, col]):
                assert abs(chord.conjugate() * frames[i % N] - complex(*(Y[j] - Y[i % N]))) <= 1e-15
                assert reach_mod._CHORD_LEN[n] == pytest.approx(
                    2.0 * math.sin(math.pi * abs(n) / N), rel=0.0, abs=1e-15)
                assert reach_mod._CHORD_SQ[n] == pytest.approx(
                    reach_mod._CHORD_LEN[n] ** 2, rel=1e-15, abs=0.0)


def test_capture_level_is_the_full_grid_floor_on_a_seeded_sweep():
    # 120 seeded (target, epsilon) pairs across the box on himmelblau and 100
    # on quad:1,25 renamed without M, most far from a minimum, where the
    # middle level leaves varied posts without a gradient: c is the full
    # grid's floor on each, on L and on the target's own curvature (for the
    # quad, its constant Hessian's, with M = 0), so every post's bound is
    # sound, those beyond the nearest post with a gradient included
    hb = br.make_builtin("himmelblau")
    bowl = dataclasses.replace(br.make_builtin("quad", (1.0, 25.0)), name="bowl",
                               hessian_lipschitz=None)
    rng = np.random.default_rng(0)
    for f, M, pairs, top in ((hb, hb.hessian_lipschitz, 120, 2.5), (bowl, 0.0, 100, 5.0)):
        low, high = f.box[:, 0], f.box[:, 1]
        for _ in range(pairs):
            eps = rng.uniform(0.05, top)
            target = rng.uniform(low + eps, high - eps)
            full = capture_level_full_grid(f, target, eps)
            for curvature in (None, (*reach_mod._spectrum(f, target)[:2], M)):
                assert reach_mod._capture_level(f, target, eps, curvature) == full, (
                    f.name, target.tolist(), eps, curvature)


def test_capture_level_evaluates_a_dip_between_level_points():
    # |x|^2/2 less a Gaussian dip of depth a and width sig centred on grid
    # point j of the unit circle: the dip's Hessian has spectral norm at
    # most a/sig^2, so L = 1 + a/sig^2 holds on the box.  The levels before
    # j's miss the dip, which holds the sphere floor; j's level must take
    # its value and gradient.  j is a middle point midway between two coarse
    # ones, a fill point midway between two middle ones, and a fill point
    # one step from a coarse point and one from a middle point, where a
    # narrower dip leaves that point its value
    coarse, post, _ = reach_mod.CAPTURE_STRIDES
    a, Y = 0.01, unit_grid()
    for j, sig in ((6 * coarse + coarse // 2, 0.02), (6 * coarse + post + post // 2, 0.02),
                   (6 * coarse + 1, 0.005), (6 * coarse + post + 1, 0.005)):
        before = coarse if j % post == 0 else post  # the stride of the levels before j's
        steps = min(j % before, before - j % before)
        assert steps * 2.0 * np.pi / reach_mod.CAPTURE_GRID > 4.0 * sig
        p = Y[j]

        def bump(x, p=p, sig=sig):
            return a * math.exp(-float((x - p) @ (x - p)) / (2.0 * sig * sig))

        def value(x, bump=bump):
            return 0.5 * float(x @ x) - bump(x)

        def grad(x, bump=bump, p=p, sig=sig):
            return x + bump(x) / (sig * sig) * (x - p)

        dip = br.ObjectiveFunction(dim=2, f=value, grad=grad, lipschitz_L=1.0 + a / (sig * sig),
                                   box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), name="dip")
        # L is honest on sampled pairs near the dip
        rng = np.random.default_rng(0)
        for x, y in p + 3.0 * sig * rng.standard_normal((200, 2, 2)):
            assert norm(grad(x) - grad(y)) <= dip.lipschitz_L * norm(x - y)
        spied, seen = grid_spy(dip)
        c = reach_mod._capture_level(spied, np.zeros(2), 1.0)
        assert p.tobytes() in seen["value"] and p.tobytes() in seen["grad"], j
        assert c < dip.value(p) < dip.values(Y[::before]).min() - 0.9 * a
        assert c == capture_level_full_grid(dip, np.zeros(2), 1.0)


def test_capture_level_on_the_targets_curvature_evaluates_a_flat_floor():
    # f = |x|^2/2 - beta s - kappa s t^2/2, s = <x, p> and t = <x, tau> for
    # grid point p and its tangent tau, has hess f(0) = I, but along the
    # circle near p its Hessian's tangential curvature is 1 - kappa s, about
    # 0: the sphere floor is p, on a flat stretch between coarse points.
    # D^3 f[h] = -kappa [[0, h_t], [h_t, h_s]] in the (p, tau) frame, whose
    # Frobenius norm gives the honest M = sqrt(2) kappa, and |hess f(x)| <=
    # 1 + M |x| the honest L = 1 + 4 kappa on the box.  So L_c = M - 1 and
    # L_g = 1 + M, up to rounding margins and both below L, skip points the
    # grid on L takes, and the grid still takes p's value and gradient; a
    # minorant that assumed the curvature 1 of hess f(0) along every chord,
    # without M epsilon, would skip p.  p is a middle point midway between
    # two coarse ones, a fill point midway between two middle ones, and a
    # fill point 4 steps from a coarse one
    coarse, post, _ = reach_mod.CAPTURE_STRIDES
    Y = unit_grid()
    beta, kappa = 1.3, 1.0
    rng = np.random.default_rng(0)
    for j in (6 * coarse + coarse // 2, 6 * coarse + post + post // 2, 6 * coarse + 4):
        p = Y[j]
        tau = np.array([-p[1], p[0]])

        def value(x, p=p, tau=tau):
            s, t = float(x @ p), float(x @ tau)
            return 0.5 * float(x @ x) - beta * s - 0.5 * kappa * s * t * t

        def grad(x, p=p, tau=tau):
            s, t = float(x @ p), float(x @ tau)
            return x - (beta + 0.5 * kappa * t * t) * p - kappa * s * t * tau

        def hess(x, p=p, tau=tau):
            s, t = float(x @ p), float(x @ tau)
            return np.eye(2) - kappa * (t * (np.outer(p, tau) + np.outer(tau, p))
                                        + s * np.outer(tau, tau))

        f = br.ObjectiveFunction(dim=2, f=value, grad=grad, hessian=hess,
                                 lipschitz_L=1.0 + 4.0 * kappa,
                                 box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
                                 hessian_lipschitz=math.sqrt(2.0) * kappa, name="flat floor")
        # the Hessian is grad f's derivative, and L and M are honest on
        # sampled pairs in the box
        for x, y in rng.uniform(-2.0, 2.0, (200, 2, 2)):
            h = 1e-6 * (y - x) / norm(y - x)
            assert norm(grad(x + h) - grad(x - h) - 2.0 * hess(x) @ h) <= 1e-12
            assert norm(grad(x) - grad(y)) <= f.lipschitz_L * norm(x - y)
            assert np.linalg.norm(hess(x) - hess(y), 2) <= f.hessian_lipschitz * norm(x - y)
        curvature = target_curvature(f, np.zeros(2))
        assert curvature[0] == curvature[1] == 1.0
        assert int(np.argmin(f.values(Y))) == j
        full = capture_level_full_grid(f, np.zeros(2), 1.0)
        spied, seen = grid_spy(f)
        assert reach_mod._capture_level(spied, np.zeros(2), 1.0, curvature) == full
        assert p.tobytes() in seen["value"] and p.tobytes() in seen["grad"], j
        counted, counts = counting(f)
        assert reach_mod._capture_level(counted, np.zeros(2), 1.0) == full
        assert len(seen["value"]) < counts["value"], j


def test_capture_level_takes_the_gradient_where_b_is_least_not_f():
    # the least b_i = f(y_i) - |grad f(y_i)| d - ... on the grid sits where
    # a steep narrow ripple's slope, not f, is large, on |x|^2/2 + t x_1:
    # - a sin(k x_2), with L = 1 + a k^2;
    # - a <x - p, tau> exp(-|x - p|^2/(2 sig^2)) at grid point p, a middle
    #   point midway between two coarse ones or a fill point midway between
    #   two middle ones, tau the tangent there, with L = 1 + 2 a/sig (its
    #   Hessian's spectral norm is at most 1.5 a/sig).
    # The fill may skip gradients elsewhere but must take that point's.
    coarse, post, _ = reach_mod.CAPTURE_STRIDES
    Y = unit_grid()
    spots = (3 * coarse + coarse // 2, 3 * coarse + post + post // 2)

    def ripple(a, k):
        def value(X):
            X = np.asarray(X)
            return 0.5 * (X * X).sum(axis=-1) + X[..., 0] + a * np.sin(k * X[..., 1])

        def grad(X):
            G = np.array(X, dtype=float)
            G[..., 0] += 1.0
            G[..., 1] += a * k * np.cos(k * G[..., 1])
            return G
        return br.ObjectiveFunction(dim=2, f=value, grad=grad, lipschitz_L=1.0 + a * k * k,
                                    box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), vectorized=True,
                                    name="ripple")

    def spike(a, sig, p):
        tau = np.array([-p[1], p[0]])

        def bend(x):
            z = x - p
            return float(z @ tau), math.exp(-float(z @ z) / (2.0 * sig * sig)), z

        def value(x):
            w, e, _ = bend(x)
            return 0.5 * float(x @ x) + 0.3 * x[0] + a * w * e

        def grad(x):
            w, e, z = bend(x)
            return x + np.array([0.3, 0.0]) + a * e * (tau - w / (sig * sig) * z)
        return br.ObjectiveFunction(dim=2, f=value, grad=grad, lipschitz_L=1.0 + 2.0 * a / sig,
                                    box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), name="spike")

    d = 2.0 * math.sin(math.pi / (2 * reach_mod.CAPTURE_GRID))
    rng = np.random.default_rng(0)
    cases = [(ripple(0.05, 90.0), Y[spots[0]], True)]
    cases += [(spike(30.0, 0.01, Y[j]), Y[j], False) for j in spots]
    for f, p, skips in cases:
        # L is honest on sampled pairs near the ripple
        for x, y in p + 0.03 * rng.standard_normal((200, 2, 2)):
            assert norm(f.gradient(x) - f.gradient(y)) <= f.lipschitz_L * norm(x - y)
        fy = f.values(Y)
        j = int(np.argmin(fy - row_norms(f.gradients(Y)) * d))
        assert fy[j] > fy.min()
        spied, seen = grid_spy(f)
        c = reach_mod._capture_level(spied, np.zeros(2), 1.0)
        assert c == capture_level_full_grid(f, np.zeros(2), 1.0), f.name
        assert Y[j].tobytes() in seen["grad"], f.name
        assert (len(seen["grad"]) < len(seen["value"]) < reach_mod.CAPTURE_GRID) == skips


def test_capture_level_evaluates_a_dip_on_a_crest():
    # |x|^2/2 + beta <x, p> less a Gaussian dip of depth a and width sig at
    # grid point p, the middle point midway between two coarse ones: f
    # rises along the circle from both coarse neighbours to p, so a linear
    # extrapolation from either passes over the dip, which holds the sphere
    # floor; only the minorant's curvature term L epsilon^2 |u|^2/2 leaves
    # p in play
    coarse, Y = reach_mod.CAPTURE_STRIDES[0], unit_grid()
    a, sig, beta = 0.2, 0.07, 0.08
    p = Y[6 * coarse + coarse // 2]

    def bump(x):
        return a * math.exp(-float((x - p) @ (x - p)) / (2.0 * sig * sig))

    crest = br.ObjectiveFunction(
        dim=2, f=lambda x: 0.5 * float(x @ x) + beta * float(x @ p) - bump(x),
        grad=lambda x: x + beta * p + bump(x) / (sig * sig) * (x - p),
        lipschitz_L=1.0 + a / (sig * sig), box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), name="crest")
    spied, seen = grid_spy(crest)
    c = reach_mod._capture_level(spied, np.zeros(2), 1.0)
    assert p.tobytes() in seen["grad"]
    assert c < crest.value(p) < crest.values(Y[::coarse]).min()
    assert c == capture_level_full_grid(crest, np.zeros(2), 1.0)


# (gradients, values) of the capture level at each himmelblau minimum,
# moved by (shift, -shift), at epsilon 0.5 and 1, on L: the margin mu
# grows with |target|_inf, so at 1e9 more points stay in play
FAR_POINTS = {
    1e6: [(28, 36), (26, 32), (35, 43), (30, 38), (26, 35), (26, 31), (24, 32), (22, 28)],
    1e9: [(74, 78), (41, 44), (84, 100), (54, 57), (60, 62), (47, 50), (50, 55), (38, 38)]}


@pytest.mark.parametrize("shift", [1e6, 1e9])
def test_capture_level_far_from_the_origin(shift):
    # himmelblau moved by (shift, -shift): the float chords between grid
    # points differ from epsilon times the unit ones by about 1e-16 shift,
    # which the margins hold; the level is still the full grid's, from the
    # tabled counts
    hb = br.make_builtin("himmelblau")
    s = np.array([shift, -shift])
    far = br.ObjectiveFunction(dim=2, f=lambda X: hb.f(np.asarray(X) - s),
                               grad=lambda X: hb.grad(np.asarray(X) - s),
                               lipschitz_L=hb.lipschitz_L, box=hb.box + s[:, None],
                               vectorized=True, name="far")
    taken = []
    for p in HB_MINIMA:
        for eps in (0.5, 1.0):
            counted, counts = counting(far)
            c = reach_mod._capture_level(counted, p + s, eps)
            assert c == capture_level_full_grid(far, p + s, eps), (p, eps)
            taken.append((counts["grad"], counts["value"]))
    assert taken == FAR_POINTS[shift]


def test_capture_level_never_calls_an_empty_batch(himmelblau):
    # a vectorized objective that refuses a batch of no rows, and logs the
    # rows of each call: the coarse level alone (a steep tilt); no middle
    # point in play, and fill values but no gradient (a gentler one); middle
    # points but no fill (a slope toward a middle point); middle points and
    # fill values but no fill gradient (a gentler tilt still); every level
    # (himmelblau)
    def refusing(f, calls):
        def wrap(fn, key):
            def call(x):
                if np.ndim(x) == 2 and len(x) == 0:
                    raise ValueError("empty batch")
                calls.append((key, len(x)))
                return fn(x)
            return call
        return dataclasses.replace(f, f=wrap(f.f, "value"), grad=wrap(f.grad, "grad"))

    def sloped(t, p):
        return br.ObjectiveFunction(
            dim=2, f=lambda X: 0.5 * (np.asarray(X) ** 2).sum(axis=-1) - t * (np.asarray(X) @ p),
            grad=lambda X: np.asarray(X) - t * p, lipschitz_L=1.0,
            box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), vectorized=True, name="sloped")

    coarse, post, _ = reach_mod.CAPTURE_STRIDES
    K = reach_mod.CAPTURE_GRID // coarse
    west, middle = np.array([-1.0, 0.0]), unit_grid()[post]
    for f, target, batches in (
            (sloped(10.0, west), np.zeros(2), [K, K]),
            (sloped(3.0, west), np.zeros(2), [K, K, 2]),
            (sloped(5.0, middle), np.zeros(2), [K, K, 2, 2]),
            (sloped(2.0, west), np.zeros(2), [K, K, 4, 4, 8]),
            (himmelblau, HB_MINIMA[0], [K, K, 12, 12, 12, 6])):
        calls = []
        level = reach_mod._capture_level(refusing(f, calls), target, 1.0)
        assert level == capture_level_full_grid(f, target, 1.0)
        assert calls == list(zip(["value", "grad"] * 3, batches)), calls


@pytest.mark.parametrize("name,params,target,eps", CERT_CASES)
def test_runs_from_inside_delta_cert_stay_and_converge(name, params, target, eps):
    # delta_cert is the larger of r and the radius sqrt(2 (c - f*) / L)
    # inside K; quad (M = 0) has r = eps and no c
    f, target, _ = certificate(name, params, target, eps)
    L = f.lipschitz_L
    est = br.stability_probe(f, target, eps, br.constant(0.9 / L))
    r = ball_radius(f, target, eps)[0]
    c = est.capture_level
    assert (c is None) == (r == eps)
    k = 0.0 if c is None else math.sqrt(2.0 * (c - f.value(target)) / L)
    assert 0.0 < est.delta_cert == max(r, k) <= eps
    st = br.FlowSettings(h=0.1 / L, t_max=20.0, gtol=1e-6)
    for d in unit_directions(f.dim, 2, seed=0):
        x0 = target + 0.999 * est.delta_cert * d
        assert norm(x0 - target) <= r or f.value(x0) < c
        for run in (br.run_gd(f, x0, br.constant(1.9 / L), gtol=1e-8, max_iter=20_000),
                    br.integrate(f, x0, "forward", st)):
            assert run.terminal_status == "converged"
            assert (row_norms(run.X - target) <= eps).all()


# --- discrete reachability ------------------------------------------------------

def test_reach_discrete_double_well(dw):
    s = br.constant(0.5 / dw.lipschitz_L)
    rep = br.reach_discrete(dw, [1.0], 0.4, s, 1e-3, 1e-4)
    assert rep.status == "success"
    assert rep.final_distance <= 1e-4
    assert np.linalg.norm(rep.x0 - rep.target) > 0.0
    assert np.linalg.norm(rep.x0 - rep.target) <= 0.4 * (1 + 1e-9)
    assert dw.value(rep.ascent_seed) > dw.value([1.0])


def test_reach_discrete_replay_consistency(dw):
    # the replay stops in B_r before the orbit ends; plain run_gd from x0,
    # of which it is the prefix, follows the whole orbit
    s = br.constant(0.5 / dw.lipschitz_L)
    rep = br.reach_discrete(dw, [1.0], 0.4, s, 1e-3, 1e-4)
    orbit, traj = rep.reverse_part, rep.forward_part
    assert orbit.start_index == 0 and len(traj) < len(orbit.points)
    full = br.run_gd(dw, rep.x0, traj.provenance["schedule"], gtol=0.0,
                     max_iter=len(orbit.points) - 1)
    assert full.X[:len(traj)].tobytes() == traj.X.tobytes()
    for i, p in enumerate(orbit.points):
        assert np.linalg.norm(full.states[i].x - p) <= 1e-8 * (1 + np.linalg.norm(p))


def test_reach_discrete_quad_geometric(quad1):
    s = br.constant(0.5)
    rep = br.reach_discrete(quad1, [0.0], 1.0, s, 1e-3, 1e-6)
    assert rep.status == "success" and rep.final_distance <= 1e-6
    # closed form: the orbit from a is a / (1 - alpha)^m, exact doubling
    pts = [p[0] for p in rep.reverse_part.points]
    for p, nxt in zip(pts, pts[1:]):
        assert p == pytest.approx(2.0 * nxt, rel=1e-10)
    assert abs(pts[0]) > rep.escape_radius


def test_reach_discrete_himmelblau(himmelblau):
    s = br.constant(0.5 / himmelblau.lipschitz_L)
    rep = br.reach_discrete(himmelblau, [3.0, 2.0], 1.0, s, 1e-3, 1e-3)
    assert rep.status == "success" and rep.final_distance <= 1e-3


# --- ascent seeds -----------------------------------------------------------------

def test_seed_does_not_depend_on_the_eigenvector_sign(monkeypatch, himmelblau):
    # the first seed lies along v_max, the top eigenvector of the target's
    # Hessian, signed so that its largest-magnitude component is positive:
    # (0.924, 0.383) at (3, 2), whichever sign eigh returns, so a flipped
    # factorisation gives the same seed, x0 and replay, byte for byte
    target = np.array([3.0, 2.0])
    s = br.constant(0.5 / himmelblau.lipschitz_L)
    run = lambda: br.reach_discrete(himmelblau, target, 1.0, s, 1e-3, 1e-3)
    rep = run()
    v = np.linalg.eigh(himmelblau.hess(target))[1][:, -1]
    v = v if v[0] > 0.0 else -v
    assert v[0] > abs(v[1]) and np.array_equal(rep.ascent_seed, target + 1e-3 * v)
    eigh = np.linalg.eigh

    def flipped_eigh(H):
        w, V = eigh(H)
        return w, -V

    monkeypatch.setattr(np.linalg, "eigh", flipped_eigh)
    flipped = run()
    assert rep.status == flipped.status == "success"
    for name in ("ascent_seed", "x0", "final_distance"):
        assert np.array(getattr(flipped, name)).tobytes() == np.array(getattr(rep, name)).tobytes()
    assert flipped.forward_part.X.tobytes() == rep.forward_part.X.tobytes()


def test_no_escape_scan_tries_each_direction_once(monkeypatch, quad14):
    # quad:1,4's top eigenvector is the axis e_2: the scan leads with +-e_2
    # and skips that axis pair after it, so where no orbit escapes (kbar_max
    # = 1) it tries its 2 dim + SCAN_RANDOM distinct seeds once, all at the
    # given schedule and one escape radius
    tried = []
    crossing = reach_mod._first_crossing_orbit

    def logged(f, a, s, rho, *rest):
        tried.append((s, rho, a.tobytes()))
        return crossing(f, a, s, rho, *rest)

    monkeypatch.setattr(reach_mod, "_first_crossing_orbit", logged)
    s = br.constant(0.5 / quad14.lipschitz_L)
    rep = br.reach_discrete(quad14, [0.0, 0.0], 1.0, s, 1e-3, 1e-4, br.ReachBudgets(kbar_max=1))
    assert rep.status == "no_escape"
    assert {(s, rho) for s, rho, _ in tried} == {(s, rep.escape_radius)}
    seeds = [a for *_, a in tried]
    assert len(seeds) == len(set(seeds)) == 2 * 2 + reach_mod.SCAN_RANDOM
    assert seeds[:2] == [np.array([0.0, 1e-3]).tobytes(), np.array([0.0, -1e-3]).tobytes()]


def test_no_escape_reports_the_escape_radius_it_scanned(monkeypatch, dw):
    # at sup alpha = 0.95/L the escape radius falls below the seed radius,
    # so the scan runs at the halved schedule, whose rho the report carries
    scanned = set()
    crossing = reach_mod._first_crossing_orbit

    def logged(f, a, s, rho, *rest):
        scanned.add((s, rho))
        return crossing(f, a, s, rho, *rest)

    monkeypatch.setattr(reach_mod, "_first_crossing_orbit", logged)
    s = br.constant(0.95 / dw.lipschitz_L)
    rep = br.reach_discrete(dw, [1.0], 0.4, s, 0.02, 1e-4, br.ReachBudgets(kbar_max=1))
    assert rep.status == "no_escape" and rep.delta_source == "certified"
    rho = reach_mod._escape_radius(dw, rep.delta_used, 0.5 * s.sup_alpha)
    assert scanned == {(s.scaled(0.5), rho)} and rep.escape_radius == rho > 0.02
    assert reach_mod._escape_radius(dw, rep.delta_used, s.sup_alpha) <= 0.02


@pytest.mark.parametrize("name,args,target,epsilon", [
    ("double_well", (), [1.0], 0.4),
    ("himmelblau", (), [3.0, 2.0], 1.0),
    ("quad", (1.0, 25.0), [0.0, 0.0], 1.0),
])
def test_step_scale_is_at_most_two_halvings(monkeypatch, name, args, target, epsilon):
    # with aL < 1 and seed_radius <= delta/2 the escape radius clears the
    # seeds once aL < 1/4, so even at sup alpha = 0.99/L and seed radius
    # delta/2 the reach scans at the given schedule halved at most twice
    f = br.make_builtin(name, args)
    scanned = set()
    crossing = reach_mod._first_crossing_orbit

    def logged(f, a, s, rho, *rest):
        scanned.add((s, rho))
        return crossing(f, a, s, rho, *rest)

    monkeypatch.setattr(reach_mod, "_first_crossing_orbit", logged)
    s = br.constant(0.99 / f.lipschitz_L)
    delta = reach_mod._Basin(f, np.array(target), epsilon, "target").certificate[1]
    rep = br.reach_discrete(f, target, epsilon, s, 0.5 * delta, 1e-4)
    assert rep.status == "success" and rep.delta_used == delta and len(scanned) == 1
    (chosen, rho), = scanned
    assert chosen in [s, s.scaled(0.5), s.scaled(0.25)]
    assert rho == rep.escape_radius == reach_mod._escape_radius(f, delta, chosen.sup_alpha)
    assert rho > 0.5 * delta


@pytest.mark.parametrize("kind,ceiling", [("constant", 150), ("power", 300)])
def test_minimum_reach_cost_does_not_grow_with_the_condition_number(kind, ceiling):
    # along the top eigenvector an ascent step at alpha = 0.5/L doubles the
    # distance to the target whatever kappa is: with the probe skipped,
    # quad:1,kappa costs the same gradient points at every kappa, and with
    # it stays under the ceiling (axis first, the e_1 seed took 131,185 and
    # 229,229 at kappa = 1e4)
    grads = {}
    for kappa, override in itertools.product((4.0, 1e2, 1e4), (1.0, None)):
        f, counts = counting(br.make_builtin("quad", (1.0, kappa)))
        alpha = 0.5 / f.lipschitz_L
        s = br.constant(alpha) if kind == "constant" else br.power(alpha, 0.5)
        rep = br.reach_discrete(f, [0.0, 0.0], 1.0, s, 1e-3, 1e-4,
                                br.ReachBudgets(delta_override=override))
        assert rep.status == "success" and rep.final_distance <= 1e-4
        grads[kappa, override] = counts["grad"]
    assert len({grads[kappa, 1.0] for kappa in (4.0, 1e2, 1e4)}) == 1
    assert max(grads[kappa, None] for kappa in (4.0, 1e2, 1e4)) < ceiling


@pytest.mark.parametrize("name,params,target,eps", [
    ("himmelblau", (), [3.0, 2.0], 1.0), ("double_well", (), [1.0], 0.4),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0)])
def test_power_schedule_at_p_zero_is_the_constant_reach(monkeypatch, name, params, target, eps):
    # power(c, 0) is constant(c): the reach marches its orbit back once, as
    # the constant reach does, and is the constant reach bit for bit
    reports = []
    for s in (br.constant, lambda c: br.power(c, 0.0)):
        f, counts = counting(br.make_builtin(name, params))
        builds = []
        monkeypatch.setattr(reach_mod, "reverse_orbit",
                            lambda *args, **kw: builds.append(args[3]) or
                            reverse_mod.reverse_orbit(*args, **kw))
        rep = br.reach_discrete(f, target, eps, s(0.5 / f.lipschitz_L), 1e-3, 1e-4)
        assert rep.status == "success" and len(builds) == 1
        reports.append((rep, counts))
    (a, a_counts), (b, b_counts) = reports
    assert a_counts == b_counts and a.x0.tobytes() == b.x0.tobytes()
    assert pickle.dumps(a.reverse_part) == pickle.dumps(b.reverse_part)
    assert same_states(a.forward_part.states, b.forward_part.states)
    assert a.forward_part.provenance["schedule"] == b.forward_part.provenance["schedule"]
    assert reach_report_json(a) == reach_report_json(b)
    assert reach_report_json(b)["schedule"].startswith("constant:")


def test_objective_without_hessian_seeds_along_the_first_axis(quad14):
    # no Hessian, no v_max: the scan starts at e_1, where with the Hessian
    # it starts at quad:1,4's top eigenvector e_2
    s = br.constant(0.5 / quad14.lipschitz_L)
    for f, first in ((dataclasses.replace(quad14, hessian=None), [1e-3, 0.0]),
                     (quad14, [0.0, 1e-3])):
        rep = br.reach_discrete(f, [0.0, 0.0], 1.0, s, 1e-3, 1e-4)
        assert rep.status == "success" and np.array_equal(rep.ascent_seed, first)


def lattice_fmax(f, target, radius, n_grid):
    """max f over the n_grid^dim lattice of the ball B_radius(target)."""
    axes = [np.linspace(t - radius, t + radius, n_grid) for t in target]
    return max(f.value(np.array(p)) for p in itertools.product(*axes)
               if np.linalg.norm(np.array(p) - target) <= radius)


def lattice_grad_min(f, target, radius, level, n_grid):
    """min |grad f| over the n_grid^dim lattice of B_radius(target) intersected
    with {f >= level}."""
    axes = [np.linspace(t - radius, t + radius, n_grid) for t in target]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dim)
    X = X[row_norms(X - target) <= radius]
    X = X[f.values(X) >= level]
    assert len(X)
    return float(row_norms(f.gradients(X)).min())


def test_reach_discrete_escape_bound(dw, himmelblau):
    # with a constant schedule the orbit exits within
    # (f_max_on_ball - f(a)) * 2 / (alpha zeta^2) + 1 backsteps
    for f, target in ((dw, [1.0]), (himmelblau, [3.0, 2.0])):
        alpha = 0.5 / f.lipschitz_L
        s = br.constant(alpha)
        eps = 0.4 if f.dim == 1 else 1.0
        rep = br.reach_discrete(f, np.array(target), eps, s, 1e-3, 1e-3)
        assert rep.status == "success"
        level = f.value(rep.ascent_seed)
        zeta = lattice_grad_min(f, np.array(target), rep.delta_used, level, n_grid=81)
        fmax = lattice_fmax(f, np.array(target), rep.delta_used, n_grid=81)
        kbar_used = len(rep.reverse_part.points) - 1
        assert zeta > 0.0
        assert kbar_used <= (fmax - level) * 2.0 / (alpha * zeta**2) + 1.0


@pytest.mark.parametrize("name,params,target,eps", [
    ("double_well", (), [1.0], 0.4),
    ("himmelblau", (), [3.0, 2.0], 1.0),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0),
])
def test_reach_discrete_first_crossing(monkeypatch, name, params, target, eps):
    # constant schedule: x0 is the first backward crossing of the escape
    # sphere, built with one ascent solve per orbit step: the reach builds
    # one orbit, the ndarray reference's bit for bit over as many steps,
    # and takes the gradients of those solves' tested iterates, no more
    plain = br.make_builtin(name, params)
    f, counts = counting(plain)
    builds, build = [], reach_mod.reverse_orbit

    def counted(*args, **kwargs):
        before = counts["grad"]
        orbit = build(*args, **kwargs)
        builds.append((orbit, counts["grad"] - before))
        return orbit

    monkeypatch.setattr(reach_mod, "reverse_orbit", counted)
    rep = br.reach_discrete(f, target, eps, br.constant(0.5 / f.lipschitz_L), 1e-3, 1e-3)
    assert rep.status == "success"
    points = rep.reverse_part.points
    dist = [np.linalg.norm(p - rep.target) for p in points]
    assert all(d <= rep.escape_radius for d in dist[1:])
    assert rep.escape_radius < dist[0] <= min(rep.delta_used, eps)
    [(orbit, grads)] = builds
    s, iters = rep.forward_part.provenance["schedule"], []
    alphas = [s.alpha(k) for k in range(len(points) - 2, -1, -1)]
    ref, _ = anderson_orbit(plain, rep.ascent_seed, alphas, iters)
    assert orbit is rep.reverse_part and len(iters) == len(points) - 1
    assert [p.tobytes() for p in points] == [p.tobytes() for p in ref[::-1]]
    assert grads == 1 + sum(it - 1 for it in iters)


def test_reach_discrete_shrinking_seeds(dw):
    s = br.constant(0.5 / dw.lipschitz_L)
    eps = 0.5
    delta = None
    for seed_radius in (1e-2, 1e-3, 1e-4):
        budgets = br.ReachBudgets(delta_override=delta)
        rep = br.reach_discrete(dw, [1.0], eps, s, seed_radius, 1e-4, budgets)
        assert rep.status == "success" and rep.final_distance <= 1e-4
        assert np.linalg.norm(rep.x0 - rep.target) <= eps
        delta = rep.delta_used


def test_dynamics_must_be_a_schedule_or_flow_settings(dw, saddle_quad):
    st = br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)
    with pytest.raises(ValueError, match="reach_discrete needs a StepSchedule, got FlowSettings"):
        br.reach_discrete(dw, [1.0], 0.4, st, 1e-3, 1e-4)
    with pytest.raises(ValueError, match="reach_continuous needs FlowSettings, got StepSchedule"):
        br.reach_continuous(dw, [1.0], 0.4, br.constant(0.01), 1e-3, 1e-4)
    for name, call in (("stability_probe", lambda d: br.stability_probe(dw, [1.0], 0.4, d)),
                       ("reach_general",
                        lambda d: br.reach_general(saddle_quad, [0.0, 0.0], 1.0, d, 1e-3))):
        with pytest.raises(ValueError, match=f"{name} needs a StepSchedule .*FlowSettings"):
            call("discrete")


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_every_reach_rejects_a_nonpositive_tol(dw, saddle_quad, tol):
    # and the same value as epsilon or seed_radius: each is named
    st = br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)
    for field in ("epsilon", "seed_radius", "tol"):
        def given(eps):
            return {"epsilon": eps, "seed_radius": 1e-3, "tol": 1e-4, field: tol}
        for call in (lambda: br.reach_discrete(dw, [1.0], s=br.constant(0.01), **given(0.4)),
                     lambda: br.reach_continuous(dw, [1.0], settings=st, **given(0.4)),
                     lambda: br.reach_general(saddle_quad, [0.0, 0.0],
                                              dynamics=br.constant(0.25), **given(1.0)),
                     lambda: br.reach_general(saddle_quad, [0.0, 0.0], dynamics=st,
                                              **given(1.0))):
            with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got "
                                                 f"{tol}$"):
                call()


@pytest.mark.parametrize("field,value", [
    ("gtol", math.nan), ("gtol", -1.0), ("max_iter", -1), ("kbar_max", -1),
    ("gtol", math.inf)])
def test_reach_budgets_reject_a_bad_gtol_or_count(field, value):
    what = "nonnegative and finite" if field == "gtol" else "a nonnegative integer"
    with pytest.raises(ValueError, match=f"^{field} must be {what}, got {value}$"):
        br.ReachBudgets(**{field: value})


def test_reach_budgets_allow_a_default_or_zero_gtol():
    assert br.ReachBudgets().gtol is None and br.ReachBudgets(gtol=0.0).gtol == 0.0


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
def test_reach_budgets_reject_a_nan_or_negative_delta_override(value):
    with pytest.raises(ValueError,
                       match=f"^delta_override must be nonnegative and finite, got {value}$"):
        br.ReachBudgets(delta_override=value)


def test_reach_budgets_allow_no_or_a_zero_delta_override(dw, monkeypatch):
    # the probe returns 0 when every radius fails, and a reach handed that
    # radius ends in no_escape as its own probe would have it, in either
    # mode: the plan has no escape radius, and nothing escapes or is scanned
    assert br.ReachBudgets().delta_override is None
    calls = collections.Counter()
    for name in ("_escape_radius", "_first_crossing_orbit", "_sphere_exit_detail"):
        def counted(*args, name=name, fn=getattr(reach_mod, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(reach_mod, name, counted)
    zero = br.ReachBudgets(delta_override=0.0)
    for rep in (br.reach_discrete(dw, [1.0], 0.4, br.constant(0.021), 1e-3, 1e-4, zero),
                br.reach_continuous(dw, [1.0], 0.4, FLOW, 1e-3, 1e-4, zero)):
        assert rep.status == "no_escape" and rep.delta_used == 0.0
        assert rep.delta_source == "override" and math.isnan(rep.escape_radius)
        assert rep.x0 is None and rep.reverse_part is None and rep.forward_part is None
    assert not calls
    # the counters see every call: a positive override escapes in both modes
    br.reach_discrete(dw, [1.0], 0.4, br.constant(0.021), 1e-3, 1e-4,
                      br.ReachBudgets(delta_override=0.1))
    br.reach_continuous(dw, [1.0], 0.4, FLOW, 1e-3, 1e-4, br.ReachBudgets(delta_override=0.1))
    assert set(calls) == {"_escape_radius", "_first_crossing_orbit", "_sphere_exit_detail"}


@pytest.mark.parametrize("dynamics", [br.constant(0.0015), FLOW], ids=["discrete", "continuous"])
def test_a_saddle_reach_refuses_a_delta_override(himmelblau, dynamics):
    # a saddle reach runs on its delta, so a minimum's override radius, even
    # 0, is refused by name rather than ignored
    saddle = himmelblau.critical_points[6].point
    for override in (0.3, 0.0):
        with pytest.raises(ValueError, match="^delta_override: a saddle reach runs on its delta"):
            br.reach_general(himmelblau, saddle, 1.0, dynamics, 1e-3, 1e-2, delta=0.1,
                             budgets=br.ReachBudgets(delta_override=override))


def test_reach_discrete_preconditions(dw):
    good = br.constant(0.5 / dw.lipschitz_L)
    with pytest.raises(ValueError):
        br.reach_discrete(dw, [0.0], 0.4, good, 1e-3, 1e-4)  # target is a max
    with pytest.raises(ValueError):
        br.reach_discrete(dw, [1.0], 0.4, br.constant(0.05), 1e-3, 1e-4)  # > 1/L
    with pytest.raises(ValueError):
        br.reach_discrete(dw, [1.0], 0.4, good, 0.3, 1e-4)  # seed not << delta
    # the certified radius is 0.1887, so a seed radius of 0.095 is too large
    with pytest.raises(ValueError, match="^seed_radius 0.095 must be at most half the certified "
                                         "stability radius 0.1887"):
        br.reach_discrete(dw, [1.0], 0.4, good, 0.095, 1e-4)
    assert br.reach_discrete(dw, [1.0], 0.4, good, 0.094, 1e-4).status == "success"


def builtin_minima():
    """(f, target, epsilon) at every cataloged minimum of the builtins."""
    for name, params, eps in (("double_well", (), 0.4), ("himmelblau", (), 1.0),
                              ("quad", (1.0,), 1.0), ("quad", (1.0, 4.0), 1.0),
                              ("quad", (1.0, 25.0), 1.0)):
        f = br.make_builtin(name, params)
        for cp in f.critical_points:
            if cp.kind == "local_min":
                yield f, cp.point, eps


def test_minimum_reaches_run_on_the_certified_radius_without_a_probe(monkeypatch):
    def probe(*args, **kwargs):
        raise AssertionError("a reach with a certified radius ran the probe")

    monkeypatch.setattr(reach_mod, "stability_probe", probe)
    for f, target, eps in builtin_minima():
        radius = reach_mod._Basin(f, target, eps, "target").certificate[1]
        for rep in (br.reach_discrete(f, target, eps, br.constant(0.5 / f.lipschitz_L), 1e-3,
                                      1e-4),
                    br.reach_continuous(f, target, eps, FLOW, 1e-3, 1e-4)):
            assert rep.status == "success" and rep.final_distance <= 1e-4
            assert rep.delta_source == "certified" and rep.delta_used == min(radius, eps)
            assert 0.0 < norm(rep.x0 - target) <= radius * (1.0 + 1e-8)


@pytest.mark.parametrize("reach,dynamics,x0", [
    (br.reach_discrete, br.constant(0.1), [0.0, 0.0, 0.512]),
    (br.reach_continuous, br.FlowSettings(h=1e-2, t_max=20.0, gtol=1e-6),
     [0.0, 0.0, 0.9999999950000011]),
], ids=["discrete", "continuous"])
def test_a_reach_without_a_certified_radius_probes_as_before(monkeypatch, reach, dynamics, x0):
    # in 3-D without M there is neither B_r nor a capture level: the reach
    # probes, and its radius is pinned to the one it had when every minimum
    # reach probed; its start to the orbit's root, or to the inner side of
    # that sphere, where the reverse flow at REVERSE_RTOL, its first trial
    # step at the cap H_STABLE / L, crosses it (re-pinned from
    # 0.9999999950000109 when the controller came to be Hairer's I
    # controller, whose reverse steps locate it elsewhere in the same band)
    f = dataclasses.replace(br.make_builtin("quad", (1.0, 2.0, 5.0)), hessian_lipschitz=None)
    basin = reach_mod._Basin(f, np.zeros(3), 1.0, "target")
    assert (basin.ball, basin.certificate) == (None, (None, None))
    calls = []
    probe = reach_mod.stability_probe
    monkeypatch.setattr(reach_mod, "stability_probe",
                        lambda *args, **kwargs: calls.append(1) or probe(*args, **kwargs))
    rep = reach(f, np.zeros(3), 1.0, dynamics, 1e-3, 1e-4)
    assert calls == [1] and rep.status == "success"
    assert rep.delta_source == "probe" and rep.delta_used == 1.0 and rep.x0.tolist() == x0


def ring():
    """f(x) = (|x|^2 - 1)^2 on [-2, 2]^2, whose minima form the unit circle:
    hess f(1, 0) = diag(8, 0) is singular, so there is no B_r, and every
    sphere around (1, 0) meets the circle, so no capture level lies above
    f* = 0.  L = 92 and M = 24 sqrt(8) bound the Hessian and its change on
    the box."""
    def val(x):
        return (x @ x - 1.0) ** 2

    def grad(x):
        return 4.0 * (x @ x - 1.0) * x

    def hess(x):
        return 4.0 * (x @ x - 1.0) * np.eye(2) + 8.0 * np.outer(x, x)

    return br.ObjectiveFunction(
        dim=2, f=val, grad=grad, lipschitz_L=92.0, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        critical_points=(br.CriticalPoint(np.array([1.0, 0.0]), "local_min", 0.0),
                         br.CriticalPoint(np.zeros(2), "local_max", 1.0)),
        hessian=hess, name="ring", hessian_lipschitz=24.0 * math.sqrt(8.0))


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_a_zero_radius_is_no_certificate(eps):
    # a capture level at or below f* certifies no radius: delta_cert is
    # None, not 0, and both reaches probe rather than end in no_escape on a
    # radius of 0 (whether they then succeed, a symmetry accident of the
    # ring, is not pinned)
    f, target, s = ring(), [1.0, 0.0], br.constant(0.5 / 92.0)
    est = br.stability_probe(f, target, eps, s)
    assert est.capture_level <= 0.0 and est.delta_cert is None
    for rep in (br.reach_discrete(f, target, eps, s, 1e-3, 1e-4),
                br.reach_continuous(f, target, eps, FLOW, 1e-3, 1e-4)):
        assert rep.delta_source == "probe" and rep.delta_used > 0.0


def hyperbola_valley(a):
    """f(a, b) = (ab - 1)^2 / 2 on [-3, 3]^2, whose minima fill the curve ab
    = 1, with (a, 1/a) cataloged as a local minimum: the Hessian there,
    [[1/a^2, 1], [1, a^2]], has the exact eigenvalues 0 and a^2 + 1/a^2.
    L = 28 bounds |hess f|_2 on the box, M = sqrt(216) the Frobenius norm
    of the third derivative."""
    val = lambda x: 0.5 * (x[0] * x[1] - 1.0) ** 2
    grad = lambda x: (x[0] * x[1] - 1.0) * np.array([x[1], x[0]])

    def hess(x):
        off = 2.0 * x[0] * x[1] - 1.0
        return np.array([[x[1] * x[1], off], [off, x[0] * x[0]]])

    return br.ObjectiveFunction(
        dim=2, f=val, grad=grad, lipschitz_L=28.0, box=np.array([[-3.0, 3.0], [-3.0, 3.0]]),
        critical_points=(br.CriticalPoint(np.array([a, 1.0 / a]), "local_min", 0.0),),
        hessian=hess, name="hyperbola_valley", hessian_lipschitz=math.sqrt(216.0))


@pytest.mark.parametrize("a", [2.5, 1.25])
def test_a_rounding_size_lambda_min_certifies_no_ball(a):
    # eigh returns a lambda_min of rounding size for the exact 0 here
    # (2.8e-17 at a = 2.5, 1.1e-16 at a = 1.25 on one LAPACK build), which
    # would certify a ball of radius ~1e-18 and refuse every practical seed
    # radius; below the rounding margin there is no ball, and the reach
    # probes and succeeds
    f = hyperbola_valley(a)
    target = np.array([a, 1.0 / a])
    basin = reach_mod._Basin(f, target, 0.4, "target")
    assert abs(basin.spectrum[0]) < 1e-15 and basin.ball is None
    rep = br.reach_discrete(f, target, 0.4, br.constant(0.5 / 28.0), 1e-3, 1e-4)
    assert rep.delta_source == "probe" and rep.delta_used > 0.0
    assert rep.status == "success" and rep.final_distance <= 1e-4


@pytest.mark.parametrize("k,certified", [(1.5, False), (2.5, True)])
def test_the_ball_asks_lambda_min_to_clear_twice_the_eigenvalue_error(k, certified):
    # f = lambda x^2/2 + x^3/6 + y^2/2 (M = 1, |H|_2 = 1, eigh exact on its
    # diagonal Hessian) at lambda = k eta, eta = 16 n u: the floor mu_s =
    # lambda/2 of B_r must clear eta, by which lambda_min may miss the exact one
    lam = k * 16.0 * 2 * 2.0 ** -53
    f = br.ObjectiveFunction(
        dim=2, f=lambda x: 0.5 * lam * x[0] ** 2 + x[0] ** 3 / 6.0 + 0.5 * x[1] ** 2,
        grad=lambda x: np.array([lam * x[0] + 0.5 * x[0] ** 2, x[1]]), lipschitz_L=2.0,
        box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        critical_points=(br.CriticalPoint(np.zeros(2), "local_min", 0.0),),
        hessian=lambda x: np.diag([lam + x[0], 1.0]), hessian_lipschitz=1.0)
    basin = reach_mod._Basin(f, np.zeros(2), 0.5, "target")
    assert basin.spectrum[:2] == (lam, 1.0)
    assert basin.ball == ((lam / 2.0, lam / 2.0, 1.0 + lam / 2.0) if certified else None)


HB_SADDLE = [cp.point for cp in br.make_builtin("himmelblau").critical_points
             if cp.kind == "saddle"][0]


@pytest.mark.parametrize("target,eps,exc,message", [
    (HB_SADDLE, 1.0, ValueError, "{what} must be a cataloged local minimum"),
    ([6.0, 2.0], 1.0, br.LeftBoxError, "target outside the operating box"),
    ([3.0, 2.0], math.nan, ValueError, "epsilon must be positive and finite, got nan"),
    ([3.0, 2.0], math.inf, ValueError, "epsilon must be positive and finite, got inf"),
    ([3.0, 2.0], 0.0, ValueError, "epsilon must be positive and finite, got 0.0"),
    ([3.0, 2.0], -1.0, ValueError, "epsilon must be positive and finite, got -1.0"),
    ([3.0, 2.0], 2.5, ValueError, "B_epsilon(target) must fit inside the operating box"),
], ids=["saddle", "off-box", "nan", "inf", "zero", "negative", "ball-crosses-box"])
@pytest.mark.parametrize("what", ["probe", "discrete", "continuous"])
def test_the_probe_and_the_reaches_check_a_minimum_alike(himmelblau, what, target, eps, exc,
                                                         message):
    s = br.constant(0.5 / himmelblau.lipschitz_L)
    run = {"probe": lambda: br.stability_probe(himmelblau, target, eps, s),
           "discrete": lambda: br.reach_discrete(himmelblau, target, eps, s, 1e-3, 1e-4),
           "continuous": lambda: br.reach_continuous(himmelblau, target, eps, FLOW, 1e-3, 1e-4)}
    message = message.format(what="probe target" if what == "probe" else "target")
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        run[what]()


@pytest.mark.parametrize("reach,dynamics", [
    (br.reach_discrete, br.constant(0.021)), (br.reach_continuous, FLOW)])
def test_minimum_reach_needs_its_epsilon_ball_in_the_box(dw, reach, dynamics):
    # [0, 2] leaves the box [-1.5, 1.5], also when the radius is given
    for budgets in (None, br.ReachBudgets(delta_override=0.3)):
        with pytest.raises(ValueError, match=r"^B_epsilon\(target\) must fit inside the "
                                             r"operating"):
            reach(dw, [1.0], 1.0, dynamics, 1e-3, 1e-4, budgets)


def test_the_epsilon_ball_fits_the_box_every_run_tests(himmelblau):
    # B_epsilon is tested against the padded box of every run's box test
    # (pad 6e-12 on himmelblau's [-5, 5]^2): target + epsilon = (5 + 3e-12, 4
    # + 3e-12) fits, (5 + 8e-12, 4 + 8e-12) does not
    target = np.array([3.0, 2.0])
    assert reach_mod._Basin(himmelblau, target, 2.0 + 3e-12, "target").epsilon == 2.0 + 3e-12
    with pytest.raises(ValueError, match=r"^B_epsilon\(target\) must fit inside the operating "
                                         r"box$"):
        reach_mod._Basin(himmelblau, target, 2.0 + 8e-12, "target")


def test_a_discrete_root_past_the_cap_is_refused(dw):
    # x0 lies in B_delta exactly: a root past the cap by 5e-10 of it, which a
    # relative allowance of 1e-9 would take, is refused
    s, target = br.constant(0.5 / dw.lipschitz_L), np.array([1.0])
    a, rho = target + 1e-3, 0.1
    x0 = reach_mod._first_crossing_orbit(dw, a, s, rho, 0.2, target, 2 ** 16)[0]
    cap = norm(x0 - target)
    assert rho < cap * (1.0 - 5e-10) < cap < 0.2
    assert np.array_equal(reach_mod._first_crossing_orbit(dw, a, s, rho, cap, target,
                                                          2 ** 16)[0], x0)
    assert reach_mod._first_crossing_orbit(dw, a, s, rho, cap * (1.0 - 5e-10), target,
                                           2 ** 16) is None


def flat_valley():
    """f(x) = max(x^2 - 1, 0)^2: C^1,1 with a non-strict minimum plateau."""
    def val(x):
        t = max(x[0] * x[0] - 1.0, 0.0)
        return t * t

    def grad(x):
        t = x[0] * x[0] - 1.0
        return np.array([4.0 * x[0] * t if t > 0.0 else 0.0])

    return br.ObjectiveFunction(
        dim=1, f=val, grad=grad, lipschitz_L=44.0, box=np.array([[-2.0, 2.0]]),
        critical_points=(br.CriticalPoint(np.array([0.0]), "local_min", 0.0),),
        name="flat_valley")


def test_reach_discrete_no_ascent_direction():
    # every probe direction sits on the flat plateau: no strict ascent seed
    f = flat_valley()
    s = br.constant(0.5 / f.lipschitz_L)
    rep = br.reach_discrete(f, [0.0], 0.5, s, 1e-3, 1e-4)
    assert rep.status == "no_escape"
    assert rep.x0 is None and rep.ascent_seed is None


def test_reach_discrete_horizon_budget(dw):
    s = br.constant(0.5 / dw.lipschitz_L)
    budgets = br.ReachBudgets(kbar_max=4)
    rep = br.reach_discrete(dw, [1.0], 0.4, s, 1e-3, 1e-4, budgets)
    assert rep.status == "no_escape"


def test_reach_discrete_power_horizon_budget(dw):
    s = br.power(0.5 / dw.lipschitz_L, 0.5)
    budgets = br.ReachBudgets(kbar_max=4)
    rep = br.reach_discrete(dw, [1.0], 0.4, s, 1e-3, 1e-4, budgets)
    assert rep.status == "no_escape"


def build_log(monkeypatch):
    """The reverse orbits _first_crossing_orbit builds, in order."""
    builds = []
    build = reach_mod.reverse_orbit

    def logged(*args, **kwargs):
        builds.append(build(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(reach_mod, "reverse_orbit", logged)
    return builds


def horizon(orbit):
    return orbit.start_index + len(orbit.points) - 1


@pytest.mark.parametrize("frac", [0.5, 0.7, 0.9])
def test_power_horizon_on_a_quadratic_axis_takes_two_builds(monkeypatch, frac):
    # along an eigenvector the secant through the origin is exact to first
    # order: the certified first horizon, then the secant's, which lands
    f = br.make_builtin("quad", (1.0, 10.0))
    s = br.power(frac / f.lipschitz_L, 0.5)
    rho = reach_mod._escape_radius(f, 1.0, s.sup_alpha)
    builds = build_log(monkeypatch)
    for sign, seed_radius in itertools.product((1.0, -1.0), (5e-4, 2e-3)):
        builds.clear()
        a = np.array([sign * seed_radius, 0.0])
        x0, orbit = reach_mod._first_crossing_orbit(f, a, s, rho, 1.0, np.zeros(2), 1 << 16)
        assert len(builds) == 2 and builds[-1] is orbit
        assert horizon(builds[0]) < horizon(orbit)
        assert rho < np.linalg.norm(x0) <= 1.0


def test_power_horizon_search_stops_at_kbar_max(monkeypatch):
    # the secant asks for about 4,900 steps, past kbar_max: the search
    # doubles the step sum instead, up to kbar_max, and gives up there
    f = br.make_builtin("quad", (1.0, 10.0))
    s = br.power(0.5 / f.lipschitz_L, 0.5)
    rho = reach_mod._escape_radius(f, 1.0, s.sup_alpha)
    builds = build_log(monkeypatch)
    assert reach_mod._first_crossing_orbit(f, np.array([5e-4, 0.0]), s, rho, 1.0,
                                           np.zeros(2), 1000) is None
    ks = [horizon(o) for o in builds]
    assert ks == sorted(ks) and ks[-1] == 1000 and len(ks) <= 5
    assert all(o.status == "complete" and np.linalg.norm(o.points[0]) <= rho for o in builds)


# the benchmark's minima_power targets: (builtin, params, local minimum index, epsilon)
MINIMA_POWER = [("double_well", (), 0, 0.4), ("double_well", (), 1, 0.4),
                *[("himmelblau", (), i, 1.0) for i in range(4)],
                ("quad", (1.0, 4.0), 0, 1.0), ("quad", (1.0, 10.0), 0, 1.0)]


@pytest.mark.parametrize("name,params,index,eps", MINIMA_POWER)
def test_power_horizon_search_builds_at_most_three_orbits(monkeypatch, name, params, index, eps):
    f = br.make_builtin(name, params)
    target = [cp.point for cp in f.critical_points if cp.kind == "local_min"][index]
    delta = br.stability_probe(f, target, eps, br.constant(0.9 / f.lipschitz_L)).delta_hat
    builds = build_log(monkeypatch)
    for frac, seed_radius in itertools.product((0.5, 0.9), (5e-4, 2e-3)):
        builds.clear()
        rep = br.reach_discrete(f, target, eps, br.power(frac / f.lipschitz_L, 0.5),
                                seed_radius, 1e-4, br.ReachBudgets(delta_override=delta))
        assert rep.status == "success" and 1 <= len(builds) <= 3
        assert builds[-1] is rep.reverse_part
        assert rep.escape_radius < np.linalg.norm(rep.x0 - target) <= delta


def test_power_horizon_secant_through_two_builds_follows_a_curving_orbit(monkeypatch):
    # the orbit from (0, 1) curves onto the fast eigenvector: the secant
    # through the origin overshoots out of the box, and the one through the
    # short first orbit and the box exit's last point in the box lands;
    # secants through the origin alone take 7 builds here
    f = br.make_builtin("himmelblau")
    target = f.critical_points[3].point
    s = br.power(0.5 / f.lipschitz_L, 0.5)
    builds = build_log(monkeypatch)
    x0, orbit = reach_mod._first_crossing_orbit(f, target + [0.0, 2e-3], s, 1 / 3, 1.0,
                                                target, 1 << 16)
    assert len(builds) <= 3 and builds[-1] is orbit and orbit.status == "complete"
    assert 1 / 3 < np.linalg.norm(x0 - target) <= 1.0


def test_power_horizon_past_the_box_searches_down(monkeypatch):
    # the secant aims at sqrt(5 * 100), outside the [-10, 10] box: that
    # build leaves the box, and the search turns down to a root in (5, 100]
    f = br.make_builtin("quad", (1.0,))
    builds = build_log(monkeypatch)
    x0, orbit = reach_mod._first_crossing_orbit(f, np.array([1e-3]), br.power(0.5, 0.5), 5.0,
                                                100.0, np.zeros(1), 1 << 16)
    assert 5.0 < abs(x0[0]) <= 100.0 and builds[-1] is orbit
    exits = [i for i, o in enumerate(builds) if o.status == "left_box"]
    assert exits and all(horizon(o) < horizon(builds[exits[0]]) for o in builds[exits[0] + 1:])
    # with the whole annulus outside the box, the search fails, and stops
    builds.clear()
    assert reach_mod._first_crossing_orbit(f, np.array([1e-3]), br.power(0.9, 0.5), 12.0,
                                           20.0, np.zeros(1), 1 << 16) is None
    assert any(o.status == "left_box" for o in builds) and len(builds) < 10


def test_reach_discrete_no_converge_reported(dw):
    # an unreachable tolerance: the limit and its distance are still
    # reported; without M there is no certified ball, so the replay runs to
    # gtol and its limit is that state, not the target
    f = dataclasses.replace(dw, hessian_lipschitz=None)
    s = br.constant(0.5 / f.lipschitz_L)
    budgets = br.ReachBudgets(gtol=1e-6)
    rep = br.reach_discrete(f, [1.0], 0.4, s, 1e-3, 1e-12, budgets)
    assert rep.status == "no_converge"
    assert rep.forward_part.terminal_status == "converged"
    assert 1e-12 < rep.final_distance < 1e-5


def test_reach_discrete_power_schedule(dw):
    s = br.power(0.5 / dw.lipschitz_L, 0.5)
    rep = br.reach_discrete(dw, [1.0], 0.4, s, 1e-3, 1e-4)
    assert rep.status == "success" and rep.final_distance <= 1e-4
    # index alignment: replay the whole orbit under the full schedule
    orbit = rep.reverse_part
    x = orbit.points[0].copy()
    for i in range(len(orbit.points) - 1):
        x = x - s.alpha(i) * dw.gradient(x)
        assert np.linalg.norm(x - orbit.points[i + 1]) <= 1e-8


# --- the certified ball -----------------------------------------------------------

# every builtin minimum: (builtin, params, local minimum index, epsilon)
BUILTIN_MINIMA = [("quad", (1.0, 4.0), 0, 1.0), ("quad", (1.0, 25.0), 0, 1.0),
                  ("double_well", (), 0, 0.4), ("double_well", (), 1, 0.4),
                  *[("himmelblau", (), i, 1.0) for i in range(4)]]


@dataclasses.dataclass(frozen=True)
class Shifted:
    """The schedule s from step m on: alpha_k = s.alpha(m + k)."""

    s: object
    m: int

    @property
    def sup_alpha(self):
        return self.s.sup_alpha

    def alpha(self, k):
        return self.s.alpha(self.m + k)


def ball_radius(f, target, eps):
    """(s, mu_s) of B_r recomputed from the module docstring's formula."""
    lam = float(np.linalg.eigvalsh(f.hess(target))[0])
    M = f.hessian_lipschitz
    s = min(eps, lam / (2.0 * M) if M > 0.0 else math.inf)
    return s, lam - M * s


def reverse_leg_replay(rep):
    """(states, runner) of a flow reach's reverse leg repeated from its own
    record: the runner built from the provenance's f, direction, settings
    and rtol, marched from the ascent seed to the state its step across
    the sphere reached.  The states are march's (t, x, |grad f|); runner.h
    is the step its controller proposed after that step."""
    p, n, calls = rep.reverse_part.provenance, len(rep.reverse_part), itertools.count()
    runner = _Flow(p["f"], p["direction"], p["settings"], p["rtol"])
    stop = lambda prev, t, x, fx: ("converged", None, t, x, None) if next(calls) == n - 1 else None
    return runner.march(rep.ascent_seed, event=stop)[0], runner


def forward_opening(rep):
    """The step a flow reach's reverse controller proposed after crossing
    the sphere, rescaled from that leg's tolerance to RTOL: an order-8
    pair's step for a tolerance scales as its 8th root."""
    runner = reverse_leg_replay(rep)[1]
    return runner.h * (RTOL / runner.rtol) ** (1.0 / 8.0)


@pytest.mark.parametrize("kind", ["constant", "power"])
@pytest.mark.parametrize("name,params,index,eps", BUILTIN_MINIMA)
def test_replay_stops_in_the_certified_ball(name, params, index, eps, kind):
    f = br.make_builtin(name, params)
    target = [cp.point for cp in f.critical_points if cp.kind == "local_min"][index]
    c = 0.5 / f.lipschitz_L
    s = br.constant(c) if kind == "constant" else br.power(c, 0.5)
    tol = 1e-4
    rep = br.reach_discrete(f, target, eps, s, 1e-3, tol)
    stopped = rep.forward_part
    cert = stopped.provenance["certificate"]
    assert rep.status == "success" and stopped.provenance["stopped_on"] == "certified_ball"
    assert cert["name"] == "certified_ball"
    assert (cert["s"], cert["mu_s"]) == ball_radius(f, target, eps)
    assert (stopped.provenance["s"], stopped.provenance["mu_s"]) == (cert["s"], cert["mu_s"])
    ball, mu = cert["s"], cert["mu_s"]
    assert ball > tol and mu >= 0.5 * float(np.linalg.eigvalsh(f.hess(target))[0]) > 0.0
    r = row_norms(stopped.X - target)
    assert (r[:-1] > ball).all() and r[-1] <= ball
    # the limit is the target by the contraction proof: the report's
    # distance is 0, the certificate's the stopping state's
    assert stopped.limit.tobytes() == target.tobytes()
    assert rep.final_distance == 0.0 and cert["distance_bound"] == r[-1]

    # the run without the stop, as before it (up to m + 100 steps): the
    # stopped rows are its prefix
    s_used, gtol = stopped.provenance["schedule"], stopped.provenance["gtol"]
    m = len(stopped) - 1
    full = br.run_gd(f, rep.x0, s_used, gtol=gtol, max_iter=m + 100)
    assert len(full) > m + 1
    for col in ("t", "X", "f", "gnorm"):
        assert getattr(full, col)[:m + 1].tobytes() == getattr(stopped, col).tobytes()

    # continued to gtol under the shifted schedule, the same iterates: it
    # stays in B_s and contracts by (1 - alpha_k mu_s) per step, as the
    # certificate claims of exact steps; a stored iterate is rounded to
    # within half a spacing per coordinate, which the bound's own margin
    # alpha_k M s r_k does not cover once r_k is near 1e-9
    rest = br.run_gd(f, stopped.final_x, Shifted(s_used, m), gtol=gtol, max_iter=200_000)
    assert rest.terminal_status == "converged"
    assert rest.X[:len(full) - m].tobytes() == full.X[m:].tobytes()
    r = row_norms(rest.X - target)
    a = np.array([s_used.alpha(m + k) for k in range(len(rest) - 1)])
    rounding = math.sqrt(f.dim) * np.spacing(np.abs(rest.X[1:])).max(axis=1)
    assert (r <= ball).all()
    assert (r[1:] <= (1.0 - a * mu) * r[:-1] * (1.0 + 1e-12) + rounding).all()
    # the length bound: the measured prefix plus a tail (L_s / mu_s) r_m at
    # least as long as the continued run's, L_s = min(L, lambda_max + M s)
    # the top of the Hessian spectrum on B_s: L itself on quad, 1.9x below
    # it on double_well and 1.9-3.5x on himmelblau
    prefix = br.path_length(stopped) if m else 0.0
    lam_max = float(np.linalg.eigvalsh(f.hess(target))[-1])
    L_s = min(f.lipschitz_L, lam_max + f.hessian_lipschitz * ball)
    assert (L_s == f.lipschitz_L) == (name == "quad")
    assert cert["length_bound"] == prefix + L_s / mu * r[0]
    assert br.path_length(rest) <= L_s / mu * r[0]
    assert prefix + br.path_length(rest) <= cert["length_bound"]


@pytest.mark.parametrize("name,params,target,eps,h", [
    ("double_well", (), [-1.0], 0.4, 1e-3),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0, 1e-2),
    ("himmelblau", (), [3.0, 2.0], 1.0, 3e-4),
], ids=["double_well", "quad", "himmelblau"])
def test_forward_flow_stops_in_the_certified_ball(name, params, target, eps, h):
    # the stopped flow is a prefix of the flow to gtol opened at the same
    # first trial step, whose later states stay in B_r and draw nearer the
    # target; flows carry no length bound
    f = br.make_builtin(name, params)
    st = br.FlowSettings(h=h, t_max=20.0, gtol=1e-6)
    rep = br.reach_continuous(f, target, eps, st, 1e-3, 1e-4)
    stopped = rep.forward_part
    cert = stopped.provenance["certificate"]
    assert rep.status == "success" and stopped.provenance["stopped_on"] == "certified_ball"
    assert cert["length_bound"] is None and cert["s"] == ball_radius(f, target, eps)[0]
    assert stopped.limit.tolist() == target and rep.final_distance == 0.0
    r = row_norms(stopped.X - np.array(target))
    assert (r[:-1] > cert["s"]).all() and cert["distance_bound"] == r[-1] <= cert["s"]
    opening = forward_opening(rep)
    assert rep.reverse_part.provenance["h_forward"] == opening
    full = br.integrate(f, rep.x0, "forward", dataclasses.replace(st, h=opening))
    m = len(stopped) - 1
    assert full.X[:m + 1].tobytes() == stopped.X.tobytes()
    r = row_norms(full.X[m:] - np.array(target))
    assert (r <= cert["s"]).all() and (np.diff(r) <= 0.0).all()


def test_objective_without_hessian_lipschitz_replays_to_gtol(himmelblau):
    # a user objective without M: the replay runs to gtol, bit for bit the
    # plain run_gd from x0, and the distance is landscape.norm's, as with M
    f = dataclasses.replace(himmelblau, name="user")
    assert f.hessian_lipschitz is not None
    f = dataclasses.replace(f, hessian_lipschitz=None)
    target = np.array([3.0, 2.0])
    s = br.constant(0.5 / f.lipschitz_L)
    rep = br.reach_discrete(f, target, 1.0, s, 1e-3, 1e-4)
    fwd = rep.forward_part
    assert rep.status == "success" and "stopped_on" not in fwd.provenance
    full = br.run_gd(f, rep.x0, s, gtol=1e-8, max_iter=200_000)
    assert fwd.X.tobytes() == full.X.tobytes() and fwd.gnorm[-1] < 1e-8 <= fwd.gnorm[-2]
    assert rep.final_distance == norm(fwd.limit - target)
    assert "certificate" not in reach_report_json(rep)


def test_flow_objective_without_hessian_lipschitz_runs_to_gtol(himmelblau):
    # the continuous counterpart: with no M there is no B_r, so the forward
    # flow runs to gtol from the opening step of a minimum reach's forward
    # leg, bit for bit integrate from x0 at that first trial step
    f = dataclasses.replace(himmelblau, name="user", hessian_lipschitz=None)
    target = np.array([3.0, 2.0])
    st = br.FlowSettings(h=3e-4, t_max=20.0, gtol=1e-6)
    rep = br.reach_continuous(f, target, 1.0, st, 1e-3, 1e-4)
    fwd = rep.forward_part
    assert rep.status == "success" and "stopped_on" not in fwd.provenance
    opening = forward_opening(rep)
    assert rep.reverse_part.provenance["h_forward"] == opening != st.h
    full = br.integrate(f, rep.x0, "forward", dataclasses.replace(st, h=opening))
    assert fwd.X.tobytes() == full.X.tobytes() and fwd.t.tobytes() == full.t.tobytes()
    assert fwd.terminal_status == "converged" and fwd.gnorm[-1] < 1e-6 <= fwd.gnorm[-2]
    assert rep.final_distance == norm(fwd.limit - target)
    assert "certificate" not in reach_report_json(rep)


def test_distance_bound_is_the_stop_event_s_norm(himmelblau):
    # the stop event and the certificate measure |x - target| by the same
    # landscape.norm, so the state the event accepts is certified within s,
    # never one rounding bit past it (np.linalg.norm can differ there); the
    # report's distance is from the limit, the target itself
    lane = himmelblau._lane
    for i, seed_radius in itertools.product(range(4), (5e-4, 1e-3, 2e-3)):
        target = [cp.point for cp in himmelblau.critical_points if cp.kind == "local_min"][i]
        rep = br.reach_discrete(himmelblau, target, 1.0, br.constant(0.5 / himmelblau.lipschitz_L),
                                seed_radius, 1e-4)
        x = rep.forward_part.final_x
        d = norm(lane.sub(lane.point(x), lane.point(target)))
        cert = rep.forward_part.provenance["certificate"]
        assert rep.status == "success" and rep.final_distance == 0.0
        assert cert["distance_bound"] == d <= cert["s"]


@pytest.mark.parametrize("name,params,target,eps,dynamics,n", [
    ("double_well", (), [1.0], 0.4, br.constant(0.002), 24),
    ("double_well", (), [-1.0], 0.4, br.power(0.004, 0.5), None),
    ("himmelblau", (), [3.0, 2.0], 1.0, br.power(0.5 / br.make_builtin("himmelblau").lipschitz_L,
                                                 0.5), 2),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0, br.power(0.1, 0.5), 1),
    ("quad", (1.0, 25.0), [0.0, 0.0], 1.0, br.constant(0.02), 1),
    ("double_well", (), [-1.0], 0.4, br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6), None),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0, br.FlowSettings(h=1e-2, t_max=20.0, gtol=1e-6), 1),
    ("himmelblau", (), [3.0, 2.0], 1.0, br.FlowSettings(h=3e-4, t_max=20.0, gtol=1e-6), None),
], ids=["dw-constant", "dw-power", "himmelblau-power", "quad-power", "quad-constant",
        "dw-flow", "quad-flow", "himmelblau-flow"])
def test_the_stop_comes_as_early_as_the_proof_allows(name, params, target, eps, dynamics, n):
    # every state before the stop lies outside r, the last within it, and
    # the limit is the target.  A quad reach (M = 0, so r = eps >= delta)
    # stops on x0: a replay's x0 lies within delta, and a flow's is located
    # on the inner side of the delta-sphere
    f = br.make_builtin(name, params)
    target = np.array(target)
    r = ball_radius(f, target, eps)[0]
    reach = br.reach_continuous if isinstance(dynamics, br.FlowSettings) else br.reach_discrete
    for seed_radius in (5e-4, 1e-3, 2e-3):
        rep = reach(f, target, eps, dynamics, seed_radius, 1e-4)
        fwd = rep.forward_part
        d = row_norms(fwd.X - target)
        assert (d[:-1] > r).all() and d[-1] <= r and len(fwd) == (n or len(fwd))
        assert rep.final_distance == 0.0 and fwd.limit.tobytes() == target.tobytes()


# the replay of the reach below, from the x0 of its orbit whose solves stop
# on their first y with |T(y) - y| <= 0.999e-10 (1 + min(|x_{k+1}|, |y|)),
# each solve after the second started from the last one's rescaled miss (at
# 1e-11 (1 + |x_{k+1}|) the same 157 rows, distance 3.417091303205506e-10),
# re-recorded when the mix after a solve's second tested iterate came to fit
# its own secant alone: the same 157 rows, distance 3.43594837253419e-10 before
NO_M_ROWS, NO_M_DISTANCE = 157, 3.4142134928677976e-10
NO_M_DIGEST = "7aaf824e7e13c228729e4874b5e23dd28b9f4633d356783bb7490921f7540a6a"


def test_an_objective_without_m_reaches_as_before(himmelblau):
    # no certified ball, so the replay stops by tol and gtol as it did
    # before the ball stop came: the same 157 rows, its columns and limit
    # pinned bit for bit (sha256) from the x0 of its orbit
    f = dataclasses.replace(himmelblau, hessian_lipschitz=None)
    rep = br.reach_discrete(f, [3.0, 2.0], 1.0, br.constant(0.5 / f.lipschitz_L), 1e-3, 1e-4)
    fwd = rep.forward_part
    columns = b"".join(getattr(fwd, c).tobytes() for c in ("t", "X", "f", "gnorm"))
    digest = hashlib.sha256(columns + fwd.limit.tobytes()).hexdigest()
    assert (len(fwd), rep.final_distance) == (NO_M_ROWS, NO_M_DISTANCE)
    assert digest == NO_M_DIGEST


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_hessian_lipschitz_must_be_finite_and_nonnegative(himmelblau, bad):
    with pytest.raises(ValueError, match="hessian_lipschitz"):
        dataclasses.replace(himmelblau, hessian_lipschitz=bad)


# --- continuous reachability ----------------------------------------------------

def test_reach_continuous_quad_exact(quad1):
    rep = br.reach_continuous(quad1, [0.0], 1.0, FLOW, 1e-3, 1e-6)
    assert rep.status == "success"
    assert abs(abs(rep.x0[0]) - 1.0) <= 1e-8  # b = +-delta with delta = epsilon
    assert rep.final_distance <= 1e-6


@pytest.mark.parametrize("name,params,target,eps,dynamics", [
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0, br.constant(0.125)),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0, br.FlowSettings(h=1e-2, t_max=20.0, gtol=1e-6)),
    ("double_well", (), [1.0], 0.4, br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)),
], ids=["quad-discrete", "quad-continuous", "double-well-continuous"])
def test_minimum_reach_takes_the_hessian_once(name, params, target, eps, dynamics):
    # the reach's certified ball, its certified radius and its seed share
    # one eigh of hess f(target); so do the probe's B_r and radius, and a
    # probe without M, which has no B_r, takes none
    f = br.make_builtin(name, params)
    calls = []
    f = dataclasses.replace(f, hessian=lambda x, hess=f.hessian: calls.append(1) or hess(x))
    reach = br.reach_continuous if isinstance(dynamics, br.FlowSettings) else br.reach_discrete
    rep = reach(f, target, eps, dynamics, 1e-3, 1e-4)
    assert rep.status == "success" and "certificate" in rep.forward_part.provenance
    assert len(calls) == 1
    calls.clear()
    assert br.stability_probe(f, target, eps, dynamics).delta_cert == rep.delta_used
    assert len(calls) == 1
    calls.clear()
    br.stability_probe(dataclasses.replace(f, hessian_lipschitz=None), target, eps, dynamics)
    assert calls == []


@pytest.mark.parametrize("reach,dynamics", [
    (br.reach_discrete, br.constant(0.5 / br.make_builtin("himmelblau").lipschitz_L)),
    (br.reach_continuous, br.FlowSettings(h=3e-4, t_max=20.0, gtol=1e-6))],
    ids=["discrete", "continuous"])
def test_a_given_radius_takes_no_capture_level(monkeypatch, himmelblau, reach, dynamics):
    # the capture grid is evaluated only for delta_cert, which a reach on
    # delta_override never reads (himmelblau's B_r is smaller than eps, so
    # delta_cert would take the grid)
    def grid(*args):
        raise AssertionError("a reach on a given radius took the capture level")

    monkeypatch.setattr(reach_mod, "_capture_level", grid)
    rep = reach(himmelblau, [3.0, 2.0], 1.0, dynamics, 1e-3, 1e-4,
                br.ReachBudgets(delta_override=0.2))
    assert rep.status == "success" and (rep.delta_source, rep.delta_used) == ("override", 0.2)


def test_reach_continuous_double_well(dw):
    st = br.FlowSettings(h=1e-3, t_max=50.0, gtol=1e-4)
    rep = br.reach_continuous(dw, [-1.0], 0.4, st, 1e-3, 1e-3)
    assert rep.status == "success" and rep.final_distance <= 1e-3


# the objectives of the benchmark's flow_minima workload at its step h:
# attempted DOP853 steps of the reach's forward flow from x0 and of the
# reverse flow to the sphere (a minimum reach's, at REVERSE_RTOL), at most
# 12 gradient points each, stay below these ceilings, with at most
# max_rejected rejected in either run.  The reverse flow's first trial step
# is the cap H_STABLE / L, and where that step passes it is the first
# accepted one (on quad the cap 1.5 is rejected twice before 0.82 passes).
# reverse_max is the 3 / 5 / 4 steps taken from the cap at REVERSE_RTOL =
# 1e-4 plus one step of slack, below the 6 / 8 / 6 taken from the first
# trial step min(h, cap).  forward_max is the 3 / 0 / 3 steps the forward
# flow takes from its opening step plus one, below the 5 / 0 / 5 taken
# from min(h, cap); quad's certified ball holds x0, so it takes none
@pytest.mark.parametrize("name,params,target,eps,h,forward_max,reverse_max,max_rejected", [
    ("double_well", (), [-1.0], 0.4, 1e-3, 4, 4, 2),
    ("quad", (1.0, 4.0), [0.0, 0.0], 1.0, 1e-2, 1, 6, 2),
    ("himmelblau", (), [3.0, 2.0], 1.0, 3e-4, 4, 5, 6),
], ids=["double_well", "quad", "himmelblau"])
def test_flow_minima_step_ceilings(monkeypatch, name, params, target, eps, h, forward_max,
                                   reverse_max, max_rejected):
    f = br.make_builtin(name, params)
    st = br.FlowSettings(h=h, t_max=20.0, gtol=1e-6)
    calls = count_flow_steps(monkeypatch)
    rep = br.reach_continuous(f, target, eps, st, 1e-3, 1e-4)
    assert rep.status == "success"
    fwd = rep.forward_part
    ahead = sum(args[2] < 0.0 for args, _ in calls)  # the forward leg's steps, down f
    assert len(fwd) - 1 <= ahead <= min(forward_max, len(fwd) - 1 + max_rejected)
    calls.clear()
    _, x0, rev = _sphere_exit_detail(f, rep.ascent_seed, "reverse", rep.target,
                                     rep.delta_used, st, minimum=True)
    assert x0.tobytes() == rep.x0.tobytes()
    assert len(rev) - 1 <= len(calls) <= min(reverse_max, len(rev) - 1 + max_rejected)
    cap = H_STABLE / f.lipschitz_L
    assert calls[0][0][2] == cap and (rev.t[1] == cap) == (name != "quad")


@pytest.mark.parametrize("name,i,eps,h", [
    ("double_well", 0, 0.4, 1e-3), ("double_well", 1, 0.4, 1e-2),
    ("himmelblau", 0, 1.0, 3e-4), ("himmelblau", 1, 1.0, 1e-3),
], ids=["dw-0", "dw-1", "himmelblau-0", "himmelblau-1"])
def test_the_forward_leg_opens_where_the_reverse_leg_left_off(monkeypatch, name, i, eps, h):
    # the first forward step's length is the step the reverse leg's
    # controller proposed after its last step, scaled from REVERSE_RTOL to
    # RTOL, within the cap: below it, as the proposal is at most the cap
    f = br.make_builtin(name)
    target = [cp.point for cp in f.critical_points if cp.kind == "local_min"][i]
    calls = count_flow_steps(monkeypatch)
    rep = br.reach_continuous(f, target, eps, br.FlowSettings(h=h, t_max=20.0, gtol=1e-6),
                              1e-3, 1e-4)
    assert rep.status == "success"
    ahead = [args[2] for args, _ in calls if args[2] < 0.0]
    cap, h_forward = H_STABLE / f.lipschitz_L, rep.reverse_part.provenance["h_forward"]
    assert 0.0 < h_forward <= cap * (RTOL / REVERSE_RTOL) ** (1.0 / 8.0)
    assert h_forward == forward_opening(rep)
    assert -ahead[0] == min(cap, h_forward) < cap
    assert -ahead[0] != h


def test_a_minimum_flow_reach_takes_the_gradient_at_x0_once():
    # the reverse leg takes grad f at the crossing it locates, x0, and the
    # forward flow's first state reads that gradient: at every builtin
    # minimum x0 is evaluated once, and the forward part is the start of a
    # fresh forward flow from x0, opened at the same step, bit for bit
    for f, target, eps in builtin_minima():
        points = []

        def grad(x, f=f):
            points.append(np.array(x, dtype=float).tobytes())
            return f.grad(x)

        spy = dataclasses.replace(f, grad=grad)
        st = br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)
        rep = br.reach_continuous(spy, target, eps, st, 1e-3, 1e-4)
        assert rep.status == "success"
        assert points.count(rep.x0.tobytes()) == 1, (f.name, target)
        opening = rep.reverse_part.provenance["h_forward"]
        assert opening == forward_opening(rep)
        full = br.integrate(f, rep.x0, "forward", dataclasses.replace(st, h=opening))
        n = len(rep.forward_part)
        for c in ("t", "X", "gnorm"):
            assert getattr(full, c)[:n].tobytes() == getattr(rep.forward_part, c).tobytes()


def test_no_reach_takes_a_gradient_twice(himmelblau):
    # each forward leg starts from the gradient its reverse leg took at x0
    # (the orbit's at its root, or the reverse flow's at its located
    # crossing), and each rebuild of a power schedule's orbit from the one
    # its last build took at the anchor: over every builtin minimum under a
    # constant and a power schedule and flow, and every himmelblau saddle in
    # both modes, no point's gradient is taken twice, a batch's rows counted
    # one by one
    def spy(f):
        seen = collections.Counter()

        def grad(x):
            seen.update(row.tobytes() for row in np.array(x, dtype=float).reshape(-1, f.dim))
            return f.grad(x)
        return dataclasses.replace(f, grad=grad), seen

    flow = br.FlowSettings(h=1e-3, t_max=20.0, gtol=1e-6)
    runs = [(reach, f, target, eps, dynamics, 1e-4, None)
            for f, target, eps in builtin_minima()
            for reach, dynamics in ((br.reach_discrete, br.constant(0.5 / f.lipschitz_L)),
                                    (br.reach_discrete, br.power(0.5 / f.lipschitz_L, 0.5)),
                                    (br.reach_continuous, flow))]
    runs += [(br.reach_general, himmelblau, himmelblau.critical_points[i].point, 1.0,
              dynamics, 1e-2, 0.1)
             for i in HIMMELBLAU_SADDLES
             for dynamics in (br.constant(0.0015),
                              br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6))]
    for reach, f, target, eps, dynamics, tol, delta in runs:
        g, seen = spy(f)
        extra = {} if delta is None else {"delta": delta}
        rep = reach(g, target, eps, dynamics, 1e-3, tol=tol, **extra)
        assert rep.status == "success", (f.name, target, dynamics)
        twice = [np.frombuffer(point).tolist() for point, n in seen.items() if n > 1]
        assert twice == [], (f.name, target, dynamics)


def test_a_saddle_reach_keeps_the_full_reverse_accuracy(monkeypatch, himmelblau):
    # the forward Clarke flow retraces the reverse flow near the saddle, so
    # a saddle's reverse flow runs at RTOL: its x0 and reverse part are the
    # direct sphere exit's given the saddle's spectral radius, bit for bit,
    # and a minimum reach's exit is not
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    target = himmelblau.critical_points[8].point
    rep = br.reach_general(himmelblau, target, 1.0, st, 1e-3, tol=1e-2, delta=0.1)
    assert rep.status == "success"
    leg = lambda **kw: _sphere_exit_detail(himmelblau, rep.ascent_seed, "reverse", target,
                                           0.1, st, **kw)
    calls = count_flow_steps(monkeypatch)
    _, x0, rev = leg(spectral_radius=spectral_radius(himmelblau, target))
    assert x0.tobytes() == rep.x0.tobytes() and rev.X.tobytes() == rep.reverse_part.X.tobytes()
    # a saddle's exit opens at h0, below the cap, not at min(h, cap)
    cap = H_STABLE / himmelblau.lipschitz_L
    assert calls[0][0][2] == saddle_opening(himmelblau, rep.ascent_seed, target) < cap
    calls.clear()
    assert leg(minimum=True)[1].tobytes() != x0.tobytes()
    assert calls[0][0][2] == cap  # a minimum's exit opens at the cap


def reach_bytes(rep):
    """Every output of a flow reach as bytes: its report's JSON (x0 and the
    certificate among it) and the t, X and gnorm columns of both legs."""
    legs = (rep.reverse_part, rep.forward_part)
    return (json.dumps(reach_report_json(rep), sort_keys=True),
            *(getattr(leg, c).tobytes() for leg in legs for c in ("t", "X", "gnorm")))


def flow_reach_outputs(reach, hs, t_max):
    """The set of the ``reach_bytes`` that ``reach`` of FlowSettings writes
    at each h in hs: one element iff h does not enter them."""
    outputs = set()
    for h in hs:
        rep = reach(br.FlowSettings(h=h, t_max=t_max, gtol=1e-6))
        assert rep.status == "success"
        outputs.add(reach_bytes(rep))
    return outputs


def test_h_does_not_enter_a_minimum_flow_reach():
    # neither leg reads h: the reverse flow to the sphere opens at the cap
    # H_STABLE / L and the forward flow from x0 where the reverse flow's
    # controller left off, so at every builtin minimum x0, the reverse
    # part, the forward part and the certificate are the same bytes at
    # three h
    objectives = list(builtin_minima())
    quad3 = br.make_builtin("quad", (1.0, 2.0, 5.0))
    objectives.append((quad3, quad3.critical_points[0].point, 1.0))
    for f, target, eps in objectives:
        reach = lambda st: br.reach_continuous(f, target, eps, st, 1e-3, 1e-4)
        assert len(flow_reach_outputs(reach, (3e-4, 1e-3, 1e-2), 20.0)) == 1, (f.name, target)


# sha256 of prox and ascent_prox over a sweep of points and steps, recorded
# when every solve came to stop on its first y with |T(y) - y| <=
# FIXED_POINT_RTOL (1 + min(|x|, |y|)), FIXED_POINT_RTOL = 0.999e-10
PROX_DIGEST = "72d4646bfc0549f9f16034778d313bfd6faf48e0fd42bb259695d684ce6ae312"


def test_prox_and_ascent_prox_sweep_is_pinned():
    rng, digest = np.random.default_rng(5), hashlib.sha256()
    for name, params in (("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ()),
                         ("quad", (1.0, 2.0, 5.0))):
        f = br.make_builtin(name, params)
        lo, hi = f.box[:, 0], f.box[:, 1]
        for _ in range(20):
            x = lo + (hi - lo) * (0.2 + 0.6 * rng.random(f.dim))
            lam = (0.05 + 0.9 * rng.random()) / f.lipschitz_L
            digest.update(br.prox(f, x, lam).tobytes())
            try:
                digest.update(br.ascent_prox(f, x, lam).tobytes())
            except br.LeftBoxError:
                digest.update(b"left")
    assert digest.hexdigest() == PROX_DIGEST


def test_every_continuous_minimum_reach_starts_inside_its_radius():
    # x0 is located on the inner side of the delta-sphere, in the band that
    # _sphere_exit_detail documents whatever tolerance the reverse flow ran
    # at: the crossing keeps |x0 - t| - delta (1 - 5e-9) >= 0 as computed,
    # so the lower side holds exactly
    for (f, target, eps), seed_radius in itertools.product(builtin_minima(),
                                                           (5e-4, 1e-3, 2e-3)):
        rep = br.reach_continuous(f, target, eps, FLOW, seed_radius, 1e-4)
        assert rep.status == "success"
        delta = rep.delta_used
        assert delta * (1.0 - 5e-9) <= norm(rep.x0 - rep.target) <= delta * (1.0 - 1e-9)


def test_every_discrete_reach_solves_its_orbit_as_reverse_orbit_does():
    # minima and saddles alike: the reach's reverse part is a direct
    # reverse_orbit of its anchor, schedule and horizon, bit for bit, and
    # every step, recomputed with numpy, passes its forward-residual
    # certificate; a minimum's x0 lies within delta_used, the orbit search's
    # cap, with no allowance, a saddle's replay crosses the level within tol
    hb = br.make_builtin("himmelblau")
    targets = [(f, target, eps, False) for f, target, eps in builtin_minima()]
    targets += [(hb, cp.point, 1.0, True) for cp in hb.critical_points if cp.kind == "saddle"]
    assert len(targets) == 9 + 4
    for (f, target, eps, saddle), kind, seed_radius in itertools.product(
            targets, ("constant", "power"), (5e-4, 1e-3, 2e-3)):
        a = 0.5 / f.lipschitz_L
        s = br.constant(a) if kind == "constant" else br.power(a, 0.5)
        rep = (br.reach_general(f, target, eps, s, seed_radius, tol=1e-2) if saddle
               else br.reach_discrete(f, target, eps, s, seed_radius, 1e-4))
        orbit = rep.reverse_part
        assert rep.status == "success" and orbit.status == "complete"
        if saddle:
            assert rep.final_distance <= 1e-2
        else:
            assert 0.0 < norm(rep.x0 - target) <= rep.delta_used
        for i, (x, xnext) in enumerate(zip(orbit.points, orbit.points[1:])):
            r = np.linalg.norm(x - s.alpha(orbit.start_index + i) * f.gradient(x) - xnext)
            bound = reverse_mod.FORWARD_RESIDUAL_RTOL * (1.0 + np.linalg.norm(x))
            assert r <= bound and orbit.forward_residuals[i] <= bound
        again = br.reverse_orbit(f, orbit.anchor, s, len(orbit.points) - 1)
        assert np.array(again.points).tobytes() == np.array(orbit.points).tobytes()
        assert again.forward_residuals == orbit.forward_residuals
        assert again.start_index == orbit.start_index == 0


def test_reach_continuous_rejects_max(dw):
    with pytest.raises(ValueError):
        br.reach_continuous(dw, [0.0], 0.4, FLOW, 1e-3, 1e-3)


# --- general (saddle) case -------------------------------------------------------

def test_reach_general_continuous_sweep(saddle_quad):
    st = br.FlowSettings(h=1e-3, t_max=50.0, gtol=1e-6)
    dists = []
    for seed_radius in (1e-1, 1e-2, 1e-3):
        rep = br.reach_general(saddle_quad, [0.0, 0.0], 1.0, st, seed_radius, tol=1e-2)
        assert rep.status in ("success", "no_converge")
        assert rep.forward_part.limit is not None
        dists.append(rep.final_distance)
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] <= 1e-2


def test_reach_general_discrete_sweep(saddle_quad):
    s = br.constant(0.25)
    dists = []
    for seed_radius in (1e-1, 1e-2, 1e-3):
        rep = br.reach_general(saddle_quad, [0.0, 0.0], 1.0, s, seed_radius, tol=1e-2)
        assert rep.forward_part.limit is not None
        # the interpolated crossing sits on the level set up to the quadratic
        # interpolation error, which scales with the squared step length
        assert abs(saddle_quad.value(rep.forward_part.limit)) <= seed_radius**2
        dists.append(rep.final_distance)
    assert dists[0] > dists[1] > dists[2]
    assert dists[-1] <= 1e-2


def test_reach_general_continuous_budget_exhausted(saddle_quad):
    # the forward flow stops on t_max before the level set: no limit, so
    # no crossing, and the distance is from its last state
    st = br.FlowSettings(h=1e-3, t_max=3.2, gtol=1e-6)
    rep = br.reach_general(saddle_quad, [0.0, 0.0], 1.0, st, 1e-3, tol=1e-2, delta=0.5)
    assert rep.forward_part.terminal_status == "budget_exhausted"
    assert rep.status == "no_converge" and rep.forward_part.limit is None
    assert rep.final_distance == norm(rep.forward_part.final_x)


HIMMELBLAU_SADDLES = (5, 6, 7, 8)


@pytest.mark.parametrize("i", HIMMELBLAU_SADDLES)
def test_reach_general_discrete_crossing_is_the_f_secant(himmelblau, i):
    # the crossing is x_prev + theta (x_k - x_prev), theta = (f_prev - c) /
    # (f_prev - f_k), on the replay's last step; f there misses c by at
    # most the step's drop in f
    target = himmelblau.critical_points[i].point
    s = br.constant(0.5 / himmelblau.lipschitz_L)
    rep = br.reach_general(himmelblau, target, 1.0, s, 1e-3, tol=1e-2)
    assert rep.status == "success"
    c, fwd = himmelblau.value(target), rep.forward_part
    (x_prev, x_k), (f_prev, f_k) = fwd.X[-2:], fwd.f[-2:].tolist()
    assert f_prev > c >= f_k
    theta = (f_prev - c) / (f_prev - f_k)
    assert fwd.limit.tobytes() == (x_prev + theta * (x_k - x_prev)).tobytes()
    assert abs(himmelblau.value(fwd.limit) - c) <= f_prev - f_k


@pytest.mark.parametrize("delta", [0.5, 0.1])
def test_reach_general_continuous_himmelblau_saddles(himmelblau, delta):
    # the forward flow stopped at the level set retraces the reverse flow
    # that built x0, so the crossing lands within about a seed radius of
    # the saddle, at every h: within one seed radius, but for saddle 6 at
    # seed radius 1e-4, near its stable manifold, where the distance is
    # integration noise: 2.73 (delta 0.5) and 1.38 (delta 0.1) seed radii,
    # as every h past the cap 6/L gave when h opened the reverse flow
    for h, i, seed_radius in itertools.product((3e-4, 1e-3, 1e-2, 5e-2), HIMMELBLAU_SADDLES,
                                               (1e-3, 1e-4)):
        st = br.FlowSettings(h=h, t_max=50.0, gtol=1e-6)
        target = himmelblau.critical_points[i].point
        rep = br.reach_general(himmelblau, target, 1.0, st, seed_radius, tol=1e-2, delta=delta)
        noise = {0.5: 2.8, 0.1: 1.4}[delta] if (i, seed_radius) == (6, 1e-4) else 1.0
        assert rep.status == "success" and rep.final_distance <= noise * seed_radius
        assert rep.forward_part.limit is not None
        assert abs(himmelblau.value(rep.forward_part.limit) - himmelblau.value(target)) <= 1e-9
        assert abs(np.linalg.norm(rep.x0 - target) - delta) <= 1e-8 * delta


@pytest.mark.parametrize("h", [3e-4, 1e-3, 1e-2, 5e-2])
def test_saddle_crossing_accuracy_does_not_follow_h(himmelblau, h):
    # the level crossing is located on the dense output to the level's own
    # tolerance, at most 1e-12 (1 + |f*|) below f* = f(target), whatever
    # the first trial step h
    st = br.FlowSettings(h=h, t_max=50.0, gtol=1e-6)
    for i, delta, seed_radius in itertools.product(HIMMELBLAU_SADDLES, (0.5, 0.1), (1e-3, 1e-4)):
        target = himmelblau.critical_points[i].point
        level = himmelblau.value(target)
        rep = br.reach_general(himmelblau, target, 1.0, st, seed_radius, tol=1e-2, delta=delta)
        assert rep.status == "success", (i, delta, seed_radius)
        gap = level - himmelblau.value(rep.forward_part.limit)
        assert 0.0 <= gap <= 1e-12 * (1.0 + abs(level)), (i, delta, seed_radius, gap)


@pytest.mark.parametrize("i", HIMMELBLAU_SADDLES)
def test_h_does_not_enter_a_saddle_flow_reach(himmelblau, i):
    # nor a saddle's: its reverse flow opens at the cap too, and its forward
    # Clarke flow where that flow's controller left off, so x0, the reverse
    # part and the forward part are the same bytes at four h, two of them
    # past the cap 6/L (about 0.018), at both escape radii
    target = himmelblau.critical_points[i].point
    for delta in (0.1, 0.5):
        reach = lambda st: br.reach_general(himmelblau, target, 1.0, st, 1e-3, tol=1e-2,
                                            delta=delta)
        assert len(flow_reach_outputs(reach, (3e-4, 1e-3, 1e-2, 5e-2), 50.0)) == 1, delta


def spectral_radius(f, target):
    """Lambda = max |eig hess f(target)|, the fastest rate of the flow's
    linearization at the target."""
    return float(np.abs(np.linalg.eigvalsh(f.hess(target))).max())


def saddle_opening(f, a, target):
    """h0 = min(H_STABLE / L, PI_SAFE ((ATOL + RTOL |a|) / (ERR_K r))^(1/8) /
    Lambda), r = |a - target|: the first trial step of a saddle reach's
    reverse leg from the ascent seed a, whose err on the saddle's
    linearization is the controller's steady state PI_SAFE^8."""
    h = PI_SAFE * ((ATOL + RTOL * norm(a)) / (ERR_K * norm(a - target))) ** 0.125
    return min(H_STABLE / f.lipschitz_L, h / spectral_radius(f, target))


@pytest.mark.parametrize("i", HIMMELBLAU_SADDLES)
def test_a_saddle_reverse_flow_accepts_its_opening(monkeypatch, himmelblau, i):
    # at h0 the first DOP853 attempt of a saddle reach's reverse leg passes,
    # at every seed radius and escape radius: the second attempt, where
    # there is one, steps from the first one's point.  The leg's record
    # carries h0 as its settings' h
    target = himmelblau.critical_points[i].point
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    calls = count_flow_steps(monkeypatch)
    for seed_radius, delta in itertools.product((5e-4, 1e-3, 2e-3), (0.1, 0.5)):
        calls.clear()
        rep = br.reach_general(himmelblau, target, 1.0, st, seed_radius, tol=1e-2, delta=delta)
        assert rep.status == "success", (seed_radius, delta)
        back = [(args, out) for args, out in calls if args[2] > 0.0]
        h0 = saddle_opening(himmelblau, rep.ascent_seed, target)
        assert back[0][0][2] == h0 == rep.reverse_part.provenance["settings"].h
        assert len(back) == 1 or np.array_equal(back[1][0][1], back[0][1][0]), (
            seed_radius, delta)


def saddle_flow_legs(monkeypatch, himmelblau, i, st):
    """(report, reverse steps, forward steps) of a continuous reach of
    himmelblau's saddle i at delta 0.1: the signed length of each attempted
    DOP853 step of either leg, up f (reverse) or down it (forward)."""
    calls = count_flow_steps(monkeypatch)
    rep = br.reach_general(himmelblau, himmelblau.critical_points[i].point, 1.0, st, 1e-3,
                           tol=1e-2, delta=0.1)
    assert rep.status == "success"
    return (rep, [args[2] for args, _ in calls if args[2] > 0.0],
            [args[2] for args, _ in calls if args[2] < 0.0])


@pytest.mark.parametrize("i", HIMMELBLAU_SADDLES)
def test_a_saddle_flow_reach_opens_its_forward_leg_where_its_reverse_leg_left_off(
        monkeypatch, himmelblau, i):
    # the reverse flow opens at h0 and both legs step at RTOL, so the
    # forward Clarke flow opens at the step the reverse flow's controller
    # proposed after the step that crossed the sphere at x0, unscaled,
    # within the cap; neither leg reads h
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    rep, back, ahead = saddle_flow_legs(monkeypatch, himmelblau, i, st)
    cap, h_forward = H_STABLE / himmelblau.lipschitz_L, rep.reverse_part.provenance["h_forward"]
    assert back[0] == saddle_opening(himmelblau, rep.ascent_seed, rep.target) <= cap
    assert 0.0 < h_forward <= cap
    assert h_forward == reverse_leg_replay(rep)[1].h  # RTOL / RTOL: exactly 1
    assert -ahead[0] == min(cap, h_forward) != st.h


@pytest.mark.parametrize("kind", ["minimum", "saddle"])
def test_a_flow_run_rebuilt_from_its_provenance_repeats_it(himmelblau, kind):
    # a reverse leg's record names the settings it ran on, their h its
    # opening (a minimum's the cap, a saddle's h0), and its rtol: a runner
    # built from them alone repeats the leg bit for bit up to the crossing,
    # and its controller's last proposal, rescaled to RTOL, is the recorded
    # forward opening
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    if kind == "minimum":
        rep = br.reach_continuous(himmelblau, [3.0, 2.0], 0.5, st, 1e-3, 1e-4)
    else:
        rep = br.reach_general(himmelblau, himmelblau.critical_points[6].point, 1.0, st, 1e-3,
                               tol=1e-2, delta=0.1)
    assert rep.status == "success"
    rev = rep.reverse_part
    p = rev.provenance
    opening = (H_STABLE / himmelblau.lipschitz_L if kind == "minimum"
               else saddle_opening(himmelblau, rep.ascent_seed, rep.target))
    assert p["settings"] == dataclasses.replace(st, h=opening)
    assert p["rtol"] == (REVERSE_RTOL if kind == "minimum" else RTOL)
    states, runner = reverse_leg_replay(rep)
    t, X, gnorm = zip(*states)
    n = len(rev) - 1  # the last recorded state is the located crossing
    assert len(states) == n + 1
    assert np.array(t[:n]).tobytes() == rev.t[:n].tobytes()
    assert np.array(X[:n], dtype=float).tobytes() == rev.X[:n].tobytes()
    assert np.array(gnorm[:n]).tobytes() == rev.gnorm[:n].tobytes()
    assert t[n] >= rev.t[n] and norm(np.array(X[n]) - rep.target) >= rep.delta_used * (1 - 5e-9)
    assert p["h_forward"] == runner.h * (RTOL / p["rtol"]) ** (1.0 / 8.0)


@pytest.mark.parametrize("kind", ["minimum", "saddle"])
def test_a_flow_reach_refuses_the_gradient_descent_budgets(himmelblau, kind):
    # budgets.gtol, max_iter and kbar_max bound only a reach under a
    # schedule: the flow settings' gtol and t_max end both legs of a flow
    # reach, so a flow reach refuses each of them at any value but its
    # default, naming the first of gtol, max_iter and kbar_max that is set;
    # the seed, which a flow reach reads, and the defaults run
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    if kind == "minimum":
        reach = lambda b: br.reach_continuous(himmelblau, [3.0, 2.0], 1.0, st, 1e-3, 1e-4, b)
    else:
        reach = lambda b: br.reach_general(himmelblau, himmelblau.critical_points[6].point, 1.0,
                                           st, 1e-3, tol=1e-2, delta=0.1, budgets=b)
    for given, named in (({"gtol": 1e-2, "max_iter": 1, "kbar_max": 1}, "gtol"),
                         ({"max_iter": 1, "kbar_max": 1}, "max_iter"),
                         ({"kbar_max": 1}, "kbar_max"), ({"gtol": 0.0}, "gtol"),
                         ({"max_iter": 200_001}, "max_iter")):
        with pytest.raises(ValueError, match=f"^{named}: a flow reach takes no GD budget"):
            reach(br.ReachBudgets(**given))
    rep = reach(br.ReachBudgets(max_iter=200_000, kbar_max=1 << 16, seed=0))
    assert rep.status == "success" and reach_bytes(rep) == reach_bytes(reach(None))


@pytest.mark.parametrize("given,named", [
    ({"max_iter": 1}, "max_iter"), ({"gtol": 1e-2}, "gtol"),
    ({"max_iter": 1, "gtol": 1e-2}, "max_iter"),
], ids=["max_iter", "gtol", "both"])
def test_a_flow_probe_refuses_the_gradient_descent_budgets(dw, given, named):
    # the flow settings' gtol and t_max end every start of a flow probe, so
    # it refuses max_iter and gtol at any value but their defaults, after
    # their range checks; at the defaults it runs as without them
    st = br.FlowSettings(h=1e-3, t_max=5.0, gtol=1e-6)
    with pytest.raises(ValueError, match=f"^{named}: a flow probe takes no GD budget"):
        br.stability_probe(dw, [1.0], 0.4, st, n_samples=2, **given)
    with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
        br.stability_probe(dw, [1.0], 0.4, st, max_iter=-1)
    est = br.stability_probe(dw, [1.0], 0.4, st, n_samples=2, max_iter=20_000, gtol=1e-8)
    assert vars(est) == vars(br.stability_probe(dw, [1.0], 0.4, st, n_samples=2))


def test_a_saddle_reach_needs_no_epsilon_ball_in_the_box(himmelblau):
    # epsilon only caps a saddle's delta and |x0 - target|: at saddle 5,
    # 1.93 from the box's edge, the 2.5-ball leaves the box and the reach
    # still runs and succeeds, while a minimum refuses such a ball
    s, target = br.constant(0.0015), himmelblau.critical_points[5].point
    assert not himmelblau.in_box(target + np.array([-2.5, 0.0]))
    rep = br.reach_general(himmelblau, target, 2.5, s, 1e-3, tol=1e-2, delta=0.5)
    assert rep.status == "success" and rep.delta_used == 0.5
    assert 0.5 < norm(rep.x0 - target) <= 2.5
    with pytest.raises(ValueError, match="B_epsilon"):
        br.reach_discrete(himmelblau, [3.0, 2.0], 2.5, s, 1e-3, 1e-4)


# attempted DOP853 steps of a continuous saddle reach's forward Clarke flow
# from x0 at h 3e-4: 13 / 15 / 10 / 11 from the step its reverse flow's
# controller proposed last, plus one, below the 15 / 18 / 13 / 13 taken from
# the first trial step min(h, 6/L) = 3e-4, with at most 2 rejected; 12 / 15
# / 10 / 11 since the reverse flow opens at the cap
@pytest.mark.parametrize("i,forward_max", [(5, 14), (6, 16), (7, 11), (8, 12)])
def test_saddle_flow_forward_step_ceilings(monkeypatch, himmelblau, i, forward_max):
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    rep, _, ahead = saddle_flow_legs(monkeypatch, himmelblau, i, st)
    accepted = len(rep.forward_part) - 1
    assert accepted <= len(ahead) <= min(forward_max, accepted + 2)


# attempted DOP853 steps of a continuous saddle reach's reverse flow to the
# sphere at h 3e-4: 10 / 13 / 8 / 10 from the cap 6/L, below the 11 / 16 /
# 11 / 11 taken from the first trial step min(h, 6/L) = 3e-4, with at most 2
# rejected
@pytest.mark.parametrize("i,reverse_max", [(5, 10), (6, 14), (7, 9), (8, 10)])
def test_saddle_flow_reverse_step_ceilings(monkeypatch, himmelblau, i, reverse_max):
    st = br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6)
    rep, back, _ = saddle_flow_legs(monkeypatch, himmelblau, i, st)
    accepted = len(rep.reverse_part) - 1
    assert accepted <= len(back) <= min(reverse_max, accepted + 2)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_saddle_seed_scan_draws_directions_on_demand(monkeypatch, himmelblau, mode):
    # saddle 8's first quasi-random seed escapes, so the scan draws one
    # direction, not all 2d + SCAN_RANDOM of them
    draws = []
    direction = Lcg64.direction

    def counted(rng, dim):
        draws.append(dim)
        return direction(rng, dim)

    monkeypatch.setattr(Lcg64, "direction", counted)
    target = himmelblau.critical_points[8].point
    dynamics = (br.constant(0.0015) if mode == "discrete"
                else br.FlowSettings(h=3e-4, t_max=50.0, gtol=1e-6))
    rep = br.reach_general(himmelblau, target, 1.0, dynamics, 1e-3, tol=1e-2, delta=0.1)
    assert rep.status == "success" and draws == [2]
    first = direction(Lcg64(0), 2)
    assert np.array_equal(rep.ascent_seed, target + 1e-3 * first)


def test_flow_to_level_evaluation_counts(monkeypatch, himmelblau):
    # 1 gradient at the start, 12 per accepted step and 11 per rejected one,
    # the run ending on the first state at or below the level; 1 value per
    # state, and the crossing, located on the last step's dense output,
    # costs values and that output's 3 extra stages
    saddle = himmelblau.critical_points[8]
    f, counts = counting(himmelblau)
    calls = count_flow_steps(monkeypatch)
    st = br.FlowSettings(h=3e-4, t_max=5.0, gtol=1e-6)
    traj = br.integrate_minnorm(f, saddle.point + [0.05, 0.03], saddle.f_value, st)
    assert traj.limit is not None
    assert traj.f[-2] > saddle.f_value >= traj.f[-1]
    accepted = len(traj) - 1
    assert counts["grad"] == 1 + 12 * accepted + 11 * (len(calls) - accepted) + 3
    assert len(traj) < counts["value"] <= len(traj) + 10


def test_reach_general_preconditions(saddle_quad, dw):
    bogus = br.ObjectiveFunction(
        dim=2, f=saddle_quad.f, grad=saddle_quad.grad, hessian=saddle_quad.hessian,
        lipschitz_L=2.0, box=saddle_quad.box,
        critical_points=(br.CriticalPoint(np.array([0.5, 0.5]), "saddle", 0.0),))
    with pytest.raises(ValueError, match="StepSchedule .*FlowSettings"):
        br.reach_general(saddle_quad, [0.0, 0.0], 1.0, None, 1e-3)  # no dynamics
    for dynamics in (br.constant(0.01), FLOW):
        with pytest.raises(ValueError, match="^target must be a cataloged saddle$"):
            br.reach_general(dw, [1.0], 0.4, dynamics, 1e-3)
        with pytest.raises(ValueError,
                           match="^classify_limit disagrees with the catalog: non_stationary$"):
            # cataloged point is not critical: classification disagreement
            br.reach_general(bogus, [0.5, 0.5], 1.0, dynamics, 1e-3)
        # seed_radius >= delta, delta > epsilon
        for seed_radius, delta in ((0.5, 0.5), (1e-3, 1.5)):
            with pytest.raises(ValueError, match="^need 0 < seed_radius < delta <= epsilon$"):
                br.reach_general(saddle_quad, [0.0, 0.0], 1.0, dynamics, seed_radius,
                                 delta=delta)


# --- edge of stability ------------------------------------------------------------

def test_eos_verdicts(quad1):
    assert br.edge_of_stability(quad1, 1.9, [1.0]) == "converges"
    assert br.edge_of_stability(quad1, 2.1, [1.0]) == "diverges"
    assert br.edge_of_stability(quad1, 2.0, [1.0]) == "neutral"


def test_eos_eigendirection_support():
    f = br.make_builtin("quad", (0.1, 1.0))
    # alpha = 2.5 violates only the second eigendirection
    assert br.edge_of_stability(f, 2.5, [1.0, 1.0]) == "diverges"
    assert br.edge_of_stability(f, 2.5, [1.0, 0.0]) == "converges"
    assert br.edge_of_stability(f, 2.5, [0.0, 0.0]) == "converges"


def test_eos_overflow_regime(quad1):
    # the 10^3-iteration cross-check overflows to inf and still agrees
    assert br.edge_of_stability(quad1, 50.0, [1.0]) == "diverges"


@pytest.mark.parametrize("params,alpha,x0,verdict", [
    ((1.0,), 1.9, [1.0], "converges"), ((1.0,), 2.1, [1.0], "diverges"),
    ((1.0,), 2.0, [1.0], "neutral"), ((1.0,), 50.0, [1.0], "diverges"),
    ((1.0,), 1.9, [20.0], "converges"), ((0.1, 1.0), 2.5, [1.0, 1.0], "diverges"),
    ((0.1, 1.0), 2.5, [1.0, 0.0], "converges"),
    ((1.0, 2.0, 5.0), 0.3, [1.0, -2.0, 0.5], "converges"),
    ((1.0, 2.0, 5.0), 50.0, [1.0, -2.0, 0.5], "diverges"),
], ids=["1d-converges", "1d-diverges", "1d-neutral", "1d-overflow", "1d-x0-outside-box",
        "2d-diverges", "2d-converges", "3d-converges", "3d-overflow"])
def test_eos_cross_check_is_a_gd_march(monkeypatch, params, alpha, x0, verdict):
    # the 10^3-step cross-check is run_gd's step rule marched without a box:
    # its last iterate is the plain loop x - alpha (lam x), bit for bit, on
    # both lanes and through overflow to inf and nan
    ends, march = [], reach_mod.march

    def spy(*args, **kwargs):
        out = march(*args, **kwargs)
        ends.append(np.array(out[0][-1][1]))
        return out
    monkeypatch.setattr(reach_mod, "march", spy)
    assert br.edge_of_stability(br.make_builtin("quad", params), alpha, x0) == verdict
    x, lam = np.array(x0), np.array(params)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1000):
            x = x - alpha * (lam * x)
    assert ends[0].tobytes() == x.tobytes()


def test_eos_reads_the_hessian_not_the_name():
    # x^2/2 with params (4,): alpha = 0.6 contracts by 0.4 and the run
    # converges, where the params' |1 - 0.6 * 4| = 1.4 would say diverges
    assert br.edge_of_stability(misnamed_quad((1.0,), (4.0,)), 0.6, [1.0]) == "converges"


def rotated_quad(center):
    """f = (x - c)^T H (x - c) / 2 with H = [[2, 1], [1, 2]] (eigenvalues 1
    and 3, eigenvectors (1, -1) and (1, 1)), exactly quadratic."""
    c, H = np.array(center, dtype=float), np.array([[2.0, 1.0], [1.0, 2.0]])
    return br.ObjectiveFunction(
        dim=2, f=lambda x: 0.5 * (x - c) @ H @ (x - c), grad=lambda x: H @ (x - c),
        hessian=lambda x: H, lipschitz_L=3.0, box=np.array([[-10.0, 10.0]] * 2),
        critical_points=(br.CriticalPoint(c, "local_min", 0.0),), hessian_lipschitz=0.0)


@pytest.mark.parametrize("alpha,offset,verdict", [
    (0.5, [1.0, 1.0], "converges"), (0.9, [1.0, 1.0], "diverges"),
    (2.0 / 3.0 * 0.999, [0.5, 0.2], "converges"), (0.8, [0.5, 0.2], "diverges"),
    (0.9, [0.0, 0.0], "converges"),
])
def test_eos_on_a_rotated_shifted_quadratic(alpha, offset, verdict):
    # the eigenvalues of the Hessian at the cataloged x* = (3, -2) decide on
    # the components of x0 - x*, and the cross-check's distances are from x*
    f = rotated_quad([3.0, -2.0])
    assert br.edge_of_stability(f, alpha, np.array([3.0, -2.0]) + offset) == verdict


def test_eos_rejects_non_quad(dw):
    with pytest.raises(ValueError):
        br.edge_of_stability(dw, 0.01, [0.5])


@pytest.mark.parametrize("alpha,x0,message", [
    (0.0, [1.0], "^alpha must be positive and finite, got 0.0$"),
    (-1.0, [1.0], "^alpha must be positive and finite, got -1.0$"),
    pytest.param(1.0, [1.0, 1.0], r"^x0 must have shape \(1,\) for dim = 1, got shape \(2,\)$",
                 id="1.0-x02-shape"),
    (math.inf, [1.0], "^alpha must be positive and finite, got inf$")])
def test_eos_rejects_a_bad_alpha_or_x0(quad1, alpha, x0, message):
    with pytest.raises(ValueError, match=message):
        br.edge_of_stability(quad1, alpha, x0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eos_rejects_a_non_finite_x0(quad1, bad):
    # an input error, named as such, not a contradiction between the
    # spectral verdict and the iteration check
    with pytest.raises(ValueError, match=re.escape(f"x0 must be finite, got [{bad}]")):
        br.edge_of_stability(quad1, 0.5, [bad])
