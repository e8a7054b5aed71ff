"""Columnar trajectories: the stepping loops against plain per-step
reference loops that build one State per step, bit for bit."""

import math
import re
import threading

import numpy as np
import pytest

import basinreach as br
from basinreach.descent import _Descent
from basinreach.flow import _Flow, _sphere_exit_detail
from basinreach.landscape import LeftBoxError, norm
from basinreach.reach import _run_to_level
from basinreach.trajectory import State, record_trajectories, recorded

from conftest import (count_flow_steps, counting, dop853_flow, make_saddle_quad, rk4_flow,
                      same_states, two_wells)

HB = br.make_builtin("himmelblau")
DW = br.make_builtin("double_well")
Q1 = br.make_builtin("quad", (1.0,))
Q2 = br.make_builtin("quad", (1.0, 5.0))  # the float lane's largest dim
Q3 = br.make_builtin("quad", (1.0, 2.0, 5.0))  # the ndarray lane's smallest


def ref_gd(f, x0, s, gtol, max_iter, level=None):
    """run_gd (and, with a level, _run_to_level up to its crossing), one
    State per step."""
    x = np.array(x0, dtype=float)
    g = f.gradient(x)
    states = [State(0, 0.0, x.copy(), f.value(x), norm(g))]
    t = 0.0
    for k in range(max_iter):
        if states[-1].grad_norm < gtol or (level is not None and states[-1].f_value <= level):
            break
        a = s.alpha(k)
        x = x - a * g
        t += a
        g = f.gradient(x)
        states.append(State(k + 1, t, x.copy(), f.value(x), norm(g)))
        if level is not None and states[-1].f_value <= level:
            break
        if not f.in_box(x):
            break
    return states


@pytest.mark.parametrize("f,x0,s,kw,status", [
    (HB, [2.5, 1.5], br.power(0.5 / HB.lipschitz_L, 0.5), {"gtol": 1e-8}, "converged"),
    (DW, [0.3], br.constant(0.05), {"max_iter": 50}, "budget_exhausted"),
    (two_wells(), [-2.0, 1.0], br.constant(0.02), {}, "converged"),
    (make_saddle_quad(), [0.5, 1e-3], br.constant(0.4), {}, "left_box"),
    (Q2, [1.0, -2.0], br.power(0.9 / Q2.lipschitz_L, 0.5), {"gtol": 1e-8}, "converged"),
    (Q3, [1.0, -2.0, 0.5], br.constant(0.5 / Q3.lipschitz_L), {}, "converged"),
], ids=["himmelblau-power", "budget", "rowwise", "left-box", "quad-2d", "quad-3d"])
def test_run_gd_matches_reference(f, x0, s, kw, status):
    traj = br.run_gd(f, x0, s, **kw)
    assert traj.terminal_status == status
    ref = ref_gd(f, x0, s, kw.get("gtol", 1e-10), kw.get("max_iter", 10**6))
    assert same_states(traj.states, ref)
    if status == "converged":
        assert traj.limit.tobytes() == ref[-1].x.tobytes()


@pytest.mark.parametrize("f,x0,level", [
    (HB, [2.5, 1.5], 1.0),
    (make_saddle_quad(), [1.0, 1e-3], 0.0),
    (Q2, [1.0, -2.0], 0.1),
    (Q3, [1.0, -2.0, 0.5], 0.1),
], ids=["himmelblau", "rowwise-saddle", "quad-2d", "quad-3d"])
def test_run_to_level_matches_reference(f, x0, level):
    s = br.constant(0.5 / f.lipschitz_L)
    traj, crossing = _run_to_level(f, x0, s, level, 1e-10, 10**5)
    assert crossing is not None and traj.limit is crossing
    ref = ref_gd(f, x0, s, 1e-10, 10**5, level=level)
    assert same_states(traj.states, ref)


@pytest.mark.parametrize("f,x0", [(HB, [2.5, 1.5]), (Q3, [1.0, -2.0, 3.0])],
                         ids=["float-lane", "ndarray-lane"])
def test_run_to_level_crossing_interpolates_the_last_step(f, x0):
    traj, crossing = _run_to_level(f, x0, br.constant(0.5 / f.lipschitz_L), 1.0, 1e-10, 10**5)
    (x_prev, x), (f_prev, fx) = traj.X[-2:], traj.f[-2:]
    assert f_prev > 1.0 >= fx
    theta = (f_prev - 1.0) / (f_prev - fx)
    assert type(crossing) is np.ndarray
    assert crossing.tobytes() == (x_prev + theta * (x - x_prev)).tobytes()


def test_run_to_level_start_below_level_and_stall():
    s = br.constant(0.5)
    traj, crossing = _run_to_level(Q1, [0.1], s, 1.0, 1e-10, 100)
    assert traj.terminal_status == "converged" and len(traj) == 1
    assert crossing.tobytes() == traj.X[0].tobytes()
    # a level below the minimum is never crossed: the run stalls on gtol
    traj, crossing = _run_to_level(Q1, [1.0], s, -1.0, 1e-6, 10**4)
    assert traj.terminal_status == "converged" and traj.gnorm[-1] < 1e-6
    assert crossing is None and traj.limit is None


@pytest.mark.parametrize("f,x0,direction,h", [
    (DW, [0.5], "forward", 1e-3),
    (DW, [0.5], "reverse", 1e-3),
    (HB, [3.2, 2.1], "reverse", 3e-4),
    (two_wells(), [-1.5, 0.5], "forward", 1e-3),
    (Q3, [1.0, -2.0, 0.5], "forward", 1e-2),
    (Q3, [1.0, -2.0, 0.5], "reverse", 1e-2),
], ids=["forward", "reverse-1d", "reverse-left-box", "rowwise", "quad-3d-forward",
        "quad-3d-reverse"])
def test_integrate_matches_reference(f, x0, direction, h):
    st = br.FlowSettings(h=h, t_max=3.0, gtol=1e-6)
    traj = br.integrate(f, x0, direction, st)
    sign = -1.0 if direction == "forward" else 1.0
    gtol = st.gtol if direction == "forward" else 0.0
    ref, _ = dop853_flow(f, x0, sign, h, st.t_max, gtol)
    assert same_states(traj.states, ref)


def test_rejected_steps_are_retried_as_in_the_reference(monkeypatch):
    # a rejected step is retried from the same state with the controller's
    # smaller step; the run still matches the reference state for state
    # and costs its 11 stages 2-12: stage 13 waits for an accepted step
    f, counts = counting(DW)
    calls = count_flow_steps(monkeypatch)
    st = br.FlowSettings(h=1e-3, t_max=3.0, gtol=1e-6)
    traj = br.integrate(f, [0.5], "forward", st)
    ref, attempts = dop853_flow(DW, [0.5], -1.0, st.h, st.t_max, st.gtol)
    assert same_states(traj.states, ref)
    accepted = len(traj) - 1
    assert len(calls) == attempts > accepted
    assert counts["grad"] == 1 + 12 * accepted + 11 * (len(calls) - accepted)


@pytest.mark.parametrize("f,target,offset,direction,delta,h", [
    (HB, [3.0, 2.0], [1e-3, 2e-3], "reverse", 0.3, 3e-4),
    (make_saddle_quad(), [0.0, 0.0], [1e-3, 2e-3], "forward", 0.5, 1e-2),
    (DW, [1.0], [1e-3], "reverse", 0.3, 1e-3),
    (DW, [0.0], [1e-3], "forward", 0.5, 1e-3),
    (Q3, [0.0, 0.0, 0.0], [1e-3, 2e-3, 1e-3], "reverse", 0.5, 1e-2),
    (Q3, [1.0, -1.0, 0.5], [1e-3, 2e-3, 1e-3], "forward", 0.3, 1e-2),
], ids=["himmelblau-reverse", "rowwise-forward", "double-well-reverse", "double-well-forward",
        "quad-3d-reverse", "quad-3d-forward"])
def test_sphere_exit_matches_reference(f, target, offset, direction, delta, h):
    st = br.FlowSettings(h=h, t_max=20.0, gtol=1e-8)
    target = np.asarray(target)
    x0 = target + np.array(offset)
    t_exit, b, traj = _sphere_exit_detail(f, x0, direction, target, delta, st)
    sign = -1.0 if direction == "forward" else 1.0
    # a sphere exit opens at the cap H_STABLE / L whatever h is
    ref, _ = dop853_flow(f, x0, sign, math.inf, st.t_max,
                         stop=lambda x: norm(x - target) >= delta)
    # the last reference state overshoots the sphere; the run ends on the
    # crossing located on that step's dense output instead
    assert same_states(traj.states[:-1], ref[:-1])
    last = traj.states[-1]
    assert last.k == len(ref) - 1 and last.t == t_exit and last.x.tobytes() == b.tobytes()
    assert last.f_value == f.value(b) and last.grad_norm == f.grad_norm(b)
    assert ref[-2].t < t_exit <= ref[-1].t
    assert abs(norm(b - target) - delta) <= 1e-8 * delta
    # the crossing is the flow's point at t_exit: fine fixed-step RK4 from
    # the step's start agrees to the integrator's accuracy
    x_ref = rk4_flow(f, ref[-2].x, sign, 1e-3 * h, t_exit - ref[-2].t)
    assert np.linalg.norm(b - x_ref) <= 1e-9 * (1.0 + norm(b))


def test_sphere_exit_evaluates_no_gradient_past_the_sphere(monkeypatch):
    # 1 gradient at the start, 12 per accepted DOP853 step (the 13th stage
    # is the next state's gradient) and 11 per rejected one, 3 for the dense
    # output's extra stages on the step that leaves the sphere and 1 at the
    # located crossing: that step is the last, and locating the crossing
    # takes no further gradient
    f, counts = counting(HB)
    calls = count_flow_steps(monkeypatch)
    st = br.FlowSettings(h=3e-4, t_max=20.0, gtol=1e-8)
    _, _, traj = _sphere_exit_detail(f, [3.001, 2.002], "reverse", [3.0, 2.0], 0.3, st)
    accepted = len(traj) - 1
    assert len(calls) > accepted
    assert counts["grad"] == 1 + 12 * accepted + 11 * (len(calls) - accepted) + 3 + 1


def test_minnorm_matches_reference():
    # the min-norm flow of max{f, c} is the DOP853 flow on f up to its first
    # state at or below c; its limit, located on the last step, meets c
    saddle = HB.critical_points[8]
    st = br.FlowSettings(h=3e-4, t_max=2.0, gtol=1e-6)
    x0 = saddle.point + np.array([0.05, 0.03])
    traj = br.integrate_minnorm(HB, x0, saddle.f_value, st)
    ref, _ = dop853_flow(HB, x0, -1.0, st.h, st.t_max, st.gtol,
                         stop=lambda x: HB.value(x) <= saddle.f_value)
    assert traj.terminal_status == "converged"
    assert same_states(traj.states, ref)
    assert abs(HB.value(traj.limit) - saddle.f_value) <= 1e-9
    assert norm(traj.limit - traj.X[-2]) <= norm(traj.X[-1] - traj.X[-2])


def test_minnorm_evaluates_each_state_once():
    # a run that never meets its level (here below every value of f) takes
    # one value per state and none to locate a crossing
    f, counts = counting(HB)
    saddle = HB.critical_points[8]
    st = br.FlowSettings(h=3e-4, t_max=2.0, gtol=1e-6)
    traj = br.integrate_minnorm(f, saddle.point + [0.05, 0.03], -1.0, st)
    assert traj.limit is None and len(traj) > 10
    assert counts["value"] == len(traj)


def level_run(dynamics, level, budget):
    """A level run of each dynamics on quad:1 from x0 = 1 with gtol 1e-6:
    _run_to_level under alpha = 0.5 for budget steps, or integrate_minnorm
    for time budget."""
    if dynamics == "gd":
        return _run_to_level(Q1, [1.0], br.constant(0.5), level, 1e-6, budget)[0]
    return br.integrate_minnorm(Q1, [1.0], level, br.FlowSettings(h=0.1, t_max=budget,
                                                                  gtol=1e-6))


@pytest.mark.parametrize("dynamics", ["gd", "flow"])
@pytest.mark.parametrize("level,budgets,status,stop", [
    (0.1, (10**4, 100.0), "converged", "level_crossing"),
    (-1.0, (10**4, 100.0), "converged", None),
    (-1.0, (5, 0.5), "budget_exhausted", None),
], ids=["crossed", "stalled", "budget"])
def test_level_run_names_its_stop_only_when_it_crossed(dynamics, level, budgets, status, stop):
    traj = level_run(dynamics, level, budgets[dynamics == "flow"])
    assert traj.terminal_status == status
    assert (traj.limit is not None) == (stop is not None)
    assert traj.provenance.get("stopped_on") == stop


def test_sphere_exit_names_its_stop():
    _, _, traj = _sphere_exit_detail(Q1, [0.5], "reverse", [0.0], 1.0,
                                     br.FlowSettings(h=1e-2, t_max=5.0))
    assert traj.provenance["stopped_on"] == "sphere_exit" and "event" not in traj.provenance


def step_bytes(steps):
    return [(t, np.array(x).tobytes(), vn) for t, x, vn in steps]


@pytest.mark.parametrize("f,x0", [(HB, [2.5, 1.5]), (Q3, [1.0, -2.0, 0.5])],
                         ids=["float-lane", "ndarray-lane"])
def test_one_flow_marched_twice_gives_the_same_steps(f, x0):
    # the probe marches one runner from every start: no step size or error
    # estimate carries over from one march to the next
    st = br.FlowSettings(h=1e-2, t_max=2.0, gtol=1e-8)
    flow = _Flow(f, "forward", st)
    first, second = (step_bytes(flow.march(x0)[0]) for _ in range(2))
    assert len(first) > 10 and first == second
    assert step_bytes(_Flow(f, "forward", st).march(x0)[0]) == first


SADDLE = make_saddle_quad()
HALF_WAY = {"stopped_on": "half_way", "mark": 0.5}


def half_way(prev, t, x, fx):
    # ends a run on its first state with x_1 <= 0.5, naming itself
    return ("converged", None, t, x, HALF_WAY) if x[0] <= 0.5 else None


@pytest.mark.parametrize("runner,x0,event,status", [
    (lambda: _Descent(Q1, br.constant(0.5), 10**4, 1e-8), [1.0], half_way, "converged"),
    (lambda: _Descent(Q1, br.constant(0.5), 10**4, 1e-8), [1.0], None, "converged"),
    (lambda: _Descent(Q1, br.constant(0.5), 3, 1e-8), [1.0], None, "budget_exhausted"),
    (lambda: _Descent(SADDLE, br.constant(0.4), 10**4, 1e-8), [0.5, 1e-3], None, "left_box"),
    (lambda: _Flow(Q1, "forward", br.FlowSettings(h=0.1, t_max=50.0, gtol=1e-8)), [1.0],
     half_way, "converged"),
    (lambda: _Flow(Q1, "forward", br.FlowSettings(h=0.1, t_max=50.0, gtol=1e-8)), [1.0], None,
     "converged"),
    (lambda: _Flow(Q1, "forward", br.FlowSettings(h=0.1, t_max=0.5)), [1.0], None,
     "budget_exhausted"),
    (lambda: _Flow(Q1, "reverse", br.FlowSettings(h=0.1, t_max=50.0)), [0.5], None, "left_box"),
], ids=["gd-event", "gd-gtol", "gd-budget", "gd-box", "flow-event", "flow-gtol", "flow-budget",
        "flow-box"])
def test_march_returns_the_stop_that_ended_it(runner, x0, event, status):
    # an event's stop entries come back from march and name the run in its
    # provenance; a run that the box, gtol or its budget ended has none
    runner = runner()
    steps, got, limit, stop = runner.march(x0, event=event)
    assert got == status
    traj = recorded(runner.f, steps, got, limit, stop, runner.provenance)
    if event is None:
        assert stop is None and "stopped_on" not in traj.provenance
        assert traj.provenance == runner.provenance
    else:
        assert stop is HALF_WAY and steps[-1][1][0] <= 0.5 < steps[-2][1][0]
        assert traj.provenance == dict(runner.provenance, **HALF_WAY)


def test_record_trajectories_is_per_thread():
    barrier = threading.Barrier(2, timeout=30)
    results = {}

    def work(x0):
        runs = []
        with record_trajectories(runs):
            barrier.wait()  # both threads record at once
            traj = br.run_gd(DW, [x0], br.constant(0.05), max_iter=20)
            barrier.wait()
        results[x0] = runs, traj

    threads = [threading.Thread(target=work, args=(x0,)) for x0 in (0.3, 1.4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    assert len(results) == 2
    for runs, traj in results.values():
        assert len(runs) == 1 and runs[0] is traj


def test_orbit_residuals_and_path_length_match_per_point():
    s = br.constant(0.5 / HB.lipschitz_L)
    orbit = br.reverse_orbit(HB, [3.001, 2.002], s, 40)
    pts = orbit.points
    res = [norm((a - s.alpha(0) * HB.gradient(a)) - b) for a, b in zip(pts, pts[1:])]
    assert orbit.forward_residuals == tuple(res)
    traj = br.run_gd(HB, pts[0], s)
    per_state = sum(norm(b.x - a.x) for a, b in zip(traj.states, traj.states[1:]))
    assert br.path_length(traj) == per_state


def test_trajectory_rejects_a_bad_terminal_status():
    with pytest.raises(ValueError, match="^bad terminal status 'done'$"):
        br.Trajectory(t=[0.0], X=[[0.0]], f=[0.0], gnorm=[0.0], terminal_status="done")


def test_columns_are_read_only_and_states_lazy():
    traj = br.run_gd(DW, [0.3], br.constant(0.05), max_iter=20)
    for column in (traj.t, traj.X, traj.f, traj.gnorm):
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        traj.X[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.final_x[0] = 1.0
    states = traj.states
    assert len(states) == len(traj) == 21 and traj.X.shape == (21, 1)
    assert isinstance(states[1:3], tuple) and [st.k for st in states[1:3]] == [1, 2]
    assert states[-1].k == 20 and states[-1].x.tobytes() == traj.X[-1].tobytes()
    assert [st.k for st in states] == list(range(21))
    with pytest.raises(IndexError):
        states[21]


@pytest.mark.parametrize("f,x0", [(DW, [0.3]), (HB, [2.5, 1.5]), (Q3, [1.0, -2.0, 0.5])],
                         ids=["float-lane-1-d", "float-lane-2-d", "ndarray-lane-3-d"])
def test_states_are_built_once_from_the_columns(f, x0):
    # the first read builds one tuple of rows, which every later read returns
    traj = br.run_gd(f, x0, br.constant(0.5 / f.lipschitz_L), max_iter=30)
    states = traj.states
    assert type(states) is tuple and traj.states is states and len(states) == len(traj) > 1
    # row k is (k, t[k], X[k], f[k], gnorm[k]) bit for bit, its numbers Python
    # floats and its x a read-only row of X
    for k, st in enumerate(states):
        assert st.k == k and type(st.k) is int
        for got, column in ((st.t, traj.t), (st.f_value, traj.f), (st.grad_norm, traj.gnorm)):
            assert type(got) is float and np.float64(got).tobytes() == column[k].tobytes()
        assert st.x.tobytes() == traj.X[k].tobytes() and np.shares_memory(st.x, traj.X)
        assert not st.x.flags.writeable
        with pytest.raises(ValueError):
            st.x[0] = 1.0


def test_run_gd_evaluates_each_state_once():
    f, counts = counting(HB)
    traj = br.run_gd(f, [2.5, 1.5], br.power(0.5 / HB.lipschitz_L, 0.5), gtol=1e-8)
    assert counts == {"value": len(traj), "grad": len(traj)}


def test_divergence_stop_is_measured_from_the_box_centre():
    # a box far from the origin, where |x| exceeds 1e3 * (1 + diameter)
    # everywhere: GD stops only on the box, gtol or its budget
    f = br.ObjectiveFunction(
        dim=1, f=lambda x: 0.5 * float((x[0] - 5000.5) ** 2),
        grad=lambda x: np.array([x[0] - 5000.5]), lipschitz_L=1.0,
        box=np.array([[5000.0, 5001.0]]), name="far_quad")
    traj = br.run_gd(f, [5000.9], br.constant(0.5))
    assert traj.terminal_status == "converged" and len(traj) > 2
    assert abs(traj.limit[0] - 5000.5) < 1e-9
    level_traj, crossing = _run_to_level(f, [5000.9], br.constant(0.5), 1e-6, 1e-10, 10**4)
    assert level_traj.terminal_status == "converged" and crossing is not None


RUNNERS = {
    "gd": lambda f, x0: br.run_gd(f, x0, br.constant(0.1), max_iter=10),
    "flow": lambda f, x0: br.integrate(f, x0, "forward", br.FlowSettings(h=0.1, t_max=1.0)),
}


@pytest.mark.parametrize("f", [Q1, Q2, Q3], ids=["1-d-float-lane", "2-d-float-lane",
                                                 "ndarray-lane"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_start_of_another_shape_is_a_value_error(runner, f):
    # a start of shape other than (dim,) is refused before anything runs,
    # with dim and the shape it had: fewer or more coordinates, a row or a
    # column of the right count, or a scalar
    n = f.dim
    for x0 in ([1.0] * (n + 1), [0.5] * (n - 1), [[1.0] * n], [[1.0]] * n, 1.0):
        shape = np.shape(x0)
        if shape == (n,):
            continue
        with pytest.raises(ValueError, match=re.escape(f"dim = {n}, got shape {shape}")):
            RUNNERS[runner](f, x0)
    assert len(RUNNERS[runner](f, [0.5] * n)) > 1


@pytest.mark.parametrize("f", [Q1, Q2, Q3], ids=["1-d-float-lane", "2-d-float-lane",
                                                 "ndarray-lane"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_start_outside_the_box_is_a_left_box_error(runner, f):
    # the start is tested on the lane against the padded box: just outside
    # it is a LeftBoxError carrying the start, on the box's edge a run
    x0 = [10.0] * (f.dim - 1) + [10.0 + 1e-9]
    with pytest.raises(LeftBoxError, match="^x0 outside the operating box$") as exc:
        RUNNERS[runner](f, x0)
    assert exc.value.point.tobytes() == np.array(x0).tobytes()
    assert RUNNERS[runner](f, [10.0] * f.dim).initial_x.tolist() == [10.0] * f.dim


@pytest.mark.parametrize("f", [Q1, Q2, Q3], ids=["1-d-float-lane", "2-d-float-lane",
                                                 "ndarray-lane"])
def test_sphere_exit_checks_its_start_before_the_sphere(f):
    # the sphere test takes x0 as the runner's start check gives it
    n, center, st = f.dim, np.zeros(f.dim), br.FlowSettings(h=0.1, t_max=50.0)
    for x0 in ([0.5] * (n + 1), [[0.5] * n], [0.5] * (n - 1)):
        with pytest.raises(ValueError, match=re.escape(f"dim = {n}, got shape {np.shape(x0)}")):
            _sphere_exit_detail(f, x0, "reverse", center, 9.0, st)
    with pytest.raises(LeftBoxError, match="^x0 outside the operating box$"):
        _sphere_exit_detail(f, [10.0] * (n - 1) + [10.0 + 1e-9], "reverse", center, 20.0, st)
    _, b = _sphere_exit_detail(f, [0.5] * n, "reverse", center, 9.0, st)[:2]
    assert abs(norm(b) - 9.0) <= 1e-8 * 9.0


# every entry point that takes a point checks it with start, by its own name
POINT_ENTRIES = {
    "gd_step": ("x", lambda f, x: br.gd_step(f, x, 0.1)),
    "prox": ("x", lambda f, x: br.prox(f, x, 0.1)),
    "ascent_prox": ("xnext", lambda f, x: br.ascent_prox(f, x, 0.1)),
    "reverse_orbit": ("anchor", lambda f, x: br.reverse_orbit(f, x, br.constant(0.1), 3)),
    "run_gd": ("x0", RUNNERS["gd"]),
    "integrate": ("x0", RUNNERS["flow"]),
    "stability_probe": ("target", lambda f, x: br.stability_probe(f, x, 1.0, br.constant(0.1))),
    "reach_discrete": ("target", lambda f, x: br.reach_discrete(f, x, 1.0, br.constant(0.1),
                                                                1e-3, 1e-4)),
    "reach_continuous": ("target", lambda f, x: br.reach_continuous(
        f, x, 1.0, br.FlowSettings(h=0.1, t_max=1.0), 1e-3, 1e-4)),
    "reach_general": ("target", lambda f, x: br.reach_general(f, x, 1.0, br.constant(0.1),
                                                              1e-3)),
}


@pytest.mark.parametrize("f", [Q1, Q2, Q3], ids=["1-d-float-lane", "2-d-float-lane",
                                                 "ndarray-lane"])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
def test_every_point_is_checked_by_start(entry, f):
    # a point of another shape or with a NaN or infinite coordinate is a
    # ValueError naming it, one outside the box a LeftBoxError; each comes
    # before anything runs
    what, call = POINT_ENTRIES[entry]
    n = f.dim
    with pytest.raises(ValueError, match=re.escape(
            f"{what} must have shape ({n},) for dim = {n}, got shape ({n + 1},)")):
        call(f, [0.5] * (n + 1))
    for bad in (np.nan, np.inf, -np.inf):
        x = [0.5] * (n - 1) + [bad]
        with pytest.raises(ValueError, match=re.escape(f"{what} must be finite, got {x}")):
            call(f, x)
    with pytest.raises(LeftBoxError, match=f"^{what} outside the operating box$"):
        call(f, [0.5] * (n - 1) + [10.0 + 1e-9])
