import math

import numpy as np
import pytest

import basinreach as br
from basinreach.landscape import LeftBoxError, norm

from conftest import count_dp5_steps, counting, dp5_step, make_linear_1d, rk4_flow


def settings(h=0.01, t_max=1.0, gtol=1e-12, refine=None):
    return br.FlowSettings(h=h, t_max=t_max, gtol=gtol, event_refine_tol=refine)


# --- settings and model validation ------------------------------------------

def test_settings_validation():
    with pytest.raises(ValueError):
        br.FlowSettings(h=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        br.FlowSettings(h=0.01, t_max=1.0, event_refine_tol=0.02)
    st = br.FlowSettings(h=0.01, t_max=1.0)
    assert st.event_refine_tol == pytest.approx(1e-5)


def test_h_guard(dw):
    with pytest.raises(ValueError):
        br.integrate(dw, [0.5], "forward", settings(h=0.01))  # 0.01 > 0.1/23


def test_model_validation():
    with pytest.raises(ValueError):
        br.DesingularizationModel(coeff=1.0, exponent=1.5)
    with pytest.raises(ValueError):
        br.DesingularizationModel(coeff=-1.0, exponent=0.5)
    m = br.DesingularizationModel(coeff=math.sqrt(2.0), exponent=0.5)
    assert m.psi(0.0) == 0.0 and m.psi(2.0) == pytest.approx(2.0)


# --- smooth integration -------------------------------------------------------

def test_forward_flow_exponential(quad1):
    traj = br.integrate(quad1, [1.0], "forward", settings())
    assert abs(traj.final_x[0] - math.exp(-1.0)) <= 1e-6
    assert traj.final_state.t == pytest.approx(1.0)


def test_reverse_flow_exponential(quad1):
    traj = br.integrate(quad1, [0.5], "reverse", settings())
    assert abs(traj.final_x[0] - 0.5 * math.e) <= 1e-6


def test_flow_from_critical_point(quad1):
    traj = br.integrate(quad1, [0.0], "forward", settings(gtol=1e-9))
    assert traj.terminal_status == "converged" and len(traj) == 1


def test_reverse_flow_leaves_box(quad1):
    traj = br.integrate(quad1, [1.0], "reverse", settings(t_max=5.0))
    assert traj.terminal_status == "left_box"


def test_energy_dissipation_quantified(quad1):
    # per step of length dt: |f(x_{k+1}) - f(x_k) + |dx|^2 / dt| <= C dt^2
    # with C = 1 on 0.5 x^2, the fixed-step bound C h over unit time
    # spread over its steps; f falls along the flow
    for h in (0.01, 0.005):
        traj = br.integrate(quad1, [1.0], "forward", settings(h=h))
        assert traj.t[-1] == 1.0 and len(traj) > 10
        for a, b in zip(traj.states, traj.states[1:]):
            dt = b.t - a.t
            assert b.f_value <= a.f_value + 1e-12
            dissipated = float(np.linalg.norm(b.x - a.x)) ** 2 / dt
            assert abs(b.f_value - a.f_value + dissipated) <= 1.0 * dt * dt


def test_reverse_forward_mirror(quad14):
    st = settings(h=0.005, t_max=0.5)
    for x0 in (np.array([1.0, -0.5]), np.array([-0.3, 0.2]), np.array([0.7, 0.7])):
        rev = br.integrate(quad14, x0, "reverse", st)
        fwd = br.integrate(quad14, rev.final_x, "forward", st)
        bound = 10.0 * st.h * quad14.lipschitz_L * st.t_max * np.linalg.norm(x0)
        assert np.linalg.norm(fwd.final_x - x0) <= bound


# one objective per lane: the float lane (dim <= 2) and the ndarray lane
LANES = [(br.make_builtin("quad", (1.0, 4.0)), [1.0, -0.5]),
         (br.make_builtin("quad", (1.0, 2.0, 5.0)), [1.0, -0.5, 0.3])]


def test_flow_recurrence_recomputable(monkeypatch):
    # on both lanes, every attempted step, accepted or not, is the
    # reference DP5 step on ndarrays bit for bit, and each state is the
    # step it accepted
    for f, x0 in LANES:
        calls = count_dp5_steps(monkeypatch)
        traj = br.integrate(f, x0, "forward", settings(h=0.01, t_max=2.0))
        field = lambda y: -f.gradient(y)
        assert len(calls) >= len(traj) - 1 > 10
        for (_, x, sh, _), (x_new, _, err) in calls:
            ref, _, ref_err = dp5_step(field, np.array(x), -sh)
            assert ref.tobytes() == np.array(x_new).tobytes()
            assert ref_err.tobytes() == np.array(err).tobytes()
        accepted = {np.array(out[0]).tobytes() for _, out in calls}
        assert all(x.tobytes() in accepted for x in traj.X[1:])
        monkeypatch.undo()


def test_flow_step_reuses_gradient_as_k1(monkeypatch):
    # a DP5 step takes 6 new gradients; its 7th stage is the gradient at
    # the new point, which is both its |grad f| and the next step's k1
    # (first same as last), so a run takes 1 + 6 per attempted step
    for f, x0 in LANES:
        f, counts = counting(f)
        calls = count_dp5_steps(monkeypatch)
        traj = br.integrate(f, x0, "forward", settings(h=0.01, t_max=0.5))
        steps = len(traj.states) - 1
        assert steps == len(calls) > 1 and traj.t[-1] == 0.5
        assert counts == {"grad": 1 + 6 * steps, "value": 1 + steps}
        monkeypatch.undo()


# --- min-norm flow -------------------------------------------------------------

def test_minnorm_matches_smooth_above_cap(quad1):
    # at each state of the smooth flow, the Euler min-norm polygon lies
    # within 2 h (t + h) of it, h the Euler step
    g = br.cap(quad1, 0.0)
    st = br.FlowSettings(h=1e-3, t_max=2.0, gtol=1e-12)
    capped = br.integrate_minnorm(g, [1.0], st)
    smooth = br.integrate(quad1, [1.0], "forward", st)
    assert len(smooth) > 10 and smooth.t[-1] <= capped.t[-1]
    for b in smooth.states:
        a = np.interp(b.t, capped.t, capped.X[:, 0])
        assert abs(a - b.x[0]) <= 2.0 * st.h * (b.t + st.h)


def test_minnorm_stalls_immediately_below():
    lin = make_linear_1d()
    g = br.MaxFunction(pieces=(lin, br.constant_objective(1, 0.0, lin.box)))
    traj = br.integrate_minnorm(g, [-1.0], br.FlowSettings(h=1e-3, t_max=2.0, gtol=1e-10))
    assert traj.terminal_status == "converged" and len(traj) == 1


def test_minnorm_unit_speed_until_kink():
    lin = make_linear_1d()
    g = br.MaxFunction(pieces=(lin, br.constant_objective(1, 0.0, lin.box)))
    traj = br.integrate_minnorm(g, [1.0], br.FlowSettings(h=1e-3, t_max=3.0, gtol=1e-10))
    assert traj.terminal_status == "converged"
    assert abs(traj.final_state.t - 1.0) <= 2e-3  # stalls at x = 0 at t ~ 1
    assert abs(traj.final_x[0]) <= 1e-9


# --- sphere exit ---------------------------------------------------------------

def test_sphere_exit_exact(quad1):
    t_exit, b = br.sphere_exit(quad1, [0.5], "reverse", [0.0], 1.0,
                               settings(t_max=5.0))
    assert abs(t_exit - math.log(2.0)) <= 1e-6
    assert abs(abs(b[0]) - 1.0) <= 1e-8


def test_sphere_exit_boundary_start(quad1):
    r = 1.0 - 1e-12
    t_exit, b = br.sphere_exit(quad1, [r], "reverse", [0.0], 1.0, settings(t_max=5.0))
    assert 0.0 <= t_exit <= 1e-3
    assert abs(abs(b[0]) - 1.0) <= 1e-8


def test_sphere_exit_no_crossing_forward(quad1):
    with pytest.raises(br.NoCrossingError):
        br.sphere_exit(quad1, [0.5], "forward", [0.0], 2.0,
                       settings(t_max=3.0, gtol=1e-8))


@pytest.mark.parametrize("direction,delta,st,exc,message", [
    ("forward", 2.0, settings(t_max=20.0, gtol=1e-3), br.NoCrossingError, "stationary point"),
    ("reverse", 20.0, settings(t_max=5.0), LeftBoxError, "left the operating box"),
], ids=["stationary", "left-box"])
def test_sphere_exit_stops_inside_the_sphere(quad1, direction, delta, st, exc, message):
    with pytest.raises(exc, match=message):
        br.sphere_exit(quad1, [0.5], direction, [0.0], delta, st)


def test_sphere_exit_postcondition_sweep(quad14):
    st = settings(t_max=10.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        x0 = rng.uniform(-0.2, 0.2, 2)
        delta = rng.uniform(0.5, 2.0)
        if np.linalg.norm(x0) >= delta:
            continue
        _, b = br.sphere_exit(quad14, x0, "reverse", [0.0, 0.0], delta, st)
        assert abs(np.linalg.norm(b) - delta) <= 1e-8 * delta


def test_sphere_exit_requires_interior_start(quad1):
    with pytest.raises(ValueError):
        br.sphere_exit(quad1, [1.5], "reverse", [0.0], 1.0, settings())


def test_sphere_exit_start_on_the_sphere_by_its_own_radius(quad14):
    # |x0| is delta by the index-order norm the crossing event measures, and
    # 1 ulp below it by np.linalg.norm: the start check must use the former
    x0 = [-0.049660633350713024, 0.29632427028729424]
    delta = 0.30045673842683474
    assert np.linalg.norm(x0) < delta <= norm(x0)
    with pytest.raises(ValueError, match="requires"):
        br.sphere_exit(quad14, x0, "reverse", [0.0, 0.0], delta, settings(h=1e-2, t_max=5.0))


# --- path length and the KL bound ----------------------------------------------

def test_path_length_flow(quad1):
    traj = br.integrate(quad1, [2.0], "forward", settings(t_max=40.0, gtol=1e-6))
    assert traj.terminal_status == "converged"
    # monotone ray to the origin: length -> |x0| as gtol -> 0
    assert br.path_length(traj) == pytest.approx(2.0, abs=1e-5)


def test_path_length_discrete_telescoping(quad1):
    traj = br.run_gd(quad1, [2.0], br.constant(0.5), gtol=1e-9)
    assert abs(br.path_length(traj) - 2.0) <= 1e-9


def test_path_length_constant_trajectory(quad1):
    traj = br.integrate(quad1, [0.0], "reverse", settings(t_max=0.05))
    assert len(traj) > 1
    assert br.path_length(traj) == 0.0
    single = br.integrate(quad1, [0.0], "forward", settings(gtol=1e-9))
    with pytest.raises(ValueError):
        br.path_length(single)


def test_length_bound_equality_witness(quad1):
    # |x0| = sqrt(2 f(x0)) exactly for 0.5 x^2, so psi(s) = sqrt(2 s) is tight
    model = br.DesingularizationModel(coeff=math.sqrt(2.0), exponent=0.5)
    traj = br.integrate(quad1, [2.0], "forward", settings(t_max=40.0, gtol=1e-6))
    lhs, rhs, ok = br.check_length_bound(traj, model, quad1)
    assert ok
    assert lhs == pytest.approx(2.0, abs=1e-4)
    assert rhs == pytest.approx(2.0, abs=1e-6)


def test_length_bound_on_axis(quad14):
    # motion from (1, 0) stays on the x1-axis by symmetry
    model = br.DesingularizationModel(coeff=math.sqrt(2.0), exponent=0.5)
    traj = br.integrate(quad14, [1.0, 0.0], "forward",
                        br.FlowSettings(h=0.01, t_max=40.0, gtol=1e-6))
    assert all(st.x[1] == 0.0 for st in traj.states)
    lhs, rhs, ok = br.check_length_bound(traj, model, quad14)
    assert ok and lhs == pytest.approx(1.0, abs=1e-4) and rhs == pytest.approx(1.0, abs=1e-6)


def test_length_bound_zero_length(quad1):
    traj = br.integrate(quad1, [0.0], "reverse", settings(t_max=0.05))
    lhs, rhs, ok = br.check_length_bound(
        traj, br.DesingularizationModel(coeff=1.0, exponent=0.5))
    assert ok and lhs == 0.0 and rhs == 0.0


# --- adaptive DP5 against fixed-step RK4 -------------------------------------------

HB = br.make_builtin("himmelblau")
DW = br.make_builtin("double_well")
Q3 = br.make_builtin("quad", (1.0, 2.0, 5.0))


@pytest.mark.parametrize("f,x0,direction,t_end", [
    (DW, [0.5], "forward", 1.0),
    (DW, [0.9], "reverse", 0.5),
    (HB, [2.5, 1.5], "forward", 0.5),
    (HB, [3.1, 2.1], "reverse", 0.02),
    (Q3, [1.0, -2.0, 0.5], "forward", 1.0),
    (Q3, [0.1, -0.2, 0.05], "reverse", 1.0),
], ids=["1d-forward", "1d-reverse", "2d-forward", "2d-reverse", "3d-forward", "3d-reverse"])
def test_end_points_match_fine_fixed_step_rk4(f, x0, direction, t_end):
    st = br.FlowSettings(h=0.05 / f.lipschitz_L, t_max=t_end, gtol=1e-12)
    traj = br.integrate(f, x0, direction, st)
    assert traj.terminal_status == "budget_exhausted" and traj.t[-1] == t_end
    ref = rk4_flow(f, x0, -1.0 if direction == "forward" else 1.0, 1e-2 / f.lipschitz_L, t_end)
    assert np.linalg.norm(traj.final_x - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))


def test_forward_flow_reaches_a_small_gtol_off_the_origin(monkeypatch):
    # near (3, 2) the steps reach the stability boundary of the Hessian's
    # larger eigenvalue; uncapped, that mode chatters at the tolerance,
    # rtol |x| ~ 4e-10, holding |grad f| near 1.4e-8 until t_max with
    # about 1,360 steps
    calls = count_dp5_steps(monkeypatch)
    traj = br.integrate(HB, [3.3, 2.4], "forward", br.FlowSettings(h=3e-4, t_max=50.0,
                                                                   gtol=1e-9))
    assert traj.terminal_status == "converged" and traj.gnorm[-1] < 1e-9
    assert len(calls) <= 200 and np.diff(traj.t).max() <= 3.0 / HB.lipschitz_L * (1 + 1e-12)


@pytest.mark.parametrize("f", [br.make_builtin("quad", (1.0, 4.0)), Q3, HB],
                         ids=["float-lane", "ndarray-lane", "himmelblau"])
def test_sphere_crossings_land_on_the_sphere(f):
    # crossings located on the dense output, forward and reverse, on both
    # lanes, sit on the sphere to 1e-8 delta
    rng = np.random.default_rng(7)
    center = f.critical_points[0].point
    st = br.FlowSettings(h=0.1 / f.lipschitz_L, t_max=20.0, gtol=1e-12)
    for direction in ("reverse", "forward"):
        for _ in range(10):
            delta = rng.uniform(0.05, 0.5)
            d = rng.normal(size=f.dim)
            d /= np.linalg.norm(d)
            if direction == "reverse":  # from inside the sphere around the minimum
                x0, c = center + rng.uniform(1e-3, 0.5) * delta * d, center
            else:  # down to the minimum, which lies outside the sphere
                x0 = center + rng.uniform(0.6, 1.0) * delta * d
                c = x0 + 0.5 * delta * d
            t_exit, b = br.sphere_exit(f, x0, direction, c, delta, st)
            assert t_exit > 0.0
            assert abs(np.linalg.norm(b - c) - delta) <= 1e-8 * delta
