import math

import numpy as np
import pytest

import basinreach as br
from basinreach.landscape import LeftBoxError, norm

from conftest import counting, make_linear_1d, rk4_step


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
    # |f(x(T)) - f(x(0)) + sum |dx|^2 / h| <= C h with C = 1 on 0.5 x^2
    for h in (0.01, 0.005):
        traj = br.integrate(quad1, [1.0], "forward", settings(h=h))
        fs = [st.f_value for st in traj.states]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
        dissipated = sum(
            float(np.linalg.norm(b.x - a.x)) ** 2 / h
            for a, b in zip(traj.states, traj.states[1:]))
        assert abs(fs[-1] - fs[0] + dissipated) <= 1.0 * h


def test_reverse_forward_mirror(quad14):
    st = settings(h=0.005, t_max=0.5)
    for x0 in (np.array([1.0, -0.5]), np.array([-0.3, 0.2]), np.array([0.7, 0.7])):
        rev = br.integrate(quad14, x0, "reverse", st)
        fwd = br.integrate(quad14, rev.final_x, "forward", st)
        bound = 10.0 * st.h * quad14.lipschitz_L * st.t_max * np.linalg.norm(x0)
        assert np.linalg.norm(fwd.final_x - x0) <= bound


def test_flow_recurrence_recomputable(quad14):
    st = settings(h=0.01, t_max=0.2)
    traj = br.integrate(quad14, [1.0, -0.5], "forward", st)
    field = lambda y: -quad14.gradient(y)
    for a, b in zip(traj.states, traj.states[1:]):
        assert rk4_step(field, a.x, st.h).tobytes() == b.x.tobytes()


def test_flow_step_reuses_gradient_as_k1(quad14):
    # RK4 needs k2, k3, k4 and the gradient at the new point, which is both
    # its |grad f| and the next step's k1
    f, counts = counting(quad14)
    traj = br.integrate(f, [1.0, -0.5], "forward", settings(h=0.01, t_max=0.5))
    steps = len(traj.states) - 1
    assert steps == 50
    assert counts == {"grad": 1 + 4 * steps, "value": 1 + steps}


# --- min-norm flow -------------------------------------------------------------

def test_minnorm_matches_smooth_above_cap(quad1):
    g = br.cap(quad1, 0.0)
    st = br.FlowSettings(h=1e-3, t_max=2.0, gtol=1e-12)
    capped = br.integrate_minnorm(g, [1.0], st)
    smooth = br.integrate(quad1, [1.0], "forward", st)
    n = min(len(capped), len(smooth))
    for a, b in zip(capped.states[:n], smooth.states[:n]):
        assert np.linalg.norm(a.x - b.x) <= 2.0 * st.h * (a.t + st.h)


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
