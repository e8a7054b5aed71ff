import dataclasses
import itertools
import math

import numpy as np
import pytest

import basinreach as br
import basinreach.flow as flow
import basinreach.reach as reach
from basinreach.landscape import norm

from conftest import (count_flow_steps, counting, dop853_step, make_linear_1d, minnorm_euler,
                      rk4_flow, same_states)


def settings(h=0.01, t_max=1.0, gtol=1e-12):
    return br.FlowSettings(h=h, t_max=t_max, gtol=gtol)


# --- settings and model validation ------------------------------------------

def test_settings_validation():
    with pytest.raises(ValueError):
        br.FlowSettings(h=0.0, t_max=1.0)
    for t_max, gtol, message in ((0.0, 1e-8, "^t_max must be positive, got 0.0$"),
                                 (1.0, -1e-8, "^gtol must be positive and finite, got -1e-08$"),
                                 (1.0, math.inf, "^gtol must be positive and finite, got inf$")):
        with pytest.raises(ValueError, match=message):
            br.FlowSettings(h=0.01, t_max=t_max, gtol=gtol)
    # h, t_max and gtol are the only settings: a crossing's tolerance is its own
    assert [f.name for f in dataclasses.fields(br.FlowSettings)] == ["h", "t_max", "gtol"]


def test_settings_reject_an_infinite_first_step():
    # an unbounded time budget stays allowed
    for h in (math.inf, math.nan):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            br.FlowSettings(h=h, t_max=1.0)
    assert br.FlowSettings(h=0.01, t_max=math.inf).t_max == math.inf


def test_first_trial_step_clamped_to_the_step_cap(dw, himmelblau):
    # the adaptive flow takes min(h, H_STABLE/L) as its first trial step,
    # under the cap every later step obeys: any larger h runs as h =
    # H_STABLE/L does, state for state
    for f, x0 in ((dw, [0.5]), (himmelblau, [0.0, 0.0])):
        cap = flow.H_STABLE / f.lipschitz_L
        clamped = br.integrate(f, x0, "forward", settings(h=cap))
        assert 0.0 < clamped.t[1] <= cap
        for h in (math.nextafter(cap, math.inf), 1.0, 1e3):
            traj = br.integrate(f, x0, "forward", settings(h=h))
            assert same_states(traj.states, clamped.states)


@pytest.mark.parametrize("name,x0,h", [("himmelblau", [0.0, 0.0], 1e-3),
                                       ("double_well", [0.5], 1e-2)])
def test_first_trial_step_is_h_below_the_cap(name, x0, h):
    # 0.1/L < h <= H_STABLE/L (himmelblau: 3.06e-4 < 1e-3 <= 1.84e-2;
    # double_well: 4.35e-3 < 1e-2 <= 0.26): the first trial step is h
    # itself, and the error test accepts it
    f = br.make_builtin(name)
    assert 0.1 / f.lipschitz_L < h <= flow.H_STABLE / f.lipschitz_L
    assert br.integrate(f, x0, "forward", settings(h=h)).t[1] == h


def test_integrate_rejects_an_unknown_direction(quad1):
    with pytest.raises(ValueError, match="^direction must be one of "):
        br.integrate(quad1, [0.5], "sideways", settings())


# --- smooth integration -------------------------------------------------------

def test_forward_flow_exponential(quad1):
    traj = br.integrate(quad1, [1.0], "forward", settings())
    assert abs(traj.final_x[0] - math.exp(-1.0)) <= 1e-6
    assert traj.final_state.t == pytest.approx(1.0)


def test_reverse_flow_exponential(quad1):
    traj = br.integrate(quad1, [0.5], "reverse", settings())
    assert abs(traj.final_x[0] - 0.5 * math.e) <= 1e-6


def test_flow_from_critical_point(quad1, dw):
    # a reverse run stops at gtol as a forward run does: a start at a
    # minimum or a maximum is its own limit, with no step taken
    for f, direction in itertools.product((quad1, dw), flow.DIRECTIONS):
        traj = br.integrate(f, [0.0], direction, settings(gtol=1e-9))
        assert traj.terminal_status == "converged" and len(traj) == 1
        assert traj.limit.tolist() == [0.0]


@pytest.mark.parametrize("name,x0,max_steps", [("double_well", [0.5], 60),
                                               ("himmelblau", [0.0, -0.5], 87)])
def test_reverse_flow_stops_at_the_maximum(name, x0, max_steps):
    # a reverse run is the gradient flow of -f: with no time budget it ends
    # at gtol, at the cataloged maximum (55 and 79 steps at gtol 1e-8)
    f = br.make_builtin(name)
    top = next(cp.point for cp in f.critical_points if cp.kind == "local_max")
    traj = br.integrate(f, x0, "reverse", br.FlowSettings(h=1e-3, t_max=math.inf))
    assert traj.terminal_status == "converged" and "stopped_on" not in traj.provenance
    assert traj.gnorm[-1] < 1e-8 <= traj.gnorm[:-1].min()
    assert norm(traj.limit - top) <= 1e-8 and len(traj) - 1 <= max_steps


def test_reverse_flow_leaves_box(quad1):
    traj = br.integrate(quad1, [1.0], "reverse", settings(t_max=5.0))
    assert traj.terminal_status == "left_box"


def test_energy_dissipation_quantified(quad1):
    # per step of length dt: |f(x_{k+1}) - f(x_k) + |dx|^2 / dt| <= C dt^2
    # with C = 1 on 0.5 x^2, the fixed-step bound C h over unit time
    # spread over its steps; f falls along the flow
    for h in (0.01, 0.005):
        traj = br.integrate(quad1, [1.0], "forward", settings(h=h))
        assert traj.t[-1] == 1.0 and len(traj) > 5
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
    # reference DOP853 step on ndarrays bit for bit, and each state is the
    # step it accepted
    for f, x0 in LANES:
        calls = count_flow_steps(monkeypatch)
        traj = br.integrate(f, x0, "forward", settings(h=0.01, t_max=2.0))
        field = lambda y: -f.gradient(y)
        assert len(calls) >= len(traj) - 1 > 10
        for (_, x, sh, _), (x_new, _, e5, e3) in calls:
            ref, _, ref_e5, ref_e3 = dop853_step(field, np.array(x), -sh)
            assert ref.tobytes() == np.array(x_new).tobytes()
            assert ref_e5.tobytes() == np.array(e5).tobytes()
            assert ref_e3.tobytes() == np.array(e3).tobytes()
        accepted = {np.array(out[0]).tobytes() for _, out in calls}
        assert all(x.tobytes() in accepted for x in traj.X[1:])
        monkeypatch.undo()


def test_flow_step_reuses_gradient_as_k1(monkeypatch):
    # a DOP853 step takes 11 new gradients for its stages 2-12, and an
    # accepted one a 12th: its stage 13, the gradient at the new point, which
    # is both its |grad f| and the next step's k1 (first same as last), so a
    # run without rejections takes 1 + 12 per step
    for f, x0 in LANES:
        f, counts = counting(f)
        calls = count_flow_steps(monkeypatch)
        traj = br.integrate(f, x0, "forward", settings(h=0.01, t_max=0.5))
        steps = len(traj.states) - 1
        assert steps == len(calls) > 1 and traj.t[-1] == 0.5
        assert counts == {"grad": 1 + 12 * steps, "value": 1 + steps}
        monkeypatch.undo()


# --- the DOP853 tableau ------------------------------------------------------------

# the nodes c_2..c_16 of DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10): stages 2-12, the 8th-order point and the dense output's stages
# 14-16; each row of the tableau sums to its node
S6 = math.sqrt(6.0)
NODES = ((12.0 - 2.0 * S6) / 135.0, (6.0 - S6) / 45.0, (6.0 - S6) / 30.0, (6.0 + S6) / 30.0,
         1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0, 0.1, 0.2, 7 / 9)


def test_tableau_rows_sum_to_their_nodes():
    rows = flow._A + flow._X
    assert [len(row) for row in rows] == list(range(1, 16)) and len(NODES) == 15
    for row, c in zip(rows, NODES):
        assert abs(math.fsum(row) - c) <= 4e-16 * math.fsum(map(abs, row))
    # both error estimates vanish on a constant field
    for weights in (flow._E5, flow._E3):
        assert len(weights) == 12
        assert abs(math.fsum(weights)) <= 4e-16 * math.fsum(map(abs, weights))


def test_weights_meet_their_quadrature_conditions():
    # the weights w_i(theta) the dense output gives the 16 stages integrate
    # t^(k-1) over [0, theta] exactly for k = 1..7 (order 7), and not for
    # k = 8; the error weights vanish on t^(k-1) for k up to the order of
    # their embedded method, 5 and 3
    c = np.array((0.0,) + NODES)
    f = br.make_builtin("quad", tuple(range(1, 17)))
    fl = flow._Flow(f, "reverse", settings())
    # the stages are unit vectors from the origin over unit time: at(theta) is w
    fl.x, fl.dt, fl.ks = np.zeros(16), 1.0, list(np.eye(16))
    for theta in (0.1, 0.5, 0.9):
        w = fl.at(theta)
        moments = [w @ c ** (k - 1) - theta ** k / k for k in range(1, 9)]
        assert np.all(np.abs(moments[:7]) <= 1e-14) and abs(moments[7]) > 1e-6
    for weights, order in ((flow._E5, 5), (flow._E3, 3)):
        moments = [np.array(weights) @ c[:12] ** (k - 1) for k in range(1, order + 2)]
        assert np.all(np.abs(moments[:order]) <= 1e-14) and abs(moments[order]) > 1e-4


def stability_coefficients():
    """The coefficients r_k = b^T A^(k-1) 1 of z^k in the stability function
    R(z) of the 12-stage tableau, r_0 = 1."""
    A = np.zeros((12, 12))
    for i, row in enumerate(flow._A[:-1], 1):
        A[i, :i] = row
    b, v, out = np.array(flow._A[-1]), np.ones(12), [1.0]
    for _ in range(12):
        out.append(float(b @ v))
        v = A @ v
    return out


def lane_R(f, z):
    """R(z) as the DOP853 step makes it on f's lane, once per eigenvalue mu
    of the quad f: the step of signed length z / mu along dx/dt = grad f(x)
    from x = 1 in every coordinate, read in mu's coordinate."""
    lane = f._lane
    x = lane.point(np.ones(f.dim))
    return [np.array(flow._dop853_step(lane, x, z / mu, lane.grad(x))[0])[i]
            for i, mu in enumerate(f.params)]


def test_stability_function_matches_exp_to_order_8():
    # R(z) - e^z = O(z^9): the coefficients of z^0..z^8 are 1/k!, that of
    # z^9 is not, and on both lanes the step makes R(z) with an error
    # against e^z that falls by 2^9 as z halves
    r = stability_coefficients()
    for k in range(9):
        assert r[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-13)
    assert r[9] != pytest.approx(1.0 / math.factorial(9), rel=1e-3)
    R = np.polynomial.Polynomial(r)
    for f, _ in LANES:
        for z in (-1.0, -0.5, 0.5):
            assert lane_R(f, z) == pytest.approx([R(z)] * f.dim, rel=1e-14)
        err = [np.array(lane_R(f, z)) - math.exp(z) for z in (-0.5, -0.25)]
        assert np.all((2.0 ** 8.5 <= err[0] / err[1]) & (err[0] / err[1] <= 2.0 ** 9.5))


def test_stability_interval_holds_the_step_cap():
    # |R(z)| <= 1 on [-H_STABLE, 0], on both lanes; the real stability
    # interval ends just past it, at -6.39
    R = np.polynomial.Polynomial(stability_coefficients())
    for f, _ in LANES:
        for z in np.linspace(-flow.H_STABLE, 0.0, 241):
            assert max(map(abs, lane_R(f, z))) <= 1.0
    assert abs(R(-6.39)) <= 1.0 < abs(R(-6.40))


def test_dense_output_ends_on_the_step():
    # on both lanes the dense output is the step's start at theta = 0 and
    # its end at theta = 1, bit for bit; its first use on a step takes the
    # 3 extra stages, and later uses none
    for f, x0 in LANES:
        f, counts = counting(f)
        fl = flow._Flow(f, "forward", settings(h=0.05))
        x = f._lane.point(x0)
        _, x_new = fl.step(0, 0.0, x, f._lane.grad(x))
        before = counts["grad"]
        assert fl.at(0.0) is x
        assert np.array(fl.at(1.0)).tobytes() == np.array(x_new).tobytes()
        fl.at(0.5)
        assert counts["grad"] == before + 3


def test_cross_stops_on_its_tolerance_alone(quad1):
    # Illinois regula falsi on the dense output stops once phi at the upper
    # end is within tol, however wide the bracket: a tolerance met at the
    # step's end takes that end, a tighter one a point on the step with 0 <=
    # phi <= tol; a phi that jumps from -1 to 1 inside the step is never
    # within tol, so its bracket collapses onto the jump and the 200
    # iterations run out
    fl = flow._Flow(quad1, "forward", settings(h=0.05))
    x = quad1._lane.point([1.0])
    _, (x_new,) = fl.step(0, 0.0, x, quad1._lane.grad(x))
    c = 0.5 * (1.0 + x_new)
    phi = lambda y: c - y[0]
    assert fl.cross(phi, phi(x), phi(fl.x_new), math.inf) == (fl.dt, fl.x_new)
    t, y = fl.cross(phi, phi(x), phi(fl.x_new), 1e-12)
    assert 0.0 < t < fl.dt and 0.0 <= phi(y) <= 1e-12
    jump = lambda y: -1.0 if y[0] > c else 1.0
    with pytest.raises(ArithmeticError, match="^crossing location did not converge$"):
        fl.cross(jump, -1.0, 1.0, 0.5)


def test_dop853_sums_are_one_lane_comb_each():
    # on both lanes a DOP853 step makes each of its 11 stage sums, its
    # 8th-order point and its two error estimates in one lane.comb call and
    # calls no axpy; the first dense output on a step makes 4 (its 3 extra
    # stages and the point), a later one only the point
    for f, x0 in LANES:
        calls = {"comb": 0, "axpy": 0}

        def counted(name, op):
            def op_counted(*args):
                calls[name] += 1
                return op(*args)
            return op_counted
        lane = f._lane._replace(comb=counted("comb", f._lane.comb),
                                axpy=counted("axpy", f._lane.axpy))
        x = lane.point(x0)
        flow._dop853_step(lane, x, -0.01, lane.grad(x))
        assert calls == {"comb": 14, "axpy": 0}
        fl = flow._Flow(f, "forward", settings(h=0.05))
        fl.lane = lane
        fl.step(0, 0.0, x, lane.grad(x))
        for theta, made in ((0.3, 4), (0.6, 1), (0.9, 1)):
            calls["comb"] = 0
            fl.at(theta)
            assert calls == {"comb": made, "axpy": 0}


def rotated_quartic(dim):
    """f(x) = u^4/4 + 3/2 (v^2 + w^2) in coordinates (u, v, w) = Qx, Q a
    rotation by 0.5 rad in the first plane, and the exact flow of -grad f:
    u(t) = u0 / sqrt(1 + 2 u0^2 t), v(t) = v0 e^(-3t)."""
    c, s = math.cos(0.5), math.sin(0.5)
    Q = np.eye(dim)
    Q[:2, :2] = [[c, s], [-s, c]]

    def grad(x):
        g = 3.0 * (Q @ x)
        g[0] = (Q @ x)[0] ** 3
        return Q.T @ g

    def exact(x0, t):
        y = Q @ x0
        out = y * math.exp(-3.0 * t)
        out[0] = y[0] / math.sqrt(1.0 + 2.0 * y[0] ** 2 * t)
        return Q.T @ out
    def value(x):
        y = Q @ x
        return float(0.25 * y[0] ** 4 + 1.5 * np.dot(y[1:], y[1:]))
    f = br.ObjectiveFunction(dim=dim, f=value, grad=grad, lipschitz_L=30.0,
                             box=[[-3.0, 3.0]] * dim)
    return f, exact


@pytest.mark.parametrize("dim", [2, 3], ids=["float-lane", "ndarray-lane"])
def test_local_errors_fall_at_their_orders(dim):
    # one step of h and of h/2 from the same point of a smooth nonlinear
    # field against its exact flow: the step's error falls by >= 2^8 (order
    # 8, local error O(h^9)), the 5th- and 3rd-order estimates by >= 2^5 and
    # 2^3, and the dense output's at theta = 1/4, 1/2, 3/4 by >= 2^7
    f, exact = rotated_quartic(dim)
    x0 = np.full(dim, 0.5)
    lane, errors = f._lane, []
    for h in (0.25, 0.125):
        x = lane.point(x0)
        x_new, ks, e5, e3 = flow._dop853_step(lane, x, -h, lane.grad(x))
        fl = flow._Flow(f, "forward", settings(h=h))
        # as _Flow.step keeps an accepted step, with its stage 13
        fl.t, fl.x, fl.dt, fl.x_new, fl.ks = 0.0, x, h, x_new, ks + [lane.grad(x_new)]
        dense = max(norm(np.array(fl.at(th)) - exact(x0, th * h)) for th in (0.25, 0.5, 0.75))
        errors.append((norm(np.array(x_new) - exact(x0, h)), norm(e5), norm(e3), dense))
    (step, est5, est3, dense), halved = errors
    assert step >= 2.0 ** 8 * halved[0] and halved[0] > 1e-13
    assert est5 >= 2.0 ** 5 * halved[1] and est3 >= 2.0 ** 3 * halved[2]
    assert dense >= 2.0 ** 7 * halved[3]


# --- min-norm flow -------------------------------------------------------------

def test_minnorm_matches_smooth_above_cap(quad1):
    # above the level, the min-norm flow of max{f, level} is the flow on f:
    # its states are a prefix of integrate's, bit for bit
    st = br.FlowSettings(h=1e-3, t_max=3.0, gtol=1e-12)
    capped = br.integrate_minnorm(quad1, [1.0], 0.1, st)
    smooth = br.integrate(quad1, [1.0], "forward", st)
    assert 2 < len(capped) < len(smooth)
    assert same_states(capped.states, smooth.states[:len(capped)])
    assert capped.f[-2] > 0.1 >= capped.f[-1]


def test_minnorm_stalls_immediately_below():
    # a start at or below the level is its own limit
    for x0 in (-1.0, 0.0):
        traj = br.integrate_minnorm(make_linear_1d(), [x0], 0.0,
                                    br.FlowSettings(h=1e-3, t_max=2.0, gtol=1e-10))
        assert traj.terminal_status == "converged" and len(traj) == 1
        assert traj.limit.tobytes() == traj.X[0].tobytes() == np.array([x0]).tobytes()


def test_minnorm_unit_speed_until_kink():
    # f(x) = x flows at unit speed: from x0 = 1 the level 0 is met at x = 0,
    # t = 1, on the last step, located with f within the level's tolerance
    # SEED_FLOOR_RTOL (1 + |0|) below it
    st = br.FlowSettings(h=1e-3, t_max=3.0, gtol=1e-10)
    traj = br.integrate_minnorm(make_linear_1d(), [1.0], 0.0, st)
    assert traj.terminal_status == "converged"
    assert traj.t[-2] < 1.0 <= traj.t[-1] and traj.X[-1, 0] <= 0.0 < traj.X[-2, 0]
    assert 0.0 <= -traj.limit[0] <= flow.SEED_FLOOR_RTOL


@pytest.mark.parametrize("t_max,status", [(100.0, "converged"), (0.5, "budget_exhausted")],
                         ids=["stalled", "budget"])
def test_minnorm_ending_above_the_level_has_no_limit(quad1, t_max, status):
    # a level below the minimum is never met: the run stalls on gtol or
    # runs out of time above it
    traj = br.integrate_minnorm(quad1, [1.0], -1.0, br.FlowSettings(h=0.1, t_max=t_max,
                                                                    gtol=1e-6))
    assert traj.terminal_status == status and traj.limit is None
    assert (traj.gnorm[-1] < 1e-6) == (status == "converged")


def test_minnorm_rejects_nonfinite_level(quad1):
    for level in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            br.integrate_minnorm(quad1, [1.0], level, settings())


def test_minnorm_euler_stall_approaches_the_crossing(himmelblau):
    # the explicit Euler rule on the min-norm element stalls within about
    # one step of the located crossing; the overshoot saws with h, so the
    # ratio to h is bounded, not monotone
    saddle = himmelblau.critical_points[8]
    x0 = saddle.point + np.array([0.05, 0.03])
    st = br.FlowSettings(h=3e-4, t_max=2.0, gtol=1e-6)
    crossing = br.integrate_minnorm(himmelblau, x0, saddle.f_value, st).limit
    assert crossing is not None
    for j in range(5):
        h = 3e-4 * 2.0 ** -j
        ref = minnorm_euler(himmelblau, x0, saddle.f_value, h, st.t_max, st.gtol)
        assert ref[-1].grad_norm < st.gtol and ref[-1].f_value == saddle.f_value
        assert norm(ref[-1].x - crossing) <= 1.5 * h


# --- sphere exit ---------------------------------------------------------------

def test_sphere_exit_exact(quad1):
    t_exit, b = flow._sphere_exit_detail(quad1, [0.5], "reverse", [0.0], 1.0,
                                         settings(t_max=5.0))[:2]
    assert abs(t_exit - math.log(2.0)) <= 1e-6
    assert abs(abs(b[0]) - 1.0) <= 1e-8


def test_sphere_exit_boundary_start(quad1):
    r = 1.0 - 1e-12
    t_exit, b = flow._sphere_exit_detail(quad1, [r], "reverse", [0.0], 1.0,
                                         settings(t_max=5.0))[:2]
    assert 0.0 <= t_exit <= 1e-3
    assert abs(abs(b[0]) - 1.0) <= 1e-8


def stops_inside(f, direction, delta, st, status):
    """A leg that stops before its sphere returns no crossing and its run,
    recorded, whose status says why it stopped and whose provenance names
    no stop event."""
    runs = []
    with br.record_trajectories(runs):
        t_end, b, traj = flow._sphere_exit_detail(f, [0.5], direction, [0.0], delta, st)
    assert b is None and runs == [traj]
    assert traj.terminal_status == status and "stopped_on" not in traj.provenance
    assert t_end == traj.t[-1] and traj.initial_x.tolist() == [0.5]
    assert traj.provenance["direction"] == direction
    return traj


def test_sphere_exit_no_crossing_forward(quad1):
    # the forward flow from 0.5 toward 0 runs out of time inside the 2-sphere
    traj = stops_inside(quad1, "forward", 2.0, settings(t_max=3.0, gtol=1e-8),
                        "budget_exhausted")
    assert traj.t[-1] == 3.0 and traj.limit is None and 0.0 < traj.final_x[0] < 0.5


@pytest.mark.parametrize("direction,delta,st,status", [
    ("forward", 2.0, settings(t_max=20.0, gtol=1e-3), "converged"),
    ("reverse", 20.0, settings(t_max=5.0), "left_box"),
], ids=["stationary", "left-box"])
def test_sphere_exit_stops_inside_the_sphere(quad1, direction, delta, st, status):
    traj = stops_inside(quad1, direction, delta, st, status)
    if status == "left_box":
        assert traj.limit is None and not quad1.in_box(traj.final_x)
    else:  # stopped at gtol, its limit its last state
        assert traj.gnorm[-1] < 1e-3 and np.array_equal(traj.limit, traj.final_x)


@pytest.mark.parametrize("minimum", [False, True], ids=["saddle-leg", "minimum-leg"])
def test_sphere_exit_from_a_seed_below_gtol(quad14, minimum):
    # |grad f| = 1e-9 < gtol at the seed: the reverse leg ends there, on
    # its one state, and the reach that asked for it skips the seed
    st = settings(h=1e-2, t_max=20.0, gtol=1e-8)
    t_end, b, traj = flow._sphere_exit_detail(quad14, [1e-9, 0.0], "reverse", [0.0, 0.0],
                                              0.5, st, minimum=minimum)
    assert b is None and t_end == 0.0 and len(traj) == 1
    assert traj.terminal_status == "converged" and "stopped_on" not in traj.provenance
    assert traj.limit.tolist() == [1e-9, 0.0]


def test_a_flow_reach_skips_seeds_below_gtol(quad14):
    # at gtol 1, every seed at radius 1e-3 (|grad f| <= 4e-3) is a
    # stationary point of the reverse flow: no seed escapes
    st = br.FlowSettings(h=1e-2, t_max=20.0, gtol=1.0)
    rep = br.reach_continuous(quad14, [0.0, 0.0], 1.0, st, 1e-3, 1e-4)
    assert rep.status == "no_escape" and rep.x0 is None


def test_a_flow_reach_records_each_seed_it_skips(quad14, monkeypatch):
    # the gtol-1 reach above: each seed's reverse leg stops at its start, and
    # every one of them is recorded, as every run is, with no crossing
    seeds = []

    def exit_detail(f, x0, *args, **kwargs):
        seeds.append(np.array(x0))
        return flow._sphere_exit_detail(f, x0, *args, **kwargs)
    monkeypatch.setattr(reach, "_sphere_exit_detail", exit_detail)
    st = br.FlowSettings(h=1e-2, t_max=20.0, gtol=1.0)
    runs = []
    with br.record_trajectories(runs):
        rep = br.reach_continuous(quad14, [0.0, 0.0], 1.0, st, 1e-3, 1e-4)
    assert rep.status == "no_escape" and len(seeds) > 1
    assert len(runs) == len(seeds)
    for traj, a in zip(runs, seeds):
        assert traj.provenance["producer"] == "flow"
        assert traj.provenance["direction"] == "reverse"
        assert traj.terminal_status == "converged" and "stopped_on" not in traj.provenance
        assert len(traj) == 1 and np.array_equal(traj.initial_x, a)
        assert abs(norm(a) - 1e-3) <= 1e-15


def test_sphere_exit_postcondition_sweep(quad14):
    st = settings(t_max=10.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        x0 = rng.uniform(-0.2, 0.2, 2)
        delta = rng.uniform(0.5, 2.0)
        if np.linalg.norm(x0) >= delta:
            continue
        _, b = flow._sphere_exit_detail(quad14, x0, "reverse", [0.0, 0.0], delta, st)[:2]
        assert abs(np.linalg.norm(b) - delta) <= 1e-8 * delta


def test_sphere_exit_requires_interior_start(quad1):
    with pytest.raises(ValueError):
        flow._sphere_exit_detail(quad1, [1.5], "reverse", [0.0], 1.0, settings())


def test_sphere_exit_start_on_the_sphere_by_its_own_radius(quad14):
    # |x0| is delta by the index-order norm the crossing event measures, and
    # 1 ulp below it by np.linalg.norm: the start check must use the former
    x0 = [-0.049660633350713024, 0.29632427028729424]
    delta = 0.30045673842683474
    assert np.linalg.norm(x0) < delta <= norm(x0)
    with pytest.raises(ValueError, match="requires"):
        flow._sphere_exit_detail(quad14, x0, "reverse", [0.0, 0.0], delta,
                                 settings(h=1e-2, t_max=5.0))


# --- path length and the KL bound ----------------------------------------------

def test_path_length_flow(quad1):
    traj = br.integrate(quad1, [2.0], "forward", settings(t_max=40.0, gtol=1e-6))
    assert traj.terminal_status == "converged"
    # monotone ray to the origin: length -> |x0| as gtol -> 0
    assert br.path_length(traj) == pytest.approx(2.0, abs=1e-5)


def test_path_length_discrete_telescoping(quad1):
    traj = br.run_gd(quad1, [2.0], br.constant(0.5), gtol=1e-9)
    assert abs(br.path_length(traj) - 2.0) <= 1e-9


def constant_run(quad1):
    # five GD steps that stay on the minimum: a run of several states and no length
    return br.run_gd(quad1, [0.0], br.constant(0.5), gtol=0.0, max_iter=5)


def test_path_length_constant_trajectory(quad1):
    traj = constant_run(quad1)
    assert len(traj) > 1
    assert br.path_length(traj) == 0.0
    single = br.integrate(quad1, [0.0], "forward", settings(gtol=1e-9))
    with pytest.raises(ValueError):
        br.path_length(single)


def length_bound(traj, f):
    """(lhs, rhs, ok) of the KL length bound with psi(s) = sqrt(2 s): lhs
    the path length, rhs = psi(f(first) - f(last)), ok iff lhs <= rhs (1 +
    1e-6) + 1e-9."""
    lhs = br.path_length(traj)
    rhs = math.sqrt(2.0 * max(f.value(traj.initial_x) - f.value(traj.final_x), 0.0))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6) + 1e-9


def test_length_bound_equality_witness(quad1):
    # |x0| = sqrt(2 f(x0)) exactly for 0.5 x^2, so psi(s) = sqrt(2 s) is tight
    traj = br.integrate(quad1, [2.0], "forward", settings(t_max=40.0, gtol=1e-6))
    lhs, rhs, ok = length_bound(traj, quad1)
    assert ok
    assert lhs == pytest.approx(2.0, abs=1e-4)
    assert rhs == pytest.approx(2.0, abs=1e-6)


def test_length_bound_on_axis(quad14):
    # motion from (1, 0) stays on the x1-axis by symmetry
    traj = br.integrate(quad14, [1.0, 0.0], "forward",
                        br.FlowSettings(h=0.01, t_max=40.0, gtol=1e-6))
    assert all(st.x[1] == 0.0 for st in traj.states)
    lhs, rhs, ok = length_bound(traj, quad14)
    assert ok and lhs == pytest.approx(1.0, abs=1e-4) and rhs == pytest.approx(1.0, abs=1e-6)


def test_length_bound_zero_length(quad1):
    traj = constant_run(quad1)
    lhs, rhs, ok = length_bound(traj, quad1)
    assert ok and lhs == 0.0 and rhs == 0.0


# --- adaptive DOP853 against fixed-step RK4 ----------------------------------------

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
    # near (3, 2), where |x| ~ 3.6 sets the tolerance rtol |x| ~ 4e-10, the
    # flow reaches |grad f| < 1e-9 within 80 attempted steps (at most 960
    # gradient points), none longer than the cap H_STABLE / L = 6 / L, which keeps
    # every mode of the Hessian inside the stability interval
    calls = count_flow_steps(monkeypatch)
    traj = br.integrate(HB, [3.3, 2.4], "forward", br.FlowSettings(h=3e-4, t_max=50.0,
                                                                   gtol=1e-9))
    assert traj.terminal_status == "converged" and traj.gnorm[-1] < 1e-9
    assert len(calls) <= 80 and np.diff(traj.t).max() <= 6.0 / HB.lipschitz_L * (1 + 1e-12)


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
            t_exit, b = flow._sphere_exit_detail(f, x0, direction, c, delta, st)[:2]
            assert t_exit > 0.0
            assert abs(np.linalg.norm(b - c) - delta) <= 1e-8 * delta
