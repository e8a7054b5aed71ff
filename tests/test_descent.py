import math
import re

import numpy as np
import pytest

import basinreach as br
from basinreach.landscape import LeftBoxError


def shifted_quad():
    """0.5 (x - 20)^2 on [-10, 10]: its minimum lies outside the box."""
    return br.ObjectiveFunction(
        dim=1,
        f=lambda x: 0.5 * float((x[0] - 20.0) ** 2),
        grad=lambda x: np.array([x[0] - 20.0]),
        lipschitz_L=1.0,
        box=np.array([[-10.0, 10.0]]),
        name="shifted_quad",
    )


# --- gd_step ----------------------------------------------------------------

def test_gd_step_examples(quad1, himmelblau):
    assert br.gd_step(quad1, [1.0], 0.5)[0] == 0.5
    assert br.gd_step(quad1, [0.0], 0.9)[0] == 0.0
    assert np.array_equal(br.gd_step(himmelblau, [3.0, 2.0], 0.001), [3.0, 2.0])


def test_gd_step_preconditions(quad1):
    with pytest.raises(ValueError, match=r"gd_step needs sup alpha < 2/L .*2/L = 2\.0"):
        br.gd_step(quad1, [1.0], 2.0)  # a >= 2/L
    for a in (-0.5, 0.0, -0.0):  # an ascent step, and no step
        with pytest.raises(ValueError, match="must be positive"):
            br.gd_step(quad1, [1.0], a)
    with pytest.raises(LeftBoxError):
        br.gd_step(quad1, [11.0], 0.5)  # x outside box
    exc = None
    try:
        br.gd_step(shifted_quad(), [5.0], 1.9)  # 5 - 1.9*(-15) = 33.5
    except LeftBoxError as e:
        exc = e
    assert exc is not None and exc.point[0] == pytest.approx(33.5)


# --- run_gd -----------------------------------------------------------------

def test_run_gd_geometric(quad1):
    traj = br.run_gd(quad1, [1.0], br.constant(0.5), gtol=1e-8)
    assert traj.terminal_status == "converged"
    for st in traj.states:
        assert st.x[0] == 2.0 ** -st.k  # exact powers of two
    assert abs(traj.limit[0]) < 1e-7


def test_run_gd_critical_start(dw):
    traj = br.run_gd(dw, [0.0], br.constant(0.01), gtol=1e-10)
    assert traj.terminal_status == "converged"
    assert len(traj) == 1 and traj.limit[0] == 0.0


def test_run_gd_into_positive_basin(dw):
    # sign never flips: small steps descend into the x > 0 basin toward +1
    traj = br.run_gd(dw, [0.3], br.constant(0.05), gtol=1e-10, max_iter=10**5)
    assert traj.terminal_status == "converged"
    assert abs(traj.limit[0] - 1.0) <= 1e-6
    assert all(st.x[0] > 0.0 for st in traj.states)


def test_run_gd_left_box():
    f = shifted_quad()
    traj = br.run_gd(f, [5.0], br.constant(1.0), gtol=1e-12, max_iter=100)
    assert traj.terminal_status == "left_box"
    assert not f.in_box(traj.final_x)


def test_run_gd_rejects_inadmissible(quad1):
    with pytest.raises(ValueError):
        br.run_gd(quad1, [1.0], br.constant(2.1))


@pytest.mark.parametrize("gtol,max_iter,message", [
    (float("nan"), 10, "^gtol must be nonnegative and finite, got nan$"),
    (-1.0, 10, "^gtol must be nonnegative and finite, got -1.0$"),
    (0.0, -1, "^max_iter must be a nonnegative integer, got -1$"),
    (float("inf"), 10, "^gtol must be nonnegative and finite, got inf$"),
], ids=["nan-gtol", "negative-gtol", "negative-max-iter", "infinite-gtol"])
def test_run_gd_rejects_bad_stops(himmelblau, gtol, max_iter, message):
    # each would run to no stop: |g| < gtol never holds, k never reaches -1;
    # gtol = inf would stop at once, converged at a point that is not critical
    with pytest.raises(ValueError, match=message):
        br.run_gd(himmelblau, [0.0, 0.0], br.constant(0.001), gtol=gtol, max_iter=max_iter)
    traj = br.run_gd(himmelblau, [0.0, 0.0], br.constant(0.001), gtol=0.0, max_iter=0)
    assert traj.terminal_status == "budget_exhausted" and len(traj) == 1


def test_run_gd_budget(quad1):
    traj = br.run_gd(quad1, [1.0], br.constant(0.5), gtol=1e-10, max_iter=3)
    assert traj.terminal_status == "budget_exhausted"
    assert len(traj) == 4


def test_run_gd_deterministic(himmelblau):
    s = br.power(0.5 / himmelblau.lipschitz_L, 0.5)
    t1 = br.run_gd(himmelblau, [2.5, 1.5], s, gtol=1e-8)
    t2 = br.run_gd(himmelblau, [2.5, 1.5], s, gtol=1e-8)
    assert len(t1) == len(t2)
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a.x, b.x) and a.f_value == b.f_value


# --- classify_limit ---------------------------------------------------------

def test_classify_examples(quad1, dw):
    assert br.classify_limit(quad1, [0.0]).kind == "local_min"
    assert br.classify_limit(dw, [0.0]).kind == "local_max"  # f''(0) = -4
    assert br.classify_limit(dw, [0.5]).kind == "non_stationary"  # f'(0.5) = -1.5


@pytest.mark.parametrize("x,message", [
    ([math.nan], "x must be finite, got [nan]"),
    ([1.0, 2.0], "x must have shape (1,) for dim = 1, got shape (2,)")])
def test_classify_rejects_a_bad_point(quad1, x, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        br.classify_limit(quad1, x)


def test_classify_takes_a_point_past_the_box(quad1):
    # limits may sit on the padded box edge, so no box check: a finite point
    # past the edge is classified, here by its gradient
    assert br.classify_limit(quad1, quad1.box[:, 1] + 1.0).kind == "non_stationary"


def test_classify_saddle(saddle_quad):
    assert br.classify_limit(saddle_quad, [0.0, 0.0]).kind == "saddle"


def test_classify_without_hessian():
    f = br.ObjectiveFunction(
        dim=1, f=lambda x: 0.5 * float(x[0] ** 2), grad=lambda x: x.copy(),
        lipschitz_L=1.0, box=np.array([[-2.0, 2.0]]))
    cls = br.classify_limit(f, [0.0])
    assert cls.kind == "local_min" and cls.low_confidence


def flat(dim):
    return br.ObjectiveFunction(dim=dim, f=lambda x: 0.0, grad=lambda x: np.zeros(dim),
                                hessian=lambda x: np.zeros((dim, dim)), lipschitz_L=0.0,
                                box=np.array([[-1.0, 1.0]] * dim))


NEG_QUARTIC = br.ObjectiveFunction(  # -x^4: a zero Hessian at a strict maximum
    dim=1, f=lambda x: -float(x[0]) ** 4, grad=lambda x: np.array([-4.0 * x[0] ** 3]),
    hessian=lambda x: np.array([[-12.0 * x[0] ** 2]]), lipschitz_L=12.0,
    box=np.array([[-1.0, 1.0]]))


@pytest.mark.parametrize("f,tol,expected", [
    (NEG_QUARTIC, 1e-4, ("local_max", False)),
    (flat(1), 1e-6, ("local_min", True)),
    (flat(2), 1e-6, ("local_min", True)),
], ids=["negative-quartic", "flat-1-d", "flat-2-d"])
def test_classify_by_sphere_samples_where_the_hessian_is_flat(f, tol, expected):
    # the samples at radius sqrt(tol) decide where every eigenvalue is
    # within tol of 0; none above or below f's value is a weak minimum at
    # best, flagged low-confidence
    assert tuple(br.classify_limit(f, np.zeros(f.dim), tol=tol)) == expected


def test_converged_limits_are_critical(quad14, dw, himmelblau):
    # Every converged run lands on a classified critical point; random
    # starts are expected to find minima, which we do not assert per-start.
    rng = np.random.default_rng(5)
    for f in (quad14, dw, himmelblau):
        s = br.constant(0.5 / f.lipschitz_L)
        lo, hi = f.box[:, 0], f.box[:, 1]
        kinds = set()
        for _ in range(100):
            x0 = lo + rng.random(f.dim) * (hi - lo)
            traj = br.run_gd(f, x0, s, gtol=1e-9, max_iter=10**5)
            if traj.terminal_status != "converged":
                continue
            cls = br.classify_limit(f, traj.limit, tol=1e-5)
            assert cls.kind in ("local_min", "local_max", "saddle")
            kinds.add(cls.kind)
        assert "local_min" in kinds


# --- certificates ------------------------------------------------------------

def test_descent_certificates(dw, himmelblau):
    for f, x0 in ((dw, [0.37]), (himmelblau, [2.0, 1.0])):
        s = br.constant(0.5 / f.lipschitz_L)
        traj = br.run_gd(f, x0, s, gtol=1e-9, max_iter=10**5)
        assert br.descent_certificate_violations(f, traj, s) == []


def test_certificate_detects_forged_state(quad1):
    s = br.constant(0.5)
    traj = br.run_gd(quad1, [1.0], s, gtol=1e-8)
    X = traj.X.copy()
    X[-1] += 0.1
    forged = br.Trajectory(traj.t, X, traj.f, traj.gnorm,
                           terminal_status="converged", limit=traj.limit)
    assert br.descent_certificate_violations(quad1, forged, s) != []


@pytest.mark.parametrize("c,rise,expected", [
    (0.5, 0.0, ["descent inequality violated at k=0"]),
    (1.5, 1.0, ["f increased at k=0: 0.5 -> 1.5"]),
    (0.5, 1.0, ["f increased at k=0: 0.5 -> 1.5", "descent inequality violated at k=0"]),
], ids=["no-decrease-under-1-over-L", "rise-under-2-over-L", "rise-under-1-over-L"])
def test_certificate_names_a_tampered_value(quad1, c, rise, expected):
    # f(x_1) set to f(x_0) + rise: a rise breaks monotonicity whenever sup
    # alpha < 2/L, and no decrease breaks the descent inequality, checked
    # only when sup alpha < 1/L; the points still satisfy the recurrence
    s = br.constant(c)
    traj = br.run_gd(quad1, [1.0], s, gtol=1e-8)
    fv = traj.f.copy()
    fv[1] = fv[0] + rise
    tampered = br.Trajectory(traj.t, traj.X, fv, traj.gnorm,
                             terminal_status="converged", limit=traj.limit)
    assert br.descent_certificate_violations(quad1, tampered, s) == expected
