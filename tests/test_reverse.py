import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

import basinreach as br
import basinreach.reverse as reverse_mod
from basinreach.landscape import norm, row_norms
from basinreach.reverse import FIXED_POINT_RTOL, FORWARD_RESIDUAL_RTOL
from basinreach.serialize import write_reverse_part_csv

from conftest import (anderson_orbit, anderson_solve, contraction_iteration_bound, counting,
                      picard_solve)


BUILTINS = [("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ())]


def interior_points(f, n, rng, span=0.7):
    lo, hi = f.box[:, 0], f.box[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + (rng.random(f.dim) * 2.0 - 1.0) * span * half for _ in range(n)]


# --- prox --------------------------------------------------------------------

def test_prox_scalar_closed_form(quad1):
    # for 0.5 x^2 the implicit equation gives y = x / (1 + lam)
    assert br.prox(quad1, [1.5], 0.5)[0] == pytest.approx(1.0, abs=1e-12)
    assert br.prox(quad1, [0.0], 0.9)[0] == 0.0


def test_prox_fixes_critical_points(himmelblau):
    lam = 0.9 / himmelblau.lipschitz_L
    out = br.prox(himmelblau, [3.0, 2.0], lam)
    assert np.allclose(out, [3.0, 2.0], atol=1e-12)


def test_prox_rejects_large_lambda(quad1):
    with pytest.raises(ValueError):
        br.prox(quad1, [1.0], 1.0)
    with pytest.raises(ValueError):
        br.ascent_prox(quad1, [1.0], 1.5)
    with pytest.raises(ValueError):
        br.prox(quad1, [1.0], -0.1)


@pytest.mark.parametrize("lam,message", [
    (1.0, "prox_certificates needs sup alpha < 1/L (prox regime): sup alpha = 1.0"),
    (1.5, "prox_certificates needs sup alpha < 1/L (prox regime): sup alpha = 1.5"),
    (-0.5, "must be positive and finite, got -0.5")])
def test_prox_certificates_refuse_a_lam_outside_the_prox_regime(quad1, lam, message):
    # at lam = 1/L the step bound 2 lam / (1 - L lam) divides by zero, and
    # for lam above 1/L or below 0 no theorem backs the bound
    with pytest.raises(ValueError, match=re.escape(message)):
        br.prox_certificates(quad1, [1.5], lam, [0.5])


def test_prox_certificates_worked_example(quad1):
    xp = br.prox(quad1, [1.5], 0.5)
    dec_ok, step_ok = br.prox_certificates(quad1, [1.5], 0.5, xp)
    assert dec_ok and step_ok
    # direct substitution: drop 0.625 >= 0.25 and |dx| = 0.5 <= 3
    drop = quad1.value([1.5]) - quad1.value(xp)
    assert drop == pytest.approx(0.625, abs=1e-9)
    assert 0.5 * 0.5 * quad1.grad_norm(xp) ** 2 == pytest.approx(0.25, abs=1e-9)
    assert 2 * 0.5 / (1 - 0.5) * quad1.grad_norm([1.5]) == pytest.approx(3.0)


def test_prox_certificates_critical(quad1):
    assert br.prox_certificates(quad1, [0.0], 0.5, [0.0]) == (True, True)


def test_prox_certificate_sweep_double_well(dw):
    rng = np.random.default_rng(17)
    L = dw.lipschitz_L
    for _ in range(1000):
        x = interior_points(dw, 1, rng, span=1.0)[0]
        lam = (0.05 + 0.85 * rng.random()) / L
        xp = br.prox(dw, x, lam)
        assert br.prox_certificates(dw, x, lam, xp) == (True, True)


# --- ascent_prox -------------------------------------------------------------

def test_ascent_scalar_closed_form(quad1):
    # y = xnext / (1 - a)
    assert br.ascent_prox(quad1, [0.5], 0.5)[0] == pytest.approx(1.0, abs=1e-12)
    assert br.ascent_prox(quad1, [0.0], 0.5)[0] == 0.0
    y = br.ascent_prox(quad1, [0.5], 0.5)
    assert br.gd_step(quad1, y, 0.5)[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_round_trip(name, params):
    # x is drawn from the region where the ascent fixed point (which sits
    # up to 1/(1 - aL) farther out) stays inside the box
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(23)
    L = f.lipschitz_L
    for _ in range(50):
        a = (0.05 + 0.85 * rng.random()) / L
        x = interior_points(f, 1, rng, span=0.8 * (1.0 - a * L))[0]
        y = br.ascent_prox(f, x, a)
        back = br.gd_step(f, y, a)
        assert np.linalg.norm(back - x) <= 1e-10 * (1.0 + np.linalg.norm(x))
        fwd = br.gd_step(f, x, a)
        again = br.ascent_prox(f, fwd, a)
        assert np.linalg.norm(again - x) <= 1e-10 * (1.0 + np.linalg.norm(x))


def frame_solve(f, x, lam, sign):
    """(y, its forward residual, grad(y), tested iterates) of f's orbit frame
    run for one solve from x, an array, y and grad(y) as arrays, the first
    three None when T(y) left the box.  No gradient is handed in, so the
    frame takes one per tested iterate, counted here."""
    f, counts = counting(f)
    xs, residuals, grads, left = reverse_mod._orbit(f, f._lane.point(x), None, (lam,), sign)
    if left is not None:
        return None, None, None, counts["grad"]
    return np.array(xs[-1]), residuals[-1], np.array(grads[-1]), counts["grad"]


@pytest.mark.parametrize("name,params", BUILTINS)
def test_iteration_count_bound(name, params):
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(29)
    L = f.lipschitz_L
    for _ in range(50):
        x = interior_points(f, 1, rng)[0]
        lam = (0.1 + 0.8 * rng.random()) / L
        y, _, _, iters = frame_solve(f, x, lam, -1.0)
        assert y is not None and iters <= contraction_iteration_bound(lam, L)


SWEEP_BUILTINS = BUILTINS + [("quad", (1.0, 2.0, 5.0))]


@pytest.mark.parametrize("name,params", SWEEP_BUILTINS,
                         ids=["quad-2d", "double_well", "himmelblau", "quad-3d"])
def test_solves_agree_with_plain_picard(name, params):
    # both iterations stop at |T(y) - y| <= tol; plain Picard returns T(y),
    # within q/(1 - q) tol of the unique fixed point, the mixed solve the
    # tested y, within tol/(1 - q); starts span the whole box, so some fixed
    # points (or the iterates towards them) lie outside it
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(31)
    L, lo, hi = f.lipschitz_L, f.box[:, 0], f.box[:, 1]
    exits = 0
    for i in range(240):
        q, sign = 0.05 + 0.9 * rng.random(), (1.0, -1.0)[i % 2]
        x = lo + (hi - lo) * rng.random(f.dim)
        try:
            y_plain, _ = picard_solve(f, x, q / L, sign)
        except br.LeftBoxError:
            assert frame_solve(f, x, q / L, sign)[0] is None
            with pytest.raises(br.LeftBoxError):
                (br.ascent_prox if sign > 0 else br.prox)(f, x, q / L)
            with pytest.raises(br.LeftBoxError):
                anderson_solve(f, x, q / L, sign)
            exits += 1
            continue
        y, residual, g, iters = frame_solve(f, x, q / L, sign)
        y_ref, g_ref, iters_ref, miss_ref = anderson_solve(f, x, q / L, sign)
        assert miss_ref is None  # an unseeded first iterate is T's plain image
        assert y.tobytes() == y_ref.tobytes() and iters == iters_ref
        # the returned |(y - sign lam g) - x|, from the floats the solve holds
        assert residual == norm((y_ref + (-sign * (q / L)) * g_ref) - x)
        assert g.tobytes() == g_ref.tobytes() == f.gradient(y_ref).tobytes()
        tol = FIXED_POINT_RTOL * (1.0 + norm(x))
        assert norm(y - y_plain) <= (1.0 + q) / (1.0 - q) * tol
        assert iters <= contraction_iteration_bound(q / L, L)
    assert 0 < exits < 120


def same_orbit(orbit, points, residuals):
    """Whether an orbit's points (x_start first) and forward residuals are
    the reference's (anchor first), bit for bit."""
    return ([p.tobytes() for p in orbit.points] == [p.tobytes() for p in points[::-1]]
            and orbit.forward_residuals == tuple(residuals[::-1]))


def last_solve(f, anchor, a, k, g0=None):
    """(reverse_orbit's orbit of k steps a from ``anchor``, the points its
    last solve took gradients at, the reference's (history length, mixed
    point, secants fit) per iterate of that solve, the solve's count of
    tested iterates), after checking that the orbit takes its gradients at
    the points conftest.anderson_orbit takes them at and builds the same
    points and residuals, bit for bit.  That solve starts from the orbit's
    own last two steps and miss; ``g0``, an array, is the anchor's
    gradient, taken elsewhere when given."""
    points = []
    spy = dataclasses.replace(f, grad=lambda x: points.append(np.array(x)) or f.grad(x))
    orbit = br.reverse_orbit(spy, anchor, br.constant(a), k,
                             g0=None if g0 is None else spy._lane.point(g0))
    taken, mixes, iters = points[:], [], []
    points.clear()
    reference = anderson_orbit(spy, anchor, [a] * k, iters, mixes, g0)
    assert [p.tobytes() for p in taken] == [p.tobytes() for p in points]
    assert same_orbit(orbit, *reference)
    n = iters[-1] - 1  # one gradient and one record per tested iterate after the first
    return orbit, taken[len(taken) - n:], mixes[len(mixes) - n:], iters[-1]


RESTART_CASES = [  # (eigenvalues, base, where the first gradient is taken, history lengths)
    ((4.0,), [1.0], [-8.0], [0, 1, 0, 1]),
    ((1.0, 4.0), [1.0, 1.0], [-8.0, 8.0], [0, 1, 0, 1, 2]),
    ((1.0, 4.0, 6.0), [1.0, 1.0, 1.0], [-8.0, 8.0, -3.0], [0, 1, 2, 0, 1, 2]),
]


def test_mixing_restarts_when_a_mixed_iterate_does_not_contract():
    # an orbit's one solve from base handed a first gradient taken
    # elsewhere, as a horizon search's rebuild is handed the anchor's: the
    # history gets a residual difference that is no secant of T; the
    # iterate mixed from it contracts by less than q, so the history is
    # cleared and the next iterate is T's plain image.  On each lane (1-D,
    # 2-D, ndarray) the solve takes the reference's gradient points, whose
    # history lengths are listed; the fixed point is base_i / (1 - lam l_i)
    lam = 0.125
    for params, base, elsewhere, lengths in RESTART_CASES:
        f = br.make_builtin("quad", params)
        base = np.array(base)
        orbit, points, mixes, iters = last_solve(f, base, lam, 1, f.gradient(elsewhere))
        y, g = orbit.points[0], orbit.gradients[0]
        assert [n for n, _, _ in mixes[:len(lengths)]] == lengths
        restart = lengths.index(0, 1)
        assert points[restart].tobytes() == (base + lam * f.gradient(points[restart - 1])).tobytes()
        # the tested y and the gradient its test took, the last one evaluated
        assert y.tobytes() == points[-1].tobytes()
        assert np.array(g).tobytes() == f.gradient(y).tobytes()
        q, tol = lam * f.lipschitz_L, FIXED_POINT_RTOL * (1.0 + norm(base))
        assert norm(y - base / (1.0 - lam * np.array(params))) <= tol / (1.0 - q)
        assert iters == len(points) + 1


def power_well():
    """f(x) = |x|^2.5 / 2.5 on [-3, 3], L = 2.6 >= 1.5 sqrt(3): its
    gradient's curvature falls as |x| grows, so on an orbit climbing out
    a solve's miss grows more slowly than the square of its first step,
    and the rescaled miss carries the first mixed point past the fixed
    point."""
    return br.ObjectiveFunction(
        dim=1, f=lambda x: abs(x[0]) ** 2.5 / 2.5,
        grad=lambda x: [math.copysign(abs(x[0]) ** 1.5, x[0])],
        lipschitz_L=2.6, box=np.array([[-3.0, 3.0]]), name="power_well")


@pytest.mark.parametrize("f,anchor,q,face", [
    (power_well(), [1.0], 0.3, (0, 1.5337)),
    (br.make_builtin("himmelblau"), [3.001, 2.002], 0.5, (0, 3.0017052)),
    (br.make_builtin("quad", (1.0, 2.0, 5.0)), [1e-3, 2e-3, 3e-3], 0.5, (2, 0.0242)),
], ids=["picard1", "picard2", "picard-dim3"])
def test_a_shifted_point_outside_the_box_falls_back_to_t(f, anchor, q, face):
    # an orbit's third solve, the first seeded by two steps and shifted by
    # the last solve's rescaled miss: its shifted first mixed point lies
    # past the fixed point, and the box's upper face in coordinate i is
    # moved between the two, with the unshifted m still inside.  The solve
    # moves to T's plain image t instead, as for a mixed point outside the
    # box, and stops within its tolerance of the whole box's orbit point
    i, upper = face
    box = f.box.copy()
    box[i, 1] = upper
    cut, a = dataclasses.replace(f, box=box), q / f.lipschitz_L
    orbit, points, mixes, _ = last_solve(cut, anchor, a, 3)
    whole = br.reverse_orbit(f, anchor, br.constant(a), 3)
    p, g = orbit.points, [np.array(v) for v in orbit.gradients]
    # m, the reference's first mixed point of the same solve with no miss
    seeds = [((p[j + 1] - p[j]) + a * (g[j] - g[j + 1]), g[j] - g[j + 1], a) for j in (1, 2)]
    unshifted = []
    anderson_solve(cut, p[1], a, 1.0, g[1], seeds, unshifted)
    m, shifted = unshifted[0][1], mixes[0][1]
    assert mixes[0][0] == 2 and f.in_box(shifted) and not cut.in_box(shifted) and cut.in_box(m)
    assert points[0].tobytes() == (p[1] + a * g[1]).tobytes()
    # both tested iterates lie within tol/(1 - q) of the fixed point, so
    # within 2 tol/(1 - q) of each other
    tol = FIXED_POINT_RTOL * (1.0 + norm(p[1]))
    assert orbit.status == whole.status == "complete"
    assert norm(p[0] - whole.points[0]) <= 2.0 * tol / (1.0 - q)
    assert orbit.forward_residuals[0] <= FORWARD_RESIDUAL_RTOL * (1.0 + min(norm(p[1]),
                                                                            norm(p[0])))


def test_a_retry_fits_its_own_secant_alone_then_its_own_two():
    # a himmelblau orbit's 30th solve at 0.5/L, seeded by its last two
    # steps and shifted by the last solve's miss: its first mixed point,
    # fit from both steps' secants, lies in the box and misses; the next
    # mix fits the solve's own secant from base alone, not beside the
    # newest step, and the one after fits the solve's own two secants
    f = br.make_builtin("himmelblau")
    _, _, mixes, iters = last_solve(f, [3.001, 2.002], 0.5 / f.lipschitz_L, 30)
    assert iters == 4 and f.in_box(mixes[0][1])
    assert [(n, fit) for n, _, fit in mixes] == [(2, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("name,params,base,elsewhere", [
    ("double_well", (), [1.2], [-0.75]),  # fixed point 1.2665, face 1.5
    ("himmelblau", (), [4.5, 2.0], None),  # fixed point (4.9985, 2.0787), face x = 5
])
def test_a_mixed_point_outside_the_box_falls_back_to_t(name, params, base, elsewhere):
    # an orbit's one ascent solve near a box face whose mixed iterate lands
    # past it: the solve moves to T's plain image t instead and goes on
    # mixing.  In 1-D the overshoot comes from a first gradient taken
    # elsewhere than at base, as in the restart test
    f = br.make_builtin(name, params)
    base, lam = np.array(base), 0.5 / f.lipschitz_L
    g = f.gradient(base if elsewhere is None else elsewhere)
    _, points, mixes, _ = last_solve(f, base, lam, 1, g)
    out = [i for i, (_, m, _) in enumerate(mixes) if m is not None and not f.in_box(m)]
    assert out and all(f.in_box(p) for p in points)
    for i in out:
        before = g if i == 0 else f.gradient(points[i - 1])
        assert points[i].tobytes() == (base + lam * before).tobytes()
    assert any(m is not None and f.in_box(m) for _, m, _ in mixes[out[-1] + 1:])


@pytest.mark.parametrize("name,params", SWEEP_BUILTINS,
                         ids=["quad-2d", "double_well", "himmelblau", "quad-3d"])
def test_tested_iterate_lies_within_its_residual_bound(name, params):
    # |y - y*| <= |r|/(1 - q) for the tested y and r = T(y) - y, unseeded and
    # seeded (an orbit's points); y* by plain Picard to 1e-15, itself within
    # q/(1 - q) 1e-15 (1 + |base|) of the fixed point
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(37)
    L = f.lipschitz_L
    cases = []
    for i in range(60):
        q, sign = 0.05 + 0.9 * rng.random(), (1.0, -1.0)[i % 2]
        x = interior_points(f, 1, rng, span=0.5 * (1.0 - q))[0]
        y, _, g, _ = frame_solve(f, x, q / L, sign)
        cases.append((x, y, norm((x + sign * q / L * g) - y), q, sign))
    s = br.power(0.9 / L, 0.5)
    cp = next(c for c in f.critical_points if c.kind == "local_min")
    orbit = br.reverse_orbit(f, cp.point + 1e-3, s, 40)
    for i, (y, x) in enumerate(zip(orbit.points, orbit.points[1:])):
        a = s.alpha(orbit.start_index + i)
        cases.append((x, y, orbit.forward_residuals[i], a * L, 1.0))
    assert len(cases) > 80
    for x, y, r, q, sign in cases:
        tol = 1e-15 * (1.0 + norm(x))
        y_star, _ = picard_solve(f, x, q / L, sign, rtol=1e-15)
        assert norm(y - y_star) <= (r + tol) / (1.0 - q)


@pytest.mark.parametrize("name,params,points", [
    ("double_well", (), [[1.02], [1.05], [1.1]]),
    ("quad", (1.0, 4.0), [[0.1, 0.0], [0.15, 0.0], [0.22, 0.0]]),  # on an eigen-axis
    ("quad", (1.0, 2.0, 5.0), [[0.1, 0.0, 0.0], [0.15, 0.0, 0.0], [0.22, 0.0, 0.0]]),
])
def test_degenerate_seeds_fall_back_to_the_newest(name, params, points):
    # two secants in 1-D, or collinear ones from an orbit on an eigen-axis,
    # have a degenerate Gram determinant: the third solve of an orbit from
    # each of ``points`` mixes its first iterate from a history of both
    # steps' secants and fits the newest alone, as the reference's records
    # show, the orbit the reference's bit for bit
    f = br.make_builtin(name, params)
    a = 0.5 / f.lipschitz_L
    q = a * f.lipschitz_L
    for anchor in points:
        orbit, _, mixes, _ = last_solve(f, anchor, a, 3)
        assert (mixes[0][0], mixes[0][2]) == (2, 1)
        # the unseeded solve's y and this one both lie within tol/(1 - q) of
        # the fixed point (the contraction bound), so within 2 tol/(1 - q)
        base = orbit.points[1]
        tol = FIXED_POINT_RTOL * (1.0 + norm(base))
        unseeded = anderson_solve(f, base, a, 1.0)[0]
        assert norm(orbit.points[0] - unseeded) <= 2.0 * tol / (1.0 - q)


@pytest.mark.parametrize("name,params,x", [
    ("quad", (1.0, 2.0, 5.0), [0.3, -0.2, 0.1]),
    ("double_well", (), [0.5]),
    ("himmelblau", (), [1.0, 1.0]),
], ids=["picard-dim3", "picard1", "picard2"])
def test_a_solve_out_of_iterations_raises(monkeypatch, name, params, x):
    # one iteration allowed and a first test that fails: each of the three
    # orbit frames (the ndarray lane's, and the float lane's 1-D and 2-D
    # ones) runs out
    f = br.make_builtin(name, params)
    monkeypatch.setattr(reverse_mod, "_MAX_INNER_ITER", 1)
    for solve in (br.prox, br.ascent_prox):
        with pytest.raises(ArithmeticError, match="^fixed-point iteration failed to contract$"):
            solve(f, x, 0.5 / f.lipschitz_L)


# a builtin on each orbit frame with a start its first test passes at
# FIXED_POINT_RTOL = 1: |T(x) - x| = lam |grad f(x)| is under 1 + |x|
SHORT_CASES = [("double_well", (), [0.5]), ("himmelblau", (), [1.0, 1.0]),
               ("quad", (1.0, 2.0, 5.0), [0.3, -0.2, 0.1])]


def test_an_ascent_step_short_of_its_certificate_raises(monkeypatch):
    # a solve stopping at FIXED_POINT_RTOL = 1 stops on its first test, at
    # y = xnext, whose forward residual a |grad f(xnext)| is far above the
    # 1e-10 (1 + |y|) certificate, on each frame
    monkeypatch.setattr(reverse_mod, "FIXED_POINT_RTOL", 1.0)
    for name, params, x in SHORT_CASES:
        f = br.make_builtin(name, params)
        with pytest.raises(ArithmeticError, match="^ascent step failed its inverse certificate: "):
            br.ascent_prox(f, x, 0.5 / f.lipschitz_L)


def test_a_proximal_step_short_of_its_certificate_raises(monkeypatch):
    # the same for prox, its error naming the proximal step, on each frame
    monkeypatch.setattr(reverse_mod, "FIXED_POINT_RTOL", 1.0)
    for name, params, x in SHORT_CASES:
        f = br.make_builtin(name, params)
        with pytest.raises(ArithmeticError,
                           match="^proximal step failed its inverse certificate: "):
            br.prox(f, x, 0.5 / f.lipschitz_L)


# --- reverse_orbit -----------------------------------------------------------

def test_reverse_orbit_exact(quad1):
    orbit = br.reverse_orbit(quad1, [0.1], br.constant(0.5), 3)
    # x_k = 0.1 * 2^(3-k): each backstep divides by (1 - alpha)
    expected = [0.8, 0.4, 0.2, 0.1]
    assert orbit.status == "complete" and orbit.start_index == 0
    for p, e in zip(orbit.points, expected):
        assert abs(p[0] - e) <= 1e-12
    assert len(orbit.points) == 4  # steps 0, 1, 2
    for k, (p, nxt) in enumerate(zip(orbit.points, orbit.points[1:])):
        replay = br.gd_step(quad1, p, 0.5)
        assert abs(replay[0] - nxt[0]) <= 1e-12


def test_reverse_orbit_stopping_march(quad1):
    # the march stops at the first point past 0.5 and re-indexes from 0
    orbit = br.reverse_orbit(quad1, [0.1], br.constant(0.5), 100,
                             stop=lambda x: abs(x[0]) > 0.5)
    assert [p[0] for p in orbit.points] == pytest.approx([0.8, 0.4, 0.2, 0.1], abs=1e-12)
    assert orbit.start_index == 0 and len(orbit.points) == 4
    assert len(orbit.forward_residuals) == 3
    # p = 0 is the constant schedule, whichever constructor made it
    same = br.reverse_orbit(quad1, [0.1], br.power(0.5, 0.0), 100,
                            stop=lambda x: abs(x[0]) > 0.5)
    assert pickle.dumps(same) == pickle.dumps(orbit)
    with pytest.raises(ValueError, match="constant schedule"):
        br.reverse_orbit(quad1, [0.1], br.power(0.5, 0.5), 100, stop=lambda x: True)


def test_reverse_orbit_trivial_cases(quad1, himmelblau):
    orbit = br.reverse_orbit(quad1, [0.3], br.constant(0.5), 0)
    assert len(orbit.points) == 1 and orbit.points[0][0] == 0.3
    lam = 0.5 / himmelblau.lipschitz_L
    orbit = br.reverse_orbit(himmelblau, [3.0, 2.0], br.constant(lam), 5)
    for p in orbit.points:
        assert np.allclose(p, [3.0, 2.0], atol=1e-11)


@pytest.mark.parametrize("name,params,kbar", [
    ("quad", (1.0, 4.0), 12), ("double_well", (), 25), ("himmelblau", (), 25),
])
def test_orbit_certificates(name, params, kbar):
    f = br.make_builtin(name, params)
    s = br.constant(0.5 / f.lipschitz_L)
    cp = next(c for c in f.critical_points if c.kind == "local_min")
    anchor = cp.point + 1e-3 * np.ones(f.dim) / math.sqrt(f.dim)
    orbit = br.reverse_orbit(f, anchor, s, kbar)
    assert orbit.status == "complete"
    # exact-inverse certificate
    for p, r in zip(orbit.points, orbit.forward_residuals):
        assert r <= 1e-10 * (1.0 + np.linalg.norm(p))
    # ascent monotonicity: f(x_k) >= f(x_{k+1}) + (a_k/2)|grad f(x_{k+1})|^2 - 1e-9
    for i in range(len(orbit.points) - 1):
        a = s.alpha(orbit.start_index + i)
        fk = f.value(orbit.points[i])
        fk1 = f.value(orbit.points[i + 1])
        gn1 = f.grad_norm(orbit.points[i + 1])
        assert fk >= fk1 + 0.5 * a * gn1**2 - 1e-9
    # strict ascent while the gradient is nonzero
    values = [f.value(p) for p in orbit.points]
    if f.grad_norm(orbit.points[-1]) > 0.0:
        assert all(a > b for a, b in zip(values, values[1:]))


def test_orbit_takes_one_gradient_per_tested_iterate():
    # a solve's first tested iterate is its base, whose gradient the last
    # solve's test took (the anchor's is taken once); the forward residual
    # reuses the gradient of the last tested iterate.  Each solve's count
    # of tested iterates is the ndarray reference's, whose points the orbit
    # matches bit for bit
    plain = br.make_builtin("himmelblau")
    f, counts = counting(plain)
    a, anchor, iters = 0.5 / f.lipschitz_L, [3.001, 2.002], []
    orbit = br.reverse_orbit(f, anchor, br.constant(a), 40)
    points, _ = anderson_orbit(plain, anchor, [a] * 40, iters)
    m = len(orbit.points) - 1
    assert m == 40 and len(iters) == m
    assert [p.tobytes() for p in orbit.points] == [p.tobytes() for p in points[::-1]]
    assert counts == {"value": 0, "grad": 1 + sum(it - 1 for it in iters)}
    # seeded Anderson mixing from the shifted first point: 123 (154 unshifted);
    # unseeded: 189; plain Picard took 374
    assert sum(iters) <= 4.5 * m


def test_orbit_takes_two_norms_per_point(monkeypatch):
    # each solve takes |residual| and |y|; its |x_{k+1}| is the |y| of the
    # solve before it, so only the anchor's is taken afresh: counted as the
    # norm calls and the square roots of the norms the float lane writes out
    calls = []
    monkeypatch.setattr(reverse_mod, "norm", lambda v: calls.append(1) or norm(v))
    monkeypatch.setattr(reverse_mod, "sqrt", lambda v: calls.append(1) or math.sqrt(v))
    for f, anchor in [(br.make_builtin("double_well"), [1.0 + 1e-8]),
                      (br.make_builtin("himmelblau"), [3.001, 2.002]),
                      (br.make_builtin("quad", (1.0, 2.0, 5.0)), [1e-12, 2e-12, 3e-12])]:
        for s in (br.constant(0.5 / f.lipschitz_L), br.power(0.5 / f.lipschitz_L, 0.5)):
            calls.clear()
            orbit = br.reverse_orbit(f, anchor, s, 40)
            assert len(orbit.points) == 41 and len(calls) == 2 * 40 + 1


def test_power_orbit_takes_under_two_gradients_per_point():
    # the secants of the last two orbit steps make each solve's first mixed
    # iterate a quasi-Newton step, the last solve's rescaled miss moves it to
    # within third order, and each solve stops on its first y within
    # FIXED_POINT_RTOL (1 + min(|x_{k+1}|, |y|)) of T(y): 160 gradients over
    # 150 himmelblau steps (172 stopping at 1e-11 (1 + |x_{k+1}|), 185 with
    # the secants alone, 3.5 per point without them and the reused residual
    # gradient), 193 over 150 double_well steps (217, 293)
    for name, anchor, ceiling in [("himmelblau", [3.001, 2.002], 1.1),
                                  ("double_well", [1.0 + 1e-3], 1.3)]:
        f, counts = counting(br.make_builtin(name))
        orbit = br.reverse_orbit(f, anchor, br.power(0.5 / f.lipschitz_L, 0.5), 150)
        assert orbit.status == "complete" and len(orbit.points) == 151
        assert counts["grad"] <= ceiling * 150


def test_constant_orbit_takes_under_two_and_a_third_gradients_per_point():
    # each solve stops on its first y within FIXED_POINT_RTOL (1 +
    # min(|x_{k+1}|, |y|)) of T(y): 84 gradients over 40 himmelblau steps
    # at 0.5/L (107 stopping at 1e-11 (1 + |x_{k+1}|))
    f, counts = counting(br.make_builtin("himmelblau"))
    orbit = br.reverse_orbit(f, [3.001, 2.002], br.constant(0.5 / f.lipschitz_L), 40)
    assert orbit.status == "complete" and len(orbit.points) == 41
    assert counts["grad"] <= 2.3 * 40


def test_a_saddle_orbit_takes_106_gradients():
    # the reverse orbit of himmelblau's saddle 8 reach at 0.4/L from its
    # first scanned seed, rebuilt with its stop at the escape radius: 55
    # steps for 106 gradients (119 when each first retry fit its own secant
    # beside the newest orbit step), its root the reach's x0
    plain = br.make_builtin("himmelblau")
    target, s = plain.critical_points[8].point, br.constant(0.4 / plain.lipschitz_L)
    rep = br.reach_general(plain, target, 1.0, s, 1e-3)
    f, counts = counting(plain)
    orbit = br.reverse_orbit(f, rep.ascent_seed, s, 1000,
                             stop=lambda x: norm(np.subtract(x, target)) > rep.escape_radius)
    assert rep.status == "success" and orbit.points[0].tobytes() == rep.x0.tobytes()
    assert len(orbit.points) == 56 and counts == {"value": 0, "grad": 106}


def certified(x, y, r):
    """Whether r passes the forward-residual certificate of the step
    between x and y, FORWARD_RESIDUAL_RTOL (1 + min(|x|, |y|)): an ascent
    step's bound 1 + |y| and the prox identity's 1 + |x| at once."""
    return r <= FORWARD_RESIDUAL_RTOL * (1.0 + min(np.linalg.norm(x), np.linalg.norm(y)))


@pytest.mark.parametrize("name,params", SWEEP_BUILTINS)
@pytest.mark.parametrize("kind", ["constant", "power"])
def test_every_orbit_residual_recomputed_with_numpy(name, params, kind):
    # the residual is the solve's tested one, not a fresh evaluation: recompute
    # each with plain numpy from the stored points, for an orbit's steps and
    # for prox and ascent_prox from points across the box, on both lanes;
    # each solve stops within FIXED_POINT_RTOL (1 + min(|base|, |y|)), and
    # the rounding margin to the certificate takes no slack factor
    f = br.make_builtin(name, params)
    a = 0.5 / f.lipschitz_L
    s = br.constant(a) if kind == "constant" else br.power(a, 0.5)
    cp = next(c for c in f.critical_points if c.kind == "local_min")
    anchor = cp.point + 1e-3 * np.arange(1.0, f.dim + 1.0)
    orbit = br.reverse_orbit(f, anchor, s, 60)
    assert len(orbit.points) > 10
    for i, (x, xnext) in enumerate(zip(orbit.points, orbit.points[1:])):
        g = np.asarray(f.grad(np.array(x)), dtype=float)
        r = float(np.linalg.norm(x - s.alpha(orbit.start_index + i) * g - xnext))
        assert certified(x, xnext, r) and certified(x, xnext, orbit.forward_residuals[i])
    rng = np.random.default_rng(41)
    for _ in range(40):
        lam = (0.05 + 0.9 * rng.random()) / f.lipschitz_L
        x = interior_points(f, 1, rng, span=0.8 * (1.0 - lam * f.lipschitz_L))[0]
        y = br.prox(f, x, lam)
        assert certified(x, y, float(np.linalg.norm(y - (x - lam * f.gradient(y)))))
        y = br.ascent_prox(f, x, lam)
        assert certified(x, y, float(np.linalg.norm((y - lam * f.gradient(y)) - x)))


@pytest.mark.parametrize("params,x", [((1.0,), [8.0]), ((1.0, 1.0), [8.0, 0.0]),
                                      ((1.0, 1.0, 1.0), [8.0, 0.0, 0.0])],
                         ids=["picard1", "picard2", "picard-dim3"])
def test_a_solve_toward_the_origin_stops_on_the_bound_at_y(monkeypatch, params, x):
    # prox of |y|^2/2 from x at lam = 0.5, y* = x / 1.5, at a tolerance
    # scaled up to FIXED_POINT_RTOL = 0.3: the first test (y = x, |r| = 4)
    # fails 0.3 (1 + |x|) = 2.7; the second, y = T(x) = x/2, |r| = 2, passes
    # that bound on |base| but not 0.3 (1 + |y|) = 1.5, so the solve goes
    # on, and its third iterate, the secant step, is y* itself
    f = br.make_builtin("quad", params)
    monkeypatch.setattr(reverse_mod, "FIXED_POINT_RTOL", 0.3)
    x = np.array(x)
    y, residual, _, iters = frame_solve(f, x, 0.5, -1.0)
    assert iters == 3 and norm(y) < norm(x)
    assert norm(y - x / 1.5) <= 1e-12 and residual <= 1e-12


def test_orbit_power_schedule_alignment(dw):
    s = br.power(0.5 / dw.lipschitz_L, 0.5)
    orbit = br.reverse_orbit(dw, [1.01], s, 12)
    assert orbit.start_index == 0 and len(orbit.points) == 13  # steps 0..11
    for i, (p, nxt) in enumerate(zip(orbit.points, orbit.points[1:])):
        step = p - s.alpha(i) * dw.gradient(p)
        assert np.linalg.norm(step - nxt) <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_orbit_partial_on_box_exit(quad1):
    # climbing from 1.0 with doubling factor 2 leaves the [-10, 10] box
    orbit = br.reverse_orbit(quad1, [1.0], br.constant(0.5), 8)
    assert orbit.status == "left_box"
    assert orbit.start_index == 5  # 16 = x_4 would leave the box
    assert len(orbit.points) == 8 - orbit.start_index + 1
    assert all(quad1.in_box(p) for p in orbit.points)


def test_orbit_rejects_prox_violation(dw):
    with pytest.raises(ValueError):
        br.reverse_orbit(dw, [1.0], br.constant(0.05), 3)  # 0.05 > 1/23


def test_orbit_rejects_a_negative_horizon_or_an_anchor_outside_the_box(dw):
    with pytest.raises(ValueError, match="^kbar must be a nonnegative integer, got -1$"):
        br.reverse_orbit(dw, [1.0], br.constant(0.02), -1)
    with pytest.raises(br.LeftBoxError, match="^anchor outside the operating box$"):
        br.reverse_orbit(dw, [1.6], br.constant(0.02), 3)


# --- both lanes against plain ndarray arithmetic -------------------------------

LANE_CASES = [("double_well", (), [1.0]), ("himmelblau", (), [3.0, 2.0]),
              ("quad", (1.0, 5.0), [0.0, 0.0]), ("quad", (1.0, 2.0, 5.0), [0.0, 0.0, 0.0]),
              ("quad", (1.0, 2.0, 5.0, 7.0), [0.0, 0.0, 0.0, 0.0])]


@pytest.mark.parametrize("name,params,target", LANE_CASES,
                         ids=["double_well", "himmelblau", "quad-2d", "quad-3d", "quad-4d"])
def test_orbit_matches_ndarray_picard(name, params, target):
    f = br.make_builtin(name, params)
    s = br.power(0.5 / f.lipschitz_L, 0.5)
    anchor = np.asarray(target) + 1e-4 * np.arange(1.0, f.dim + 1.0)
    orbit = br.reverse_orbit(f, anchor, s, 12)
    assert orbit.status == "complete" and len(orbit.points) == 13
    points, residuals = anderson_orbit(f, anchor, [s.alpha(k) for k in range(11, -1, -1)])
    assert orbit.points.tobytes() == np.array(points[::-1]).tobytes()
    assert orbit.forward_residuals == tuple(residuals[::-1])
    y = br.ascent_prox(f, anchor, s.alpha(0))
    assert y.shape == (f.dim,)
    assert y.tobytes() == anderson_solve(f, anchor, s.alpha(0), 1.0)[0].tobytes()


# the orbit frames: _orbit1 on double_well, _orbit2 on himmelblau and quad:1,5,
# _orbitn on quad:1,2,5, each with its anchor, the stop radius of a
# constant-schedule march and the horizon past which a power:0.9/L:0.5 orbit
# leaves the box
FRAME_CASES = [("double_well", (), [1.001], 0.2, 100),
               ("himmelblau", (), [3.001, 2.002], 0.5, 400),
               ("quad", (1.0, 5.0), [1e-3, 2e-3], 0.5, 40),
               ("quad", (1.0, 2.0, 5.0), [1e-3, 2e-3, 3e-3], 0.5, 40)]
FRAME_IDS = ["orbit1-double_well", "orbit2-himmelblau", "orbit2-quad", "orbitn-quad"]


@pytest.mark.parametrize("name,params,anchor,r,kbar", FRAME_CASES, ids=FRAME_IDS)
def test_an_orbit_frame_stops_its_march_as_the_reference(name, params, anchor, r, kbar):
    # a constant-schedule march stopped at its first point farther than r
    # from the anchor: the reference's orbit over as many steps, bit for
    # bit, with f's gradient at each point and one gradient per tested
    # iterate beyond each solve's first, plus the anchor's
    plain = br.make_builtin(name, params)
    f, counts = counting(plain)
    a, anchor, iters = 0.5 / f.lipschitz_L, np.array(anchor), []
    stop = lambda x: norm(np.subtract(x, anchor)) > r
    orbit = br.reverse_orbit(f, anchor, br.constant(a), 1000, stop=stop)
    m = len(orbit.points) - 1
    points, residuals = anderson_orbit(plain, anchor, [a] * m, iters)
    assert orbit.status == "complete" and orbit.start_index == 0 and 5 < m < 1000
    assert same_orbit(orbit, points, residuals)
    assert stop(orbit.points[0]) and not any(map(stop, orbit.points[1:]))
    assert ([np.array(g).tobytes() for g in orbit.gradients]
            == [plain.gradient(p).tobytes() for p in orbit.points])
    assert counts == {"value": 0, "grad": 1 + sum(it - 1 for it in iters)}


@pytest.mark.parametrize("name,params,anchor,r,kbar", FRAME_CASES, ids=FRAME_IDS)
def test_an_orbit_frame_ends_at_a_box_exit_as_the_reference(name, params, anchor, r, kbar):
    # a power-schedule orbit whose next solve leaves the box: the partial
    # orbit, x_start to the anchor with alpha indexed from start_index, is
    # the reference's bit for bit, and the reference's next solve, at
    # alpha_{start_index - 1}, leaves the box too
    f = br.make_builtin(name, params)
    s, anchor = br.power(0.9 / f.lipschitz_L, 0.5), np.array(anchor)
    orbit = br.reverse_orbit(f, anchor, s, kbar)
    k0 = orbit.start_index
    assert orbit.status == "left_box" and 0 < k0 and len(orbit.points) == kbar - k0 + 1
    assert all(f.in_box(p) for p in orbit.points)
    alphas = [s.alpha(k) for k in range(kbar - 1, k0 - 2, -1)]
    assert same_orbit(orbit, *anderson_orbit(f, anchor, alphas[:-1]))
    with pytest.raises(br.LeftBoxError):
        anderson_orbit(f, anchor, alphas)


@pytest.mark.parametrize("name,params,anchor,r,kbar", FRAME_CASES, ids=FRAME_IDS)
def test_an_orbit_frame_rebuilds_from_the_anchor_gradient_as_the_reference(name, params,
                                                                           anchor, r, kbar):
    # a horizon search's rebuild under a power schedule, handed the anchor's
    # gradient its last build took: the reference's orbit, bit for bit, at
    # one gradient per tested iterate beyond each solve's first, none at the
    # anchor
    plain = br.make_builtin(name, params)
    f, counts = counting(plain)
    s, anchor, iters = br.power(0.5 / f.lipschitz_L, 0.5), np.array(anchor), []
    first = br.reverse_orbit(f, anchor, s, 8)
    grads = counts["grad"]
    orbit = br.reverse_orbit(f, anchor, s, 12, g0=first.gradients[-1])
    points, residuals = anderson_orbit(plain, anchor, [s.alpha(k) for k in range(11, -1, -1)],
                                       iters)
    assert orbit.status == "complete" and len(orbit.points) == 13
    assert orbit.gradients[-1] is first.gradients[-1]
    assert same_orbit(orbit, points, residuals)
    assert counts["grad"] - grads == sum(it - 1 for it in iters)


@pytest.mark.parametrize("name,params,target", LANE_CASES,
                         ids=["double_well", "himmelblau", "quad-2d", "quad-3d", "quad-4d"])
def test_orbit_keeps_the_gradient_norms_of_its_points(name, params, target, tmp_path):
    # the orbit keeps the gradient the construction took at each point: its
    # norms are those of the batch over the points, and of the kept
    # gradients stacked, bit for bit, on a complete, a stopped and a
    # one-point orbit, whose points are one read-only, C-contiguous (n,
    # dim) float array on either lane; writing the orbit takes no gradient
    f, counts = counting(br.make_builtin(name, params))
    s = br.constant(0.5 / f.lipschitz_L)
    anchor = np.asarray(target) + 1e-4 * np.arange(1.0, f.dim + 1.0)
    orbits = [br.reverse_orbit(f, anchor, s, 12),
              br.reverse_orbit(f, anchor, s, 100, stop=lambda x: norm(x - anchor) > 1e-3),
              br.reverse_orbit(f, anchor, s, 0)]
    for orbit in orbits:
        P = orbit.points
        assert type(P) is np.ndarray and P.dtype == float and P.shape == (len(P), f.dim)
        assert P.flags.c_contiguous and not P.flags.writeable
        assert orbit.grad_norms == row_norms(f.gradients(P)).tolist()
        assert orbit.grad_norms == row_norms(np.array(orbit.gradients)).tolist()
    assert [len(orbits[0].points), len(orbits[2].points)] == [13, 1]
    assert len(orbits[1].points) > 1
    grads = counts["grad"]
    write_reverse_part_csv(orbits[0], f, s, str(tmp_path / "reverse.csv"))
    assert counts["grad"] == grads


def test_partial_orbit_csv_counts_from_its_start_index(tmp_path):
    # a partial orbit's rows are x_k from its start index on, and t sums
    # the steps alpha_k from there, added one at a time
    f = br.make_builtin("quad", (1.0, 5.0))
    s = br.power(0.9 / f.lipschitz_L, 0.5)
    orbit = br.reverse_orbit(f, np.full(2, 1.0), s, 60)
    assert orbit.status == "left_box" and orbit.start_index > 0
    path = tmp_path / "reverse.csv"
    write_reverse_part_csv(orbit, f, s, str(path))
    rows = [row.split(",") for row in path.read_text().splitlines()]
    assert rows[0] == ["k", "t", "x_1", "x_2", "f", "gnorm", "direction"]
    t = 0.0
    for i, row in enumerate(rows[1:]):
        k = orbit.start_index + i
        assert int(row[0]) == k and float(row[1]) == t and row[-1] == "reverse"
        assert [float(c) for c in row[2:4]] == orbit.points[i].tolist()
        t += s.alpha(k)
    assert len(rows) == len(orbit.points) + 1


@pytest.mark.parametrize("params", [(1.0, 5.0), (1.0, 2.0, 5.0)], ids=["quad-2d", "quad-3d"])
def test_orbit_box_exit_in_both_lanes(params):
    f = br.make_builtin("quad", params)
    a = 0.9 / f.lipschitz_L
    orbit = br.reverse_orbit(f, np.full(f.dim, 1.0), br.constant(a), 60)
    assert orbit.status == "left_box" and 0 < orbit.start_index < 60
    assert all(type(p) is np.ndarray and p.shape == (f.dim,) and f.in_box(p)
               for p in orbit.points)
    with pytest.raises(br.LeftBoxError) as exc:
        br.ascent_prox(f, orbit.points[0], a)
    assert type(exc.value.point) is np.ndarray and exc.value.point.shape == (f.dim,)
    assert not f.in_box(exc.value.point)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_lane_norm_is_row_norms(dim):
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((2000, dim)) * 10.0 ** rng.uniform(-5, 5, (2000, 1))
    assert [norm(tuple(x)) for x in X.tolist()] == row_norms(X).tolist()
    assert [norm(x) for x in X] == row_norms(X).tolist()
    f = br.make_builtin("quad", np.arange(1.0, dim + 1.0))
    assert isinstance(f._lane.point(X[0]), tuple if dim <= 2 else np.ndarray)
