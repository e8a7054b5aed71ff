import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import basinreach as br
from basinreach.landscape import HIMMELBLAU_CRITICAL_POINTS, norm

from conftest import fd_gradient, make_linear_1d


def random_box_points(f, n, rng):
    lo, hi = f.box[:, 0], f.box[:, 1]
    return [lo + rng.random(f.dim) * (hi - lo) for _ in range(n)]


# --- builtin examples ------------------------------------------------------

def test_quad_example(quad1):
    assert quad1.value([2.0]) == 2.0
    assert quad1.gradient([2.0])[0] == 2.0
    assert quad1.lipschitz_L == 1.0


def test_double_well_catalog(dw):
    # roots of 4x(x^2 - 1) with the second-derivative test
    kinds = {tuple(cp.point): cp.kind for cp in dw.critical_points}
    assert kinds == {(-1.0,): "local_min", (0.0,): "local_max", (1.0,): "local_min"}
    assert dw.value([1.0]) == 0.0 and dw.value([-1.0]) == 0.0 and dw.value([0.0]) == 1.0
    b = dw.params[0]
    assert dw.lipschitz_L == 12.0 * b * b - 4.0


def test_himmelblau_exact_minimum(himmelblau):
    assert himmelblau.value([3.0, 2.0]) == 0.0
    assert np.all(himmelblau.gradient([3.0, 2.0]) == 0.0)


def test_builtin_errors():
    with pytest.raises(ValueError):
        br.make_builtin("unknown")
    with pytest.raises(ValueError):
        br.make_builtin("quad", (1.0, -1.0))
    with pytest.raises(ValueError):
        br.make_builtin("quad", ())
    with pytest.raises(ValueError):
        br.make_builtin("double_well", (0.5,))
    with pytest.raises(ValueError):
        br.make_builtin("himmelblau", (1.0,))


def test_double_well_refuses_more_than_one_parameter():
    # double_well reads one parameter, its box half-width b: more are
    # refused, not dropped
    for params in ((1.5, 7.0), (2.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"double_well takes at most one parameter (b), got {params}")):
            br.make_builtin("double_well", params)
    assert br.make_builtin("double_well", (1.5,)).params == (1.5,)
    assert br.make_builtin("double_well").params == (1.5,)


@pytest.mark.parametrize("changes,message", [
    ({"dim": 0}, "^dim must be a positive integer$"),
    ({"lipschitz_L": -1.0}, "^lipschitz_L must be nonnegative and finite, got -1.0$"),
    ({"box": np.array([[1.0, -1.0]])}, r"^box must be \(dim, 2\) with lower < upper$"),
    ({"lipschitz_L": math.nan}, "^lipschitz_L must be nonnegative and finite, got nan$"),
], ids=["dim", "lipschitz-L", "box", "nan-lipschitz-L"])
def test_objective_function_rejects_a_bad_declaration(changes, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(br.make_builtin("quad", (1.0,)), **changes)



def count_runs():
    """field -> a run of the library given that count, as bytes."""
    quad1, dw, hb = (br.make_builtin(*spec) for spec in (("quad", (1.0,)), ("double_well",),
                                                         ("himmelblau",)))
    return {
        "max_iter": lambda n: br.run_gd(quad1, [1.0], br.constant(0.5), gtol=1e-300,
                                        max_iter=n).X.tobytes(),
        "kbar_max": lambda n: br.reach_discrete(
            dw, [1.0], 0.4, br.constant(0.021), 1e-3, 1e-4,
            br.ReachBudgets(kbar_max=n)).x0.tobytes(),
        "kbar": lambda n: np.array(br.reverse_orbit(dw, [1.05], br.constant(0.02),
                                                    n).points).tobytes(),
        "n_samples": lambda n: repr(vars(br.stability_probe(hb, [3.0, 2.0], 0.5,
                                                            br.constant(0.0015),
                                                            n_samples=n))).encode(),
    }


@pytest.mark.parametrize("field,good", [("max_iter", 10), ("kbar_max", 1 << 16), ("kbar", 5),
                                        ("n_samples", 2)])
def test_a_count_is_a_nonnegative_integer(field, good):
    # a float budget, even a whole one, is refused by name (k == 10.5 never
    # holds, and range(3.0) fails deep inside a run); a numpy integer runs
    # bit for bit as the int it equals
    run = count_runs()[field]
    for bad in (good + 0.5, float(good), -1):
        with pytest.raises(ValueError, match=f"^{field} must be a nonnegative integer, got {bad}$"):
            run(bad)
    assert run(np.int64(good)) == run(good)

def seed_runs():
    """name -> a run of the library given that seed, as bytes."""
    dw, hb = br.make_builtin("double_well"), br.make_builtin("himmelblau")
    saddle = hb.critical_points[8].point
    return {
        "ReachBudgets": lambda n: (lambda rep: rep.x0.tobytes() + rep.forward_part.X.tobytes())(
            br.reach_general(hb, saddle, 1.0, br.constant(0.0015), 1e-3, 1e-2,
                             budgets=br.ReachBudgets(seed=n))),
        "stability_probe": lambda n: repr(vars(br.stability_probe(
            hb, [3.0, 2.0], 2.0, br.constant(0.0015), seed=n))).encode(),
        # a 1-D probe draws no quasi-random direction, and checks its seed itself
        "stability_probe_1d": lambda n: repr(vars(br.stability_probe(
            dw, [1.0], 0.4, br.constant(0.021), seed=n))).encode(),
        "Lcg64": lambda n: (lambda g: repr([g.next_uint() for _ in range(3)]).encode())(
            br.Lcg64(n)),
    }


@pytest.mark.parametrize("name", ["ReachBudgets", "stability_probe", "stability_probe_1d",
                                  "Lcg64"])
def test_a_seed_is_an_integer(name):
    # a float seed, even a whole one, is refused by name rather than run as
    # its truncation; a seed may be negative, and a numpy integer runs bit
    # for bit as the int it equals
    run = seed_runs()[name]
    for bad in (0.5, 2.0, -1.5):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad}$"):
            run(bad)
    for good in (3, -3):
        assert run(np.int64(good)) == run(good)


def test_hess_needs_a_hessian():
    f = dataclasses.replace(br.make_builtin("quad", (1.0,)), hessian=None)
    with pytest.raises(ValueError, match="^objective 'quad' has no Hessian$"):
        f.hess([0.0])


# --- declared-data invariants ---------------------------------------------

@pytest.mark.parametrize("name,params", [
    ("quad", (1.0,)), ("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ()),
])
def test_fd_gradient_agreement(name, params):
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(42)
    for x in random_box_points(f, 100, rng):
        g = f.gradient(x)
        fd = fd_gradient(f, x)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("name,params", [
    ("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ()),
])
def test_fd_hessian_agreement(name, params):
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(13)
    for x in random_box_points(f, 25, rng):
        analytic = f.hess(x)
        fd = np.zeros_like(analytic)
        for j in range(f.dim):
            h = 1e-6 * (1.0 + abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (f.gradient(xp) - f.gradient(xm)) / (2.0 * h)
        err = np.linalg.norm(fd - analytic)
        assert err <= 1e-5 * (1.0 + np.linalg.norm(analytic))


@pytest.mark.parametrize("name,params", [
    ("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ()),
])
def test_lipschitz_sampled(name, params):
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(7)
    pts = random_box_points(f, 200, rng)
    for x, y in zip(pts[::2], pts[1::2]):
        lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
        assert lhs <= f.lipschitz_L * np.linalg.norm(x - y) * (1.0 + 1e-12)


@pytest.mark.parametrize("name,params", [
    ("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ()),
])
def test_descent_lemma_sampled(name, params):
    f = br.make_builtin(name, params)
    rng = np.random.default_rng(11)
    for x in random_box_points(f, 100, rng):
        h = (rng.random(f.dim) - 0.5) * 0.02
        if not f.in_box(x + h):
            continue
        lhs = abs(f.value(x + h) - f.value(x) - float(f.gradient(x) @ h))
        assert lhs <= f.lipschitz_L * float(h @ h) / 2.0 * (1.0 + 1e-9) + 1e-15


@pytest.mark.parametrize("name,params", [
    ("quad", (1.0, 4.0)), ("double_well", ()), ("himmelblau", ()),
])
def test_catalog_gradients_vanish(name, params):
    f = br.make_builtin(name, params)
    for cp in f.critical_points:
        assert f.grad_norm(cp.point) <= 1e-9 * (1.0 + f.lipschitz_L)
        assert abs(f.value(cp.point) - cp.f_value) <= 1e-12 * (1.0 + abs(cp.f_value))


def test_himmelblau_regeneration(himmelblau):
    # Newton oracle from 2-decimal seeds reproduces the frozen constants
    for (px, py), kind in HIMMELBLAU_CRITICAL_POINTS:
        seed = (round(px, 2) + 0.004, round(py, 2) - 0.003)
        refined = br.refine_critical_point(himmelblau, seed, tol=1e-12)
        assert np.linalg.norm(refined - np.array([px, py])) <= 1e-10
    kinds = [cp.kind for cp in himmelblau.critical_points]
    assert kinds.count("local_min") == 4
    assert kinds.count("local_max") == 1
    assert kinds.count("saddle") == 4


def test_refinement_that_does_not_converge_raises(himmelblau):
    with pytest.raises(RuntimeError, match=re.escape(
            "Newton refinement did not reach |grad| <= 1e-12 from [2.5, 1.5]")):
        br.refine_critical_point(himmelblau, [2.5, 1.5], max_iter=2)


def test_himmelblau_lipschitz_is_grid_max(himmelblau):
    # documented constant: corner max; no interior lattice point exceeds it
    grid = np.linspace(-5.0, 5.0, 101)
    worst = max(
        np.linalg.norm(himmelblau.hess(np.array([x, y])), 2)
        for x, y in itertools.product(grid, grid)
    )
    assert worst <= himmelblau.lipschitz_L + 1e-9
    assert himmelblau.lipschitz_L == pytest.approx(326.79215610874223, abs=0.0)


def test_himmelblau_builtins_share_constants_not_arrays():
    # L and the catalog values are computed once per process; each call
    # still builds its own box and critical-point arrays
    a, b = br.make_builtin("himmelblau"), br.make_builtin("himmelblau")
    assert a.lipschitz_L == b.lipschitz_L == 326.79215610874223
    assert [cp.f_value for cp in a.critical_points] == [cp.f_value for cp in b.critical_points]
    assert a.critical_points[0].f_value == 0.0
    a.box[0, 0] = 99.0
    a.critical_points[3].point[1] = 99.0
    c = br.make_builtin("himmelblau")
    assert c.box.tolist() == [[-5.0, 5.0], [-5.0, 5.0]]
    for cp, (point, kind) in zip(c.critical_points, HIMMELBLAU_CRITICAL_POINTS):
        assert cp.point.tolist() == list(point) and cp.kind == kind
        assert cp.f_value == float(c.f(np.array(point)))


# --- batched evaluation ---------------------------------------------------------

def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,params", [("quad", (1.0, 4.0)), ("quad", (1.0, 2.0, 3.0)),
                                         ("double_well", ()), ("himmelblau", ())])
def test_batched_evaluation_matches_rowwise(name, params):
    # B = 2 catches a batch unpacked by rows (x, y = p) instead of by
    # columns; the large batch catches squares rounded unlike np.float64 ** 2
    f = br.make_builtin(name, params)
    assert f.vectorized
    rng = np.random.default_rng(11)
    for b in (1, 2, 7, 20000):
        X = np.array(random_box_points(f, b, rng))
        assert same_bits(f.values(X), np.array([f.value(x) for x in X]))
        assert same_bits(f.gradients(X), np.array([f.gradient(x) for x in X]))


def test_batched_evaluation_falls_back_row_by_row(himmelblau):
    rng = np.random.default_rng(12)
    X = np.array(random_box_points(himmelblau, 7, rng))
    rowwise = dataclasses.replace(himmelblau, vectorized=False)
    assert same_bits(rowwise.values(X), himmelblau.values(X))
    assert same_bits(rowwise.gradients(X), himmelblau.gradients(X))
    lin = make_linear_1d()  # scalar-only callables
    X = np.array([[-1.0], [0.5], [2.0]])
    assert not lin.vectorized
    assert same_bits(lin.values(X), np.array([-1.0, 0.5, 2.0]))
    assert same_bits(lin.gradients(X), np.ones((3, 1)))


# --- lanes ---------------------------------------------------------------------

@pytest.mark.parametrize("params", [(1.0,), (1.0, 4.0), (1.0, 2.0, 5.0)],
                         ids=["1-d-float-lane", "2-d-float-lane", "ndarray-lane"])
def test_lane_comb_is_the_chained_axpy(params):
    # comb(x, s, terms, vs) is axpy(x, s w, vs[i]) chained over the (i, w)
    # of terms in order, bit for bit, for either sign of s and from a start
    # of -0.0 (terms over the signed zeros among the vs make zero sums
    # whose sign depends on where the start is added); it leaves its start
    # as it was, and with no terms hands it back
    lane, dim = br.make_builtin("quad", params)._lane, len(params)
    rng = np.random.default_rng(13)
    vs = [lane.point(v) for v in rng.standard_normal((14, dim))]
    vs += [lane.point(np.zeros(dim)), lane.point(np.full(dim, -0.0))]
    for s in (0.37, -1.25e-3):
        draws = [tuple(zip(rng.integers(0, 16, n).tolist(), rng.standard_normal(n).tolist()))
                 for n in (1, 2, 5, 16)]
        for terms in draws + [((15, 1.0),), ((15, 2.0), (14, -1.0))]:
            for start in (lane.point(np.full(dim, -0.0)), lane.point(rng.standard_normal(dim))):
                before, chained = np.array(start).tobytes(), start
                for i, w in terms:
                    chained = lane.axpy(chained, s * w, vs[i])
                out = lane.comb(start, s, terms, vs)
                assert type(out) is type(start)
                assert np.array(out).tobytes() == np.array(chained).tobytes()
                assert np.array(start).tobytes() == before
        x = lane.point(rng.standard_normal(dim))
        assert lane.comb(x, s, (), vs) is x


@pytest.mark.parametrize("params", [(1.0,), (1.0, 4.0), (1.0, 2.0, 5.0)],
                         ids=["1-d-float-lane", "2-d-float-lane", "ndarray-lane"])
def test_lane_norm_is_landscape_norm(params):
    # lane.norm(v) is landscape.norm(v) bit for bit, for points and for
    # gradients as the lane takes them: on random points, +-0.0, 1e200
    # (whose square overflows to inf), subnormals (whose squares underflow)
    # and NaN, alone and mixed across coordinates
    f = br.make_builtin("quad", params)
    lane, dim = f._lane, f.dim
    if dim > 2:
        assert lane.norm is norm
    rng = np.random.default_rng(14)
    specials = [0.0, -0.0, 1e200, -1e200, 5e-324, -2.5e-310, math.nan]
    points = list(rng.standard_normal((20, dim))) + [np.full(dim, v) for v in specials]
    points += [rng.choice(specials, dim) for _ in range(40)]
    for p in points:
        x = lane.point(p)
        for v in (x, lane.grad(x)):
            with np.errstate(over="ignore"):  # np.dot's, on the ndarray lane
                got, want = lane.norm(v), norm(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --- min-norm element ------------------------------------------------------

def test_min_norm_examples():
    g = np.array([2.0, -1.0])
    assert np.array_equal(br.min_norm_element([g]), g)
    m = br.min_norm_element([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    assert np.linalg.norm(m) <= 1e-12
    # minimize |(w, 1-w)|^2 over w in [0,1]: unique minimum at w = 1/2
    m = br.min_norm_element([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(m, [0.5, 0.5], atol=1e-10)


def test_min_norm_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m_count = rng.integers(1, 5)
        d = rng.integers(1, 4)
        gens = [rng.uniform(-1.0, 1.0, d) for _ in range(m_count)]
        m = br.min_norm_element(gens)
        for g in gens:
            assert float(m @ (g - m)) >= -1e-8  # variational characterization
            assert np.linalg.norm(m) <= np.linalg.norm(g) + 1e-12


def test_min_norm_duplicate_generators():
    g = np.array([0.3, 0.4])
    m = br.min_norm_element([g, g.copy(), g.copy()])
    assert np.allclose(m, g, atol=1e-10)


def test_min_norm_empty_rejected():
    with pytest.raises(ValueError):
        br.min_norm_element([])
