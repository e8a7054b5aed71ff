import dataclasses
import itertools
import math

import numpy as np
import pytest

import basinreach as br
import basinreach.flow as flow
from basinreach.flow import ATOL, H_STABLE, PI_ALPHA, PI_MAX, PI_MIN, PI_SAFE, RTOL
from basinreach.landscape import LeftBoxError, dot, norm, row_norms, sumsq
from basinreach.reach import CAPTURE_GRID
from basinreach.reverse import _GRAM_RTOL, FIXED_POINT_RTOL
from basinreach.trajectory import State


@pytest.fixture(scope="session")
def quad1():
    return br.make_builtin("quad", (1.0,))


@pytest.fixture(scope="session")
def quad14():
    return br.make_builtin("quad", (1.0, 4.0))


@pytest.fixture(scope="session")
def dw():
    return br.make_builtin("double_well")


@pytest.fixture(scope="session")
def himmelblau():
    return br.make_builtin("himmelblau")


def fd_gradient(f, x, rel_step=1e-6):
    """Central-difference gradient, the independent check on analytic gradients."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f.value(xp) - f.value(xm)) / (2.0 * h)
    return g


def make_saddle_quad(box_half=5.0):
    """f(x, y) = x^2 - y^2 with its saddle at the origin; L = 2."""
    return br.ObjectiveFunction(
        dim=2,
        f=lambda p: float(p[0] ** 2 - p[1] ** 2),
        grad=lambda p: np.array([2.0 * p[0], -2.0 * p[1]]),
        hessian=lambda p: np.array([[2.0, 0.0], [0.0, -2.0]]),
        lipschitz_L=2.0,
        box=np.array([[-box_half, box_half], [-box_half, box_half]]),
        critical_points=(br.CriticalPoint(np.zeros(2), "saddle", 0.0),),
        name="saddle_quad",
    )


@pytest.fixture(scope="session")
def saddle_quad():
    return make_saddle_quad()


def make_linear_1d(box_half=3.0):
    """f(x) = x: constant gradient, L = 0."""
    return br.ObjectiveFunction(
        dim=1,
        f=lambda x: float(x[0]),
        grad=lambda x: np.array([1.0]),
        lipschitz_L=0.0,
        box=np.array([[-box_half, box_half]]),
        name="linear",
    )


def same_states(a, b):
    return len(a) == len(b) and all(
        p.k == q.k and p.t == q.t and p.x.tobytes() == q.x.tobytes()
        and p.f_value == q.f_value and p.grad_norm == q.grad_norm
        for p, q in zip(a, b))


def two_wells():
    """f(x, y) = (x^2 - 1)^2 + y^2 with row-by-row callables: starts with
    x < 0 descend to (-1, 0)."""
    return br.ObjectiveFunction(
        dim=2, f=lambda p: float((p[0] * p[0] - 1.0) ** 2 + p[1] * p[1]),
        grad=lambda p: np.array([4.0 * p[0] * (p[0] * p[0] - 1.0), 2.0 * p[1]]),
        lipschitz_L=71.0, box=np.array([[-2.5, 2.5], [-2.5, 2.5]]),
        critical_points=(br.CriticalPoint(np.array([1.0, 0.0]), "local_min", 0.0),),
        name="two_wells")


def rk4_step(field, x, h):
    """One classical RK4 step on the signed field (sign * grad f) with
    ndarray points: the fixed-step reference the adaptive flows converge
    to as h shrinks."""
    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_flow(f, x0, sign, h, t_end):
    """Fixed-step RK4 on sign * grad f from x0 for time t_end, with the
    last step shortened onto t_end: the end point."""
    x = np.array(x0, dtype=float)
    field = lambda y: sign * f.gradient(y)
    n = int(t_end / h)
    for _ in range(n):
        x = rk4_step(field, x, h)
    return rk4_step(field, x, t_end - n * h) if t_end > n * h else x


def dop853_step(field, x, h):
    """One DOP853 step on the signed field with ndarray points: (x_new, the
    13 stages, the 5th- and 3rd-order error estimates), each sum added term
    by term in order: the reference for flow._dop853_step, which steps
    along grad f by the signed length sign * h on either lane.  It reads
    flow's tables, which the tableau tests check on their own."""
    ks = [field(x)]
    for row in flow._A:
        y = x
        for a, k in zip(row, ks):
            if a:
                y = y + (h * a) * k
        ks.append(field(y))
    errs = []
    for weights in (flow._E5, flow._E3):
        err = x - x
        for e, k in zip(weights, ks):
            if e:
                err = err + (h * e) * k
        errs.append(err)
    return (y, ks, *errs)


def dop853_flow(f, x0, sign, h, t_max, gtol=0.0, stop=None):
    """Adaptive DOP853 on sign * grad f with ndarray points, one State per
    accepted step, until gtol, t_max, a box exit or ``stop(x)``.  No trial
    step, the first, min(h, H_STABLE / L), included, exceeds H_STABLE / L;
    a step is accepted when |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2) <= ATOL +
    RTOL max(|x|, |x_new|); the next trial step follows the I controller,
    h PI_SAFE err^-PI_ALPHA within [PI_MIN, PI_MAX] h, never growing right
    after a rejection, and the step that would pass t_max is clamped onto
    it."""
    x = np.array(x0, dtype=float)
    field = lambda y: sign * f.gradient(y)
    g = field(x)
    states = [State(0, 0.0, x.copy(), f.value(x), norm(g))]
    t, k, attempts = 0.0, 0, 0
    L = f.lipschitz_L
    h_max = H_STABLE / L if L > 0.0 else math.inf
    h = min(h, h_max)
    while states[-1].grad_norm >= gtol and t < t_max:
        rejected = False
        while True:
            dt = min(h, t_max - t)
            x_new, ks, e5, e3 = dop853_step(field, x, dt)
            attempts += 1
            e5sq = sumsq(e5)
            err = ((e5sq / math.sqrt(e5sq + 0.01 * sumsq(e3)) if e5sq else 0.0)
                   / (ATOL + RTOL * max(norm(x), norm(x_new))))
            if err <= 1.0:
                break
            h, rejected = dt / min(1.0 / PI_MIN, err ** PI_ALPHA / PI_SAFE), True
        h = min(dt / max(1.0 / PI_MAX, min(1.0 / PI_MIN, err ** PI_ALPHA / PI_SAFE)), h_max)
        h = min(h, dt) if rejected else h
        t = t_max if dt == t_max - t else t + dt
        x, g, k = x_new, ks[12], k + 1
        states.append(State(k, t, x.copy(), f.value(x), norm(g)))
        if not f.in_box(x) or (stop is not None and stop(x)):
            break
    return states, attempts


def minnorm_euler(f, x0, level, h, t_max, gtol, activity_tol=1e-9):
    """Explicit Euler on the minimum-norm Clarke flow of g = max{f, level},
    one State per step, g's value recorded: the speed is grad f where f
    alone is active, 0 where the constant alone is, and min_norm_element
    of {grad f, 0} where both lie within activity_tol (1 + |g|) of g.  The
    run ends once the speed's norm falls below gtol, stalled on the level
    set, or at t_max: the fixed-step reference whose stall point
    integrate_minnorm's located crossing is the h -> 0 limit of."""
    def speed(y):
        fy = f.value(y)
        top = max(fy, level)
        band = activity_tol * (1.0 + abs(top))
        gens = [f.gradient(y)] if fy >= top - band else []
        gens += [np.zeros(f.dim)] if level >= top - band else []
        return top, br.min_norm_element(gens)

    x = np.array(x0, dtype=float)
    g, v = speed(x)
    states = [State(0, 0.0, x.copy(), g, norm(v))]
    for k in range(int(round(t_max / h))):
        if states[-1].grad_norm < gtol:
            break
        x = x - h * v
        g, v = speed(x)
        states.append(State(k + 1, (k + 1) * h, x.copy(), g, norm(v)))
    return states


def capture_level_full_grid(f, target, epsilon):
    """reach._capture_level in one pass over the whole grid: the smaller
    sphere value in 1-D; in 2-D the least b_i = f(y_i) - |grad f(y_i)| d -
    L d^2/2 - 1e-12 (1 + |f(y_i)|) over all N = CAPTURE_GRID circle points,
    d = 2 epsilon sin(pi/(2N)): the reference the ladder's level equals."""
    L = f.lipschitz_L
    if not L > 0.0:
        return None
    if f.dim == 1:
        return float(f.values(target + np.array([[-epsilon], [epsilon]])).min())
    if f.dim != 2:
        return None
    theta = 2.0 * np.pi * np.arange(CAPTURE_GRID) / CAPTURE_GRID
    Y = target + epsilon * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    d = 2.0 * epsilon * math.sin(math.pi / (2 * CAPTURE_GRID))
    fy = f.values(Y)
    bound = fy - row_norms(f.gradients(Y)) * d - 0.5 * L * d * d - 1e-12 * (1.0 + np.abs(fy))
    return float(bound.min())


def count_flow_steps(monkeypatch):
    """Record each attempted DOP853 step: flow._dop853_step is patched for
    the test, and the returned list gets (arguments, result) of every call."""
    calls = []
    step = flow._dop853_step

    def counted(*args):
        calls.append((args, step(*args)))
        return calls[-1][1]
    monkeypatch.setattr(flow, "_dop853_step", counted)
    return calls


def counting(f):
    """(copy of f whose f and grad count the points they evaluate, counts):
    a call on a (B, dim) batch counts B points."""
    counts = {"value": 0, "grad": 0}

    def wrap(fn, key):
        def call(x):
            counts[key] += x.shape[0] if x.ndim == 2 else 1
            return fn(x)
        return call
    return dataclasses.replace(f, f=wrap(f.f, "value"), grad=wrap(f.grad, "grad")), counts


def contraction_iteration_bound(lam, L):
    """ln(FIXED_POINT_RTOL)/ln(lam*L) + 2, the certified count of plain Picard
    iterations, each one test of |T(y) - y| (the returned y is the last
    one tested); for the Anderson-mixed solve, seeded or not, a tested
    ceiling, not a certificate."""
    q = lam * L
    if not 0.0 < q < 1.0:
        raise ValueError("contraction bound needs lam * L in (0, 1)")
    return math.log(FIXED_POINT_RTOL) / math.log(q) + 2.0


def picard_solve(f, base, lam, sign, rtol=FIXED_POINT_RTOL):
    """(T(y), iters) of plain Picard iteration on ndarrays for the fixed
    point of T(y) = base + sign lam grad(y), stopped as reverse._picard
    stops: at the first tested y with |T(y) - y| <= rtol (1 + min(|base|,
    |y|)), raising LeftBoxError when T(y) leaves the box."""
    y = base
    for it in itertools.count(1):
        t = base + sign * lam * f.gradient(y)
        if not f.in_box(t):
            raise LeftBoxError(t)
        if stops(sumsq(t - y), rtol, norm(base), y):
            return t, it
        y = t


def stops(rr, rtol, base_norm, y):
    """Whether a solve stops on its tested y with |T(y) - y|^2 = rr: rr <=
    (rtol (1 + min(|base|, |y|)))^2, |y| taken only once the bound on |base|
    holds, as in reverse._picard."""
    return rr <= (rtol * (1.0 + base_norm)) ** 2 and (
        (ynorm := norm(y)) >= base_norm or rr <= (rtol * (1.0 + ynorm)) ** 2)


def anderson_solve(f, base, lam, sign, g=None, seeds=(), mixes=None, miss=None):
    """(y, grad(y), iters, miss) of reverse._picard written on ndarrays:
    depth-2 Anderson mixing with the same arithmetic, seeding, shift,
    fallbacks, restart and return, for both lanes to match bit for bit.  A
    history entry is (dr, v, w) with dT = w v; ``seeds`` start the
    history, newest first.  The mix after the second tested iterate fits
    the newest entry alone, the solve's own secant from base; every other
    mix fits the two newest.  The first mixed point m, when there is one,
    moves by the last solve's ``miss`` = (y' - m', l') rescaled by l/l', l
    = |m - base|^2, and the returned miss is (y - m, l), None when there
    was no m or l = 0.  ``mixes``, when given, gets one (history length,
    mixed point, secants fit) triple per iterate after the first, the
    mixed point (after the shift) None, and its fit 0, when the history
    gives none, kept even when it lies outside the box, where the solve
    falls back to T's plain image, and its fit 1 where the two entries'
    Gram determinant is degenerate."""
    q_sq = (lam * f.lipschitz_L) ** 2
    y, g = base, f.gradient(base) if g is None else g
    hist, last, mixed, first, ell = list(seeds), None, False, None, 0.0
    for it in itertools.count(1):
        t = base + sign * lam * g
        if not f.in_box(t):
            raise LeftBoxError(t)
        r = t - y
        rr = sumsq(r)
        if stops(rr, FIXED_POINT_RTOL, norm(base), y):
            return y, g, it, (y - first, ell) if ell > 0.0 else None
        if mixed and not rr <= q_sq * last[2]:
            hist = []
        elif last is not None:
            hist = [(r - last[0], t - last[1], 1.0)] + hist[:1]
        last, y, mix, fit = (r, t, rr), t, None, 0
        if hist and sumsq(hist[0][0]) > 0.0:
            (d1, e1, w1), a11 = hist[0], sumsq(hist[0][0])
            b1 = dot(d1, r)
            y, fit = t - b1 / a11 * w1 * e1, 1
            if len(hist) == 2 and it != 2:
                d2, e2, w2 = hist[1]
                a12, a22, b2 = dot(d1, d2), sumsq(d2), dot(d2, r)
                det = a11 * a22 - a12 * a12
                if det > _GRAM_RTOL * a11 * a22:
                    y, fit = (t - (a22 * b1 - a12 * b2) / det * w1 * e1
                              - (a11 * b2 - a12 * b1) / det * w2 * e2), 2
            if it == 1:
                first, ell = y, sumsq(y - base)
                if miss is not None:
                    y = y + ell / miss[1] * miss[0]
            mix = y
        if mixes is not None:
            mixes.append((len(hist), mix, fit))
        mixed = y is not t and f.in_box(y)
        if not mixed:
            y = t
        g = f.gradient(y)


def anderson_orbit(f, anchor, alphas, iters=None, mixes=None, g0=None):
    """(points, forward residuals) of reverse_orbit written on ndarrays,
    from the anchor back through the steps ``alphas`` (alpha_{K-1} first):
    the first solve starts from the anchor's gradient, ``g0`` when given,
    each later one from the gradient the last one returned, its history
    from the secant pairs (x - y, grad(y) - grad(x)) of the last two orbit
    steps x -> y, converted to (dr, v, w) = ((x - y) + a dg, dg, a), and
    its first mixed point shifted by the miss the last one returned.
    ``iters``, when given, gets each solve's count of tested iterates,
    ``mixes`` each solve's records of ``anderson_solve`` in turn, and a
    solve whose T(y) leaves the box raises LeftBoxError."""
    x = np.asarray(anchor, dtype=float)
    g, pairs, points, residuals, miss = f.gradient(x) if g0 is None else g0, [], [x], [], None
    for a in alphas:
        seeds = [(neg_dx + a * dg, dg, a) for neg_dx, dg in pairs]
        y, gy, it, miss = anderson_solve(f, x, a, 1.0, g, seeds, mixes, miss)
        if iters is not None:
            iters.append(it)
        residuals.append(norm((y - a * gy) - x))
        pairs = [(x - y, gy - g)] + pairs[:1]
        x, g = y, gy
        points.append(x)
    return points, residuals


def reference_rows(k0, t, X, fv, gnorm, direction=None):
    """The CSV rows of a sampled path as lists of strings, one per row, as
    serialize built them row by row: the header, then k, t, x_1..x_n, f,
    gnorm (and ``direction``, when given) per point, k counting from k0.
    The reference the bulk writer's bytes are checked against."""
    flag = [] if direction is None else [direction]
    rows = [["k", "t"] + [f"x_{i + 1}" for i in range(X.shape[1])] + ["f", "gnorm"]
            + (["direction"] if flag else [])]
    for k, (tk, x, fk, gk) in enumerate(zip(t, X.tolist(), fv, gnorm), k0):
        rows.append([str(k), repr(tk)] + [repr(c) for c in x] + [repr(fk), repr(gk)] + flag)
    return rows


def write_reference_rows(rows, path):
    """Write ``reference_rows``' rows one write per row, as serialize did."""
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")
