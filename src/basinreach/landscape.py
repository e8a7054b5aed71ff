"""Benchmark objectives with exact gradients, Lipschitz data and
critical-point catalogs, the lanes the dynamics hold their points in,
and the minimum-norm element of a generator set (Wolfe's algorithm).
The capped function max{f, level} of a saddle reach is not built as an
object: its minimum-norm Clarke flow is the flow on f stopped at the
level set (``flow.integrate_minnorm``).  Every module imports this one:
its rules below are the one test of a number that must be positive, or
nonnegative, and finite (a flow's ``t_max`` may be infinite and has its
own), of an integer (a seed) and of a count, as ``trajectory.start`` is
the one test of a point.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class LeftBoxError(RuntimeError):
    """An iterate left the operating box on which the Lipschitz constant holds."""

    def __init__(self, point, message="iterate left the operating box"):
        super().__init__(message)
        self.point = np.asarray(point, dtype=float)


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    point: np.ndarray
    kind: str  # local_min | local_max | saddle
    f_value: float


CATALOG_RTOL = 1e-8  # catalog_entry's match radius, relative to 1 + |point|


def require_positive_finite(**values):
    """ValueError naming the first value not in (0, inf), NaN included."""
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")


def require_nonnegative_finite(**values):
    """ValueError naming the first value not in [0, inf), NaN included."""
    for name, v in values.items():
        if not 0.0 <= v < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {v}")


def require_integer(**values):
    """ValueError naming the first value that is not an integer by
    ``operator.index``, which numpy integers are and no float is, 2.0
    included.  A seed may be negative, so there is no sign test."""
    for name, v in values.items():
        try:
            operator.index(v)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {v}") from None


def require_count(**values):
    """ValueError naming the first value that is not a nonnegative integer:
    an integer by ``require_integer``, and not negative."""
    for name, v in values.items():
        try:
            require_integer(**{name: v})
            ok = v >= 0
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be a nonnegative integer, got {v}")


@dataclass(frozen=True, eq=False)
class ObjectiveFunction:
    """A C^1 objective on an axis-aligned operating box.

    ``lipschitz_L`` is a gradient Lipschitz constant valid on ``box``
    (shape (dim, 2), rows are [lower, upper]).  Iterating outside the
    box voids every certificate, so the dynamics modules treat exits as
    first-class events.  ``lipschitz_L == 0`` is allowed (an affine
    objective).  Instances are immutable; arrays are defensive copies and
    must be treated as read-only.

    ``vectorized`` states that ``f`` and ``grad`` also take a (B, dim)
    batch and return B values or a (B, dim) array of gradients, each row
    bit-identical to the call on that row; :meth:`values` and
    :meth:`gradients` then make one call per batch instead of one per row.

    ``hessian_lipschitz`` is a Lipschitz constant M of the Hessian on
    ``box``, |hess(x) - hess(y)| <= M |x - y| in the spectral norm, or None
    when unknown; a minimum reach ends its forward run in the strongly
    convex ball it certifies (``reach``), and without it runs to gtol.
    """

    dim: int
    f: object
    grad: object
    lipschitz_L: float
    box: np.ndarray
    critical_points: tuple = ()
    hessian: object = None
    name: str = ""
    params: tuple = ()
    vectorized: bool = False
    hessian_lipschitz: float = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        require_nonnegative_finite(lipschitz_L=self.lipschitz_L)
        if self.hessian_lipschitz is not None:
            require_nonnegative_finite(hessian_lipschitz=self.hessian_lipschitz)
        box = np.array(self.box, dtype=float)
        if box.shape != (self.dim, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("box must be (dim, 2) with lower < upper")
        object.__setattr__(self, "box", box)
        pad = 1e-12 * (1.0 + np.abs(box).max())
        object.__setattr__(self, "_box_lo", box[:, 0] - pad)
        object.__setattr__(self, "_box_hi", box[:, 1] + pad)
        object.__setattr__(self, "_lane", _lane(self))

    def value(self, x):
        return float(self.f(np.asarray(x, dtype=float)))

    def gradient(self, x):
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)

    def values(self, X):
        """f at each row of a (B, dim) batch, as a (B,) array."""
        X = np.asarray(X, dtype=float)
        if self.vectorized:
            return np.asarray(self.f(X), dtype=float)
        return np.array([self.value(x) for x in X])

    def gradients(self, X):
        """The gradient at each row of a (B, dim) batch, as a C-ordered
        (B, dim) array."""
        X = np.asarray(X, dtype=float)
        if self.vectorized:
            return np.ascontiguousarray(self.grad(X), dtype=float)
        return np.array([self.gradient(x) for x in X]).reshape(X.shape)

    def hess(self, x):
        if self.hessian is None:
            raise ValueError(f"objective {self.name!r} has no Hessian")
        return np.asarray(self.hessian(np.asarray(x, dtype=float)), dtype=float)

    def grad_norm(self, x):
        return norm(self.gradient(x))

    def in_box(self, x):
        x = np.asarray(x, dtype=float)
        return not ((x < self._box_lo) | (x > self._box_hi)).any()

    def box_diameter(self):
        return norm(self.box[:, 1] - self.box[:, 0])

    def catalog_entry(self, point, kind=None):
        """Catalog entry matching ``point`` (and ``kind`` if given), or None."""
        point = np.asarray(point, dtype=float)
        radius = CATALOG_RTOL * (1.0 + norm(point))
        for cp in self.critical_points:
            if norm(cp.point - point) <= radius and kind in (None, cp.kind):
                return cp
        return None


# ---------------------------------------------------------------------------
# norms and lanes


def dot(u, v):
    """u . v of two points (arrays or sequences of floats), the one inner
    product in the program: products summed in index order up to the float
    lane's dims, where Python floats make the same operations; np.dot beyond."""
    n = len(u)
    if n > FLOAT_LANE_DIMS:
        return float(np.dot(u, v))
    return u[0] * v[0] + u[1] * v[1] if n == 2 else u[0] * v[0]


def sumsq(v):
    """|v|^2 = dot(v, v); with :func:`row_norms`, the one definition of |.|."""
    return dot(v, v)


def norm(v):
    return math.sqrt(sumsq(v))


def row_norms(X):
    """|x| of each row of a C-ordered (B, dim) array, bit for bit as
    :func:`norm` of that row: index order over the columns up to the
    float lane's dims, the row-wise dot product np.vecdot beyond."""
    X = np.asarray(X)
    return np.sqrt(np.vecdot(X, X) if X.shape[-1] > FLOAT_LANE_DIMS else sumsq(X.T))


# Points of the float lane (dim <= FLOAT_LANE_DIMS, the dims the benchmark
# runs) are tuples of Python floats: numpy's per-call overhead on 1-2
# element arrays is several times a step's arithmetic.
FLOAT_LANE_DIMS = 2


class Lane(NamedTuple):
    """How gradient descent, DOP853 flow and the ascent solve hold points of
    one objective: ``point`` converts a 1-D array, ``grad`` calls f.grad on a
    1-D float array, ``axpy(x, c, v)`` is x + c v, ``sub(x, y)`` is x - y,
    ``inside`` is in_box (NaN counts as inside) and ``comb(x, s, terms,
    vs)`` is the chain of axpy(x, s w, vs[i]) over the (i, w) pairs of
    ``terms`` in order, x itself when terms is empty: one DOP853 stage sum
    in one call, and ``norm`` is |v| of a point or a gradient,
    :func:`norm` itself on the ndarray lane.  Both lanes make the same
    IEEE operations, bit for bit; the float lane's are written out per
    dimension, as a loop over coordinates is slower.  The float lane's
    ``bounds`` are the padded box ``inside`` tests against, (lower, upper)
    lists of floats, for loops written out over local floats
    (``reverse._orbit1``); None on the ndarray lane."""

    point: object
    grad: object
    axpy: object
    sub: object
    inside: object
    comb: object
    norm: object
    bounds: tuple = None


def _ndarray_comb(x, s, terms, vs):
    for i, w in terms:
        x = x + (s * w) * vs[i]
    return x


def _comb1(x, s, terms, vs):
    if not terms:
        return x
    (x0,) = x
    for i, w in terms:
        x0 += (s * w) * vs[i][0]
    return (x0,)


def _comb2(x, s, terms, vs):
    if not terms:
        return x
    x0, x1 = x
    for i, w in terms:
        c = s * w
        v0, v1 = vs[i]
        x0 += c * v0
        x1 += c * v1
    return (x0, x1)


def _lane(f):
    if f.dim > FLOAT_LANE_DIMS:
        return Lane(lambda x: np.array(x, dtype=float), f.gradient, lambda x, c, v: x + c * v,
                    operator.sub, f.in_box, _ndarray_comb, norm)
    grad = f.grad
    lo, hi = f._box_lo.tolist(), f._box_hi.tolist()
    if f.dim == 1:
        (l0,), (h0,) = lo, hi
        axpy = lambda x, c, v: (x[0] + c * v[0],)
        sub = lambda x, y: (x[0] - y[0],)
        inside = lambda x: not (x[0] < l0 or x[0] > h0)
        comb = _comb1
        vnorm = lambda v: math.sqrt(v[0] * v[0])
    else:
        (l0, l1), (h0, h1) = lo, hi
        axpy = lambda x, c, v: (x[0] + c * v[0], x[1] + c * v[1])
        sub = lambda x, y: (x[0] - y[0], x[1] - y[1])
        inside = lambda x: not (x[0] < l0 or x[0] > h0 or x[1] < l1 or x[1] > h1)
        comb = _comb2
        vnorm = lambda v: math.sqrt(v[0] * v[0] + v[1] * v[1])

    def floats_grad(x):
        g = grad(np.array(x))
        return g if type(g) is list else np.asarray(g, dtype=float).tolist()
    return Lane(lambda x: tuple(np.asarray(x, dtype=float).tolist()), floats_grad, axpy, sub,
                inside, comb, vnorm, (lo, hi))


# ---------------------------------------------------------------------------
# builtins

# Himmelblau critical points, produced once by a Newton root-finding oracle
# on the gradient refined to 1e-12 (see refine_critical_point); the
# regeneration test re-derives them from rounded seeds.
HIMMELBLAU_CRITICAL_POINTS = (
    ((3.0, 2.0), "local_min"),
    ((-2.805118086952745, 3.131312518250573), "local_min"),
    ((-3.779310253377747, -3.2831859912861696), "local_min"),
    ((3.5844283403304917, -1.8481265269644034), "local_min"),
    ((-0.2708445906673476, -0.9230385564799815), "local_max"),
    ((-3.0730257507643897, -0.08135304428796751), "saddle"),
    ((-0.12796134673068005, -1.9537149802445766), "saddle"),
    ((0.08667750455539634, 2.884254701174776), "saddle"),
    ((3.385154183607021, 0.0738518798377493), "saddle"),
)

BUILTIN_NAMES = ("quad", "double_well", "himmelblau")


# The builtins' f and grad take a point (dim,) or a batch (B, dim): a
# point's coordinates are unpacked as Python floats, a batch's by ``p.T``
# as columns, and the same arithmetic runs either way.  Squares are
# written u * u: np.float64 ** 2 calls the C library's pow, which an
# array's ** 2 does not, and the two can differ in the last bit.


def _himmelblau_value(p):
    x, y = p.tolist() if p.ndim == 1 else p.T
    u = x * x + y - 11.0
    v = x + y * y - 7.0
    return u * u + v * v


def _himmelblau_grad(p):
    x, y = p.tolist() if p.ndim == 1 else p.T
    u = x * x + y - 11.0
    v = x + y * y - 7.0
    g = [4.0 * x * u + 2.0 * v, 2.0 * u + 4.0 * y * v]
    return g if p.ndim == 1 else np.array(g).T


def _double_well_value(p):
    (x,) = p.tolist() if p.ndim == 1 else p.T
    u = x * x - 1.0
    return u * u


def _double_well_grad(p):
    (x,) = p.tolist() if p.ndim == 1 else p.T
    g = [4.0 * x * (x * x - 1.0)]
    return g if p.ndim == 1 else np.array(g).T


def _himmelblau_hess(p):
    x, y = p
    return np.array([
        [12.0 * x * x + 4.0 * y - 42.0, 4.0 * (x + y)],
        [4.0 * (x + y), 12.0 * y * y + 4.0 * x - 26.0],
    ])


@functools.cache
def _himmelblau_constants():
    """(L, catalog f-values) of himmelblau as plain floats, computed once
    per process: L from the four corner-Hessian spectral norms."""
    corners = [np.array(c, dtype=float) for c in itertools.product((-5.0, 5.0), repeat=2)]
    lip = max(float(np.linalg.norm(_himmelblau_hess(c), 2)) for c in corners)
    return lip, tuple(float(_himmelblau_value(np.array(p))) for p, _ in HIMMELBLAU_CRITICAL_POINTS)


def make_builtin(name, params=()):
    """Construct a benchmark objective by name.

    quad:        params are eigenvalues l_1..l_n (all > 0), f = 0.5*sum l_i x_i^2,
                 L = max l_i (global), box [-10, 10]^n.
    double_well: 1-D f(x) = (x^2 - 1)^2 on [-b, b] (params optionally (b,),
                 default b = 1.5, b >= 1 required), L = 12 b^2 - 4.
    himmelblau:  f(x, y) = (x^2 + y - 11)^2 + (x + y^2 - 7)^2 on [-5, 5]^2.
                 L = 326.79215610874223, the max spectral norm of the Hessian
                 over the box corners; the Hessian entries are quadratics with
                 no interior stationary points, and a dense-grid cross-check
                 reproduces the same constant.  L and the catalog's f-values
                 are computed once per process; each call still builds its
                 own box and critical-point arrays.

    ``hessian_lipschitz`` M bounds |D^3 f(x)[h]| <= M |h| (spectral norm)
    on the box, so it is a Hessian Lipschitz constant there (the box is
    convex):
    quad:        M = 0, the Hessian is constant.
    double_well: M = 24 b, since f''' = 24 x.
    himmelblau:  M = sqrt(15440) ~ 124.26.  D^3 f[h] = [[24x h1 + 4 h2,
                 4 h1 + 4 h2], [4 h1 + 4 h2, 4 h1 + 24y h2]]; its squared
                 Frobenius norm, which bounds the squared spectral norm, is
                 h^T Q h with Q = [[576x^2 + 48, 96(x + y) + 32],
                 [96(x + y) + 32, 576y^2 + 48]].  lambda_max(Q) grows with
                 each diagonal entry and with |Q_12|, all largest on
                 [-5, 5]^2 at x = y = 5, where Q = [[14448, 992], [992,
                 14448]] and lambda_max = 15440.

    A builtin's ``grad`` returns a point's gradient as a list of floats
    when dim <= FLOAT_LANE_DIMS, for the float lane to take as is; as
    for every objective, ``gradient`` and ``gradients`` return arrays.
    """
    params = tuple(float(v) for v in params)
    if not all(math.isfinite(v) for v in params):
        raise ValueError(f"{name} parameters must be finite, got {params}")
    if name == "quad":
        if not params:
            raise ValueError("quad needs at least one eigenvalue")
        lam = np.array(params)
        if np.any(lam <= 0.0):
            raise ValueError("quad eigenvalues must be positive (0 must be a minimum)")
        n = lam.size
        box = np.array([[-10.0, 10.0]] * n)
        crit = (CriticalPoint(np.zeros(n), "local_min", 0.0),)
        return ObjectiveFunction(
            dim=n,
            f=lambda x, lam=lam: 0.5 * np.vecdot(x * x, lam),
            grad=lambda x, lam=lam, ls=lam.tolist(): (
                [li * xi for li, xi in zip(ls, x.tolist())]
                if x.ndim == 1 and n <= FLOAT_LANE_DIMS else lam * x),
            hessian=lambda x, lam=lam: np.diag(lam),
            lipschitz_L=float(lam.max()),
            box=box,
            critical_points=crit,
            name="quad",
            params=params,
            vectorized=True,
            hessian_lipschitz=0.0,
        )
    if name == "double_well":
        if len(params) > 1:
            raise ValueError(f"double_well takes at most one parameter (b), got {params}")
        b = params[0] if params else 1.5
        if b < 1.0:
            raise ValueError("double_well box half-width must be >= 1")
        box = np.array([[-b, b]])
        crit = (
            CriticalPoint(np.array([-1.0]), "local_min", 0.0),
            CriticalPoint(np.array([0.0]), "local_max", 1.0),
            CriticalPoint(np.array([1.0]), "local_min", 0.0),
        )
        return ObjectiveFunction(
            dim=1,
            f=_double_well_value,
            grad=_double_well_grad,
            hessian=lambda x: np.array([[12.0 * x[0] * x[0] - 4.0]]),
            lipschitz_L=12.0 * b * b - 4.0,
            box=box,
            critical_points=crit,
            name="double_well",
            params=(b,),
            vectorized=True,
            hessian_lipschitz=24.0 * b,
        )
    if name == "himmelblau":
        if params:
            raise ValueError("himmelblau takes no parameters")
        box = np.array([[-5.0, 5.0], [-5.0, 5.0]])
        lip, values = _himmelblau_constants()
        crit = tuple(CriticalPoint(np.array(p), kind, v)
                     for (p, kind), v in zip(HIMMELBLAU_CRITICAL_POINTS, values))
        return ObjectiveFunction(
            dim=2,
            f=_himmelblau_value,
            grad=_himmelblau_grad,
            hessian=_himmelblau_hess,
            lipschitz_L=lip,
            box=box,
            critical_points=crit,
            name="himmelblau",
            params=(),
            vectorized=True,
            hessian_lipschitz=math.sqrt(15440.0),
        )
    raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


def refine_critical_point(f, x0, tol=1e-12, max_iter=100):
    """Newton iteration on the gradient; the oracle behind the frozen catalogs."""
    x = np.asarray(x0, dtype=float)
    for _ in range(max_iter):
        g = f.gradient(x)
        if norm(g) <= tol:
            try:
                x = x - np.linalg.solve(f.hess(x), f.gradient(x))  # one polish step
            except np.linalg.LinAlgError:
                pass
            return x
        x = x - np.linalg.solve(f.hess(x), g)
    raise RuntimeError(f"Newton refinement did not reach |grad| <= {tol} from {x0}")


# ---------------------------------------------------------------------------
# minimum-norm element


def _affine_min_norm_weights(points):
    # Minimum-norm point of the affine hull: KKT system for
    # min |w P|^2  s.t.  sum w = 1  (w unconstrained in sign).
    m = points.shape[0]
    a = np.zeros((m + 1, m + 1))
    a[:m, :m] = points @ points.T
    a[:m, m] = 1.0
    a[m, :m] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(a, b, rcond=None)[0]
    return sol[:m]


def min_norm_element(generators, tol=1e-12):
    """Minimum-Euclidean-norm point of the convex hull of the generators.

    Wolfe's active-set method: keep a corral of affinely independent
    generators, alternate the affine minimizer with line searches back to
    the simplex, and stop when <x, g> >= |x|^2 - tol*(1 + |x|^2) for all
    generators, which certifies the hull minimum to ~2*tol in the
    squared objective.
    """
    pts = np.array([np.asarray(g, dtype=float) for g in generators])
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("min_norm_element needs a nonempty generator list")
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy()

    start = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    corral = [start]
    w = np.array([1.0])
    x = pts[start].copy()
    for _ in range(16 * m * m + 64):
        dots = pts @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        if dots[j] >= xx - tol * (1.0 + xx) or j in corral:
            return x
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            v = _affine_min_norm_weights(pts[corral])
            if np.all(v > 1e-14):
                w = v
                break
            shrink = v <= 1e-14
            theta = min(1.0, float(np.min(w[shrink] / (w[shrink] - v[shrink]))))
            w = w + theta * (v - w)
            w[w < 1e-14] = 0.0
            keep = w > 0.0
            corral = [c for c, k in zip(corral, keep) if k]
            w = w[keep]
            w = w / w.sum()
        x = w @ pts[corral]
    return x
