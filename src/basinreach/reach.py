"""Reachability procedures: construct initial points from which gradient
descent or gradient flow converges to a designated target, estimate
stability radii empirically, and run the step-size sharpness-exclusion
experiment.

Every reach runs one driver, ``_reach``, toward its goal (``_Basin`` for
a minimum, ``_Level`` for a saddle): take the goal's one escape plan
(``plan``: the radius delta, the escape radius rho and the dynamics the
escape runs on), pick an ascent seed a near the target with f(a) >
f(target), escape backward from a to x0 on the rho-sphere around the
target, run forward from x0 on the dynamics and gradient the escape hands
over, and measure the distance from the forward limit to the target:
reverse orbit and GD under a StepSchedule, reverse and forward DOP853
flow under FlowSettings, as in the probe.  A saddle's forward run stops
at the level set f = f(target); a minimum reach runs on delta =
min(delta_cert, epsilon) and probes only without delta_cert.

The certificate of a minimum (``_Basin``, built once by each probe and
each minimum reach) has two sets.  The certified ball B_r, r = min(epsilon,
lambda_min / (2M)) (epsilon when M = 0), with lambda_min = lambda_min(hess
f(target)) > 0 by a rounding margin (``_Basin``) and M the objective's
``hessian_lipschitz``; B_r lies in B_epsilon, which must fit in the box.
On B_r every Hessian has its spectrum in [mu_r, L], mu_r = lambda_min -
M r >= lambda_min / 2 (Nesterov & Polyak 2006, Math. Program. 108,
Lemma 1).  A GD step gives
x_{k+1} - x* = (I - alpha_k H_k)(x_k - x*), H_k the mean Hessian on the
segment from x* to x_k, so with alpha_k < 2/L |x_{k+1} - x*| <= max(1 -
alpha_k mu_r, alpha_k L - 1) |x_k - x*|, (1 - alpha_k mu_r) |x_k - x*|
once alpha_k < 1/L: B_r is invariant and a nonsummable schedule drives the
iterates to the target itself.  The exact flow has d/dt |x - x*|^2 <= -2
mu_r |x - x*|^2; DOP853 follows it to its accuracy.  Without a Hessian or
M there is no B_r.  The capture set K = {x in B_epsilon : f(x) < c}, for
1-D and 2-D objectives whose B_r is not all of B_epsilon (where K would
add nothing), c a certified lower bound of f on the epsilon-sphere
(``_capture_level``; in 2-D the floor of a circle grid taken in levels
of finer stride, with f evaluated only where first-order minorants from
every point with a gradient of the earlier levels in its arc leave a
point in play, and, in the last level, grad f only where the point's
value still does; with M, the minorants' curvature and the gradient
bound come from the spectrum of hess f(target) widened by M epsilon,
which holds on all of B_epsilon, not from L).  With alpha <
2/L the descent lemma gives f(x - t alpha g) <= f(x) < c for t in [0, 1],
so a GD step from K never crosses the sphere; the exact flow is monotone
in f.  In K, sum alpha_k (1 -
alpha_k L/2) |g_k|^2 < inf, so a nonsummable schedule forces liminf |g_k|
= 0: a captured run stays in B_epsilon and reaches any gtol; its limit is
not claimed.  As f(x) <= f* + L |x - x*|^2 / 2, every start within
delta_cert = max(sqrt(2 (c - f*)/L), r) of the target lies in K or B_r;
delta_cert is None where neither certifies a positive radius.

A minimum reach stops its forward run on its first state in B_r as
converged, its limit the target by proof rather than by a tolerance,
final_distance 0, with provenance stopped_on = "certified_ball", s = r,
mu_s = mu_r and a ``certificate``: s, mu_s,
distance_bound = |x_m - x*| <= s, observed on the stopping state x_m,
and, for GD, length_bound = the measured prefix + (L_r / mu_r) |x_m -
x*|, L_r = min(L, lambda_max + M r) >= the top of every Hessian's
spectrum on B_r (lambda_max = lambda_max(hess f(target)); the Hessian
moves by at most M r there), as the tail sum_k alpha_k |grad f(x_k)| <=
L_r sum_k alpha_k |x_k - x*| telescopes against the contraction.  The
probe's starts stop by the same test with a relative rounding slack
PROBE_SLACK on r, and in K; the reach's has none, so distance_bound <= s
exactly.  Saddle targets, objectives without M and the run and eos
procedures keep running to gtol.
"""

import dataclasses
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .descent import _Descent, classify_limit, run_gd
from .flow import (SEED_FLOOR_RTOL, FlowSettings, _Flow, _sphere_exit_detail, integrate,
                   integrate_minnorm, path_length)
from .landscape import (norm, require_count, require_integer, require_nonnegative_finite,
                        require_positive_finite, row_norms)
from .reverse import reverse_orbit
from .sampling import directions, unit_directions
from .schedule import StepSchedule, constant, require_admissible
from .trajectory import _to_level, finite_point, march, recorded, start

# quasi-random ascent-seed directions scanned after (or before) the axes
SCAN_RANDOM = 64
PROBE_BISECTIONS = 6  # stability_probe's bisection steps on the radius
DIVERGENCE_FACTOR = 1e3  # edge_of_stability: |x| > this * (1 + box diameter) diverged
PROBE_SLACK = 1e-9  # stability_probe's relative rounding slack on its ball tests
# _Basin.ball's rounding margin on lambda_min, per dimension and per |H|_2:
# twice the eigenvalue error 16 u, as mu_s = lambda_min / 2 must clear it
SPECTRUM_RTOL = 32.0 * 2.0 ** -53


@dataclass(frozen=True, eq=False)
class StabilityEstimate:
    epsilon: float
    delta_hat: float
    samples: int
    failures: tuple
    capture_level: float = None
    delta_cert: float = None


@dataclass(frozen=True, eq=False)
class ReachReport:
    target: np.ndarray
    x0: np.ndarray
    reverse_part: object
    forward_part: object
    final_distance: float
    delta_used: float
    delta_source: str
    ascent_seed: np.ndarray
    status: str
    seed_radius: float
    escape_radius: float = float("nan")


@dataclass(frozen=True)
class ReachBudgets:
    """Iteration and sampling budgets for the reach pipelines.

    gtol defaults to min(1e-8, 1e-3 * tol); delta_override reuses a
    radius found before, legitimate as the stability radius is uniform
    over admissible schedules.  gtol, max_iter and kbar_max bound only a
    reach under a StepSchedule: a flow reach refuses them (ValueError) at
    any value but their defaults, as its FlowSettings' gtol and t_max end
    both its legs.  The counts must be nonnegative integers, the seed an
    integer (a float is refused, not truncated), a given gtol and a given
    delta_override nonnegative and finite: 0, a radius the probe can
    return, is allowed.
    """

    max_iter: int = 200_000
    gtol: float = None
    kbar_max: int = 1 << 16
    delta_override: float = None
    seed: int = 0

    def __post_init__(self):
        require_count(max_iter=self.max_iter, kbar_max=self.kbar_max)
        require_integer(seed=self.seed)
        require_nonnegative_finite(
            gtol=0.0 if self.gtol is None else self.gtol,
            delta_override=0.0 if self.delta_override is None else self.delta_override)


# points of the circle grid behind the 2-D capture certificate, and the
# strides of its levels: every 32nd point (the coarse level), the rest of
# every 8th (the middle level), then all the rest (the fill)
CAPTURE_GRID = 256
CAPTURE_STRIDES = (32, 8, 1)
_THETA = 2.0 * np.pi * np.arange(CAPTURE_GRID) / CAPTURE_GRID
_UNIT = np.stack([np.cos(_THETA), np.sin(_THETA)], axis=1)
# the grid runs in arcs between coarse points, each with _ARC_POSTS posts
# (points of stride 8, the coarse point first); a post or a gradient (x, y)
# is the complex x + iy, and _POST_CONJ[k] the conjugate of post k's unit
# point, so that g _POST_CONJ[k] is g in post k's frame: radial, tangential
_ARCS = CAPTURE_GRID // CAPTURE_STRIDES[0]
_ARC_POSTS = CAPTURE_STRIDES[0] // CAPTURE_STRIDES[1]
_POST_CONJ = _UNIT[::CAPTURE_STRIDES[1]].copy().view(complex)[:, 0].conj()
# the unit chord u from a grid point to the point n steps on (n < 0: back),
# |n| <= 32, in the first point's frame, (cos(2 pi n/N) - 1, sin(2 pi
# n/N)), as the conjugate complex number _CHORD_CONJ[n]; |u|^2 =
# _CHORD_SQ[n] and |u| = _CHORD_LEN[n].  numpy's negative indices read n < 0
_HALF = np.pi * np.r_[0:CAPTURE_STRIDES[0] + 1, -CAPTURE_STRIDES[0]:0] / CAPTURE_GRID
_CHORD_CONJ = -2.0 * np.sin(_HALF) ** 2 - 1j * np.sin(2.0 * _HALF)
_CHORD_LEN = 2.0 * np.abs(np.sin(_HALF))
_CHORD_SQ = _CHORD_LEN * _CHORD_LEN


def _ladder_level(stride):
    """The table of the level whose points lie ``stride`` apart, those of
    earlier levels left out: (grid indices, posts, steps, chord
    conjugates), the last three shaped (earlier points of an arc, level
    points).  Column j is for grid point grid[j]; row p names the p-th
    point of the earlier levels in its arc, all of them posts, in order
    (the next arc's coarse point last, post 0 after the final arc): the
    post, its grid steps to the point, and the chord from it."""
    coarse, post = CAPTURE_STRIDES[:2]
    before = CAPTURE_STRIDES[CAPTURE_STRIDES.index(stride) - 1]
    offsets = np.arange(stride, coarse, stride)
    offsets = offsets[offsets % before > 0]
    src, arcs = np.arange(0, coarse + 1, before)[:, None], np.arange(0, CAPTURE_GRID, coarse)
    posts = np.repeat((arcs + src) // post % len(_POST_CONJ), len(offsets), axis=1)
    steps = np.tile(offsets - src, _ARCS)
    return (arcs[:, None] + offsets).ravel(), posts, steps, _CHORD_CONJ[steps]


# the middle level and the fill
_LEVELS = tuple(_ladder_level(stride) for stride in CAPTURE_STRIDES[1:])


def _spectrum(f, target):
    """(lambda_min, lambda_max, v_max) of hess f(target) from one eigh: its
    extreme eigenvalues and a unit eigenvector of the largest, signed so
    that its largest-magnitude component (the first on ties) is positive,
    whatever sign the LAPACK build returns."""
    lam, V = np.linalg.eigh(f.hess(target))
    v = V[:, -1]
    return float(lam[0]), float(lam[-1]), (v if v[np.argmax(np.abs(v))] > 0.0 else -v)


def _capture_level(f, target, epsilon, curvature=None):
    """c <= min f on the epsilon-sphere around target, or None.  1-D: the
    smaller sphere value; 2-D: each of N = CAPTURE_GRID circle points y_i
    lies within the chord d = 2 epsilon sin(pi/(2N)) of its arc, where f >=
    b_i = f(y_i) - |grad f(y_i)| d - L d^2/2 - 1e-12 (1 + |f(y_i)|), and c is
    the least b_i, the float one pass over the grid gives, from far fewer
    evaluations.

    The grid is taken in levels of stride CAPTURE_STRIDES = (32, 8, 1), each
    without the points of the levels before it.  The coarse level takes f
    and grad f at its 8 points.  A point y_j of a later level is bounded
    from every point y_i of the earlier levels in its arc (its two coarse
    ends, and in the fill the arc's three middle points too), n grid steps
    away, y_j - y_i = epsilon u with u the tabled unit chord over n steps
    (``_CHORD_CONJ``, in y_i's frame), |n| <= 32 and |u| = 2 sin(pi |n|/N)
    <= 2 sin(pi/8) < 2.  The chord lies in B_epsilon and so in the box,
    where grad f is L-Lipschitz, so f(y_j) >= f_i + epsilon <g_i, u> - L_c
    epsilon^2 |u|^2/2, the first-order minorant of Breiman & Cutler's global
    optimisation (1993, Math. Program. 58:179-199), and |grad f(y_j)| <=
    |g_i| + L_g epsilon |u|, the ceiling, with L_c = L_g = L.  ``curvature``
    = (lambda_min, lambda_max, M), the extreme eigenvalues of the float hess
    f(target) and the objective's ``hessian_lipschitz``, tightens both to
    the target's own: on B_epsilon every Hessian lies within M epsilon of
    the exact hess f(target) (Nesterov & Polyak 2006, Lemma 1), whose
    eigenvalues lie within e = SPECTRUM_RTOL n |H|_2 of the computed ones,
    |H|_2 = max(|lambda_min|, |lambda_max|): e is twice ``_Basin``'s bound
    on the eigenvalue error, the margin ``_Basin.ball`` uses.  So every
    Hessian on a chord is at least (lambda_min - e - M epsilon) I, and its
    spectral norm at most |H|_2 + e + M epsilon: L_c = min(L, M epsilon + e
    - lambda_min), negative where the chord is strongly convex, and L_g =
    min(L, |H|_2 + e + M epsilon).  From each y_i, over the level's whole
    table at once, a point gets its minorant less d times its ceiling, f_i +
    epsilon <g_i, u> - L_c epsilon^2 |u|^2/2 - d (|g_i| + L_g epsilon |u|),
    and d times the ceiling.  A middle point without a gradient holds f_i -
    d |g_i| = -inf, d |g_i| = +inf and epsilon g_i = 0, so it bounds
    nothing; the coarse ends always do.  Each level tests against c_k, the
    least b of the points with a gradient so far (c_1 that of the coarse
    level), and skips a point where a lower bound of its b_j, less L d^2/2
    and its own 1e-12 (1 + |f(y_j)|), is above c_k + mu_k:
    - with no evaluation, where the greatest of its minorants less d times
      the ceiling is;
    - in the fill, the last level, with its value alone, where f(y_j) less
      d times the least ceiling is;
    and the rest take a gradient and their b_j.  A middle point in play
    takes its value and gradient together, a bound for the fill.  c is the
    least b of the points with a gradient, c_1 among them.  No call has an
    empty batch.  Each b_i keeps L, so the constants move only which points
    are taken.

    The margin is mu_k = 1e-12 (1 + |c_k| + 2 Phi), Phi = 1 + max |f_i| +
    (max |g_i| + 4 L epsilon) (4 epsilon + |target|_inf) over the coarse
    level.  Every grid point lies within 2 epsilon of a coarse point y_i,
    so |f| <= |f_i| + 2 epsilon |g_i| + 2 L epsilon^2 and |grad f| <= |g_i|
    + 2 L epsilon there: Phi bounds every term of both tests, from every
    point of an arc, and of a skipped b_j, as |L_c| and L_g are at most L
    (lambda_min - e is at most the exact lambda_min <= L).  So
    mu_k holds the term 1e-12 (1 + |f(y_j)|) <= 1e-12 Phi that the tests
    leave out.  A float point target + epsilon * (unit point) lies within
    2^-53 (|target|_inf + 3 epsilon) of its ideal point in each
    coordinate, and a tabled chord, from the sines of exact multiples of
    pi/N, within 1e-16 of its ideal one, so the float chord y_j - y_i
    differs from epsilon u by less than 2e-15 (|target|_inf + epsilon),
    which moves a minorant or a ceiling by less than 3e-15 Phi; epsilon g_i
    in y_i's frame, its product with the conjugate unit point, errs by less
    than 1e-15 epsilon |g_i|, which moves a minorant by less than 2e-15 Phi
    more.  A float point may lie that far outside B_epsilon, where the
    Hessian's bounds widen by M times that distance; where L_c or L_g is
    below L, M epsilon < 2L, so this moves a minorant or a ceiling by less
    than 1e-14 Phi, and the roundings of L_c and L_g by a few u Phi.  The
    float arithmetic of a test or of b_j, a few dozen roundings, errs by
    less than 1e-14 Phi.  More than 1e-12 (1 + |c_k| + Phi/2) of mu_k is
    left, the allowance for rounding in f and grad f themselves, between
    which the Lipschitz bounds hold.  So a skipped point's float b_j is
    above c_k >= c, and c is the least b_i over the whole grid, bit for
    bit: each b_i comes from the same point, value and gradient norm, by
    the same float expression, as in one pass over the grid.  An objective
    that is not ``vectorized`` takes the same points one row at a time, and
    so gives the same c from the same counts."""
    L = f.lipschitz_L
    if not L > 0.0:
        return None
    if f.dim == 1:
        return float(f.values(target + np.array([[-epsilon], [epsilon]])).min())
    if f.dim != 2:
        return None
    L_c = L_g = L
    if curvature is not None:
        lam, lam_max, M = curvature
        top = max(abs(lam), abs(lam_max))
        spread = SPECTRUM_RTOL * f.dim * top + M * epsilon
        L_c, L_g = min(L, spread - lam), min(L, top + spread)
    d = 2.0 * epsilon * math.sin(math.pi / (2 * CAPTURE_GRID))
    half_ld2 = 0.5 * L * d * d
    points = target + epsilon * _UNIT
    rows = points[::CAPTURE_STRIDES[0]]
    fc, gc = f.values(rows), f.gradients(rows)
    ac, afc = row_norms(gc), np.abs(fc)
    c = float((fc - ac * d - half_ld2 - 1e-12 * (1.0 + afc)).min())
    t0, t1 = target.tolist()
    phi = 1.0 + max(afc.tolist()) + (max(ac.tolist()) + 4.0 * L * epsilon) * (
        4.0 * epsilon + max(abs(t0), abs(t1)))
    # each post: d |g|, f less that, and epsilon g in its frame; a post
    # without a gradient bounds nothing (+inf, -inf, 0)
    dg, base = np.full(len(_POST_CONJ), np.inf), np.full(len(_POST_CONJ), -np.inf)
    eg = np.zeros(len(_POST_CONJ), dtype=complex)
    dg[::_ARC_POSTS] = d * ac
    base[::_ARC_POSTS] = fc - dg[::_ARC_POSTS]
    eg[::_ARC_POSTS] = epsilon * gc.view(complex)[:, 0] * _POST_CONJ[::_ARC_POSTS]
    # d times the ceiling's growth, and that with the minorant's curvature,
    # by step count
    dgrow = (L_g * epsilon * d) * _CHORD_LEN
    cut = (0.5 * L_c * epsilon * epsilon) * _CHORD_SQ + dgrow

    def in_play(posts, steps, chords):
        # the level's points whose minorants less d times the ceiling, from
        # every post, are all at or below c + mu + L d^2/2, and that level
        level = c + 1e-12 * (1.0 + abs(c) + 2.0 * phi) + half_ld2
        low = base[posts] + (eg[posts] * chords).real - cut[steps]
        return np.flatnonzero(low.max(axis=0) <= level), level

    def floor(fy, gy):
        ay = row_norms(gy)
        return ay, min(c, float((fy - ay * d - half_ld2 - 1e-12 * (1.0 + np.abs(fy))).min()))

    (grid, posts, steps, chords), fill = _LEVELS
    play, _ = in_play(posts, steps, chords)
    if play.size:
        at = grid[play]
        rows = points[at]
        fy, gy = f.values(rows), f.gradients(rows)
        ay, c = floor(fy, gy)
        j = at // CAPTURE_STRIDES[1]
        dg[j] = d * ay
        base[j] = fy - dg[j]
        eg[j] = epsilon * gy.view(complex)[:, 0] * _POST_CONJ[j]
    grid, posts, steps, chords = fill
    play, level = in_play(posts, steps, chords)
    if not play.size:
        return c
    rows = points[grid[play]]
    fy = f.values(rows)
    posts, steps = posts.take(play, axis=1), steps.take(play, axis=1)
    left = fy - (dg[posts] + dgrow[steps]).min(axis=0) <= level
    if not left.any():
        return c
    return floor(fy[left], f.gradients(rows[left]))[1]


class _Basin:
    """The certificate around a cataloged local minimum (the module
    docstring), built once per probe and per minimum reach, and the goal of
    a minimum reach.  Building it makes the checks both share, in this
    order: the target as a start, its catalog entry (``what`` names the
    target in that message), epsilon, and B_epsilon inside the box.  Each
    part is taken on first use, so an unread one costs nothing:
    ``spectrum``, the one eigh of hess f(target) (``_spectrum``, None
    without a Hessian); ``ball``, (s, mu_s, L_s) of B_r, s = r, None
    without M or a Hessian or where lambda_min does not clear its rounding
    margin (below); ``certificate``, (c, delta_cert), which hands the
    capture grid (lambda_min, lambda_max, M) wherever there is M and a
    Hessian, where ``ball`` has read the spectrum already; and ``level``,
    f(target).  ``hit(t, x)`` ends a run on a state x in B_r as converged,
    the target its limit, naming the ball (stopped_on = "certified_ball",
    s, mu_s); ``event`` is the reach's stop as a ``march`` event, at |x -
    target| <= s by the lane's norm.

    As a reach's goal (``_reach``): ``plan`` checks a schedule's
    admissibility and gives the escape plan (delta, source, rho, cap,
    dynamics): delta is budgets.delta_override, else delta_cert, else the
    probed delta_hat (under the constant schedule at the same sup alpha,
    the fastest of the family the radius is uniform over), capped at
    epsilon, and its source; seed_radius must be at most delta/2.  rho =
    delta under flow settings, else ``_escape_radius``, the schedule halved
    before the scan while rho <= seed_radius; the cap is delta; at delta =
    0, rho is nan and nothing is scanned.  ``scan`` leads with +-v_max,
    along which an ascent step grows |x - target| by 1/(1 - alpha
    lambda_max) and f(a) - f* ~ lambda_max r^2/2 > 0, so the orbit's length
    does not grow with the condition number; the axes follow, then the
    quasi-random directions.  ``forward`` runs ``run_gd`` or forward
    ``integrate``, with ``event`` where there is a ball, and adds the ball's
    certificate (the module docstring) to a run it stopped.

    The margin belongs to the proof: B_r needs an exact floor lambda_min -
    M s > 0, and eigh returns a float lambda_min.  The float Hessian H' = ``hess(target)``
    differs from the exact H by Delta: each entry is a few roundings of
    terms within a small multiple of |H|_2 (true of the builtins' formulas
    at their minima), so within 8 u |H|_2 of the exact entry, u = 2^-53,
    and |Delta|_2 <= |Delta|_F <= 8 n u |H|_2 in dimension n.  eigh
    (LAPACK's syevd: Householder tridiagonalisation, then divide and
    conquer) is backward stable: its eigenvalues are exact for H' + E,
    |E|_2 <= p(n) u |H'|_2 with p a modest function of n (Golub & Van Loan,
    Matrix Computations, 4th ed., sec. 8.3), taken as 8 n.  By Weyl's
    inequality each computed eigenvalue is within eta = |Delta|_2 + |E|_2
    <= 16 n u |H|_2 of the exact one, |H|_2 the computed max(|lambda_min|,
    |lambda_max|) to first order in u.  The radius and mu_s come from the
    computed lambda = lambda_min, and three float tests carry the proof:
    - mu_s = lambda - M s > 0.  s <= lambda/(2M) keeps mu_s >= lambda/2, so
      the roundings of s and of mu_s (a few u of lambda) leave it positive.
      The exact floor lambda_min - M s differs from mu_s by up to eta, so
      ``ball`` asks lambda > SPECTRUM_RTOL n |H|_2 = 2 eta: then the exact
      floor is positive too.  At a degenerate minimum, where eigh can
      return a lambda_min of rounding size for an exact 0, there is no B_r,
      and the reach probes;
    - the B_r stop's lane norm |x - x*| <= s.  The float norm of the float
      difference is within (n + 2) u of the exact distance, so a stopped
      state lies within s (1 + (n + 2) u), where the Hessian's floor drops
      by at most (n + 2) u M s <= (n + 2) u lambda/2: the lambda/2 margin of
      mu_s holds it, and the test needs none of its own;
    - c - f* in delta_cert = sqrt(2 (c - f*)/L).  Its three roundings put
      the radius within 2u of the exact one, and f <= f* + L d^2/2 then
      reaches at most c + 4u (c - f*) at distance d = delta_cert.  In 2-D
      each b_i keeps 1e-12 (1 + |f(y_i)|) below f on its arc, which holds
      that excess and the float error of c itself.  In 1-D c is the smaller
      float sphere value, with no allowance: there the margin is the slack
      of the quadratic bound, which vanishes only where f'' = L along the
      whole segment to the sphere."""

    procedure, minimum = "reach_discrete", True

    def __init__(self, f, target, epsilon, what="target"):
        self.center = start(f, target, "target")
        entry = f.catalog_entry(target, "local_min")
        if entry is None:
            raise ValueError(f"{what} must be a cataloged local minimum")
        require_positive_finite(epsilon=epsilon)
        if not (f.in_box(target - epsilon) and f.in_box(target + epsilon)):
            raise ValueError("B_epsilon(target) must fit inside the operating box")
        self.f, self.target, self.epsilon, self.f_star = f, target, epsilon, entry.f_value

    @cached_property
    def spectrum(self):
        return None if self.f.hessian is None else _spectrum(self.f, self.target)

    @cached_property
    def ball(self):
        M = self.f.hessian_lipschitz
        if M is None or self.spectrum is None:
            return None
        lam, lam_max, _ = self.spectrum
        if not lam > SPECTRUM_RTOL * self.f.dim * max(abs(lam), abs(lam_max)):
            return None
        s = min(self.epsilon, lam / (2.0 * M) if M > 0.0 else math.inf)
        return s, lam - M * s, min(self.f.lipschitz_L, lam_max + M * s)

    @cached_property
    def certificate(self):
        # c only where B_r is not all of B_epsilon; a zero radius is none
        r = self.ball[0] if self.ball else 0.0
        M = self.f.hessian_lipschitz
        curvature = None if M is None or self.spectrum is None else (*self.spectrum[:2], M)
        c = None if r >= self.epsilon else _capture_level(self.f, self.target, self.epsilon,
                                                          curvature)
        if c is not None:
            r = max(r, math.sqrt(2.0 * max(c - self.f_star, 0.0) / self.f.lipschitz_L))
        return c, r or None

    @cached_property
    def level(self):
        return self.f.value(self.target)

    def hit(self, t, x):
        s, mu, _ = self.ball
        return ("converged", np.array(self.target), t, x,
                {"stopped_on": "certified_ball", "s": s, "mu_s": mu})

    def event(self, prev, t, x, fx):
        lane = self.f._lane
        return self.hit(t, x) if lane.norm(lane.sub(x, self.center)) <= self.ball[0] else None

    def plan(self, seed_radius, dynamics, budgets):
        descent = isinstance(dynamics, StepSchedule)
        if descent:
            require_admissible(dynamics, self.f, "prox", self.procedure)
        delta, source = budgets.delta_override, "override"
        if delta is None:
            delta, source = self.certificate[1], "certified"
        if delta is None:
            probed = constant(dynamics.sup_alpha) if descent else dynamics
            delta = stability_probe(self.f, self.target, self.epsilon, probed,
                                    seed=budgets.seed).delta_hat
            source = "probe"
        delta = min(float(delta), self.epsilon)
        if delta > 0.0 and seed_radius > 0.5 * delta:
            raise ValueError(f"seed_radius {seed_radius} must be at most half the {source} "
                             f"stability radius {delta}")
        rho = delta if delta > 0.0 else math.nan
        while descent and delta > 0.0 and (
                rho := _escape_radius(self.f, delta, dynamics.sup_alpha)) <= seed_radius:
            # rho > 0.6 delta >= seed_radius once alpha L < 1/4: twice at most
            dynamics = dynamics.scaled(0.5)
        return delta, source, rho, delta, dynamics

    def scan(self, seed):
        lead = (self.spectrum[2], -self.spectrum[2]) if self.spectrum else ()
        fresh = lambda d: not any(np.array_equal(d, v) for v in lead)
        return chain(lead, filter(fresh, directions(self.f.dim, SCAN_RANDOM, seed)))

    def forward(self, x0, dynamics, g0, gtol, max_iter):
        event = self.event if self.ball else None
        descent = isinstance(dynamics, StepSchedule)
        fwd = (run_gd(self.f, x0, dynamics, gtol=gtol, max_iter=max_iter, event=event, g0=g0)
               if descent else integrate(self.f, x0, "forward", dynamics, event=event, g0=g0))
        if fwd.provenance.get("stopped_on") != "certified_ball":
            return fwd
        s, mu, L = self.ball
        dist = norm(fwd.final_x - self.target)
        length = (path_length(fwd) if len(fwd) > 1 else 0.0) + L / mu * dist if descent else None
        cert = dict(name="certified_ball", s=s, mu_s=mu, distance_bound=dist, length_bound=length)
        return dataclasses.replace(fwd, provenance=dict(fwd.provenance, certificate=cert))


class _Level:
    """The goal of a saddle reach: the level set f = f(target), ``level``,
    of a cataloged saddle, where the forward run stops (``_run_to_level``
    or ``integrate_minnorm``, its limit the crossing).  Building it checks
    the target as a start, its catalog entry and ``classify_limit``'s
    verdict.  Its ``plan`` checks a schedule's admissibility and gives
    (delta, "given", rho, cap, dynamics): delta the one given, with 0 <
    seed_radius < delta <= epsilon (not delta/2 as at a minimum), rho =
    delta and the cap epsilon; epsilon only caps delta and |x0 - target|
    (to the crossing's 1e-8 delta under flow settings), so B_epsilon(target)
    may leave the box.  The scan tries the axes last, as they can lie on the
    stable manifold, and no eigenvector leads: a saddle's top eigenvector
    is tangent to that manifold, from which the forward run creeps back to
    the saddle above the level."""

    procedure, minimum = "reach_general", False

    def __init__(self, f, target, epsilon, delta):
        start(f, target, "target")
        if f.catalog_entry(target, "saddle") is None:
            raise ValueError("target must be a cataloged saddle")
        if (kind := classify_limit(f, target).kind) != "saddle":
            raise ValueError(f"classify_limit disagrees with the catalog: {kind}")
        self.f, self.target, self.epsilon, self.delta = f, target, epsilon, delta
        self.level = f.value(target)

    def plan(self, seed_radius, dynamics, budgets):
        if not seed_radius < self.delta <= self.epsilon:
            raise ValueError("need 0 < seed_radius < delta <= epsilon")
        if isinstance(dynamics, StepSchedule):
            require_admissible(dynamics, self.f, "prox", self.procedure)
        return self.delta, "given", self.delta, self.epsilon, dynamics

    def scan(self, seed):
        return directions(self.f.dim, SCAN_RANDOM, seed, axis_first=False)

    def forward(self, x0, dynamics, g0, gtol, max_iter):
        if isinstance(dynamics, StepSchedule):
            return _run_to_level(self.f, x0, dynamics, self.level, gtol, max_iter, g0=g0)[0]
        return integrate_minnorm(self.f, x0, self.level, dynamics, g0=g0)


def _flow_takes_no(what, **given):
    """Refuse (ValueError) the first gradient-descent budget of ``given``,
    each (value, default), that a flow run is handed at another value than
    its default: a flow reads none of them, its FlowSettings end it."""
    for name, (value, default) in given.items():
        if value != default:
            raise ValueError(f"{name}: {what} takes no GD budget; its FlowSettings end it")


def _descends(dynamics, what):
    """True for a StepSchedule (gradient descent), False for FlowSettings
    (DOP853 gradient flow); anything else is a ValueError."""
    if isinstance(dynamics, (StepSchedule, FlowSettings)):
        return isinstance(dynamics, StepSchedule)
    raise ValueError(f"{what} needs a StepSchedule (gradient descent) or FlowSettings "
                     f"(gradient flow), got {type(dynamics).__name__}")


def stability_probe(f, target, epsilon, dynamics, n_samples=8, seed=0, max_iter=20_000,
                    gtol=1e-8):
    """Empirical stability radius around a cataloged local minimum.

    Bisects on the radius delta in (0, epsilon], PROBE_BISECTIONS times
    once epsilon fails: each candidate runs trajectories from the 2n axis
    points plus n_samples quasi-random points on the delta-sphere, and
    fails if any trajectory leaves B_epsilon(target) or does not converge
    within budget.  delta_hat is the largest tested radius with zero
    failures (0 when every tested radius failed, which signals that
    epsilon violates the locality requirement).  Deterministic given the
    seed, an integer: a float is refused, as in 1-D, where no quasi-random
    direction is drawn, the generator never sees it.

    One runner marches every start: ``run_gd``'s ``_Descent`` under a
    StepSchedule or forward ``integrate``'s ``_Flow`` under FlowSettings
    (whose gtol and budgets replace ``gtol`` and ``max_iter``: these must
    be nonnegative, and under FlowSettings at their defaults, or a
    ValueError names the first that is not), bit for bit, with their
    stops.  A start also stops at its first state outside the ball (a
    failure, stopped_on = "left_ball"), in the certified ball B_r below
    (converged, the target its limit, stopped_on = "certified_ball", with
    r as ``s`` and mu_r as ``mu_s``) or in the capture set K below
    (converged, no limit, stopped_on = "capture_set"), each named by the
    event that ended it; a stop where |grad f| < gtol is reported as the
    full run would report it.  A run stops on its first state in K or B_r;
    a state in both is reported as in B_r, the stronger claim.

    B_r and K are the certificate of the module docstring (``_Basin``):
    a run that enters B_r converges to the target itself, one that enters
    K stays in B_epsilon and reaches gtol for all time, not only within
    budget; that its limit is the target is not claimed for K, and the
    full runs do not check it either.  The probe's starts stop in B_r by
    the reach's own test with a relative rounding slack PROBE_SLACK, as
    its B_epsilon test has, which lowers mu_r by at most PROBE_SLACK M r:
    a sphere start at radius r = epsilon passes at once.  The estimate
    reports c as ``capture_level`` and ``delta_cert``, each None where
    there is none.
    """
    descent = _descends(dynamics, "stability_probe")
    require_nonnegative_finite(gtol=gtol)
    require_count(max_iter=max_iter, n_samples=n_samples)
    require_integer(seed=seed)
    if not descent:
        _flow_takes_no("a flow probe", max_iter=(max_iter, 20_000), gtol=(gtol, 1e-8))
    target = np.asarray(target, dtype=float)
    basin = _Basin(f, target, epsilon, "probe target")
    if descent:
        require_admissible(dynamics, f, "stability", "discrete probe")
    runner = _Descent(f, dynamics, max_iter, gtol) if descent else _Flow(f, "forward", dynamics)

    dirs = unit_directions(f.dim, n_samples, seed)
    lane, center = f._lane, basin.center
    c, delta_cert = basin.certificate
    # B_epsilon and B_r (-inf: none) with the rounding slack
    contain = epsilon * (1.0 + PROBE_SLACK)
    inner = basin.ball[0] * (1.0 + PROBE_SLACK) if basin.ball else -math.inf

    def held(prev, t, x, fx):
        # inside the box: the epsilon-ball decides a failure, B_r or K a pass
        if lane.inside(x):
            dist = lane.norm(lane.sub(x, center))
            if not dist <= contain:
                return "budget_exhausted", None, t, x, {"stopped_on": "left_ball"}
            if dist <= inner:
                return basin.hit(t, x)
            if c is not None and fx < c:
                return "converged", None, t, x, {"stopped_on": "capture_set", "capture_level": c}
        return None

    def passes(start):
        steps, status, limit, stop = runner.march(start, event=held, value=f.value)
        if status == "converged" and stop and steps[-1][2] < runner.gtol:
            limit, stop = np.array(steps[-1][1]), None  # at gtol: as the full run reports it
        recorded(f, steps, status, limit, stop, runner.provenance)
        return status == "converged"

    def trial(radius):
        return [start for start in target + radius * dirs if not passes(start)]

    failures = trial(epsilon)
    if not failures:
        return StabilityEstimate(epsilon, epsilon, len(dirs), (), c, delta_cert)
    lo, hi = 0.0, epsilon
    for _ in range(PROBE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        bad = trial(mid)
        failures.extend(bad)
        lo, hi = (lo, mid) if bad else (mid, hi)
    return StabilityEstimate(epsilon, lo, len(dirs), tuple(failures), c, delta_cert)


def _escape_radius(f, delta, alpha_bar):
    """delta / (1 + 2aL/(1 - aL)), a = alpha_bar: from x in B_rho an
    ascent step moves at most 2a/(1 - aL) |grad f(x)| <= 2aL rho/(1 - aL)
    (``prox_certificates``; |grad f(x)| <= L |x - target| on the convex
    box), so the first crossing lands in B_delta; capture still rests on
    the caller's direct distance check."""
    L = f.lipschitz_L
    return delta / (1.0 + 2.0 * alpha_bar * L / (1.0 - alpha_bar * L))


def _first_crossing_orbit(f, a, s, rho, cap, target, kbar_max):
    """(x0, orbit): the reverse orbit anchored at a whose root x0 lies
    outside B_rho(target), accepted only when |x0 - target| <= cap (else
    None: the caller tries its next ascent seed); a box exit or kbar_max
    also give None.

    A constant schedule, p = 0, marches back once, so x0 is the first
    crossing of the rho-sphere.  For p > 0 the step indices shift with the
    horizon K, so each K rebuilds the orbit with x_K = a (the root keeps
    index 0).  An ascent step grows r = |x - target| by at most 1/(1 -
    alpha_k L) <= exp(alpha_k L/(1 - cL)), c = sup alpha, so no K with
    S(K) = alpha_0 + ... + alpha_{K-1} < ln(rho/r_a)(1 - cL)/L leaves
    B_rho: the first K is the smallest past that bound.  The next comes
    from a secant on ln(r/r_a) against the step sum an orbit climbed from
    a (S(K) when complete; a box exit reaches its last point in the box),
    aimed at the annulus's geometric middle sqrt(rho cap): through the
    origin after one build, exact to first order along an eigenvector of
    a quadratic, and through the last two builds after that, which
    follows an orbit that curves.  A box exit or a root past cap is an
    overshoot.  A guess outside the bracket falls back to bisection, or to
    doubling S while nothing has overshot; the search fails once the
    bracket closes or kbar_max is passed.  Each rebuild starts from the
    gradient at a that the first build took.
    """
    lane, center = f._lane, f._lane.point(target)
    outside = lambda x: lane.norm(lane.sub(x, center)) > rho  # x a point of f's lane

    def usable(orbit):
        root = orbit.points[0]
        return (orbit.status == "complete" and outside(lane.point(root))
                and norm(root - target) <= cap)

    if not s.p:
        orbit = reverse_orbit(f, a, s, kbar_max, stop=outside)
        return (orbit.points[0], orbit) if usable(orbit) else None

    S = [0.0]  # S[K], extended as far as a horizon needs it

    def horizon(target_sum):
        """Smallest K <= kbar_max with S(K) >= target_sum, else kbar_max + 1."""
        while S[-1] < target_sum and len(S) <= kbar_max:
            S.append(S[-1] + s.alpha(len(S) - 1))
        return bisect_left(S, target_sum)

    L, r_a = f.lipschitz_L, norm(a - target)
    bound = math.log(rho / r_a) * (1.0 - s.sup_alpha * L) / L if L > 0.0 else math.inf
    # S(1) = alpha_0, so the first horizon is at least 1
    lo, hi = horizon(max(bound, s.alpha(0))) - 1, kbar_max + 1
    kbar, aim, last = lo + 1, math.log(math.sqrt(rho * cap) / r_a), (0.0, 0.0)
    g_a = None  # grad f(a), taken by the first build
    while lo < kbar < hi:
        orbit = reverse_orbit(f, a, s, kbar, g0=g_a)
        g_a = orbit.gradients[-1]
        r = norm(orbit.points[0] - target)
        if orbit.status == "complete" and r <= rho:
            lo = kbar
        elif usable(orbit):
            return orbit.points[0], orbit
        else:
            hi = kbar
        # the step sum the orbit climbed from a and the ln(r/r_a) it reached;
        # the secant runs through the last build, or the origin
        climbed, y = S[kbar] - S[orbit.start_index], math.log(r / r_a)
        slope = (y - last[1]) / (climbed - last[0]) if climbed != last[0] else 0.0
        guess = horizon(climbed + (aim - y) / slope) if slope > 0.0 else lo
        last = climbed, y
        if not lo < guess < hi:
            guess = (lo + hi) // 2 if hi <= kbar_max else min(horizon(2.0 * S[kbar]), kbar_max)
        kbar = guess
    return None


def _first_escape(goal, seed_radius, seed, rho, dynamics, cap, kbar_max):
    """(a, x0, reverse part, g0, forward dynamics) of the first ascent seed
    a = target + seed_radius * d, d in the goal's ``scan`` order with f(a)
    above its level by SEED_FLOOR_RTOL (1 + |level|), that escapes B_rho
    under ``dynamics``, or None: by the reverse orbit whose root x0 lies
    outside B_rho and within cap, g0 the gradient the orbit took at x0 and
    the forward dynamics the schedule, or by the reverse flow to its
    crossing x0 of the rho-sphere (``_sphere_exit_detail``; at a minimum
    just inside it), g0 the reverse flow's gradient there and the forward
    dynamics the settings opened at its last proposed step (h_forward).  A
    flow that stops before it (the box, gtol or t_max; x0 is None) is
    recorded like every run, and the scan goes on to the next seed."""
    f, target, level = goal.f, goal.target, goal.level
    floor = SEED_FLOOR_RTOL * (1.0 + abs(level))
    for d in goal.scan(seed):
        a = target + seed_radius * d
        if not (f.in_box(a) and f.value(a) > level + floor):
            continue
        if isinstance(dynamics, StepSchedule):
            hit = _first_crossing_orbit(f, a, dynamics, rho, cap, target, kbar_max)
            if hit is not None:
                return a, *hit, hit[1].gradients[0], dynamics
        else:  # x0 None where the flow stopped inside the sphere
            _, x0, rev = _sphere_exit_detail(f, a, "reverse", target, rho, dynamics,
                                             minimum=goal.minimum)
            if x0 is not None:
                return (a, x0, rev, rev.provenance["g_exit"],
                        dataclasses.replace(dynamics, h=rev.provenance["h_forward"]))
    return None


def _reach(f, target, epsilon, dynamics, seed_radius, tol, budgets, goal, *given):
    """The one reach pipeline, by GD under a StepSchedule or DOP853 flow
    under FlowSettings, toward goal(f, target, epsilon, *given), a
    ``_Basin`` or a ``_Level``, whose docstrings state each kind's rules.
    The forward leg starts in the state the reverse leg ended in, on the
    dynamics and gradient ``_first_escape`` hands it.  Success
    iff the forward run has a limit (its convergence point or level
    crossing) within tol; the distance is from the limit, else from the
    last state."""
    descent = _descends(dynamics, goal.procedure)
    b = budgets or ReachBudgets()
    if not descent:
        _flow_takes_no("a flow reach", **{k: (getattr(b, k), getattr(ReachBudgets, k))
                                          for k in ("gtol", "max_iter", "kbar_max")})
    goal = goal(f, np.asarray(target, dtype=float), epsilon, *given)
    require_positive_finite(epsilon=epsilon, seed_radius=seed_radius, tol=tol)
    delta, source, rho, cap, dynamics = goal.plan(seed_radius, dynamics, b)
    found = (_first_escape(goal, seed_radius, b.seed, rho, dynamics, cap, b.kbar_max)
             if delta > 0.0 else None)
    if found is None:
        a = x0 = rev = fwd = None
        dist, status = float("inf"), "no_escape"
    else:
        a, x0, rev, g0, dynamics = found
        gtol = b.gtol if b.gtol is not None else min(1e-8, 1e-3 * tol)
        fwd = goal.forward(x0, dynamics, g0, gtol, b.max_iter)
        end = fwd.limit if fwd.limit is not None else fwd.final_x
        dist = norm(end - goal.target)
        status = "success" if fwd.limit is not None and dist <= tol else "no_converge"
    return ReachReport(
        target=goal.target, x0=x0, reverse_part=rev, forward_part=fwd, final_distance=dist,
        delta_used=float(delta), delta_source=source, ascent_seed=a, status=status,
        seed_radius=float(seed_radius), escape_radius=rho)


def reach_discrete(f, target, epsilon, s, seed_radius, tol, budgets=None):
    """Construct x0 with |x0 - target| <= epsilon, x0 != target, from which
    gradient descent under the schedule s converges back to the target:
    escape the rho-sphere inside the stability radius delta (``_Basin``) by
    reverse orbit from an ascent seed on the seed_radius sphere and replay
    forward under that schedule.  Success iff the forward limit lands within tol."""
    if not isinstance(s, StepSchedule):
        raise ValueError(f"reach_discrete needs a StepSchedule, got {type(s).__name__}")
    return _reach(f, target, epsilon, s, seed_radius, tol, budgets, _Basin)


def reach_continuous(f, target, epsilon, settings, seed_radius, tol, budgets=None):
    """Continuous counterpart: reverse flow from the ascent seed to its
    first crossing of the delta-sphere, located just inside it, so that x0
    lies in B_delta (``_sphere_exit_detail``); then forward flow from x0 at
    the opening, and from the gradient, the reverse flow measured there.
    Neither leg reads settings.h, and GD budgets (``ReachBudgets``' gtol,
    max_iter and kbar_max) are refused (ValueError)."""
    if not isinstance(settings, FlowSettings):
        raise ValueError(f"reach_continuous needs FlowSettings, got {type(settings).__name__}")
    return _reach(f, target, epsilon, settings, seed_radius, tol, budgets, _Basin)


def _run_to_level(f, x0, s, level, gtol, max_iter, *, g0=None):
    """GD until f(x_k) <= level; returns (trajectory, crossing or None),
    the crossing the secant of ``_Descent.locate`` on the step that reached
    the level; ``g0`` is ``run_gd``'s."""
    return _to_level(f, level, _Descent(f, s, max_iter, gtol), x0, g0)


def reach_general(f, target, epsilon, dynamics, seed_radius, tol=1e-2, delta=None,
                  budgets=None):
    """Reach a cataloged saddle (critical, neither local max nor min) on
    ``delta``, epsilon / 2 by default (``_Level``).  FlowSettings: reverse
    flow from the ascent seed to its crossing x0 of the delta-sphere, then
    ``integrate_minnorm``, the minimum-norm Clarke flow of max{f, c}, c =
    f(target), a local minimum of which the target is: the forward flow on
    f, stalled where it meets the level set f = c, located on the dense
    output, opened at the reverse flow's last proposed step; neither leg
    reads settings.h, and GD budgets are refused as by
    ``reach_continuous``.  StepSchedule:
    reverse orbit through {f > c} on f itself, forward replay, and linear
    interpolation to the first crossing of the level.  The distance is
    from the crossing to the target and shrinks with seed_radius.
    budgets.delta_override, a minimum's radius, is refused (ValueError)
    rather than ignored."""
    if budgets is not None and budgets.delta_override is not None:
        raise ValueError("delta_override: a saddle reach runs on its delta; pass delta instead")
    return _reach(f, target, epsilon, dynamics, seed_radius, tol, budgets, _Level,
                  float(0.5 * epsilon if delta is None else delta))


def edge_of_stability(f, alpha, x0):
    """Exact convergence verdict for gradient descent on an exactly quadratic
    objective: ``hessian_lipschitz`` 0, a Hessian, and its one critical
    point x* cataloged.

    There x_k - x* = (I - alpha H)^k (x0 - x*), H the constant Hessian, so
    the spectral criterion on the eigendirections carrying x0 - x* decides:
    with r = max |1 - alpha * l_i| over the eigenpairs (l_i, v_i) of H with
    v_i . (x0 - x*) nonzero, the verdict is converges (r < 1), diverges (r
    > 1) or neutral (r = 1).  Cross-checked by 10^3 steps of ``run_gd``'s
    rule without its box stop, thresholding |x - x*|; only a clear
    contradiction raises.
    """
    if not (f.hessian_lipschitz == 0.0 and f.hessian is not None
            and len(f.critical_points) == 1):
        raise ValueError("the exact spectral criterion needs an exactly quadratic objective: "
                         "hessian_lipschitz 0, a Hessian and one cataloged critical point")
    require_positive_finite(alpha=alpha)
    x0 = finite_point(f, x0, "x0")  # not ``start``: x0 may lie outside the box
    star = f.critical_points[0].point
    lam, V = np.linalg.eigh(f.hess(star))
    supported = np.abs(V.T @ (x0 - star)) > 0.0
    r = float(np.abs(1.0 - alpha * lam)[supported].max()) if supported.any() else 0.0
    verdict = "converges" if r < 1.0 else "diverges" if r > 1.0 else "neutral"

    lane = f._lane
    with np.errstate(over="ignore", invalid="ignore"):
        steps = march(f, lane.point(x0), lane.grad, _Descent(f, constant(alpha), 1000, 0.0).step,
                      1000, box=False)[0]
        n1 = norm(lane.sub(steps[-1][1], lane.point(star)))
    n0 = norm(x0 - star)
    threshold = max(10.0 * n0, DIVERGENCE_FACTOR * (1.0 + f.box_diameter()))
    empirical = None
    if not np.isfinite(n1) or n1 > threshold:
        empirical = "diverges"
    elif n0 == 0.0 or n1 < 0.1 * n0:
        empirical = "converges"
    elif 0.5 * n0 <= n1 <= 2.0 * n0:
        empirical = "neutral"
    if empirical is not None and {verdict, empirical} == {"converges", "diverges"}:
        raise ArithmeticError(
            f"spectral verdict {verdict} contradicts the {empirical} iteration check")
    return verdict
