"""Exact reverse dynamics for gradient descent.

The proximal mapping and its ascent counterpart are the fixed point of
T(y) = x -/+ lambda * grad(y), a strict contraction with factor q =
lambda * L < 1, so it is the strongly convex (resp. concave) subproblem
optimum and no inner line search is needed.  Picard iteration on T is
sped up by depth-2 Anderson mixing (Anderson 1965; GMRES-like on a
linear map, Walker & Ni 2011), one gradient per tested iterate, under
Picard's stop rule.  The solve returns the iterate y it tested, within
|T(y) - y|/(1 - q) of the fixed point, with the gradient the test took
there, so an ascent step's forward residual y - a grad(y) - x_{k+1} =
y - T(y), which it also returns with |y|, costs no further gradient.
``reverse_orbit`` hands each solve its last two steps as they are, and
the solve turns each into a secant of its own T to seed its mixing
history, the multisecant view of Anderson mixing (Fang & Saad 2009): in
2-D they span the plane, so the first mixed iterate m is a quasi-Newton
step; in 1-D two secants are collinear, so only the newest acts and the
solve is the secant method.  The miss y - m of a solve's answer y is
second order in the step, set by how grad's Jacobian changes across it,
so it changes little from one orbit step to the next: each solve hands
the next its miss and l = |m - base|^2, and the next moves its own m by
that miss scaled by l/l', the squared ratio of the two first steps'
lengths, as a second-order term scales, before the box test.  Only the
starting point moves.  Every solve stops on its first tested y with
|T(y) - y| <= FIXED_POINT_RTOL (1 + min(|base|, |y|)), 0.999e-10, the
1e-10 forward-residual certificate less the rounding margin proved at the
constant, and returns the iterate it tested, so the certificate holds
however y was reached.  Each test compares with the bound on |base|,
computed once per solve; only an iterate that passes it takes |y|, the
one the solve returns.

Every solve runs in an orbit frame chosen in one place (``_orbit``): a
whole orbit in one call, the stop test, each alpha_k and each solve with
its certificate, the last two steps and the miss held as locals;
``prox`` and ``ascent_prox`` run it for one step.  The ndarray lane
(dim > 2) has one frame, ``_orbitn``, on arrays and ``landscape.dot``;
the float lane one per dimension, ``_orbit1`` and ``_orbit2``, written
out over local Python floats with the points made arrays once at the
end, the only code here that knows the lane's layout: the same IEEE
operations in the same order, so points, residuals, gradients and counts
are ``_orbitn``'s bit for bit, at a fraction of its calls.
"""

from dataclasses import dataclass
from itertools import chain
from math import sqrt

import numpy as np

from .landscape import LeftBoxError, dot, norm, require_count, row_norms, sumsq
from .schedule import constant, require_admissible
from .trajectory import start

# every ascent and proximal solve stops on its first tested y with |T(y) -
# y| <= FIXED_POINT_RTOL (1 + min(|base|, |y|)); its result is checked
# against FORWARD_RESIDUAL_RTOL (1 + |y|) as an ascent step (x_k = y) and
# (1 + |base|) as the prox identity (x = base), so the min serves both.  The
# margin 1e-13 (1 + min) covers rounding.  With p = fl(step g), the product
# both sides share, and u = 2^-53, each coordinate of the tested r =
# fl(fl(base + p) - y) and of v = fl(fl(y - p) - base), the returned residual
# or any recomputation, lies within u (|y| + 2|r|) and u (|base| + 2|v|) of
# +/-(base + p - y), so |v| <= |r| + u (|y| + |base|) + a few u |r| from the
# norms, + u |p| for a gradient recomputed an ulp off.  As |y| + |base| <= 2
# min + |y - base| and |p| is |y - base| up to |r|, that excess is at most
# 2u min + 2u |y - base| and a few u |r|, under 1e-13 (1 + min) whenever the
# step |y - base| is under 400, as in any box of diameter under 400 (every
# builtin's, up to quad in 400 dimensions).  No tighter solve enters a
# reach's result: that rests on the forward run from x0 alone (for a minimum
# the B_r stop, for a saddle the level crossing observed within tol), and x0
# is the orbit's root at its measured distance
FIXED_POINT_RTOL = 0.999e-10
FORWARD_RESIDUAL_RTOL = 1e-10
PROX_SLACK_RTOL = 1e-9  # prox_certificates' slack, relative to 1 + |f(x)|
_MAX_INNER_ITER = 200_000
_ANDERSON_DEPTH = 2  # the residual differences a solve's fit combines; its closed form needs <= 2
_GRAM_RTOL = 1e-10  # depth 1 below this sin^2 of the angle between dr_1 and dr_2


@dataclass(frozen=True, eq=False)
class ReverseOrbit:
    """Backward-constructed points x_start..x_kbar with x_kbar = anchor.

    ``points`` is one read-only, C-contiguous (n, dim) float array whose
    row ``points[i]`` is x_{start_index + i}, so the orbit consumed the alpha
    indices start_index to start_index + len(points) - 2.  ``status`` is
    'left_box' when the construction escaped the operating box early and
    the orbit is partial; that exit is a legitimate escape event for the
    reachability pipeline.  forward_residuals[i] certifies
    |x_{k+1} - (x_k - alpha_k grad(x_k))| for consecutive points, and
    gradients[i] is grad f(points[i]) as the construction took it, a point
    of f's lane (``landscape.Lane``).
    """

    points: np.ndarray
    anchor: np.ndarray
    forward_residuals: tuple
    status: str = "complete"
    start_index: int = 0
    gradients: tuple = ()

    @property
    def grad_norms(self):
        """|grad f| at each point, taken row-wise over the kept gradients."""
        return row_norms(_stacked(self.gradients)).tolist()


def _stacked(rows):
    """rows, points of one lane, as one read-only (n, dim) float array,
    stacked as ``trajectory.recorded`` stacks a run's points."""
    A = (np.fromiter(chain.from_iterable(rows), float).reshape(len(rows), -1)
         if type(rows[0]) is tuple else np.array(rows))
    A.flags.writeable = False
    return A


def _picard(f, base, lam, sign, tol_scale=None, g=None, steps=(), miss=None):
    """Fixed point of T(y) = base + sign * lam * grad(y), base and y points
    of f's lane: f's orbit frame (:func:`_orbit`) run for one step.  Each
    iteration tests y by one T(y), then moves to the mixed point and takes
    its gradient.  The first y is base, with gradient ``g`` when known.
    Each of ``steps`` (newest first, at most two), an orbit step (x, z,
    grad(x), grad(z)) back from x to z, starts the mixing history as T's
    secant from x to z, whose base cancels: dr = (x - z) + step dg and dT
    = step dg, dg = grad(z) - grad(x) and step = sign * lam (dT never
    formed: w = step, v = dg).  The first mixed point m, the steps'
    quasi-Newton step, moves by the last solve's ``miss`` = (y' - m', l')
    scaled by l/l', l = |m - base|^2, and then takes the box test.
    Returns (y, grad(y), iters, |(y - step grad(y)) - base|, |y|, miss) at
    the first |T(y) - y| <= tol = FIXED_POINT_RTOL * (1 + min(tol_scale,
    |y|)), tol_scale = |base|, taken when None, |y| only once the bound on
    |base| holds; the fourth is an ascent step's forward residual |y - T(y)|
    up to rounding, certified to 1e-10 (1 + |y|) (else ArithmeticError), and
    the last this solve's (y - m, l), None without an m or when l = 0.  As T
    contracts by q = lam * L, |y - y*| <= |y - T(y)| + q |y - y*|, so y lies
    within |T(y) - y|/(1 - q) <= tol/(1 - q) of the unique fixed point y*,
    however it was reached, the shift included.  Raises LeftBoxError when
    T(y) leaves the box; y itself never does."""
    xs, residuals, grads, left, iters, ynorm, miss = _orbit(
        f, base, g, tol_scale, (lam,), sign, None, steps, miss)
    if left is not None:
        raise LeftBoxError(left, "fixed-point iterate left the operating box")
    return xs[-1], grads[-1], iters, residuals[-1], ynorm, miss


def _uncertified(sign, residual):
    """The error of a solve whose forward residual fails its certificate."""
    return ArithmeticError(f"{'ascent' if sign > 0 else 'proximal'} step failed its inverse "
                           f"certificate: {residual:.3e}")


def _orbitn(f, x, g, xnorm, alphas, sign, stop=None, steps=(), miss=None):
    """A reverse orbit on the ndarray lane (dim > 2) in one frame: from x,
    one solve of T(y) = x + sign lam grad(y) per lam of ``alphas``, while
    ``stop``, when given, is false at x, each solve's y the next x.  Each
    solve is :func:`_picard`'s: T(y), the residual, the restart test, the
    depth-2 history of (dr, v, w, |dr|^2) as (d, e, w, a11), newest
    first (w = 1 for the solve's own secants), the mixed point
    t - c_1 w_1 e_1 - c_2 w_2 e_2 with c the least-squares fit of r by the
    d_i (2x2 normal equations in closed form, the newest alone when their
    Gram determinant is degenerate, as for collinear secants), the shift,
    the box test and the norms, and it must pass the 1e-10
    forward-residual certificate, else ArithmeticError.  g and xnorm are grad(x) and |x| when known; ``steps``
    and ``miss`` seed the first solve as :func:`_picard`'s do, and each
    later one takes the last two steps, as (x - y, grad(y) - grad(x)), and
    the miss its predecessor left.  Returns (points, residuals, gradients,
    the T(y) that left the box or None, total iterations, |y|, miss) for the
    points from x on; a box exit ends the orbit."""
    L, grad, inside = f.lipschitz_L, f._lane.grad, f._lane.inside
    g = grad(x) if g is None else g
    xnorm = norm(x) if xnorm is None else xnorm
    xs, residuals, grads, left, total = [x], [], [g], None, 0
    held = [(p - z, gz - gp) for p, z, gp, gz in steps]
    c, ell_p = (None, None) if miss is None else miss
    for lam in alphas:
        if stop is not None and stop(x):
            break
        tol_sq = (FIXED_POINT_RTOL * (1.0 + xnorm)) ** 2
        q_sq = (lam * L) ** 2
        step = sign * lam
        y, gx, mixed, ell = x, g, False, 0.0
        hist = [(d := sx + step * e, e, step, dot(d, d)) for sx, e in held]
        for it in range(1, _MAX_INNER_ITER + 1):
            t = x + step * g
            if not inside(t):
                left = t
                break
            r = t - y
            rr = dot(r, r)
            if rr <= tol_sq and ((ynorm := norm(y)) >= xnorm
                                 or rr <= (FIXED_POINT_RTOL * (1.0 + ynorm)) ** 2):
                break
            if mixed and not rr <= q_sq * last_rr:
                hist = []  # the mixed iterate contracted less than a Picard step: restart
            elif it > 1:
                d = r - last_r
                hist = [(d, t - last_t, 1.0, dot(d, d))] + hist[:_ANDERSON_DEPTH - 1]
            last_r, last_t, last_rr = r, t, rr
            y = t
            if hist and hist[0][3] > 0.0:
                (d1, e1, w1, a11), *older = hist
                b1, deep = dot(d1, r), False
                if older:
                    ((d2, e2, w2, a22),) = older
                    a12, b2 = dot(d1, d2), dot(d2, r)
                    det = a11 * a22 - a12 * a12
                    deep = det > _GRAM_RTOL * a11 * a22
                m = (t + (a12 * b2 - a22 * b1) / det * w1 * e1
                     + (a12 * b1 - a11 * b2) / det * w2 * e2 if deep else t + -b1 / a11 * w1 * e1)
                if it == 1:
                    first, ell = m, sumsq(m - x)
                    if ell_p is not None:
                        m = m + ell / ell_p * c
                if inside(m):
                    y = m
            mixed = y is not t
            g = grad(y)
        else:
            raise ArithmeticError("fixed-point iteration failed to contract")
        if left is not None:
            break
        residual = norm((y + -step * g) - x)
        if residual > FORWARD_RESIDUAL_RTOL * (1.0 + ynorm):
            raise _uncertified(sign, residual)
        total += it
        held = [(x - y, g - gx)] + held[:_ANDERSON_DEPTH - 1]
        c, ell_p = (y - first, ell) if ell > 0.0 else (None, None)
        x, xnorm = y, ynorm
        xs.append(y)
        residuals.append(residual)
        grads.append(g)
    return xs, residuals, grads, left, total, xnorm, None if ell_p is None else (c, ell_p)


def _orbit1(f, x, g, xnorm, alphas, sign, stop=None, steps=(), miss=None):
    """:func:`_orbitn` on the 1-D float lane, written out over local
    floats: the same IEEE operations in the same order as its numpy ops,
    ``dot`` and ``norm``, the last step held as (x - y, grad(y) - grad(x))
    in floats and the points returned as tuples.  Two 1-D secants are
    collinear, so their Gram determinant is rounding and the fit takes the
    newest alone: the history holds only it, and the solve is the secant
    method."""
    L, grad, ((l0,), (h0,)) = f.lipschitz_L, f._lane.grad, f._lane.bounds
    g = grad(x) if g is None else g
    (x0,), (g0,) = x, g
    xnorm = sqrt(x0 * x0) if xnorm is None else xnorm
    xs, residuals, grads, left, total, held = [x], [], [g], None, 0, bool(steps)
    if held:
        (p0,), (z0,), (gp0,), (gz0,) = steps[0]
        sx0, se0 = p0 - z0, gz0 - gp0
    (c0,), ell_p = ((0.0,), None) if miss is None else miss
    for lam in alphas:
        if stop is not None and stop(x):
            break
        tol_sq = (FIXED_POINT_RTOL * (1.0 + xnorm)) ** 2
        q_sq = (lam * L) ** 2
        step = sign * lam
        y, y0, gx0, n, mixed, ell = x, x0, g0, 0, False, 0.0
        if held:
            e0 = se0
            d0, w, n = sx0 + step * e0, step, 1
            a11 = d0 * d0
        for it in range(1, _MAX_INNER_ITER + 1):
            t0 = x0 + step * g0
            if t0 < l0 or t0 > h0:
                left = (t0,)
                break
            r0 = t0 - y0
            rr = r0 * r0
            if rr <= tol_sq and ((ynorm := sqrt(y0 * y0)) >= xnorm
                                 or rr <= (FIXED_POINT_RTOL * (1.0 + ynorm)) ** 2):
                break
            if mixed and not rr <= q_sq * last_rr:
                n = 0  # the mixed iterate contracted less than a Picard step: restart
            elif it > 1:
                d0, e0 = r0 - last_r0, t0 - last_t0
                w, a11, n = 1.0, d0 * d0, 1
            last_r0, last_t0, last_rr = r0, t0, rr
            mixed = False
            if n and a11 > 0.0:
                m0 = t0 + -(d0 * r0) / a11 * w * e0
                if it == 1:
                    v0 = m0 - x0
                    f0, ell = m0, v0 * v0
                    if ell_p is not None:
                        m0 = m0 + ell / ell_p * c0
                mixed = not (m0 < l0 or m0 > h0)
            (y0,) = y = (m0,) if mixed else (t0,)
            (g0,) = g = grad(y)
        else:
            raise ArithmeticError("fixed-point iteration failed to contract")
        if left is not None:
            break
        u0 = (y0 + -step * g0) - x0
        residual = sqrt(u0 * u0)
        if residual > FORWARD_RESIDUAL_RTOL * (1.0 + ynorm):
            raise _uncertified(sign, residual)
        total += it
        sx0, se0, held = x0 - y0, g0 - gx0, True
        c0, ell_p = (y0 - f0, ell) if ell > 0.0 else (0.0, None)
        x, x0, xnorm = y, y0, ynorm
        xs.append(y)
        residuals.append(residual)
        grads.append(g)
    return (xs, residuals, grads, left, total, xnorm,
            None if ell_p is None else ((c0,), ell_p))


def _orbit2(f, x, g, xnorm, alphas, sign, stop=None, steps=(), miss=None):
    """:func:`_orbit1` on the 2-D float lane, with the last two steps,
    newest (s) and older (o), and the depth-2 history (newest d, e, w, a11;
    older dd, ee, ww, a22) and the fit's normal equations: the steps
    enter each solve's history oldest first, as the loop's own secants do,
    and each sum over coordinates is ``dot``'s, index order."""
    L, grad, ((l0, l1), (h0, h1)) = f.lipschitz_L, f._lane.grad, f._lane.bounds
    g = grad(x) if g is None else g
    (x0, x1), (g0, g1) = x, g
    xnorm = sqrt(x0 * x0 + x1 * x1) if xnorm is None else xnorm
    xs, residuals, grads, left, total, held = [x], [], [g], None, 0, 0
    for (p0, p1), (z0, z1), (gp0, gp1), (gz0, gz1) in reversed(steps):
        if held:
            ox0, ox1, oe0, oe1 = sx0, sx1, se0, se1
        sx0, sx1, se0, se1, held = p0 - z0, p1 - z1, gz0 - gp0, gz1 - gp1, 2 if held else 1
    (c0, c1), ell_p = ((0.0, 0.0), None) if miss is None else miss
    for lam in alphas:
        if stop is not None and stop(x):
            break
        tol_sq = (FIXED_POINT_RTOL * (1.0 + xnorm)) ** 2
        q_sq = (lam * L) ** 2
        step = sign * lam
        y, y0, y1, gx0, gx1, n, mixed, ell = x, x0, x1, g0, g1, 0, False, 0.0
        if held == 2:
            ee0, ee1 = oe0, oe1
            dd0, dd1 = ox0 + step * ee0, ox1 + step * ee1
            ww, a22, n = step, dd0 * dd0 + dd1 * dd1, 1
        if held:
            e0, e1 = se0, se1
            d0, d1 = sx0 + step * e0, sx1 + step * e1
            w, a11, n = step, d0 * d0 + d1 * d1, n + 1
        for it in range(1, _MAX_INNER_ITER + 1):
            t0 = x0 + step * g0
            t1 = x1 + step * g1
            if t0 < l0 or t0 > h0 or t1 < l1 or t1 > h1:
                left = (t0, t1)
                break
            r0, r1 = t0 - y0, t1 - y1
            rr = r0 * r0 + r1 * r1
            if rr <= tol_sq and ((ynorm := sqrt(y0 * y0 + y1 * y1)) >= xnorm
                                 or rr <= (FIXED_POINT_RTOL * (1.0 + ynorm)) ** 2):
                break
            if mixed and not rr <= q_sq * last_rr:
                n = 0  # the mixed iterate contracted less than a Picard step: restart
            elif it > 1:
                if n:
                    dd0, dd1, ee0, ee1, ww, a22 = d0, d1, e0, e1, w, a11
                d0, d1, e0, e1 = r0 - last_r0, r1 - last_r1, t0 - last_t0, t1 - last_t1
                w, a11, n = 1.0, d0 * d0 + d1 * d1, 2 if n else 1
            last_r0, last_r1, last_t0, last_t1, last_rr = r0, r1, t0, t1, rr
            mixed = False
            if n and a11 > 0.0:
                b1, deep = d0 * r0 + d1 * r1, False
                if n == 2:
                    a12, b2 = d0 * dd0 + d1 * dd1, dd0 * r0 + dd1 * r1
                    det = a11 * a22 - a12 * a12
                    deep = det > _GRAM_RTOL * a11 * a22
                if deep:
                    c, cc = (a12 * b2 - a22 * b1) / det * w, (a12 * b1 - a11 * b2) / det * ww
                    m0, m1 = (t0 + c * e0) + cc * ee0, (t1 + c * e1) + cc * ee1
                else:
                    c = -b1 / a11 * w
                    m0, m1 = t0 + c * e0, t1 + c * e1
                if it == 1:
                    v0, v1 = m0 - x0, m1 - x1
                    f0, f1, ell = m0, m1, v0 * v0 + v1 * v1
                    if ell_p is not None:
                        c = ell / ell_p
                        m0, m1 = m0 + c * c0, m1 + c * c1
                mixed = not (m0 < l0 or m0 > h0 or m1 < l1 or m1 > h1)
            y0, y1 = y = (m0, m1) if mixed else (t0, t1)
            g0, g1 = g = grad(y)
        else:
            raise ArithmeticError("fixed-point iteration failed to contract")
        if left is not None:
            break
        u0, u1 = (y0 + -step * g0) - x0, (y1 + -step * g1) - x1
        residual = sqrt(u0 * u0 + u1 * u1)
        if residual > FORWARD_RESIDUAL_RTOL * (1.0 + ynorm):
            raise _uncertified(sign, residual)
        total += it
        if held:
            ox0, ox1, oe0, oe1 = sx0, sx1, se0, se1
        sx0, sx1, se0, se1, held = x0 - y0, x1 - y1, g0 - gx0, g1 - gx1, 2 if held else 1
        (c0, c1), ell_p = ((y0 - f0, y1 - f1), ell) if ell > 0.0 else ((0.0, 0.0), None)
        x, x0, x1, xnorm = y, y0, y1, ynorm
        xs.append(y)
        residuals.append(residual)
        grads.append(g)
    return (xs, residuals, grads, left, total, xnorm,
            None if ell_p is None else ((c0, c1), ell_p))


_ORBITS = {1: _orbit1, 2: _orbit2}  # the float lane's orbit frame per dimension


def _orbit(f, *args):
    """Run f's orbit frame on ``args``: :func:`_orbit1` or :func:`_orbit2`
    on the float lane, :func:`_orbitn` on the ndarray lane."""
    return _ORBITS.get(f.dim, _orbitn)(f, *args)


def prox(f, x, lam):
    """argmin_y f(y) + |y - x|^2 / (2 lam) via the implicit equation
    y = x - lam * grad(y), for lam < 1/L and x a start (``start``)."""
    require_admissible(constant(lam), f, "prox", "prox")
    return np.array(_picard(f, start(f, x, "x"), lam, -1.0)[0])


def prox_certificates(f, x, lam, xplus):
    """The two certified inequalities of the proximal step:

    dec_ok : f(x) - f(x+) >= (lam/2) |grad(x+)|^2
    step_ok: |x+ - x| <= 2 lam / (1 - L lam) |grad(x)|

    both with slack PROX_SLACK_RTOL * (1 + |f(x)|).
    """
    x = np.asarray(x, dtype=float)
    xplus = np.asarray(xplus, dtype=float)
    fx = f.value(x)
    slack = PROX_SLACK_RTOL * (1.0 + abs(fx))
    dec_ok = fx - f.value(xplus) >= 0.5 * lam * f.grad_norm(xplus) ** 2 - slack
    bound = 2.0 * lam / (1.0 - f.lipschitz_L * lam) * f.grad_norm(x)
    step_ok = norm(xplus - x) <= bound + slack
    return dec_ok, step_ok


def ascent_prox(f, xnext, a):
    """argmax_y f(y) - |y - xnext|^2 / (2a): the exact preimage of an
    explicit gradient step, solved as the fixed point of
    y = xnext + a * grad(y) for a < 1/L and xnext a start (``start``).
    The returned point replays forward onto xnext to within 1e-10 * (1 +
    |result|)."""
    require_admissible(constant(a), f, "prox", "ascent_prox")
    return np.array(_picard(f, start(f, xnext, "xnext"), a, 1.0)[0])


def reverse_orbit(f, a, s, kbar, stop=None, *, g0=None):
    """Build x_kbar = a and x_k = ascent_prox(f, x_{k+1}, alpha_k) for
    k = kbar-1 down to 0.

    The index alignment guarantees the forward replay
    x_{k+1} = x_k - alpha_k grad(x_k) consumes the schedule from index 0.
    A box exit mid-construction returns the partial orbit with status
    'left_box' rather than raising.

    With ``stop`` (constant, p = 0, only) the march ends at the first
    point x, a point of f's lane, with stop(x), or after kbar steps; the K
    steps taken are indexed K-1 down to 0.  The anchor's gradient is
    ``g0``, grad f(a) as f's lane takes it, when the caller has it (a
    horizon search hands each rebuild the one its last build took), else
    taken once; each later solve starts from the gradient and the norm its
    predecessor returned, and its mixing history from the last two steps,
    (x_{k+1}, x_k, grad(x_{k+1}), grad(x_k)) newest first, so m > 0 solves
    cost one gradient (none with g0) plus their iterations less one each,
    and 2m + 1 norms.  Each solve also starts its first mixed point from
    the miss its predecessor returned (:func:`_picard`), which only moves
    where the iteration starts.  The orbit keeps the gradients.  The whole
    build is one call of f's orbit frame (:func:`_orbit`).

    Each solve stops on its first y = x_k with |T(y) - y| <=
    FIXED_POINT_RTOL (1 + min(|x_{k+1}|, |x_k|)), 0.999e-10, and every
    step must pass its 1e-10 forward-residual certificate, else
    ArithmeticError; the rounding margin between the two keeps every
    residual recomputed from the points within 1e-10 (1 + min(|x_k|,
    |x_{k+1}|)).
    """
    anchor = np.asarray(a, dtype=float)
    require_count(kbar=kbar)
    if stop is not None and s.p:
        raise ValueError("a stopping march needs a constant schedule (p = 0)")
    x = start(f, anchor, "anchor")
    # checked once: every alpha_k is at most sup_alpha, and each later
    # solve starts from a point its predecessor's Picard test kept in the box
    require_admissible(s, f, "prox", "reverse_orbit")
    points, residuals, grads, left = _orbit(
        f, x, g0, None, map(s.alpha, range(kbar - 1, -1, -1)), 1.0, stop)[:4]
    return ReverseOrbit(
        points=_stacked(points[::-1]),
        anchor=anchor.copy(),
        forward_residuals=tuple(residuals[::-1]),
        status="complete" if left is None else "left_box",
        start_index=0 if stop is not None else kbar - len(residuals),
        gradients=tuple(grads[::-1]),
    )
